//! Property tests for the event queue and engine ordering guarantees,
//! including the wheel-vs-heap oracle that pins the hierarchical
//! timing wheel to a naive sorted-scan model, plus the JSONL
//! event-schema roundtrip that keeps `write_jsonl`/`parse_jsonl`
//! inverse of each other for every variant of the vocabulary.

use lp_sim::obs::{Event, TimedEvent};
use lp_sim::{EventQueue, SimTime};
use proptest::prelude::*;

/// One queue operation for the oracle test. `Cancel` carries an index
/// into the ids issued so far (taken modulo their count).
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    Cancel(usize),
    Pop,
}

/// Times spanning every wheel regime: level 0, mid levels, the 2^36
/// overflow horizon on both sides, and far-future heap residents.
fn time_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        0u64..100_000,
        0u64..10_000_000_000,
        ((1u64 << 36) - 100)..((1u64 << 36) + 100),
        0u64..u64::MAX / 2,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => time_strategy().prop_map(Op::Push),
        2 => any::<usize>().prop_map(Op::Cancel),
        2 => Just(Op::Pop),
    ]
}

proptest! {
    /// The wheel-vs-heap oracle: the timing-wheel queue agrees with a
    /// naive O(n)-scan model on every pop, peek, and live count, for
    /// arbitrary interleavings of push/cancel/pop across all wheel
    /// levels and the overflow heap.
    #[test]
    fn wheel_matches_naive_oracle(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        let mut q = EventQueue::new();
        // Oracle entries: (time, seq, alive). Pops select the minimum
        // (time, seq) — exactly the packed-u128 key order.
        let mut naive: Vec<(u64, u64, bool)> = Vec::new();
        let mut ids = Vec::new();
        let mut seq = 0u64;
        for op in &ops {
            match *op {
                Op::Push(t) => {
                    ids.push((q.push(SimTime::from_nanos(t), seq), seq));
                    naive.push((t, seq, true));
                    seq += 1;
                }
                Op::Cancel(k) => {
                    if ids.is_empty() {
                        continue;
                    }
                    let (id, s) = ids[k % ids.len()];
                    q.cancel(id);
                    naive[s as usize].2 = false;
                }
                Op::Pop => {
                    let want = naive
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.2)
                        .min_by_key(|(_, e)| (e.0, e.1))
                        .map(|(j, _)| j);
                    let got = q.pop().map(|(t, s)| (t.as_nanos(), s));
                    prop_assert_eq!(got, want.map(|j| (naive[j].0, naive[j].1)));
                    if let Some(j) = want {
                        naive[j].2 = false;
                    }
                }
            }
            let want_peek = naive.iter().filter(|e| e.2).map(|e| (e.0, e.1)).min();
            prop_assert_eq!(
                q.peek_time().map(|t| t.as_nanos()),
                want_peek.map(|(t, _)| t)
            );
            prop_assert_eq!(q.live_len(), naive.iter().filter(|e| e.2).count());
        }
        // Drain: the tail must come out in exact (time, seq) order.
        let mut rest: Vec<(u64, u64)> = naive
            .iter()
            .filter(|e| e.2)
            .map(|e| (e.0, e.1))
            .collect();
        rest.sort_unstable();
        for &want in &rest {
            prop_assert_eq!(q.pop().map(|(t, s)| (t.as_nanos(), s)), Some(want));
        }
        prop_assert!(q.pop().is_none());
    }

    /// Events always pop in nondecreasing time order, and ties pop in
    /// insertion order.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_exact(
        times in proptest::collection::vec(0u64..100, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 100),
    ) {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut ids = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            ids.push((q.push(SimTime::from_nanos(t), i), i));
        }
        for (idx, &(id, i)) in ids.iter().enumerate() {
            if cancel_mask[idx % cancel_mask.len()] {
                q.cancel(id);
            } else {
                expect.push(i);
            }
        }
        let mut got = Vec::new();
        while let Some((_, i)) = q.pop() {
            got.push(i);
        }
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}

/// One operation for the reservation oracle: the plain operations plus
/// [`EventQueue::reserve`] and [`EventQueue::push_reserved`]. A
/// reserved push files the outstanding ticket `ticket` (modulo their
/// count) at `time`, or, when `tie` is set, at the time of an existing
/// entry (modulo their count), so equal-time ties with older and newer
/// sequence numbers are common on every wheel level and in the heap.
#[derive(Debug, Clone, Copy)]
enum ROp {
    Push(u64),
    Reserve,
    PushReserved {
        time: u64,
        tie: Option<usize>,
        ticket: usize,
    },
    Cancel(usize),
    Pop,
}

fn rop_strategy() -> impl Strategy<Value = ROp> {
    prop_oneof![
        3 => time_strategy().prop_map(ROp::Push),
        2 => Just(ROp::Reserve),
        3 => (time_strategy(), any::<bool>(), any::<usize>(), any::<usize>()).prop_map(
            |(time, tied, k, ticket)| ROp::PushReserved {
                time,
                tie: tied.then_some(k),
                ticket,
            }
        ),
        2 => any::<usize>().prop_map(ROp::Cancel),
        2 => Just(ROp::Pop),
    ]
}

proptest! {
    /// The reservation oracle: interleaving `reserve` and
    /// `push_reserved` with push, cancel, and pop, the wheel agrees with
    /// a naive `(time, seq)` scan on every pop, peek, and live count —
    /// a reserved entry orders by the sequence number its ticket took,
    /// not by when it was filed.
    #[test]
    fn reserved_pushes_match_naive_oracle(ops in proptest::collection::vec(rop_strategy(), 1..250)) {
        let mut q = EventQueue::new();
        // Oracle entries: (time, seq, alive), one per filed event.
        let mut naive: Vec<(u64, u64, bool)> = Vec::new();
        let mut ids = Vec::new();
        let mut tickets = Vec::new();
        let mut seq = 0u64;
        for op in &ops {
            match *op {
                ROp::Push(t) => {
                    ids.push((q.push(SimTime::from_nanos(t), seq), naive.len()));
                    naive.push((t, seq, true));
                    seq += 1;
                }
                ROp::Reserve => {
                    tickets.push((q.reserve(), seq));
                    seq += 1;
                }
                ROp::PushReserved { time, tie, ticket } => {
                    if tickets.is_empty() {
                        continue;
                    }
                    let (tk, s) = tickets.swap_remove(ticket % tickets.len());
                    let t = match tie {
                        Some(k) if !naive.is_empty() => naive[k % naive.len()].0,
                        _ => time,
                    };
                    ids.push((q.push_reserved(SimTime::from_nanos(t), tk, s), naive.len()));
                    naive.push((t, s, true));
                }
                ROp::Cancel(k) => {
                    if ids.is_empty() {
                        continue;
                    }
                    let (id, j) = ids[k % ids.len()];
                    q.cancel(id);
                    naive[j].2 = false;
                }
                ROp::Pop => {
                    let want = naive
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.2)
                        .min_by_key(|(_, e)| (e.0, e.1))
                        .map(|(j, _)| j);
                    let got = q.pop().map(|(t, s)| (t.as_nanos(), s));
                    prop_assert_eq!(got, want.map(|j| (naive[j].0, naive[j].1)));
                    if let Some(j) = want {
                        naive[j].2 = false;
                    }
                }
            }
            let want_peek = naive.iter().filter(|e| e.2).map(|e| (e.0, e.1)).min();
            prop_assert_eq!(
                q.peek_time().map(|t| t.as_nanos()),
                want_peek.map(|(t, _)| t)
            );
            prop_assert_eq!(q.live_len(), naive.iter().filter(|e| e.2).count());
        }
        let mut rest: Vec<(u64, u64)> = naive
            .iter()
            .filter(|e| e.2)
            .map(|e| (e.0, e.1))
            .collect();
        rest.sort_unstable();
        for &want in &rest {
            prop_assert_eq!(q.pop().map(|(t, s)| (t.as_nanos(), s)), Some(want));
        }
        prop_assert!(q.pop().is_none());
    }
}

/// Number of [`Event`] variants; [`event_from`] must construct each.
/// Bumped together with the enum (the match below fails to cover a new
/// selector otherwise, and `every_variant_reachable` pins the count).
const EVENT_VARIANTS: u8 = 32;

/// Deterministically builds one event of the selected variant from raw
/// field material, exercising every variant of the vocabulary with
/// arbitrary field values (truncated to each field's width exactly as
/// the emitting code does).
fn event_from(sel: u8, a: u64, b: u64, c: u64, flag: bool) -> Event {
    let worker = a as u16;
    let fiber = a as u32;
    match sel % EVENT_VARIANTS {
        0 => Event::UipiSent {
            worker,
            vector: b as u8,
        },
        1 => Event::UipiDelivered {
            worker,
            coalesced: flag,
        },
        2 => Event::UipiPended { worker },
        3 => Event::UipiSuppressed { worker },
        4 => Event::KernelAssistWake { worker },
        5 => Event::SignalSent {
            worker,
            lock_wait_ns: b,
        },
        6 => Event::KtimerArmed {
            worker,
            target_ns: b,
        },
        7 => Event::KtimerFired { worker },
        8 => Event::IpcSampled {
            mech: a as u8,
            latency_ns: b,
        },
        9 => Event::DeadlineArmed {
            slot: a as u16,
            deadline_ns: b,
        },
        10 => Event::DeadlineDisarmed { slot: a as u16 },
        11 => Event::TimerPoll { expired: a as u16 },
        12 => Event::Arrival { class: a as u8 },
        13 => Event::Drop { class: a as u8 },
        14 => Event::TaskStart {
            worker,
            fiber: b as u32,
            resumed: flag,
            switch_ns: c as u32,
        },
        15 => Event::TaskFinish {
            worker,
            fiber: b as u32,
            latency_ns: c,
        },
        16 => Event::Preempt {
            worker,
            fiber: b as u32,
            ran_ns: c,
        },
        17 => Event::SpuriousPreempt { worker },
        18 => Event::PolicyDispatch {
            worker,
            explicit: flag,
        },
        19 => Event::SliceGranted {
            worker,
            fiber: b as u32,
            slice_ns: c,
        },
        20 => Event::SwitchBegin {
            worker,
            fiber: b as u32,
            resumed: flag,
        },
        21 => Event::QuantumAdjusted {
            old_ns: a,
            new_ns: b,
        },
        22 => Event::Marker { code: fiber },
        23 => Event::FaultInjected {
            worker,
            kind: b as u8,
        },
        24 => Event::PreemptIssued {
            worker,
            seq: b,
            attempt: c as u8,
            uintr: flag,
        },
        25 => Event::PreemptLanded {
            worker,
            seq: b,
            uintr: flag,
        },
        26 => Event::PreemptRetry {
            worker,
            seq: b,
            attempt: c as u8,
            delay_ns: c,
        },
        27 => Event::MechDegraded {
            worker,
            losses: b as u8,
        },
        28 => Event::MechRecovered { worker },
        29 => Event::MechBrownout {
            worker,
            losses: b as u8,
        },
        30 => Event::Shed {
            class: a as u8,
            queued: b as u32,
        },
        _ => Event::Admitted {
            class: a as u8,
            queued: b as u32,
        },
    }
}

/// Rotates the `"key":value` members of one flat JSONL object by `k`
/// positions. Values in the schema are bare numbers, booleans, or the
/// event-name string — never nested objects — so splitting on commas
/// is exact.
fn rotate_keys(line: &str, k: usize) -> String {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .expect("jsonl object");
    let mut parts: Vec<&str> = inner.split(',').collect();
    let n = parts.len();
    parts.rotate_left(k % n);
    format!("{{{}}}", parts.join(","))
}

proptest! {
    /// Every event variant, with arbitrary field material, survives
    /// `write_jsonl` → `parse_jsonl` → `write_jsonl` byte-identically,
    /// and the parser tolerates arbitrary key reorderings of the line.
    #[test]
    fn jsonl_roundtrips_every_variant(
        sel in 0u8..EVENT_VARIANTS,
        t in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        flag in any::<bool>(),
        rot in 0usize..12,
    ) {
        let te = TimedEvent {
            at: SimTime::from_nanos(t),
            ev: event_from(sel, a, b, c, flag),
        };
        let line = te.to_jsonl();
        let back = TimedEvent::parse_jsonl(&line);
        prop_assert_eq!(back, Some(te), "unparseable or lossy: {}", line);
        // Re-render: the parsed event serializes to the same bytes.
        prop_assert_eq!(back.unwrap().to_jsonl(), line.clone());
        // Reordered keys parse to the same event (the exporter's fixed
        // key order is a convenience, not a parser requirement).
        let rotated = rotate_keys(&line, rot);
        prop_assert_eq!(
            TimedEvent::parse_jsonl(&rotated),
            Some(te),
            "reordered line unparseable: {}",
            rotated
        );
    }
}

/// The selector space covers the whole vocabulary: each selector maps
/// to a distinct variant name, so `EVENT_VARIANTS` tracks the enum.
#[test]
fn every_variant_reachable() {
    let mut names: Vec<&str> = (0..EVENT_VARIANTS)
        .map(|sel| event_from(sel, 1, 2, 3, true).name())
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), EVENT_VARIANTS as usize);
}
