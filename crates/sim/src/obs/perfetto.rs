//! Perfetto / Chrome `trace_event` JSON export of the event ring.
//!
//! [`chrome_trace`] renders a captured [`TimedEvent`] window into the
//! Chrome trace-event JSON format (the "JSON Array Format" both
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load): one track (`tid`) per worker core plus a track 0 for
//! dispatcher/timer-core/global events. Fiber execution renders as
//! duration slices (`ph:"X"`) reconstructed from the
//! [`Event::TaskStart`] → [`Event::Preempt`]/[`Event::TaskFinish`]
//! span pairs; the context-switch window renders as a `switch` slice
//! from [`Event::SwitchBegin`] to the matching `TaskStart` (the same
//! window the phase accountant charges to `PreemptSwitch`); every
//! other event renders as a thread-scoped instant (`ph:"i"`).
//!
//! The output is byte-stable: field order is fixed, timestamps are
//! integer-formatted microseconds with exactly three decimals (the
//! trace format's `ts` unit is µs; simulated time is ns), and entries
//! appear in event order with each slice emitted at its closing event.
//! Same event window, same bytes — the CI `attribution` job diffs the
//! export across `LP_JOBS` values.
//!
//! Robustness: a `TaskStart` on a worker with an open slice closes the
//! old slice at the new start (`end:"truncated"`), and slices still
//! open when the window ends are dropped, matching the ring's
//! sliding-window semantics (see `RunReport::events_dropped`).

use std::fmt::Write as _;

use super::event::{Event, TimedEvent};

/// The trace track (Chrome `tid`) an event renders on: worker-carrying
/// events go to `worker + 1`; dispatcher-global, slot, and free-form
/// events go to track 0.
fn track_of(ev: &Event) -> u32 {
    match *ev {
        Event::UipiSent { worker, .. }
        | Event::UipiDelivered { worker, .. }
        | Event::UipiPended { worker }
        | Event::UipiSuppressed { worker }
        | Event::KernelAssistWake { worker }
        | Event::SignalSent { worker, .. }
        | Event::KtimerArmed { worker, .. }
        | Event::KtimerFired { worker }
        | Event::TaskStart { worker, .. }
        | Event::TaskFinish { worker, .. }
        | Event::Preempt { worker, .. }
        | Event::SpuriousPreempt { worker }
        | Event::PolicyDispatch { worker, .. }
        | Event::SliceGranted { worker, .. }
        | Event::SwitchBegin { worker, .. }
        | Event::FaultInjected { worker, .. }
        | Event::PreemptIssued { worker, .. }
        | Event::PreemptLanded { worker, .. }
        | Event::PreemptRetry { worker, .. }
        | Event::MechDegraded { worker, .. }
        | Event::MechRecovered { worker }
        | Event::MechBrownout { worker, .. } => worker as u32 + 1,
        Event::IpcSampled { .. }
        | Event::DeadlineArmed { .. }
        | Event::DeadlineDisarmed { .. }
        | Event::TimerPoll { .. }
        | Event::Arrival { .. }
        | Event::Drop { .. }
        | Event::QuantumAdjusted { .. }
        | Event::Marker { .. }
        | Event::Shed { .. }
        | Event::Admitted { .. } => 0,
    }
}

/// Appends `ns` as a trace-format `ts`/`dur` value: microseconds with
/// exactly three decimals, computed in integers so the bytes never
/// depend on float formatting.
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

fn push_meta(out: &mut String, tid: u32, name: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"{name}\"}}}}"
    );
}

/// Renders `events` (one run's captured window, oldest first) as a
/// complete Chrome trace-event JSON document.
pub fn chrome_trace(events: &[TimedEvent]) -> String {
    // Pass 1: how many worker tracks the window needs.
    let mut max_track = 0u32;
    for te in events {
        max_track = max_track.max(track_of(&te.ev));
    }

    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"lp-sim\"}}}}"
    );
    out.push(',');
    push_meta(&mut out, 0, "dispatcher");
    for w in 1..=max_track {
        out.push(',');
        push_meta(&mut out, w, &format!("worker {}", w - 1));
    }

    // Pass 2: open slices per worker track, emit instants inline.
    let mut open: Vec<Option<(u32, u64)>> = vec![None; max_track as usize + 1];
    // Open context-switch windows (`switch_begin` → `task_start`).
    let mut open_switch: Vec<Option<(u32, u64)>> = vec![None; max_track as usize + 1];
    let close_slice =
        |out: &mut String, track: u32, fiber: u32, start_ns: u64, end_ns: u64, end: &str| {
            out.push(',');
            let _ = write!(out, "{{\"ph\":\"X\",\"pid\":0,\"tid\":{track},\"ts\":");
            push_us(out, start_ns);
            out.push_str(",\"dur\":");
            push_us(out, end_ns.saturating_sub(start_ns));
            let _ = write!(
                out,
                ",\"name\":\"fiber {fiber}\",\"args\":{{\"fiber\":{fiber},\"end\":\"{end}\"}}}}"
            );
        };
    for te in events {
        let ns = te.at.as_nanos();
        let track = track_of(&te.ev);
        match te.ev {
            Event::SwitchBegin { fiber, .. } => {
                open_switch[track as usize] = Some((fiber, ns));
            }
            Event::TaskStart { fiber, .. } => {
                if let Some((old_fiber, start_ns)) = open[track as usize].take() {
                    close_slice(&mut out, track, old_fiber, start_ns, ns, "truncated");
                }
                if let Some((sw_fiber, sw_ns)) = open_switch[track as usize].take() {
                    out.push(',');
                    let _ = write!(out, "{{\"ph\":\"X\",\"pid\":0,\"tid\":{track},\"ts\":");
                    push_us(&mut out, sw_ns);
                    out.push_str(",\"dur\":");
                    push_us(&mut out, ns.saturating_sub(sw_ns));
                    let _ = write!(
                        out,
                        ",\"name\":\"switch\",\"args\":{{\"fiber\":{sw_fiber}}}}}"
                    );
                }
                open[track as usize] = Some((fiber, ns));
            }
            Event::Preempt { fiber, .. } => {
                if let Some((open_fiber, start_ns)) = open[track as usize].take() {
                    let end = if open_fiber == fiber {
                        "preempt"
                    } else {
                        "truncated"
                    };
                    close_slice(&mut out, track, open_fiber, start_ns, ns, end);
                }
            }
            Event::TaskFinish { fiber, .. } => {
                if let Some((open_fiber, start_ns)) = open[track as usize].take() {
                    let end = if open_fiber == fiber {
                        "finish"
                    } else {
                        "truncated"
                    };
                    close_slice(&mut out, track, open_fiber, start_ns, ns, end);
                }
            }
            ref ev => {
                out.push(',');
                let _ = write!(out, "{{\"ph\":\"i\",\"pid\":0,\"tid\":{track},\"ts\":");
                push_us(&mut out, ns);
                let _ = write!(out, ",\"s\":\"t\",\"name\":\"{}\"}}", ev.name());
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn te(ns: u64, ev: Event) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_nanos(ns),
            ev,
        }
    }

    #[test]
    fn empty_window_is_a_valid_document() {
        let json = chrome_trace(&[]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"process_name\""));
    }

    #[test]
    fn switch_window_becomes_a_switch_slice() {
        let events = [
            te(
                1_000,
                Event::SwitchBegin {
                    worker: 0,
                    fiber: 4,
                    resumed: false,
                },
            ),
            te(
                1_650,
                Event::TaskStart {
                    worker: 0,
                    fiber: 4,
                    resumed: false,
                    switch_ns: 650,
                },
            ),
            te(
                3_650,
                Event::TaskFinish {
                    worker: 0,
                    fiber: 4,
                    latency_ns: 2_650,
                },
            ),
        ];
        let json = chrome_trace(&events);
        assert!(
            json.contains(
                "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":1.000,\"dur\":0.650,\
                 \"name\":\"switch\",\"args\":{\"fiber\":4}}"
            ),
            "{json}"
        );
        // The execution slice still starts at the task_start instant.
        assert!(json.contains("\"ts\":1.650,\"dur\":2.000"), "{json}");
        // A switch window left open at the end of the capture is dropped.
        let open = chrome_trace(&[te(
            9_000,
            Event::SwitchBegin {
                worker: 0,
                fiber: 9,
                resumed: true,
            },
        )]);
        assert!(!open.contains("switch\""), "{open}");
    }

    #[test]
    fn span_pairs_become_duration_slices() {
        let events = [
            te(1_000, Event::Arrival { class: 0 }),
            te(
                1_500,
                Event::TaskStart {
                    worker: 2,
                    fiber: 7,
                    resumed: false,
                    switch_ns: 0,
                },
            ),
            te(
                11_500,
                Event::Preempt {
                    worker: 2,
                    fiber: 7,
                    ran_ns: 10_000,
                },
            ),
            te(
                20_000,
                Event::TaskStart {
                    worker: 2,
                    fiber: 7,
                    resumed: true,
                    switch_ns: 0,
                },
            ),
            te(
                25_000,
                Event::TaskFinish {
                    worker: 2,
                    fiber: 7,
                    latency_ns: 24_000,
                },
            ),
        ];
        let json = chrome_trace(&events);
        // Two slices on worker 2's track (tid 3), µs timestamps.
        assert!(
            json.contains(
                "{\"ph\":\"X\",\"pid\":0,\"tid\":3,\"ts\":1.500,\"dur\":10.000,\
                 \"name\":\"fiber 7\",\"args\":{\"fiber\":7,\"end\":\"preempt\"}}"
            ),
            "{json}"
        );
        assert!(json.contains("\"ts\":20.000,\"dur\":5.000"), "{json}");
        assert!(json.contains("\"end\":\"finish\""), "{json}");
        // The arrival renders as an instant on track 0.
        assert!(
            json.contains(
                "{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":1.000,\"s\":\"t\",\"name\":\"arrival\"}"
            ),
            "{json}"
        );
        // Worker track got named.
        assert!(
            json.contains("{\"args\":{\"name\":\"worker 2\"}}".trim_start_matches('{')),
            "{json}"
        );
    }

    #[test]
    fn unclosed_and_truncated_slices_are_handled() {
        let events = [
            te(
                0,
                Event::TaskStart {
                    worker: 0,
                    fiber: 1,
                    resumed: false,
                    switch_ns: 0,
                },
            ),
            // A second start without a close truncates the first.
            te(
                500,
                Event::TaskStart {
                    worker: 0,
                    fiber: 2,
                    resumed: false,
                    switch_ns: 0,
                },
            ),
            // Fiber 2's slice never closes: dropped.
        ];
        let json = chrome_trace(&events);
        assert!(json.contains("\"end\":\"truncated\""), "{json}");
        assert!(!json.contains("\"fiber\":2,"), "{json}");
    }

    #[test]
    fn output_is_byte_stable() {
        let events = [
            te(
                100,
                Event::TaskStart {
                    worker: 1,
                    fiber: 3,
                    resumed: false,
                    switch_ns: 0,
                },
            ),
            te(
                900,
                Event::TaskFinish {
                    worker: 1,
                    fiber: 3,
                    latency_ns: 900,
                },
            ),
            te(950, Event::TimerPoll { expired: 1 }),
        ];
        assert_eq!(chrome_trace(&events), chrome_trace(&events));
    }
}
