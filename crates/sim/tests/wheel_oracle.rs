//! Differential fuzzer: the timing-wheel `EventQueue` vs a naive
//! sorted-scan oracle, over 3,200 deterministic episodes (400 seeds ×
//! 8 time scales spanning every wheel level, the 2^36 overflow
//! horizon, and far-future heap residents). Complements the proptest
//! oracle in `proptests.rs` with much deeper coverage and a built-in
//! delta-debugging shrinker: on mismatch, the panic message carries a
//! minimal reproducing op sequence (this is how the full-lap slot
//! aliasing bug pinned by `wheel.rs`'s regression test was found).
//! [`reserved_differential_fuzz`] runs the same oracle over episodes
//! that also take tickets with `reserve` and file them later with
//! `push_reserved`, often at the time of an existing entry.

use lp_sim::{EventQueue, SimTime, Ticket};

struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    Cancel(usize),
    Pop,
}

fn run_episode(ops: &[Op]) -> Result<(), String> {
    let mut q = EventQueue::new();
    // oracle: (time, seq, tag, alive)
    let mut naive: Vec<(u64, u64, u64, bool)> = Vec::new();
    let mut ids = Vec::new();
    let mut seq = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(t) => {
                let id = q.push(SimTime::from_nanos(t), seq);
                ids.push((id, seq));
                naive.push((t, seq, seq, true));
                seq += 1;
            }
            Op::Cancel(k) => {
                if ids.is_empty() {
                    continue;
                }
                let (id, s) = ids[k % ids.len()];
                q.cancel(id);
                for e in naive.iter_mut() {
                    if e.1 == s {
                        e.3 = false;
                    }
                }
            }
            Op::Pop => {
                let got = q.pop();
                let want_idx = naive
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.3)
                    .min_by_key(|(_, e)| (e.0, e.1))
                    .map(|(j, _)| j);
                let want = want_idx.map(|j| (naive[j].0, naive[j].2));
                let got_pair = got.map(|(t, e)| (t.as_nanos(), e));
                if got_pair != want {
                    return Err(format!("op {i}: pop got {got_pair:?} want {want:?}"));
                }
                if let Some(j) = want_idx {
                    naive[j].3 = false;
                }
            }
        }
        let want_peek = naive
            .iter()
            .filter(|e| e.3)
            .map(|e| (e.0, e.1))
            .min()
            .map(|(t, _)| t);
        let got_peek = q.peek_time().map(|t| t.as_nanos());
        if got_peek != want_peek {
            return Err(format!(
                "op {i} ({op:?}): peek got {got_peek:?} want {want_peek:?}"
            ));
        }
        let want_live = naive.iter().filter(|e| e.3).count();
        if q.live_len() != want_live {
            return Err(format!("op {i}: live {} want {}", q.live_len(), want_live));
        }
    }
    Ok(())
}

fn gen_episode(rng: &mut Lcg, len: usize, tmax: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..len {
        let r = rng.next() % 10;
        let op = match r {
            0..=4 => Op::Push(rng.next() % tmax),
            5..=6 => Op::Cancel(rng.next() as usize),
            _ => Op::Pop,
        };
        ops.push(op);
    }
    ops
}

fn shrink(mut ops: Vec<Op>) -> Vec<Op> {
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < ops.len() {
            let mut cand = ops.clone();
            cand.remove(i);
            if run_episode(&cand).is_err() {
                ops = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced {
            return ops;
        }
    }
}

#[test]
fn differential_fuzz() {
    let tmaxes = [
        8u64,
        64,
        100,
        5_000,
        1 << 20,
        (1 << 36) - 50,
        1 << 37,
        u64::MAX / 2,
    ];
    for seed in 0..400u64 {
        for &tmax in &tmaxes {
            let mut rng = Lcg(seed * 1000 + tmax);
            let ops = gen_episode(&mut rng, 120, tmax);
            if let Err(e) = run_episode(&ops) {
                let min = shrink(ops);
                panic!(
                    "seed {seed} tmax {tmax}: {e}\nminimal ops ({}):\n{min:#?}",
                    min.len()
                );
            }
        }
    }
}

/// An operation of a reservation episode: [`Op`]'s three plus taking a
/// ticket and filing one. `PushReserved(t, k)` files outstanding ticket
/// `k` (modulo their count) at `t`, or at the time of filed entry
/// `t - 1` (modulo their count) when `k` is odd, so equal-time ties
/// between reserved and plain entries are common.
#[derive(Debug, Clone)]
enum ROp {
    Push(u64),
    Reserve,
    PushReserved(u64, usize),
    Cancel(usize),
    Pop,
}

fn run_reserved_episode(ops: &[ROp]) -> Result<(), String> {
    let mut q = EventQueue::new();
    // oracle: (time, seq, alive), one per filed event
    let mut naive: Vec<(u64, u64, bool)> = Vec::new();
    let mut ids = Vec::new();
    let mut tickets: Vec<(Ticket, u64)> = Vec::new();
    let mut seq = 0u64;
    for (i, op) in ops.iter().enumerate() {
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
            ROp::PushReserved(t, k) => {
                if tickets.is_empty() {
                    continue;
                }
                let (ticket, s) = tickets.swap_remove(k % tickets.len());
                let t = if k % 2 == 1 && !naive.is_empty() {
                    naive[t as usize % naive.len()].0
                } else {
                    t
                };
                ids.push((
                    q.push_reserved(SimTime::from_nanos(t), ticket, s),
                    naive.len(),
                ));
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
                let want_idx = naive
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.2)
                    .min_by_key(|(_, e)| (e.0, e.1))
                    .map(|(j, _)| j);
                let want = want_idx.map(|j| (naive[j].0, naive[j].1));
                let got = q.pop().map(|(t, s)| (t.as_nanos(), s));
                if got != want {
                    return Err(format!("op {i}: pop got {got:?} want {want:?}"));
                }
                if let Some(j) = want_idx {
                    naive[j].2 = false;
                }
            }
        }
        let want_peek = naive.iter().filter(|e| e.2).map(|e| (e.0, e.1)).min();
        let got_peek = q.peek_time().map(|t| t.as_nanos());
        if got_peek != want_peek.map(|(t, _)| t) {
            return Err(format!(
                "op {i} ({op:?}): peek got {got_peek:?} want {want_peek:?}"
            ));
        }
        let want_live = naive.iter().filter(|e| e.2).count();
        if q.live_len() != want_live {
            return Err(format!("op {i}: live {} want {}", q.live_len(), want_live));
        }
    }
    Ok(())
}

fn gen_reserved_episode(rng: &mut Lcg, len: usize, tmax: u64) -> Vec<ROp> {
    let mut ops = Vec::new();
    for _ in 0..len {
        let op = match rng.next() % 12 {
            0..=3 => ROp::Push(rng.next() % tmax),
            4..=5 => ROp::Reserve,
            6..=7 => ROp::PushReserved(rng.next() % tmax, rng.next() as usize),
            8..=9 => ROp::Cancel(rng.next() as usize),
            _ => ROp::Pop,
        };
        ops.push(op);
    }
    ops
}

fn shrink_reserved(mut ops: Vec<ROp>) -> Vec<ROp> {
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < ops.len() {
            let mut cand = ops.clone();
            cand.remove(i);
            if run_reserved_episode(&cand).is_err() {
                ops = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced {
            return ops;
        }
    }
}

#[test]
fn reserved_differential_fuzz() {
    let tmaxes = [
        8u64,
        64,
        100,
        5_000,
        1 << 20,
        (1 << 36) - 50,
        1 << 37,
        u64::MAX / 2,
    ];
    for seed in 0..400u64 {
        for &tmax in &tmaxes {
            let mut rng = Lcg(seed * 1000 + tmax + 7);
            let ops = gen_reserved_episode(&mut rng, 120, tmax);
            if let Err(e) = run_reserved_episode(&ops) {
                let min = shrink_reserved(ops);
                panic!(
                    "seed {seed} tmax {tmax}: {e}\nminimal ops ({}):\n{min:#?}",
                    min.len()
                );
            }
        }
    }
}
