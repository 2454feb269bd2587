//! Deterministic fan-out primitives for *independent* simulation runs.
//!
//! Nothing here touches a running simulation: a single simulation is
//! strictly single-threaded (that is what makes it byte-deterministic).
//! What **is** embarrassingly parallel is the space *around* one run —
//! the paper's sweeps are grids of `(system, workload, rate, seed)`
//! points, every point a self-contained seeded simulation. This module
//! provides the one primitive that exploits that safely:
//! [`ordered_map`], a fixed-size scoped-thread pool whose results are
//! collected **in submission order**, so downstream rendering is
//! byte-identical to a serial loop no matter how the OS schedules the
//! workers.
//!
//! Determinism argument, in full:
//!
//! 1. each job `i` computes `f(i, &items[i])` from its inputs only
//!    (jobs share no mutable state — the `Fn + Sync` bound plus the
//!    absence of interior mutability in the item types enforces this at
//!    compile time);
//! 2. job `i`'s result is stored in slot `i`, never appended, so the
//!    output `Vec` order is the submission order;
//! 3. therefore the returned `Vec` is a pure function of `items`,
//!    independent of thread count and interleaving. `LP_JOBS=1` and
//!    `LP_JOBS=64` produce the same bytes (pinned by the tier-1
//!    determinism test, `tests/determinism.rs`).
//!
//! Worker threads mark themselves with a thread-local flag; a nested
//! `ordered_map` issued from inside a pool job runs serially inline
//! instead of spawning a second level of threads, so composed fan-outs
//! (an experiment binary fanning out figures that fan out points)
//! cannot oversubscribe the machine.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set for the lifetime of a pool worker thread.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// `true` when called from inside an [`ordered_map`] worker. Nested
/// fan-outs use this to degrade to the serial path.
fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Maps `f` over `items` on at most `jobs` scoped threads, returning
/// results **in item order**.
///
/// `f` receives `(index, &item)`. With `jobs <= 1`, a single item, or
/// when already inside a pool worker, the map runs serially on the
/// calling thread — this is the reference behavior the parallel path
/// must (and does) reproduce byte-for-byte.
///
/// Panics in a job propagate to the caller when the scope joins.
///
/// ```
/// let squares = lp_sim::par::ordered_map(4, &[1u64, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn ordered_map<T, U, F>(jobs: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 || in_pool() {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let threads = jobs.min(n);
    let next = AtomicUsize::new(0);
    // One slot per item. A Mutex per slot (not one around the whole
    // vec) keeps stores uncontended; each slot is written exactly once,
    // by whichever worker claimed its index.
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // `thread::scope` here is covered by the lint's static nondet
    // allowlist (rules::NONDET_FILE_ALLOWLIST): the fan-out is over
    // independent seeded runs and collection is order-preserving, so
    // output bytes are interleaving-independent. See docs/CHECKS.md.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                IN_POOL.with(|flag| flag.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = f(i, &items[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("pool worker skipped a slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_for_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial = ordered_map(1, &items, |i, &x| (i as u64) * 1_000 + x * x);
        for jobs in [2, 3, 8, 64] {
            let par = ordered_map(jobs, &items, |i, &x| (i as u64) * 1_000 + x * x);
            assert_eq!(serial, par, "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u64> = ordered_map(8, &[], |_, x: &u64| *x);
        assert!(empty.is_empty());
        assert_eq!(ordered_map(8, &[7u64], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn nested_maps_run_inline() {
        let outer = ordered_map(4, &[10u64, 20, 30], |_, &base| {
            // From a worker thread, the inner map must not spawn.
            assert!(in_pool());
            let inner = ordered_map(4, &[1u64, 2, 3], |_, &x| {
                assert!(in_pool());
                base + x
            });
            inner.iter().sum::<u64>()
        });
        assert_eq!(outer, vec![36, 66, 96]);
        assert!(
            !in_pool(),
            "caller thread must not be marked as pool worker"
        );
    }

    #[test]
    fn more_jobs_than_items() {
        let out = ordered_map(64, &[1u64, 2], |i, &x| x + i as u64);
        assert_eq!(out, vec![1, 3]);
    }
}
