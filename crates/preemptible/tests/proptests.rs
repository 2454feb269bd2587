//! Property tests for the core library's invariants.

use libpreemptible::adaptive::{AdaptiveConfig, QuantumController};
use libpreemptible::context::ContextPool;
use libpreemptible::utimer::UtimerRegistry;
use lp_sim::{SimDur, SimTime};
use lp_stats::WindowSummary;
use proptest::prelude::*;

/// Operations on the pool, applied as far as their preconditions allow.
#[derive(Debug, Clone)]
enum PoolOp {
    Alloc,
    ParkActive(usize),
    Resume,
    ReleaseActive(usize),
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        3 => Just(PoolOp::Alloc),
        2 => (0usize..8).prop_map(PoolOp::ParkActive),
        2 => Just(PoolOp::Resume),
        3 => (0usize..8).prop_map(PoolOp::ReleaseActive),
    ]
}

proptest! {
    /// The context pool never loses or duplicates a context under any
    /// interleaving of allocate/park/resume/release.
    #[test]
    fn context_pool_conserves(ops in proptest::collection::vec(pool_op(), 1..300)) {
        let cap = 16;
        let mut pool = ContextPool::with_capacity(cap);
        let mut active = Vec::new();
        let mut parked = 0usize;
        let mut next_req = 0u64;
        for op in ops {
            match op {
                PoolOp::Alloc => {
                    match pool.allocate(next_req, SimTime::ZERO, SimDur::micros(1), 0) {
                        Ok(id) => {
                            prop_assert!(active.len() + parked < cap, "allocation beyond capacity");
                            active.push(id);
                            next_req += 1;
                        }
                        Err(_) => {
                            prop_assert_eq!(active.len() + parked, cap, "spurious exhaustion");
                        }
                    }
                }
                PoolOp::ParkActive(i) => {
                    if !active.is_empty() {
                        let id = active.remove(i % active.len());
                        pool.park(id);
                        parked += 1;
                    }
                }
                PoolOp::Resume => {
                    if let Some(id) = pool.take_parked() {
                        parked -= 1;
                        active.push(id);
                    } else {
                        prop_assert_eq!(parked, 0);
                    }
                }
                PoolOp::ReleaseActive(i) => {
                    if !active.is_empty() {
                        let id = active.remove(i % active.len());
                        pool.release(id);
                    }
                }
            }
            prop_assert_eq!(pool.live(), active.len() + parked);
            prop_assert_eq!(pool.parked(), parked);
            prop_assert_eq!(pool.free(), cap - active.len() - parked);
        }
    }

    /// The utimer registry never fires early, never loses an armed
    /// deadline, and never double-fires.
    #[test]
    fn registry_fires_exactly_once(
        deadlines in proptest::collection::vec(1u64..100_000, 1..64),
        step in 1u64..10_000,
    ) {
        let mut reg = UtimerRegistry::new();
        let slots: Vec<_> = deadlines
            .iter()
            .map(|&d| {
                let s = reg.register();
                reg.arm(s, SimTime::from_nanos(d));
                s
            })
            .collect();
        let mut fired_at: Vec<Option<u64>> = vec![None; slots.len()];
        let mut now = 0;
        while reg.armed() > 0 {
            now += step;
            for slot in reg.expired(SimTime::from_nanos(now)) {
                let idx = slots.iter().position(|&s| s == slot).unwrap();
                prop_assert!(fired_at[idx].is_none(), "double fire");
                prop_assert!(deadlines[idx] <= now, "fired early");
                prop_assert!(now - deadlines[idx] < step + 1, "fired too late");
                fired_at[idx] = Some(now);
            }
        }
        prop_assert!(fired_at.iter().all(Option::is_some), "lost a deadline");
    }

    /// Algorithm 1 output is always within [t_min, t_max] whatever the
    /// window contents.
    #[test]
    fn controller_always_in_bounds(
        load in 0.0f64..1_000_000.0,
        median in 0u64..1_000_000,
        p99 in 0u64..100_000_000,
        qlen in 0.0f64..1_000.0,
        initial_us in 1u64..1_000,
        steps in 1usize..50,
    ) {
        let cfg = AdaptiveConfig::paper_defaults(100_000.0);
        let (t_min, t_max) = (cfg.t_min, cfg.t_max);
        let mut c = QuantumController::new(cfg, SimDur::micros(initial_us));
        for _ in 0..steps {
            let q = c.update(&WindowSummary {
                load_rps: load,
                throughput_rps: load,
                median_ns: median,
                p99_ns: p99,
                mean_qlen: qlen,
                completed: 1,
                arrived: 1,
                service_scv: qlen, // any non-negative value
            });
            prop_assert!(q >= t_min && q <= t_max, "quantum {q} out of bounds");
        }
    }
}
