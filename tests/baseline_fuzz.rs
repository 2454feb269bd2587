//! Property-based fuzzing of the baseline systems.

mod oracle;

use libpreemptible::runtime::{ServiceSource, WorkloadSpec};
use lp_baselines::{run_libinger, run_shinjuku, LibingerConfig, ShinjukuConfig};
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};
use proptest::prelude::*;

fn dist(which: u8) -> ServiceDist {
    match which {
        0 => ServiceDist::workload_a1(),
        1 => ServiceDist::workload_a2(),
        2 => ServiceDist::workload_b(),
        _ => ServiceDist::Constant(SimDur::micros(12)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shinjuku conserves requests across quanta, loads, and worker
    /// counts — including overload and quantum = infinity — and, traced
    /// in full, records the totals its trace recounts.
    #[test]
    fn shinjuku_conserves(
        workers in 1usize..8,
        quantum_us in prop_oneof![Just(0u64), 1u64..100],
        rho_pct in 10u64..130,
        which in 0u8..4,
        seed in 0u64..500,
    ) {
        let d = dist(which);
        let rate = d.rate_for_utilization(rho_pct as f64 / 100.0, workers).max(1_000.0);
        let quantum = if quantum_us == 0 { SimDur::MAX } else { SimDur::micros(quantum_us) };
        let duration = SimDur::millis(8);
        let r = run_shinjuku(
            ShinjukuConfig {
                workers,
                quantum,
                seed,
                trace_capacity: oracle::ring_for(rate, duration, workers, quantum),
            },
            WorkloadSpec {
                source: ServiceSource::Phased(PhasedService::constant(d)),
                arrivals: RateSchedule::Constant(rate),
                duration,
                warmup: SimDur::millis(1),
            },
        );
        prop_assert!(r.is_conserved(), "{r:?}");
        if quantum == SimDur::MAX {
            prop_assert_eq!(r.preemptions, 0);
        }
        if r.completions > 0 {
            prop_assert!(r.latency.p99() >= r.latency.median());
        }
        let record = oracle::check_record_path(&r);
        prop_assert!(record.is_ok(), "{}", record.unwrap_err());
    }

    /// Libinger conserves requests and its preemption count respects
    /// the kernel-timer floor (never more than ~work/floor preemptions
    /// per completed request on constant workloads).
    #[test]
    fn libinger_conserves_and_respects_floor(
        workers in 1usize..6,
        quantum_us in 1u64..80,
        seed in 0u64..500,
    ) {
        let work = SimDur::micros(300);
        let d = ServiceDist::Constant(work);
        let rate = d.rate_for_utilization(0.5, workers);
        let r = run_libinger(
            LibingerConfig {
                workers,
                quantum: SimDur::micros(quantum_us),
                seed,
            },
            WorkloadSpec {
                source: ServiceSource::Phased(PhasedService::constant(d)),
                arrivals: RateSchedule::Constant(rate.max(1_000.0)),
                duration: SimDur::millis(8),
                warmup: SimDur::ZERO,
            },
        );
        prop_assert!(r.is_conserved(), "{r:?}");
        if r.completions > 10 {
            // The effective quantum is bounded below by the kernel
            // timer floor (~55 us), so a 300 us job can be preempted
            // at most ~6 times no matter how small the nominal
            // quantum.
            let per_req = r.preemptions as f64 / r.completions as f64;
            prop_assert!(
                per_req < 7.0,
                "quantum {quantum_us}us: {per_req} preemptions/request exceeds the floor bound"
            );
        }
    }
}
