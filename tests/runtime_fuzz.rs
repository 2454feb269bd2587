//! Property-based fuzzing of the full runtime: random configurations
//! and workloads must always conserve requests, stay deterministic,
//! and keep accounting sane. Every run is traced in full, so the
//! record-path oracle can recount the report from the trace. A second
//! fuzzer runs the same checks with one fault kind injected — lost or
//! late IPIs, lost signals, core stalls — so the send paths that push
//! a slice's owed `Finish` run on fuzzed configurations too.

mod oracle;

use libpreemptible::policies::{Fifo, RoundRobin, Srpt};
use libpreemptible::sched::SchedPolicy;
use libpreemptible::{run, PreemptMech, RunReport, RuntimeConfig, ServiceSource, WorkloadSpec};
use lp_hw::TimeClass;
use lp_sim::fault::{FaultKind, FaultPlan};
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct FuzzCase {
    workers: usize,
    mech: u8,
    policy: u8,
    quantum_us: u64,
    rho_pct: u64,
    dist: u8,
    pool: usize,
    seed: u64,
    stealing: bool,
}

fn case() -> impl Strategy<Value = FuzzCase> {
    (
        1usize..6,
        0u8..4,
        0u8..4,
        1u64..200,
        5u64..140, // up to 1.4x overload
        0u8..4,
        16usize..512,
        0u64..1_000,
        any::<bool>(),
    )
        .prop_map(
            |(workers, mech, policy, quantum_us, rho_pct, dist, pool, seed, stealing)| FuzzCase {
                workers,
                mech,
                policy,
                quantum_us,
                rho_pct,
                dist,
                pool,
                seed,
                stealing,
            },
        )
}

fn build(case: &FuzzCase) -> (RuntimeConfig, Box<dyn SchedPolicy>, WorkloadSpec) {
    let mech = match case.mech {
        0 => PreemptMech::Uintr,
        1 => PreemptMech::TimerCoreSignal,
        2 => PreemptMech::KernelTimerSignal,
        _ => PreemptMech::None,
    };
    let q = SimDur::micros(case.quantum_us);
    let policy: Box<dyn SchedPolicy> = if mech == PreemptMech::None {
        Box::new(Fifo::new(SimDur::MAX))
    } else {
        match case.policy {
            0 => Box::new(Fifo::new(q)),
            1 => Box::new(RoundRobin::new(q)),
            2 => Box::new(Srpt::new(q)),
            _ => Box::new(Fifo::new(SimDur::MAX)),
        }
    };
    let dist = match case.dist {
        0 => ServiceDist::workload_a1(),
        1 => ServiceDist::workload_b(),
        2 => ServiceDist::Constant(SimDur::micros(7)),
        _ => ServiceDist::Lognormal {
            median: SimDur::micros(2),
            sigma: 1.2,
        },
    };
    let rate = dist
        .rate_for_utilization(case.rho_pct as f64 / 100.0, case.workers)
        .max(1_000.0);
    let duration = SimDur::millis(10);
    let cfg = RuntimeConfig {
        workers: case.workers,
        mech,
        pool_capacity: case.pool,
        work_stealing: case.stealing,
        seed: case.seed,
        control_period: SimDur::millis(3),
        trace_capacity: oracle::ring_for(rate, duration, case.workers, q),
        ..RuntimeConfig::default()
    };
    let spec = WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(dist)),
        arrivals: RateSchedule::Constant(rate),
        duration,
        warmup: SimDur::millis(1),
    };
    (cfg, policy, spec)
}

/// The conservation, accounting and record-path checks every fuzzed
/// run must pass; `label` names the case in failures.
fn check_run(label: &str, case: &FuzzCase, r: &RunReport, duration: SimDur) {
    prop_assert!(
        r.is_conserved(),
        "{label}: {} != {} + {} + {}",
        r.arrivals,
        r.completions,
        r.dropped,
        r.in_flight
    );
    for (i, w) in r.per_worker.iter().enumerate() {
        let total = w.total_charged();
        prop_assert!(
            total <= duration + SimDur::micros(500),
            "{label}: worker {i} charged {total} > wall {duration}"
        );
    }
    if r.completions > 0 {
        prop_assert!(r.latency.p99() >= r.latency.median());
        prop_assert!(r.latency.max() >= r.latency.min());
    }
    // Non-preemptive configurations must never preempt.
    if case.mech == 3 {
        prop_assert_eq!(r.preemptions, 0);
    }
    let record = oracle::check_record_path(r);
    prop_assert!(record.is_ok(), "{label}: {}", record.unwrap_err());
}

/// The fault kinds the fault fuzzer injects, one per run: each leaves
/// a send without a landing before the slice's `Finish`, or moves the
/// landing (a late IPI, a stall that defers it).
const FUZZ_FAULTS: [FaultKind; 4] = [
    FaultKind::IpiDrop,
    FaultKind::IpiDelay,
    FaultKind::SignalLost,
    FaultKind::CoreHog,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any configuration conserves requests, keeps per-worker time
    /// accounting within the wall clock, and records the totals its
    /// trace recounts.
    #[test]
    fn conservation_and_accounting(case in case()) {
        let (cfg, policy, spec) = build(&case);
        let duration = spec.duration;
        let r = run(cfg, policy, spec);
        check_run(&format!("{case:?}"), &case, &r, duration);
    }

    /// The same checks with one fault kind injected at a fuzzed rate.
    #[test]
    fn conservation_and_accounting_under_faults(
        case in case(),
        kind in 0usize..FUZZ_FAULTS.len(),
        rate_pct in 5u64..80,
    ) {
        let (mut cfg, policy, spec) = build(&case);
        let fault = FUZZ_FAULTS[kind];
        cfg.faults = FaultPlan::only(fault, rate_pct as f64 / 100.0);
        let duration = spec.duration;
        let r = run(cfg, policy, spec);
        check_run(&format!("{case:?} {fault:?} {rate_pct}%"), &case, &r, duration);
    }

    /// Same case → identical reports; the master seed fully determines
    /// the run.
    #[test]
    fn determinism(case in case()) {
        let (cfg_a, pol_a, spec_a) = build(&case);
        let (cfg_b, pol_b, spec_b) = build(&case);
        let a = run(cfg_a, pol_a, spec_a);
        let b = run(cfg_b, pol_b, spec_b);
        prop_assert_eq!(a.arrivals, b.arrivals);
        prop_assert_eq!(a.completions, b.completions);
        prop_assert_eq!(a.dropped, b.dropped);
        prop_assert_eq!(a.preemptions, b.preemptions);
        prop_assert_eq!(a.spurious_preemptions, b.spurious_preemptions);
        prop_assert_eq!(a.latency.p99(), b.latency.p99());
        prop_assert_eq!(
            a.cores.charged(TimeClass::Work).as_nanos(),
            b.cores.charged(TimeClass::Work).as_nanos()
        );
    }
}
