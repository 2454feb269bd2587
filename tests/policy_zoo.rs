//! Liveness across the policy zoo: every policy in
//! `crates/preemptible/src/policies/` must drive the Fig. 2 workload
//! to completion — requests conserved, no stranded fibers, real
//! throughput. A policy that loses a parked fiber (bad `resume_key`,
//! leaked per-task state, a `dispatch` that never resumes) fails here
//! before it can corrupt a tournament artifact.

use libpreemptible::adaptive::{AdaptiveConfig, QuantumController};
use libpreemptible::policies::{
    AdaptiveQuantum, ClassQuantum, Edf, Fifo, Mlfq, RoundRobin, Srpt, Vruntime,
};
use libpreemptible::sched::SchedPolicy;
use libpreemptible::{run, RunReport, RuntimeConfig, ServiceSource, WorkloadSpec};
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

/// The Fig. 2 setting: heavy-tailed A1 at moderate load on 4 workers.
fn fig2_run(policy: Box<dyn SchedPolicy>) -> RunReport {
    let dist = ServiceDist::workload_a1();
    let rate = dist.rate_for_utilization(0.75, 4);
    run(
        RuntimeConfig {
            workers: 4,
            control_period: SimDur::millis(2),
            ..RuntimeConfig::default()
        },
        policy,
        WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(dist)),
            arrivals: RateSchedule::Constant(rate),
            duration: SimDur::millis(50),
            warmup: SimDur::millis(5),
        },
    )
}

/// One factory per zoo citizen, tuned like the tournament entrants.
fn zoo() -> Vec<(&'static str, Box<dyn SchedPolicy>)> {
    let mut adaptive = AdaptiveConfig::paper_defaults(1_400_000.0);
    adaptive.period = SimDur::millis(2);
    vec![
        (
            "adaptive-quantum",
            Box::new(AdaptiveQuantum::new(QuantumController::new(
                adaptive,
                SimDur::micros(10),
            ))) as Box<dyn SchedPolicy>,
        ),
        (
            "class-quantum",
            Box::new(ClassQuantum::new(SimDur::micros(10), SimDur::micros(100))),
        ),
        (
            "edf",
            Box::new(Edf::new(
                SimDur::micros(10),
                SimDur::micros(100),
                SimDur::millis(1),
            )),
        ),
        ("fifo", Box::new(Fifo::new(SimDur::micros(10)))),
        ("mlfq", Box::new(Mlfq::new(SimDur::micros(5), 4))),
        ("round-robin", Box::new(RoundRobin::new(SimDur::micros(10)))),
        ("srpt", Box::new(Srpt::new(SimDur::micros(10)))),
        ("vruntime", Box::new(Vruntime::new(SimDur::micros(10)))),
    ]
}

#[test]
fn every_zoo_policy_completes_fig2_with_zero_stranded_fibers() {
    for (name, policy) in zoo() {
        assert_eq!(name, policy.name(), "zoo label vs SchedPolicy::name");
        let r = fig2_run(policy);
        assert!(r.is_conserved(), "{name}: conservation broken");
        // A stranded fiber sits in `in_flight` forever; the natural
        // tail at this load is far below a queue's worth.
        assert!(
            r.in_flight < 64,
            "{name}: {} fibers still in flight at the horizon",
            r.in_flight
        );
        assert!(
            r.completions as f64 > 0.9 * r.arrivals as f64,
            "{name}: only {}/{} completed",
            r.completions,
            r.arrivals
        );
        assert!(
            r.preemptions > 0,
            "{name}: never preempted a 500us tail task"
        );
    }
}

#[test]
fn zoo_runs_are_deterministic_per_policy() {
    for mk in [|| zoo().remove(4).1, || zoo().remove(7).1] {
        let a = fig2_run(mk());
        let b = fig2_run(mk());
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.latency.p99(), b.latency.p99());
        assert_eq!(a.events_jsonl(), b.events_jsonl());
    }
}
