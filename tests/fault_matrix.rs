//! The fault matrix: every single-fault scenario from `docs/FAULTS.md`
//! run end-to-end through the runtime with the lost-preemption watchdog
//! enabled.
//!
//! Each scenario must (a) terminate with zero stranded fibers — request
//! conservation holds and nothing is left in flight beyond the natural
//! tail, (b) emit a coherent `fault_injected` →
//! (`preempt_retry` | `mech_degraded`) event chain per victim worker,
//! and (c) with faults disabled, be byte-identical to a run that never
//! heard of fault injection.

use libpreemptible::{
    run, Fifo, PreemptMech, RunReport, RuntimeConfig, ServiceSource, WorkloadSpec,
};
use lp_sim::fault::{FaultKind, FaultPlan};
use lp_sim::obs::Event;
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

/// Long constant-service tasks under a short quantum: every task needs
/// many preemptions, so a broken delivery path strands fibers fast.
fn preempt_heavy_spec(ms: u64) -> WorkloadSpec {
    WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
            SimDur::micros(400),
        ))),
        arrivals: RateSchedule::Constant(8_000.0),
        duration: SimDur::millis(ms),
        warmup: SimDur::ZERO,
    }
}

fn faulty_run(mech: PreemptMech, faults: FaultPlan) -> RunReport {
    run(
        RuntimeConfig {
            workers: 4,
            mech,
            control_period: SimDur::millis(10),
            // Large enough to hold the whole run's trace: the policy
            // vocabulary (policy_dispatch / slice_granted) roughly
            // doubles the per-request event count.
            trace_capacity: 1 << 17,
            faults,
            ..RuntimeConfig::default()
        },
        Box::new(Fifo::new(SimDur::micros(20))),
        preempt_heavy_spec(60),
    )
}

/// Scenario postconditions shared by the whole matrix.
///
/// "Zero stranded fibers" is conservation plus a bounded tail: whatever
/// was injected, every arrival is accounted for and the in-flight
/// residue at the horizon is no more than a queue's worth of natural
/// tail — a stranded fiber would sit in `in_flight` forever.
fn assert_no_stranded_fibers(name: &str, r: &RunReport) {
    assert!(r.is_conserved(), "{name}: conservation broken");
    assert!(
        r.in_flight < 50,
        "{name}: {} fibers still in flight at the horizon",
        r.in_flight
    );
    assert!(
        r.completions > 100,
        "{name}: only {} completions",
        r.completions
    );
}

/// Every recovery event must trace back to an injected fault on the
/// same worker, and at least one injected fault must have provoked the
/// watchdog (a retry or a degradation) on its worker.
fn assert_fault_chains(name: &str, r: &RunReport) {
    assert!(
        r.metrics.counter("faults_injected") > 0,
        "{name}: injector never fired"
    );
    let mut faulted_workers = Vec::new();
    let mut chained = false;
    for te in &r.events {
        match te.ev {
            Event::FaultInjected { worker, .. } if !faulted_workers.contains(&worker) => {
                faulted_workers.push(worker);
            }
            Event::PreemptRetry { worker, .. } | Event::MechDegraded { worker, .. } => {
                assert!(
                    faulted_workers.contains(&worker),
                    "{name}: watchdog acted on worker {worker} with no prior injected fault"
                );
                chained = true;
            }
            _ => {}
        }
    }
    assert!(
        chained,
        "{name}: no fault_injected -> (preempt_retry | mech_degraded) chain in the trace"
    );
    assert_eq!(
        r.metrics.counter("preempt_retries") + r.metrics.counter("mech_degradations"),
        r.events
            .iter()
            .filter(|te| {
                matches!(
                    te.ev,
                    Event::PreemptRetry { .. } | Event::MechDegraded { .. }
                )
            })
            .count() as u64,
        "{name}: counters disagree with the trace"
    );
}

#[test]
fn dropped_ipi_degrades_and_keeps_preempting() {
    let r = faulty_run(PreemptMech::Uintr, FaultPlan::only(FaultKind::IpiDrop, 1.0));
    assert_no_stranded_fibers("ipi_drop", &r);
    assert_fault_chains("ipi_drop", &r);
    // Total loss of the fast path: all four workers degrade to signals
    // and stay there (every probe is dropped too).
    assert_eq!(r.metrics.counter("mech_degradations"), 4);
    assert_eq!(r.metrics.counter("mech_recoveries"), 0);
    assert!(r.preemptions > 0, "signal fallback never preempted");
}

#[test]
fn stuck_sn_is_repaired_or_degraded() {
    let r = faulty_run(PreemptMech::Uintr, FaultPlan::only(FaultKind::StuckSn, 1.0));
    assert_no_stranded_fibers("stuck_sn", &r);
    assert_fault_chains("stuck_sn", &r);
    // A stuck suppress bit suppresses every notification; the watchdog
    // must notice the silence and keep the system preempting.
    assert!(r.preemptions > 0);
    assert!(r.metrics.counter("preempt_retries") > 0);
}

#[test]
fn missed_timer_expiries_are_resent() {
    let r = faulty_run(
        PreemptMech::KernelTimerSignal,
        FaultPlan::only(FaultKind::TimerMiss, 1.0),
    );
    assert_no_stranded_fibers("timer_miss", &r);
    assert_fault_chains("timer_miss", &r);
    // No UINTR in this stack, so no degradation ladder — just retries.
    assert!(r.metrics.counter("preempt_retries") > 0);
    assert_eq!(r.metrics.counter("mech_degradations"), 0);
    assert!(
        r.preemptions > 0,
        "watchdog never recovered a missed expiry"
    );
}

#[test]
fn lost_signals_are_retried_until_they_land() {
    // 80% of signals vanish: the watchdog's capped-backoff re-sends are
    // the only reason preemption still works.
    let r = faulty_run(
        PreemptMech::TimerCoreSignal,
        FaultPlan::only(FaultKind::SignalLost, 0.8),
    );
    assert_no_stranded_fibers("signal_lost", &r);
    assert_fault_chains("signal_lost", &r);
    assert!(r.metrics.counter("preempt_retries") > 0);
    assert!(r.preemptions > 0);
}

#[test]
fn core_hogs_defer_but_never_lose_preemptions() {
    // The hog decision is per started slice and each hog adds its full
    // 200us window to the victim's remaining work, so the rate must
    // keep expected stall below quantum-sized progress or service time
    // diverges. 2% of 20us slices ≈ +4us expected stall per slice.
    let r = faulty_run(
        PreemptMech::Uintr,
        FaultPlan::only(FaultKind::CoreHog, 0.02),
    );
    assert_no_stranded_fibers("core_hog", &r);
    assert_fault_chains("core_hog", &r);
    // A 200us stall window swallows the quantum several times over; the
    // deferred delivery plus watchdog re-sends must still preempt.
    assert!(r.preemptions > 0);
}

#[test]
fn disabled_faults_leave_results_byte_identical() {
    // The whole injection apparatus must be invisible when the plan is
    // disabled: same stats, same metrics, and a byte-identical event
    // stream — the same guarantee that keeps the checked-in results/
    // CSVs stable.
    let mk = |faults: FaultPlan| faulty_run(PreemptMech::Uintr, faults);
    let a = mk(FaultPlan::disabled());
    let b = mk(FaultPlan::disabled());
    assert_eq!(a.events_jsonl(), b.events_jsonl());
    assert_eq!(a.metrics.counters, b.metrics.counters);

    // And an *armed* plan that can never fire (unreachable occurrence)
    // builds the injector + watchdogs yet changes nothing observable.
    let armed = mk(FaultPlan::once(FaultKind::IpiDrop, u64::MAX));
    assert_eq!(a.events_jsonl(), armed.events_jsonl());
    assert_eq!(a.metrics.counters, armed.metrics.counters);
    assert_eq!(a.arrivals, armed.arrivals);
    assert_eq!(a.completions, armed.completions);
    assert_eq!(a.latency.p99(), armed.latency.p99());
    assert_eq!(armed.metrics.counter("faults_injected"), 0);
}
