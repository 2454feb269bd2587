//! Cross-layer observability integration tests: the typed event trace
//! and metrics registry against the runtime's own accounting.
//!
//! The schema contract lives in `docs/TRACING.md`; these tests pin the
//! three properties the tracing layer guarantees:
//!
//! 1. the preemption life-cycle appears in causal order
//!    (arm → poll → SENDUIPI → delivery → context switch);
//! 2. the counters agree with [`RunReport`]'s run totals — they are the
//!    same increments by construction, not a parallel bookkeeping;
//! 3. the JSONL export is lossless and byte-deterministic per seed.

use libpreemptible::{run, Fifo, PreemptMech, RunReport, RuntimeConfig, ServiceSource, WorkloadSpec};
use lp_hw::TimeClass;
use lp_sim::obs::{Event, TimedEvent};
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

fn preempt_heavy_spec() -> WorkloadSpec {
    WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
            SimDur::micros(50),
        ))),
        arrivals: RateSchedule::Constant(20_000.0),
        duration: SimDur::millis(5),
        warmup: SimDur::ZERO,
    }
}

fn traced_cfg(mech: PreemptMech) -> RuntimeConfig {
    RuntimeConfig {
        workers: 2,
        mech,
        trace_capacity: 1 << 16,
        ..RuntimeConfig::default()
    }
}

fn traced_run(mech: PreemptMech) -> RunReport {
    run(
        traced_cfg(mech),
        Box::new(Fifo::new(SimDur::micros(10))),
        preempt_heavy_spec(),
    )
}

#[test]
fn preemption_round_trip_is_causally_ordered() {
    let r = traced_run(PreemptMech::Uintr);
    assert!(r.preemptions > 10, "need preemptions to trace");

    // Find a full cycle for one worker: deadline_armed, then the poll
    // that fires it, the SENDUIPI, the delivery, and the context
    // switch, appearing in that ring order at non-decreasing times.
    // (The ring is in emission order; a handful of events are stamped
    // at their future effect instant — delivery, task start — so only
    // per-cycle ordering is guaranteed, not global sortedness.)
    let evs = &r.events;
    let armed_idx = evs
        .iter()
        .position(|te| matches!(te.ev, Event::DeadlineArmed { slot: 0, .. }))
        .expect("worker 0 armed a deadline");
    let rest = &evs[armed_idx..];
    let poll_idx = rest
        .iter()
        .position(|te| matches!(te.ev, Event::TimerPoll { expired } if expired > 0))
        .expect("a poll fired it");
    let rest = &rest[poll_idx..];
    let sent_idx = rest
        .iter()
        .position(|te| matches!(te.ev, Event::UipiSent { worker: 0, .. }))
        .expect("SENDUIPI to worker 0");
    let rest = &rest[sent_idx..];
    let delivered_idx = rest
        .iter()
        .position(|te| matches!(te.ev, Event::UipiDelivered { worker: 0, .. }))
        .expect("delivery at worker 0");
    let rest = &rest[delivered_idx..];
    let preempt_idx = rest
        .iter()
        .position(|te| matches!(te.ev, Event::Preempt { worker: 0, .. }))
        .expect("delivery must be followed by the context switch");
    let cycle = [
        evs[armed_idx],
        evs[armed_idx + poll_idx],
        evs[armed_idx + poll_idx + sent_idx],
        evs[armed_idx + poll_idx + sent_idx + delivered_idx],
        evs[armed_idx + poll_idx + sent_idx + delivered_idx + preempt_idx],
    ];
    for w in cycle.windows(2) {
        assert!(w[0].at <= w[1].at, "cycle out of order: {:?} {:?}", w[0], w[1]);
    }

    // Every delivered UIPI was sent first.
    let sent = r.metrics.counter("uipi_sent");
    let delivered = r.metrics.counter("uipi_delivered");
    assert!(sent > 0 && delivered <= sent, "sent {sent} delivered {delivered}");
}

#[test]
fn counters_match_run_report_totals() {
    for mech in [
        PreemptMech::Uintr,
        PreemptMech::TimerCoreSignal,
        PreemptMech::KernelTimerSignal,
    ] {
        let r = traced_run(mech);
        let m = &r.metrics;
        assert_eq!(m.counter("arrivals"), r.arrivals, "{mech:?}");
        assert_eq!(m.counter("drops"), r.dropped, "{mech:?}");
        assert_eq!(m.counter("task_finishes"), r.completions, "{mech:?}");
        assert_eq!(m.counter("preemptions"), r.preemptions, "{mech:?}");
        assert_eq!(
            m.counter("spurious_preemptions"),
            r.spurious_preemptions,
            "{mech:?}"
        );
        // Fault-free causality: every issued preemption produces
        // exactly one arrival, which either lands on its run or is
        // spurious. Landings park or retire a task, never less than
        // the park count.
        assert_eq!(
            m.counter("preempts_issued"),
            m.counter("preempts_landed") + r.spurious_preemptions,
            "{mech:?}"
        );
        assert!(
            m.counter("preempts_landed") >= r.preemptions,
            "{mech:?}"
        );
        // task_starts = first launches + resumptions after preemption.
        assert_eq!(
            m.counter("task_starts"),
            m.counter("task_resumes") + r.completions + r.in_flight_started(&r.events),
            "{mech:?}"
        );
        match mech {
            PreemptMech::Uintr => {
                assert_eq!(m.counter("uipi_sent"), r.preemptions + r.spurious_preemptions);
                assert_eq!(m.counter("signals_sent"), 0);
            }
            PreemptMech::TimerCoreSignal | PreemptMech::KernelTimerSignal => {
                assert_eq!(m.counter("uipi_sent"), 0);
                assert!(m.counter("signals_sent") > 0);
            }
            PreemptMech::None => unreachable!(),
        }
    }
}

/// Helper trait: contexts started but neither finished nor currently
/// preempted-and-parked are the in-flight ones whose first start has no
/// matching finish. Counted from the trace itself.
trait InFlightStarts {
    fn in_flight_started(&self, events: &[TimedEvent]) -> u64;
}

impl InFlightStarts for RunReport {
    fn in_flight_started(&self, events: &[TimedEvent]) -> u64 {
        let first_starts = events
            .iter()
            .filter(|te| matches!(te.ev, Event::TaskStart { resumed: false, .. }))
            .count() as u64;
        // first_starts = completions + still-running-or-parked at end.
        first_starts.saturating_sub(self.completions)
    }
}

#[test]
fn core_time_counters_mirror_core_clocks() {
    let r = traced_run(PreemptMech::Uintr);
    let m = &r.metrics;
    assert_eq!(
        m.counter("core_work_ns"),
        r.cores.charged(TimeClass::Work).as_nanos()
    );
    assert_eq!(
        m.counter("core_dispatch_ns"),
        r.cores.charged(TimeClass::Dispatch).as_nanos()
    );
    assert_eq!(
        m.counter("core_kernel_ns"),
        r.cores.charged(TimeClass::Kernel).as_nanos()
    );
    // Preemption time is charged on the workers AND the timer core
    // (SENDUIPI issue); `cores` aggregates workers + dispatcher only.
    assert_eq!(
        m.counter("core_preemption_ns"),
        (r.cores.charged(TimeClass::Preemption)
            + r.timer_core.charged(TimeClass::Preemption))
        .as_nanos()
    );
    // The timer core's idle-fill poll time is synthesized after the run
    // (not an emission point), so the counter stays at the polls the
    // model observed — zero here.
    assert_eq!(m.counter("core_timer_poll_ns"), 0);
    assert!(m.counter("core_work_ns") > 0);
}

#[test]
fn jsonl_round_trips_and_is_deterministic() {
    let a = traced_run(PreemptMech::Uintr);
    let b = traced_run(PreemptMech::Uintr);

    // Byte-identical export for identical seeds.
    let ja = a.events_jsonl();
    assert_eq!(ja, b.events_jsonl(), "same seed must give identical traces");
    assert_eq!(a.metrics, b.metrics);
    assert!(!ja.is_empty());

    // Lossless parse.
    let parsed: Vec<TimedEvent> = ja
        .lines()
        .map(|l| TimedEvent::parse_jsonl(l).expect("valid schema line"))
        .collect();
    assert_eq!(parsed, a.events);

    // A different seed diverges.
    let c = run(
        RuntimeConfig {
            seed: 7,
            ..traced_cfg(PreemptMech::Uintr)
        },
        Box::new(Fifo::new(SimDur::micros(10))),
        preempt_heavy_spec(),
    );
    assert_ne!(ja, c.events_jsonl());
}

#[test]
fn tracing_disabled_still_counts() {
    let r = run(
        RuntimeConfig {
            trace_capacity: 0,
            ..traced_cfg(PreemptMech::Uintr)
        },
        Box::new(Fifo::new(SimDur::micros(10))),
        preempt_heavy_spec(),
    );
    assert!(r.events.is_empty());
    assert_eq!(r.events_jsonl(), "");
    // The registry is always on.
    assert_eq!(r.metrics.counter("arrivals"), r.arrivals);
    assert_eq!(r.metrics.counter("preemptions"), r.preemptions);
    assert!(r.preemptions > 0);
}

#[test]
fn trace_does_not_change_the_schedule() {
    // Observability is passive: enabling the ring must not perturb the
    // simulation (no RNG draws, no cost charges).
    let traced = traced_run(PreemptMech::Uintr);
    let untraced = run(
        RuntimeConfig {
            trace_capacity: 0,
            ..traced_cfg(PreemptMech::Uintr)
        },
        Box::new(Fifo::new(SimDur::micros(10))),
        preempt_heavy_spec(),
    );
    assert_eq!(traced.arrivals, untraced.arrivals);
    assert_eq!(traced.completions, untraced.completions);
    assert_eq!(traced.preemptions, untraced.preemptions);
    assert_eq!(traced.latency.p99(), untraced.latency.p99());
    assert_eq!(traced.metrics, untraced.metrics);
}
