//! Deterministic JSONL event-trace recipes for the shipped figures'
//! workload shapes — the inputs `lp-check race` analyzes.
//!
//! One definition, three consumers: the `traces` bin exports these to
//! `results/traces/` for CI, the tier-1 gate (`tests/static_analysis.rs`)
//! regenerates them in-memory and requires zero race findings, and
//! developers can rebuild them locally to reproduce either. Sharing the
//! recipe is what makes "the trace CI analyzed" and "the trace the gate
//! analyzed" the same bytes (`tests/observability.rs` pins the
//! byte-determinism this relies on).

use lp_sim::fault::{FaultKind, FaultPlan};
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

use libpreemptible::policies::Fifo;
use libpreemptible::runtime::{run, PreemptMech, RuntimeConfig, ServiceSource, WorkloadSpec};

use crate::common::Scale;

/// The Fig. 2 shape: heavy-tailed bimodal service on 16 workers under
/// a 25 us UINTR quantum, fault-free. At quick scale the run outgrows
/// the `1 << 18` trace ring, so the exported trace is head-truncated —
/// deliberately, to keep the race detector's truncation guards
/// exercised.
pub fn fig2_trace(scale: Scale, seed: u64) -> String {
    let dist = ServiceDist::workload_a1();
    let workers = 16;
    let rate = dist.rate_for_utilization(0.75, workers);
    let spec = WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(dist)),
        arrivals: RateSchedule::Constant(rate),
        duration: scale.point_duration(),
        warmup: scale.warmup(),
    };
    let cfg = RuntimeConfig {
        workers,
        mech: PreemptMech::Uintr,
        seed,
        trace_capacity: 1 << 18,
        ..RuntimeConfig::default()
    };
    run(cfg, Box::new(Fifo::new(SimDur::micros(25))), spec).events_jsonl()
}

/// The Fig. R shape: constant 400 us service on 4 workers under a
/// 20 us quantum with a 10% IPI drop rate — every arc of the watchdog
/// retry/degrade/recover machine fires, so the trace carries the full
/// retry->re-send / degrade / recover edge vocabulary.
pub fn figr_trace(scale: Scale, seed: u64) -> String {
    let spec = WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
            SimDur::micros(400),
        ))),
        arrivals: RateSchedule::Constant(8_000.0),
        duration: scale.point_duration(),
        warmup: scale.warmup(),
    };
    let cfg = RuntimeConfig {
        workers: 4,
        mech: PreemptMech::Uintr,
        seed,
        control_period: SimDur::millis(10),
        faults: FaultPlan::only(FaultKind::IpiDrop, 0.1),
        trace_capacity: 1 << 18,
        ..RuntimeConfig::default()
    };
    run(cfg, Box::new(Fifo::new(SimDur::micros(20))), spec).events_jsonl()
}
