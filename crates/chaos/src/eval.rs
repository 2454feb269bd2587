//! Evaluation: score one chaos plan against the runtime.
//!
//! The adversary's objective rewards *cliffs*: worst-case end-to-end
//! response plus a mass term for every request that missed the SLO or
//! was dropped/shed. Evaluation is one deterministic simulated run per
//! `(plan, seed, hardened)` triple — identical inputs produce identical
//! scores at any job count, which is what lets the search fan out and
//! the corpus replay byte-identically.

use libpreemptible::policies::Fifo;
use libpreemptible::runtime::{
    run, AdmissionConfig, PreemptMech, RuntimeConfig, ServiceSource, WorkloadSpec,
};
use libpreemptible::RunReport;
use lp_sim::SimDur;
use lp_workload::{PhasedService, ServiceDist};

use crate::lower::lower;
use crate::plan::ChaosPlan;

/// Fixed parameters of one evaluation context (everything but the
/// plan and the hardening switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Worker cores.
    pub workers: usize,
    /// Master seed; the run derives every substream from it.
    pub seed: u64,
    /// Base offered load, requests/second (spikes add on top).
    pub base_rps: u32,
    /// Run length, µs — also the chaos plan's horizon.
    pub horizon_us: u64,
    /// Latency SLO, µs (the miss-mass term counts requests above it).
    pub slo_us: u64,
    /// Constant per-request service time, µs.
    pub service_us: u64,
    /// Preemption quantum, µs.
    pub quantum_us: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        // The figr resilience geometry: 400 µs requests under a 20 µs
        // quantum need ~20 preemptions each, so every lost or masked
        // preemption lands squarely on the tail.
        EvalConfig {
            workers: 4,
            seed: 2024,
            base_rps: 8_000,
            horizon_us: 40_000,
            slo_us: 1_500,
            service_us: 400,
            quantum_us: 20,
        }
    }
}

/// What one evaluation measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOutcome {
    /// Censoring-aware worst-case end-to-end response, ns: the worst
    /// completed latency, or the age of the oldest request the run
    /// never finished, whichever is larger. Under queue blow-up the
    /// true worst offenders never complete — counting only completed
    /// requests would let a total-starvation plan report a worst case
    /// of zero.
    pub worst_ns: u64,
    /// p99 end-to-end response, ns.
    pub p99_ns: u64,
    /// SLO-miss mass: completed requests above the SLO, plus every
    /// dropped or shed request, plus requests still queued when the
    /// horizon closed (each is a miss by definition).
    pub miss_mass: u64,
    /// Completed requests.
    pub completions: u64,
    /// Dropped requests (pool exhaustion and admission sheds).
    pub dropped: u64,
    /// Requests still in flight at the end of the run.
    pub in_flight: u64,
    /// Arrival conservation held (`arrivals == completions + dropped +
    /// in_flight`) — a `false` here is a runtime bug, not a cliff.
    pub conserved: bool,
}

impl EvalOutcome {
    /// The adversary's scalar objective, higher = worse for the
    /// system: worst-case response in ns, plus 100 µs of equivalent
    /// badness per missed/dropped request. Pure integer arithmetic so
    /// scores compare exactly across runs and job counts.
    pub fn objective(&self) -> u64 {
        self.worst_ns
            .saturating_add(self.miss_mass.saturating_mul(100_000))
    }
}

/// Builds the runtime config one evaluation runs under.
pub fn runtime_config(plan: &ChaosPlan, cfg: &EvalConfig, hardened: bool) -> RuntimeConfig {
    let lowered = lower(plan, cfg.base_rps, cfg.horizon_us);
    RuntimeConfig {
        workers: cfg.workers,
        mech: PreemptMech::Uintr,
        seed: cfg.seed,
        control_period: SimDur::millis(10),
        slo: Some(SimDur::micros(cfg.slo_us)),
        faults: lowered.faults,
        admission: AdmissionConfig {
            enabled: hardened,
            queue_cap: 64 * cfg.workers,
            brownout_cap: 16 * cfg.workers,
            slo_aware: hardened,
        },
        ..RuntimeConfig::default()
    }
}

/// Runs `plan` once and returns the full [`RunReport`] — the
/// attribution- and trace-bearing superset of [`evaluate`]. The
/// scheduling decisions are identical to [`evaluate`]'s (tracing and
/// the phase accountant are passive observers), so a report-backed
/// sweep like the figA decomposition sees exactly the runs the corpus
/// pinned. `trace_capacity > 0` additionally captures the last that
/// many typed events for Perfetto export.
pub fn evaluate_report(
    plan: &ChaosPlan,
    cfg: &EvalConfig,
    hardened: bool,
    trace_capacity: usize,
) -> RunReport {
    let lowered = lower(plan, cfg.base_rps, cfg.horizon_us);
    let spec = WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
            SimDur::micros(cfg.service_us),
        ))),
        arrivals: lowered.arrivals,
        duration: SimDur::micros(cfg.horizon_us),
        warmup: SimDur::ZERO,
    };
    run(
        RuntimeConfig {
            trace_capacity,
            ..runtime_config(plan, cfg, hardened)
        },
        Box::new(Fifo::new(SimDur::micros(cfg.quantum_us))),
        spec,
    )
}

/// Runs `plan` once and scores it. `hardened` arms admission control;
/// everything else is identical between the two variants, so the pair
/// isolates exactly what the hardening buys.
pub fn evaluate(plan: &ChaosPlan, cfg: &EvalConfig, hardened: bool) -> EvalOutcome {
    let r = evaluate_report(plan, cfg, hardened, 0);
    let slo_ns = cfg.slo_us * 1_000;
    let missed_completed = r.latency.count() - r.latency.count_at_or_below(slo_ns);
    EvalOutcome {
        worst_ns: r.worst_case_ns(),
        p99_ns: r.latency.p99(),
        miss_mass: missed_completed + r.dropped + r.in_flight,
        completions: r.completions,
        dropped: r.dropped,
        in_flight: r.in_flight,
        conserved: r.is_conserved(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChaosAtom;

    #[test]
    fn evaluation_is_deterministic_and_conserved() {
        let plan = ChaosPlan::Atom(ChaosAtom::UintrDropBurst { rate_ppm: 300_000 });
        let cfg = EvalConfig {
            horizon_us: 20_000,
            ..EvalConfig::default()
        };
        let a = evaluate(&plan, &cfg, false);
        let b = evaluate(&plan, &cfg, false);
        assert_eq!(a, b);
        assert!(a.conserved);
        assert!(a.completions > 0);
    }

    #[test]
    fn a_hostile_plan_scores_worse_than_a_quiet_one() {
        let cfg = EvalConfig {
            horizon_us: 20_000,
            ..EvalConfig::default()
        };
        let quiet = ChaosPlan::Atom(ChaosAtom::UintrDropBurst { rate_ppm: 0 });
        let hostile = ChaosPlan::Overlay(vec![
            ChaosPlan::Atom(ChaosAtom::UintrDropBurst { rate_ppm: 900_000 }),
            ChaosPlan::Atom(ChaosAtom::ArrivalSpike { extra_rps: 8_000 }),
        ]);
        let q = evaluate(&quiet, &cfg, false);
        let h = evaluate(&hostile, &cfg, false);
        assert!(
            h.objective() > q.objective(),
            "hostile {} <= quiet {}",
            h.objective(),
            q.objective()
        );
    }
}
