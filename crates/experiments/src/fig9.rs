//! Fig. 9 — adaptive time quanta reduce SLO violations on workload C.
//!
//! Workload C shifts from heavy-tailed (A1) to light-tailed (B)
//! mid-run. A static quantum must pick a side; Algorithm 1 tracks the
//! shift. The figure reports SLO violations (50 us) and shows the
//! quantum trace.

use lp_sim::SimDur;
use lp_stats::Table;
use lp_workload::RateSchedule;

use libpreemptible::adaptive::{AdaptiveConfig, QuantumController};
use libpreemptible::policies::{AdaptiveQuantum, Fifo};
use libpreemptible::report::RunReport;
use libpreemptible::runtime::{run, RuntimeConfig, ServiceSource, WorkloadSpec};
use libpreemptible::sched::SchedPolicy;

use crate::common::{PaperWorkload, Scale};
use crate::runner;

/// Result of one policy variant.
#[derive(Debug)]
pub struct Fig9Row {
    /// Policy label.
    pub policy: String,
    /// Fraction of requests violating the 50 us SLO.
    pub slo_violation_frac: f64,
    /// p99, us.
    pub p99_us: f64,
    /// Quantum at the end of the run, us.
    pub final_quantum_us: f64,
    /// The full report (for the quantum trace).
    pub report: RunReport,
}

/// The SLO of the figure.
pub const SLO: SimDur = SimDur::micros(50);

/// Runs workload C under a static-small, static-large, and adaptive
/// quantum.
pub fn run_fig9(scale: Scale, seed: u64) -> Vec<Fig9Row> {
    let workers = 4;
    let duration = scale.point_duration() * 4; // C needs both phases
    let rate = PaperWorkload::C.rate_for(0.75, workers);
    let control_period = (duration / 60).max(SimDur::millis(2));
    let series = Some((duration / 40).max(SimDur::millis(1)));

    let mk_spec = || WorkloadSpec {
        source: ServiceSource::Phased(PaperWorkload::C.service(duration)),
        arrivals: RateSchedule::Constant(rate),
        duration,
        warmup: scale.warmup(),
    };
    let mk_cfg = || RuntimeConfig {
        workers,
        seed,
        control_period,
        series_frame: series,
        slo: Some(SLO),
        ..RuntimeConfig::default()
    };

    // The three policy variants are independent runs; the controller
    // state is not `Sync`, so each point builds its own policy inside
    // the closure and the grid fans out through the parallel runner.
    let labels: [&'static str; 3] = ["static 5us", "static 50us", "adaptive (Alg. 1)"];
    runner::map_points("fig9", &labels, |id, &label| {
        let policy: Box<dyn SchedPolicy> = match id.index {
            0 => Box::new(Fifo::new(SimDur::micros(5))),
            1 => Box::new(Fifo::new(SimDur::micros(50))),
            _ => {
                let mut cfg =
                    AdaptiveConfig::paper_defaults(PaperWorkload::C.rate_for(1.0, workers));
                cfg.period = control_period;
                Box::new(AdaptiveQuantum::new(QuantumController::new(
                    cfg,
                    SimDur::micros(20),
                )))
            }
        };
        let r = run(mk_cfg(), policy, mk_spec());
        Fig9Row {
            policy: label.to_string(),
            slo_violation_frac: r.slo_violations(SLO),
            p99_us: r.p99_us(),
            final_quantum_us: r.final_quantum.as_micros_f64(),
            report: r,
        }
    })
}

/// Renders the summary table.
pub fn table(rows: &[Fig9Row]) -> Table {
    let mut t = Table::new(&[
        "policy",
        "SLO (50us) violations",
        "p99 (us)",
        "final quantum (us)",
    ])
    .with_title("Fig 9: adaptive quanta vs SLO violations on workload C");
    for r in rows {
        t.row(&[
            r.policy.clone(),
            format!("{:.2}%", r.slo_violation_frac * 100.0),
            format!("{:.1}", r.p99_us),
            format!("{:.1}", r.final_quantum_us),
        ]);
    }
    t
}

/// Renders the adaptive run's quantum trace (the figure's bottom
/// panel).
pub fn quantum_trace(rows: &[Fig9Row]) -> Table {
    let mut t = Table::new(&["t (ms)", "quantum (us)"])
        .with_title("Fig 9 (trace): adaptive quantum over time");
    if let Some(adaptive) = rows.iter().find(|r| r.policy.starts_with("adaptive")) {
        if let Some(ts) = &adaptive.report.quantum_series {
            for f in ts.frames().iter().filter(|f| f.count > 0) {
                t.row(&[
                    format!("{:.0}", f.start as f64 / 1e6),
                    format!("{:.1}", f.mean()),
                ]);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_tracks_the_distribution_shift() {
        let rows = run_fig9(Scale::Quick, 5);
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.policy.starts_with(label))
                .expect("row")
        };
        let adaptive = get("adaptive");
        let s5 = get("static 5us");
        let s50 = get("static 50us");
        // The small static quantum pays preemption overhead through
        // the light-tailed phase; adaptive clearly beats it.
        assert!(
            adaptive.slo_violation_frac < 0.75 * s5.slo_violation_frac,
            "adaptive {} vs static5 {}",
            adaptive.slo_violation_frac,
            s5.slo_violation_frac
        );
        // And stays in static-50's neighborhood overall (it matches it
        // per phase; the residual gap is controller transition lag).
        assert!(
            adaptive.slo_violation_frac <= 2.0 * s50.slo_violation_frac,
            "adaptive {} vs static50 {}",
            adaptive.slo_violation_frac,
            s50.slo_violation_frac
        );
        // Adaptive delivers the best tail of the three.
        assert!(adaptive.p99_us <= s5.p99_us * 1.05);
        assert!(adaptive.p99_us <= s50.p99_us * 1.05);
        // The quantum trace shows both regimes: the floor during the
        // heavy-tailed half, t_max after the shift.
        let trace = adaptive.report.quantum_series.as_ref().expect("trace");
        let mins = trace
            .frames()
            .iter()
            .filter(|f| f.count > 0)
            .map(|f| f.mean())
            .fold(f64::INFINITY, f64::min);
        assert!(mins <= 5.0, "never reached the floor: min {mins}");
        assert!(
            (adaptive.final_quantum_us - 50.0).abs() < 1.0,
            "did not relax after the shift: final {}",
            adaptive.final_quantum_us
        );
    }

    #[test]
    fn trace_has_frames() {
        let rows = run_fig9(Scale::Quick, 5);
        let t = quantum_trace(&rows);
        assert!(!t.is_empty(), "quantum trace empty");
        assert_eq!(table(&rows).len(), 3);
    }
}
