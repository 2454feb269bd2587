//! Fig. A (extension) — tail attribution: where p99 time goes vs load.
//!
//! Not a figure of the paper. LibPreemptible's evaluation reports *how
//! long* the tail is; this extension reports *where the time went*.
//! Each point runs the runtime with the always-on phase accountant
//! (`lp_sim::obs::Attribution`) and decomposes the pinned worst
//! request's end-to-end latency into the six phases of the vocabulary
//! (`queued`, `running`, `preempt_switch`, `retry_stall`,
//! `degraded_signal`, `brownout_held` — see `docs/TRACING.md`). The
//! sweep crosses the saturation knee on a healthy runtime and on every
//! cliff pinned in `results/chaos_corpus.json`: healthy overload shows
//! up as pure queueing, while the chaos cliffs shift mass into the
//! retry/degraded phases the tail actually spent waiting on lost
//! preemptions.
//!
//! Omitted from the `all` binary's paper-order artifact list on
//! purpose; regenerate with
//! `cargo run --release -p lp-experiments --bin figa`.

use lp_chaos::{corpus, evaluate_report, ChaosPlan, EvalConfig};
use lp_sim::obs::Phase;
use lp_stats::Table;

use crate::common::Scale;
use crate::runner;

/// The base loads swept, requests/second — the figw sweep, reused so
/// the two extension figures line up point for point.
pub use crate::figw::LOADS;

/// One scenario of the sweep: a named chaos plan (or the empty healthy
/// overlay) plus the evaluation context its loads are run under.
#[derive(Debug, Clone)]
pub struct FigAScenario {
    /// Display name (`healthy`, or the pinned corpus entry's name).
    pub name: String,
    /// The chaos plan lowered into each run (empty for healthy).
    pub plan: ChaosPlan,
    /// Evaluation context; the sweep overrides `base_rps` and
    /// `horizon_us` per point and keeps the rest.
    pub cfg: EvalConfig,
}

/// The healthy baseline: no chaos atoms at all, default context.
fn healthy_scenario() -> FigAScenario {
    FigAScenario {
        name: "healthy".into(),
        plan: ChaosPlan::Overlay(vec![]),
        cfg: EvalConfig::default(),
    }
}

/// Builds the scenario list: the healthy baseline, then one scenario
/// per pinned corpus cliff when `corpus_json` (the contents of
/// `results/chaos_corpus.json`) is supplied and parses. A missing or
/// malformed corpus degrades to the healthy baseline alone rather than
/// failing — the decomposition is a lens, not the regression gate.
pub fn scenarios(corpus_json: Option<&str>) -> Vec<FigAScenario> {
    let mut out = vec![healthy_scenario()];
    if let Some(entries) = corpus_json.and_then(corpus::from_json) {
        out.extend(entries.into_iter().map(|e| FigAScenario {
            name: e.name,
            plan: e.plan,
            cfg: e.cfg,
        }));
    }
    out
}

/// One point of the sweep: the worst pinned request's phase breakdown
/// plus per-phase p99s, all in nanoseconds (the table divides down to
/// µs; keeping ns here lets tests assert the exact-sum invariant).
#[derive(Debug, Clone)]
pub struct FigARow {
    /// Scenario name this point belongs to.
    pub scenario: String,
    /// Base offered load, requests/second.
    pub base_rps: u32,
    /// End-to-end p99 from the always-on attribution histogram, ns.
    pub e2e_p99_ns: u64,
    /// The pinned worst request's end-to-end latency, ns (0 when the
    /// run completed nothing).
    pub worst_ns: u64,
    /// The worst request's per-phase breakdown, ns — sums exactly to
    /// [`worst_ns`](Self::worst_ns).
    pub worst_phase_ns: [u64; Phase::COUNT],
    /// Per-phase p99 across all completed requests, ns.
    pub phase_p99_ns: [u64; Phase::COUNT],
    /// Completed requests behind the histograms.
    pub completions: u64,
}

/// Runs the sweep: every scenario at every load, fanned out over
/// `LP_JOBS` workers in submission order, so the row vector (and the
/// CSV rendered from it) is byte-identical at any job count.
pub fn run_figa(scale: Scale, scenarios: &[FigAScenario]) -> Vec<FigARow> {
    let horizon_us = scale.point_duration().as_nanos() / 1_000;
    let grid: Vec<(usize, u32)> = (0..scenarios.len())
        .flat_map(|si| LOADS.iter().map(move |&rps| (si, rps)))
        .collect();
    runner::map_points("figa", &grid, move |_id, &(si, base_rps)| {
        let sc = &scenarios[si];
        let cfg = EvalConfig {
            base_rps,
            horizon_us,
            ..sc.cfg
        };
        let r = evaluate_report(&sc.plan, &cfg, false, 0);
        let worst = r.worst_exemplar();
        let mut phase_p99_ns = [0u64; Phase::COUNT];
        for p in Phase::ALL {
            phase_p99_ns[p as usize] = r.phases.per_phase[p as usize].p99_ns();
        }
        FigARow {
            scenario: sc.name.clone(),
            base_rps,
            e2e_p99_ns: r.phases.end_to_end.p99_ns(),
            worst_ns: worst.as_ref().map_or(0, |e| e.latency_ns),
            worst_phase_ns: worst.as_ref().map_or([0; Phase::COUNT], |e| e.phase_ns),
            phase_p99_ns,
            completions: r.completions,
        }
    })
}

/// Renders the decomposition table: one row per (scenario, load), the
/// worst pinned request's latency split across the six phases. Pure
/// integer µs, so the CSV is byte-stable. An all-zero row with
/// `done = 0` is total starvation: the run completed nothing, so there
/// is no request to decompose (the censored backlog is what figw's
/// worst-case column measures).
pub fn table(rows: &[FigARow]) -> Table {
    let mut t = Table::new(&[
        "scenario",
        "load (rps)",
        "p99 (us)",
        "worst (us)",
        "queued (us)",
        "running (us)",
        "switch (us)",
        "stall (us)",
        "degraded (us)",
        "brownout (us)",
        "done",
    ])
    .with_title("Fig A (extension): where the worst request's time went, by phase");
    for r in rows {
        let us = |ns: u64| (ns / 1_000).to_string();
        t.row(&[
            r.scenario.clone(),
            r.base_rps.to_string(),
            us(r.e2e_p99_ns),
            us(r.worst_ns),
            us(r.worst_phase_ns[Phase::Queued as usize]),
            us(r.worst_phase_ns[Phase::Running as usize]),
            us(r.worst_phase_ns[Phase::PreemptSwitch as usize]),
            us(r.worst_phase_ns[Phase::RetryStall as usize]),
            us(r.worst_phase_ns[Phase::DegradedSignal as usize]),
            us(r.worst_phase_ns[Phase::BrownoutHeld as usize]),
            r.completions.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figw::representative_plan;

    /// A synthetic cliff standing in for a pinned corpus entry, so the
    /// tests need no `results/` file.
    fn cliff_scenario(horizon_us: u64) -> FigAScenario {
        FigAScenario {
            name: "cliff-test".into(),
            plan: representative_plan(horizon_us),
            cfg: EvalConfig::default(),
        }
    }

    #[test]
    fn worst_breakdown_sums_exactly_and_healthy_has_no_stall() {
        let rows = run_figa(Scale::Quick, &[healthy_scenario()]);
        assert_eq!(rows.len(), LOADS.len());
        for r in &rows {
            assert!(r.completions > 0, "{} rps: no completions", r.base_rps);
            let sum: u64 = r.worst_phase_ns.iter().sum();
            assert_eq!(
                sum, r.worst_ns,
                "{} rps: breakdown does not sum",
                r.base_rps
            );
            // No chaos atoms: nothing to retry, degrade, or brown out.
            for p in [
                Phase::RetryStall,
                Phase::DegradedSignal,
                Phase::BrownoutHeld,
            ] {
                assert_eq!(
                    r.worst_phase_ns[p as usize],
                    0,
                    "{} rps: healthy run charged {}",
                    r.base_rps,
                    p.name()
                );
            }
        }
        // Past saturation the decomposition blames the queue: queueing
        // dominates the worst request at the top load.
        let top = rows.last().expect("top load row");
        assert!(
            top.worst_phase_ns[Phase::Queued as usize] > top.worst_ns / 2,
            "overload not attributed to queueing: {:?}",
            top.worst_phase_ns
        );
    }

    #[test]
    fn a_cliff_shifts_mass_into_fault_phases() {
        let horizon_us = Scale::Quick.point_duration().as_nanos() / 1_000;
        let rows = run_figa(Scale::Quick, &[cliff_scenario(horizon_us)]);
        let fault_mass: u64 = rows
            .iter()
            .map(|r| {
                r.phase_p99_ns[Phase::RetryStall as usize]
                    + r.phase_p99_ns[Phase::DegradedSignal as usize]
                    + r.phase_p99_ns[Phase::BrownoutHeld as usize]
            })
            .sum();
        assert!(
            fault_mass > 0,
            "drop-burst cliff charged nothing to fault phases"
        );
    }

    #[test]
    fn figa_is_byte_identical_across_job_counts() {
        let horizon_us = Scale::Quick.point_duration().as_nanos() / 1_000;
        let scenarios = vec![healthy_scenario(), cliff_scenario(horizon_us)];
        let csv =
            |jobs| runner::with_jobs(jobs, || table(&run_figa(Scale::Quick, &scenarios)).to_csv());
        let one = csv(1);
        assert_eq!(one, csv(2), "LP_JOBS=2 drifted from LP_JOBS=1");
        assert_eq!(one, csv(8), "LP_JOBS=8 drifted from LP_JOBS=1");
    }

    #[test]
    fn missing_corpus_degrades_to_healthy_only() {
        assert_eq!(scenarios(None).len(), 1);
        assert_eq!(scenarios(Some("not json")).len(), 1);
    }
}
