//! Fig. W (extension) — worst-case response vs offered load under a
//! fixed chaos plan, hardened (admission armed) vs unhardened.
//!
//! Not a figure of the paper: LibPreemptible assumes a cooperative
//! tenant mix and never sheds load. This extension replays one
//! representative adversarial plan from the chaos corpus family — a
//! mid-run UINTR drop burst overlaid with an antagonist arrival spike
//! and background timer jitter — across a load sweep, and compares the
//! runtime with admission control armed against the same runtime
//! without it. The hardened curve should stay bounded past saturation
//! where the unhardened curve walks off toward the horizon. Omitted
//! from the `all` binary's paper-order artifact list on purpose;
//! regenerate with `cargo run --release -p lp-experiments --bin figw`.

use lp_chaos::{evaluate, ChaosAtom, ChaosPlan, EvalConfig, EvalOutcome};
use lp_stats::Table;

use crate::common::Scale;
use crate::runner;

/// One point of the sweep: the same plan and load evaluated both ways.
#[derive(Debug)]
pub struct FigWRow {
    /// Base offered load, requests/second (the spike adds on top).
    pub base_rps: u32,
    /// Outcome with admission control disabled.
    pub unhardened: EvalOutcome,
    /// Outcome with admission control armed.
    pub hardened: EvalOutcome,
}

/// The base loads swept, requests/second. Four workers at 400 µs per
/// request saturate at 10 krps, so the sweep crosses the knee and ends
/// deep enough past it to fill the admission queue within even a
/// quick-scale horizon.
pub const LOADS: [u32; 6] = [4_000, 8_000, 10_000, 12_000, 16_000, 24_000];

/// The representative adversarial plan, scaled to `horizon_us`: a
/// half-horizon UINTR drop burst and an overlapping arrival spike over
/// background timer jitter — the shape the chaos search converges on.
pub fn representative_plan(horizon_us: u64) -> ChaosPlan {
    let h = u32::try_from(horizon_us).unwrap_or(u32::MAX);
    ChaosPlan::Overlay(vec![
        ChaosPlan::windowed(
            ChaosPlan::Atom(ChaosAtom::UintrDropBurst { rate_ppm: 400_000 }),
            h / 4,
            h / 2,
        ),
        ChaosPlan::windowed(
            ChaosPlan::Atom(ChaosAtom::ArrivalSpike { extra_rps: 4_000 }),
            h / 2,
            h / 4,
        ),
        ChaosPlan::Atom(ChaosAtom::TimerJitterWave {
            rate_ppm: 50_000,
            spike_us: 200,
        }),
    ])
}

/// Runs the sweep. Each point is two deterministic evaluations of the
/// same `(plan, seed)` pair differing only in the admission switch.
pub fn run_figw(scale: Scale, seed: u64) -> Vec<FigWRow> {
    let horizon_us = scale.point_duration().as_nanos() / 1_000;
    let plan = representative_plan(horizon_us);
    runner::map_points("figw", &LOADS, move |_id, &base_rps| {
        let cfg = EvalConfig {
            seed,
            base_rps,
            horizon_us,
            ..EvalConfig::default()
        };
        FigWRow {
            base_rps,
            unhardened: evaluate(&plan, &cfg, false),
            hardened: evaluate(&plan, &cfg, true),
        }
    })
}

/// Renders the sweep table.
pub fn table(rows: &[FigWRow]) -> Table {
    let mut t = Table::new(&[
        "load (rps)",
        "worst unhard (us)",
        "worst hard (us)",
        "p99 unhard (us)",
        "p99 hard (us)",
        "miss unhard",
        "miss hard",
        "shed",
    ])
    .with_title("Fig W (extension): worst-case response vs load, hardened vs unhardened");
    for r in rows {
        t.row(&[
            r.base_rps.to_string(),
            (r.unhardened.worst_ns / 1_000).to_string(),
            (r.hardened.worst_ns / 1_000).to_string(),
            (r.unhardened.p99_ns / 1_000).to_string(),
            (r.hardened.p99_ns / 1_000).to_string(),
            r.unhardened.miss_mass.to_string(),
            r.hardened.miss_mass.to_string(),
            r.hardened.dropped.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    #[test]
    fn hardening_bounds_the_overloaded_tail() {
        let rows = run_figw(Scale::Quick, DEFAULT_SEED);
        assert_eq!(rows.len(), LOADS.len());
        // Every point conserves requests on both sides of the switch —
        // neither chaos nor shedding strands fibers.
        for r in &rows {
            assert!(
                r.unhardened.conserved,
                "{} rps unhardened: not conserved",
                r.base_rps
            );
            assert!(
                r.hardened.conserved,
                "{} rps hardened: not conserved",
                r.base_rps
            );
        }
        // Past saturation (4 workers x 400 us = 10 krps) the unhardened
        // queue grows without bound while admission caps it: the
        // hardened worst case must be strictly better at the top load.
        let top = rows.last().expect("top load row");
        assert!(
            top.hardened.worst_ns < top.unhardened.worst_ns,
            "hardened worst {} >= unhardened worst {}",
            top.hardened.worst_ns,
            top.unhardened.worst_ns
        );
        // And the hardening actually engaged: something was shed.
        assert!(top.hardened.dropped > 0);
    }
}
