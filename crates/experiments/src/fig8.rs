//! Fig. 8 — the headline comparison: median and p99 latency vs
//! throughput for LibPreemptible, LibPreemptible w/o UINTR, Shinjuku,
//! and Libinger on workloads A1, A2, B, C; plus the maximum-throughput
//! summary (p99 bounded by 200x the stable-system average latency).

use lp_stats::Table;

use crate::common::{
    max_throughput_from_reports, run_system, PaperWorkload, Scale, SystemUnderTest,
};
use crate::runner;

/// One measured sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// System label.
    pub system: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Offered utilization (fraction of worker capacity).
    pub rho: f64,
    /// Measured throughput, requests/second.
    pub throughput_rps: f64,
    /// Median latency, us.
    pub median_us: f64,
    /// p99 latency, us.
    pub p99_us: f64,
}

/// The utilization grid of the sweep.
pub fn utilization_grid(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.2, 0.5, 0.8, 0.9, 0.95],
        Scale::Full => vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
    }
}

/// The max-throughput summary (the right panel's saturation points).
#[derive(Debug, Clone, PartialEq)]
pub struct MaxThroughputRow {
    /// System label.
    pub system: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Maximum sustainable throughput, requests/second.
    pub max_rps: f64,
}

/// Runs Fig. 8: the latency-vs-load sweep and the max-throughput
/// summary, both read off one simulated grid.
///
/// Every `workload x system` pair submits its 10%-load baseline ("a
/// stable system") and then the utilization grid, so each pair owns a
/// contiguous chunk of `1 + grid` reports. All points fan out through
/// the parallel [`runner`] as one flat batch and come back in
/// submission order; the sweep points and the saturation criterion
/// are then reduced serially over the same reports, so both outputs
/// are byte-identical to the serial walk at any `LP_JOBS`.
pub fn fig8(scale: Scale, seed: u64) -> (Vec<SweepPoint>, Vec<MaxThroughputRow>) {
    let utils = utilization_grid(scale);
    let pairs: Vec<(PaperWorkload, SystemUnderTest)> = PaperWorkload::ALL
        .into_iter()
        .flat_map(|wl| SystemUnderTest::ALL.into_iter().map(move |sys| (wl, sys)))
        .collect();
    let mut points: Vec<(PaperWorkload, SystemUnderTest, f64)> = Vec::new();
    for &(wl, sys) in &pairs {
        points.push((wl, sys, 0.1 * wl.rate_for(1.0, sys.workers())));
        for &u in &utils {
            points.push((wl, sys, wl.rate_for(u, sys.workers())));
        }
    }
    let reports = runner::map_points("fig8", &points, |_, &(wl, sys, rate)| {
        run_system(sys, wl, rate, scale, seed)
    });
    let mut sweep = Vec::with_capacity(pairs.len() * utils.len());
    let mut max = Vec::with_capacity(pairs.len());
    for (&(wl, sys), chunk) in pairs.iter().zip(reports.chunks(1 + utils.len())) {
        let (base, grid) = chunk.split_first().expect("baseline report");
        for (&rho, r) in utils.iter().zip(grid) {
            sweep.push(SweepPoint {
                system: sys.name(),
                workload: wl.name(),
                rho,
                throughput_rps: r.throughput_rps(),
                median_us: r.median_us(),
                p99_us: r.p99_us(),
            });
        }
        let baseline_avg = base.mean_us().max(wl.mean_service().as_micros_f64());
        max.push(MaxThroughputRow {
            system: sys.name(),
            workload: wl.name(),
            max_rps: max_throughput_from_reports(baseline_avg, grid),
        });
    }
    (sweep, max)
}

/// Renders the sweep as a table.
pub fn sweep_table(points: &[SweepPoint]) -> Table {
    let mut t = Table::new(&[
        "workload",
        "system",
        "rho",
        "throughput (kRPS)",
        "median (us)",
        "p99 (us)",
    ])
    .with_title("Fig 8: latency vs throughput");
    for p in points {
        t.row(&[
            p.workload.to_string(),
            p.system.to_string(),
            format!("{:.2}", p.rho),
            format!("{:.1}", p.throughput_rps / 1_000.0),
            format!("{:.1}", p.median_us),
            format!("{:.1}", p.p99_us),
        ]);
    }
    t
}

/// Renders the max-throughput summary.
pub fn max_table(rows: &[MaxThroughputRow]) -> Table {
    let mut t = Table::new(&["workload", "system", "max throughput (kRPS)"])
        .with_title("Fig 8 (summary): max throughput, p99 <= 200x stable avg");
    for r in rows {
        t.row(&[
            r.workload.to_string(),
            r.system.to_string(),
            format!("{:.1}", r.max_rps / 1_000.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// The quick-scale grid at seed 11, simulated once per test binary.
    fn grid() -> &'static (Vec<SweepPoint>, Vec<MaxThroughputRow>) {
        static GRID: OnceLock<(Vec<SweepPoint>, Vec<MaxThroughputRow>)> = OnceLock::new();
        GRID.get_or_init(|| fig8(Scale::Quick, 11))
    }

    fn p99_of(points: &[SweepPoint], sys: &str, wl: &str, rho: f64) -> f64 {
        points
            .iter()
            .find(|p| p.system == sys && p.workload == wl && (p.rho - rho).abs() < 1e-9)
            .expect("point")
            .p99_us
    }

    #[test]
    fn libpreemptible_beats_shinjuku_tail_at_high_load_a1() {
        // The paper's headline: ~10x better tail under high load. We
        // assert a conservative >2x at rho=0.8 on the quick scale.
        let pts = &grid().0;
        let lp = p99_of(pts, "LibPreemptible", "A1", 0.8);
        let sj = p99_of(pts, "Shinjuku", "A1", 0.8);
        assert!(
            sj > 2.0 * lp,
            "Shinjuku p99 {sj} should be >> LibPreemptible {lp}"
        );
    }

    #[test]
    fn no_uintr_ablation_is_worse_at_high_load() {
        let pts = &grid().0;
        for wl in ["A1", "A2"] {
            let with = p99_of(pts, "LibPreemptible", wl, 0.9);
            let without = p99_of(pts, "LibPreemptible w/o UINTR", wl, 0.9);
            assert!(
                without > with,
                "{wl}: w/o UINTR {without} must exceed with {with}"
            );
        }
    }

    #[test]
    fn libinger_has_the_worst_tail_on_a1() {
        let pts = &grid().0;
        let li = p99_of(pts, "Libinger", "A1", 0.8);
        let lp = p99_of(pts, "LibPreemptible", "A1", 0.8);
        assert!(li > lp, "Libinger {li} vs LibPreemptible {lp}");
    }

    #[test]
    fn max_throughput_per_worker_favors_libpreemptible() {
        // The paper reports 22% (A1) / 33% (C) higher max throughput
        // for LibPreemptible despite running 4 workers to Shinjuku's 5.
        // Quick-scale windows are too short for the saturation
        // criterion to bite sharply (queues need seconds to diverge),
        // so CI asserts the per-worker ordering; the full-scale binary
        // regenerates the paper-scale gap.
        let rows = &grid().1;
        let get = |sys: &str, wl: &str| {
            rows.iter()
                .find(|r| r.system == sys && r.workload == wl)
                .expect("row")
                .max_rps
        };
        for wl in ["A1", "C"] {
            let lp_per_worker = get("LibPreemptible", wl) / 4.0;
            let sj_per_worker = get("Shinjuku", wl) / 5.0;
            assert!(
                lp_per_worker > 0.95 * sj_per_worker,
                "{wl}: LibPreemptible {lp_per_worker}/worker vs Shinjuku {sj_per_worker}/worker"
            );
        }
    }
}
