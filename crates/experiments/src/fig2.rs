//! Fig. 2 — tail latency vs preemption time quantum on 16 cores, for a
//! heavy-tailed (bimodal) and a light-tailed (exponential) workload.
//!
//! The paper's point: lower quanta help heavy tails (until the quantum
//! gets so small the overhead bites), while light tails prefer *larger*
//! quanta — hence adaptivity. A "0 us" quantum in the paper means no
//! preemption; we render it as `none`.

use lp_sim::SimDur;
use lp_stats::Table;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

use libpreemptible::policies::Fifo;
use libpreemptible::runtime::{run, PreemptMech, RuntimeConfig, ServiceSource, WorkloadSpec};
use libpreemptible::sched::SchedPolicy;

use crate::common::Scale;
use crate::runner;

/// One cell of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumPoint {
    /// Workload label.
    pub workload: &'static str,
    /// Quantum in us; `None` = no preemption (the paper's 0 us).
    pub quantum_us: Option<u64>,
    /// Measured p99, us.
    pub p99_us: f64,
    /// Measured median, us.
    pub median_us: f64,
}

/// The quantum grid of the figure.
pub const QUANTA_US: [Option<u64>; 5] = [None, Some(5), Some(25), Some(100), Some(500)];

/// Runs the sweep for both distributions on 16 cores at fixed load.
///
/// The `workload x quantum` grid points are independent seeded runs;
/// they are submitted through the parallel [`runner`] and collected in
/// grid order, so the result (and everything rendered from it) is
/// byte-identical at any `LP_JOBS`.
pub fn run_fig2(scale: Scale, seed: u64) -> Vec<QuantumPoint> {
    let workloads: [(&str, ServiceDist); 2] = [
        (
            "bimodal (99.5% 0.5us / 0.5% 500us)",
            ServiceDist::workload_a1(),
        ),
        ("exponential (mean 5us)", ServiceDist::workload_b()),
    ];
    let workers = 16;
    let rho = 0.75;
    let points: Vec<(&'static str, ServiceDist, Option<u64>)> = workloads
        .into_iter()
        .flat_map(|(name, dist)| QUANTA_US.into_iter().map(move |q| (name, dist.clone(), q)))
        .collect();
    runner::map_points("fig2", &points, |_, (name, dist, q)| {
        let rate = dist.rate_for_utilization(rho, workers);
        let duration = scale.point_duration();
        let spec = WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(dist.clone())),
            arrivals: RateSchedule::Constant(rate),
            duration,
            warmup: scale.warmup(),
        };
        let (policy, mech): (Box<dyn SchedPolicy>, PreemptMech) = match q {
            None => (Box::new(Fifo::new(SimDur::MAX)), PreemptMech::None),
            Some(us) => (Box::new(Fifo::new(SimDur::micros(*us))), PreemptMech::Uintr),
        };
        let cfg = RuntimeConfig {
            workers,
            mech,
            seed,
            ..RuntimeConfig::default()
        };
        let r = run(cfg, policy, spec);
        debug_assert!(r.is_conserved());
        QuantumPoint {
            workload: name,
            quantum_us: *q,
            p99_us: r.p99_us(),
            median_us: r.median_us(),
        }
    })
}

/// Renders the figure as a table.
pub fn table(points: &[QuantumPoint]) -> Table {
    let mut t = Table::new(&["workload", "quantum (us)", "median (us)", "p99 (us)"])
        .with_title("Fig 2: tail latency vs preemption quantum, 16 cores, rho=0.75");
    for p in points {
        t.row(&[
            p.workload.to_string(),
            p.quantum_us
                .map(|q| q.to_string())
                .unwrap_or_else(|| "none".into()),
            format!("{:.1}", p.median_us),
            format!("{:.1}", p.p99_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p99(points: &[QuantumPoint], workload_contains: &str, q: Option<u64>) -> f64 {
        points
            .iter()
            .find(|p| p.workload.contains(workload_contains) && p.quantum_us == q)
            .expect("point")
            .p99_us
    }

    #[test]
    fn heavy_tail_prefers_small_quanta_light_tail_large() {
        let pts = run_fig2(Scale::Quick, 3);
        // Bimodal: 5us quantum beats both no-preemption and a 500us
        // quantum.
        let bi_5 = p99(&pts, "bimodal", Some(5));
        let bi_none = p99(&pts, "bimodal", None);
        let bi_500 = p99(&pts, "bimodal", Some(500));
        assert!(bi_5 < bi_none, "5us {bi_5} vs none {bi_none}");
        assert!(bi_5 < bi_500, "5us {bi_5} vs 500us {bi_500}");
        // Exponential: preemption cannot help much; tiny quanta must
        // not be better than large ones by any significant margin.
        let ex_5 = p99(&pts, "exponential", Some(5));
        let ex_100 = p99(&pts, "exponential", Some(100));
        assert!(
            ex_100 <= ex_5 * 1.3,
            "exp: 100us {ex_100} should be competitive with 5us {ex_5}"
        );
    }

    #[test]
    fn grid_is_complete() {
        let pts = run_fig2(Scale::Quick, 3);
        assert_eq!(pts.len(), 2 * QUANTA_US.len());
        assert_eq!(table(&pts).len(), pts.len());
    }
}
