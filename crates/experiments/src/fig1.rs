//! Fig. 1 — the motivation figure.
//!
//! **Left:** the gap between software-based IPC delivery (signals,
//! regular interrupts) and hardware-assisted delivery (UINTR).
//!
//! **Right:** CPU time spent in preemption relative to lean execution
//! time for microsecond-scale workloads running on Shinjuku, ranked by
//! workload dispersion (SCV), each at the time quantum that gives that
//! workload its best tail latency.

use lp_kernel::{IpcLatency, IpcMechanism};
use lp_sim::rng::rng;
use lp_sim::SimDur;
use lp_stats::Table;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

use libpreemptible::runtime::{ServiceSource, WorkloadSpec};
use lp_baselines::{run_shinjuku, ShinjukuConfig};

use crate::common::Scale;

/// One bar of Fig. 1 (left).
#[derive(Debug, Clone, PartialEq)]
pub struct IpcGapRow {
    /// Delivery path label.
    pub path: &'static str,
    /// Mean one-way delivery latency, us.
    pub mean_us: f64,
}

/// Fig. 1 (left): delivery latency of the three classes of IPC.
pub fn run_left(scale: Scale) -> Vec<IpcGapRow> {
    let lat = IpcLatency::default();
    let n = scale.samples() / 10;
    let mean = |mech: IpcMechanism, seed: u64| {
        let mut r = rng(seed, 3);
        (0..n)
            .map(|_| lat.sample(mech, &mut r).as_micros_f64())
            .sum::<f64>()
            / n as f64
    };
    vec![
        IpcGapRow {
            path: "software IPC (signal)",
            mean_us: mean(IpcMechanism::Signal, 1),
        },
        IpcGapRow {
            path: "software IPC (best: mq)",
            mean_us: mean(IpcMechanism::MessageQueue, 2),
        },
        IpcGapRow {
            path: "hardware IPC (UINTR)",
            mean_us: mean(IpcMechanism::UintrFd, 3),
        },
    ]
}

/// One bar of Fig. 1 (right).
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Workload label.
    pub workload: String,
    /// Squared coefficient of variation (dispersion rank key).
    pub scv: f64,
    /// The quantum that gave the best p99 for this workload.
    pub best_quantum_us: f64,
    /// Preemption CPU time normalized to execution time on Shinjuku.
    pub overhead_ratio: f64,
}

/// The workload ladder for the dispersion ranking, least to most
/// dispersive.
fn workload_ladder() -> Vec<(&'static str, ServiceDist)> {
    vec![
        ("constant 5us", ServiceDist::Constant(SimDur::micros(5))),
        (
            "exp mean 5us",
            ServiceDist::Exponential {
                mean: SimDur::micros(5),
            },
        ),
        (
            "lognormal s=1.5",
            ServiceDist::Lognormal {
                median: SimDur::micros(3),
                sigma: 1.5,
            },
        ),
        ("bimodal A2", ServiceDist::workload_a2()),
        ("bimodal A1", ServiceDist::workload_a1()),
    ]
}

/// Fig. 1 (right): preemption overhead vs dispersion on Shinjuku at
/// each workload's tail-optimal quantum.
pub fn run_right(scale: Scale) -> Vec<OverheadRow> {
    let quanta = [5u64, 10, 25, 100];
    let mut rows = Vec::new();
    for (name, dist) in workload_ladder() {
        let duration = scale.point_duration();
        let rate = 0.7 * 5.0 / dist.mean().as_secs_f64();
        let mut best: Option<(f64, f64, f64)> = None; // (p99, quantum, overhead)
        for q in quanta {
            let r = run_shinjuku(
                ShinjukuConfig {
                    quantum: SimDur::micros(q),
                    ..ShinjukuConfig::default()
                },
                WorkloadSpec {
                    source: ServiceSource::Phased(PhasedService::constant(dist.clone())),
                    arrivals: RateSchedule::Constant(rate),
                    duration,
                    warmup: scale.warmup(),
                },
            );
            let cand = (r.p99_us(), q as f64, r.preemption_overhead_ratio());
            if best.map(|b| cand.0 < b.0).unwrap_or(true) {
                best = Some(cand);
            }
        }
        let (_, best_q, overhead) = best.expect("at least one quantum");
        rows.push(OverheadRow {
            workload: name.to_string(),
            scv: dist.scv(),
            best_quantum_us: best_q,
            overhead_ratio: overhead,
        });
    }
    rows
}

/// Renders both panels.
pub fn tables(left: &[IpcGapRow], right: &[OverheadRow]) -> (Table, Table) {
    let mut tl = Table::new(&["delivery path", "mean latency (us)"])
        .with_title("Fig 1 (left): software vs hardware IPC delivery");
    for r in left {
        tl.row(&[r.path.to_string(), format!("{:.3}", r.mean_us)]);
    }
    let mut tr = Table::new(&[
        "workload",
        "SCV (dispersion)",
        "best quantum (us)",
        "preemption/exec",
    ])
    .with_title("Fig 1 (right): preemption overhead on Shinjuku, ranked by dispersion");
    for r in right {
        tr.row(&[
            r.workload.clone(),
            format!("{:.1}", r.scv),
            format!("{:.0}", r.best_quantum_us),
            format!("{:.3}", r.overhead_ratio),
        ]);
    }
    (tl, tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn left_panel_shows_hw_gap() {
        let rows = run_left(Scale::Quick);
        let sw = rows[0].mean_us.min(rows[1].mean_us);
        let hw = rows[2].mean_us;
        assert!(sw / hw > 8.0, "gap = {}", sw / hw);
    }

    #[test]
    fn right_panel_overhead_grows_with_dispersion() {
        let rows = run_right(Scale::Quick);
        assert_eq!(rows.len(), 5);
        // Ladder is ordered by SCV.
        for w in rows.windows(2) {
            assert!(w[0].scv <= w[1].scv + 1e-9);
        }
        // The most dispersive workload pays measurably more preemption
        // overhead than the constant one.
        let first = rows.first().unwrap().overhead_ratio;
        let last = rows.last().unwrap().overhead_ratio;
        assert!(
            last > first,
            "overhead should grow with dispersion: {first} -> {last}"
        );
        // Microsecond-scale dispersive workloads lose >1% to preemption.
        assert!(last > 0.01, "A1 overhead = {last}");
    }

    #[test]
    fn tables_render() {
        let (tl, tr) = tables(&run_left(Scale::Quick), &run_right(Scale::Quick));
        assert!(tl.render().contains("UINTR"));
        assert!(tr.render().contains("bimodal A1"));
    }
}
