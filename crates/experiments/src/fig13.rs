//! Fig. 13 — MICA (LC) + zlib (BE) colocation with the
//! LibPreemptible-based preemptive scheduler.
//!
//! **Left:** p99 of the LC job vs offered load, preemptive (30 us
//! quantum) vs non-preemptive, plus the BE job's latency cost.
//!
//! **Right:** fixed 55 kRPS, sweeping the quantum — smaller quanta
//! crush the LC tail (down to ~8 us at 5 us quantum, 18.5x better than
//! non-preemptive) but tax the BE job more.

use lp_sim::SimDur;
use lp_stats::Table;
use lp_workload::{ColocatedWorkload, RateSchedule};

use libpreemptible::policies::{ClassQuantum, Fifo};
use libpreemptible::runtime::{run, PreemptMech, RuntimeConfig, ServiceSource, WorkloadSpec};
use libpreemptible::sched::SchedPolicy;

use crate::common::Scale;
use crate::runner;

/// One measured colocation point.
#[derive(Debug, Clone, PartialEq)]
pub struct ColocPoint {
    /// Scheduler label.
    pub scheduler: String,
    /// Offered load, kRPS.
    pub krps: f64,
    /// LC (MICA) p99, us.
    pub lc_p99_us: f64,
    /// LC median, us.
    pub lc_median_us: f64,
    /// BE (zlib) p99, us.
    pub be_p99_us: f64,
}

fn run_point(
    policy: Box<dyn SchedPolicy>,
    label: String,
    mech: PreemptMech,
    rate: f64,
    scale: Scale,
    seed: u64,
) -> ColocPoint {
    let duration = scale.point_duration() * 2;
    let spec = WorkloadSpec {
        source: ServiceSource::Colocated(ColocatedWorkload::paper_config()),
        arrivals: RateSchedule::Constant(rate),
        duration,
        warmup: scale.warmup(),
    };
    // §V-C measures the colocation "on a single core": one worker
    // (plus the timer core for the preemptive configurations).
    let cfg = RuntimeConfig {
        workers: 1,
        mech,
        seed,
        ..RuntimeConfig::default()
    };
    let r = run(cfg, policy, spec);
    debug_assert!(r.is_conserved());
    let lc = r.class_latency(0);
    let be = r.class_latency(1);
    ColocPoint {
        scheduler: label,
        krps: rate / 1_000.0,
        lc_p99_us: lc.p99() as f64 / 1_000.0,
        lc_median_us: lc.median() as f64 / 1_000.0,
        be_p99_us: be.p99() as f64 / 1_000.0,
    }
}

/// Fig. 13 (left): load sweep at a fixed 30 us quantum vs
/// non-preemptive.
pub fn run_left(scale: Scale, seed: u64) -> Vec<ColocPoint> {
    let loads_krps: &[f64] = match scale {
        Scale::Quick => &[25.0, 55.0],
        Scale::Full => &[15.0, 25.0, 35.0, 45.0, 55.0],
    };
    // Per load: the preemptive run then the non-preemptive baseline.
    // Policies are built inside the closure (trait objects are not
    // shareable across the pool); points fan out in submission order.
    let points: Vec<(f64, bool)> = loads_krps
        .iter()
        .flat_map(|&k| [(k, true), (k, false)])
        .collect();
    runner::map_points("fig13-left", &points, |_, &(k, preemptive)| {
        if preemptive {
            run_point(
                Box::new(Fifo::new(SimDur::micros(30))),
                "LC-Lib (q=30us)".into(),
                PreemptMech::Uintr,
                k * 1_000.0,
                scale,
                seed,
            )
        } else {
            run_point(
                Box::new(Fifo::new(SimDur::MAX)),
                "LC-Base (no preemption)".into(),
                PreemptMech::None,
                k * 1_000.0,
                scale,
                seed,
            )
        }
    })
}

/// Fig. 13 (right): quantum sweep at 55 kRPS.
pub fn run_right(scale: Scale, seed: u64) -> Vec<ColocPoint> {
    let quanta_us: &[u64] = match scale {
        Scale::Quick => &[5, 30],
        Scale::Full => &[5, 10, 20, 30, 50],
    };
    // `None` = the non-preemptive baseline (first row), `Some(q)` = the
    // quantum sweep; the whole panel fans out as one batch.
    let points: Vec<Option<u64>> = std::iter::once(None)
        .chain(quanta_us.iter().map(|&q| Some(q)))
        .collect();
    runner::map_points("fig13-right", &points, |_, &q| match q {
        None => run_point(
            Box::new(Fifo::new(SimDur::MAX)),
            "no preemption".into(),
            PreemptMech::None,
            55_000.0,
            scale,
            seed,
        ),
        Some(q) => run_point(
            // LC requests are ~1us; never preempted.
            Box::new(ClassQuantum::new(SimDur::MAX, SimDur::micros(q))),
            format!("preemptive q={q}us"),
            PreemptMech::Uintr,
            55_000.0,
            scale,
            seed,
        ),
    })
}

/// Renders a panel.
pub fn table(points: &[ColocPoint], title: &str) -> Table {
    let mut t = Table::new(&[
        "scheduler",
        "load (kRPS)",
        "LC median (us)",
        "LC p99 (us)",
        "BE p99 (us)",
    ])
    .with_title(title);
    for p in points {
        t.row(&[
            p.scheduler.clone(),
            format!("{:.0}", p.krps),
            format!("{:.1}", p.lc_median_us),
            format!("{:.1}", p.lc_p99_us),
            format!("{:.1}", p.be_p99_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preemption_crushes_lc_tail_at_55krps() {
        let pts = run_left(Scale::Quick, 23);
        let lib = pts
            .iter()
            .find(|p| p.scheduler.contains("LC-Lib") && (p.krps - 55.0).abs() < 1e-9)
            .unwrap();
        let base = pts
            .iter()
            .find(|p| p.scheduler.contains("LC-Base") && (p.krps - 55.0).abs() < 1e-9)
            .unwrap();
        // Fig 13: 3.2-4.4x better LC p99 with the 30us quantum.
        assert!(
            base.lc_p99_us > 2.0 * lib.lc_p99_us,
            "base {} vs lib {}",
            base.lc_p99_us,
            lib.lc_p99_us
        );
    }

    #[test]
    fn smaller_quantum_trades_lc_tail_for_be_latency() {
        let pts = run_right(Scale::Quick, 23);
        let at = |label: &str| pts.iter().find(|p| p.scheduler.contains(label)).unwrap();
        let none = at("no preemption");
        let q5 = at("q=5us");
        let q30 = at("q=30us");
        // LC tail: q5 < q30 < none.
        assert!(
            q5.lc_p99_us < q30.lc_p99_us,
            "{} vs {}",
            q5.lc_p99_us,
            q30.lc_p99_us
        );
        assert!(q30.lc_p99_us < none.lc_p99_us);
        // BE cost: q5 taxes zlib more than q30.
        assert!(
            q5.be_p99_us > q30.be_p99_us,
            "BE q5 {} vs q30 {}",
            q5.be_p99_us,
            q30.be_p99_us
        );
        // Headline scale: with a 5us quantum the LC tail lands near
        // the paper's ~8us (we accept < 15us on quick scale).
        assert!(q5.lc_p99_us < 15.0, "q5 LC p99 = {}", q5.lc_p99_us);
    }
}
