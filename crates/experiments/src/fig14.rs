//! Fig. 14 — bursty colocation: constant vs adaptive preemption
//! interval under a spiky QPS trace (40 → 110 kRPS).
//!
//! Three policies: constant 50 us (gentle on BE, slow on LC during
//! spikes), constant 10 us (fast LC, heavy BE tax), and the adaptive
//! controller bounded to [10, 50] us that follows the load.

use lp_sim::SimDur;
use lp_stats::Table;
use lp_workload::{ColocatedWorkload, RateSchedule};

use libpreemptible::adaptive::{AdaptiveConfig, QuantumController};
use libpreemptible::policies::{AdaptiveQuantum, Fifo};
use libpreemptible::report::RunReport;
use libpreemptible::runtime::{run, RuntimeConfig, ServiceSource, WorkloadSpec};
use libpreemptible::sched::SchedPolicy;

use crate::common::Scale;
use crate::runner;

/// Summary of one policy under the bursty trace.
#[derive(Debug)]
pub struct Fig14Row {
    /// Policy label.
    pub policy: String,
    /// Mean LC latency over the run, us.
    pub lc_mean_us: f64,
    /// Mean LC latency during spikes only, us.
    pub lc_spike_mean_us: f64,
    /// Mean BE latency during low load, us.
    pub be_low_mean_us: f64,
    /// Full report (time series for the three panels).
    pub report: RunReport,
}

/// The bursty schedule: base/spike per the paper's 40→110 kRPS trace.
fn bursty_schedule(scale: Scale) -> (RateSchedule, SimDur, SimDur) {
    // One cycle: base then spike; several cycles per run.
    let (base_for, spike_for) = match scale {
        Scale::Quick => (SimDur::millis(60), SimDur::millis(20)),
        Scale::Full => (SimDur::millis(600), SimDur::millis(200)),
    };
    (
        RateSchedule::Square {
            base_rps: 40_000.0,
            base_for,
            spike_rps: 110_000.0,
            spike_for,
        },
        base_for,
        spike_for,
    )
}

/// Runs the three policies on the bursty trace.
pub fn run_fig14(scale: Scale, seed: u64) -> Vec<Fig14Row> {
    let (schedule, base_for, spike_for) = bursty_schedule(scale);
    let cycle = base_for + spike_for;
    let duration = cycle * 4;
    let control_period = (cycle / 10).max(SimDur::millis(1));
    let frame = (cycle / 8).max(SimDur::millis(1));

    let mk_spec = || WorkloadSpec {
        source: ServiceSource::Colocated(ColocatedWorkload::paper_config()),
        arrivals: schedule.clone(),
        duration,
        warmup: SimDur::ZERO,
    };
    // Like Fig. 13, the colocation runs on a single worker core so the
    // 100 us BE chunks actually contend with the 1 us LC requests.
    let mk_cfg = || RuntimeConfig {
        workers: 1,
        seed,
        control_period,
        series_frame: Some(frame),
        ..RuntimeConfig::default()
    };

    // Three independent policy runs; controllers are stateful, so each
    // point constructs its own inside the closure and the trio fans out
    // through the parallel runner.
    let labels: [&'static str; 3] = ["constant 50us", "constant 10us", "adaptive [10,50]us"];
    runner::map_points("fig14", &labels, |id, &label| {
        let policy: Box<dyn SchedPolicy> = match id.index {
            0 => Box::new(Fifo::new(SimDur::micros(50))),
            1 => Box::new(Fifo::new(SimDur::micros(10))),
            _ => {
                let mut cfg = AdaptiveConfig::paper_defaults(110_000.0);
                cfg.period = control_period;
                cfg.t_min = SimDur::micros(10);
                cfg.t_max = SimDur::micros(50);
                cfg.k1 = SimDur::micros(10);
                cfg.k2 = SimDur::micros(10);
                cfg.k3 = SimDur::micros(10);
                Box::new(AdaptiveQuantum::new(QuantumController::new(
                    cfg,
                    SimDur::micros(50),
                )))
            }
        };
        let r = run(mk_cfg(), policy, mk_spec());
        // Split frames into spike/base windows by the schedule.
        let in_spike = |start_ns: u64| {
            let into = SimDur::nanos(start_ns) % cycle;
            into >= base_for
        };
        let (mut lc_sum, mut lc_n) = (0.0, 0u64);
        let (mut lc_spike_sum, mut lc_spike_n) = (0.0, 0u64);
        if let Some(lc) = r.latency_series.first() {
            for f in lc.frames() {
                lc_sum += f.sum;
                lc_n += f.count;
                if in_spike(f.start) {
                    lc_spike_sum += f.sum;
                    lc_spike_n += f.count;
                }
            }
        }
        let (mut be_low_sum, mut be_low_n) = (0.0, 0u64);
        if let Some(be) = r.latency_series.get(1) {
            for f in be.frames() {
                if !in_spike(f.start) {
                    be_low_sum += f.sum;
                    be_low_n += f.count;
                }
            }
        }
        Fig14Row {
            policy: label.to_string(),
            lc_mean_us: lc_sum / lc_n.max(1) as f64,
            lc_spike_mean_us: lc_spike_sum / lc_spike_n.max(1) as f64,
            be_low_mean_us: be_low_sum / be_low_n.max(1) as f64,
            report: r,
        }
    })
}

/// Renders the summary.
pub fn table(rows: &[Fig14Row]) -> Table {
    let mut t = Table::new(&[
        "policy",
        "LC mean (us)",
        "LC mean in spikes (us)",
        "BE mean at low load (us)",
    ])
    .with_title("Fig 14: bursty colocation, constant vs adaptive quantum");
    for r in rows {
        t.row(&[
            r.policy.clone(),
            format!("{:.1}", r.lc_mean_us),
            format!("{:.1}", r.lc_spike_mean_us),
            format!("{:.1}", r.be_low_mean_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_gets_best_of_both() {
        let rows = run_fig14(Scale::Quick, 31);
        let at = |label: &str| rows.iter().find(|r| r.policy.contains(label)).unwrap();
        let c50 = at("constant 50us");
        let c10 = at("constant 10us");
        let ad = at("adaptive");
        // 10us keeps LC lower than 50us during spikes.
        assert!(
            c10.lc_spike_mean_us < c50.lc_spike_mean_us,
            "c10 {} vs c50 {}",
            c10.lc_spike_mean_us,
            c50.lc_spike_mean_us
        );
        // Adaptive's LC in spikes tracks the aggressive policy (within
        // 2.5x), while staying gentler than c10 on BE at low load.
        assert!(
            ad.lc_spike_mean_us < 2.5 * c10.lc_spike_mean_us,
            "adaptive spike LC {} vs c10 {}",
            ad.lc_spike_mean_us,
            c10.lc_spike_mean_us
        );
        assert!(
            ad.be_low_mean_us <= c10.be_low_mean_us * 1.05,
            "adaptive BE {} vs c10 BE {}",
            ad.be_low_mean_us,
            c10.be_low_mean_us
        );
    }

    #[test]
    fn qps_series_shows_spikes() {
        let rows = run_fig14(Scale::Quick, 31);
        let qps = rows[0].report.qps_series.as_ref().expect("series");
        let counts: Vec<u64> = qps.frames().iter().map(|f| f.count).collect();
        let max = *counts.iter().max().unwrap();
        let min = counts.iter().copied().filter(|&c| c > 0).min().unwrap();
        assert!(
            max as f64 > 1.8 * min as f64,
            "no visible spike: {min}..{max}"
        );
        assert_eq!(table(&rows).len(), 3);
    }
}
