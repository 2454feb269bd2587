//! Fig. 12 — precision of LibUtimer vs a periodic kernel timer.
//!
//! 5000 consecutive inter-handler gaps at target quanta of 100 us and
//! 20 us, with 26 threads of background stress. The kernel timer cannot
//! track 20 us (it floors near 60 us and wobbles); LibUtimer holds ~1%
//! relative error at both targets.

use lp_kernel::{KernelCosts, KernelTimer};
use lp_sim::rng::rng;
use lp_sim::SimDur;
use lp_stats::Table;

use lp_hw::HwCosts;

use crate::common::Scale;
use crate::runner;

/// Summary of one timer × target cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionRow {
    /// Timer implementation.
    pub timer: &'static str,
    /// Requested period, us.
    pub target_us: f64,
    /// Mean observed inter-handler gap, us.
    pub mean_us: f64,
    /// Standard deviation of the gap, us.
    pub std_us: f64,
    /// Mean relative error vs the target.
    pub rel_err: f64,
}

/// Samples `n` inter-handler gaps for the kernel timer.
///
/// A periodic timer re-arms from each actual expiry, so the gap
/// between consecutive handler invocations is simply the actual period
/// the kernel delivered (floor + slack + noise).
fn kernel_gaps(target: SimDur, n: usize, seed: u64) -> Vec<f64> {
    let mut t = KernelTimer::new(KernelCosts::default(), rng(seed, 21));
    t.arm(target);
    (0..n).map(|_| t.sample_expiry().as_micros_f64()).collect()
}

/// Samples `n` inter-handler gaps for LibUtimer under background
/// stress.
fn utimer_gaps(target: SimDur, n: usize, seed: u64) -> Vec<f64> {
    let hw = HwCosts::default();
    let mut r = rng(seed, 22);
    // Each gap = target +- (poll quantization + delivery jitter). The
    // stress-ng background (IRQs, TLB shootdowns) adds rare small
    // spikes; §V-B reports preciseness is not significantly impacted.
    (0..n)
        .map(|_| {
            let poll = lp_hw::jitter::sample(&mut r, hw.poll_loop, 0.5).as_micros_f64();
            let deliver =
                lp_hw::jitter::sample(&mut r, hw.uintr_delivery_running, hw.jitter_sigma * 2.0)
                    .as_micros_f64();
            // Jitter between consecutive handlers is the *difference*
            // of two delivery latencies plus poll quantization; model
            // as centered noise at that scale.
            let noise = (poll + deliver) * 0.5;
            let sign = if lp_hw::jitter::standard_normal(&mut r) > 0.0 {
                1.0
            } else {
                -1.0
            };
            (target.as_micros_f64() + sign * noise).max(0.0)
        })
        .collect()
}

fn summarize(timer: &'static str, target: SimDur, gaps: &[f64]) -> PrecisionRow {
    let n = gaps.len() as f64;
    let mean = gaps.iter().sum::<f64>() / n;
    let var = gaps.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let tgt = target.as_micros_f64();
    let rel_err = gaps.iter().map(|x| (x - tgt).abs() / tgt).sum::<f64>() / n;
    PrecisionRow {
        timer,
        target_us: tgt,
        mean_us: mean,
        std_us: var.sqrt(),
        rel_err,
    }
}

/// Runs both timers at both targets.
pub fn run_fig12(scale: Scale, seed: u64) -> Vec<PrecisionRow> {
    let n = match scale {
        Scale::Quick => 1_000,
        Scale::Full => 5_000,
    };
    // Each (target, timer) cell samples its own independent RNG
    // substream, so the four cells fan out through the parallel runner.
    let cells: Vec<(SimDur, bool)> = [SimDur::micros(100), SimDur::micros(20)]
        .into_iter()
        .flat_map(|target| [(target, false), (target, true)])
        .collect();
    runner::map_points("fig12", &cells, |_, &(target, is_utimer)| {
        if is_utimer {
            summarize("LibUtimer", target, &utimer_gaps(target, n, seed))
        } else {
            summarize("kernel timer", target, &kernel_gaps(target, n, seed))
        }
    })
}

/// Renders the summary.
pub fn table(rows: &[PrecisionRow]) -> Table {
    let mut t = Table::new(&[
        "timer",
        "target (us)",
        "mean gap (us)",
        "std (us)",
        "mean rel err",
    ])
    .with_title("Fig 12: timer precision under background stress (5000 samples)");
    for r in rows {
        t.row(&[
            r.timer.to_string(),
            format!("{:.0}", r.target_us),
            format!("{:.2}", r.mean_us),
            format!("{:.2}", r.std_us),
            format!("{:.1}%", r.rel_err * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rows: &'a [PrecisionRow], timer: &str, target: f64) -> &'a PrecisionRow {
        rows.iter()
            .find(|r| r.timer == timer && (r.target_us - target).abs() < 1e-9)
            .expect("row")
    }

    #[test]
    fn kernel_timer_cannot_reach_20us() {
        let rows = run_fig12(Scale::Quick, 13);
        let k20 = row(&rows, "kernel timer", 20.0);
        // Fig 12: "which is why we see a line around 60us".
        assert!(
            (45.0..75.0).contains(&k20.mean_us),
            "kernel 20us target fires at {} us",
            k20.mean_us
        );
        assert!(k20.rel_err > 1.0, "rel err {}", k20.rel_err); // >100% off
    }

    #[test]
    fn utimer_holds_one_percent() {
        let rows = run_fig12(Scale::Quick, 13);
        for target in [100.0, 20.0] {
            let u = row(&rows, "LibUtimer", target);
            assert!(
                u.rel_err < 0.03,
                "LibUtimer rel err at {target}us = {}",
                u.rel_err
            );
            assert!((u.mean_us - target).abs() / target < 0.02);
        }
    }

    #[test]
    fn kernel_timer_jitters_more_than_utimer_at_100us() {
        let rows = run_fig12(Scale::Quick, 13);
        let k = row(&rows, "kernel timer", 100.0);
        let u = row(&rows, "LibUtimer", 100.0);
        assert!(
            k.std_us > 5.0 * u.std_us,
            "k {} vs u {}",
            k.std_us,
            u.std_us
        );
    }
}
