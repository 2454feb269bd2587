//! Table IV — overhead of IPC / event-notification mechanisms.
//!
//! Reproduces the 1M-iteration ping-pong microbenchmark: per-message
//! latency (avg/min/std) and achievable message rate for signal, mq,
//! pipe, eventFD, uintrFd (running) and uintrFd (blocked).

use lp_kernel::{IpcLatency, IpcMechanism};
use lp_sim::rng::rng;
use lp_stats::Table;

use crate::common::Scale;

/// Measured row for one mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct IpcRow {
    /// Mechanism name as in the paper.
    pub mechanism: &'static str,
    /// Mean per-message latency, us.
    pub avg_us: f64,
    /// Minimum observed latency, us.
    pub min_us: f64,
    /// Standard deviation, us.
    pub std_us: f64,
    /// Sustainable message rate, messages/second.
    pub rate_msg_s: f64,
}

/// Runs the ping-pong benchmark for every mechanism.
pub fn run(scale: Scale) -> Vec<IpcRow> {
    let lat = IpcLatency::default();
    let iters = scale.samples();
    IpcMechanism::ALL
        .iter()
        .map(|&mech| {
            let mut r = rng(0x1Cu64 + mech as u64, 11);
            let mut min = f64::INFINITY;
            let mut sum = 0.0;
            let mut sumsq = 0.0;
            for _ in 0..iters {
                let us = lat.sample(mech, &mut r).as_micros_f64();
                min = min.min(us);
                sum += us;
                sumsq += us * us;
            }
            let n = iters as f64;
            let avg = sum / n;
            let var = (sumsq / n - avg * avg).max(0.0);
            let per_iter = avg + lat.pingpong_iteration_overhead(mech).as_micros_f64();
            IpcRow {
                mechanism: mech.name(),
                avg_us: avg,
                min_us: min,
                std_us: var.sqrt(),
                rate_msg_s: 1e6 / per_iter,
            }
        })
        .collect()
}

/// Renders the rows as the paper's Table IV.
pub fn table(rows: &[IpcRow]) -> Table {
    let mut t = Table::new(&[
        "IPC Mechanism",
        "avg (us)",
        "min (us)",
        "std (us)",
        "rate (msg/s)",
    ])
    .with_title("Table IV: overhead of different IPC mechanisms");
    for r in rows {
        t.row(&[
            r.mechanism.to_string(),
            format!("{:.3}", r.avg_us),
            format!("{:.3}", r.min_us),
            format!("{:.3}", r.std_us),
            format!("{:.0}", r.rate_msg_s),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rows: &'a [IpcRow], name: &str) -> &'a IpcRow {
        rows.iter().find(|r| r.mechanism == name).expect("row")
    }

    #[test]
    fn reproduces_table_iv_shape() {
        let rows = run(Scale::Quick);
        assert_eq!(rows.len(), 6);
        let uintr = row(&rows, "uintrFd");
        let blocked = row(&rows, "uintrFd (blocked)");
        let mq = row(&rows, "mq");
        let signal = row(&rows, "signal");
        // Headline: uintrFd ~10x the fastest software mechanism (mq).
        assert!(mq.avg_us / uintr.avg_us > 8.0);
        // Running beats blocked.
        assert!(uintr.avg_us < blocked.avg_us);
        // Calibrated anchors within 10%.
        assert!(
            (signal.avg_us - 15.325).abs() / 15.325 < 0.1,
            "{}",
            signal.avg_us
        );
        assert!(
            (uintr.avg_us - 0.734).abs() / 0.734 < 0.25,
            "{}",
            uintr.avg_us
        );
        // Rates: uintr near the paper's 857k msg/s.
        assert!(
            (uintr.rate_msg_s - 857_009.0).abs() / 857_009.0 < 0.25,
            "{}",
            uintr.rate_msg_s
        );
        // The blocked path still beats every kernel mechanism's rate.
        assert!(blocked.rate_msg_s > mq.rate_msg_s);
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = run(Scale::Quick);
        let t = table(&rows);
        assert_eq!(t.len(), 6);
        assert!(t.render().contains("uintrFd (blocked)"));
    }
}
