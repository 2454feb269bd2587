//! Time-series recording and windowed statistics.
//!
//! The paper's Figs. 9 and 14 plot quantities over wall-clock time
//! (measured QPS, average LC/BE latency, the controller's chosen
//! quantum). [`TimeSeries`] buckets scalar observations into fixed
//! frames; [`WindowStats`] is the sliding window of request statistics
//! the user-level scheduler feeds to the adaptive controller ("the set of
//! metrics (Stats) collected from the previous requests over a given time
//! window").

use crate::histogram::Histogram;

/// Scalar observations bucketed into fixed-width time frames.
///
/// ```
/// use lp_stats::TimeSeries;
/// let mut ts = TimeSeries::new(1_000); // 1 us frames
/// ts.record(100, 5.0);
/// ts.record(200, 7.0);
/// ts.record(1_500, 1.0);
/// let frames = ts.frames();
/// assert_eq!(frames.len(), 2);
/// assert_eq!(frames[0].mean(), 6.0);
/// assert_eq!(frames[1].count, 1);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    frame_width: u64,
    frames: Vec<Frame>,
}

/// Aggregate of one time frame.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    /// Frame start time (inclusive), in the series' time unit.
    pub start: u64,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Maximum observation (0 when empty).
    pub max: f64,
    /// Minimum observation (0 when empty).
    pub min: f64,
}

impl Frame {
    /// Mean of the frame's observations, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl TimeSeries {
    /// Creates a series with `frame_width`-wide buckets (same unit as the
    /// timestamps passed to [`record`](Self::record)).
    ///
    /// # Panics
    ///
    /// Panics if `frame_width` is 0.
    pub fn new(frame_width: u64) -> Self {
        assert!(frame_width > 0, "frame_width must be positive");
        TimeSeries {
            frame_width,
            frames: Vec::new(),
        }
    }

    /// Records observation `value` at `time`.
    pub fn record(&mut self, time: u64, value: f64) {
        let idx = (time / self.frame_width) as usize;
        if idx >= self.frames.len() {
            let old_len = self.frames.len();
            self.frames.resize_with(idx + 1, Frame::default);
            for (i, f) in self.frames.iter_mut().enumerate().skip(old_len) {
                f.start = i as u64 * self.frame_width;
            }
        }
        let f = &mut self.frames[idx];
        if f.count == 0 {
            f.min = value;
            f.max = value;
        } else {
            f.min = f.min.min(value);
            f.max = f.max.max(value);
        }
        f.count += 1;
        f.sum += value;
    }

    /// All frames from time zero through the last recorded observation.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }
}

/// Sliding window of request metrics for the adaptive controller.
///
/// Mirrors the paper's `Stats` component: per control period the
/// scheduler reads the request load μ, median and tail latencies, and
/// queue lengths, then resets the window. Latencies are recorded in
/// nanoseconds.
#[derive(Debug, Clone)]
pub struct WindowStats {
    latency: Histogram,
    /// Completed requests this window.
    completed: u64,
    /// Arrived requests this window.
    arrived: u64,
    /// Sum of sampled queue lengths.
    qlen_sum: u64,
    /// Number of queue-length samples.
    qlen_samples: u64,
    /// Window start, ns.
    window_start: u64,
    /// Sum of observed service times (ns) of completed requests.
    service_sum: f64,
    /// Sum of squared service times (ns²).
    service_sumsq: f64,
    /// Number of service samples.
    service_n: u64,
}

impl Default for WindowStats {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowStats {
    /// Creates an empty window starting at time 0.
    pub fn new() -> Self {
        WindowStats {
            latency: Histogram::new(),
            completed: 0,
            arrived: 0,
            qlen_sum: 0,
            qlen_samples: 0,
            window_start: 0,
            service_sum: 0.0,
            service_sumsq: 0.0,
            service_n: 0,
        }
    }

    /// Records a request arrival.
    pub fn on_arrival(&mut self) {
        self.arrived += 1;
    }

    /// Records a completed request with end-to-end latency `ns`.
    pub fn on_completion(&mut self, latency_ns: u64) {
        self.completed += 1;
        self.latency.record(latency_ns);
    }

    /// Records the *service time* a completed request actually
    /// executed for. The runtime measures this per function, so the
    /// controller can judge workload dispersion independently of how
    /// well scheduling is currently hiding it.
    pub fn on_service_sample(&mut self, service_ns: u64) {
        let x = service_ns as f64;
        self.service_sum += x;
        self.service_sumsq += x * x;
        self.service_n += 1;
    }

    /// Records an observed queue length.
    pub fn on_queue_sample(&mut self, qlen: usize) {
        self.qlen_sum += qlen as u64;
        self.qlen_samples += 1;
    }

    /// Produces the window summary for the controller and resets the
    /// window to start at `now_ns`.
    pub fn roll(&mut self, now_ns: u64) -> WindowSummary {
        let span_ns = now_ns.saturating_sub(self.window_start).max(1);
        let service_scv = if self.service_n >= 2 {
            let n = self.service_n as f64;
            let mean = self.service_sum / n;
            let var = (self.service_sumsq / n - mean * mean).max(0.0);
            if mean > 0.0 {
                var / (mean * mean)
            } else {
                0.0
            }
        } else {
            0.0
        };
        let summary = WindowSummary {
            load_rps: self.arrived as f64 * 1e9 / span_ns as f64,
            throughput_rps: self.completed as f64 * 1e9 / span_ns as f64,
            median_ns: self.latency.median(),
            p99_ns: self.latency.p99(),
            mean_qlen: if self.qlen_samples == 0 {
                0.0
            } else {
                self.qlen_sum as f64 / self.qlen_samples as f64
            },
            completed: self.completed,
            arrived: self.arrived,
            service_scv,
        };
        *self = WindowStats::new();
        self.window_start = now_ns;
        summary
    }
}

/// One control-period summary handed to the adaptive quantum controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Offered load (arrivals per second), the paper's μ.
    pub load_rps: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median end-to-end latency, ns.
    pub median_ns: u64,
    /// 99th-percentile end-to-end latency, ns.
    pub p99_ns: u64,
    /// Mean sampled local-queue length, the paper's Q_len.
    pub mean_qlen: f64,
    /// Requests completed in the window.
    pub completed: u64,
    /// Requests arrived in the window.
    pub arrived: u64,
    /// Squared coefficient of variation of observed *service times*
    /// (0.0 when fewer than two samples). Exponential ≈ 1; the paper's
    /// bimodal workloads ≫ 1.
    pub service_scv: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeseries_buckets_by_frame() {
        let mut ts = TimeSeries::new(10);
        ts.record(0, 1.0);
        ts.record(9, 3.0);
        ts.record(10, 5.0);
        ts.record(35, 7.0);
        let f = ts.frames();
        assert_eq!(f.len(), 4);
        assert_eq!(f[0].count, 2);
        assert_eq!(f[0].mean(), 2.0);
        assert_eq!(f[0].min, 1.0);
        assert_eq!(f[0].max, 3.0);
        assert_eq!(f[1].count, 1);
        assert_eq!(f[2].count, 0); // gap frame exists with start set
        assert_eq!(f[2].start, 20);
        assert_eq!(f[3].count, 1);
        assert_eq!(f[3].start, 30);
    }

    #[test]
    #[should_panic(expected = "frame_width must be positive")]
    fn zero_frame_width_panics() {
        TimeSeries::new(0);
    }

    #[test]
    fn window_roll_computes_rates() {
        let mut w = WindowStats::new();
        for _ in 0..100 {
            w.on_arrival();
        }
        for i in 0..80 {
            w.on_completion(1_000 + i);
        }
        w.on_queue_sample(4);
        w.on_queue_sample(6);
        // 1 ms window.
        let s = w.roll(1_000_000);
        assert!((s.load_rps - 100_000.0).abs() < 1.0);
        assert!((s.throughput_rps - 80_000.0).abs() < 1.0);
        assert_eq!(s.mean_qlen, 5.0);
        assert_eq!(s.arrived, 100);
        assert_eq!(s.completed, 80);
        assert!(s.median_ns >= 1_000);

        // Window reset: next roll sees nothing.
        let s2 = w.roll(2_000_000);
        assert_eq!(s2.arrived, 0);
        assert_eq!(s2.completed, 0);
        assert_eq!(s2.median_ns, 0);
    }

    #[test]
    fn window_roll_empty_is_safe() {
        let mut w = WindowStats::new();
        let s = w.roll(0);
        assert_eq!(s.load_rps, 0.0);
        assert_eq!(s.mean_qlen, 0.0);
    }
}
