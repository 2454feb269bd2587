//! Empirical (trace-driven) service distributions.
//!
//! Production service times rarely match a textbook law; operators
//! have histograms. [`EmpiricalDist`] resamples from recorded service
//! times (bootstrap), so any measured workload can drive the runtime
//! and the experiments — the escape hatch the paper's "past request
//! information in a generic form" abstraction implies.

use lp_sim::SimDur;
use rand::rngs::SmallRng;
use rand::Rng;

/// A service-time distribution resampled from recorded observations.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalDist {
    samples_ns: Vec<u64>,
    mean_ns: f64,
}

impl EmpiricalDist {
    /// Builds a distribution from recorded service times.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains a zero (a request must
    /// represent work).
    pub fn new(samples: Vec<SimDur>) -> Self {
        assert!(!samples.is_empty(), "empirical distribution needs samples");
        let samples_ns: Vec<u64> = samples.iter().map(|d| d.as_nanos()).collect();
        assert!(
            samples_ns.iter().all(|&s| s > 0),
            "zero-length service time in trace"
        );
        let mean_ns = samples_ns.iter().map(|&s| s as f64).sum::<f64>() / samples_ns.len() as f64;
        EmpiricalDist {
            samples_ns,
            mean_ns,
        }
    }

    /// Parses one service time per line (fractional microseconds),
    /// skipping blanks and `#` comments — the format of a typical
    /// exported latency column.
    ///
    /// # Errors
    ///
    /// Returns the offending line on parse failure.
    pub fn from_us_lines(text: &str) -> Result<Self, String> {
        let mut samples = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let us: f64 = line
                .parse()
                .map_err(|_| format!("bad service-time line: {line:?}"))?;
            if us.is_nan() || us <= 0.0 {
                return Err(format!("non-positive service time: {line:?}"));
            }
            samples.push(SimDur::from_micros_f64(us).max(SimDur::nanos(1)));
        }
        if samples.is_empty() {
            return Err("trace contained no samples".to_string());
        }
        Ok(Self::new(samples))
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// `true` is impossible by construction, provided for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    /// Bootstrap-resamples one service time.
    pub fn sample(&self, rng: &mut SmallRng) -> SimDur {
        let i = rng.gen_range(0..self.samples_ns.len());
        SimDur::nanos(self.samples_ns[i])
    }

    /// The trace's mean service time.
    pub fn mean(&self) -> SimDur {
        SimDur::nanos(self.mean_ns.round() as u64)
    }

    /// Squared coefficient of variation of the trace.
    pub fn scv(&self) -> f64 {
        if self.samples_ns.len() < 2 || self.mean_ns == 0.0 {
            return 0.0;
        }
        let var = self
            .samples_ns
            .iter()
            .map(|&s| {
                let d = s as f64 - self.mean_ns;
                d * d
            })
            .sum::<f64>()
            / self.samples_ns.len() as f64;
        var / (self.mean_ns * self.mean_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::rng::rng;

    #[test]
    fn resamples_only_observed_values() {
        let d = EmpiricalDist::new(vec![
            SimDur::micros(1),
            SimDur::micros(10),
            SimDur::micros(100),
        ]);
        let mut r = rng(1, 0);
        for _ in 0..1_000 {
            let s = d.sample(&mut r).as_micros_f64();
            assert!(s == 1.0 || s == 10.0 || s == 100.0, "unexpected {s}");
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.mean(), SimDur::micros(37));
    }

    #[test]
    fn bootstrap_mean_converges() {
        let d = EmpiricalDist::new(vec![SimDur::micros(2), SimDur::micros(8)]);
        let mut r = rng(2, 0);
        let n = 100_000;
        let mean = (0..n)
            .map(|_| d.sample(&mut r).as_micros_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn parses_lines() {
        let d = EmpiricalDist::from_us_lines("# header\n1.5\n\n0.5\n500\n").unwrap();
        assert_eq!(d.len(), 3);
        assert!(d.scv() > 1.0, "trace with a 500us outlier is dispersive");
    }

    #[test]
    fn rejects_garbage() {
        assert!(EmpiricalDist::from_us_lines("abc").is_err());
        assert!(EmpiricalDist::from_us_lines("-1.0").is_err());
        assert!(EmpiricalDist::from_us_lines("# only comments\n").is_err());
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_panics() {
        EmpiricalDist::new(vec![]);
    }
}
