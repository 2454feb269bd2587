//! Log-bucketed latency histogram (HDR-histogram style).
//!
//! Latency experiments in the paper record millions of samples and read
//! off medians and high percentiles (p99, p99.9). Storing every sample is
//! wasteful; instead we bucket values with a bounded *relative* error:
//! each power-of-two range is split into `1 << precision_bits` linear
//! sub-buckets, so any recorded value is reproduced within
//! `2^-precision_bits` relative error (default: 1/128 < 1%).

/// Default sub-bucket precision: values quantized within 1/128 (< 1%).
pub const DEFAULT_PRECISION_BITS: u32 = 7;

/// A latency histogram with bounded relative error and exact min/max/sum.
///
/// Values are `u64` (the reproduction uses nanoseconds).
///
/// ```
/// use lp_stats::Histogram;
/// let mut h = Histogram::new();
/// for v in [100, 200, 300, 400, 1_000_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), 100);
/// assert_eq!(h.max(), 1_000_000);
/// let p50 = h.quantile(0.5);
/// assert!((p50 as f64 - 300.0).abs() / 300.0 < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    precision_bits: u32,
    /// counts, indexed by bucket index (see `index_of`).
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a histogram with the default ~1% relative precision.
    pub fn new() -> Self {
        Self::with_precision(DEFAULT_PRECISION_BITS)
    }

    /// Creates a histogram with `2^-precision_bits` relative precision.
    ///
    /// # Panics
    ///
    /// Panics if `precision_bits` is 0 or greater than 16.
    fn with_precision(precision_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&precision_bits),
            "precision_bits must be in 1..=16"
        );
        Histogram {
            precision_bits,
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn sub_buckets(&self) -> u64 {
        1u64 << self.precision_bits
    }

    /// Bucket index of `value`.
    ///
    /// Values below `sub_buckets` get exact (identity) buckets; above
    /// that, each octave is split into `sub_buckets/2`... Standard HDR
    /// trick: index = (exp << bits) + mantissa-top-bits, where exp is the
    /// number of leading octaves beyond the linear range.
    fn index_of(&self, value: u64) -> usize {
        let sb = self.sub_buckets();
        if value < sb {
            return value as usize;
        }
        let bits = self.precision_bits;
        // Highest set bit position.
        let msb = 63 - value.leading_zeros() as u64;
        let exp = msb - bits as u64; // how many octaves past linear range
        let mantissa = (value >> exp) - sb; // in [0, sb)
        ((exp + 1) * sb + mantissa) as usize
    }

    /// Representative (midpoint) value of bucket `idx` — inverse of
    /// `index_of` up to quantization.
    fn value_of(&self, idx: usize) -> u64 {
        let sb = self.sub_buckets();
        let idx = idx as u64;
        if idx < sb {
            return idx;
        }
        let exp = idx / sb - 1;
        let mantissa = idx % sb;
        let lo = (mantissa + sb) << exp;
        let width = 1u64 << exp;
        lo + width / 2
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1)
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different precisions.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.precision_bits, other.precision_bits,
            "cannot merge histograms with different precisions"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Standard deviation approximated from bucket midpoints.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let mut var = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                let d = self.value_of(i) as f64 - mean;
                var += d * d * c as f64;
            }
        }
        (var / self.count as f64).sqrt()
    }

    /// Value at quantile `q` in `[0, 1]` (within the relative precision).
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max();
        }
        // Rank of the target sample (1-based ceil, nearest-rank method).
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the bucket representative to the exact extremes so
                // single-bucket distributions report exact values.
                return self.value_of(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Convenience: median.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Convenience: 99th percentile, the paper's headline tail metric.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Convenience: 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Number of samples at or below `value`.
    pub fn count_at_or_below(&self, value: u64) -> u64 {
        let idx = self.index_of(value);
        self.counts.iter().take(idx + 1).sum()
    }

    /// Fraction of samples strictly above `value` (e.g. SLO violations).
    pub fn frac_above(&self, value: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        1.0 - self.count_at_or_below(value) as f64 / self.count as f64
    }

    /// Iterates over `(bucket_midpoint, count)` pairs for non-empty
    /// buckets, in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.value_of(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..100 {
            h.record(v);
        }
        // All below sub_buckets=128, so identity buckets. Nearest-rank
        // p50 of 0..100 is the 50th smallest, i.e. 49.
        assert_eq!(h.quantile(0.5), 49);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 99);
        assert_eq!(h.mean(), 49.5);
    }

    #[test]
    fn large_values_within_relative_error() {
        let mut h = Histogram::new();
        let vals = [1_000u64, 10_000, 100_000, 1_000_000, 10_000_000];
        for &v in &vals {
            h.record(v);
        }
        for (q, expect) in [
            (0.2, 1_000u64),
            (0.4, 10_000),
            (0.6, 100_000),
            (0.8, 1_000_000),
        ] {
            let got = h.quantile(q);
            let rel = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(rel < 0.01, "q={q}: got {got}, want ~{expect}");
        }
    }

    #[test]
    fn quantile_extremes_are_exact() {
        let mut h = Histogram::new();
        h.record(123_456);
        h.record(789_012);
        assert_eq!(h.quantile(0.0), 123_456);
        assert_eq!(h.quantile(1.0), 789_012);
    }

    #[test]
    fn record_n_and_merge() {
        let mut a = Histogram::new();
        a.record_n(500, 10);
        let mut b = Histogram::new();
        b.record_n(5_000, 30);
        a.merge(&b);
        assert_eq!(a.count(), 40);
        assert_eq!(a.min(), 500);
        // 10 samples at 500, 30 at 5000 -> p50 lands on 5000.
        let p50 = a.quantile(0.5);
        assert!((p50 as f64 - 5_000.0).abs() / 5_000.0 < 0.01);
        let mean = a.mean();
        assert!((mean - (500.0 * 10.0 + 5_000.0 * 30.0) / 40.0).abs() < 1e-9);
    }

    #[test]
    fn frac_above_slo() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        assert!((h.frac_above(50_000) - 0.01).abs() < 1e-9);
        assert_eq!(h.frac_above(2_000_000), 0.0);
    }

    #[test]
    fn p99_with_bimodal_tail() {
        let mut h = Histogram::new();
        // 99.5% at 500ns, 0.5% at 500us: workload A1's shape.
        h.record_n(500, 995);
        h.record_n(500_000, 5);
        let p99 = h.p99();
        assert!(p99 < 1_000, "p99 should be in the short mode, got {p99}");
        let p999 = h.p999();
        let rel = (p999 as f64 - 500_000.0).abs() / 500_000.0;
        assert!(rel < 0.01, "p99.9 should be in the tail, got {p999}");
    }

    #[test]
    fn zero_value_is_recordable() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn stddev_reasonable() {
        let mut h = Histogram::new();
        h.record_n(100, 50);
        h.record_n(300, 50);
        // exact stddev is 100
        assert!((h.stddev() - 100.0).abs() < 3.0);
    }

    #[test]
    #[should_panic(expected = "different precisions")]
    fn merge_mismatched_precision_panics() {
        let mut a = Histogram::with_precision(7);
        let b = Histogram::with_precision(8);
        a.merge(&b);
    }

    #[test]
    fn index_value_roundtrip_error_bounded() {
        let h = Histogram::new();
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let idx = h.index_of(v);
            let back = h.value_of(idx);
            let rel = (back as f64 - v as f64).abs() / v as f64;
            assert!(rel <= 1.0 / 128.0 + 1e-12, "v={v} back={back} rel={rel}");
            v = v * 3 / 2 + 1;
        }
    }
}
