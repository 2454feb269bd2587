//! The benchmark's own arithmetic: order statistics, paired-ablation
//! shares, and the counter sums derived from run reports. Pure
//! functions, so the unit tests below pin every definition.

/// Nearest-rank percentile of `sorted` (ascending): the smallest value
/// with at least `p`% of the samples at or below it. `p` is clamped to
/// `[0, 100]`; an empty slice yields `None`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The highest of the p50/p75/p90/p99 percentiles that has at least
/// ten of `n` samples beyond it (p50 when none has).
pub fn tail_percentile(n: usize) -> f64 {
    [99, 90, 75]
        .into_iter()
        .find(|p| n * (100 - p) >= 1_000)
        .unwrap_or(50) as f64
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads reported here match one computed from the
/// printed numbers. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the spread measure
/// the benchmark's bounds are checked against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

/// Summary of an interleaved A/B ablation: the share of the "with"
/// arm's host time that the ablated feature costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Share {
    /// Median of the per-pair shares.
    pub median: f64,
    /// First quartile of the per-pair shares.
    pub q1: f64,
    /// Third quartile of the per-pair shares.
    pub q3: f64,
    /// Number of pairs.
    pub pairs: usize,
}

impl Share {
    /// The value reported when an ablation does not apply to a
    /// workload: zero pairs, zero share.
    pub const NONE: Share = Share {
        median: 0.0,
        q1: 0.0,
        q3: 0.0,
        pairs: 0,
    };

    /// Folds `(with_secs, without_secs)` pairs into a share. Each pair
    /// contributes `(with - without) / with`, the fraction of the
    /// feature-on run the feature accounts for; the summary is the
    /// median of those per-pair ratios with their quartiles. Pairs
    /// with a non-positive "with" time are skipped.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Share {
        let ratios: Vec<f64> = pairs
            .iter()
            .filter(|(with, _)| *with > 0.0)
            .map(|(with, without)| (with - without) / with)
            .collect();
        let Some(median) = median(&ratios) else {
            return Share::NONE;
        };
        let (q1, q3) = quartiles(&ratios).unwrap_or((median, median));
        Share {
            median,
            q1,
            q3,
            pairs: ratios.len(),
        }
    }
}

/// Whether pair `i` of an interleaved ablation runs the "with" arm
/// first. Consecutive pairs alternate (A B, B A, A B, ...), so the two
/// arms see the same average position in time: the ABBA order.
pub fn with_first(i: usize) -> bool {
    i.is_multiple_of(2)
}

/// Sum of the event counters of a metrics snapshot: every counter
/// except the `core_*_ns` time accumulators, which count nanoseconds
/// rather than events.
pub fn event_count<'a>(counters: impl IntoIterator<Item = (&'a str, u64)>) -> u64 {
    counters
        .into_iter()
        .filter(|(name, _)| !(name.starts_with("core_") && name.ends_with("_ns")))
        .map(|(_, v)| v)
        .sum()
}

/// Numerator of `sim_miss_ratio`: requests that missed the SLO. A
/// completion above the SLO is a miss; so is every dropped request
/// (pool exhaustion or an admission shed) and every request still in
/// flight when the run ended.
pub fn misses(completed_above_slo: u64, dropped: u64, in_flight: u64) -> u64 {
    completed_above_slo + dropped + in_flight
}

/// `num / den`, or 0 when the denominator is 0 (a ratio of counts
/// that never occurred on this workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&v, 5.0), Some(15.0));
        assert_eq!(nearest_rank(&v, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(15.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&hundred, 99.5), Some(100.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_iqr(&ten).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn share_is_the_median_of_per_pair_ratios() {
        // Per-pair shares: 0.5, 0.1, 0.0 -> median 0.1.
        let s = Share::from_pairs(&[(2.0, 1.0), (1.0, 0.9), (3.0, 3.0)]);
        assert_eq!(s.pairs, 3);
        assert!((s.median - 0.1).abs() < 1e-12);
        // quantiles([0.0, 0.1, 0.5]) -> q1 = 0.0, q3 = 0.5.
        assert!((s.q1 - 0.0).abs() < 1e-12 && (s.q3 - 0.5).abs() < 1e-12);
        // The median of ratios is not the ratio of sums: one slow pair
        // cannot drag the estimate.
        let t = Share::from_pairs(&[(1.0, 1.0), (1.0, 1.0), (100.0, 1.0)]);
        assert_eq!(t.median, 0.0);
        assert_eq!(Share::from_pairs(&[]), Share::NONE);
        assert_eq!(Share::from_pairs(&[(0.0, 1.0)]), Share::NONE);
    }

    #[test]
    fn abba_order_alternates() {
        let order: Vec<bool> = (0..4).map(with_first).collect();
        assert_eq!(order, vec![true, false, true, false]);
    }

    #[test]
    fn event_count_skips_core_time_counters() {
        let counters = [
            ("arrivals", 10),
            ("core_work_ns", 1_000_000),
            ("preemptions", 5),
            ("core_kernel_ns", 7),
            // Only the core_*_ns shape is excluded.
            ("score_ns", 2),
            ("core_switches", 3),
        ];
        assert_eq!(event_count(counters), 10 + 5 + 2 + 3);
    }

    #[test]
    fn misses_count_slow_dropped_and_unfinished_requests() {
        assert_eq!(misses(0, 0, 0), 0);
        assert_eq!(misses(7, 0, 0), 7);
        assert_eq!(misses(7, 3, 2), 12);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
