//! Tail-index estimation.
//!
//! Algorithm 1 of the paper classifies the current service-time
//! distribution as heavy- or light-tailed from "past median and tail
//! latencies" (a fitted *tail index* α, with 0 ≤ α < 2 considered heavy).
//! We provide two estimators:
//!
//! * [`hill_estimator`] — the classical Hill estimator over the top-k
//!   order statistics of raw samples.
//! * [`dispersion_index`] — the cheap proxy the adaptive controller uses
//!   online: the ratio p99/median, mapped onto an equivalent α. This is
//!   exactly the kind of statistic the runtime's `Stats` window already
//!   maintains, so the controller never needs raw samples.

/// Result of a tail fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailFit {
    /// Estimated tail index α. Smaller is heavier; `< 2` counts as
    /// heavy-tailed per the paper (infinite variance regime).
    pub alpha: f64,
    /// Number of samples used.
    pub samples: usize,
}

impl TailFit {
    /// `true` if the paper's Algorithm 1 would treat this as a heavy
    /// tail (0 ≤ α < 2).
    pub fn is_heavy(&self) -> bool {
        self.alpha < 2.0
    }
}

/// Hill estimator of the tail index over the largest `k` of `samples`.
///
/// Returns `None` if fewer than `k + 1` positive samples exist or `k < 2`.
///
/// For a Pareto(α) distribution the estimate converges to α; for
/// light-tailed distributions (e.g. exponential) it grows with sample
/// size, landing well above 2 for the sizes the controller uses.
///
/// ```
/// use lp_stats::tail::hill_estimator;
/// // Pareto with alpha = 1.2
/// let samples: Vec<f64> = (1..=2000)
///     .map(|i| {
///         let u = i as f64 / 2001.0;
///         (1.0 - u).powf(-1.0 / 1.2)
///     })
///     .collect();
/// let fit = hill_estimator(&samples, 200).unwrap();
/// assert!((fit.alpha - 1.2).abs() < 0.2, "alpha = {}", fit.alpha);
/// ```
pub fn hill_estimator(samples: &[f64], k: usize) -> Option<TailFit> {
    if k < 2 {
        return None;
    }
    let mut pos: Vec<f64> = samples.iter().copied().filter(|&x| x > 0.0).collect();
    if pos.len() <= k {
        return None;
    }
    // Select the top k+1 order statistics.
    pos.sort_unstable_by(|a, b| b.partial_cmp(a).expect("NaN in samples"));
    let x_k1 = pos[k]; // (k+1)-th largest
    let mut acc = 0.0;
    for &x in &pos[..k] {
        acc += (x / x_k1).ln();
    }
    let gamma = acc / k as f64; // mean excess log, = 1/alpha for Pareto
    if gamma <= 0.0 {
        return None;
    }
    Some(TailFit {
        alpha: 1.0 / gamma,
        samples: pos.len(),
    })
}

/// Maps a p99/median dispersion ratio to an equivalent tail index.
///
/// For a Pareto(α) distribution, `p99/median = (0.01)^(-1/α) /
/// (0.5)^(-1/α) = 50^(1/α)`, so `α = ln 50 / ln(p99/median)`. Using this
/// inversion on arbitrary distributions yields a *dispersion-equivalent*
/// α: light-tailed workloads (exponential: p99/median ≈ 6.6 → α ≈ 2.07)
/// land at or above 2, while the paper's bimodal-with-500us-tail
/// workloads land far below 2.
///
/// Returns `f64::INFINITY` when `p99 <= median` (no measurable tail).
///
/// ```
/// use lp_stats::tail::dispersion_index;
/// // exponential: median = ln2/λ, p99 = ln100/λ -> ratio ~6.64, alpha ~2.07
/// let alpha = dispersion_index(6.64, 1.0);
/// assert!(alpha > 2.0 && alpha < 2.2);
/// // bimodal A1: median 0.5us, p99.9-ish tail 500us -> very heavy
/// assert!(dispersion_index(500.0, 0.5) < 1.0);
/// ```
pub fn dispersion_index(p99: f64, median: f64) -> f64 {
    if median <= 0.0 || p99 <= median {
        return f64::INFINITY;
    }
    (50.0f64).ln() / (p99 / median).ln()
}

/// Squared coefficient of variation (SCV), the dispersion measure used to
/// rank workloads in Fig. 1 (right).
///
/// SCV = variance / mean². Exponential has SCV = 1; the paper's bimodal
/// workloads have SCV ≫ 1.
pub fn scv(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var / (mean * mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pareto_quantiles(alpha: f64, n: usize) -> Vec<f64> {
        (1..=n)
            .map(|i| {
                let u = i as f64 / (n + 1) as f64;
                (1.0 - u).powf(-1.0 / alpha)
            })
            .collect()
    }

    #[test]
    fn hill_recovers_pareto_alpha() {
        for alpha in [0.8, 1.5, 2.5] {
            let s = pareto_quantiles(alpha, 5_000);
            let fit = hill_estimator(&s, 500).unwrap();
            assert!(
                (fit.alpha - alpha).abs() < 0.3,
                "alpha={alpha} fit={}",
                fit.alpha
            );
        }
    }

    #[test]
    fn hill_flags_exponential_as_light() {
        // Exponential quantiles: -ln(1-u)
        let s: Vec<f64> = (1..=5_000)
            .map(|i| -(1.0 - i as f64 / 5_001.0).ln())
            .collect();
        let fit = hill_estimator(&s, 250).unwrap();
        assert!(!fit.is_heavy(), "exponential misclassified: {:?}", fit);
    }

    #[test]
    fn hill_insufficient_samples() {
        assert!(hill_estimator(&[1.0, 2.0], 5).is_none());
        assert!(hill_estimator(&[1.0; 100], 1).is_none());
        // All-equal samples give gamma = 0 -> None.
        assert!(hill_estimator(&[3.0; 100], 10).is_none());
    }

    #[test]
    fn hill_ignores_nonpositive() {
        let mut s = pareto_quantiles(1.0, 1_000);
        s.extend([0.0, -5.0]);
        let fit = hill_estimator(&s, 100).unwrap();
        assert_eq!(fit.samples, 1_000);
    }

    #[test]
    fn dispersion_boundaries() {
        assert_eq!(dispersion_index(1.0, 2.0), f64::INFINITY);
        assert_eq!(dispersion_index(1.0, 0.0), f64::INFINITY);
        // Pareto self-consistency: ratio = 50^(1/alpha)
        for alpha in [0.7, 1.3, 2.0] {
            let ratio = 50.0f64.powf(1.0 / alpha);
            assert!((dispersion_index(ratio, 1.0) - alpha).abs() < 1e-9);
        }
    }

    #[test]
    fn scv_known_values() {
        // Constant -> 0.
        assert_eq!(scv(&[5.0; 100]), 0.0);
        // Two-point 50/50 at 0 and 2: mean 1, var 1 -> SCV 1.
        let s: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.0 } else { 2.0 })
            .collect();
        assert!((scv(&s) - 1.0).abs() < 1e-9);
        // Bimodal 99.5/0.5 at 0.5us/500us is very dispersive.
        let mut b = vec![0.5; 995];
        b.extend(vec![500.0; 5]);
        assert!(scv(&b) > 50.0);
    }
}
