//! Latency jitter sampling.
//!
//! Real delivery latencies are not constants; the paper's Table IV
//! reports means *and* standard deviations, and Fig. 12 is entirely
//! about jitter. We model each latency as a lognormal around its
//! calibrated base: multiplicative noise matches the long-but-bounded
//! right tails of interrupt-latency distributions and can never go
//! negative.

use lp_sim::SimDur;
use rand::rngs::SmallRng;
use rand::Rng;

/// Samples a jittered latency: `base * exp(sigma * N(0,1))`.
///
/// A `sigma` of 0 returns `base` exactly, keeping tests deterministic.
///
/// ```
/// use lp_hw::jitter::sample;
/// use lp_sim::{rng, SimDur};
/// let mut r = lp_sim::rng::rng(1, 0);
/// let d = sample(&mut r, SimDur::micros(1), 0.05);
/// assert!(d > SimDur::nanos(800) && d < SimDur::nanos(1_250));
/// ```
pub fn sample(rng: &mut SmallRng, base: SimDur, sigma: f64) -> SimDur {
    if sigma == 0.0 || base.is_zero() {
        return base;
    }
    let z = standard_normal(rng);
    base.mul_f64((sigma * z).exp())
}

/// Samples a standard normal via Box–Muller (one value per call; we favor
/// statelessness over speed — the simulator spends its time elsewhere).
pub fn standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::rng::rng;

    #[test]
    fn zero_sigma_is_exact() {
        let mut r = rng(7, 0);
        assert_eq!(sample(&mut r, SimDur::micros(3), 0.0), SimDur::micros(3));
    }

    #[test]
    fn zero_base_stays_zero() {
        let mut r = rng(7, 0);
        assert_eq!(sample(&mut r, SimDur::ZERO, 0.5), SimDur::ZERO);
    }

    #[test]
    fn mean_is_near_base_for_small_sigma() {
        let mut r = rng(7, 1);
        let base = SimDur::micros(10);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| sample(&mut r, base, 0.05).as_nanos()).sum();
        let mean = total as f64 / n as f64;
        // lognormal mean = base * exp(sigma^2/2) ~ base * 1.00125
        assert!(
            (mean - 10_000.0).abs() < 100.0,
            "mean = {mean} ns, expected ~10000"
        );
    }

    #[test]
    fn larger_sigma_widens_spread() {
        let mut r = rng(7, 2);
        let base = SimDur::micros(1);
        let spread = |sigma: f64, r: &mut rand::rngs::SmallRng| {
            let xs: Vec<f64> = (0..5_000)
                .map(|_| sample(r, base, sigma).as_nanos() as f64)
                .collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let s_small = spread(0.02, &mut r);
        let s_big = spread(0.3, &mut r);
        assert!(s_big > 5.0 * s_small, "{s_big} vs {s_small}");
    }

    #[test]
    fn normal_moments() {
        let mut r = rng(11, 3);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }
}
