//! Zipfian key-popularity generator.
//!
//! The MICA experiment runs "the default zipfian generator from the
//! original MICA work" with skew 0.99. This is the standard YCSB/Gray et
//! al. rejection-free construction with precomputed zeta.

use rand::rngs::SmallRng;
use rand::Rng;

/// Zipfian distribution over `0..n` ranks (rank 0 most popular).
///
/// ```
/// use lp_workload::Zipf;
/// let z = Zipf::new(1_000, 0.99);
/// let mut r = lp_sim::rng::rng(1, 5);
/// let k = z.sample(&mut r);
/// assert!(k < 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a generator over `n` items with skew `theta` (0 =
    /// uniform-ish, 0.99 = YCSB default, must be in `(0, 1)`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf over zero items");
        assert!(
            (0.0..1.0).contains(&theta) && theta > 0.0,
            "theta must be in (0,1)"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; Euler–Maclaurin tail approximation keeps
        // construction O(1)-ish for big keyspaces.
        const EXACT_LIMIT: u64 = 100_000;
        if n <= EXACT_LIMIT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=EXACT_LIMIT)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum();
            // integral_{EXACT_LIMIT}^{n} x^-theta dx
            let a = EXACT_LIMIT as f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws a rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Theoretical probability of rank `k`, the oracle the tests hold
    /// [`sample`](Self::sample) to.
    #[cfg(test)]
    fn prob(&self, k: u64) -> f64 {
        assert!(k < self.n);
        1.0 / ((k + 1) as f64).powf(self.theta) / self.zetan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::rng::rng;

    #[test]
    fn ranks_in_range() {
        let z = Zipf::new(100, 0.99);
        let mut r = rng(1, 5);
        for _ in 0..10_000 {
            assert!(z.sample(&mut r) < 100);
        }
    }

    #[test]
    fn empirical_matches_theory_for_hot_keys() {
        let z = Zipf::new(10_000, 0.99);
        let mut r = rng(2, 5);
        let n = 200_000;
        let mut counts = vec![0u64; 10_000];
        for _ in 0..n {
            counts[z.sample(&mut r) as usize] += 1;
        }
        for k in 0..5u64 {
            let emp = counts[k as usize] as f64 / n as f64;
            let th = z.prob(k);
            let rel = (emp - th).abs() / th;
            // The YCSB construction is exact for the two hottest ranks
            // and a continuous approximation beyond, so allow more
            // slack there.
            let tol = if k < 2 { 0.1 } else { 0.3 };
            assert!(rel < tol, "rank {k}: emp {emp}, theory {th}");
        }
    }

    #[test]
    fn skew_concentrates_mass() {
        let mut r = rng(3, 5);
        let heavy = Zipf::new(1_000, 0.99);
        let light = Zipf::new(1_000, 0.2);
        let top10 = |z: &Zipf, r: &mut rand::rngs::SmallRng| {
            let n = 50_000;
            (0..n).filter(|_| z.sample(r) < 10).count() as f64 / n as f64
        };
        let h = top10(&heavy, &mut r);
        let l = top10(&light, &mut r);
        assert!(h > 2.0 * l, "heavy {h} vs light {l}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let z = Zipf::new(500, 0.9);
        let total: f64 = (0..500).map(|k| z.prob(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn large_keyspace_construction() {
        // Exercises the Euler–Maclaurin tail.
        let z = Zipf::new(10_000_000, 0.99);
        let mut r = rng(4, 5);
        let s = z.sample(&mut r);
        assert!(s < 10_000_000);
        // prob(0) of 10M keys at 0.99 skew is around 6%.
        assert!((0.03..0.12).contains(&z.prob(0)), "p0 = {}", z.prob(0));
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn rejects_theta_one() {
        Zipf::new(10, 1.0);
    }
}
