//! Request service-time distributions.
//!
//! §V-A of the paper evaluates on synthetic service-time distributions
//! "selected to match workloads found in object stores and databases":
//!
//! * **A1** — bimodal, 99.5% × 0.5 us + 0.5% × 500 us (heavy tail)
//! * **A2** — bimodal, 99.5% × 5 us + 0.5% × 500 us (heavy tail)
//! * **B**  — exponential, mean 5 us (light tail)
//! * **C**  — dynamic: first half A1, second half B (see
//!   [`PhasedService`](crate::PhasedService))
//!
//! plus the extra shapes used to rank dispersion in Fig. 1 (right).

use lp_sim::SimDur;
use rand::rngs::SmallRng;
use rand::Rng;

use lp_hw::jitter::standard_normal;

/// A service-time distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceDist {
    /// Every request takes exactly this long.
    Constant(SimDur),
    /// Exponential with the given mean.
    Exponential {
        /// Mean service time.
        mean: SimDur,
    },
    /// Two-point mixture: with probability `p_long` the request takes
    /// `long`, otherwise `short`.
    Bimodal {
        /// Probability of the long mode, in `[0, 1]`.
        p_long: f64,
        /// Short-mode service time.
        short: SimDur,
        /// Long-mode service time.
        long: SimDur,
    },
    /// Lognormal parameterized by its median and shape sigma.
    Lognormal {
        /// Median service time.
        median: SimDur,
        /// Shape parameter (sigma of the underlying normal).
        sigma: f64,
    },
    /// Pareto with minimum `scale` and tail index `alpha`, truncated at
    /// `cap` to keep simulations finite.
    Pareto {
        /// Minimum value.
        scale: SimDur,
        /// Tail index; smaller is heavier.
        alpha: f64,
        /// Upper truncation.
        cap: SimDur,
    },
}

impl ServiceDist {
    /// Workload A1: bimodal 99.5% 0.5 us / 0.5% 500 us.
    pub fn workload_a1() -> Self {
        ServiceDist::Bimodal {
            p_long: 0.005,
            short: SimDur::nanos(500),
            long: SimDur::micros(500),
        }
    }

    /// Workload A2: bimodal 99.5% 5 us / 0.5% 500 us.
    pub fn workload_a2() -> Self {
        ServiceDist::Bimodal {
            p_long: 0.005,
            short: SimDur::micros(5),
            long: SimDur::micros(500),
        }
    }

    /// Workload B: exponential with mean 5 us.
    pub fn workload_b() -> Self {
        ServiceDist::Exponential {
            mean: SimDur::micros(5),
        }
    }

    /// Draws one service time. Never returns zero: samples quantize to
    /// at least 1 ns so a request always represents real work.
    pub fn sample(&self, rng: &mut SmallRng) -> SimDur {
        self.sample_raw(rng).max(SimDur::nanos(1))
    }

    fn sample_raw(&self, rng: &mut SmallRng) -> SimDur {
        match *self {
            ServiceDist::Constant(d) => d,
            ServiceDist::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                mean.mul_f64(-u.ln())
            }
            ServiceDist::Bimodal {
                p_long,
                short,
                long,
            } => {
                if rng.gen_bool(p_long) {
                    long
                } else {
                    short
                }
            }
            ServiceDist::Lognormal { median, sigma } => {
                let z = standard_normal(rng);
                median.mul_f64((sigma * z).exp())
            }
            ServiceDist::Pareto { scale, alpha, cap } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                scale.mul_f64(u.powf(-1.0 / alpha)).min(cap)
            }
        }
    }

    /// The distribution's theoretical mean (Pareto: of the *untruncated*
    /// law, used only for load computation where truncation is
    /// negligible).
    pub fn mean(&self) -> SimDur {
        match *self {
            ServiceDist::Constant(d) => d,
            ServiceDist::Exponential { mean } => mean,
            ServiceDist::Bimodal {
                p_long,
                short,
                long,
            } => SimDur::from_micros_f64(
                short.as_micros_f64() * (1.0 - p_long) + long.as_micros_f64() * p_long,
            ),
            ServiceDist::Lognormal { median, sigma } => median.mul_f64((sigma * sigma / 2.0).exp()),
            ServiceDist::Pareto { scale, alpha, cap } => {
                if alpha <= 1.0 {
                    cap // untruncated mean diverges; cap bounds it
                } else {
                    scale.mul_f64(alpha / (alpha - 1.0))
                }
            }
        }
    }

    /// Squared coefficient of variation — the dispersion measure of
    /// Fig. 1 (right). Exponential = 1, constant = 0, the bimodal
    /// workloads ≫ 1.
    pub fn scv(&self) -> f64 {
        match *self {
            ServiceDist::Constant(_) => 0.0,
            ServiceDist::Exponential { .. } => 1.0,
            ServiceDist::Bimodal {
                p_long,
                short,
                long,
            } => {
                let s = short.as_micros_f64();
                let l = long.as_micros_f64();
                let m = s * (1.0 - p_long) + l * p_long;
                let m2 = s * s * (1.0 - p_long) + l * l * p_long;
                (m2 - m * m) / (m * m)
            }
            ServiceDist::Lognormal { sigma, .. } => (sigma * sigma).exp() - 1.0,
            ServiceDist::Pareto { alpha, .. } => {
                if alpha <= 2.0 {
                    f64::INFINITY
                } else {
                    alpha / ((alpha - 2.0) * (alpha - 1.0) * (alpha - 1.0))
                }
            }
        }
    }

    /// The arrival rate that produces utilization `rho` on `workers`
    /// cores.
    pub fn rate_for_utilization(&self, rho: f64, workers: usize) -> f64 {
        rho * workers as f64 / self.mean().as_secs_f64()
    }
}

impl std::fmt::Display for ServiceDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceDist::Constant(d) => write!(f, "constant({d})"),
            ServiceDist::Exponential { mean } => write!(f, "exp(mean={mean})"),
            ServiceDist::Bimodal {
                p_long,
                short,
                long,
            } => write!(f, "bimodal({:.1}%x{long}, rest {short})", p_long * 100.0),
            ServiceDist::Lognormal { median, sigma } => {
                write!(f, "lognormal(median={median}, sigma={sigma})")
            }
            ServiceDist::Pareto { scale, alpha, cap } => {
                write!(f, "pareto(scale={scale}, alpha={alpha}, cap={cap})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::rng::rng;

    fn empirical_mean(d: &ServiceDist, n: usize, seed: u64) -> f64 {
        let mut r = rng(seed, 0);
        (0..n)
            .map(|_| d.sample(&mut r).as_micros_f64())
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn paper_workload_parameters() {
        let a1 = ServiceDist::workload_a1();
        // mean = 0.995*0.5 + 0.005*500 = 2.9975 us (ns rounding applies)
        assert!((a1.mean().as_micros_f64() - 2.9975).abs() < 1e-3);
        let b = ServiceDist::workload_b();
        assert_eq!(b.mean(), SimDur::micros(5));
        // A-workloads are far more dispersive than B.
        assert!(a1.scv() > 30.0 * b.scv());
    }

    #[test]
    fn sample_means_match_theory() {
        for (d, seed) in [
            (ServiceDist::workload_a1(), 1),
            (ServiceDist::workload_a2(), 2),
            (ServiceDist::workload_b(), 3),
            (
                ServiceDist::Lognormal {
                    median: SimDur::micros(10),
                    sigma: 1.0,
                },
                4,
            ),
        ] {
            let th = d.mean().as_micros_f64();
            let emp = empirical_mean(&d, 200_000, seed);
            let rel = (emp - th).abs() / th;
            assert!(rel < 0.05, "{d}: empirical {emp} vs theory {th}");
        }
    }

    #[test]
    fn constant_is_constant() {
        let d = ServiceDist::Constant(SimDur::micros(7));
        let mut r = rng(9, 0);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), SimDur::micros(7));
        }
        assert_eq!(d.scv(), 0.0);
    }

    #[test]
    fn pareto_truncation_respected() {
        let d = ServiceDist::Pareto {
            scale: SimDur::micros(1),
            alpha: 1.1,
            cap: SimDur::millis(10),
        };
        let mut r = rng(10, 0);
        for _ in 0..50_000 {
            let s = d.sample(&mut r);
            assert!(s >= SimDur::micros(1) && s <= SimDur::millis(10));
        }
        assert_eq!(d.scv(), f64::INFINITY);
    }

    #[test]
    fn utilization_roundtrip() {
        let d = ServiceDist::workload_b(); // 5 us mean
        let rate = d.rate_for_utilization(0.8, 4);
        // 0.8 * 4 / 5us = 640k rps
        assert!((rate - 640_000.0).abs() < 1.0);
    }

    #[test]
    fn display_is_informative() {
        assert!(ServiceDist::workload_a1().to_string().contains("bimodal"));
        assert!(ServiceDist::workload_b().to_string().contains("exp"));
    }
}
