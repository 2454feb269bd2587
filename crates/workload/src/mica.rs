//! MICA key-value-store service-time model and the zlib best-effort job
//! (§V-C's colocation workloads).
//!
//! The paper runs MICA with a 5/95 SET/GET mix over a zipfian(0.99)
//! keyspace ("this yields a median request processing time of 1 us") as
//! the latency-critical job, colocated with zlib compressing 25 kB
//! chunks ("median latency is 100 us") as the best-effort job. Request
//! mix at the generator: 98% LC / 2% BE.

use lp_sim::SimDur;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::zipf::Zipf;
use lp_hw::jitter::standard_normal;

/// MICA request kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicaOp {
    /// Read.
    Get,
    /// Write.
    Set,
}

/// One sampled MICA request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicaRequest {
    /// Operation type.
    pub op: MicaOp,
    /// Key rank (0 = hottest).
    pub key: u64,
    /// Service time on the worker.
    pub service: SimDur,
}

/// Service-time model for MICA under skewed access.
///
/// Mechanism: hot keys hit the cache hierarchy near its top and take the
/// base cost; colder keys miss deeper (hash-bucket chain walks + memory
/// stalls). SETs pay a small constant extra over GETs. Calibrated so the
/// median lands at ~1 us per §V-C.
#[derive(Debug, Clone)]
pub struct MicaModel {
    zipf: Zipf,
    get_frac: f64,
    /// Cost of a hot (cache-resident) GET.
    hot_cost: SimDur,
    /// Additional cost of a cold miss.
    miss_cost: SimDur,
    /// Keys with rank below this fraction of the keyspace count as hot.
    hot_frac: f64,
    /// SET surcharge over GET.
    set_extra: SimDur,
    /// Multiplicative noise sigma.
    sigma: f64,
}

impl MicaModel {
    /// The paper's configuration: zipfian 0.99 skew, 5/95 SET/GET,
    /// ~1 us median.
    fn paper_config(keys: u64) -> Self {
        MicaModel {
            zipf: Zipf::new(keys, 0.99),
            get_frac: 0.95,
            hot_cost: SimDur::nanos(900),
            miss_cost: SimDur::nanos(1_400),
            hot_frac: 0.01,
            set_extra: SimDur::nanos(250),
            sigma: 0.12,
        }
    }

    /// Draws one request.
    pub fn sample(&self, rng: &mut SmallRng) -> MicaRequest {
        let op = if rng.gen_bool(self.get_frac) {
            MicaOp::Get
        } else {
            MicaOp::Set
        };
        let key = self.zipf.sample(rng);
        let hot_cut = (self.zipf.n() as f64 * self.hot_frac).max(1.0) as u64;
        let mut base = self.hot_cost;
        if key >= hot_cut {
            base += self.miss_cost;
        }
        if op == MicaOp::Set {
            base += self.set_extra;
        }
        let service = lp_hw::jitter::sample(rng, base, self.sigma);
        MicaRequest { op, key, service }
    }
}

/// The zlib best-effort compression job: lognormal around a 100 us
/// median (25 kB chunks; compression time varies with entropy).
#[derive(Debug, Clone)]
pub struct ZlibModel {
    median: SimDur,
    sigma: f64,
}

impl Default for ZlibModel {
    fn default() -> Self {
        Self::paper_config()
    }
}

impl ZlibModel {
    /// §V-C's configuration: 25 kB chunks, 100 us median.
    fn paper_config() -> Self {
        ZlibModel {
            median: SimDur::micros(100),
            sigma: 0.25,
        }
    }

    /// Draws one chunk-compression service time.
    pub fn sample(&self, rng: &mut SmallRng) -> SimDur {
        let z = standard_normal(rng);
        self.median.mul_f64((self.sigma * z).exp())
    }
}

/// Class of a colocated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Latency-critical (MICA).
    LatencyCritical,
    /// Best-effort (zlib).
    BestEffort,
}

/// Mixed LC/BE request source for the colocation experiments.
#[derive(Debug, Clone)]
pub struct ColocatedWorkload {
    mica: MicaModel,
    zlib: ZlibModel,
    /// Fraction of requests that are LC (paper: 0.98).
    lc_frac: f64,
}

impl ColocatedWorkload {
    /// §V-C's generator: 98% MICA / 2% zlib.
    pub fn paper_config() -> Self {
        ColocatedWorkload {
            mica: MicaModel::paper_config(1_000_000),
            zlib: ZlibModel::paper_config(),
            lc_frac: 0.98,
        }
    }

    /// Draws `(class, service_time)` for the next request.
    pub fn sample(&self, rng: &mut SmallRng) -> (JobClass, SimDur) {
        if rng.gen_bool(self.lc_frac) {
            (JobClass::LatencyCritical, self.mica.sample(rng).service)
        } else {
            (JobClass::BestEffort, self.zlib.sample(rng))
        }
    }

    /// Mean service time of the mixture (for load calculations).
    #[cfg(test)]
    fn mean_service(&self) -> SimDur {
        // Estimate analytically: MICA mean ~ hot/miss mix; zlib mean =
        // median * exp(sigma^2/2).
        let zlib_mean = self
            .zlib
            .median
            .mul_f64((self.zlib.sigma * self.zlib.sigma / 2.0).exp());
        // MICA: approximate with hot mass at hot cost.
        let mica_mean = SimDur::nanos(1_600); // see tests for empirical check
        SimDur::from_micros_f64(
            mica_mean.as_micros_f64() * self.lc_frac
                + zlib_mean.as_micros_f64() * (1.0 - self.lc_frac),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::rng::rng;

    #[test]
    fn mica_median_near_1us() {
        let m = MicaModel::paper_config(1_000_000);
        let mut r = rng(1, 5);
        let mut xs: Vec<f64> = (0..50_000)
            .map(|_| m.sample(&mut r).service.as_micros_f64())
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((0.7..1.4).contains(&median), "median = {median} us");
    }

    #[test]
    fn mica_mix_is_95_5() {
        let m = MicaModel::paper_config(10_000);
        let mut r = rng(2, 5);
        let n = 50_000;
        let sets = (0..n)
            .filter(|_| m.sample(&mut r).op == MicaOp::Set)
            .count();
        let frac = sets as f64 / n as f64;
        assert!((0.04..0.06).contains(&frac), "SET fraction = {frac}");
    }

    #[test]
    fn mica_hot_keys_are_faster() {
        let m = MicaModel::paper_config(1_000_000);
        let mut r = rng(3, 5);
        let (mut hot_tot, mut hot_n, mut cold_tot, mut cold_n) = (0.0, 0, 0.0, 0);
        for _ in 0..100_000 {
            let q = m.sample(&mut r);
            if q.key < 10_000 {
                hot_tot += q.service.as_micros_f64();
                hot_n += 1;
            } else {
                cold_tot += q.service.as_micros_f64();
                cold_n += 1;
            }
        }
        assert!(hot_n > 0 && cold_n > 0);
        assert!(hot_tot / hot_n as f64 + 0.5 < cold_tot / cold_n as f64);
    }

    #[test]
    fn zlib_median_near_100us() {
        let z = ZlibModel::paper_config();
        let mut r = rng(4, 5);
        let mut xs: Vec<f64> = (0..20_000)
            .map(|_| z.sample(&mut r).as_micros_f64())
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((90.0..110.0).contains(&median), "median = {median} us");
    }

    #[test]
    fn colocated_mix_is_98_2() {
        let w = ColocatedWorkload::paper_config();
        let mut r = rng(5, 5);
        let n = 50_000;
        let be = (0..n)
            .filter(|_| w.sample(&mut r).0 == JobClass::BestEffort)
            .count();
        let frac = be as f64 / n as f64;
        assert!((0.015..0.025).contains(&frac), "BE fraction = {frac}");
    }

    #[test]
    fn colocated_mean_service_close_to_empirical() {
        let w = ColocatedWorkload::paper_config();
        let mut r = rng(6, 5);
        let n = 200_000;
        let emp = (0..n)
            .map(|_| w.sample(&mut r).1.as_micros_f64())
            .sum::<f64>()
            / n as f64;
        let th = w.mean_service().as_micros_f64();
        assert!(
            (emp - th).abs() / th < 0.15,
            "empirical {emp} vs modeled {th}"
        );
    }
}
