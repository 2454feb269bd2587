//! Latency jitter sampling.
//!
//! Real delivery latencies are not constants; the paper's Table IV
//! reports means *and* standard deviations, and Fig. 12 is entirely
//! about jitter. We model each latency as a lognormal around its
//! calibrated base: multiplicative noise matches the long-but-bounded
//! right tails of interrupt-latency distributions and can never go
//! negative.
//!
//! # One definition, a faster evaluation
//!
//! A jittered latency is *defined* by the reference formula
//!
//! ```text
//! z = sqrt(-2 ln u1) · cos(2π u2)            (Box–Muller, one value)
//! d = base.mul_f64(exp(sigma · z))           (rounded to the nanosecond)
//! ```
//!
//! [`sample`] and the buffered [`Jitter`] stream return exactly that
//! `SimDur` for every draw, but evaluate the cosine from a 257-entry
//! table plus a short polynomial ([`cos`]) instead of calling libm, and
//! round the nanosecond value with integer operations. The two
//! cosines differ by a few `1e-16`, so the unrounded nanosecond value
//! can differ in its last few bits; whenever it lies within the guard
//! band ([`GUARD_ABS`] + `v` · [`GUARD_REL`]) of a rounding boundary, the
//! draw is re-evaluated with the reference formula. docs/PERFORMANCE.md
//! ("Jitter without libm `cos`") has the profile that motivated this and
//! the measured effect.

use lp_sim::SimDur;
use rand::rngs::SmallRng;
use rand::Rng;

mod table;

/// Absolute half-width of the guard band, in nanoseconds.
///
/// # Error budget
///
/// Let `v` be the unrounded nanosecond value `base_us · exp(σz) · 1000`
/// computed with [`cos`], and `v_ref` the same value computed with
/// `f64::cos`. Both chains share `u1`, `u2`, `ln`, `sqrt`, `exp` and the
/// operation order, so they differ only through the cosine:
///
/// * `|cos(x) − x.cos()| ≤ 4e-16`: each is within about 2 ulp of the
///   true cosine (the table rows are correctly rounded, and the
///   polynomial truncation is below `1e-17` on `|d| ≤ π/256`; the
///   `cos_matches_libm` test measures the maximum);
/// * `r = sqrt(-2 ln u1) ≤ 37.7`, since `u1 ≥ f64::MIN_POSITIVE`, so
///   `σz` differs by at most `σ · r · 8.4e-16` counting the products'
///   own roundings, which is `2.6e-13` at the largest fast-path sigma,
///   `SIGMA_FAST_MAX` = 8;
/// * `exp` and the two scalings add four roundings (`≤ 9e-16` relative).
///
/// So `|v − v_ref| ≤ v · 2.7e-13`, below the relative term
/// [`GUARD_REL`] with a margin of almost 4x; the absolute term is slack
/// for values near zero. When `v` is farther than the guard from
/// `t + 0.5` (and, for a guard under 0.5, necessarily from every other
/// half-integer), `v` and `v_ref` round to the same integer. Draws with
/// `v` at or above `FAST_LIMIT` = 4e15 (near `2^52`, where the fractional
/// part is no longer exact) and sigmas outside `±SIGMA_FAST_MAX` use the
/// reference formula.
pub const GUARD_ABS: f64 = 1e-7;

/// Relative half-width of the guard band (see [`GUARD_ABS`]).
pub const GUARD_REL: f64 = 1e-12;

/// Unrounded nanosecond values at or above this always take the
/// reference formula. It is below `2^52`, so below it `v as u64` is
/// `floor(v)` and `v - floor(v)` is exact.
const FAST_LIMIT: f64 = 4e15;

/// Largest `|sigma|` the [`GUARD_ABS`] budget covers; draws with a
/// larger sigma always take the reference formula.
const SIGMA_FAST_MAX: f64 = 8.0;

/// Draws buffered per [`Jitter`] refill.
const BATCH: usize = 64;

/// `π/128` split for exact argument reduction: the high part has 33
/// significant bits, so `k · STEP_HI` is exact for `k ≤ 256`.
const STEP_HI: f64 = 0.024543692605220713;
/// `π/128 − STEP_HI`, rounded.
const STEP_LO: f64 = 9.495469541415925e-13;
/// Table rows per radian, for picking the nearest row.
const ROWS_PER_RAD: f64 = 128.0 / std::f64::consts::PI;

/// `cos(x)` for `x` in `[0, 2π]`, within `4e-16` of `f64::cos`.
///
/// Reduces `x` to `kπ/128 + d` with `|d| ≤ π/256` and combines the
/// table's `cos`/`sin` of `kπ/128` with degree-6/5 Taylor polynomials
/// in `d`: `cos x = cos a − (cos a · (1 − cos d) + sin a · sin d)`.
///
/// ```
/// use lp_hw::jitter::cos;
/// assert!((cos(1.0) - 1.0f64.cos()).abs() < 1e-15);
/// ```
///
/// # Panics
///
/// Panics if `x` is outside `[0, 2π]` by more than half a table step.
#[inline]
pub fn cos(x: f64) -> f64 {
    let k = (x * ROWS_PER_RAD + 0.5) as usize;
    let [ck, sk] = table::COS_SIN[k];
    let kf = k as f64;
    let d = (x - kf * STEP_HI) - kf * STEP_LO;
    let d2 = d * d;
    let one_minus_cos = d2 * (0.5 - d2 * (1.0 / 24.0 - d2 * (1.0 / 720.0)));
    let sin = d + d * d2 * (-1.0 / 6.0 + d2 * (1.0 / 120.0));
    ck - (ck * one_minus_cos + sk * sin)
}

/// Rounds a non-negative `v` to the nearest integer (ties away from
/// zero, like `f64::round`), or returns `None` when `v` lies within the
/// guard band of a rounding boundary or at or above 4e15 (see
/// [`GUARD_ABS`]).
///
/// ```
/// use lp_hw::jitter::round_guarded;
/// assert_eq!(round_guarded(41.7), Some(42));
/// assert_eq!(round_guarded(41.5), None);
/// ```
#[inline]
pub fn round_guarded(v: f64) -> Option<u64> {
    // NaN and infinity fail the first comparison too.
    if v < FAST_LIMIT {
        let t = v as u64;
        let frac = v - t as f64;
        if (frac - 0.5).abs() > GUARD_ABS + v * GUARD_REL {
            return Some(t + u64::from(frac > 0.5));
        }
    }
    None
}

/// One Box–Muller draw, kept in the pieces the reference formula needs.
#[derive(Debug, Clone, Copy, Default)]
struct Draw {
    /// `sqrt(-2 ln u1)`.
    r: f64,
    /// `2π · u2`.
    x: f64,
    /// `exp(sigma · r · cos(x))` with the table cosine.
    factor: f64,
}

impl Draw {
    #[inline]
    fn new(rng: &mut SmallRng, sigma: f64) -> Draw {
        let (r, x) = polar(rng);
        Draw {
            r,
            x,
            factor: (sigma * (r * cos(x))).exp(),
        }
    }

    /// `base` scaled by this draw, equal to the reference formula.
    #[inline]
    fn scale(self, base: SimDur, sigma: f64) -> SimDur {
        // The reference's operation order: `base.mul_f64(f)` is
        // `from_micros_f64(base_us · f)`, which scales by 1000.
        let v = base.as_micros_f64() * self.factor * 1_000.0;
        match round_guarded(v) {
            Some(ns) if sigma.abs() <= SIGMA_FAST_MAX => SimDur::nanos(ns),
            _ => reference(base, sigma, self.r, self.x),
        }
    }
}

/// The defining formula, for draws the fast path cannot vouch for.
///
/// Kept out of line: inlined, the optimizer may evaluate its libm `cos`
/// speculatively on every draw.
#[cold]
#[inline(never)]
fn reference(base: SimDur, sigma: f64, r: f64, x: f64) -> SimDur {
    base.mul_f64((sigma * (r * x.cos())).exp())
}

/// Draws `u1`, `u2` and returns `(sqrt(-2 ln u1), 2π u2)`.
#[inline]
fn polar(rng: &mut SmallRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt(), std::f64::consts::TAU * u2)
}

/// Samples a jittered latency: `base * exp(sigma * N(0,1))`.
///
/// A `sigma` of 0 returns `base` exactly, keeping tests deterministic;
/// it and a zero `base` consume no draw.
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
    Draw::new(rng, sigma).scale(base, sigma)
}

/// Samples a standard normal via Box–Muller (one value per call, with
/// libm `cos`). Jittered latencies take the faster [`sample`] path,
/// which draws the same two uniforms.
pub fn standard_normal(rng: &mut SmallRng) -> f64 {
    let (r, x) = polar(rng);
    r * x.cos()
}

/// A jitter stream with its own generator and one sigma.
///
/// [`Jitter::sample`] returns exactly what repeated
/// [`sample`]`(rng, base, sigma)` calls on the same generator would, but
/// draws 64 uniform pairs ahead and computes their lognormal factors
/// in one loop, so the `ln`/`sqrt`/`exp` chains of consecutive draws
/// overlap. Drawing ahead is invisible only because nothing else reads
/// the generator: give a `Jitter` a stream of its own.
///
/// ```
/// use lp_hw::jitter::{sample, Jitter};
/// use lp_sim::{rng::rng, SimDur};
/// let mut stream = Jitter::new(rng(3, 0), 0.05);
/// let mut plain = rng(3, 0);
/// for base in [SimDur::nanos(150), SimDur::ZERO, SimDur::nanos(400)] {
///     assert_eq!(stream.sample(base), sample(&mut plain, base, 0.05));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Jitter {
    rng: SmallRng,
    sigma: f64,
    /// Index of the next unread draw; `BATCH` means empty.
    next: usize,
    draws: [Draw; BATCH],
}

impl Jitter {
    /// A stream reading `rng`, which must be read by nothing else.
    pub fn new(rng: SmallRng, sigma: f64) -> Self {
        Jitter {
            rng,
            sigma,
            next: BATCH,
            draws: [Draw::default(); BATCH],
        }
    }

    /// Samples `base * exp(sigma * N(0,1))`; see [`sample`].
    #[inline]
    pub fn sample(&mut self, base: SimDur) -> SimDur {
        if self.sigma == 0.0 || base.is_zero() {
            return base;
        }
        if self.next == BATCH {
            self.refill();
        }
        let draw = self.draws[self.next];
        self.next += 1;
        draw.scale(base, self.sigma)
    }

    #[cold]
    fn refill(&mut self) {
        for d in &mut self.draws {
            *d = Draw::new(&mut self.rng, self.sigma);
        }
        self.next = 0;
    }
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

    #[test]
    fn table_matches_libm() {
        for (k, [c, s]) in table::COS_SIN.iter().enumerate() {
            // kπ/128 = hi + lo with `hi` exact; first order in `lo`.
            let (hi, lo) = (k as f64 * STEP_HI, k as f64 * STEP_LO);
            let (want_c, want_s) = (hi.cos() - hi.sin() * lo, hi.sin() + hi.cos() * lo);
            assert!((c - want_c).abs() <= 2e-16, "cos row {k}");
            assert!((s - want_s).abs() <= 2e-16, "sin row {k}");
        }
        assert_eq!(
            STEP_HI.to_bits() & ((1 << 20) - 1),
            0,
            "STEP_HI has 33 bits"
        );
    }

    #[test]
    fn cos_matches_libm() {
        // Every value `2π·u2` can take is a multiple of 2π·2^-53; sweep
        // a dense grid plus both ends and the row boundaries.
        let n = 1 << 20;
        let mut worst = 0.0f64;
        let mut check = |x: f64| {
            worst = worst.max((cos(x) - x.cos()).abs());
        };
        for i in 0..n {
            check(std::f64::consts::TAU * (i as f64 + 0.5) / n as f64);
        }
        for k in 0..=256 {
            let a = k as f64 * std::f64::consts::PI / 128.0;
            for x in [a, a + STEP_HI / 2.0, a - STEP_HI / 2.0] {
                if (0.0..=std::f64::consts::TAU).contains(&x) {
                    check(x);
                }
            }
        }
        check(0.0);
        check(std::f64::consts::TAU * (1.0 - f64::EPSILON / 2.0));
        assert!(worst <= 4e-16, "max |cos - libm cos| = {worst:e}");
    }

    #[test]
    fn round_guarded_matches_round_outside_the_band() {
        for v in [0.0, 0.2, 0.6, 1.4999, 2.5001, 1e9 + 0.25, 1e11 + 0.875] {
            assert_eq!(round_guarded(v), Some(v.round() as u64), "{v}");
        }
        for v in [
            0.5,
            7.5 + 5e-8,
            1e6 + 0.5 - 1e-6,
            4e15,
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_eq!(round_guarded(v), None, "{v}");
        }
    }
}
