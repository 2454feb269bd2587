//! Simulated time.
//!
//! The whole reproduction runs on a single monotonic clock measured in
//! **nanoseconds** held in a `u64`. Nanosecond resolution is sufficient to
//! resolve the smallest costs in the paper (an fcontext switch is ~40 ns,
//! `SENDUIPI` issue is ~100 ns) while still representing ~584 years of
//! simulated time, far beyond any experiment.
//!
//! Two newtypes keep instants and spans from being confused
//! ([C-NEWTYPE]): [`SimTime`] is a point on the simulation clock and
//! [`SimDur`] is a span between two points.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since simulation start.
///
/// ```
/// use lp_sim::{SimTime, SimDur};
/// let t = SimTime::ZERO + SimDur::micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// ```
/// use lp_sim::SimDur;
/// assert_eq!(SimDur::micros(5) / 2, SimDur::nanos(2_500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, with fractional part.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDur {
        debug_assert!(
            earlier <= self,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDur(self.0 - earlier.0)
    }

    /// The span from `earlier` to `self`, or [`SimDur::ZERO`] if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }
}

impl SimDur {
    /// The empty span.
    pub const ZERO: SimDur = SimDur(0);
    /// The largest representable span.
    pub const MAX: SimDur = SimDur(u64::MAX);

    /// Creates a span of `n` nanoseconds.
    pub const fn nanos(n: u64) -> Self {
        SimDur(n)
    }

    /// Creates a span of `n` microseconds.
    pub const fn micros(n: u64) -> Self {
        SimDur(n * 1_000)
    }

    /// Creates a span of `n` milliseconds.
    pub const fn millis(n: u64) -> Self {
        SimDur(n * 1_000_000)
    }

    /// Creates a span of `n` seconds.
    pub const fn secs(n: u64) -> Self {
        SimDur(n * 1_000_000_000)
    }

    /// Creates a span from fractional microseconds, rounding to the nearest
    /// nanosecond. Negative values clamp to zero.
    ///
    /// ```
    /// use lp_sim::SimDur;
    /// assert_eq!(SimDur::from_micros_f64(0.5), SimDur::nanos(500));
    /// assert_eq!(SimDur::from_micros_f64(-1.0), SimDur::ZERO);
    /// ```
    pub fn from_micros_f64(us: f64) -> Self {
        if us <= 0.0 || !us.is_finite() {
            return SimDur::ZERO;
        }
        SimDur(round_positive(us * 1_000.0))
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// nanosecond. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDur::ZERO;
        }
        SimDur(round_positive(s * 1_000_000_000.0))
    }

    /// The span in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// `true` if this is the empty span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Difference that clamps at zero instead of panicking.
    pub fn saturating_sub(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(other.0))
    }

    /// Addition that clamps at [`SimDur::MAX`].
    pub fn saturating_add(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_add(other.0))
    }

    /// Multiplies by a non-negative float, rounding to the nearest
    /// nanosecond.
    pub fn mul_f64(self, k: f64) -> SimDur {
        debug_assert!(k >= 0.0, "SimDur::mul_f64: negative factor {k}");
        SimDur::from_micros_f64(self.as_micros_f64() * k)
    }
}

/// `x.round() as u64` for `x > 0`, rounding ties away from zero.
///
/// Below `2^52`, `x as u64` is `floor(x)` and `x - floor(x)` is exact,
/// so one compare finishes the rounding without `f64::round` (a call
/// into a software routine on targets without SSE4.1). Larger and
/// non-finite values keep `f64::round`.
fn round_positive(x: f64) -> u64 {
    const TWO_POW_52: f64 = (1u64 << 52) as f64;
    if x < TWO_POW_52 {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        x.round() as u64
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        *self = *self + rhs;
    }
}

impl Sub<SimDur> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDur) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    fn sub(self, rhs: SimTime) -> SimDur {
        self.since(rhs)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.checked_add(rhs.0).expect("SimDur overflow"))
    }
}

impl AddAssign for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        *self = *self + rhs;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.checked_sub(rhs.0).expect("SimDur underflow"))
    }
}

impl SubAssign for SimDur {
    fn sub_assign(&mut self, rhs: SimDur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0.checked_mul(rhs).expect("SimDur overflow"))
    }
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    fn div(self, rhs: u64) -> SimDur {
        SimDur(self.0 / rhs)
    }
}

impl Div for SimDur {
    /// How many times `rhs` fits in `self` (integer division).
    type Output = u64;
    fn div(self, rhs: SimDur) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem for SimDur {
    type Output = SimDur;
    fn rem(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 % rhs.0)
    }
}

impl Sum for SimDur {
    fn sum<I: Iterator<Item = SimDur>>(iter: I) -> SimDur {
        iter.fold(SimDur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDur(self.0))
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "inf")
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(SimDur::micros(1).as_nanos(), 1_000);
        assert_eq!(SimDur::millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDur::secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
        assert_eq!(SimDur::secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimDur::micros(3).as_micros_f64(), 3.0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDur::micros(10);
        assert_eq!((t - SimTime::ZERO).as_nanos(), 10_000);
        assert_eq!(t - SimDur::micros(4), SimTime::from_nanos(6_000));
        assert_eq!(t.since(SimTime::from_nanos(1_000)), SimDur::nanos(9_000));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::from_nanos(5).saturating_since(SimTime::from_nanos(9)),
            SimDur::ZERO
        );
        assert_eq!(
            SimDur::nanos(3).saturating_sub(SimDur::nanos(10)),
            SimDur::ZERO
        );
        assert_eq!(SimDur::MAX.saturating_add(SimDur::nanos(1)), SimDur::MAX);
    }

    #[test]
    #[should_panic(expected = "SimTime underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimDur::nanos(2);
    }

    #[test]
    fn float_conversions_round_and_clamp() {
        assert_eq!(SimDur::from_micros_f64(1.2345), SimDur::nanos(1_235)); // rounds
        assert_eq!(SimDur::from_micros_f64(f64::NAN), SimDur::ZERO);
        assert_eq!(SimDur::from_micros_f64(-3.0), SimDur::ZERO);
        assert_eq!(SimDur::from_secs_f64(0.25), SimDur::millis(250));
        assert_eq!(SimDur::from_secs_f64(f64::INFINITY), SimDur::ZERO);
    }

    #[test]
    fn integer_round_matches_f64_round() {
        let two52 = (1u64 << 52) as f64;
        for x in [
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            1e-300,
            999.4999999999999,
            two52 - 0.5,
            two52 - 1.5,
            two52,
            two52 + 1.0,
            1e19,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ] {
            assert_eq!(round_positive(x), x.round() as u64, "{x:e}");
        }
        for us in [0.0005f64, 0.0015, 0.0025, 1.0005, 123.4565] {
            let want = SimDur::nanos((us * 1_000.0).round() as u64);
            assert_eq!(SimDur::from_micros_f64(us), want, "{us}");
        }
        assert_eq!(SimDur::from_secs_f64(2.5e-9), SimDur::nanos(3));
    }

    mod round_props {
        use super::round_positive;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(20_000))]
            #[test]
            fn integer_round_agrees_with_f64_round(bits in any::<u64>(), half in 0u64..(1u64 << 54)) {
                // Any positive non-NaN bit pattern, every half-integer
                // (ties) up to 2^53, and the double just below each.
                let x = f64::from_bits(bits >> 1);
                if x > 0.0 && !x.is_nan() {
                    prop_assert_eq!(round_positive(x), x.round() as u64);
                }
                let tie = half as f64 * 0.5;
                let below = tie * (1.0 - f64::EPSILON / 2.0);
                for y in [tie, below] {
                    if y > 0.0 {
                        prop_assert_eq!(round_positive(y), y.round() as u64, "{}", y);
                    }
                }
            }
        }
    }

    #[test]
    fn dur_arithmetic() {
        assert_eq!(SimDur::micros(4) * 3, SimDur::micros(12));
        assert_eq!(SimDur::micros(9) / 2, SimDur::nanos(4_500));
        assert_eq!(SimDur::micros(10) / SimDur::micros(3), 3);
        assert_eq!(SimDur::micros(10) % SimDur::micros(3), SimDur::micros(1));
        assert_eq!(SimDur::micros(5).mul_f64(0.5), SimDur::nanos(2_500));
        let total: SimDur = [SimDur::micros(1), SimDur::micros(2)].into_iter().sum();
        assert_eq!(total, SimDur::micros(3));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDur::nanos(17).to_string(), "17ns");
        assert_eq!(SimDur::micros(2).to_string(), "2.000us");
        assert_eq!(SimDur::millis(3).to_string(), "3.000ms");
        assert_eq!(SimDur::secs(4).to_string(), "4.000s");
        assert_eq!(SimDur::MAX.to_string(), "inf");
        assert_eq!(SimTime::from_nanos(1_500).to_string(), "1.500us");
    }
}
