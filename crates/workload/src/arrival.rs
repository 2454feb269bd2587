//! Arrival processes and time-varying schedules.
//!
//! The synthetic experiments use Poisson ("poison" in the paper text)
//! arrivals at a configured rate; the colocation experiments of Fig. 14
//! add a *bursty* open-loop generator whose QPS jumps between a base and
//! spike level ("our workload QPS changes from 40 to 110 kRPS").

use lp_sim::{SimDur, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

/// A (possibly time-varying) arrival-rate schedule in requests/second.
#[derive(Debug, Clone, PartialEq)]
pub enum RateSchedule {
    /// Constant rate.
    Constant(f64),
    /// Alternates `base_rps` for `base_for`, then `spike_rps` for
    /// `spike_for`, repeating — Fig. 14's bursty load.
    Square {
        /// Baseline rate.
        base_rps: f64,
        /// Duration at baseline per cycle.
        base_for: SimDur,
        /// Spike rate.
        spike_rps: f64,
        /// Duration at spike per cycle.
        spike_for: SimDur,
    },
    /// Piecewise-constant phases, each `(duration, rps)`; the last phase
    /// extends forever.
    Phases(Vec<(SimDur, f64)>),
}

impl RateSchedule {
    /// The rate at instant `t`.
    ///
    /// # Panics
    ///
    /// Panics if a `Phases` schedule is empty.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match self {
            RateSchedule::Constant(r) => *r,
            RateSchedule::Square {
                base_rps,
                base_for,
                spike_rps,
                spike_for,
            } => {
                let cycle = *base_for + *spike_for;
                let into = SimDur::nanos(t.as_nanos()) % cycle;
                if into < *base_for {
                    *base_rps
                } else {
                    *spike_rps
                }
            }
            RateSchedule::Phases(phases) => {
                assert!(!phases.is_empty(), "empty phase schedule");
                let mut elapsed = SimDur::ZERO;
                for (dur, rps) in phases {
                    elapsed += *dur;
                    if SimDur::nanos(t.as_nanos()) < elapsed {
                        return *rps;
                    }
                }
                phases.last().expect("non-empty").1
            }
        }
    }

    /// The maximum rate the schedule ever produces.
    pub fn peak_rate(&self) -> f64 {
        match self {
            RateSchedule::Constant(r) => *r,
            RateSchedule::Square {
                base_rps,
                spike_rps,
                ..
            } => base_rps.max(*spike_rps),
            RateSchedule::Phases(phases) => phases.iter().map(|(_, r)| *r).fold(0.0, f64::max),
        }
    }
}

/// Open-loop Poisson arrival generator driven by a [`RateSchedule`].
///
/// ```
/// use lp_workload::{ArrivalGen, RateSchedule};
/// use lp_sim::SimTime;
/// let mut gen = ArrivalGen::new(RateSchedule::Constant(1_000_000.0), lp_sim::rng::rng(1, 1));
/// let t1 = gen.next_arrival(SimTime::ZERO);
/// let t2 = gen.next_arrival(t1);
/// assert!(t2 > t1);
/// ```
#[derive(Debug)]
pub struct ArrivalGen {
    schedule: RateSchedule,
    rng: SmallRng,
}

impl ArrivalGen {
    /// Creates a generator with its own RNG substream.
    pub fn new(schedule: RateSchedule, rng: SmallRng) -> Self {
        ArrivalGen { schedule, rng }
    }

    /// Draws the next arrival instant strictly after `now`
    /// (exponential inter-arrival at the instantaneous rate; rates are
    /// re-sampled per arrival, which is accurate for schedules that
    /// change slowly relative to the inter-arrival gap).
    pub fn next_arrival(&mut self, now: SimTime) -> SimTime {
        let rate = self.schedule.rate_at(now);
        assert!(rate > 0.0, "arrival rate must be positive at {now}");
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap_s = -u.ln() / rate;
        let gap = SimDur::from_secs_f64(gap_s).max(SimDur::nanos(1));
        now + gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::rng::rng;

    #[test]
    fn constant_rate_matches_empirically() {
        let mut g = ArrivalGen::new(RateSchedule::Constant(100_000.0), rng(1, 1));
        let mut t = SimTime::ZERO;
        let n = 50_000;
        for _ in 0..n {
            t = g.next_arrival(t);
        }
        let measured = n as f64 / t.as_secs_f64();
        assert!(
            (measured - 100_000.0).abs() / 100_000.0 < 0.02,
            "measured rate {measured}"
        );
    }

    #[test]
    fn square_schedule_switches() {
        let s = RateSchedule::Square {
            base_rps: 40_000.0,
            base_for: SimDur::secs(8),
            spike_rps: 110_000.0,
            spike_for: SimDur::secs(2),
        };
        assert_eq!(s.rate_at(SimTime::from_nanos(0)), 40_000.0);
        assert_eq!(s.rate_at(SimTime::ZERO + SimDur::secs(9)), 110_000.0);
        // Periodicity.
        assert_eq!(s.rate_at(SimTime::ZERO + SimDur::secs(10)), 40_000.0);
        assert_eq!(s.rate_at(SimTime::ZERO + SimDur::secs(19)), 110_000.0);
        assert_eq!(s.peak_rate(), 110_000.0);
    }

    #[test]
    fn phased_schedule() {
        let s = RateSchedule::Phases(vec![(SimDur::secs(1), 10.0), (SimDur::secs(1), 20.0)]);
        assert_eq!(s.rate_at(SimTime::ZERO), 10.0);
        assert_eq!(s.rate_at(SimTime::ZERO + SimDur::millis(1_500)), 20.0);
        // Past the end: last phase persists.
        assert_eq!(s.rate_at(SimTime::ZERO + SimDur::secs(100)), 20.0);
        assert_eq!(s.peak_rate(), 20.0);
    }

    #[test]
    fn bursty_generator_produces_more_arrivals_in_spike() {
        let s = RateSchedule::Square {
            base_rps: 10_000.0,
            base_for: SimDur::secs(1),
            spike_rps: 100_000.0,
            spike_for: SimDur::secs(1),
        };
        let mut g = ArrivalGen::new(s, rng(2, 1));
        let mut t = SimTime::ZERO;
        let (mut base_n, mut spike_n) = (0u64, 0u64);
        while t < SimTime::ZERO + SimDur::secs(2) {
            t = g.next_arrival(t);
            if t < SimTime::ZERO + SimDur::secs(1) {
                base_n += 1;
            } else if t < SimTime::ZERO + SimDur::secs(2) {
                spike_n += 1;
            }
        }
        assert!(spike_n > 7 * base_n, "spike {spike_n} vs base {base_n}");
    }

    #[test]
    fn arrivals_strictly_increase() {
        let mut g = ArrivalGen::new(RateSchedule::Constant(10_000_000.0), rng(3, 1));
        let mut t = SimTime::ZERO;
        for _ in 0..10_000 {
            let next = g.next_arrival(t);
            assert!(next > t);
            t = next;
        }
    }
}
