//! Time-phased service distributions (workload C).
//!
//! Workload C is "a workload with first half as heavy tailed (A1) and
//! second half as lighter tailed (B), representing a distribution shift
//! in client request patterns". [`PhasedService`] switches the sampled
//! distribution by simulated time.

use lp_sim::{SimDur, SimTime};
use rand::rngs::SmallRng;

use crate::dist::ServiceDist;

/// A piecewise-in-time service distribution; the last phase extends
/// forever.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedService {
    phases: Vec<(SimDur, ServiceDist)>,
}

impl PhasedService {
    /// Builds a phased distribution.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    pub fn new(phases: Vec<(SimDur, ServiceDist)>) -> Self {
        assert!(
            !phases.is_empty(),
            "phased service needs at least one phase"
        );
        PhasedService { phases }
    }

    /// A single-phase (static) distribution.
    pub fn constant(dist: ServiceDist) -> Self {
        Self::new(vec![(SimDur::MAX, dist)])
    }

    /// Workload C over a total experiment length: A1 for the first half,
    /// B for the second.
    pub fn workload_c(total: SimDur) -> Self {
        Self::new(vec![
            (total / 2, ServiceDist::workload_a1()),
            (SimDur::MAX, ServiceDist::workload_b()),
        ])
    }

    /// The distribution active at `t`.
    fn dist_at(&self, t: SimTime) -> &ServiceDist {
        let mut elapsed = SimDur::ZERO;
        for (dur, dist) in &self.phases {
            elapsed = elapsed.saturating_add(*dur);
            if SimDur::nanos(t.as_nanos()) < elapsed {
                return dist;
            }
        }
        &self.phases.last().expect("non-empty").1
    }

    /// Samples a service time for a request arriving at `t`.
    pub fn sample(&self, t: SimTime, rng: &mut SmallRng) -> SimDur {
        self.dist_at(t).sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::rng::rng;

    #[test]
    fn workload_c_switches_halfway() {
        let c = PhasedService::workload_c(SimDur::secs(10));
        let early = c.dist_at(SimTime::ZERO + SimDur::secs(2));
        let late = c.dist_at(SimTime::ZERO + SimDur::secs(7));
        assert_eq!(early, &ServiceDist::workload_a1());
        assert_eq!(late, &ServiceDist::workload_b());
        // Far past the end: still B.
        assert_eq!(
            c.dist_at(SimTime::ZERO + SimDur::secs(1_000)),
            &ServiceDist::workload_b()
        );
    }

    #[test]
    fn constant_never_switches() {
        let p = PhasedService::constant(ServiceDist::workload_b());
        assert_eq!(
            p.dist_at(SimTime::ZERO + SimDur::secs(10_000)),
            &ServiceDist::workload_b()
        );
    }

    #[test]
    fn sample_uses_active_phase() {
        // Phase 1 is constant 1 us, phase 2 constant 9 us: samples are
        // exactly distinguishable.
        let p = PhasedService::new(vec![
            (SimDur::secs(1), ServiceDist::Constant(SimDur::micros(1))),
            (SimDur::MAX, ServiceDist::Constant(SimDur::micros(9))),
        ]);
        let mut r = rng(1, 2);
        assert_eq!(p.sample(SimTime::ZERO, &mut r), SimDur::micros(1));
        assert_eq!(
            p.sample(SimTime::ZERO + SimDur::secs(2), &mut r),
            SimDur::micros(9)
        );
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_panics() {
        PhasedService::new(vec![]);
    }
}
