//! Kernel timers: granularity floor, slack, and noise.
//!
//! Fig. 12 of the paper shows that a kernel timer asked for a 20 us
//! period actually fires around 60 us with large variance, while
//! LibUtimer tracks the target within ~1%. The floor comes from hrtimer
//! slack and softirq batching; the variance from unrelated kernel
//! activity. Both are explicit parameters here
//! ([`KernelCosts::timer_floor`], [`KernelCosts::timer_jitter_sigma`],
//! noise spikes).

use lp_sim::fault::TimerFault;
use lp_sim::obs::{Event, Observer};
use lp_sim::{SimDur, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::cost::KernelCosts;
use lp_hw::jitter;

/// A simulated kernel timer (POSIX `timer_create` + `timer_settime`
/// semantics at the fidelity the experiments need).
#[derive(Debug)]
pub struct KernelTimer {
    costs: KernelCosts,
    rng: SmallRng,
    target: SimDur,
    armed: bool,
}

impl KernelTimer {
    /// Creates a timer; arming costs are charged by the caller via
    /// [`arm_cost`](Self::arm_cost).
    pub fn new(costs: KernelCosts, rng: SmallRng) -> Self {
        KernelTimer {
            costs,
            rng,
            target: SimDur::ZERO,
            armed: false,
        }
    }

    /// CPU cost of the arming syscall.
    pub fn arm_cost(&self) -> SimDur {
        self.costs.timer_arm + self.costs.syscall
    }

    /// Arms the timer for `target` from now (periodic re-arm uses the
    /// same path).
    pub fn arm(&mut self, target: SimDur) {
        assert!(!target.is_zero(), "cannot arm a zero-length kernel timer");
        self.target = target;
        self.armed = true;
    }

    /// [`arm`](Self::arm) plus a `ktimer_armed` event recording the
    /// requested interval for `worker`.
    pub fn arm_observed(&mut self, target: SimDur, worker: u16, at: SimTime, obs: &mut Observer) {
        self.arm(target);
        obs.emit(
            at,
            Event::KtimerArmed {
                worker,
                target_ns: target.as_nanos(),
            },
        );
    }

    /// Disarms without firing.
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// Samples the *actual* delay until expiry for the armed interval.
    ///
    /// # Panics
    ///
    /// Panics if the timer is not armed.
    pub fn sample_expiry(&mut self) -> SimDur {
        assert!(self.armed, "sampling expiry of a disarmed timer");
        let effective = self.target.max(self.costs.timer_floor);
        let mut delay = jitter::sample(&mut self.rng, effective, self.costs.timer_jitter_sigma);
        if self.rng.gen_bool(self.costs.noise_spike_prob) {
            delay += jitter::sample(&mut self.rng, self.costs.noise_spike, 0.4);
        }
        // An expiry can be late, never early.
        delay.max(self.target)
    }

    /// [`sample_expiry`](Self::sample_expiry) with a pre-sampled fault
    /// decision applied. The decision comes from
    /// [`FaultInjector::timer_at`](lp_sim::fault::FaultInjector::timer_at) —
    /// this layer never draws fault randomness itself.
    ///
    /// * `None` — identical to [`sample_expiry`](Self::sample_expiry)
    ///   (same RNG draws, same delay), wrapped in `Some`.
    /// * [`TimerFault::Miss`] — the kernel loses the arming entirely:
    ///   returns `None` and consumes no expiry randomness; the caller
    ///   must not schedule a fire (the runtime watchdog recovers).
    /// * [`TimerFault::JitterSpike`] — a normal expiry, late by the
    ///   spike duration.
    /// * [`TimerFault::Spurious`] — a normal expiry; the *caller*
    ///   additionally schedules one extra, spurious fire.
    ///
    /// # Panics
    ///
    /// Panics if the timer is not armed.
    fn sample_expiry_with_fault(&mut self, fault: Option<TimerFault>) -> Option<SimDur> {
        assert!(self.armed, "sampling expiry of a disarmed timer");
        match fault {
            None | Some(TimerFault::Spurious) => Some(self.sample_expiry()),
            Some(TimerFault::Miss) => None,
            Some(TimerFault::JitterSpike(extra)) => Some(self.sample_expiry() + extra),
        }
    }

    /// `sample_expiry_with_fault` plus,
    /// when an expiry actually fires, a `ktimer_fired` event stamped at
    /// the sampled expiry instant. A missed expiry emits nothing here —
    /// the runtime emits the matching `fault_injected` event.
    ///
    /// # Panics
    ///
    /// Panics if the timer is not armed.
    pub fn sample_expiry_with_fault_observed(
        &mut self,
        fault: Option<TimerFault>,
        worker: u16,
        at: SimTime,
        obs: &mut Observer,
    ) -> Option<SimDur> {
        let delay = self.sample_expiry_with_fault(fault)?;
        obs.emit(at + delay, Event::KtimerFired { worker });
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::rng::rng;

    fn timer(seed: u64) -> KernelTimer {
        KernelTimer::new(KernelCosts::default(), rng(seed, 1))
    }

    fn mean_std(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let m = samples.iter().sum::<f64>() / n;
        let v = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
        (m, v.sqrt())
    }

    #[test]
    fn sub_floor_target_quantizes_up() {
        // Fig. 12: a 20 us request fires around the ~55-60 us floor.
        let mut t = timer(1);
        t.arm(SimDur::micros(20));
        let xs: Vec<f64> = (0..5_000)
            .map(|_| t.sample_expiry().as_micros_f64())
            .collect();
        let (m, s) = mean_std(&xs);
        assert!((45.0..75.0).contains(&m), "mean = {m} us");
        assert!(s > 5.0, "kernel timer must jitter, std = {s} us");
    }

    #[test]
    fn above_floor_tracks_target_with_jitter() {
        let mut t = timer(2);
        t.arm(SimDur::micros(100));
        let xs: Vec<f64> = (0..5_000)
            .map(|_| t.sample_expiry().as_micros_f64())
            .collect();
        let (m, s) = mean_std(&xs);
        assert!((95.0..125.0).contains(&m), "mean = {m} us");
        assert!(s > 10.0, "std = {s} us");
    }

    #[test]
    fn never_fires_early() {
        let mut t = timer(3);
        t.arm(SimDur::micros(80));
        for _ in 0..2_000 {
            assert!(t.sample_expiry() >= SimDur::micros(80));
        }
    }

    #[test]
    fn arm_disarm_state() {
        let mut t = timer(4);
        assert!(!t.armed);
        t.arm(SimDur::micros(10));
        assert!(t.armed);
        assert_eq!(t.target, SimDur::micros(10));
        t.disarm();
        assert!(!t.armed);
        assert!(!t.arm_cost().is_zero());
    }

    #[test]
    fn observed_arm_and_expiry_emit_events() {
        use lp_sim::obs::{Counter, Event, Observer};
        let mut t = timer(7);
        let mut obs = Observer::new(8);
        let at = SimTime::from_nanos(1_000);
        t.arm_observed(SimDur::micros(30), 4, at, &mut obs);
        let delay = t
            .sample_expiry_with_fault_observed(None, 4, at, &mut obs)
            .unwrap();
        assert_eq!(obs.metrics().get(Counter::KtimersArmed), 1);
        assert_eq!(obs.metrics().get(Counter::KtimersFired), 1);
        let evs: Vec<_> = obs.events().copied().collect();
        assert_eq!(evs[0].at, at);
        assert_eq!(
            evs[0].ev,
            Event::KtimerArmed {
                worker: 4,
                target_ns: 30_000
            }
        );
        // The fired event is stamped at the sampled expiry instant.
        assert_eq!(evs[1].at, at + delay);
        assert_eq!(evs[1].ev, Event::KtimerFired { worker: 4 });
    }

    #[test]
    #[should_panic(expected = "disarmed timer")]
    fn sampling_disarmed_panics() {
        timer(5).sample_expiry();
    }

    #[test]
    fn fault_free_expiry_matches_plain_sampling() {
        // Same seed, no fault: the `_with_fault` path must consume the
        // RNG identically to the plain one.
        let mut a = timer(8);
        let mut b = timer(8);
        a.arm(SimDur::micros(60));
        b.arm(SimDur::micros(60));
        for _ in 0..500 {
            assert_eq!(a.sample_expiry_with_fault(None), Some(b.sample_expiry()));
        }
    }

    #[test]
    fn injected_timer_faults() {
        use lp_sim::fault::TimerFault;
        let mut t = timer(9);
        t.arm(SimDur::micros(60));
        // A miss never fires and leaves the timer armed for re-use.
        assert_eq!(t.sample_expiry_with_fault(Some(TimerFault::Miss)), None);
        assert!(t.armed);
        // A spike is a normal expiry pushed later by exactly the spike.
        let mut u = timer(10);
        let mut v = timer(10);
        u.arm(SimDur::micros(60));
        v.arm(SimDur::micros(60));
        let plain = v.sample_expiry();
        let spiked = u
            .sample_expiry_with_fault(Some(TimerFault::JitterSpike(SimDur::micros(40))))
            .unwrap();
        assert_eq!(spiked, plain + SimDur::micros(40));
        // Spurious fires normally (the extra fire is the caller's job).
        let mut w = timer(10);
        w.arm(SimDur::micros(60));
        assert_eq!(
            w.sample_expiry_with_fault(Some(TimerFault::Spurious)),
            Some(plain)
        );
    }

    #[test]
    fn missed_expiry_emits_no_fire_event() {
        use lp_sim::fault::TimerFault;
        use lp_sim::obs::{Counter, Observer};
        let mut t = timer(11);
        let mut obs = Observer::new(4);
        t.arm_observed(SimDur::micros(30), 2, SimTime::ZERO, &mut obs);
        let fired =
            t.sample_expiry_with_fault_observed(Some(TimerFault::Miss), 2, SimTime::ZERO, &mut obs);
        assert_eq!(fired, None);
        assert_eq!(obs.metrics().get(Counter::KtimersArmed), 1);
        assert_eq!(obs.metrics().get(Counter::KtimersFired), 0);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_arm_panics() {
        timer(6).arm(SimDur::ZERO);
    }
}
