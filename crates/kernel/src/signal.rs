//! Signal delivery with kernel lock contention.
//!
//! §V-B of the paper: "In Linux, calling a signal handler involves
//! taking a lock in the kernel, thus causing lock contention when
//! multiple signals are issued at the same time", producing the
//! superlinear per-thread-timer curve of Fig. 11. We model the lock as a
//! FIFO resource with a hold time that dilates with the number of
//! concurrent waiters (cacheline bouncing), which reproduces both the
//! uncontended Table IV floor and the contended storm behaviour.

use lp_sim::fault::SignalFault;
use lp_sim::obs::{Event, Observer};
use lp_sim::{SimDur, SimTime};
use rand::rngs::SmallRng;

use crate::cost::KernelCosts;
use lp_hw::jitter;

/// Outcome of one signal send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalDelivery {
    /// When the receiver's handler begins executing.
    pub handler_start: SimTime,
    /// Total receiver-visible latency (send initiation → handler entry).
    pub latency: SimDur,
    /// Time the sender's CPU was occupied (syscall + lock wait + hold).
    pub sender_busy: SimDur,
    /// How long the send waited on the kernel lock.
    pub lock_wait: SimDur,
}

/// The serialized kernel signal path.
///
/// ```
/// use lp_kernel::{KernelCosts, SignalPath};
/// use lp_sim::SimTime;
/// let mut path = SignalPath::new(KernelCosts::default(), lp_sim::rng::rng(1, 4));
/// let t = SimTime::ZERO;
/// let first = path.deliver(t);
/// let second = path.deliver(t); // same instant: must queue behind first
/// assert!(second.lock_wait > first.lock_wait);
/// assert!(second.latency > first.latency);
/// ```
#[derive(Debug)]
pub struct SignalPath {
    costs: KernelCosts,
    rng: SmallRng,
    /// Instant the signal lock becomes free.
    lock_free_at: SimTime,
    /// Sends observed in the current congestion epoch (decays when the
    /// lock goes idle); drives hold-time dilation.
    epoch_waiters: u32,
    delivered: u64,
}

impl SignalPath {
    /// Creates the path with its own RNG substream.
    pub fn new(costs: KernelCosts, rng: SmallRng) -> Self {
        SignalPath {
            costs,
            rng,
            lock_free_at: SimTime::ZERO,
            epoch_waiters: 0,
            delivered: 0,
        }
    }

    /// Total signals delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Delivers one signal initiated at `now`; serializes on the kernel
    /// lock.
    pub fn deliver(&mut self, now: SimTime) -> SignalDelivery {
        self.deliver_inner(now, 0)
    }

    fn deliver_inner(&mut self, now: SimTime, extra_waiters: u32) -> SignalDelivery {
        // New congestion epoch if the lock has been idle since before
        // `now`.
        if self.lock_free_at <= now {
            self.epoch_waiters = 0;
        }
        self.epoch_waiters += 1 + extra_waiters;

        let lock_wait = self.lock_free_at.saturating_since(now);
        let dilation = 1.0 + self.costs.signal_lock_contention * self.epoch_waiters as f64;
        let hold = jitter::sample(
            &mut self.rng,
            self.costs.signal_lock_hold.mul_f64(dilation),
            0.1,
        );
        let acquire_at = if self.lock_free_at > now {
            self.lock_free_at
        } else {
            now
        };
        self.lock_free_at = acquire_at + hold;

        let base = jitter::sample(&mut self.rng, self.costs.signal_deliver_base, 0.15);
        let latency = self.costs.syscall + lock_wait + hold + base + self.costs.signal_handler;
        self.delivered += 1;
        SignalDelivery {
            handler_start: now + latency,
            latency,
            sender_busy: self.costs.syscall + lock_wait + hold,
            lock_wait,
        }
    }

    /// [`deliver`](Self::deliver) with a pre-sampled fault decision
    /// applied. The decision comes from
    /// [`FaultInjector::signal`](lp_sim::fault::FaultInjector::signal).
    ///
    /// * `None` — identical to [`deliver`](Self::deliver) (same lock
    ///   state transitions, same RNG draws), wrapped in `Some`.
    /// * [`SignalFault::Lost`] — the signal vanishes before the kernel
    ///   queues it: no handler runs, no lock state changes, returns
    ///   `None`; the runtime watchdog recovers the lost preemption.
    /// * [`SignalFault::ContentionBurst`] — delivery proceeds but sees
    ///   that many extra waiters in its congestion epoch, inflating the
    ///   lock hold exactly as a real runqueue-lock storm would.
    pub fn deliver_with_fault(
        &mut self,
        now: SimTime,
        fault: Option<SignalFault>,
    ) -> Option<SignalDelivery> {
        match fault {
            None => Some(self.deliver(now)),
            Some(SignalFault::Lost) => None,
            Some(SignalFault::ContentionBurst(extra)) => Some(self.deliver_inner(now, extra)),
        }
    }

    /// [`deliver_with_fault`](Self::deliver_with_fault) plus, when
    /// delivery actually happens, a `signal_sent` event carrying the
    /// lock wait — the per-send view behind Fig. 11's contention
    /// curves. A lost signal emits nothing here — the runtime emits the
    /// matching `fault_injected` event.
    pub fn deliver_with_fault_observed(
        &mut self,
        now: SimTime,
        fault: Option<SignalFault>,
        worker: u16,
        obs: &mut Observer,
    ) -> Option<SignalDelivery> {
        let d = self.deliver_with_fault(now, fault)?;
        obs.emit(now, Event::SignalSent { worker, lock_wait_ns: d.lock_wait.as_nanos() });
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::rng::rng;

    fn path(seed: u64) -> SignalPath {
        SignalPath::new(KernelCosts::default(), rng(seed, 0))
    }

    #[test]
    fn uncontended_latency_near_floor() {
        let mut p = path(1);
        let mut total = 0.0;
        let n = 200;
        for i in 0..n {
            // Spread sends 1 ms apart: never contended.
            let d = p.deliver(SimTime::from_nanos(i * 1_000_000));
            assert_eq!(d.lock_wait, SimDur::ZERO);
            total += d.latency.as_micros_f64();
        }
        let avg = total / n as f64;
        assert!((5.0..10.0).contains(&avg), "uncontended avg = {avg} us");
    }

    #[test]
    fn simultaneous_storm_serializes_fifo() {
        let mut p = path(2);
        let t = SimTime::from_nanos(1_000);
        let deliveries: Vec<SignalDelivery> = (0..32).map(|_| p.deliver(t)).collect();
        // Strictly increasing handler start times.
        for w in deliveries.windows(2) {
            assert!(w[1].handler_start > w[0].handler_start);
            assert!(w[1].lock_wait >= w[0].lock_wait);
        }
        // The last waiter sees Fig. 11-scale latency (tens of us).
        let worst = deliveries.last().unwrap().latency.as_micros_f64();
        assert!(worst > 60.0, "worst storm latency = {worst} us");
    }

    #[test]
    fn storm_is_superlinear_in_thread_count() {
        // The *contention* component (latency beyond the uncontended
        // path) must grow faster than linearly in the storm size: 32/8
        // threads is 4x, so the excess ratio must exceed 4 by a margin.
        let avg_excess_for = |n: u64, seed: u64| {
            let mut p = path(seed);
            let t = SimTime::ZERO;
            let lats: Vec<f64> = (0..n).map(|_| p.deliver(t).latency.as_micros_f64()).collect();
            // A lone send much later gives the uncontended base.
            let base = p.deliver(SimTime::from_nanos(1_000_000_000)).latency.as_micros_f64();
            lats.iter().sum::<f64>() / n as f64 - base
        };
        let a8: f64 = (0..20).map(|s| avg_excess_for(8, 100 + s)).sum::<f64>() / 20.0;
        let a32: f64 = (0..20).map(|s| avg_excess_for(32, 200 + s)).sum::<f64>() / 20.0;
        assert!(
            a32 > 4.4 * a8,
            "expected superlinear growth of contention: excess(8)={a8}, excess(32)={a32}"
        );
    }

    #[test]
    fn contention_epoch_resets_when_idle() {
        let mut p = path(3);
        let t0 = SimTime::ZERO;
        for _ in 0..16 {
            p.deliver(t0);
        }
        // Much later, a single send is uncontended again.
        let lone = p.deliver(SimTime::from_nanos(10_000_000));
        assert_eq!(lone.lock_wait, SimDur::ZERO);
        assert!(lone.latency.as_micros_f64() < 12.0);
        assert_eq!(p.delivered(), 17);
    }

    #[test]
    fn observed_delivery_carries_lock_wait() {
        use lp_sim::obs::{Counter, Observer};
        let mut p = path(5);
        let mut obs = Observer::new(8);
        let t = SimTime::from_nanos(500);
        let first = p.deliver_with_fault_observed(t, None, 1, &mut obs).unwrap();
        // The second send queues behind the first.
        let second = p.deliver_with_fault_observed(t, None, 2, &mut obs).unwrap();
        assert_eq!(obs.metrics().get(Counter::SignalsSent), 2);
        let evs: Vec<_> = obs.events().copied().collect();
        assert_eq!(
            evs[0].ev,
            Event::SignalSent { worker: 1, lock_wait_ns: first.lock_wait.as_nanos() }
        );
        assert_eq!(
            evs[1].ev,
            Event::SignalSent { worker: 2, lock_wait_ns: second.lock_wait.as_nanos() }
        );
        assert!(second.lock_wait > first.lock_wait);
    }

    #[test]
    fn fault_free_delivery_matches_plain_path() {
        let mut a = path(6);
        let mut b = path(6);
        for i in 0..100u64 {
            let t = SimTime::from_nanos(i * 3_000);
            assert_eq!(a.deliver_with_fault(t, None), Some(b.deliver(t)));
        }
    }

    #[test]
    fn injected_signal_faults() {
        use lp_sim::fault::SignalFault;
        let mut p = path(7);
        let t = SimTime::from_nanos(1_000);
        // A lost signal changes nothing: no delivery count, no lock
        // state, so the next send is uncontended.
        assert_eq!(p.deliver_with_fault(t, Some(SignalFault::Lost)), None);
        assert_eq!(p.delivered(), 0);
        let after = p.deliver(t);
        assert_eq!(after.lock_wait, SimDur::ZERO);
        // A contention burst dilates the hold like a real storm.
        let mut calm = path(8);
        let mut stormy = path(8);
        let later = SimTime::from_nanos(50_000_000);
        let base = calm.deliver(later);
        let burst = stormy
            .deliver_with_fault(later, Some(SignalFault::ContentionBurst(16)))
            .unwrap();
        assert!(
            burst.latency > base.latency,
            "burst {:?} must exceed calm {:?}",
            burst.latency,
            base.latency
        );
    }

    #[test]
    fn lost_signal_emits_no_event() {
        use lp_sim::fault::SignalFault;
        use lp_sim::obs::{Counter, Observer};
        let mut p = path(9);
        let mut obs = Observer::new(4);
        let out =
            p.deliver_with_fault_observed(SimTime::ZERO, Some(SignalFault::Lost), 3, &mut obs);
        assert!(out.is_none());
        assert_eq!(obs.metrics().get(Counter::SignalsSent), 0);
    }

    #[test]
    fn staggered_sends_avoid_contention() {
        // Spacing sends by more than the hold time keeps lock waits at
        // zero — the "per-thread (aligned)" strategy of Fig. 11.
        let mut p = path(4);
        for i in 0..32u64 {
            let d = p.deliver(SimTime::from_nanos(i * 50_000)); // 50 us apart
            assert_eq!(d.lock_wait, SimDur::ZERO, "send {i} contended");
        }
    }
}
