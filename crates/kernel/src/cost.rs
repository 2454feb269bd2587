//! Calibrated kernel cost model.
//!
//! Companion to [`lp_hw::HwCosts`]: the latency constants of the
//! kernel-mediated paths (signals, timers, syscalls) that the paper's
//! baselines depend on and that LibPreemptible exists to avoid.

use lp_sim::SimDur;

/// Latency constants for the simulated Linux 5.15 kernel.
///
/// Anchors:
///
/// * Table IV: signal ping-pong min 3.58 us — the uncontended
///   signal-delivery floor.
/// * Fig. 11: signal delivery cost grows superlinearly to ~100 us at 32
///   simultaneous timers, driven by a kernel lock taken in the signal
///   path; the hold time below reproduces that slope.
/// * Fig. 12: a kernel timer asked for a 20 us period actually fires at
///   ~60 us with high variance — the `timer_floor` plus slack.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCosts {
    /// Syscall entry/exit (ring transition + prologue).
    pub syscall: SimDur,
    /// Uncontended one-way signal delivery: sender syscall through
    /// handler invocation on the receiver.
    pub signal_deliver_base: SimDur,
    /// User-side signal handler entry + `sigreturn`.
    pub signal_handler: SimDur,
    /// Hold time of the kernel lock serializing signal dispatch to
    /// runnable threads (per-process sighand/runqueue interplay).
    pub signal_lock_hold: SimDur,
    /// Extra hold per concurrent waiter (cacheline bouncing makes the
    /// critical section itself dilate under contention; this produces
    /// Fig. 11's superlinearity).
    pub signal_lock_contention: f64,
    /// Effective minimum period of a kernel timer under load: below
    /// this, expirations quantize up (hrtimer slack + softirq batching).
    pub timer_floor: SimDur,
    /// Multiplicative jitter sigma on timer expiry.
    pub timer_jitter_sigma: f64,
    /// Cost of `timer_settime(2)`/`timerfd_settime(2)` to (re)arm.
    pub timer_arm: SimDur,
    /// Probability per timer expiry of colliding with unrelated kernel
    /// activity (IRQs, TLB shootdowns) and eating a spike.
    pub noise_spike_prob: f64,
    /// Magnitude of such a spike.
    pub noise_spike: SimDur,
    /// Kernel thread context switch (sched + CR3 swap), used by the
    /// blocked paths of eventfd/pipe/mq.
    pub ctx_switch: SimDur,
}

impl Default for KernelCosts {
    fn default() -> Self {
        Self::linux_5_15()
    }
}

impl KernelCosts {
    /// The calibrated kernel model used by every experiment.
    pub fn linux_5_15() -> Self {
        KernelCosts {
            syscall: SimDur::nanos(350),
            signal_deliver_base: SimDur::nanos(3_500),
            signal_handler: SimDur::nanos(550),
            signal_lock_hold: SimDur::nanos(2_400),
            signal_lock_contention: 0.035,
            timer_floor: SimDur::micros(55),
            timer_jitter_sigma: 0.18,
            timer_arm: SimDur::nanos(900),
            noise_spike_prob: 0.02,
            noise_spike: SimDur::micros(25),
            ctx_switch: SimDur::nanos(1_500),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_floor_matches_table_iv_min() {
        let k = KernelCosts::default();
        let min_path = k.signal_deliver_base + k.signal_handler;
        let us = min_path.as_micros_f64();
        assert!((3.0..5.0).contains(&us), "signal floor = {us} us");
    }

    #[test]
    fn timer_floor_matches_fig12() {
        let k = KernelCosts::default();
        // Fig. 12: a 20 us kernel timer actually fires around 60 us.
        let us = k.timer_floor.as_micros_f64();
        assert!((45.0..70.0).contains(&us), "timer floor = {us} us");
    }

    #[test]
    fn contended_signal_storm_reaches_fig11_scale() {
        // 32 threads' timers firing at once: the last waiter should see
        // on the order of 100 us (Fig. 11, creation-time curve).
        let k = KernelCosts::default();
        let n = 32.0;
        let dilated_hold =
            k.signal_lock_hold.as_micros_f64() * (1.0 + k.signal_lock_contention * n);
        let last_wait = (n - 1.0) * dilated_hold + k.signal_deliver_base.as_micros_f64();
        assert!(
            (80.0..220.0).contains(&last_wait),
            "worst-case storm latency = {last_wait} us"
        );
    }
}
