//! Calibrated hardware cost model.
//!
//! Every latency constant the simulator charges lives here, each anchored
//! to a measurement the paper (or the cited prior work) reports. The
//! macro-experiments never reference these numbers directly — they emerge
//! through the queueing dynamics — so the *shape* of every figure is a
//! property of the mechanisms, with these constants setting the scales.

use lp_sim::SimDur;

/// Latency constants for the simulated Sapphire Rapids machine.
///
/// Defaults are calibrated to the paper's own microbenchmarks:
///
/// * Table IV: `uintrFd` ping-pong averages 0.734 us running /
///   2.393 us blocked. A ping-pong round trip is send + deliver +
///   handler, so one-way delivery to a *running* receiver is ~0.4 us and
///   the kernel-assisted blocked path ~2 us.
/// * §IV-B / Shinjuku §4: a user-level (fcontext) switch is tens of ns.
/// * Fig. 1 (left): hardware IPC delivery is ~10x faster than the best
///   software path.
#[derive(Debug, Clone, PartialEq)]
pub struct HwCosts {
    /// Sender-side cost of executing `SENDUIPI` (microcoded MSR-ish
    /// write + UITT walk). Charged to the sending core.
    pub senduipi_issue: SimDur,
    /// One-way user-interrupt delivery latency to a running receiver
    /// with UIF set (posted-interrupt notification + microcode delivery).
    pub uintr_delivery_running: SimDur,
    /// One-way delivery when the receiver is blocked in the kernel: the
    /// UPID notification falls back to an ordinary interrupt that wakes
    /// the thread, which then delivers the pended user interrupt.
    pub uintr_delivery_blocked: SimDur,
    /// Receiver-side cost of user-interrupt handler entry + `UIRET`
    /// (state push/pop, vector dispatch). Charged to the receiving core.
    pub uintr_handler: SimDur,
    /// One-way delivery latency of an ordinary (kernel-mediated) IPI,
    /// including the kernel interrupt path on the receiver. This is the
    /// "regular interrupts" line of Fig. 1 (left).
    pub ipi_delivery: SimDur,
    /// Sender-side cost of writing the APIC ICR to send an IPI (the
    /// mechanism Shinjuku maps into ring 3).
    pub apic_icr_write: SimDur,
    /// Writing a deadline slot (`utimer_arm_deadline`): one cache-line
    /// store that intermittently bounces with the timer core's
    /// polling reads.
    pub deadline_arm: SimDur,
    /// A user-level `fcontext` switch: swap registers + stack pointer.
    pub fcontext_switch: SimDur,
    /// A full kernel thread context switch (scheduler + CR3 + state).
    pub kernel_ctx_switch: SimDur,
    /// Indirect cost added to the *resumed* computation after a context
    /// switch (cache/TLB pollution). Shinjuku's evaluation calls this
    /// out as the dominant hidden preemption cost.
    pub switch_pollution: SimDur,
    /// Granularity of a busy-poll loop reading TSC (LibUtimer's timer
    /// core checks deadlines at this cadence; also Shinjuku's dispatcher
    /// loop iteration time).
    pub poll_loop: SimDur,
    /// Multiplicative jitter applied to all of the above when sampled
    /// (lognormal sigma). Hardware latencies are tight: a few percent.
    pub jitter_sigma: f64,
}

impl Default for HwCosts {
    fn default() -> Self {
        Self::sapphire_rapids()
    }
}

impl HwCosts {
    /// The calibrated Sapphire Rapids model used by every experiment.
    pub fn sapphire_rapids() -> Self {
        HwCosts {
            senduipi_issue: SimDur::nanos(150),
            uintr_delivery_running: SimDur::nanos(400),
            uintr_delivery_blocked: SimDur::nanos(1_900),
            uintr_handler: SimDur::nanos(120),
            ipi_delivery: SimDur::nanos(1_800),
            apic_icr_write: SimDur::nanos(110),
            deadline_arm: SimDur::nanos(30),
            fcontext_switch: SimDur::nanos(40),
            kernel_ctx_switch: SimDur::nanos(1_500),
            switch_pollution: SimDur::nanos(200),
            poll_loop: SimDur::nanos(100),
            jitter_sigma: 0.05,
        }
    }

    /// A pre-UINTR machine: user interrupts unavailable, so the
    /// "LibPreemptible w/o UINTR" fallback (Fig. 8's orange line) pays
    /// ordinary-interrupt costs for preemption delivery.
    pub fn no_uintr() -> Self {
        let mut c = Self::sapphire_rapids();
        // Fallback delivery is a kernel-mediated signal-from-interrupt:
        // notably slower and noisier (see lp-kernel's signal model for
        // the full path; this constant is the hardware share).
        c.uintr_delivery_running = c.ipi_delivery;
        c.uintr_delivery_blocked = c.ipi_delivery * 2;
        c.jitter_sigma = 0.25;
        c
    }

    /// The §VII-C future-work variant: a dedicated hardware timer that
    /// delivers user interrupts directly, with no timer core and no
    /// `SENDUIPI` software issue cost.
    pub fn hw_offload_timer() -> Self {
        let mut c = Self::sapphire_rapids();
        c.senduipi_issue = SimDur::ZERO;
        c.poll_loop = SimDur::ZERO;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iv_anchors() {
        let c = HwCosts::default();
        // Round trip to a running receiver (send + deliver + handler)
        // should land near Table IV's 0.734 us uintrFd average.
        let rt = c.senduipi_issue + c.uintr_delivery_running + c.uintr_handler;
        let us = rt.as_micros_f64();
        assert!((0.5..0.9).contains(&us), "running round trip = {us} us");
        // Blocked path near 2.4 us.
        let rtb = c.senduipi_issue + c.uintr_delivery_blocked + c.uintr_handler;
        let usb = rtb.as_micros_f64();
        assert!((1.9..2.7).contains(&usb), "blocked round trip = {usb} us");
    }

    #[test]
    fn uintr_is_order_of_magnitude_faster_than_ipi() {
        let c = HwCosts::default();
        assert!(c.ipi_delivery.as_nanos() >= 4 * c.uintr_delivery_running.as_nanos());
    }

    #[test]
    fn no_uintr_variant_degrades_delivery() {
        let c = HwCosts::no_uintr();
        let base = HwCosts::default();
        assert!(c.uintr_delivery_running > base.uintr_delivery_running);
        assert_eq!(c.fcontext_switch, base.fcontext_switch);
    }

    #[test]
    fn offload_removes_software_costs() {
        let c = HwCosts::hw_offload_timer();
        assert!(c.senduipi_issue.is_zero());
        assert!(c.poll_loop.is_zero());
        assert_eq!(
            c.uintr_delivery_running,
            HwCosts::default().uintr_delivery_running
        );
    }
}
