//! Property test: a rate-0.0 [`FaultPlan`] is indistinguishable from no
//! injector at all. Whatever the magnitudes, seed, and op sequence, the
//! injector never decides to inject (and never even draws from its RNG
//! stream), so a domain driven through `senduipi_with_fault` with its
//! decisions lands in byte-identical state to one driven through plain
//! `senduipi` — outcome by outcome, UPID field by UPID field.
//!
//! This is the contract `FaultPlan::enabled()` gating in the runtime
//! rests on: armed-but-zero plans must be true no-ops.

use lp_hw::uintr::{ReceiverState, UintrDomain, Uitt};
use lp_sim::fault::{FaultInjector, FaultPlan};
use proptest::prelude::*;

/// A plan whose rates are all zero and schedule empty, but whose
/// magnitudes (which must be irrelevant at rate 0) are arbitrary.
fn zero_rate_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
        |(ipi_delay_ns, timer_spike_ns, core_hog_ns, contention_waiters)| FaultPlan {
            ipi_delay_ns,
            timer_spike_ns,
            core_hog_ns,
            contention_waiters,
            ..FaultPlan::default()
        },
    )
}

fn receiver(rstate: u8) -> ReceiverState {
    match rstate % 3 {
        0 => ReceiverState::RunningUifSet,
        1 => ReceiverState::RunningUifClear,
        _ => ReceiverState::Blocked,
    }
}

proptest! {
    /// Lockstep run: `plain` uses the pre-fault API, `faulted` consults
    /// a rate-0 injector at every site before every op. They must agree
    /// on every outcome and every observable UPID bit at every step.
    #[test]
    fn rate_zero_plan_is_byte_identical_to_no_injector(
        plan in zero_rate_plan(),
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..6, 0u8..64, 0u8..3), 1..120),
    ) {
        prop_assert!(!plan.enabled(), "all-zero rates must read as disabled");
        let mut inj = FaultInjector::new(plan, seed);

        let mut plain = UintrDomain::new();
        let hp = plain.register_receiver();
        let mut faulted = UintrDomain::new();
        let hf = faulted.register_receiver();
        let mut uitt = Uitt::new();
        for v in 0..64 {
            uitt.register(hp, v);
        }

        for (i, &(kind, vector, rstate)) in ops.iter().enumerate() {
            // Exercise every injection site each step: a rate-0 plan
            // must never produce a decision anywhere.
            let ipi = inj.ipi_at(0);
            prop_assert_eq!(ipi, None, "op {}: rate-0 plan injected an IPI fault", i);
            prop_assert_eq!(inj.timer_at(0), None, "op {}: timer fault", i);
            prop_assert_eq!(inj.signal_at(0), None, "op {}: signal fault", i);
            prop_assert_eq!(inj.core_at(0), None, "op {}: core fault", i);

            let r = receiver(rstate);
            match kind {
                0..=2 => {
                    let entry = uitt.get(vector as usize % 64).expect("entry");
                    let a = plain.senduipi(entry, r).expect("plain send");
                    let b = faulted
                        .senduipi_with_fault(entry, r, ipi)
                        .expect("faulted send");
                    prop_assert_eq!(a, b, "op {}: send outcomes diverged", i);
                }
                3 => {
                    let a = plain.acknowledge(hp).expect("plain ack");
                    let b = faulted.acknowledge(hf).expect("faulted ack");
                    prop_assert_eq!(a, b, "op {}: drained vectors diverged", i);
                }
                4 | 5 => {
                    plain.set_suppress(hp, kind == 4).expect("plain suppress");
                    faulted.set_suppress(hf, kind == 4).expect("faulted suppress");
                }
                _ => unreachable!("kind is generated in 0..6"),
            }

            let a = plain.upid(hp).expect("plain registered");
            let b = faulted.upid(hf).expect("faulted registered");
            prop_assert_eq!(
                (a.outstanding, a.suppress, a.pending, a.ndst),
                (b.outstanding, b.suppress, b.pending, b.ndst),
                "op {}: UPID state diverged", i
            );
        }
    }

    /// The injector's RNG stream is untouched at rate 0: two injectors
    /// with different seeds make identical (all-`None`) decisions, and
    /// interleaving site queries in any order changes nothing.
    #[test]
    fn rate_zero_plan_never_draws(
        plan in zero_rate_plan(),
        seeds in (any::<u64>(), any::<u64>()),
        sites in proptest::collection::vec(0u8..4, 1..200),
    ) {
        let mut a = FaultInjector::new(plan.clone(), seeds.0);
        let mut b = FaultInjector::new(plan, seeds.1);
        for &s in &sites {
            match s {
                0 => prop_assert_eq!((a.ipi_at(0), b.ipi_at(0)), (None, None)),
                1 => prop_assert_eq!((a.timer_at(0), b.timer_at(0)), (None, None)),
                2 => prop_assert_eq!((a.signal_at(0), b.signal_at(0)), (None, None)),
                _ => prop_assert_eq!((a.core_at(0), b.core_at(0)), (None, None)),
            }
        }
    }
}
