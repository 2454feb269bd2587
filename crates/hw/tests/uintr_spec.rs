//! Property test: random op sequences against [`UintrDomain`] agree —
//! outcome by outcome, bit by bit — with the reference state machine in
//! [`lp_hw::uintr_spec`], the same oracle the `lp-check` model checker
//! holds the domain to on *every* interleaving of its scenario suite.
//! Here the sequences are longer and the vectors wider than the model
//! checker's bounded programs, trading exhaustiveness for reach.

use lp_hw::uintr::{ReceiverState, UintrDomain, Uitt};
use lp_hw::uintr_spec::SpecUpid;
use proptest::prelude::*;

/// Compact op encoding: (kind, vector, receiver-state).
///
/// kind 0..=5: weighted toward sends (0..=2) so coalescing and
/// suppression windows actually fill; 3 = ack, 4 = suppress on,
/// 5 = suppress off.
fn apply_all(ops: &[(u8, u8, u8)]) -> Result<(), String> {
    let mut dom = UintrDomain::new();
    let h = dom.register_receiver();
    let mut uitt = Uitt::new();
    for v in 0..64 {
        uitt.register(h, v);
    }
    let mut spec = SpecUpid::new();

    for (i, &(kind, vector, rstate)) in ops.iter().enumerate() {
        let receiver = match rstate % 3 {
            0 => ReceiverState::RunningUifSet,
            1 => ReceiverState::RunningUifClear,
            _ => ReceiverState::Blocked,
        };
        match kind {
            0..=2 => {
                let entry = uitt.get(vector as usize % 64).expect("entry");
                let got = dom
                    .senduipi(entry, receiver)
                    .map_err(|e| format!("op {i}: send failed: {e}"))?;
                let want = spec.send(entry.vector, receiver);
                if got != want {
                    return Err(format!("op {i}: send -> {got:?}, spec {want:?}"));
                }
            }
            3 => {
                let got = dom
                    .acknowledge(h)
                    .map_err(|e| format!("op {i}: ack: {e}"))?;
                let want = spec.acknowledge();
                if got != want {
                    return Err(format!("op {i}: ack {got:#x}, spec {want:#x}"));
                }
            }
            4 | 5 => {
                let on = kind == 4;
                dom.set_suppress(h, on)
                    .map_err(|e| format!("op {i}: set_suppress: {e}"))?;
                spec.set_suppress(on);
            }
            _ => unreachable!("kind is generated in 0..6"),
        }
        let u = dom.upid(h).expect("registered");
        if u.outstanding != spec.on || u.suppress != spec.sn || u.pending != spec.pir {
            return Err(format!(
                "op {i}: state diverged: domain (ON={} SN={} PIR={:#x}) vs spec (ON={} SN={} PIR={:#x})",
                u.outstanding, u.suppress, u.pending, spec.on, spec.sn, spec.pir
            ));
        }
        if !spec.on_implies_pending() || (u.outstanding && u.pending == 0) {
            return Err(format!("op {i}: ON set with empty PIR"));
        }
    }
    Ok(())
}

proptest! {
    /// Long random programs: the domain and the spec never disagree and
    /// the ON ⇒ pending invariant holds at every step.
    #[test]
    fn domain_agrees_with_spec(
        ops in proptest::collection::vec((0u8..6, 0u8..64, 0u8..3), 1..120)
    ) {
        let r = apply_all(&ops);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Whatever the interleaving of sends/suppressions, one final
    /// unsuppress + drain recovers exactly the union of posted vectors:
    /// nothing is lost, nothing is invented.
    #[test]
    fn final_drain_conserves_vectors(
        ops in proptest::collection::vec((0u8..6, 0u8..64, 0u8..3), 1..80)
    ) {
        let mut dom = UintrDomain::new();
        let h = dom.register_receiver();
        let mut uitt = Uitt::new();
        for v in 0..64 {
            uitt.register(h, v);
        }
        let mut sent = 0u64;
        let mut drained = 0u64;
        for &(kind, vector, rstate) in &ops {
            let receiver = match rstate % 3 {
                0 => ReceiverState::RunningUifSet,
                1 => ReceiverState::RunningUifClear,
                _ => ReceiverState::Blocked,
            };
            match kind {
                0..=2 => {
                    let entry = uitt.get(vector as usize % 64).expect("entry");
                    dom.senduipi(entry, receiver).expect("send");
                    sent |= 1u64 << entry.vector;
                }
                3 => drained |= dom.acknowledge(h).expect("ack"),
                4 | 5 => dom.set_suppress(h, kind == 4).expect("suppress"),
                _ => unreachable!(),
            }
        }
        dom.set_suppress(h, false).expect("unsuppress");
        drained |= dom.acknowledge(h).expect("final drain");
        prop_assert_eq!(drained, sent, "lost or invented vectors");
        prop_assert!(!dom.has_pending(h));
    }
}
