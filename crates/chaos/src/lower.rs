//! Lowering: from the typed plan algebra to the runtime's inputs.
//!
//! A normalized [`ChaosPlan`] splits into two artifacts the runtime
//! already understands:
//!
//! * fault atoms become time-bounded [`FaultWindow`]s on a
//!   [`FaultPlan`] (plus the scalar magnitude knobs — hog and spike
//!   lengths — set to the maximum any span asks for, since the
//!   injector has one magnitude per kind);
//! * arrival spikes become a [`RateSchedule::Phases`] schedule layered
//!   on top of the base rate, with phase boundaries at every spike
//!   edge.
//!
//! Lowering is pure arithmetic over integer-quantized parameters: the
//! same plan always lowers to the same bytes.

use lp_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use lp_sim::SimDur;
use lp_workload::RateSchedule;

use crate::plan::{AtomSpan, ChaosAtom, ChaosPlan};

/// The runtime-ready form of one chaos plan.
#[derive(Debug, Clone)]
pub struct LoweredPlan {
    /// Fault windows + magnitude knobs, ready for `RuntimeConfig`.
    pub faults: FaultPlan,
    /// Offered load over time (base rate plus antagonist spikes).
    pub arrivals: RateSchedule,
}

/// Lowers `plan` over `[0, horizon_us)` against a base offered load of
/// `base_rps`.
pub fn lower(plan: &ChaosPlan, base_rps: u32, horizon_us: u64) -> LoweredPlan {
    let spans = plan.normalize(horizon_us);
    LoweredPlan {
        faults: lower_faults(&spans),
        arrivals: lower_arrivals(&spans, base_rps, horizon_us),
    }
}

fn lower_faults(spans: &[AtomSpan]) -> FaultPlan {
    let mut fp = FaultPlan::disabled();
    for s in spans {
        let (kind, rate_ppm) = match s.atom {
            ChaosAtom::UintrDropBurst { rate_ppm } => (FaultKind::IpiDrop, rate_ppm),
            ChaosAtom::CoreHogStorm { rate_ppm, hog_us } => {
                fp.core_hog_ns = fp.core_hog_ns.max(u64::from(hog_us) * 1_000);
                (FaultKind::CoreHog, rate_ppm)
            }
            ChaosAtom::TimerJitterWave { rate_ppm, spike_us } => {
                fp.timer_spike_ns = fp.timer_spike_ns.max(u64::from(spike_us) * 1_000);
                (FaultKind::TimerSpike, rate_ppm)
            }
            ChaosAtom::ArrivalSpike { .. } => continue,
        };
        if rate_ppm == 0 || s.from_us >= s.until_us {
            continue;
        }
        fp.windows.push(FaultWindow {
            kind,
            rate: f64::from(rate_ppm) / 1e6,
            from_ns: s.from_us * 1_000,
            until_ns: s.until_us * 1_000,
        });
    }
    fp
}

fn lower_arrivals(spans: &[AtomSpan], base_rps: u32, horizon_us: u64) -> RateSchedule {
    let spikes: Vec<&AtomSpan> = spans
        .iter()
        .filter(|s| matches!(s.atom, ChaosAtom::ArrivalSpike { .. }))
        .collect();
    if spikes.is_empty() {
        return RateSchedule::Constant(f64::from(base_rps));
    }
    // Phase boundaries at every spike edge (clipped to the horizon),
    // then one phase per interval with the sum of open spikes added to
    // the base rate.
    let mut edges: Vec<u64> = vec![0, horizon_us];
    for s in &spikes {
        edges.push(s.from_us.min(horizon_us));
        edges.push(s.until_us.min(horizon_us));
    }
    edges.sort_unstable();
    edges.dedup();
    let mut phases = Vec::with_capacity(edges.len());
    for w in edges.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a >= b {
            continue;
        }
        let extra: u64 = spikes
            .iter()
            .filter(|s| s.from_us <= a && b <= s.until_us)
            .map(|s| match s.atom {
                ChaosAtom::ArrivalSpike { extra_rps } => u64::from(extra_rps),
                _ => 0,
            })
            .sum();
        phases.push((SimDur::micros(b - a), f64::from(base_rps) + extra as f64));
    }
    RateSchedule::Phases(phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::fault::Site;
    use lp_sim::SimTime;

    #[test]
    fn fault_atoms_become_windows_with_magnitudes() {
        let p = ChaosPlan::Overlay(vec![
            ChaosPlan::windowed(
                ChaosPlan::Atom(ChaosAtom::UintrDropBurst { rate_ppm: 500_000 }),
                100,
                200,
            ),
            ChaosPlan::Atom(ChaosAtom::CoreHogStorm {
                rate_ppm: 10_000,
                hog_us: 800,
            }),
        ]);
        let l = lower(&p, 8_000, 1_000);
        assert_eq!(l.faults.windows.len(), 2);
        assert!(l.faults.site_armed(Site::Ipi));
        assert!(l.faults.site_armed(Site::Core));
        assert_eq!(l.faults.core_hog_ns, 800_000);
        let drop = l
            .faults
            .windows
            .iter()
            .find(|w| w.kind == FaultKind::IpiDrop)
            .expect("drop window");
        assert_eq!((drop.from_ns, drop.until_ns), (100_000, 300_000));
        assert!((drop.rate - 0.5).abs() < 1e-12);
        // No arrival spikes: the base load is untouched.
        assert!(matches!(l.arrivals, RateSchedule::Constant(r) if r == 8_000.0));
    }

    #[test]
    fn arrival_spikes_become_phases_summing_over_overlaps() {
        let p = ChaosPlan::Overlay(vec![
            ChaosPlan::windowed(
                ChaosPlan::Atom(ChaosAtom::ArrivalSpike { extra_rps: 4_000 }),
                0,
                600,
            ),
            ChaosPlan::windowed(
                ChaosPlan::Atom(ChaosAtom::ArrivalSpike { extra_rps: 1_000 }),
                400,
                600,
            ),
        ]);
        let l = lower(&p, 8_000, 1_000);
        let at = |us: u64| l.arrivals.rate_at(SimTime::from_nanos(us * 1_000));
        // Spike 1 covers [0, 600), spike 2 covers [400, 1000).
        assert_eq!(at(100) as u64, 12_000);
        assert_eq!(at(500) as u64, 13_000);
        assert_eq!(at(700) as u64, 9_000);
        assert_eq!(at(999) as u64, 9_000);
    }

    #[test]
    fn lowering_is_deterministic() {
        let p = ChaosPlan::Sequence(vec![
            ChaosPlan::Atom(ChaosAtom::TimerJitterWave {
                rate_ppm: 250_000,
                spike_us: 90,
            }),
            ChaosPlan::Atom(ChaosAtom::UintrDropBurst { rate_ppm: 750_000 }),
        ]);
        let a = lower(&p, 5_000, 40_000);
        let b = lower(&p, 5_000, 40_000);
        assert_eq!(format!("{:?}", a.faults), format!("{:?}", b.faults));
        assert_eq!(format!("{:?}", a.arrivals), format!("{:?}", b.arrivals));
    }
}
