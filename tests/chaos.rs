//! Chaos-adversary and overload-hardening invariants (`docs/CHAOS.md`):
//!
//! * the retry backoff never overflows and is monotone up to its cap;
//! * under every pinned corpus plan the per-worker mechanism-tier
//!   trace is legal — brownout is entered from healthy, recovery only
//!   leaves the degraded tier, and the admission gate sheds instead of
//!   stranding fibers;
//! * the committed regression corpus (`results/chaos_corpus.json`)
//!   replays to its pinned scores, and the hardened runtime beats the
//!   unhardened worst case on every entry;
//! * an armed-but-idle admission gate is byte-identical to a disabled
//!   one.

use libpreemptible::retry::{Backoff, Tier};
use libpreemptible::runtime::{run, AdmissionConfig, RuntimeConfig};
use libpreemptible::{Fifo, RunReport};
use lp_chaos::{corpus, evaluate, runtime_config, CorpusEntry};
use lp_sim::obs::Event;
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};
use proptest::prelude::*;

use libpreemptible::runtime::{ServiceSource, WorkloadSpec};

fn pinned_corpus() -> Vec<CorpusEntry> {
    let raw = std::fs::read_to_string("results/chaos_corpus.json")
        .expect("results/chaos_corpus.json is committed");
    corpus::from_json(&raw).expect("corpus parses")
}

proptest! {
    /// `Backoff::delay` never panics or overflows: for any `base <=
    /// cap` (up to minutes) and any attempt counter (the full `u32`
    /// range — far past anything the watchdog reaches), the delay is
    /// monotone non-decreasing and saturates exactly at the cap.
    #[test]
    fn backoff_is_monotone_and_saturates(
        base_ns in 1u64..100_000_000,
        extra_ns in 0u64..100_000_000,
        attempt in 0u32..=u32::MAX - 1,
    ) {
        let base = SimDur::nanos(base_ns);
        let cap = SimDur::nanos(base_ns + extra_ns);
        let b = Backoff::new(base, cap);
        let d0 = b.delay(attempt);
        let d1 = b.delay(attempt + 1);
        prop_assert!(d0 >= base.min(cap));
        prop_assert!(d0 <= cap, "delay {d0} above cap {cap}");
        prop_assert!(d1 >= d0, "delay not monotone: {d0} then {d1}");
        // Past 63 doublings the shift saturates: the delay must sit
        // exactly at the cap, not wrap.
        if attempt >= 63 {
            prop_assert_eq!(d0, cap);
        }
    }
}

/// Replays one worker's mechanism events and checks tier legality:
/// brownout is announced only from the healthy tier, degrade from
/// healthy or brownout, recovery only from degraded. Returns how many
/// transitions were seen.
fn check_tier_trace(events: &[(u16, &'static str)], worker: u16) -> usize {
    let mut tier = Tier::Healthy;
    let mut seen = 0;
    for &(w, name) in events {
        if w != worker {
            continue;
        }
        seen += 1;
        match name {
            "mech_brownout" => {
                assert_eq!(
                    tier,
                    Tier::Healthy,
                    "worker {worker}: brownout announced from {tier:?}"
                );
                tier = Tier::Brownout;
            }
            "mech_degraded" => {
                assert_ne!(
                    tier,
                    Tier::Degraded,
                    "worker {worker}: degrade announced twice"
                );
                tier = Tier::Degraded;
            }
            "mech_recovered" => {
                assert_eq!(
                    tier,
                    Tier::Degraded,
                    "worker {worker}: recovery announced from {tier:?}"
                );
                tier = Tier::Healthy;
            }
            _ => unreachable!(),
        }
    }
    seen
}

/// Under every pinned corpus plan, the hardened runtime's mechanism
/// tiers move monotonically through legal transitions
/// (healthy → brownout → degraded → healthy) and no fiber is stranded.
#[test]
fn corpus_plans_drive_legal_tier_transitions() {
    for entry in pinned_corpus() {
        let lowered = lp_chaos::lower(&entry.plan, entry.cfg.base_rps, entry.cfg.horizon_us);
        let cfg = RuntimeConfig {
            trace_capacity: 65_536,
            ..runtime_config(&entry.plan, &entry.cfg, true)
        };
        let spec = WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
                SimDur::micros(entry.cfg.service_us),
            ))),
            arrivals: lowered.arrivals,
            duration: SimDur::micros(entry.cfg.horizon_us),
            warmup: SimDur::ZERO,
        };
        let workers = cfg.workers;
        let r = run(
            cfg,
            Box::new(Fifo::new(SimDur::micros(entry.cfg.quantum_us))),
            spec,
        );
        assert!(r.is_conserved(), "{}: stranded fibers", entry.name);
        let mech: Vec<(u16, &'static str)> = r
            .events
            .iter()
            .filter_map(|te| match te.ev {
                Event::MechBrownout { worker, .. } => Some((worker, "mech_brownout")),
                Event::MechDegraded { worker, .. } => Some((worker, "mech_degraded")),
                Event::MechRecovered { worker } => Some((worker, "mech_recovered")),
                _ => None,
            })
            .collect();
        for w in 0..workers {
            check_tier_trace(&mech, w as u16);
        }
    }
}

/// The committed corpus holds at least three minimized cliffs, each
/// replaying byte-identically to its pinned scores, with the hardened
/// runtime strictly beating the unhardened worst case and conservation
/// holding on both sides.
#[test]
fn corpus_replays_and_hardening_beats_every_cliff() {
    let entries = pinned_corpus();
    assert!(entries.len() >= 3, "corpus has {} entries", entries.len());
    for e in &entries {
        let u = evaluate(&e.plan, &e.cfg, false);
        let h = evaluate(&e.plan, &e.cfg, true);
        assert_eq!(
            (u.objective(), u.worst_ns),
            (e.unhardened_objective, e.unhardened_worst_ns),
            "{}: unhardened drifted",
            e.name
        );
        assert_eq!(
            (h.objective(), h.worst_ns),
            (e.hardened_objective, e.hardened_worst_ns),
            "{}: hardened drifted",
            e.name
        );
        assert!(
            u.conserved && h.conserved,
            "{}: conservation broken",
            e.name
        );
        assert!(
            h.worst_ns < u.worst_ns,
            "{}: hardened worst {} >= unhardened worst {}",
            e.name,
            h.worst_ns,
            u.worst_ns
        );
    }
}

/// The corpus text form round-trips every committed plan.
#[test]
fn corpus_plans_round_trip_through_the_text_form() {
    for e in pinned_corpus() {
        let text = corpus::plan_to_text(&e.plan);
        let back = corpus::plan_from_text(&text).expect("parses");
        assert_eq!(back, e.plan, "{}: {} did not round-trip", e.name, text);
    }
}

fn healthy_run(admission: AdmissionConfig) -> RunReport {
    run(
        RuntimeConfig {
            workers: 4,
            control_period: SimDur::millis(10),
            trace_capacity: 4_096,
            admission,
            ..RuntimeConfig::default()
        },
        Box::new(Fifo::new(SimDur::micros(20))),
        WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
                SimDur::micros(400),
            ))),
            arrivals: RateSchedule::Constant(8_000.0),
            duration: SimDur::millis(60),
            warmup: SimDur::ZERO,
        },
    )
}

/// Arming the admission gate on a healthy run — caps never reached,
/// every worker on the fast path — leaves the run byte-identical to
/// one with admission disabled: same trace, same counters, same
/// latency distribution. This is the contract the < 2% admission
/// overhead gate (perfbench's paired `admission` ablation) rides on.
#[test]
fn armed_but_idle_admission_is_byte_identical() {
    let off = healthy_run(AdmissionConfig::default());
    let on = healthy_run(AdmissionConfig {
        enabled: true,
        queue_cap: usize::MAX,
        brownout_cap: usize::MAX,
        slo_aware: false,
    });
    assert_eq!(off.arrivals, on.arrivals);
    assert_eq!(off.completions, on.completions);
    assert_eq!(off.dropped, on.dropped);
    assert_eq!(off.preemptions, on.preemptions);
    assert_eq!(off.latency.p99(), on.latency.p99());
    assert_eq!(off.latency.max(), on.latency.max());
    assert_eq!(off.metrics.counters, on.metrics.counters);
    assert_eq!(off.events_jsonl(), on.events_jsonl());
    assert_eq!(on.metrics.counter("sheds"), 0);
    assert_eq!(on.metrics.counter("admissions"), 0);
}
