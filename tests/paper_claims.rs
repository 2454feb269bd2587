//! Cross-crate integration tests: the paper's qualitative claims,
//! checked end-to-end through the full stack (workload generator →
//! runtime → machine model → statistics).

use libpreemptible::adaptive::{AdaptiveConfig, QuantumController};
use libpreemptible::{
    run, AdaptiveQuantum, Fifo, PreemptMech, RuntimeConfig, ServiceSource, WorkloadSpec,
};
use lp_baselines::{run_shinjuku, ShinjukuConfig};
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

fn spec(dist: ServiceDist, rate: f64, ms: u64) -> WorkloadSpec {
    WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(dist)),
        arrivals: RateSchedule::Constant(rate),
        duration: SimDur::millis(ms),
        warmup: SimDur::millis(ms / 10),
    }
}

/// §V-A headline: under high load on the heavy-tailed workload,
/// LibPreemptible's tail is several times better than Shinjuku's
/// (the paper reports ~10x at paper scale).
#[test]
fn libpreemptible_tail_beats_shinjuku_under_high_load() {
    let dist = ServiceDist::workload_a1();
    let lp = run(
        RuntimeConfig {
            workers: 4,
            control_period: SimDur::millis(5),
            ..RuntimeConfig::default()
        },
        Box::new(AdaptiveQuantum::new(QuantumController::new(
            {
                let mut a = AdaptiveConfig::paper_defaults(dist.rate_for_utilization(1.0, 4));
                a.period = SimDur::millis(5);
                a
            },
            SimDur::micros(10),
        ))),
        spec(dist.clone(), dist.rate_for_utilization(0.9, 4), 120),
    );
    let sj = run_shinjuku(
        ShinjukuConfig {
            workers: 5,
            quantum: SimDur::micros(5),
            ..ShinjukuConfig::default()
        },
        spec(dist.clone(), dist.rate_for_utilization(0.9, 5), 120),
    );
    assert!(lp.is_conserved() && sj.is_conserved());
    assert!(
        sj.p99_us() > 4.0 * lp.p99_us(),
        "Shinjuku p99 {:.1} vs LibPreemptible {:.1}",
        sj.p99_us(),
        lp.p99_us()
    );
    assert!(
        sj.median_us() > 4.0 * lp.median_us(),
        "Shinjuku median {:.1} vs LibPreemptible {:.1}",
        sj.median_us(),
        lp.median_us()
    );
}

/// Fig. 8's ablation: disabling UINTR (ordinary timed interrupts)
/// degrades the tail under high load by a large factor (paper: >5x).
#[test]
fn no_uintr_ablation_degrades_tail() {
    let dist = ServiceDist::workload_a1();
    let rate = dist.rate_for_utilization(0.9, 4);
    let mk = |mech| {
        run(
            RuntimeConfig {
                workers: 4,
                mech,
                ..RuntimeConfig::default()
            },
            Box::new(Fifo::new(SimDur::micros(5))),
            spec(dist.clone(), rate, 120),
        )
    };
    let with = mk(PreemptMech::Uintr);
    let without = mk(PreemptMech::TimerCoreSignal);
    assert!(
        without.p99_us() > 2.0 * with.p99_us(),
        "w/o UINTR p99 {:.1} vs with {:.1}",
        without.p99_us(),
        with.p99_us()
    );
}

/// Determinism across the whole stack: same seed, same report; a
/// different seed perturbs the sample paths.
#[test]
fn end_to_end_determinism() {
    let dist = ServiceDist::workload_a2();
    let rate = dist.rate_for_utilization(0.7, 4);
    let mk = |seed| {
        run(
            RuntimeConfig {
                seed,
                ..RuntimeConfig::default()
            },
            Box::new(Fifo::new(SimDur::micros(10))),
            spec(dist.clone(), rate, 60),
        )
    };
    let a = mk(42);
    let b = mk(42);
    let c = mk(43);
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.preemptions, b.preemptions);
    assert_eq!(a.latency.p99(), b.latency.p99());
    assert_eq!(a.latency.mean(), b.latency.mean());
    assert_ne!(
        (a.arrivals, a.latency.p99()),
        (c.arrivals, c.latency.p99()),
        "different seeds should differ"
    );
}

/// Conservation across every system and mechanism at several loads.
#[test]
fn request_conservation_everywhere() {
    let dist = ServiceDist::workload_a1();
    for rho in [0.3, 0.8, 1.2] {
        for mech in [
            PreemptMech::Uintr,
            PreemptMech::TimerCoreSignal,
            PreemptMech::KernelTimerSignal,
            PreemptMech::None,
        ] {
            let rate = dist.rate_for_utilization(rho, 4);
            let policy: Box<dyn libpreemptible::SchedPolicy> = if mech == PreemptMech::None {
                Box::new(Fifo::new(SimDur::MAX))
            } else {
                Box::new(Fifo::new(SimDur::micros(10)))
            };
            let r = run(
                RuntimeConfig {
                    workers: 4,
                    mech,
                    pool_capacity: 2_048,
                    ..RuntimeConfig::default()
                },
                policy,
                spec(dist.clone(), rate, 40),
            );
            assert!(
                r.is_conserved(),
                "mech {mech:?} rho {rho}: arrivals {} != completions {} + dropped {} + in-flight {}",
                r.arrivals,
                r.completions,
                r.dropped,
                r.in_flight
            );
        }
        let r = run_shinjuku(
            ShinjukuConfig::default(),
            spec(dist.clone(), dist.rate_for_utilization(rho, 5), 40),
        );
        assert!(r.is_conserved(), "shinjuku rho {rho}");
    }
}

/// §III-B: the 3 us minimum time slice is usable — the runtime
/// survives and makes progress with quanta at the UINTR floor.
#[test]
fn three_microsecond_quantum_functions() {
    let dist = ServiceDist::Exponential {
        mean: SimDur::micros(20),
    };
    let r = run(
        RuntimeConfig {
            workers: 4,
            ..RuntimeConfig::default()
        },
        Box::new(Fifo::new(SimDur::micros(3))),
        spec(dist.clone(), dist.rate_for_utilization(0.6, 4), 60),
    );
    assert!(r.is_conserved());
    assert!(r.preemptions > r.completions, "20us work at 3us quanta must preempt repeatedly");
    // Still delivers reasonable latency despite aggressive slicing.
    assert!(r.median_us() < 100.0, "median {}", r.median_us());
}

/// The adaptive controller converges: on a persistently light-tailed
/// workload the quantum drifts up; on a heavy-tailed one it drifts to
/// the floor.
#[test]
fn controller_tracks_workload_character() {
    let mk = |dist: ServiceDist, rho: f64| {
        let rate = dist.rate_for_utilization(rho, 4);
        let mut a = AdaptiveConfig::paper_defaults(dist.rate_for_utilization(1.0, 4));
        a.period = SimDur::millis(2);
        run(
            RuntimeConfig {
                workers: 4,
                control_period: SimDur::millis(2),
                ..RuntimeConfig::default()
            },
            Box::new(AdaptiveQuantum::new(QuantumController::new(
                a,
                SimDur::micros(20),
            ))),
            spec(dist, rate, 80),
        )
    };
    // The controller is a closed loop: once preemption tames the
    // tail, the *measured* latency dispersion shrinks and the quantum
    // may relax again. The invariant is the controlled outcome —
    // the heavy-tailed workload's p99 stays microseconds-scale, with
    // active preemption — not a particular quantum endpoint.
    let heavy = mk(ServiceDist::workload_a1(), 0.8);
    assert!(
        heavy.p99_us() < 40.0,
        "controller failed to tame the A1 tail: p99 = {}",
        heavy.p99_us()
    );
    assert!(heavy.preemptions > 0);
    // The service-time SCV keeps the window classified heavy even once
    // latency is controlled, so the quantum converges to the floor.
    assert!(
        heavy.final_quantum <= SimDur::micros(5),
        "quantum should sit at the floor, got {}",
        heavy.final_quantum
    );
    let light = mk(
        ServiceDist::Constant(SimDur::micros(5)),
        0.05, // low load
    );
    assert!(
        light.final_quantum > SimDur::micros(20),
        "light load must relax the quantum, got {}",
        light.final_quantum
    );
}
