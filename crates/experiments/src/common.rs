//! Shared experiment plumbing: run scales, system wrappers, the
//! max-throughput criterion, and output handling.

use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

use libpreemptible::adaptive::{AdaptiveConfig, QuantumController};
use libpreemptible::policies::AdaptiveQuantum;
use libpreemptible::report::RunReport;
use libpreemptible::runtime::{run, PreemptMech, RuntimeConfig, ServiceSource, WorkloadSpec};
use lp_baselines::{run_libinger, run_shinjuku, LibingerConfig, ShinjukuConfig};

/// How long experiments run. `Quick` keeps CI and Criterion fast;
/// `Full` regenerates the paper-scale curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Short runs for tests/benches.
    Quick,
    /// Paper-scale runs for the experiment binaries.
    Full,
}

impl Scale {
    /// Reads `LP_SCALE=quick|full` from the environment (binaries
    /// default to full, everything else to quick).
    pub fn from_env(default: Scale) -> Scale {
        match std::env::var("LP_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("full") => Scale::Full,
            _ => default,
        }
    }

    /// Steady-state run length per measured point.
    pub fn point_duration(self) -> SimDur {
        match self {
            Scale::Quick => SimDur::millis(40),
            Scale::Full => SimDur::millis(400),
        }
    }

    /// Warmup excluded from statistics.
    pub fn warmup(self) -> SimDur {
        self.point_duration() / 10
    }

    /// Iterations for sampling microbenchmarks.
    pub fn samples(self) -> usize {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 1_000_000,
        }
    }
}

/// The systems compared in Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemUnderTest {
    /// LibPreemptible with UINTR and the adaptive quantum.
    LibPreemptible,
    /// LibPreemptible with UINTR disabled (ordinary timed interrupts).
    LibPreemptibleNoUintr,
    /// Shinjuku with a profiled static quantum.
    Shinjuku,
    /// Libinger (kernel timers + signals).
    Libinger,
}

impl SystemUnderTest {
    /// All four systems in the paper's legend order.
    pub const ALL: [SystemUnderTest; 4] = [
        SystemUnderTest::LibPreemptible,
        SystemUnderTest::LibPreemptibleNoUintr,
        SystemUnderTest::Shinjuku,
        SystemUnderTest::Libinger,
    ];

    /// Legend label.
    pub fn name(self) -> &'static str {
        match self {
            SystemUnderTest::LibPreemptible => "LibPreemptible",
            SystemUnderTest::LibPreemptibleNoUintr => "LibPreemptible w/o UINTR",
            SystemUnderTest::Shinjuku => "Shinjuku",
            SystemUnderTest::Libinger => "Libinger",
        }
    }

    /// Worker count matching the paper's "1 network thread, 5 worker
    /// threads for Shinjuku and Libinger, and 1 network thread, 4
    /// worker threads (+1 timer thread) for LibPreemptible".
    pub fn workers(self) -> usize {
        match self {
            SystemUnderTest::LibPreemptible | SystemUnderTest::LibPreemptibleNoUintr => 4,
            SystemUnderTest::Shinjuku | SystemUnderTest::Libinger => 5,
        }
    }
}

/// One synthetic workload of §V-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperWorkload {
    /// Bimodal 99.5% 0.5 us / 0.5% 500 us.
    A1,
    /// Bimodal 99.5% 5 us / 0.5% 500 us.
    A2,
    /// Exponential mean 5 us.
    B,
    /// First half A1, second half B.
    C,
}

impl PaperWorkload {
    /// The four workloads in paper order.
    pub const ALL: [PaperWorkload; 4] = [
        PaperWorkload::A1,
        PaperWorkload::A2,
        PaperWorkload::B,
        PaperWorkload::C,
    ];

    /// Label used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            PaperWorkload::A1 => "A1",
            PaperWorkload::A2 => "A2",
            PaperWorkload::B => "B",
            PaperWorkload::C => "C",
        }
    }

    /// The phased service distribution over a run of `duration`.
    pub fn service(self, duration: SimDur) -> PhasedService {
        match self {
            PaperWorkload::A1 => PhasedService::constant(ServiceDist::workload_a1()),
            PaperWorkload::A2 => PhasedService::constant(ServiceDist::workload_a2()),
            PaperWorkload::B => PhasedService::constant(ServiceDist::workload_b()),
            PaperWorkload::C => PhasedService::workload_c(duration),
        }
    }

    /// Mean service time used for capacity math. For C the *binding*
    /// phase is B (5 us mean > A1's ~3 us), so utilization is defined
    /// against it — otherwise nominal ρ ≥ 0.6 would silently saturate
    /// the second half of the run.
    pub fn mean_service(self) -> SimDur {
        match self {
            PaperWorkload::A1 => ServiceDist::workload_a1().mean(),
            PaperWorkload::A2 => ServiceDist::workload_a2().mean(),
            PaperWorkload::B | PaperWorkload::C => ServiceDist::workload_b().mean(),
        }
    }

    /// Arrival rate for utilization `rho` on `workers` cores.
    pub fn rate_for(self, rho: f64, workers: usize) -> f64 {
        rho * workers as f64 / self.mean_service().as_secs_f64()
    }
}

/// Runs one system on one workload at one constant arrival rate.
pub fn run_system(
    sys: SystemUnderTest,
    wl: PaperWorkload,
    rate_rps: f64,
    scale: Scale,
    seed: u64,
) -> RunReport {
    let duration = scale.point_duration();
    let spec = WorkloadSpec {
        source: ServiceSource::Phased(wl.service(duration)),
        arrivals: RateSchedule::Constant(rate_rps),
        duration,
        warmup: scale.warmup(),
    };
    run_system_spec(sys, wl, spec, seed)
}

/// Runs one system on an explicit workload spec.
pub fn run_system_spec(
    sys: SystemUnderTest,
    wl: PaperWorkload,
    spec: WorkloadSpec,
    seed: u64,
) -> RunReport {
    // Control period scaled down from the paper's 10 s so the
    // controller acts several times within a sub-second simulation.
    let control_period = (spec.duration / 40).max(SimDur::millis(2));
    match sys {
        SystemUnderTest::LibPreemptible | SystemUnderTest::LibPreemptibleNoUintr => {
            let mech = if sys == SystemUnderTest::LibPreemptible {
                PreemptMech::Uintr
            } else {
                PreemptMech::TimerCoreSignal
            };
            let max_load = wl.rate_for(1.0, sys.workers());
            let mut adaptive = AdaptiveConfig::paper_defaults(max_load);
            adaptive.period = control_period;
            let ctl = QuantumController::new(adaptive, SimDur::micros(10));
            let cfg = RuntimeConfig {
                workers: sys.workers(),
                mech,
                seed,
                control_period,
                ..RuntimeConfig::default()
            };
            run(cfg, Box::new(AdaptiveQuantum::new(ctl)), spec)
        }
        SystemUnderTest::Shinjuku => {
            let quantum = shinjuku_profiled_quantum(wl);
            run_shinjuku(
                ShinjukuConfig {
                    workers: sys.workers(),
                    quantum,
                    seed,
                    ..ShinjukuConfig::default()
                },
                spec,
            )
        }
        SystemUnderTest::Libinger => run_libinger(
            LibingerConfig {
                workers: sys.workers(),
                quantum: SimDur::micros(60),
                seed,
            },
            spec,
        ),
    }
}

/// The statically profiled Shinjuku quantum per workload (§V-A:
/// "Shinjuku needs to do careful profiling to select the right time
/// quanta"). Values found by sweeping {5, 10, 25, 100} us offline.
pub fn shinjuku_profiled_quantum(wl: PaperWorkload) -> SimDur {
    match wl {
        PaperWorkload::A1 | PaperWorkload::A2 => SimDur::micros(5),
        PaperWorkload::B => SimDur::micros(25),
        // C shifts mid-run; a static quantum must compromise.
        PaperWorkload::C => SimDur::micros(10),
    }
}

/// The paper's maximum-throughput criterion: the highest measured
/// throughput whose p99 stays below `200 x` the low-load average
/// latency `baseline_avg_us`, over reports in ascending-utilization
/// order. Pure arithmetic over already-measured reports, so the
/// parallel runner can fan the measurements out first and reduce
/// afterwards with an identical result.
pub fn max_throughput_from_reports(baseline_avg_us: f64, reports: &[RunReport]) -> f64 {
    let bound_us = 200.0 * baseline_avg_us;
    let mut best = 0.0f64;
    for r in reports {
        if r.p99_us() <= bound_us {
            best = best.max(r.throughput_rps());
        }
    }
    best
}

/// Writes `contents` under `results/<name>` (best effort — printing is
/// the primary output).
pub fn save_csv(name: &str, contents: &str) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(name), contents);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters() {
        assert!(Scale::Full.point_duration() > Scale::Quick.point_duration());
        assert!(Scale::Quick.warmup() < Scale::Quick.point_duration());
        assert!(
            crate::fig8::utilization_grid(Scale::Full).len()
                >= crate::fig8::utilization_grid(Scale::Quick).len()
        );
    }

    #[test]
    fn workload_capacity_math() {
        // B: 5us mean on 5 workers at rho=1 -> 1M rps.
        let r = PaperWorkload::B.rate_for(1.0, 5);
        assert!((r - 1_000_000.0).abs() < 1.0);
        // A1: ~2.9975us mean on 4 workers at rho=0.5.
        let r = PaperWorkload::A1.rate_for(0.5, 4);
        assert!((r - 0.5 * 4.0 / 2.9975e-6).abs() / r < 0.01);
    }

    #[test]
    fn all_systems_run_quick_point() {
        for sys in SystemUnderTest::ALL {
            let rate = PaperWorkload::A1.rate_for(0.3, sys.workers());
            let r = run_system(sys, PaperWorkload::A1, rate, Scale::Quick, 7);
            assert!(r.is_conserved(), "{}: {r:?}", sys.name());
            assert!(r.completions > 100, "{} too few completions", sys.name());
        }
    }

    #[test]
    fn max_throughput_monotone_criterion() {
        // A fake system whose p99 explodes above 70% of capacity.
        let fake = |rate: f64| {
            let mut latency = lp_stats::Histogram::new();
            let p99 = if rate > 70_000.0 { 3_000_000 } else { 100_000 };
            latency.record_n(p99, 100);
            RunReport {
                system: "fake".into(),
                offered_rps: rate,
                duration: SimDur::secs(1),
                arrivals: rate as u64,
                completions: rate as u64,
                dropped: 0,
                in_flight: 0,
                oldest_inflight_ns: 0,
                latency,
                latency_by_class: vec![],
                preemptions: 0,
                spurious_preemptions: 0,
                cores: lp_hw::CoreClock::new(),
                per_worker: vec![],
                timer_core: lp_hw::CoreClock::new(),
                latency_series: vec![],
                qps_series: None,
                quantum_series: None,
                slo_series: None,
                final_quantum: SimDur::ZERO,
                metrics: Default::default(),
                events: vec![],
                events_dropped: 0,
                phases: Default::default(),
            }
        };
        let reports: Vec<RunReport> = [0.3, 0.5, 0.7, 0.9]
            .iter()
            .map(|u| fake(u * 100_000.0))
            .collect();
        let got = max_throughput_from_reports(10.0, &reports);
        // rate = 70k is not strictly above the knee, so 0.7 is the last
        // sustainable point.
        assert!((got - 70_000.0).abs() < 1.0, "got {got}");
    }
}
