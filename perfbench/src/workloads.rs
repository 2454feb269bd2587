//! The named workloads: each one's exact simulator inputs, built from
//! the seed alone.
//!
//! The three runtime workloads hand `libpreemptible::run` a
//! [`RuntimeConfig`] and a [`WorkloadSpec`]; `quick_all` runs the
//! paper-order artifact list at quick scale, and reads its simulated
//! tail off one canonical Fig. 8 point. The parameters here are
//! documented in `METRICS.md`; change both together.
//!
//! A run covers several simulations, one per sub-seed derived from the
//! benchmark seed, so the simulated tail is read off many requests
//! rather than one draw of the arrival process.

use libpreemptible::runtime::AdmissionConfig;
use libpreemptible::{
    run, Fifo, RunReport, RuntimeConfig, SchedPolicy, ServiceSource, WorkloadSpec,
};
use lp_experiments::common::{run_system, PaperWorkload, SystemUnderTest};
use lp_experiments::Scale;
use lp_sim::fault::{FaultKind, FaultPlan};
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long constant requests under a tiny fixed slice: the preemption
    /// path (deadline re-arm, `senduipi`, park/resume).
    PreemptStorm,
    /// Short exponential requests under a slice nothing outlives: the
    /// arrival, dispatch, and completion path.
    RequestChurn,
    /// Square-wave overload with lossy IPIs and hardened admission:
    /// watchdog, retry, degrade, brownout, and shedding.
    FaultOverload,
    /// The quick-scale paper artifact list on the parallel runner.
    QuickAll,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PreemptStorm,
        Workload::RequestChurn,
        Workload::FaultOverload,
        Workload::QuickAll,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PreemptStorm => "preempt_storm",
            Workload::RequestChurn => "request_churn",
            Workload::FaultOverload => "fault_overload",
            Workload::QuickAll => "quick_all",
        }
    }

    /// Parses a workload name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Simulations per round: the sub-seeds one benchmark seed expands
    /// into.
    pub fn subseeds(self) -> u64 {
        match self {
            Workload::PreemptStorm => 24,
            Workload::RequestChurn | Workload::FaultOverload => 16,
            Workload::QuickAll => 64,
        }
    }

    /// The simulation of sub-seed `k` of `seed`.
    pub fn case(self, seed: u64, k: u64) -> Case {
        let seed = seed.wrapping_mul(64).wrapping_add(k);
        match self.runtime(seed) {
            Some(input) => Case::Runtime(Box::new(input)),
            None => Case::Fig8Point { seed },
        }
    }

    fn runtime(self, seed: u64) -> Option<SimInput> {
        let base = RuntimeConfig {
            workers: 4,
            seed,
            control_period: SimDur::millis(10),
            ..RuntimeConfig::default()
        };
        let constant = |us| {
            ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
                SimDur::micros(us),
            )))
        };
        let input = match self {
            Workload::PreemptStorm => SimInput {
                // rho = 12 krps x 200 us / 4 workers = 0.6.
                cfg: RuntimeConfig {
                    slo: Some(SimDur::micros(PREEMPT_STORM_SLO_US)),
                    ..base
                },
                slice: SimDur::micros(5),
                spec: WorkloadSpec {
                    source: constant(200),
                    arrivals: RateSchedule::Constant(12_000.0),
                    duration: SimDur::millis(1_500),
                    warmup: SimDur::millis(50),
                },
                slo_us: PREEMPT_STORM_SLO_US,
            },
            Workload::RequestChurn => SimInput {
                // rho = 640 krps x 5 us / 4 workers = 0.8.
                cfg: RuntimeConfig {
                    slo: Some(SimDur::micros(REQUEST_CHURN_SLO_US)),
                    ..base
                },
                slice: SimDur::micros(100),
                spec: WorkloadSpec {
                    source: ServiceSource::Phased(PhasedService::constant(
                        ServiceDist::workload_b(),
                    )),
                    arrivals: RateSchedule::Constant(640_000.0),
                    duration: SimDur::millis(600),
                    warmup: SimDur::millis(20),
                },
                slo_us: REQUEST_CHURN_SLO_US,
            },
            Workload::FaultOverload => SimInput {
                // Capacity is 4 workers / 400 us = 10 krps; the square
                // wave alternates 0.8x and 1.6x of it.
                cfg: RuntimeConfig {
                    slo: Some(SimDur::micros(FAULT_OVERLOAD_SLO_US)),
                    faults: FaultPlan::only(FaultKind::IpiDrop, 0.5),
                    admission: AdmissionConfig {
                        enabled: true,
                        queue_cap: 256,
                        brownout_cap: 64,
                        slo_aware: true,
                    },
                    ..base
                },
                slice: SimDur::micros(20),
                spec: WorkloadSpec {
                    source: constant(400),
                    arrivals: RateSchedule::Square {
                        base_rps: 8_000.0,
                        base_for: SimDur::millis(20),
                        spike_rps: 16_000.0,
                        spike_for: SimDur::millis(20),
                    },
                    duration: SimDur::millis(3_000),
                    warmup: SimDur::millis(40),
                },
                slo_us: FAULT_OVERLOAD_SLO_US,
            },
            Workload::QuickAll => return None,
        };
        Some(input)
    }
}

/// SLO of `preempt_storm`, microseconds.
pub const PREEMPT_STORM_SLO_US: u64 = 400;
/// SLO of `request_churn`, microseconds.
pub const REQUEST_CHURN_SLO_US: u64 = 25;
/// SLO of `fault_overload`, microseconds (the chaos evaluation SLO).
pub const FAULT_OVERLOAD_SLO_US: u64 = 1_500;
/// SLO of the `quick_all` canonical Fig. 8 point, microseconds.
pub const FIG8_POINT_SLO_US: u64 = 20;
/// Paper workload of the `quick_all` canonical Fig. 8 point.
pub const FIG8_POINT_WORKLOAD: PaperWorkload = PaperWorkload::A2;
/// Utilization of the `quick_all` canonical Fig. 8 point.
pub const FIG8_POINT_RHO: f64 = 0.5;

/// One simulation a workload runs per sub-seed.
#[derive(Debug, Clone)]
pub enum Case {
    /// A runtime simulation the benchmark configures itself.
    Runtime(Box<SimInput>),
    /// `quick_all`'s canonical point: LibPreemptible (UINTR, adaptive
    /// quantum) on paper workload A2 at rho 0.5, quick scale, through
    /// the same `common::run_system` call Fig. 8 makes.
    Fig8Point {
        /// Runtime seed.
        seed: u64,
    },
}

impl Case {
    /// Runs the simulation.
    pub fn run(&self) -> RunReport {
        match self {
            Case::Runtime(input) => input.run(),
            Case::Fig8Point { seed } => {
                let (sys, wl) = (SystemUnderTest::LibPreemptible, FIG8_POINT_WORKLOAD);
                run_system(
                    sys,
                    wl,
                    wl.rate_for(FIG8_POINT_RHO, sys.workers()),
                    Scale::Quick,
                    *seed,
                )
            }
        }
    }

    /// The latency limit a completion must meet, microseconds.
    pub fn slo_us(&self) -> u64 {
        match self {
            Case::Runtime(input) => input.slo_us,
            Case::Fig8Point { .. } => FIG8_POINT_SLO_US,
        }
    }
}

/// Everything one runtime simulation needs.
#[derive(Debug, Clone)]
pub struct SimInput {
    /// Machine and library parameters.
    pub cfg: RuntimeConfig,
    /// The fixed time slice of the FIFO policy.
    pub slice: SimDur,
    /// Offered load.
    pub spec: WorkloadSpec,
    /// Latency limit a completion must meet, microseconds.
    pub slo_us: u64,
}

impl SimInput {
    /// Runs the simulation with the zoo FIFO policy.
    pub fn run(&self) -> RunReport {
        self.run_with(self.cfg.clone(), Box::new(Fifo::new(self.slice)))
    }

    /// The same configuration over `1/n` of the simulated time.
    pub fn shortened(&self, n: u32) -> SimInput {
        let mut short = self.clone();
        short.spec.duration = self.spec.duration / n as u64;
        short.spec.warmup = self.spec.warmup / n as u64;
        short
    }

    /// Runs the simulation with an explicit config and policy.
    pub fn run_with(&self, cfg: RuntimeConfig, policy: Box<dyn SchedPolicy>) -> RunReport {
        run(cfg, policy, self.spec.clone())
    }
}
