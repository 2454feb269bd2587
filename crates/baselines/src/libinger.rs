//! The Libinger baseline (Boucher et al., ATC'20 "lightweight
//! preemptible functions" / libturquoise).
//!
//! Libinger provides general-purpose preemptible functions using
//! **regular kernel timer interrupts + signals** as the preemption
//! mechanism, with glibc modifications for safe interruption. Two
//! consequences the paper measures:
//!
//! * the minimum usable quantum is bounded by the kernel timer floor
//!   and signal cost (tens of microseconds), and
//! * per-preemption overhead is the full signal path.
//!
//! Mechanically this is LibPreemptible's runtime with
//! [`PreemptMech::KernelTimerSignal`], which is exactly how we model it
//! — the *scheduling* structure is the same; the delivery substrate is
//! what differs (the paper makes the same observation in §VI).

use lp_sim::SimDur;

use libpreemptible::policies::RoundRobin;
use libpreemptible::report::RunReport;
use libpreemptible::runtime::{run, PreemptMech, RuntimeConfig, WorkloadSpec};

/// Libinger configuration.
#[derive(Debug, Clone)]
pub struct LibingerConfig {
    /// Worker threads.
    pub workers: usize,
    /// The preemption quantum. Libinger cannot usefully go below the
    /// kernel timer floor (~55 us); the default matches its published
    /// millisecond-to-tens-of-microseconds operating range.
    pub quantum: SimDur,
    /// Master seed.
    pub seed: u64,
}

impl Default for LibingerConfig {
    fn default() -> Self {
        LibingerConfig {
            workers: 5,
            quantum: SimDur::micros(60),
            seed: 1,
        }
    }
}

/// Runs the Libinger baseline on the given workload.
pub fn run_libinger(cfg: LibingerConfig, spec: WorkloadSpec) -> RunReport {
    let rt = RuntimeConfig {
        workers: cfg.workers,
        mech: PreemptMech::KernelTimerSignal,
        seed: cfg.seed,
        ..RuntimeConfig::default()
    };
    // Libinger provides general-purpose timeshared preemptible
    // functions, not LibPreemptible's short-jobs-first two-level
    // scheduler: round-robin between fresh and preempted work is the
    // faithful policy.
    let mut report = run(rt, Box::new(RoundRobin::new(cfg.quantum)), spec);
    report.system = format!("Libinger (q={})", cfg.quantum);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use libpreemptible::runtime::ServiceSource;
    use lp_workload::{PhasedService, RateSchedule, ServiceDist};

    fn spec(rate: f64, ms: u64) -> WorkloadSpec {
        WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(ServiceDist::workload_a1())),
            arrivals: RateSchedule::Constant(rate),
            duration: SimDur::millis(ms),
            warmup: SimDur::millis(ms / 10),
        }
    }

    #[test]
    fn runs_and_conserves() {
        let r = run_libinger(LibingerConfig::default(), spec(200_000.0, 100));
        assert!(r.is_conserved());
        assert!(r.completions > 10_000);
        assert!(r.system.contains("Libinger"));
    }

    #[test]
    fn kernel_timer_floor_limits_effective_quantum() {
        // Asking for a 5 us quantum through kernel timers still yields
        // preemptions at ~the timer floor: long requests get far fewer
        // preemptions than the quantum would suggest.
        let spec_ = WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
                SimDur::micros(200),
            ))),
            arrivals: RateSchedule::Constant(5_000.0),
            duration: SimDur::millis(100),
            warmup: SimDur::ZERO,
        };
        let r = run_libinger(
            LibingerConfig {
                quantum: SimDur::micros(5),
                ..LibingerConfig::default()
            },
            spec_,
        );
        // 200 us work at a nominal 5 us quantum would be ~39
        // preemptions per request; the floor (~55 us + signal latency)
        // allows at most ~4.
        let per_req = r.preemptions as f64 / r.completions.max(1) as f64;
        assert!(per_req < 6.0, "preemptions/request = {per_req}");
        assert!(
            r.preemptions > 0,
            "floor should still allow some preemption"
        );
    }
}
