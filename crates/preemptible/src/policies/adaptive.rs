//! The paper's adaptive time-quantum controller (Algorithm 1) as an
//! ordinary zoo citizen: FCFS dispatch with a slice that tracks the
//! observed workload each control window.

use lp_sim::obs::Observer;
use lp_sim::{SimDur, SimTime};
use lp_stats::WindowSummary;

use crate::adaptive::QuantumController;
use crate::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};

/// Adaptive-quantum scheduling: dispatch is plain preemptive FCFS, but
/// the slice is re-derived every control window by
/// [`QuantumController`] from the window's load, queue length and
/// service-time dispersion. This is the policy behind LibPreemptible's
/// Fig. 8, 9 and 14 numbers.
#[derive(Debug, Clone)]
pub struct AdaptiveQuantum {
    ctl: QuantumController,
}

impl AdaptiveQuantum {
    /// Wraps an explicitly configured controller.
    pub fn new(ctl: QuantumController) -> Self {
        AdaptiveQuantum { ctl }
    }

    /// The controller's current quantum.
    pub fn quantum(&self) -> SimDur {
        self.ctl.quantum()
    }
}

impl SchedPolicy for AdaptiveQuantum {
    fn name(&self) -> &'static str {
        "adaptive-quantum"
    }

    fn dispatch(&mut self, _cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        if ctx.runnable > 0 {
            Dispatch::New
        } else if ctx.parked > 0 {
            Dispatch::Parked(ResumeSel::Fifo)
        } else {
            Dispatch::Idle
        }
    }

    fn time_slice(&mut self, _task: &TaskView, _ctx: &mut SchedCtx<'_>) -> SimDur {
        self.ctl.quantum()
    }

    fn quantum_hint(&self, _class: u8) -> SimDur {
        self.ctl.quantum()
    }

    fn on_window(&mut self, summary: &WindowSummary) {
        self.ctl.update(summary);
    }

    fn on_window_observed(&mut self, summary: &WindowSummary, at: SimTime, obs: &mut Observer) {
        self.ctl.update_observed(summary, at, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveConfig;

    #[test]
    fn controller_reacts_to_windows_through_the_trait() {
        let mut p = AdaptiveQuantum::new(QuantumController::new(
            AdaptiveConfig::paper_defaults(1_000_000.0),
            SimDur::micros(20),
        ));
        assert_eq!(SchedPolicy::quantum_hint(&p, 0), SimDur::micros(20));
        // A heavy-tailed, overloaded window forces a different quantum.
        SchedPolicy::on_window(
            &mut p,
            &WindowSummary {
                load_rps: 950_000.0,
                throughput_rps: 900_000.0,
                median_ns: 1_000,
                p99_ns: 500_000,
                mean_qlen: 10.0,
                completed: 1,
                arrived: 1,
                service_scv: 140.0,
            },
        );
        assert_ne!(SchedPolicy::quantum_hint(&p, 0), SimDur::micros(20));
    }
}
