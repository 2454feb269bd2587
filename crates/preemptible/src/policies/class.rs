//! Per-class slices: preemptive FCFS where latency-critical and
//! best-effort requests run under different time slices (Fig. 13-right's
//! "variable time quantum" study).

use lp_sim::SimDur;

use crate::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};

/// cFCFS-P dispatch with one slice for class 0 (latency-critical) and
/// another for every other class (best-effort). Giving LC requests
/// [`SimDur::MAX`] exempts them from preemption entirely.
#[derive(Debug, Clone)]
pub struct ClassQuantum {
    lc_slice: SimDur,
    be_slice: SimDur,
}

impl ClassQuantum {
    /// Class 0 runs with `lc_slice`, every other class with `be_slice`.
    pub fn new(lc_slice: SimDur, be_slice: SimDur) -> Self {
        ClassQuantum { lc_slice, be_slice }
    }
}

impl SchedPolicy for ClassQuantum {
    fn name(&self) -> &'static str {
        "class-quantum"
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

    fn time_slice(&mut self, task: &TaskView, _ctx: &mut SchedCtx<'_>) -> SimDur {
        self.quantum_hint(task.class)
    }

    fn quantum_hint(&self, class: u8) -> SimDur {
        if class == 0 {
            self.lc_slice
        } else {
            self.be_slice
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::fixture::{ctx, task};
    use lp_sim::obs::Observer;

    #[test]
    fn slice_discriminates_by_class() {
        let mut obs = Observer::counters_only();
        let mut p = ClassQuantum::new(SimDur::micros(30), SimDur::micros(100));
        let lc = task(1);
        let be = TaskView { class: 1, ..lc };
        assert_eq!(
            p.time_slice(&lc, &mut ctx(0, 0, &mut obs)),
            SimDur::micros(30)
        );
        assert_eq!(
            p.time_slice(&be, &mut ctx(0, 0, &mut obs)),
            SimDur::micros(100)
        );
        assert_eq!(p.quantum_hint(0), SimDur::micros(30));
    }
}
