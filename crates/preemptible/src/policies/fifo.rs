//! Preemptive FIFO: run requests in arrival order under a fixed time
//! slice; resume preempted work oldest-first. The simplest possible
//! [`SchedPolicy`] and the zoo's baseline.

use lp_sim::SimDur;

use crate::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};

/// Preemptive first-in-first-out with a fixed slice.
///
/// New requests run before preempted ones (the paper's cFCFS-P shape):
/// under bursty arrivals this keeps the dispatcher queue short, while
/// the slice bounds how long a long request can block the queue.
#[derive(Debug, Clone)]
pub struct Fifo {
    slice: SimDur,
}

impl Fifo {
    /// A FIFO policy granting every task the same `slice`. A slice of
    /// [`SimDur::MAX`] is non-preemptive FCFS (run-to-completion): the
    /// `LC-Base` baseline of Fig. 13 and the no-preemption point of
    /// Fig. 2.
    pub fn new(slice: SimDur) -> Self {
        Fifo { slice }
    }
}

/// The pre-zoo name of cFCFS-P with a fixed slice. It exists only
/// because the `perfbench` benchmark still calls it; everything else
/// builds [`Fifo`] directly.
#[derive(Debug, Clone, Copy)]
pub struct FcfsPreempt;

impl FcfsPreempt {
    /// Same as [`Fifo::new`].
    pub fn fixed(slice: SimDur) -> Fifo {
        Fifo::new(slice)
    }
}

impl SchedPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
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
        self.slice
    }

    fn quantum_hint(&self, _class: u8) -> SimDur {
        self.slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::fixture::{ctx, task};
    use lp_sim::obs::Observer;

    #[test]
    fn prefers_new_then_parked_then_idles() {
        let mut obs = Observer::counters_only();
        let mut p = Fifo::new(SimDur::micros(10));
        assert_eq!(p.dispatch(0, &mut ctx(2, 5, &mut obs)), Dispatch::New);
        assert_eq!(
            p.dispatch(0, &mut ctx(0, 5, &mut obs)),
            Dispatch::Parked(ResumeSel::Fifo)
        );
        assert_eq!(p.dispatch(0, &mut ctx(0, 0, &mut obs)), Dispatch::Idle);
    }

    #[test]
    fn slice_is_fixed_for_every_task_and_class() {
        let mut obs = Observer::counters_only();
        let mut p = Fifo::new(SimDur::micros(7));
        let mut t = TaskView { remaining: SimDur::micros(500), preemptions: 3, ..task(1) };
        assert_eq!(p.time_slice(&t, &mut ctx(0, 0, &mut obs)), SimDur::micros(7));
        t.class = 1;
        assert_eq!(p.time_slice(&t, &mut ctx(0, 0, &mut obs)), SimDur::micros(7));
        assert_eq!(p.quantum_hint(0), SimDur::micros(7));
    }
}
