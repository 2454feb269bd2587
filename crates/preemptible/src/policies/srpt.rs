//! Shortest-remaining-processing-time, using the simulator's oracle
//! knowledge of each task's remaining service demand.

use lp_sim::SimDur;

use crate::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};

/// SRPT over the parked set: resume whichever preempted task is
/// closest to finishing. Mean-latency-optimal in theory; only possible
/// here because the simulation knows true remaining work (a real
/// system would estimate it). Expressed through the generic
/// [`ResumeSel::MinKey`] path, so ties resume the oldest parked task.
#[derive(Debug, Clone)]
pub struct Srpt {
    slice: SimDur,
}

impl Srpt {
    /// An SRPT policy with a fixed preemption `slice`.
    pub fn new(slice: SimDur) -> Self {
        Srpt { slice }
    }
}

impl SchedPolicy for Srpt {
    fn name(&self) -> &'static str {
        "srpt"
    }

    fn dispatch(&mut self, _cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        if ctx.runnable > 0 {
            Dispatch::New
        } else if ctx.parked > 0 {
            Dispatch::Parked(ResumeSel::MinKey)
        } else {
            Dispatch::Idle
        }
    }

    fn time_slice(&mut self, _task: &TaskView, _ctx: &mut SchedCtx<'_>) -> SimDur {
        self.slice
    }

    fn resume_key(&self, task: &TaskView) -> u64 {
        task.remaining.as_nanos()
    }

    fn quantum_hint(&self, _class: u8) -> SimDur {
        self.slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(remaining_us: u64) -> TaskView {
        let remaining = SimDur::micros(remaining_us);
        TaskView {
            remaining,
            ..crate::policies::fixture::task(remaining_us)
        }
    }

    #[test]
    fn resume_key_is_remaining_work() {
        let p = Srpt::new(SimDur::micros(10));
        assert!(p.resume_key(&task(3)) < p.resume_key(&task(400)));
        assert_eq!(p.resume_key(&task(7)), 7_000);
    }
}
