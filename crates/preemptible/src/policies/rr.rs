//! Round-robin between fresh and preempted work: the Libinger
//! baseline's scheduler, which timeshares instead of favoring short
//! jobs.

use lp_sim::SimDur;

use crate::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};

/// Round-robin with a fixed slice: when both new and parked work wait,
/// successive dispatches alternate between them, approximating
/// processor sharing as the slice shrinks. Parked work resumes
/// oldest-first.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    slice: SimDur,
    prefer_parked: bool,
}

impl RoundRobin {
    /// A round-robin policy granting every task the same `slice`.
    pub fn new(slice: SimDur) -> Self {
        RoundRobin {
            slice,
            prefer_parked: false,
        }
    }
}

impl SchedPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn dispatch(&mut self, _cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        let choice = match (ctx.runnable > 0, ctx.parked > 0) {
            (false, false) => return Dispatch::Idle,
            (true, false) => Dispatch::New,
            (false, true) => Dispatch::Parked(ResumeSel::Fifo),
            (true, true) if self.prefer_parked => Dispatch::Parked(ResumeSel::Fifo),
            (true, true) => Dispatch::New,
        };
        // Every non-idle decision flips the preference.
        self.prefer_parked = !self.prefer_parked;
        choice
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
    use crate::policies::fixture::ctx;
    use lp_sim::obs::Observer;

    #[test]
    fn alternates_new_and_parked_work() {
        let mut obs = Observer::counters_only();
        let mut p = RoundRobin::new(SimDur::micros(5));
        let parked = Dispatch::Parked(ResumeSel::Fifo);
        assert_eq!(p.dispatch(0, &mut ctx(1, 1, &mut obs)), Dispatch::New);
        assert_eq!(p.dispatch(0, &mut ctx(1, 1, &mut obs)), parked);
        assert_eq!(p.dispatch(0, &mut ctx(1, 1, &mut obs)), Dispatch::New);
        // Idle doesn't flip the toggle.
        assert_eq!(p.dispatch(0, &mut ctx(0, 0, &mut obs)), Dispatch::Idle);
        assert_eq!(p.dispatch(0, &mut ctx(1, 1, &mut obs)), parked);
        assert_eq!(p.quantum_hint(0), SimDur::micros(5));
    }
}
