//! Earliest-deadline-first: every request's deadline is its arrival
//! plus a per-class latency budget; parked work resumes in deadline
//! order and takes priority over new arrivals.

use lp_sim::SimDur;

use crate::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};

/// Deadline-aware scheduling for the paper's LC/BE co-location setup:
/// class 0 (latency-critical) gets a tight budget, class 1 (best
/// effort) a loose one, and the scheduler always works on whatever is
/// closest to missing its deadline.
#[derive(Debug, Clone)]
pub struct Edf {
    slice: SimDur,
    lc_budget: SimDur,
    be_budget: SimDur,
}

impl Edf {
    /// An EDF policy with a fixed preemption `slice` and per-class
    /// latency budgets (class 0 → `lc_budget`, others → `be_budget`).
    pub fn new(slice: SimDur, lc_budget: SimDur, be_budget: SimDur) -> Self {
        Edf {
            slice,
            lc_budget,
            be_budget,
        }
    }

    fn deadline_ns(&self, task: &TaskView) -> u64 {
        let budget = if task.class == 0 {
            self.lc_budget
        } else {
            self.be_budget
        };
        task.arrived.as_nanos().saturating_add(budget.as_nanos())
    }
}

impl SchedPolicy for Edf {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn dispatch(&mut self, _cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        // Parked tasks arrived earlier than anything still queued, so
        // under EDF they are the urgent ones: resume deadline-first,
        // then drain new arrivals.
        if ctx.parked > 0 {
            Dispatch::Parked(ResumeSel::MinKey)
        } else if ctx.runnable > 0 {
            Dispatch::New
        } else {
            Dispatch::Idle
        }
    }

    fn time_slice(&mut self, _task: &TaskView, _ctx: &mut SchedCtx<'_>) -> SimDur {
        self.slice
    }

    fn resume_key(&self, task: &TaskView) -> u64 {
        self.deadline_ns(task)
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
    use lp_sim::SimTime;

    fn task(arrived_ns: u64, class: u8) -> TaskView {
        let arrived = SimTime::from_nanos(arrived_ns);
        TaskView {
            arrived,
            class,
            ..crate::policies::fixture::task(arrived_ns)
        }
    }

    #[test]
    fn parked_work_preempts_new_arrivals() {
        let mut obs = Observer::counters_only();
        let mut p = Edf::new(SimDur::micros(10), SimDur::micros(50), SimDur::millis(1));
        let mut ctx = ctx(4, 1, &mut obs);
        assert_eq!(p.dispatch(0, &mut ctx), Dispatch::Parked(ResumeSel::MinKey));
        ctx.parked = 0;
        assert_eq!(p.dispatch(0, &mut ctx), Dispatch::New);
    }

    #[test]
    fn lc_deadlines_come_before_be_deadlines() {
        let p = Edf::new(SimDur::micros(10), SimDur::micros(50), SimDur::millis(1));
        // Same arrival: the LC budget expires ~20x sooner.
        let lc = task(1_000, 0);
        let be = task(1_000, 1);
        assert!(p.resume_key(&lc) < p.resume_key(&be));
        // An old BE request eventually outranks a fresh LC one.
        let stale_be = task(0, 1);
        let fresh_lc = task(2_000_000, 0);
        assert!(p.resume_key(&stale_be) < p.resume_key(&fresh_lc));
    }
}
