//! CFS-like fair scheduling: track each task's accumulated on-CPU time
//! (its *vruntime*) and always resume the task that has run least.

use std::collections::BTreeMap;

use lp_sim::SimDur;

use crate::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};

/// Completely-fair-style scheduling. New tasks start at vruntime 0 —
/// the minimum — so they run promptly; every preempted slice adds its
/// executed time, and resumption always picks the task that has
/// consumed the least CPU so far. Long hogs therefore interleave fairly
/// instead of monopolizing a worker.
#[derive(Debug, Clone)]
pub struct Vruntime {
    slice: SimDur,
    /// Accumulated executed nanoseconds per task, keyed by request
    /// number (fiber indexes are recycled; request numbers are not).
    vrt: BTreeMap<u64, u64>,
}

impl Vruntime {
    /// A fair scheduler granting every task the same `slice`.
    pub fn new(slice: SimDur) -> Self {
        Vruntime { slice, vrt: BTreeMap::new() }
    }
}

impl SchedPolicy for Vruntime {
    fn name(&self) -> &'static str {
        "vruntime"
    }

    fn dispatch(&mut self, _cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        // New tasks hold the minimum vruntime (zero), so they go first;
        // parked tasks resume least-run-first.
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
        self.vrt.get(&task.request).copied().unwrap_or(0)
    }

    fn quantum_hint(&self, _class: u8) -> SimDur {
        self.slice
    }

    fn task_preempted(&mut self, task: &TaskView, ran: SimDur) {
        *self.vrt.entry(task.request).or_insert(0) += ran.as_nanos();
    }

    fn task_finished(&mut self, task: &TaskView) {
        self.vrt.remove(&task.request);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::fixture::task;

    #[test]
    fn vruntime_accumulates_and_orders_resumes() {
        let mut p = Vruntime::new(SimDur::micros(10));
        let (hog, light) = (task(1), task(2));
        p.task_preempted(&hog, SimDur::micros(30));
        p.task_preempted(&light, SimDur::micros(10));
        assert!(p.resume_key(&light) < p.resume_key(&hog));
        // Another slice widens the gap.
        p.task_preempted(&hog, SimDur::micros(30));
        assert_eq!(p.resume_key(&hog), 60_000);
    }

    #[test]
    fn fresh_tasks_hold_the_minimum_key() {
        let mut p = Vruntime::new(SimDur::micros(10));
        p.task_preempted(&task(1), SimDur::micros(1));
        assert_eq!(p.resume_key(&task(99)), 0);
    }

    #[test]
    fn completion_drops_the_entry() {
        let mut p = Vruntime::new(SimDur::micros(10));
        p.task_preempted(&task(1), SimDur::micros(5));
        p.task_finished(&task(1));
        assert!(p.vrt.is_empty());
    }
}
