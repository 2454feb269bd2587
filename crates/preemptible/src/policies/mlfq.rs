//! Multi-level feedback queue: every preemption demotes a task one
//! level, each level doubles the slice, and a periodic priority boost
//! (on the control window) resets all levels to prevent starvation.

use std::collections::BTreeMap;

use lp_sim::SimDur;
use lp_stats::WindowSummary;

use crate::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};

/// Classic MLFQ on top of the preemption mechanism: short requests
/// finish inside the level-0 slice; long requests sink to lower levels
/// where they run with longer slices (fewer preemption round-trips) but
/// always yield to fresher work.
#[derive(Debug, Clone)]
pub struct Mlfq {
    base: SimDur,
    levels: u8,
    /// Per-task level, keyed by request number (never by fiber index —
    /// fiber slots are recycled).
    level: BTreeMap<u64, u8>,
}

impl Mlfq {
    /// An MLFQ with `levels` levels starting from a `base` slice;
    /// level *n* runs with `base << n`.
    pub fn new(base: SimDur, levels: u8) -> Self {
        assert!(levels > 0, "need at least one level");
        Mlfq {
            base,
            levels,
            level: BTreeMap::new(),
        }
    }

    fn level_of(&self, task: &TaskView) -> u8 {
        self.level.get(&task.request).copied().unwrap_or(0)
    }
}

impl SchedPolicy for Mlfq {
    fn name(&self) -> &'static str {
        "mlfq"
    }

    fn dispatch(&mut self, _cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        // New work is level 0 — the highest priority — so it runs
        // first; parked work resumes lowest-level-first.
        if ctx.runnable > 0 {
            Dispatch::New
        } else if ctx.parked > 0 {
            Dispatch::Parked(ResumeSel::MinKey)
        } else {
            Dispatch::Idle
        }
    }

    fn time_slice(&mut self, task: &TaskView, _ctx: &mut SchedCtx<'_>) -> SimDur {
        let level = self.level_of(task);
        SimDur::nanos(self.base.as_nanos().saturating_mul(1 << level.min(62)))
    }

    fn resume_key(&self, task: &TaskView) -> u64 {
        u64::from(self.level_of(task))
    }

    fn quantum_hint(&self, _class: u8) -> SimDur {
        self.base
    }

    fn task_preempted(&mut self, task: &TaskView, _ran: SimDur) {
        let level = self.level.entry(task.request).or_insert(0);
        *level = (*level + 1).min(self.levels - 1);
    }

    fn task_finished(&mut self, task: &TaskView) {
        self.level.remove(&task.request);
    }

    fn on_window(&mut self, _summary: &WindowSummary) {
        // Priority boost: forgive all demotions each control window.
        self.level.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::fixture::{ctx, task};
    use lp_sim::obs::Observer;

    #[test]
    fn each_demotion_doubles_the_slice_up_to_the_last_level() {
        let mut obs = Observer::counters_only();
        let mut p = Mlfq::new(SimDur::micros(5), 3);
        let t = task(9);
        assert_eq!(
            p.time_slice(&t, &mut ctx(0, 0, &mut obs)),
            SimDur::micros(5)
        );
        p.task_preempted(&t, SimDur::micros(5));
        assert_eq!(
            p.time_slice(&t, &mut ctx(0, 0, &mut obs)),
            SimDur::micros(10)
        );
        p.task_preempted(&t, SimDur::micros(10));
        assert_eq!(
            p.time_slice(&t, &mut ctx(0, 0, &mut obs)),
            SimDur::micros(20)
        );
        // Bottom level: no further demotion.
        p.task_preempted(&t, SimDur::micros(20));
        assert_eq!(
            p.time_slice(&t, &mut ctx(0, 0, &mut obs)),
            SimDur::micros(20)
        );
    }

    #[test]
    fn resume_key_orders_by_level_and_boost_resets_it() {
        let mut p = Mlfq::new(SimDur::micros(5), 4);
        let (hot, cold) = (task(1), task(2));
        p.task_preempted(&cold, SimDur::micros(5));
        p.task_preempted(&cold, SimDur::micros(10));
        p.task_preempted(&hot, SimDur::micros(5));
        assert!(p.resume_key(&hot) < p.resume_key(&cold));
        p.on_window(&WindowSummary {
            load_rps: 0.0,
            throughput_rps: 0.0,
            median_ns: 0,
            p99_ns: 0,
            mean_qlen: 0.0,
            completed: 0,
            arrived: 0,
            service_scv: 0.0,
        });
        assert_eq!(p.resume_key(&cold), 0, "boost forgives demotions");
    }

    #[test]
    fn finished_tasks_leave_no_state_behind() {
        let mut p = Mlfq::new(SimDur::micros(5), 3);
        let t = task(3);
        p.task_preempted(&t, SimDur::micros(5));
        assert_eq!(p.level.len(), 1);
        p.task_finished(&t);
        assert!(p.level.is_empty());
    }
}
