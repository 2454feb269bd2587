//! The sched_ext-shaped scheduling-policy surface.
//!
//! [`SchedPolicy`] is the one policy contract the runtime drives:
//! per-CPU placement ([`SchedPolicy::select_cpu`]), queue-shape control
//! ([`SchedPolicy::enqueue`]), next-task choice
//! ([`SchedPolicy::dispatch`]) and a per-task time slice
//! ([`SchedPolicy::time_slice`]), mirroring the hook set popularized by
//! sched_ext's `scx_rustland_core` (paper §III-C: mechanism in the
//! runtime, policy in a small user module). Every hook receives a
//! [`SchedCtx`] exposing read-only runtime state — per-worker queue
//! depths, the last control-window summary, the simulated clock — plus
//! the typed [`Observer`] so policies can emit
//! events and bump gauges without side channels.
//!
//! Authoring guidance — hook ordering, determinism rules, worked
//! examples — lives in `docs/POLICIES.md`. Ready-made policies live in
//! [`crate::policies`].

use lp_sim::obs::Observer;
use lp_sim::{SimDur, SimTime};
use lp_stats::WindowSummary;

/// Read-only snapshot of one runnable or parked task, handed to policy
/// hooks. Copied out of the runtime's context pool — policies never see
/// (or mutate) live runtime state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskView {
    /// Globally unique request number (monotonic per run). Use this —
    /// not `fiber` — to key per-task policy state: fiber slots are
    /// recycled, request numbers never are.
    pub request: u64,
    /// Fiber slot index currently hosting the task (recycled).
    pub fiber: u32,
    /// Arrival time at the dispatcher.
    pub arrived: SimTime,
    /// Service time still to run (oracle knowledge; see POLICIES.md on
    /// which policies may consult it).
    pub remaining: SimDur,
    /// Total service demand of the request.
    pub total: SimDur,
    /// Times this task has been preempted so far.
    pub preemptions: u32,
    /// Workload class tag (0 = latency-critical by convention).
    pub class: u8,
}

/// Read-only runtime state offered to every [`SchedPolicy`] hook, plus
/// mutable access to the typed observability layer.
///
/// Everything here is derived from simulation state — never from wall
/// clocks — so consulting it keeps a policy deterministic.
pub struct SchedCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Per-worker local queue depths, indexed by worker id.
    pub queue_depths: &'a [usize],
    /// New (never-started) requests visible to the calling hook: for
    /// `dispatch` this is the calling worker's own queue plus, when
    /// that queue is empty and stealing is on, the longest sibling
    /// queue; for `select_cpu`/`enqueue`/`time_slice` it is the total
    /// queued across workers.
    pub runnable: usize,
    /// Preempted-and-parked tasks waiting to be resumed.
    pub parked: usize,
    /// The most recent control-window summary, if a window has closed.
    pub window: Option<&'a WindowSummary>,
    /// Typed observability: emit events, bump counters and gauges.
    /// Emissions are passive — they never perturb the schedule.
    pub obs: &'a mut Observer,
}

impl SchedCtx<'_> {
    /// Total tasks queued across every worker's local queue — the same
    /// aggregate the admission gate reads (minus the dispatcher
    /// backlog, which policies never see). Overload-aware policies use
    /// it to cheapen decisions while the system sheds.
    pub fn total_queued(&self) -> usize {
        self.queue_depths.iter().sum()
    }
}

/// Where [`SchedPolicy::enqueue`] places a newly dispatched task in its
/// worker's local queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Append at the tail (default FIFO order).
    Back,
    /// Push at the head (expedite; used by priority policies).
    Front,
}

/// How a parked task is selected when [`Dispatch::Parked`] is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeSel {
    /// Oldest parked first (arrival order).
    Fifo,
    /// Minimum of [`SchedPolicy::resume_key`]; ties break oldest-first.
    MinKey,
}

/// What an idle worker should run next, returned by
/// [`SchedPolicy::dispatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Pull a new request from the local queue (or steal one).
    New,
    /// Resume a preempted task, chosen per the [`ResumeSel`].
    Parked(ResumeSel),
    /// Run nothing; the worker idles until the next dispatch or pick.
    Idle,
}

/// The full scheduling-policy contract: placement, queueing, next-task
/// choice and time slicing, with lifecycle and control-window hooks.
///
/// Determinism rules (enforced by `lp-check`'s `policy-purity` rule for
/// the in-tree zoo): no wall clocks, no ad-hoc RNG seeding, no
/// environment reads — every decision must be a pure function of the
/// hook arguments and the policy's own state. See `docs/POLICIES.md`.
pub trait SchedPolicy {
    /// Stable display name, used in reports and leaderboards.
    fn name(&self) -> &'static str;

    /// Pick the worker whose local queue receives a newly dispatched
    /// task. Return `None` (the default) for the runtime's
    /// join-shortest-queue placement; out-of-range indices also fall
    /// back to JSQ.
    fn select_cpu(&mut self, task: &TaskView, ctx: &mut SchedCtx<'_>) -> Option<usize> {
        let _ = (task, ctx);
        None
    }

    /// Where in the chosen worker's local queue the task lands.
    fn enqueue(&mut self, task: &TaskView, ctx: &mut SchedCtx<'_>) -> Enqueue {
        let _ = (task, ctx);
        Enqueue::Back
    }

    /// What worker `cpu` runs next, consulted whenever it goes looking
    /// for work (after a finish, a preemption, or new arrivals while
    /// idle).
    fn dispatch(&mut self, cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch;

    /// Time slice granted to `task` as it starts (or resumes) on a
    /// worker. [`SimDur::MAX`] means run-to-completion.
    fn time_slice(&mut self, task: &TaskView, ctx: &mut SchedCtx<'_>) -> SimDur;

    /// Ordering key for [`ResumeSel::MinKey`]: the parked task with the
    /// smallest key is resumed first, ties oldest-first. The default
    /// reproduces FIFO.
    fn resume_key(&self, task: &TaskView) -> u64 {
        task.arrived.as_nanos()
    }

    /// The representative quantum the reporting layer records for
    /// `class` (time-series samples and `RunReport::final_quantum`).
    /// Policies with per-task slices should report their base slice.
    fn quantum_hint(&self, class: u8) -> SimDur;

    /// Called after `task` was preempted and parked, having run for
    /// `ran` in this slice. Runs before the worker's next dispatch.
    fn task_preempted(&mut self, task: &TaskView, ran: SimDur) {
        let _ = (task, ran);
    }

    /// Called after `task` completed and its fiber was released. Drop
    /// any per-task state keyed by `task.request` here.
    fn task_finished(&mut self, task: &TaskView) {
        let _ = task;
    }

    /// Control-window hook without observability access.
    fn on_window(&mut self, summary: &WindowSummary) {
        let _ = summary;
    }

    /// Control-window hook with observability access; the default
    /// delegates to [`SchedPolicy::on_window`].
    fn on_window_observed(&mut self, summary: &WindowSummary, at: SimTime, obs: &mut Observer) {
        let _ = (at, obs);
        self.on_window(summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::fixture::task;
    use crate::policies::Fifo;

    #[test]
    fn default_resume_key_is_arrival_order() {
        let p = Fifo::new(SimDur::micros(10));
        let early = TaskView { arrived: SimTime::from_nanos(100), ..task(7) };
        let late = TaskView { arrived: SimTime::from_nanos(200), ..task(7) };
        assert!(p.resume_key(&early) < p.resume_key(&late));
    }
}
