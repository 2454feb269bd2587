//! The policy zoo: ready-made [`SchedPolicy`](crate::sched::SchedPolicy)
//! implementations, each a self-contained ~100-line module with its own
//! unit tests.
//!
//! | Policy | Discipline | Resume order |
//! |---|---|---|
//! | [`Fifo`] | preemptive FCFS, fixed slice | oldest parked first |
//! | [`Mlfq`] | multi-level feedback queue, slice doubles per demotion | lowest level first |
//! | [`Edf`] | earliest-deadline-first (per-class latency budgets) | earliest deadline first |
//! | [`Vruntime`] | CFS-like fair scheduling on accumulated runtime | smallest vruntime first |
//! | [`Srpt`] | shortest-remaining-processing-time (oracle) | least remaining first |
//! | [`AdaptiveQuantum`] | the paper's Algorithm 1 controller as a zoo citizen | oldest parked first |
//! | [`RoundRobin`] | alternates new and parked work (the Libinger baseline) | oldest parked first |
//! | [`ClassQuantum`] | preemptive FCFS with per-class slices (Fig. 13-right) | oldest parked first |
//!
//! These modules are held to a stricter hygiene bar than the rest of
//! the workspace: `lp-check`'s `policy-purity` rule forbids any wall
//! clock, RNG seeding, or environment access here (docs/CHECKS.md),
//! which is what makes every policy safe to drop into the
//! deterministic tournament harness (`lp-experiments::tournament`).
//! The authoring guide is `docs/POLICIES.md`.

mod adaptive;
mod class;
mod edf;
mod fifo;
mod mlfq;
mod rr;
mod srpt;
mod vruntime;

pub use adaptive::AdaptiveQuantum;
pub use class::ClassQuantum;
pub use edf::Edf;
pub use fifo::{FcfsPreempt, Fifo};
pub use mlfq::Mlfq;
pub use rr::RoundRobin;
pub use srpt::Srpt;
pub use vruntime::Vruntime;

/// Unit-test fixtures shared by the zoo modules.
#[cfg(test)]
pub(crate) mod fixture {
    use lp_sim::obs::Observer;
    use lp_sim::{SimDur, SimTime};

    use crate::sched::{SchedCtx, TaskView};

    /// A fresh class-0 task: request number `request`, arrived at time
    /// zero, 100 us of work left of 100 us. Vary it with struct update
    /// syntax.
    pub(crate) fn task(request: u64) -> TaskView {
        TaskView {
            request,
            fiber: 0,
            arrived: SimTime::ZERO,
            remaining: SimDur::micros(100),
            total: SimDur::micros(100),
            preemptions: 0,
            class: 0,
        }
    }

    /// A hook context at time zero with `runnable` queued and `parked`
    /// parked tasks and no closed window.
    pub(crate) fn ctx(runnable: usize, parked: usize, obs: &mut Observer) -> SchedCtx<'_> {
        SchedCtx {
            now: SimTime::ZERO,
            queue_depths: &[],
            runnable,
            parked,
            window: None,
            obs,
        }
    }
}
