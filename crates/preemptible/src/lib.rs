//! # libpreemptible — fast, adaptive, hardware-assisted user-space scheduling
//!
//! A Rust reproduction of **LibPreemptible** (HPCA 2024): a preemptive
//! user-level threading library built on Intel UINTR user interrupts,
//! with user-level timers (**LibUtimer**), a two-level scheduler, and an
//! adaptive time-quantum controller.
//!
//! Real UINTR requires Sapphire Rapids silicon and a patched kernel, so
//! this reproduction binds the (real, reusable) algorithmic layer to a
//! deterministic simulated machine (`lp-hw` + `lp-kernel`). The layers:
//!
//! | Paper concept | Here |
//! |---|---|
//! | `fn_launch` / `fn_resume` / `fn_completed` + context pool | [`context::ContextPool`] (allocate / park / take_parked / release) |
//! | LibUtimer (`utimer_init/register/arm_deadline`) | [`utimer::UtimerRegistry`]; the timing wheel is `lp_sim::EventQueue` |
//! | scheduling policies on the library API | [`sched::SchedPolicy`] (select_cpu / enqueue / dispatch / time_slice) and the [`policies`] zoo |
//! | Algorithm 1 (adaptive time quantum) | [`adaptive::QuantumController`] |
//! | the runtime: dispatcher + workers + timer core | [`runtime::run`] |
//!
//! ## Quickstart
//!
//! ```
//! use libpreemptible::{run, Fifo, RuntimeConfig, ServiceSource, WorkloadSpec};
//! use lp_sim::SimDur;
//! use lp_workload::{PhasedService, RateSchedule, ServiceDist};
//!
//! // 4 workers + 1 timer core, UINTR preemption, 5 us quantum.
//! let report = run(
//!     RuntimeConfig::default(),
//!     Box::new(Fifo::new(SimDur::micros(5))),
//!     WorkloadSpec {
//!         source: ServiceSource::Phased(PhasedService::constant(ServiceDist::workload_a1())),
//!         arrivals: RateSchedule::Constant(100_000.0),
//!         duration: SimDur::millis(100),
//!         warmup: SimDur::millis(10),
//!     },
//! );
//! println!("p99 = {:.1} us", report.p99_us());
//! assert!(report.is_conserved());
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod context;
pub mod policies;
pub mod report;
pub mod retry;
pub mod runtime;
pub mod sched;
pub mod utimer;

pub use adaptive::{AdaptiveConfig, QuantumController};
pub use context::{Context, ContextId, ContextPool};
pub use policies::{
    AdaptiveQuantum, ClassQuantum, Edf, FcfsPreempt, Fifo, Mlfq, RoundRobin, Srpt, Vruntime,
};
pub use report::RunReport;
pub use retry::{Backoff, RetryInput, RetryMachine, RetryOutput, WatchdogConfig};
pub use runtime::{
    run, LibPreemptibleSystem, PreemptMech, RuntimeConfig, ServiceSource, WorkloadSpec,
};
pub use sched::{Dispatch, Enqueue, ResumeSel, SchedCtx, SchedPolicy, TaskView};
