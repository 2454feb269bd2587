//! # lp-hw — the simulated Sapphire Rapids machine
//!
//! Hardware substrate for the LibPreemptible reproduction: the pieces of
//! the paper's testbed that are gated on unavailable silicon (UINTR) are
//! modeled here as explicit state machines plus calibrated cost tables.
//!
//! * [`uintr`] — the user-interrupt architecture: UPID/UITT state,
//!   `SENDUIPI` semantics, suppression/coalescing, blocked-receiver
//!   kernel assist (paper §III-A, Fig. 3).
//! * [`HwCosts`] — every latency constant, each anchored to a paper
//!   measurement (Table IV, Fig. 1).
//! * [`cpu`] — cores and per-core cycle accounting by [`TimeClass`]
//!   (powering Fig. 1-right's overhead breakdown).
//! * [`jitter`] — lognormal latency noise.
//! * [`power`] — the UMWAIT timer-core power model (§V-B).
//! * [`uintr_spec`] — the audit-by-eye reference state machine the
//!   `lp-check` model checker and the `uintr_spec` property test hold
//!   [`uintr`] to.

#![warn(missing_docs)]

pub mod cost;
pub mod cpu;
pub mod jitter;
pub mod power;
pub mod uintr;
pub mod uintr_spec;

pub use cost::HwCosts;
pub use cpu::{CoreClock, CoreId, TimeClass};
pub use power::{PollMode, PowerModel};
