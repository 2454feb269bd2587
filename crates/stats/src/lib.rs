//! # lp-stats — measurement infrastructure for the LibPreemptible reproduction
//!
//! Everything the experiments measure flows through this crate:
//!
//! * [`Histogram`] — log-bucketed latency histogram with ~1% relative
//!   error, exact min/max/mean, and the paper's tail metrics (p99,
//!   p99.9, SLO-violation fractions).
//! * [`TimeSeries`] / [`WindowStats`] — time-bucketed recordings for the
//!   over-time plots (Figs. 9, 14) and the per-control-period summaries
//!   consumed by the adaptive quantum controller.
//! * [`Table`] — aligned text/CSV rendering so every experiment binary
//!   prints its paper artifact the same way.
//!
//! The crate is deliberately simulation-agnostic (it has no
//! dependencies), so the same types serve unit tests, the simulated runtime,
//! and the experiment harness.

#![warn(missing_docs)]

mod histogram;
mod series;
mod table;

pub use histogram::{Histogram, DEFAULT_PRECISION_BITS};
pub use series::{Frame, TimeSeries, WindowStats, WindowSummary};
pub use table::{krps, pct, us, us2, Table};
