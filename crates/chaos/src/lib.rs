//! # lp-chaos — the chaos adversary
//!
//! Everything the fault injector (`lp_sim::fault`) can do, this crate
//! *composes*: core-hog storms, UINTR drop bursts, timer-jitter waves,
//! and antagonist-tenant arrival spikes combine through a small typed
//! algebra ([`plan::ChaosPlan`]) into time-structured attack plans. A
//! deterministic adversarial search ([`search()`]) then hunts the plan
//! space for worst-case response cliffs, a delta-debugging minimizer
//! shrinks each cliff to its load-bearing core, and the survivors are
//! pinned as a regression corpus (`results/chaos_corpus.json`,
//! [`corpus`]) that CI replays byte-identically.
//!
//! Determinism contract (the whole point):
//!
//! * every random draw — plan sampling, search moves, tie-breaking —
//!   comes from the frozen `streams::CHAOS` substream of the master
//!   seed (`lp_sim::rng`); the `chaos-rng` lint (`lp-check`) bans any
//!   other entropy source from this crate;
//! * candidate evaluation fans out through
//!   `lp_sim::par::ordered_map`, which collects results in submission
//!   order, so the search trajectory is byte-identical at any
//!   `LP_JOBS`;
//! * plan parameters are integer-quantized (rates in ppm, times in
//!   µs), so corpus serialization round-trips exactly — no float
//!   formatting ambiguity can drift a replay.
//!
//! See `docs/CHAOS.md` for the workflow and the full determinism
//! argument.

#![warn(missing_docs)]

pub mod corpus;
pub mod eval;
pub mod lower;
pub mod plan;
pub mod search;

pub use corpus::CorpusEntry;
pub use eval::{evaluate, evaluate_report, runtime_config, EvalConfig, EvalOutcome};
pub use lower::{lower, LoweredPlan};
pub use plan::{ChaosAtom, ChaosPlan};
pub use search::{minimize, search, SearchBudget};
