//! # lp-sim — deterministic discrete-event simulation engine
//!
//! The substrate underneath the whole LibPreemptible reproduction. All
//! higher layers (`lp-hw`, `lp-kernel`, the runtime itself) are
//! expressed as [`Model`]s: state machines that receive timestamped events
//! and schedule follow-ups.
//!
//! Design rules enforced here:
//!
//! * **Total event order** — the [`EventQueue`] breaks time ties by
//!   scheduling order, so runs are reproducible.
//! * **Causality** — models schedule through [`Ctx`], which rejects
//!   scheduling into the past.
//! * **Determinism** — all randomness flows through [`rng`] substreams of
//!   a single master seed.
//! * **Parallelism only *between* runs** — a single simulation never
//!   crosses a thread; [`par::ordered_map`] fans independent seeded
//!   runs onto a scoped pool and collects results in submission order,
//!   so sweeps parallelize without touching the determinism story.
//!
//! ```
//! use lp_sim::{Ctx, Model, SimDur, SimTime, Simulation};
//!
//! /// An M/D/1-ish toy: one server, fixed 2 us service, arrivals pushed
//! /// in from outside.
//! #[derive(Default)]
//! struct Server {
//!     queue: u32,
//!     busy: bool,
//!     done: u32,
//! }
//! enum Ev {
//!     Arrive,
//!     Finish,
//! }
//! impl Model for Server {
//!     type Event = Ev;
//!     fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
//!         match ev {
//!             Ev::Arrive => {
//!                 if self.busy {
//!                     self.queue += 1;
//!                 } else {
//!                     self.busy = true;
//!                     ctx.after(SimDur::micros(2), Ev::Finish);
//!                 }
//!             }
//!             Ev::Finish => {
//!                 self.done += 1;
//!                 if self.queue > 0 {
//!                     self.queue -= 1;
//!                     ctx.after(SimDur::micros(2), Ev::Finish);
//!                 } else {
//!                     self.busy = false;
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Server::default());
//! for i in 0..3 {
//!     sim.schedule_at(SimTime::from_nanos(i * 500), Ev::Arrive);
//! }
//! sim.run();
//! assert_eq!(sim.model().done, 3);
//! assert_eq!(sim.now(), SimTime::from_nanos(6_000));
//! ```

#![warn(missing_docs)]

mod engine;
pub mod fault;
pub mod obs;
pub mod par;
mod queue;
pub mod rng;
mod time;
mod wheel;

pub use engine::{Ctx, Model, Simulation};
pub use queue::{EventId, EventQueue, Ticket};
pub use time::{SimDur, SimTime};
