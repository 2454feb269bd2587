//! The simulation executor.
//!
//! A [`Simulation`] owns a model and an [`EventQueue`] and repeatedly pops
//! the earliest event, advances the clock, and hands the event to the
//! model. The model schedules follow-up events through the [`Ctx`] it is
//! given — it never touches the queue directly, which keeps causality
//! (events can only be scheduled at or after the current instant) enforced
//! in one place.

use crate::queue::{EventId, EventQueue, Ticket};
use crate::time::{SimDur, SimTime};

/// A simulated system: the single event handler of a simulation.
///
/// Implementations are state machines over their own `Event` type. See the
/// crate docs for a complete example.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handles one event at the instant `ctx.now()`.
    fn handle(&mut self, event: Self::Event, ctx: &mut Ctx<'_, Self::Event>);
}

/// Scheduling context handed to [`Model::handle`].
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<E> Ctx<'_, E> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past — simulated causality violations
    /// are always bugs.
    pub fn at(&mut self, time: SimTime, event: E) -> EventId {
        assert!(
            time >= self.now,
            "scheduling into the past: {} < {}",
            time,
            self.now
        );
        self.queue.push(time, event)
    }

    /// Takes the sequence number the next scheduled event would take,
    /// for an event that may be filed later with
    /// [`at_reserved`](Self::at_reserved). See [`EventQueue::reserve`].
    pub fn reserve(&mut self) -> Ticket {
        self.queue.reserve()
    }

    /// Schedules `event` at `time` under an earlier
    /// [`reserve`](Self::reserve)'s sequence number: among events at
    /// `time` it fires where it would have had it been scheduled when
    /// the ticket was taken.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn at_reserved(&mut self, time: SimTime, ticket: Ticket, event: E) -> EventId {
        assert!(
            time >= self.now,
            "scheduling into the past: {} < {}",
            time,
            self.now
        );
        self.queue.push_reserved(time, ticket, event)
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn after(&mut self, delay: SimDur, event: E) -> EventId {
        self.queue.push(self.now + delay, event)
    }

    /// Schedules `event` at the current instant (fires after all events
    /// already scheduled for this instant).
    pub fn immediately(&mut self, event: E) -> EventId {
        self.queue.push(self.now, event)
    }

    /// Cancels a previously scheduled event. No-op if it already fired.
    pub fn cancel(&mut self, id: EventId) {
        self.queue.cancel(id)
    }
}

/// A discrete-event simulation over a [`Model`].
///
/// ```
/// use lp_sim::{Ctx, Model, SimDur, SimTime, Simulation};
///
/// /// Counts down `n` ticks, one per microsecond.
/// struct Countdown {
///     n: u32,
/// }
/// enum Ev {
///     Tick,
/// }
/// impl Model for Countdown {
///     type Event = Ev;
///     fn handle(&mut self, _ev: Ev, ctx: &mut Ctx<'_, Ev>) {
///         self.n -= 1;
///         if self.n > 0 {
///             ctx.after(SimDur::micros(1), Ev::Tick);
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Countdown { n: 3 });
/// sim.schedule_at(SimTime::ZERO, Ev::Tick);
/// sim.run();
/// assert_eq!(sim.model().n, 0);
/// assert_eq!(sim.now().as_nanos(), 2_000);
/// ```
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    events_processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation at time zero around `model`.
    pub fn new(model: M) -> Self {
        Self::with_capacity(model, 0)
    }

    /// Creates a simulation whose event queue is pre-sized for
    /// `capacity` concurrently scheduled events (see
    /// [`EventQueue::with_capacity`]). Runtimes derive the hint from
    /// their offered arrival rate so the wheel's node slab reaches
    /// steady state during warm-up and never grows mid-run.
    pub fn with_capacity(model: M, capacity: usize) -> Self {
        Simulation {
            model,
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
            events_processed: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the simulation and returns the model (for result
    /// extraction).
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedules an event at an absolute time before or between runs.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the current instant.
    pub fn schedule_at(&mut self, time: SimTime, event: M::Event) -> EventId {
        assert!(time >= self.now, "scheduling into the past");
        self.queue.push(time, event)
    }

    /// Processes the single earliest event. Returns `false` if the queue
    /// was empty.
    fn step(&mut self) -> bool {
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.events_processed += 1;
        let mut ctx = Ctx {
            now: self.now,
            queue: &mut self.queue,
        };
        self.model.handle(event, &mut ctx);
        true
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the clock would pass `deadline` (events at exactly
    /// `deadline` still fire) or the queue drains. Afterwards the clock
    /// reads `min(deadline, last event time)`.
    pub fn run_until(&mut self, deadline: SimTime) {
        // `peek_time` is non-mutating, so the bound check borrows the
        // queue only for the comparison.
        while self.queue.peek_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(u64, u32)>,
        respawn: bool,
    }

    #[derive(Debug, PartialEq)]
    struct Ev(u32);

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            self.seen.push((ctx.now().as_nanos(), ev.0));
            if self.respawn && ev.0 < 3 {
                ctx.after(SimDur::nanos(10), Ev(ev.0 + 1));
            }
        }
    }

    fn sim(respawn: bool) -> Simulation<Recorder> {
        Simulation::new(Recorder {
            seen: vec![],
            respawn,
        })
    }

    #[test]
    fn runs_events_in_order_and_advances_clock() {
        let mut s = sim(false);
        s.schedule_at(SimTime::from_nanos(20), Ev(2));
        s.schedule_at(SimTime::from_nanos(10), Ev(1));
        s.run();
        assert_eq!(s.model().seen, vec![(10, 1), (20, 2)]);
        assert_eq!(s.now(), SimTime::from_nanos(20));
        assert_eq!(s.events_processed(), 2);
    }

    #[test]
    fn model_can_schedule_followups() {
        let mut s = sim(true);
        s.schedule_at(SimTime::from_nanos(0), Ev(0));
        s.run();
        assert_eq!(s.model().seen, vec![(0, 0), (10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn run_until_is_inclusive_and_resumable() {
        let mut s = sim(true);
        s.schedule_at(SimTime::from_nanos(0), Ev(0));
        s.run_until(SimTime::from_nanos(10));
        assert_eq!(s.model().seen, vec![(0, 0), (10, 1)]);
        s.run();
        assert_eq!(s.model().seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut s = sim(false);
        s.schedule_at(SimTime::from_nanos(5), Ev(1));
        s.run();
        s.schedule_at(SimTime::from_nanos(1), Ev(2));
    }
}
