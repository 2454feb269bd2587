//! Vector-clock happens-before machinery.
//!
//! A trace is a sequence of events, each performed by one **actor**
//! (a worker, the timer/watchdog core, the dispatcher). Actors give
//! program order; **typed edges** (send→deliver, retry→re-send,
//! arm→fire, dispatch→run, steal→run) give cross-actor causality.
//! Every event gets a vector clock: the component-wise join of its
//! actor's clock and the clocks of its incoming edges, plus one tick
//! of its own actor. Event `a` happens-before event `b` iff
//! `clock(a) <= clock(b)` component-wise — anything else is
//! concurrent, and two concurrent transitions on the same state are a
//! race.
//!
//! The graph is generic over what the events mean; `race.rs` maps the
//! `lp_sim::obs` vocabulary onto it.

use std::fmt;

/// A fixed-width vector clock, one component per actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VClock(Vec<u64>);

impl VClock {
    /// The zero clock over `actors` components.
    pub fn new(actors: usize) -> Self {
        VClock(vec![0; actors])
    }

    /// Component-wise maximum with `other`.
    fn join(&mut self, other: &VClock) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Advances `actor`'s component by one.
    fn tick(&mut self, actor: usize) {
        self.0[actor] += 1;
    }

    /// `true` iff every component of `self` is `<=` the matching
    /// component of `other` — the happens-before-or-equal order.
    fn leq(&self, other: &VClock) -> bool {
        debug_assert_eq!(self.0.len(), other.0.len());
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

/// The causality type of a cross-actor edge. The vocabulary is fixed
/// and documented in `docs/CHECKS.md`; `StealRun` is reserved for the
/// work-stealing runtime (a steal request's grant must happen-before
/// the thief running the stolen task) so traces from that PR slot in
/// without a schema change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// A preemption send to its matching landing (`preempt_issued` →
    /// `preempt_landed`, joined on `(worker, seq)`).
    SendDeliver,
    /// A watchdog retry decision to the re-send it triggers
    /// (`preempt_retry` → the next `preempt_issued` with the same
    /// `(worker, seq)` and a higher attempt).
    RetryResend,
    /// A timer arm to its expiry (`ktimer_armed` → `ktimer_fired`).
    ArmFire,
    /// A dispatcher placement to the placed task starting
    /// (`policy_dispatch` → `task_start`).
    DispatchRun,
    /// A granted steal to the thief running the stolen task (reserved
    /// for the work-stealing runtime).
    StealRun,
}

/// One recorded cross-actor edge, by event index.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Index of the causing event.
    pub from: usize,
    /// Index of the caused event.
    pub to: usize,
    /// What kind of causality the edge asserts.
    pub kind: EdgeKind,
}

/// The happens-before graph over one trace: per-event vector clocks
/// plus the typed cross-actor edges that produced them.
pub struct HbGraph {
    actors: usize,
    actor_clock: Vec<VClock>,
    event_clock: Vec<VClock>,
    event_actor: Vec<usize>,
    edges: Vec<Edge>,
}

impl HbGraph {
    /// An empty graph over `actors` actors.
    pub fn new(actors: usize) -> Self {
        HbGraph {
            actors,
            actor_clock: (0..actors).map(|_| VClock::new(actors)).collect(),
            event_clock: Vec::new(),
            event_actor: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Records the next event of `actor`, causally after `incoming`
    /// (pairs of prior event index and edge kind). Returns the new
    /// event's index. Edges from out-of-range indices panic — callers
    /// build edges from events they already observed.
    pub fn observe(&mut self, actor: usize, incoming: &[(usize, EdgeKind)]) -> usize {
        assert!(actor < self.actors, "actor {actor} out of range");
        let idx = self.event_clock.len();
        let mut clock = self.actor_clock[actor].clone();
        for &(from, kind) in incoming {
            clock.join(&self.event_clock[from]);
            self.edges.push(Edge {
                from,
                to: idx,
                kind,
            });
        }
        clock.tick(actor);
        self.actor_clock[actor] = clock.clone();
        self.event_clock.push(clock);
        self.event_actor.push(actor);
        idx
    }

    /// `true` iff event `a` happens-before event `b` (strictly: `a`'s
    /// clock is `<=` `b`'s and the events differ).
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        a != b && self.event_clock[a].leq(&self.event_clock[b])
    }

    /// All recorded cross-actor edges, in observation order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The causal history of `idx`: every event that happens-before
    /// it, oldest first, capped at the `limit` events closest to
    /// `idx`. This is the minimized slice attached to diagnostics — a
    /// reader sees only the chain that could have caused the event,
    /// not the whole trace.
    pub fn causal_slice(&self, idx: usize, limit: usize) -> Vec<usize> {
        let mut chain: Vec<usize> = (0..self.event_clock.len())
            .filter(|&e| e == idx || self.happens_before(e, idx))
            .collect();
        if chain.len() > limit {
            chain = chain.split_off(chain.len() - limit);
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_order_is_happens_before() {
        let mut g = HbGraph::new(2);
        let a = g.observe(0, &[]);
        let b = g.observe(0, &[]);
        assert!(g.happens_before(a, b));
        assert!(!g.happens_before(b, a));
        assert!(!g.happens_before(a, a), "strict order");
    }

    #[test]
    fn unrelated_actors_are_concurrent() {
        let mut g = HbGraph::new(2);
        let a = g.observe(0, &[]);
        let b = g.observe(1, &[]);
        assert!(!g.happens_before(a, b) && !g.happens_before(b, a));
    }

    #[test]
    fn edges_synchronize_actors() {
        let mut g = HbGraph::new(3);
        let send = g.observe(0, &[]);
        let deliver = g.observe(1, &[(send, EdgeKind::SendDeliver)]);
        let later = g.observe(1, &[]);
        assert!(g.happens_before(send, deliver));
        assert!(g.happens_before(send, later), "transitively");
        // A third actor never synchronized stays concurrent.
        let lone = g.observe(2, &[]);
        assert!(!g.happens_before(send, lone) && !g.happens_before(lone, send));
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.edges()[0].kind, EdgeKind::SendDeliver);
    }

    #[test]
    fn transitivity_through_two_edges() {
        let mut g = HbGraph::new(3);
        let arm = g.observe(0, &[]);
        let fire = g.observe(1, &[(arm, EdgeKind::ArmFire)]);
        let run = g.observe(2, &[(fire, EdgeKind::DispatchRun)]);
        assert!(g.happens_before(arm, run));
        // A later event of the synchronized actor inherits the chain.
        let after = g.observe(2, &[]);
        assert!(g.happens_before(arm, after));
    }

    #[test]
    fn causal_slice_is_the_history_capped() {
        let mut g = HbGraph::new(2);
        let mut last = g.observe(0, &[]);
        for _ in 0..10 {
            last = g.observe(0, &[]);
        }
        let lone = g.observe(1, &[]);
        let slice = g.causal_slice(last, 4);
        assert_eq!(slice.len(), 4);
        assert_eq!(*slice.last().unwrap(), last);
        assert!(!slice.contains(&lone), "concurrent events excluded");
    }
}
