//! The pending-event queue.
//!
//! Since the timing-wheel rebuild this type is a thin facade over the
//! shared hierarchical wheel core in [`crate::wheel`]: near-future
//! events live in cascading wheel levels (four levels × 1024 slots at
//! a 1 ns tick, so ~18 min of horizon) with O(1) arm/cancel/re-arm;
//! far-future events overflow to a packed-`u128` binary heap and
//! migrate into the wheel on top-level rollover. The ordering key is
//! unchanged — `(time << 64) | seq` with a monotonically increasing
//! sequence number — and [`EventQueue::pop`] always returns the
//! globally smallest live key, so event order is *total* and the whole
//! simulation stays deterministic: two events scheduled for the same
//! instant fire in scheduling order, byte-identical to the old
//! pure-heap engine. [`EventQueue::reserve`] takes a place in that
//! order before the event exists, and [`EventQueue::push_reserved`]
//! files the event there later.
//!
//! Cancellation is O(1) via **generation-tagged slab nodes** instead
//! of a tombstone set. Every scheduled event borrows a node in the
//! wheel's slab; its [`EventId`] packs `(slot, generation)`. An entry
//! is live exactly while its generation matches the node's current
//! one, so [`EventQueue::cancel`] is one bounds-checked compare (plus
//! an intrusive-list unlink for wheel-resident events) — including the
//! cancel-after-fire case. This is the pattern needed by re-armed
//! deadlines (LibUtimer re-arms a thread's preemption deadline every
//! time the scheduler grants a new quantum, invalidating the
//! previously scheduled expiry): cancel + re-push is O(1) with no
//! per-tombstone memory left behind and no heap sift at all.
//!
//! Cancelled heap-resident entries die lazily by generation bump, but
//! the queue maintains the invariant that the heap *top* is always
//! live, and the wheel side caches its exact minimum. That is what
//! lets [`EventQueue::peek_time`] and [`EventQueue::is_empty`] take
//! `&self` (non-mutating) — there is never cleanup left to do at peek
//! time. Geometry, cost model, and the determinism argument are laid
//! out in `docs/PERFORMANCE.md` and on the [`crate::wheel`] module.

use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// Identifies a scheduled event so it can be cancelled.
///
/// Internally packs `(generation, slot)`; the raw value is an opaque
/// handle (stable within a run, reproducible across runs with the same
/// seed, but *not* monotonic — slots are reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A place in the queue's `(time, seq)` tie-break order, taken by
/// [`EventQueue::reserve`] before the event it orders is known to be
/// needed. An event later filed under it with
/// [`EventQueue::push_reserved`] pops exactly where a push made at the
/// reservation would have. Use each ticket for at most one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket(u64);

/// A deterministic priority queue of timestamped events.
///
/// ```
/// use lp_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// let a = q.push(SimTime::from_nanos(10), "a");
/// let _b = q.push(SimTime::from_nanos(5), "b");
/// q.cancel(a);
/// assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.wheel.fmt(f)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` concurrently
    /// scheduled events (an *arrival-rate hint*: the node slab and the
    /// overflow heap allocate up front instead of growing through the
    /// run's ramp-up, keeping the arm path allocation-free).
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            wheel: TimerWheel::with_capacity(capacity),
        }
    }

    /// Schedules `event` to fire at `time`. Returns an id usable with
    /// [`cancel`](Self::cancel).
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let (slot, gen) = self.wheel.push(time, event);
        EventId::new(slot, gen)
    }

    /// Takes the sequence number the next push would take, without
    /// scheduling anything: every later push orders after the ticket
    /// among equal times.
    ///
    /// ```
    /// use lp_sim::{EventQueue, SimTime};
    /// let mut q = EventQueue::new();
    /// let early = q.reserve();
    /// q.push(SimTime::from_nanos(5), "pushed");
    /// q.push_reserved(SimTime::from_nanos(5), early, "reserved");
    /// assert_eq!(q.pop().map(|(_, e)| e), Some("reserved"));
    /// assert_eq!(q.pop().map(|(_, e)| e), Some("pushed"));
    /// ```
    pub fn reserve(&mut self) -> Ticket {
        Ticket(self.wheel.reserve())
    }

    /// Schedules `event` at `time` under `ticket`'s sequence number, so
    /// it pops exactly where a [`push`](Self::push) made when the ticket
    /// was taken would have. Returns an id usable with
    /// [`cancel`](Self::cancel).
    pub fn push_reserved(&mut self, time: SimTime, ticket: Ticket, event: E) -> EventId {
        let (slot, gen) = self.wheel.push_reserved(time, ticket.0, event);
        EventId::new(slot, gen)
    }

    /// Cancels a previously scheduled event in O(1): a generation
    /// compare plus an intrusive-list unlink for wheel-resident events
    /// (heap residents die by generation bump and drain lazily).
    ///
    /// Cancelling an id that already fired (or was already cancelled) is
    /// a no-op: the node's generation has moved on, so the stale id
    /// matches nothing and leaves no state behind.
    pub fn cancel(&mut self, id: EventId) {
        self.wheel.cancel(id.slot(), id.gen());
    }

    /// Removes and returns the earliest live event, wherever it lives
    /// (wheel bucket or overflow heap) — the globally smallest
    /// `(time, seq)` key.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.wheel.pop()
    }

    /// The timestamp of the earliest live event without removing it.
    ///
    /// Non-mutating: the wheel caches its exact minimum and the heap
    /// top is maintained live by [`cancel`](Self::cancel)/
    /// [`pop`](Self::pop), so there is no lazy cleanup left to do here.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Number of live (scheduled, not cancelled) events. O(1).
    pub fn live_len(&self) -> usize {
        self.wheel.live_len()
    }

    /// Live events *plus* not-yet-drained cancelled overflow entries.
    /// An upper bound on tracked entries.
    #[cfg(test)]
    fn len_upper_bound(&self) -> usize {
        self.wheel.len_upper_bound()
    }

    /// Size of the node slab: the high-water mark of concurrently
    /// scheduled events. Exposed so capacity regressions (leaking
    /// nodes or tombstone-style growth) are testable.
    pub fn slot_capacity(&self) -> usize {
        self.wheel.slab_len()
    }

    /// `true` when no live events remain. O(1), non-mutating.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    /// Test hook: forces a slab node's generation (see
    /// [`TimerWheel::force_gen`]).
    #[cfg(test)]
    fn force_gen(&mut self, slot: u32, gen: u32) {
        self.wheel.force_gen(slot, gen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wheel::HORIZON;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// Pops everything, returning the payloads in pop order (the tests
    /// avoid iterator `collect` so this file stays clean under the
    /// `hot-alloc` lint).
    fn drain_payloads<E>(q: &mut EventQueue<E>) -> Vec<E> {
        let mut out = Vec::with_capacity(q.live_len());
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(drain_payloads(&mut q), [1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(t(5), "first");
        q.push(t(5), "second");
        q.push(t(5), "third");
        assert_eq!(drain_payloads(&mut q), ["first", "second", "third"]);
    }

    #[test]
    fn ties_break_by_insertion_order_across_slot_reuse() {
        // Slot reuse must not disturb the time-tie ordering: the order
        // key is the monotonic sequence number, not the recycled id.
        let mut q = EventQueue::new();
        let a = q.push(t(5), "dead");
        q.cancel(a); // frees slot 0
        q.push(t(5), "first"); // reuses slot 0, later seq
        q.push(t(5), "second");
        q.push(t(3), "zeroth");
        assert_eq!(drain_payloads(&mut q), ["zeroth", "first", "second"]);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        q.cancel(a);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        q.cancel(a); // already fired
        q.push(t(2), "b");
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn peek_is_nonmutating_and_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(7), "b");
        q.cancel(a);
        // &self peeks: no &mut needed.
        let r = &q;
        assert_eq!(r.peek_time(), Some(t(7)));
        assert!(!r.is_empty());
        assert_eq!(q.pop(), Some((t(7), "b")));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1u32);
        q.cancel(a);
        q.cancel(a);
        assert!(q.pop().is_none());
        // A later event with a fresh id must not be affected by the
        // stale handle, even though it reuses the slot.
        let b = q.push(t(2), 2u32);
        q.cancel(a); // stale generation: no-op
        assert_ne!(a, b);
        assert_eq!(q.pop(), Some((t(2), 2u32)));
    }

    #[test]
    fn cancel_after_fire_does_not_accumulate_state() {
        // Regression test for unbounded tombstone growth: ids cancelled
        // *after* firing used to sit in the tombstone set until the
        // queue fully drained. With generation-tagged nodes they are
        // O(1) no-ops.
        let mut q = EventQueue::new();
        // A far-future event keeps the queue from ever draining (far
        // enough to sit in the overflow heap the whole time).
        let _far = q.push(t(u64::MAX / 2), 0u64);
        for i in 1..=10_000u64 {
            let id = q.push(t(i), i);
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
            q.cancel(id); // cancel after fire, queue still non-empty
        }
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.len_upper_bound(), 1, "dead entries accumulated");
        assert!(
            q.slot_capacity() <= 2,
            "slab grew without bound: {}",
            q.slot_capacity()
        );
    }

    #[test]
    fn cancel_rearm_pattern_is_bounded() {
        // The LibUtimer deadline pattern: each grant cancels the
        // previous deadline and arms a new one. State must stay O(live).
        let mut q = EventQueue::new();
        let mut deadline = q.push(t(10), 0u64);
        for i in 1..=10_000u64 {
            q.cancel(deadline);
            deadline = q.push(t(10 + i), i);
        }
        assert_eq!(q.live_len(), 1);
        // Cancelled wheel entries unlink eagerly; nothing accumulates.
        assert_eq!(q.len_upper_bound(), 1);
        assert!(q.slot_capacity() <= 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(10_000));
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_preallocates() {
        let q: EventQueue<u32> = EventQueue::with_capacity(1_024);
        assert!(q.is_empty());
        assert_eq!(q.slot_capacity(), 0);
        assert_eq!(q.len_upper_bound(), 0);
    }

    #[test]
    fn live_len_tracks_all_paths() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        let _b = q.push(t(2), 2);
        assert_eq!(q.live_len(), 2);
        q.cancel(a);
        assert_eq!(q.live_len(), 1);
        q.pop();
        assert_eq!(q.live_len(), 0);
        assert!(q.is_empty());
    }

    // -- wheel edge cases --------------------------------------------

    #[test]
    fn same_tick_on_two_levels_pops_in_seq_order() {
        // A filed before the cursor moves lands at level 1; C filed for
        // the *same tick* after a pop advanced the cursor lands at
        // level 0. The queue must still pop by (time, seq) across the
        // level split.
        let mut q = EventQueue::new();
        q.push(t(64), "A"); // delta 64 from cursor 0 -> level 1
        q.push(t(63), "B"); // level 0
        assert_eq!(q.pop(), Some((t(63), "B"))); // cursor now 63
        q.push(t(64), "C"); // delta 1 -> level 0, same tick as A
        q.push(t(65), "D");
        assert_eq!(drain_payloads(&mut q), ["A", "C", "D"]);
    }

    #[test]
    fn same_tick_across_levels_survives_min_recompute() {
        // Same construction, but cancel the cached minimum so the
        // recompute walk has to compare the stale level-1 bucket
        // against the fresh level-0 one.
        let mut q = EventQueue::new();
        let a = q.push(t(64), "A"); // level 1 (filed at cursor 0)
        q.push(t(63), "B");
        assert_eq!(q.pop(), Some((t(63), "B")));
        q.push(t(64), "C"); // level 0, same tick
        q.push(t(65), "D"); // level 0
        q.cancel(a); // kill the minimum -> exact recompute
        assert_eq!(q.peek_time(), Some(t(64)));
        assert_eq!(drain_payloads(&mut q), ["C", "D"]);
    }

    #[test]
    fn cancel_after_cascade_unlinks_from_new_location() {
        // B and A share a level-1 bucket until popping C advances the
        // cursor into their window and cascades them down to level 0.
        // The pre-cascade id must still cancel B at its *new* location.
        let mut q = EventQueue::new();
        let _a = q.push(t(100), "A"); // level 1, slot 1
        let b = q.push(t(90), "B"); // same level-1 bucket
        q.push(t(70), "C"); // same level-1 bucket
        q.push(t(5), "D"); // level 0
        assert_eq!(q.pop(), Some((t(5), "D")));
        assert_eq!(q.pop(), Some((t(70), "C"))); // cascades A and B to level 0
        q.cancel(b);
        assert_eq!(q.live_len(), 1);
        assert_eq!(drain_payloads(&mut q), ["A"]);
    }

    #[test]
    fn far_future_overflow_boundary_is_exact() {
        // HORIZON - 1 is the last wheel-resident delta; HORIZON spills
        // to the overflow heap. Order is unaffected either way.
        let mut q = EventQueue::new();
        q.push(t(HORIZON - 1), "wheel-edge");
        q.push(t(HORIZON), "heap-edge");
        let c = q.push(t(HORIZON + 1), "heap");
        q.cancel(c); // heap-resident cancel: lazy generation bump
        assert_eq!(q.live_len(), 2);
        assert_eq!(drain_payloads(&mut q), ["wheel-edge", "heap-edge"]);
    }

    #[test]
    fn overflow_migration_keeps_ids_valid() {
        // Popping across a top-level window rollover migrates heap
        // entries into the wheel. Node indices and generations are
        // stable across the move, so a pre-migration id still cancels.
        let mut q = EventQueue::new();
        let a = q.push(t(HORIZON), "A"); // heap
        let b = q.push(t(HORIZON + 50), "B"); // heap
        q.push(t(HORIZON - 10), "C"); // wheel, top level
        assert_eq!(q.pop(), Some((t(HORIZON - 10), "C")));
        // Popping A crosses the top-level boundary: B migrates in.
        assert_eq!(q.pop(), Some((t(HORIZON), "A")));
        let _ = a;
        q.cancel(b); // b now wheel-resident; id must still match
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn generation_wraparound_on_a_reused_slot() {
        // After 2^30 reuses a node's generation wraps and an ancient id
        // may alias a fresh one — the documented contract. Force the
        // wrap and check both sides: the stale pre-wrap id is dead, the
        // post-wrap id (aliasing the very first id ever issued for the
        // slot) works.
        let max_gen = crate::wheel::TimerWheel::<u32>::MAX_GEN;
        let mut q = EventQueue::new();
        let first = q.push(t(1), 1u32);
        q.pop();
        q.force_gen(0, max_gen);
        let pre_wrap = q.push(t(2), 2u32); // (slot 0, gen MAX_GEN)
        q.cancel(pre_wrap); // bump wraps MAX -> 0
        let post_wrap = q.push(t(3), 3u32); // (slot 0, gen 0) again
        assert_eq!(first, post_wrap, "wraparound aliases the first id");
        q.cancel(pre_wrap); // stale: no-op
        assert_eq!(q.live_len(), 1);
        q.cancel(post_wrap);
        assert!(q.is_empty());
    }

    #[test]
    fn million_rearm_cycles_do_not_grow_the_slab() {
        // Regression: the deadline arm/cancel/re-arm shape at 1M
        // cycles. After warm-up the freelist must satisfy every
        // push — the slab high-water mark may not move.
        let mut q = EventQueue::with_capacity(64);
        for i in 0..32u64 {
            q.push(t(1_000_000_000 + i), i); // far background deadlines
        }
        let mut now = 0u64;
        let mut armed = q.push(t(now + 100), u64::MAX);
        for i in 0..1_000u64 {
            q.cancel(armed);
            now += 1 + (i % 99);
            armed = q.push(t(now + 100), u64::MAX);
        }
        let warm = q.slot_capacity();
        for i in 0..1_000_000u64 {
            q.cancel(armed);
            now += 1 + (i % 99);
            armed = q.push(t(now + 100), u64::MAX);
        }
        assert_eq!(
            q.slot_capacity(),
            warm,
            "slab grew after warm-up under steady-state re-arm"
        );
        assert_eq!(q.live_len(), 33);
    }
}
