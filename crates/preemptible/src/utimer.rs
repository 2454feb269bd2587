//! LibUtimer: fast, hardware-assisted preemptive timers in user space
//! (§IV-A).
//!
//! Each worker thread registers a 64-byte-aligned *deadline address*
//! holding the TSC value of its next wanted preemption. A dedicated
//! timer thread polls the TSC and `SENDUIPI`s any worker whose deadline
//! passed. The three paper interfaces map as:
//!
//! * `utimer_init`   → [`UtimerRegistry::new`] (+ the runtime spawning
//!   the timer-core poll events)
//! * `utimer_register` → [`UtimerRegistry::register`]
//! * `utimer_arm_deadline` → [`UtimerRegistry::arm`] (a plain memory
//!   write — no syscall, the whole point of the design)
//!
//! The registry mirrors the paper's layout: per slot, one
//! 64-byte-aligned **hot line** holding exactly what the timer core's
//! scan loop reads (the deadline). With one slot per worker the linear
//! pass *is* the fast path, exactly like the paper's per-worker
//! deadline cachelines.
//!
//! For "applications with large thread counts and request for higher
//! number of timers" the paper opts into a **timing wheel** (its ref.
//! \[64\]); [`TimingWheel`] is that interface, and since the engine's
//! timing-wheel rebuild it is a thin adapter over the *shared*
//! hierarchical wheel core in `lp_sim` (one wheel implementation, two
//! call sites: the simulator's `EventQueue` and this type). The
//! property test pinning its behaviour to the naive scan is retained
//! unchanged.

use lp_sim::obs::{Event, Observer};
use lp_sim::{EventQueue, SimTime};

/// Identifies a registered deadline slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(usize);

impl SlotId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One slot's hot state, padded and aligned to its own 64-byte cache
/// line — the simulated analogue of the paper's dedicated deadline
/// cacheline per worker. The timer core's scan touches nothing else,
/// and two workers' lines never false-share.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct DeadlineLine {
    /// The armed deadline, if any (absolute simulated TSC).
    deadline: Option<SimTime>,
}

/// The deadline-slot registry the timer core scans.
///
/// Deadlines are absolute [`SimTime`]s (the simulation's TSC). A slot is
/// *armed* when it holds a deadline and *disarmed* otherwise.
///
/// ```
/// use libpreemptible::utimer::UtimerRegistry;
/// use lp_sim::SimTime;
///
/// let mut reg = UtimerRegistry::new();
/// let slot = reg.register();
/// reg.arm(slot, SimTime::from_nanos(5_000));
/// assert_eq!(reg.expired(SimTime::from_nanos(4_999)), vec![]);
/// assert_eq!(reg.expired(SimTime::from_nanos(5_000)), vec![slot]);
/// // Firing disarms: no double delivery.
/// assert_eq!(reg.expired(SimTime::from_nanos(9_000)), vec![]);
/// ```
#[derive(Debug, Default)]
pub struct UtimerRegistry {
    /// One aligned line per slot; the only thing `expired`'s scan loop
    /// reads.
    lines: Vec<DeadlineLine>,
    armed: usize,
}

impl UtimerRegistry {
    /// Creates an empty registry (`utimer_init`'s bookkeeping half).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new deadline slot (`utimer_register`): allocates the
    /// dedicated cacheline and wires the kernel-side handler fd, which
    /// the runtime charges separately.
    pub fn register(&mut self) -> SlotId {
        self.lines.push(DeadlineLine::default());
        SlotId(self.lines.len() - 1)
    }

    /// Arms `slot` to fire at `deadline` (`utimer_arm_deadline`): just a
    /// memory write.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never registered.
    pub fn arm(&mut self, slot: SlotId, deadline: SimTime) {
        let line = self
            .lines
            .get_mut(slot.0)
            .expect("arming unregistered slot");
        if line.deadline.is_none() {
            self.armed += 1;
        }
        line.deadline = Some(deadline);
    }

    /// Disarms `slot` (worker finished or yielded before expiry).
    pub fn disarm(&mut self, slot: SlotId) {
        if let Some(line) = self.lines.get_mut(slot.0) {
            if line.deadline.take().is_some() {
                self.armed -= 1;
            }
        }
    }

    /// [`arm`](Self::arm) plus a `deadline_armed` event.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never registered.
    pub fn arm_observed(
        &mut self,
        slot: SlotId,
        deadline: SimTime,
        at: SimTime,
        obs: &mut Observer,
    ) {
        self.arm(slot, deadline);
        obs.emit(
            at,
            Event::DeadlineArmed {
                slot: slot.0 as u16,
                deadline_ns: deadline.as_nanos(),
            },
        );
    }

    /// [`disarm`](Self::disarm) plus a `deadline_disarmed` event — only
    /// emitted when the slot was actually armed.
    pub fn disarm_observed(&mut self, slot: SlotId, at: SimTime, obs: &mut Observer) {
        let was_armed = self.deadline(slot).is_some();
        self.disarm(slot);
        if was_armed {
            obs.emit(
                at,
                Event::DeadlineDisarmed {
                    slot: slot.0 as u16,
                },
            );
        }
    }

    /// The armed deadline of `slot`, if any.
    pub fn deadline(&self, slot: SlotId) -> Option<SimTime> {
        self.lines.get(slot.0).and_then(|l| l.deadline)
    }

    /// Scans all slots (the timer core's `RDTSC` loop body) and returns
    /// the slots whose deadlines are `<= now`, disarming them.
    pub fn expired(&mut self, now: SimTime) -> Vec<SlotId> {
        let mut fired = Vec::new();
        self.expire_into(now, &mut fired);
        fired
    }

    /// [`expired`](Self::expired) into `fired` (cleared first, so a
    /// caller can reuse one buffer for every scan) plus a `timer_poll`
    /// event recording how many deadlines this scan fired (including
    /// zero — poll frequency itself is a cost the paper measures).
    pub fn expired_observed(&mut self, now: SimTime, fired: &mut Vec<SlotId>, obs: &mut Observer) {
        fired.clear();
        self.expire_into(now, fired);
        obs.emit(
            now,
            Event::TimerPoll {
                expired: fired.len() as u16,
            },
        );
    }

    /// Appends the slots whose deadlines are `<= now` to `fired`,
    /// disarming them.
    fn expire_into(&mut self, now: SimTime, fired: &mut Vec<SlotId>) {
        for (i, line) in self.lines.iter_mut().enumerate() {
            if let Some(dl) = line.deadline {
                if dl <= now {
                    line.deadline = None;
                    self.armed -= 1;
                    fired.push(SlotId(i));
                }
            }
        }
    }

    /// The earliest armed deadline (lets the simulated timer core — and
    /// a real `UMWAIT`-based one — sleep to the next interesting
    /// instant instead of spinning).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.lines.iter().filter_map(|l| l.deadline).min()
    }

    /// Number of armed slots.
    pub fn armed(&self) -> usize {
        self.armed
    }
}

/// A hierarchical timing wheel over absolute deadlines — the
/// high-timer-count option of §IV-A.
///
/// Since the engine rebuild this is a thin adapter over the shared
/// wheel core (`lp_sim::EventQueue`): four cascading levels of 1024
/// slots at 1 ns resolution with O(1) insert, far-future entries
/// overflowing to a packed-key heap. One wheel implementation serves both the
/// simulator's event loop and this deadline store; the duplicated
/// two-level cascade that used to live here is gone.
///
/// [`advance`](Self::advance) fires exactly the entries with
/// `deadline <= now`, identical to the old implementation (whose tick
/// granularity only shaped its internal buckets, never its fire
/// condition) — pinned by the `timing_wheel_matches_naive_scan`
/// property test.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// The requested tick resolution. The shared core always files at
    /// exact 1 ns resolution, so this no longer steers bucket geometry;
    /// it is kept (and validated) for interface compatibility with the
    /// paper's `utimer`-wheel constructor.
    tick_ns: u64,
    q: EventQueue<T>,
}

impl<T> TimingWheel<T> {
    /// Creates a wheel with the given tick resolution in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `tick_ns` is zero.
    pub fn new(tick_ns: u64) -> Self {
        assert!(tick_ns > 0, "tick must be positive");
        TimingWheel {
            tick_ns,
            q: EventQueue::new(),
        }
    }

    /// The tick resolution this wheel was constructed with.
    pub fn tick_ns(&self) -> u64 {
        self.tick_ns
    }

    /// Entries currently filed.
    pub fn len(&self) -> usize {
        self.q.live_len()
    }

    /// `true` when no entries are filed.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Inserts an entry firing at `deadline`.
    ///
    /// Deadlines at or before the current time fire on the next
    /// [`advance`](Self::advance).
    pub fn insert(&mut self, deadline: SimTime, value: T) {
        self.q.push(deadline, value);
    }

    /// Advances the wheel to `now`, returning every entry whose deadline
    /// is `<= now` (in deadline order, insertion order among ties — a
    /// refinement of the old unordered contract, which callers treated
    /// as simultaneous anyway).
    pub fn advance(&mut self, now: SimTime) -> Vec<(SimTime, T)> {
        let mut fired = Vec::new();
        while self.q.peek_time().is_some_and(|t| t <= now) {
            let (d, v) = self.q.pop().expect("peeked entry");
            fired.push((d, v));
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn registry_register_arm_fire() {
        let mut r = UtimerRegistry::new();
        let a = r.register();
        let b = r.register();
        r.arm(a, t(100));
        r.arm(b, t(200));
        assert_eq!(r.armed(), 2);
        assert_eq!(r.next_deadline(), Some(t(100)));
        assert_eq!(r.expired(t(150)), vec![a]);
        assert_eq!(r.armed(), 1);
        assert_eq!(r.expired(t(250)), vec![b]);
        assert_eq!(r.armed(), 0);
        assert_eq!(r.next_deadline(), None);
    }

    #[test]
    fn registry_rearm_overwrites() {
        let mut r = UtimerRegistry::new();
        let a = r.register();
        r.arm(a, t(100));
        r.arm(a, t(500)); // quantum extended
        assert_eq!(r.armed(), 1);
        assert_eq!(r.expired(t(200)), vec![]);
        assert_eq!(r.expired(t(500)), vec![a]);
    }

    #[test]
    fn registry_disarm() {
        let mut r = UtimerRegistry::new();
        let a = r.register();
        r.arm(a, t(100));
        r.disarm(a);
        assert_eq!(r.armed(), 0);
        assert!(r.expired(t(1_000)).is_empty());
        // Disarming a disarmed slot is a no-op.
        r.disarm(a);
        assert_eq!(r.armed(), 0);
    }

    #[test]
    fn registry_simultaneous_expiry_order_is_slot_order() {
        let mut r = UtimerRegistry::new();
        let a = r.register();
        let b = r.register();
        let c = r.register();
        r.arm(c, t(10));
        r.arm(a, t(10));
        r.arm(b, t(10));
        assert_eq!(r.expired(t(10)), vec![a, b, c]);
    }

    #[test]
    fn deadline_lines_are_cacheline_sized() {
        // The paper's contract: one worker's deadline write can never
        // false-share another's line.
        assert_eq!(std::mem::align_of::<DeadlineLine>(), 64);
        assert_eq!(std::mem::size_of::<DeadlineLine>(), 64);
    }

    #[test]
    fn registry_observed_emits_schema_events() {
        use lp_sim::obs::{Counter, Observer};
        let mut r = UtimerRegistry::new();
        let a = r.register();
        let mut obs = Observer::new(16);
        r.arm_observed(a, t(500), t(100), &mut obs);
        // Empty poll still records the scan, and clears the reused
        // buffer first.
        let mut fired = vec![a];
        r.expired_observed(t(200), &mut fired, &mut obs);
        assert!(fired.is_empty());
        r.expired_observed(t(600), &mut fired, &mut obs);
        assert_eq!(fired, [a]);
        // Disarming an already-fired slot emits nothing.
        r.disarm_observed(a, t(700), &mut obs);
        r.arm_observed(a, t(900), t(800), &mut obs);
        r.disarm_observed(a, t(850), &mut obs);
        let m = obs.metrics();
        assert_eq!(m.get(Counter::DeadlinesArmed), 2);
        assert_eq!(m.get(Counter::DeadlinesDisarmed), 1);
        assert_eq!(m.get(Counter::TimerPolls), 2);
        assert_eq!(m.get(Counter::DeadlinesFired), 1);
        let evs: Vec<_> = obs.events().copied().collect();
        assert_eq!(
            evs[0].ev,
            Event::DeadlineArmed {
                slot: 0,
                deadline_ns: 500
            }
        );
        assert_eq!(evs[1].ev, Event::TimerPoll { expired: 0 });
        assert_eq!(evs[2].ev, Event::TimerPoll { expired: 1 });
        assert_eq!(evs[4].ev, Event::DeadlineDisarmed { slot: 0 });
    }

    #[test]
    #[should_panic(expected = "arming unregistered slot")]
    fn arming_unregistered_panics() {
        let mut r = UtimerRegistry::new();
        r.arm(SlotId(3), t(1));
    }

    #[test]
    fn wheel_basic_fire() {
        let mut w = TimingWheel::new(100);
        w.insert(t(250), "a");
        w.insert(t(950), "b");
        assert_eq!(w.len(), 2);
        let fired = w.advance(t(300));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "a");
        let fired = w.advance(t(1_000));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "b");
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_past_deadline_fires_immediately() {
        let mut w = TimingWheel::new(100);
        w.advance(t(5_000));
        w.insert(t(1_000), 7); // already past
        let fired = w.advance(t(5_000));
        assert_eq!(fired, vec![(t(1_000), 7)]);
    }

    #[test]
    fn wheel_level1_cascade() {
        let mut w = TimingWheel::new(10);
        // Far enough out to sit above the first wheel level; must
        // cascade down and fire exactly on time.
        w.insert(t(30_000), "far");
        assert_eq!(w.advance(t(29_000)).len(), 0);
        let fired = w.advance(t(30_000));
        assert_eq!(fired.len(), 1, "cascaded entry must fire");
    }

    #[test]
    fn wheel_overflow_horizon() {
        let mut w = TimingWheel::new(10);
        // Beyond the old two-level horizon (256*256*10 ns = 655_360 ns).
        w.insert(t(2_000_000), "vfar");
        assert_eq!(w.advance(t(1_999_999)).len(), 0);
        let fired = w.advance(t(2_000_000));
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn wheel_same_lap_collision() {
        let mut w = TimingWheel::new(10);
        // Same old level-0 slot, different laps: 50ns and 50ns + 2560ns.
        w.insert(t(50), 1);
        w.insert(t(50 + 2_560), 2);
        let fired = w.advance(t(60));
        assert_eq!(fired, vec![(t(50), 1)]);
        let fired = w.advance(t(3_000));
        assert_eq!(fired, vec![(t(50 + 2_560), 2)]);
    }

    #[test]
    fn wheel_far_future_overflow_to_heap() {
        // Past the shared core's 2^40 ns wheel horizon: the entry rides
        // the overflow heap and still fires exactly.
        let mut w = TimingWheel::new(1);
        let far = (1u64 << 40) + 123;
        w.insert(t(far), "beyond-horizon");
        assert_eq!(w.advance(t(far - 1)).len(), 0);
        assert_eq!(w.advance(t(far)), vec![(t(far), "beyond-horizon")]);
    }
}
