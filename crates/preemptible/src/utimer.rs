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
//! \[64\]). Here that wheel is the simulator's own event queue,
//! `lp_sim::EventQueue`, a hierarchical timing wheel: the runtime files
//! the timer core's next poll on it at the earliest armed deadline.

use lp_sim::obs::{Event, Observer};
use lp_sim::SimTime;

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
    fn disarm(&mut self, slot: SlotId) {
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

    /// `disarm` plus a `deadline_disarmed` event — only
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
    fn deadline(&self, slot: SlotId) -> Option<SimTime> {
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
}
