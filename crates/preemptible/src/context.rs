//! Context management (§IV-B).
//!
//! The paper customizes the `fcontext` library: each request runs on a
//! lightweight context (saved registers, signal mask, stack pointer,
//! resume link) drawn from a **global memory pool**. Finished contexts
//! return to a global *free list*; preempted contexts go to a global
//! *wait/running list* together with their state. We reproduce that
//! object lifecycle exactly — it is the part of the system a real UINTR
//! port would keep verbatim — with the machine state replaced by the
//! simulation's per-request progress.

use lp_sim::{SimDur, SimTime};

/// Identifies a context object inside its [`ContextPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(usize);

impl ContextId {
    /// Raw pool index (stable for the context's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

/// The saved state of one preemptible function.
///
/// In the C implementation this is the fcontext machine frame plus
/// request metadata; in the simulation it is the request's identity and
/// remaining work.
#[derive(Debug, Clone, PartialEq)]
pub struct Context {
    /// The request occupying this context.
    pub request: u64,
    /// When the request arrived (for end-to-end latency).
    pub arrived: SimTime,
    /// Work still to execute.
    pub remaining: SimDur,
    /// Total work the request needs (fixed at launch).
    pub total: SimDur,
    /// Number of times this function has been preempted.
    pub preemptions: u32,
    /// Workload class tag (0 = default / LC, 1 = BE, ...).
    pub class: u8,
}

/// Lifecycle state of each pool slot (enforced, not assumed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    /// Attached to a running function.
    Active,
    /// Preempted and parked on the running list.
    Parked,
}

/// The global context pool with free and running (preempted) lists.
///
/// Invariants (checked in debug builds and by the property tests):
///
/// * every slot is exactly one of free / active / parked;
/// * the free list and running list are disjoint;
/// * `free() + active() + parked() == capacity_in_use()`.
///
/// ```
/// use libpreemptible::context::{Context, ContextPool};
/// use lp_sim::{SimDur, SimTime};
///
/// let mut pool = ContextPool::with_capacity(64);
/// let id = pool
///     .allocate(1, SimTime::ZERO, SimDur::micros(10), 0)
///     .expect("pool has room");
/// pool.park(id); // preempted
/// let resumed = pool.take_parked().expect("one parked context");
/// assert_eq!(resumed, id);
/// pool.release(id); // completed
/// assert_eq!(pool.free(), 64);
/// ```
#[derive(Debug)]
pub struct ContextPool {
    slots: Vec<Context>,
    states: Vec<SlotState>,
    free_list: Vec<ContextId>,
    /// Global "running list" of preempted functions, FIFO.
    running_list: std::collections::VecDeque<ContextId>,
    capacity: usize,
}

/// Error returned when the pool is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted;

impl std::fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "context pool exhausted")
    }
}
impl std::error::Error for PoolExhausted {}

impl ContextPool {
    /// Creates a pool bounded at `capacity` contexts (the application
    /// "can define the size of this pool").
    pub fn with_capacity(capacity: usize) -> Self {
        ContextPool {
            slots: Vec::new(),
            states: Vec::new(),
            free_list: Vec::new(),
            running_list: std::collections::VecDeque::new(),
            capacity,
        }
    }

    /// Allocates a context for a new request (`fn_launch`'s allocation
    /// half).
    ///
    /// # Errors
    ///
    /// Returns [`PoolExhausted`] when `capacity` contexts are live.
    pub fn allocate(
        &mut self,
        request: u64,
        arrived: SimTime,
        work: SimDur,
        class: u8,
    ) -> Result<ContextId, PoolExhausted> {
        let id = if let Some(id) = self.free_list.pop() {
            debug_assert_eq!(self.states[id.0], SlotState::Free);
            self.slots[id.0] = Context {
                request,
                arrived,
                remaining: work,
                total: work,
                preemptions: 0,
                class,
            };
            id
        } else {
            if self.slots.len() >= self.capacity {
                return Err(PoolExhausted);
            }
            self.slots.push(Context {
                request,
                arrived,
                remaining: work,
                total: work,
                preemptions: 0,
                class,
            });
            self.states.push(SlotState::Free);
            ContextId(self.slots.len() - 1)
        };
        self.states[id.0] = SlotState::Active;
        Ok(id)
    }

    /// Parks an active context on the global running list (preemption).
    ///
    /// # Panics
    ///
    /// Panics if the context is not active.
    pub fn park(&mut self, id: ContextId) {
        assert_eq!(
            self.states[id.0],
            SlotState::Active,
            "parking a non-active context"
        );
        self.states[id.0] = SlotState::Parked;
        self.slots[id.0].preemptions += 1;
        self.running_list.push_back(id);
    }

    /// Takes the oldest parked context for resumption (`fn_resume`'s
    /// source).
    pub fn take_parked(&mut self) -> Option<ContextId> {
        let id = self.running_list.pop_front()?;
        debug_assert_eq!(self.states[id.0], SlotState::Parked);
        self.states[id.0] = SlotState::Active;
        Some(id)
    }

    /// Takes the parked context with the smallest `key`; ties go to the
    /// one parked earliest. Used by policies that order resumes with
    /// their own key.
    pub fn take_parked_min_by_key(
        &mut self,
        mut key: impl FnMut(ContextId, &Context) -> u64,
    ) -> Option<ContextId> {
        // `min_by_key` returns the first of equal minima.
        let (pos, _) = self
            .running_list
            .iter()
            .map(|&id| key(id, &self.slots[id.0]))
            .enumerate()
            .min_by_key(|&(_, k)| k)?;
        let id = self.running_list.remove(pos).expect("index in range");
        debug_assert_eq!(self.states[id.0], SlotState::Parked);
        self.states[id.0] = SlotState::Active;
        Some(id)
    }

    /// Returns a completed context to the free list (`fn_completed` →
    /// reuse).
    ///
    /// # Panics
    ///
    /// Panics if the context is not active (double release or release
    /// of a parked context without resuming it first).
    pub fn release(&mut self, id: ContextId) {
        assert_eq!(
            self.states[id.0],
            SlotState::Active,
            "releasing a non-active context"
        );
        self.states[id.0] = SlotState::Free;
        self.free_list.push(id);
    }

    /// Shared access to a context's state.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn get(&self, id: ContextId) -> &Context {
        assert_ne!(
            self.states[id.0],
            SlotState::Free,
            "access to freed context"
        );
        &self.slots[id.0]
    }

    /// Exclusive access to a context's state.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn get_mut(&mut self, id: ContextId) -> &mut Context {
        assert_ne!(
            self.states[id.0],
            SlotState::Free,
            "access to freed context"
        );
        &mut self.slots[id.0]
    }

    /// Number of contexts on the free list plus never-allocated
    /// headroom.
    pub fn free(&self) -> usize {
        self.capacity - self.live()
    }

    /// Currently live (active + parked) contexts.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free_list.len()
    }

    /// Contexts parked on the running list.
    pub fn parked(&self) -> usize {
        self.running_list.len()
    }

    /// Earliest arrival time among live (active or parked) contexts,
    /// or `None` when the pool is idle. At the end of a run this is
    /// the oldest request the system failed to finish — a lower bound
    /// on the true worst-case response that the completed-latency
    /// histogram censors.
    pub fn oldest_live_arrival(&self) -> Option<SimTime> {
        self.slots
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| **s != SlotState::Free)
            .map(|(c, _)| c.arrived)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ContextPool {
        ContextPool::with_capacity(4)
    }

    fn alloc(p: &mut ContextPool, req: u64) -> ContextId {
        p.allocate(req, SimTime::ZERO, SimDur::micros(req + 1), 0)
            .expect("capacity")
    }

    #[test]
    fn allocate_park_resume_release_cycle() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        assert_eq!(p.live(), 1);
        p.park(a);
        assert_eq!(p.parked(), 1);
        let back = p.take_parked().unwrap();
        assert_eq!(back, a);
        assert_eq!(p.get(a).preemptions, 1);
        p.release(a);
        assert_eq!(p.live(), 0);
        assert_eq!(p.free(), 4);
    }

    #[test]
    fn pool_exhaustion() {
        let mut p = pool();
        for i in 0..4 {
            alloc(&mut p, i);
        }
        assert_eq!(
            p.allocate(99, SimTime::ZERO, SimDur::micros(1), 0),
            Err(PoolExhausted)
        );
    }

    #[test]
    fn freed_contexts_are_reused() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        p.release(a);
        let b = alloc(&mut p, 2);
        assert_eq!(a, b, "slot must be recycled");
        assert_eq!(p.get(b).request, 2);
        assert_eq!(p.get(b).preemptions, 0, "recycled slot must be reset");
    }

    #[test]
    fn fifo_running_list() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        let b = alloc(&mut p, 2);
        p.park(a);
        p.park(b);
        assert_eq!(p.take_parked(), Some(a));
        assert_eq!(p.take_parked(), Some(b));
        assert_eq!(p.take_parked(), None);
    }

    #[test]
    fn keyed_take_picks_the_smallest_key() {
        let mut p = pool();
        let a = alloc(&mut p, 1); // work 2us
        let b = alloc(&mut p, 9); // work 10us
        p.get_mut(a).remaining = SimDur::micros(8);
        p.get_mut(b).remaining = SimDur::micros(3);
        p.park(a);
        p.park(b);
        let srpt = |_: ContextId, c: &Context| c.remaining.as_nanos();
        assert_eq!(p.take_parked_min_by_key(srpt), Some(b));
        assert_eq!(p.take_parked_min_by_key(srpt), Some(a));
        assert_eq!(p.take_parked_min_by_key(srpt), None);
    }

    #[test]
    fn keyed_take_breaks_ties_oldest_first() {
        let mut p = pool();
        let (a, b, c) = (alloc(&mut p, 1), alloc(&mut p, 2), alloc(&mut p, 3));
        // Parked out of allocation order: the parked list is c, a, b.
        p.park(c);
        p.park(a);
        p.park(b);
        let flat = |_: ContextId, _: &Context| 0u64;
        assert_eq!(p.take_parked_min_by_key(flat), Some(c));
        assert_eq!(p.take_parked_min_by_key(flat), Some(a));
        assert_eq!(p.take_parked_min_by_key(flat), Some(b));
    }

    #[test]
    #[should_panic(expected = "releasing a non-active context")]
    fn double_release_panics() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        p.release(a);
        p.release(a);
    }

    #[test]
    #[should_panic(expected = "parking a non-active context")]
    fn double_park_panics() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        p.park(a);
        p.park(a);
    }

    #[test]
    #[should_panic(expected = "access to freed context")]
    fn use_after_free_panics() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        p.release(a);
        let _ = p.get(a);
    }
}
