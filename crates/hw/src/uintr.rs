//! The UINTR architectural model.
//!
//! Implements the user-interrupt state machines of §III-A / Fig. 3 of the
//! paper (and the SDM chapter they summarize):
//!
//! * Each **receiver** thread owns a [`Upid`] (User Posted Interrupt
//!   Descriptor) holding the outstanding-notification (`ON`) and
//!   suppress-notification (`SN`) bits plus the 64-bit posted-interrupt
//!   request bitmap (`PUIR`, one bit per user vector).
//! * Each **sender** thread owns a [`Uitt`] (User Interrupt Target Table)
//!   of [`UittEntry`]s mapping a small index to (UPID, vector);
//!   `SENDUIPI <index>` posts the vector and, unless suppressed or
//!   already outstanding, sends a notification to the receiver's CPU.
//! * Delivery depends on the receiver's state: running with UIF set
//!   (deliverable), running with UIF clear (pends until `UIRET`/`STUI`),
//!   or blocked in the kernel (kernel-assisted wakeup — the slow path the
//!   paper measures as "uintrFd (blocked)" in Table IV).
//!
//! The model is a *pure* state machine — latencies are sampled by the
//! caller from [`HwCosts`](crate::HwCosts) — so its transitions can be
//! unit-tested exhaustively.

use lp_sim::fault::IpiFault;
use lp_sim::obs::{Event, Observer};
use lp_sim::SimTime;

use crate::cpu::CoreId;

/// Maximum user-interrupt vectors per receiver thread (§III-A: "User
/// interrupts have 64 interrupt vectors per thread").
pub const UINTR_VECTORS: u8 = 64;

/// Handle to a registered receiver descriptor inside a [`UintrDomain`].
///
/// Generation-tagged: unregistering a receiver bumps its slot's
/// generation, so a stale handle kept across an unregister/register
/// cycle can never alias the slot's new owner — sends through it report
/// [`SendOutcome::Dropped`] instead of silently signalling a stranger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UpidHandle {
    index: usize,
    gen: u32,
}

impl UpidHandle {
    /// The UPID slot index (stable for the handle's lifetime; reused
    /// slots get a fresh generation, not a fresh index).
    pub fn index(&self) -> usize {
        self.index
    }
}

/// User Posted Interrupt Descriptor — the receiver-side mailbox.
#[derive(Debug, Clone, Default)]
pub struct Upid {
    /// `ON` — an unprocessed notification is outstanding.
    pub outstanding: bool,
    /// `SN` — notifications are suppressed (requests still recorded).
    pub suppress: bool,
    /// `PUIR` — pending user-interrupt request bitmap, bit i = vector i.
    pub pending: u64,
    /// Notification destination: the core the receiver currently runs
    /// on, if any.
    pub ndst: Option<CoreId>,
}

impl Upid {
    /// The architectural state a future send/delivery depends on:
    /// `(ON, SN, PUIR)`. Model checkers hash this to deduplicate
    /// explored states; `ndst` is routing, not protocol state, and is
    /// deliberately excluded.
    pub fn state_key(&self) -> (bool, bool, u64) {
        (self.outstanding, self.suppress, self.pending)
    }
}

/// Scheduling/masking state of a receiver thread at send time. The
/// runtime layer knows this; the architecture reacts to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiverState {
    /// On-CPU with user interrupts enabled (`UIF = 1`).
    RunningUifSet,
    /// On-CPU but masked (`UIF = 0`, e.g. inside a user handler).
    RunningUifClear,
    /// Blocked in the kernel (e.g. waiting on `uintr_fd`). Delivery
    /// falls back to an ordinary interrupt that wakes the thread.
    Blocked,
}

/// What `SENDUIPI` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Notification dispatched to a running receiver; a user interrupt
    /// will be delivered after the running-delivery latency.
    NotifiedRunning,
    /// Receiver blocked; kernel-assisted wakeup dispatched (slow path).
    NotifiedBlocked,
    /// Vector recorded but receiver is masked; it will drain on unmask.
    PendedMasked,
    /// Vector recorded; a previous notification is still outstanding, so
    /// no new one is sent (hardware coalescing).
    Coalesced,
    /// Vector recorded but notifications are suppressed (`SN = 1`).
    Suppressed,
    /// The notification will never arrive: the instruction executed but
    /// nothing useful reaches the receiver. The caller must treat this
    /// as a lost preemption (retry, or fall back to the signal path).
    Dropped {
        /// Why the send went nowhere.
        reason: DropReason,
    },
}

/// Why a send produced [`SendOutcome::Dropped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The target receiver was unregistered mid-flight; the UITT entry
    /// is stale and no UPID state was touched.
    Unregistered,
    /// The fault injector dropped the IPI in the fabric; no UPID state
    /// was touched.
    Faulted,
    /// The UPID's `NDST` was stale: the vector posted (and `ON` set),
    /// but the notification was misdirected to the wrong core and will
    /// never reach the handler.
    StaleNdst,
}

/// Error returned for malformed sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UintrError {
    /// The UITT index was out of range or the entry invalid — the
    /// hardware raises `#GP`; we surface it as an error.
    InvalidUittIndex,
    /// The UPID handle does not name a registered receiver.
    StaleUpid,
}

impl std::fmt::Display for UintrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UintrError::InvalidUittIndex => write!(f, "invalid or unset UITT entry"),
            UintrError::StaleUpid => write!(f, "UPID handle no longer registered"),
        }
    }
}

impl std::error::Error for UintrError {}

/// One sender-side UITT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UittEntry {
    /// Target receiver descriptor.
    pub upid: UpidHandle,
    /// User vector 0..64 posted on send.
    pub vector: u8,
}

/// A sender's User Interrupt Target Table.
///
/// The kernel-maintained table that §VII-B identifies as LibPreemptible's
/// security boundary: a sender can only ever signal targets previously
/// installed here.
#[derive(Debug, Clone, Default)]
pub struct Uitt {
    entries: Vec<Option<UittEntry>>,
}

impl Uitt {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs an entry, returning its index (the operand to
    /// `SENDUIPI`). Mirrors `uintr_register_sender(2)`.
    pub fn register(&mut self, upid: UpidHandle, vector: u8) -> usize {
        assert!(vector < UINTR_VECTORS, "vector out of range");
        // Reuse a free slot if any.
        if let Some(i) = self.entries.iter().position(Option::is_none) {
            self.entries[i] = Some(UittEntry { upid, vector });
            return i;
        }
        self.entries.push(Some(UittEntry { upid, vector }));
        self.entries.len() - 1
    }

    /// Removes an entry (`uintr_unregister_sender(2)`).
    ///
    /// Removal is by slot, so an index unregistered twice (or never
    /// registered) is a no-op, never a panic. Entries installed for a
    /// receiver that is being torn down should additionally be cleared
    /// with [`purge_upid`](Self::purge_upid) — a stale entry left behind
    /// is harmless (sends through it report [`SendOutcome::Dropped`])
    /// but wastes table space and hides the teardown bug.
    pub fn unregister(&mut self, index: usize) {
        if let Some(e) = self.entries.get_mut(index) {
            *e = None;
        }
    }

    /// Defensively clears every entry targeting `upid`, returning how
    /// many were removed. Call when unregistering a receiver so no
    /// stale sender mapping survives the teardown.
    pub fn purge_upid(&mut self, upid: UpidHandle) -> usize {
        let mut purged = 0;
        for e in &mut self.entries {
            if e.is_some_and(|entry| entry.upid == upid) {
                *e = None;
                purged += 1;
            }
        }
        purged
    }

    /// Looks up a live entry.
    pub fn get(&self, index: usize) -> Option<UittEntry> {
        self.entries.get(index).copied().flatten()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// `true` when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The set of registered receivers plus the send state machine.
///
/// ```
/// use lp_hw::uintr::{ReceiverState, SendOutcome, UintrDomain};
///
/// let mut dom = UintrDomain::new();
/// let receiver = dom.register_receiver();
/// let mut uitt = lp_hw::uintr::Uitt::new();
/// let idx = uitt.register(receiver, 0);
///
/// let entry = uitt.get(idx).unwrap();
/// let out = dom
///     .senduipi(entry, ReceiverState::RunningUifSet)
///     .unwrap();
/// assert_eq!(out, SendOutcome::NotifiedRunning);
/// // The receiver acknowledges and drains the pending vector bitmap.
/// assert_eq!(dom.acknowledge(receiver).unwrap(), 1 << 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UintrDomain {
    upids: Vec<Option<Upid>>,
    /// Per-slot generation, bumped on unregister: a handle is live only
    /// while its generation matches, so slot reuse can never alias.
    gens: Vec<u32>,
}

impl UintrDomain {
    /// Creates an empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a receiver, allocating its UPID
    /// (`uintr_register_handler(2)`). Freed slots are reused, but under
    /// a fresh generation: handles to the previous occupant stay dead.
    pub fn register_receiver(&mut self) -> UpidHandle {
        if let Some(i) = self.upids.iter().position(Option::is_none) {
            self.upids[i] = Some(Upid::default());
            return UpidHandle { index: i, gen: self.gens[i] };
        }
        self.upids.push(Some(Upid::default()));
        self.gens.push(0);
        UpidHandle { index: self.upids.len() - 1, gen: 0 }
    }

    /// Tears down a receiver (`uintr_unregister_handler(2)`); later
    /// sends through stale UITT entries report
    /// [`SendOutcome::Dropped`] with [`DropReason::Unregistered`], and
    /// receiver-side operations fail with [`UintrError::StaleUpid`].
    pub fn unregister_receiver(&mut self, h: UpidHandle) {
        if self.gens.get(h.index) == Some(&h.gen) {
            if let Some(u) = self.upids.get_mut(h.index) {
                if u.take().is_some() {
                    self.gens[h.index] = self.gens[h.index].wrapping_add(1);
                }
            }
        }
    }

    fn upid_mut(&mut self, h: UpidHandle) -> Result<&mut Upid, UintrError> {
        if self.gens.get(h.index) != Some(&h.gen) {
            return Err(UintrError::StaleUpid);
        }
        self.upids
            .get_mut(h.index)
            .and_then(Option::as_mut)
            .ok_or(UintrError::StaleUpid)
    }

    /// Read-only view of a receiver's UPID (`None` once the handle's
    /// generation is stale).
    pub fn upid(&self, h: UpidHandle) -> Option<&Upid> {
        if self.gens.get(h.index) != Some(&h.gen) {
            return None;
        }
        self.upids.get(h.index).and_then(Option::as_ref)
    }

    /// Executes the posting half of `SENDUIPI`: records the vector in
    /// the UPID and decides whether a notification goes out. The caller
    /// translates the outcome into latency using
    /// [`HwCosts`](crate::HwCosts).
    ///
    /// A send through a stale entry (the receiver unregistered
    /// mid-flight) is not an error — the instruction executes and the
    /// notification goes nowhere — so it reports
    /// [`SendOutcome::Dropped`] with [`DropReason::Unregistered`]
    /// instead of silently succeeding or failing the sender.
    pub fn senduipi(
        &mut self,
        entry: UittEntry,
        receiver: ReceiverState,
    ) -> Result<SendOutcome, UintrError> {
        let Ok(upid) = self.upid_mut(entry.upid) else {
            return Ok(SendOutcome::Dropped { reason: DropReason::Unregistered });
        };
        upid.pending |= 1u64 << entry.vector;
        if upid.suppress {
            return Ok(SendOutcome::Suppressed);
        }
        if upid.outstanding {
            return Ok(SendOutcome::Coalesced);
        }
        match receiver {
            ReceiverState::RunningUifSet => {
                upid.outstanding = true;
                Ok(SendOutcome::NotifiedRunning)
            }
            ReceiverState::RunningUifClear => {
                // Notification reaches the core but user-interrupt
                // delivery pends on UIF.
                upid.outstanding = true;
                Ok(SendOutcome::PendedMasked)
            }
            ReceiverState::Blocked => {
                upid.outstanding = true;
                Ok(SendOutcome::NotifiedBlocked)
            }
        }
    }

    /// [`senduipi`](Self::senduipi) with a pre-sampled fault decision
    /// applied. The decision comes from
    /// [`FaultInjector::ipi`](lp_sim::fault::FaultInjector::ipi) — this
    /// layer stays a pure state machine and never draws randomness.
    ///
    /// * `None` — behaves exactly like [`senduipi`](Self::senduipi)
    ///   (same state transitions, same outcome), so a disabled or
    ///   rate-0.0 plan is byte-identical to no injector.
    /// * [`IpiFault::Drop`] — the fabric loses the IPI: no UPID state
    ///   changes, outcome [`DropReason::Faulted`].
    /// * [`IpiFault::Delay`] — state transitions are normal; the *caller*
    ///   stretches the delivery latency by the fault's duration.
    /// * [`IpiFault::Duplicate`] — the send is issued twice back-to-back;
    ///   the second coalesces into the first's outstanding notification
    ///   (the outcome reported is the first send's).
    /// * [`IpiFault::StuckSn`] — the receiver's `SN` bit sticks set just
    ///   before the send lands, so the vector records but suppresses.
    /// * [`IpiFault::StaleNdst`] — the vector posts (and `ON` sets), but
    ///   the notification is misdirected: [`DropReason::StaleNdst`].
    pub fn senduipi_with_fault(
        &mut self,
        entry: UittEntry,
        receiver: ReceiverState,
        fault: Option<IpiFault>,
    ) -> Result<SendOutcome, UintrError> {
        match fault {
            None | Some(IpiFault::Delay(_)) => self.senduipi(entry, receiver),
            Some(IpiFault::Drop) => Ok(SendOutcome::Dropped { reason: DropReason::Faulted }),
            Some(IpiFault::Duplicate) => {
                let first = self.senduipi(entry, receiver)?;
                let _ = self.senduipi(entry, receiver)?;
                Ok(first)
            }
            Some(IpiFault::StuckSn) => {
                if let Ok(upid) = self.upid_mut(entry.upid) {
                    upid.suppress = true;
                }
                self.senduipi(entry, receiver)
            }
            Some(IpiFault::StaleNdst) => match self.senduipi(entry, receiver)? {
                SendOutcome::Dropped { reason } => Ok(SendOutcome::Dropped { reason }),
                _ => Ok(SendOutcome::Dropped { reason: DropReason::StaleNdst }),
            },
        }
    }

    /// [`senduipi_with_fault`](Self::senduipi_with_fault) plus
    /// observability: emits [`Event::UipiSent`] and, for the
    /// non-fast-path outcomes, the matching event
    /// ([`Event::KernelAssistWake`] for a blocked receiver,
    /// [`Event::UipiPended`] for a masked one, [`Event::UipiSuppressed`]
    /// under `SN`). A coalesced send emits nothing extra here — the extra
    /// posted vector surfaces as `coalesced: true` on the eventual
    /// [`Event::UipiDelivered`] from
    /// [`acknowledge_observed`](Self::acknowledge_observed). With
    /// `fault == None` this is the plain observed send.
    ///
    /// A dropped send still emits [`Event::UipiSent`] (the instruction
    /// executed at the sender) but no delivery-side event; the runtime
    /// emits the corresponding `fault_injected` event itself. A
    /// duplicated send emits a second [`Event::UipiSent`].
    pub fn senduipi_with_fault_observed(
        &mut self,
        entry: UittEntry,
        receiver: ReceiverState,
        fault: Option<IpiFault>,
        worker: u16,
        at: SimTime,
        obs: &mut Observer,
    ) -> Result<SendOutcome, UintrError> {
        let outcome = self.senduipi_with_fault(entry, receiver, fault)?;
        obs.emit(at, Event::UipiSent { worker, vector: entry.vector });
        match outcome {
            SendOutcome::NotifiedRunning | SendOutcome::Coalesced | SendOutcome::Dropped { .. } => {}
            SendOutcome::NotifiedBlocked => obs.emit(at, Event::KernelAssistWake { worker }),
            SendOutcome::PendedMasked => obs.emit(at, Event::UipiPended { worker }),
            SendOutcome::Suppressed => obs.emit(at, Event::UipiSuppressed { worker }),
        }
        if matches!(fault, Some(IpiFault::Duplicate)) {
            obs.emit(at, Event::UipiSent { worker, vector: entry.vector });
        }
        Ok(outcome)
    }

    /// Receiver-side delivery: clears `ON`, drains and returns the
    /// pending vector bitmap (the handler sees the highest vector; we
    /// hand back all bits for the runtime to dispatch).
    pub fn acknowledge(&mut self, h: UpidHandle) -> Result<u64, UintrError> {
        let upid = self.upid_mut(h)?;
        upid.outstanding = false;
        Ok(std::mem::take(&mut upid.pending))
    }

    /// [`acknowledge`](Self::acknowledge) plus observability: emits
    /// [`Event::UipiDelivered`] at `at` (the instant the notification
    /// reaches the handler), flagged `coalesced` when more than one
    /// posted vector drains at once. Draining an empty bitmap emits
    /// nothing.
    pub fn acknowledge_observed(
        &mut self,
        h: UpidHandle,
        worker: u16,
        at: SimTime,
        obs: &mut Observer,
    ) -> Result<u64, UintrError> {
        let bits = self.acknowledge(h)?;
        if bits != 0 {
            obs.emit(at, Event::UipiDelivered { worker, coalesced: bits.count_ones() > 1 });
        }
        Ok(bits)
    }

    /// Sets/clears `SN`. The kernel sets `SN` while the receiver is
    /// context-switched out without blocking semantics.
    pub fn set_suppress(&mut self, h: UpidHandle, on: bool) -> Result<(), UintrError> {
        self.upid_mut(h)?.suppress = on;
        Ok(())
    }

    /// Updates the notification destination when the receiver migrates.
    pub fn set_ndst(&mut self, h: UpidHandle, core: Option<CoreId>) -> Result<(), UintrError> {
        self.upid_mut(h)?.ndst = core;
        Ok(())
    }

    /// `true` if the receiver has pending vectors recorded.
    pub fn has_pending(&self, h: UpidHandle) -> bool {
        self.upid(h).map(|u| u.pending != 0).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (UintrDomain, Uitt, UpidHandle, usize) {
        let mut dom = UintrDomain::new();
        let h = dom.register_receiver();
        let mut uitt = Uitt::new();
        let idx = uitt.register(h, 3);
        (dom, uitt, h, idx)
    }

    #[test]
    fn send_to_running_notifies_once_then_coalesces() {
        let (mut dom, uitt, h, idx) = setup();
        let e = uitt.get(idx).unwrap();
        assert_eq!(
            dom.senduipi(e, ReceiverState::RunningUifSet).unwrap(),
            SendOutcome::NotifiedRunning
        );
        // Second send before acknowledge: coalesced into the same
        // notification.
        assert_eq!(
            dom.senduipi(e, ReceiverState::RunningUifSet).unwrap(),
            SendOutcome::Coalesced
        );
        assert_eq!(dom.acknowledge(h).unwrap(), 1 << 3);
        // After acknowledge the next send notifies again.
        assert_eq!(
            dom.senduipi(e, ReceiverState::RunningUifSet).unwrap(),
            SendOutcome::NotifiedRunning
        );
    }

    #[test]
    fn suppressed_sends_record_but_do_not_notify() {
        let (mut dom, uitt, h, idx) = setup();
        dom.set_suppress(h, true).unwrap();
        let e = uitt.get(idx).unwrap();
        assert_eq!(
            dom.senduipi(e, ReceiverState::RunningUifSet).unwrap(),
            SendOutcome::Suppressed
        );
        assert!(dom.has_pending(h));
        dom.set_suppress(h, false).unwrap();
        // Pending bits survive and drain on acknowledge.
        assert_eq!(dom.acknowledge(h).unwrap(), 1 << 3);
    }

    #[test]
    fn blocked_receiver_takes_slow_path() {
        let (mut dom, uitt, _h, idx) = setup();
        let e = uitt.get(idx).unwrap();
        assert_eq!(
            dom.senduipi(e, ReceiverState::Blocked).unwrap(),
            SendOutcome::NotifiedBlocked
        );
    }

    #[test]
    fn masked_receiver_pends() {
        let (mut dom, uitt, h, idx) = setup();
        let e = uitt.get(idx).unwrap();
        assert_eq!(
            dom.senduipi(e, ReceiverState::RunningUifClear).unwrap(),
            SendOutcome::PendedMasked
        );
        assert_eq!(dom.acknowledge(h).unwrap(), 1 << 3);
    }

    #[test]
    fn multiple_vectors_accumulate() {
        let mut dom = UintrDomain::new();
        let h = dom.register_receiver();
        let mut uitt = Uitt::new();
        let i0 = uitt.register(h, 0);
        let i5 = uitt.register(h, 5);
        dom.senduipi(uitt.get(i0).unwrap(), ReceiverState::RunningUifSet)
            .unwrap();
        dom.senduipi(uitt.get(i5).unwrap(), ReceiverState::RunningUifSet)
            .unwrap();
        assert_eq!(dom.acknowledge(h).unwrap(), (1 << 0) | (1 << 5));
        assert!(!dom.has_pending(h));
    }

    #[test]
    fn stale_upid_send_drops_typed() {
        let (mut dom, uitt, h, idx) = setup();
        dom.unregister_receiver(h);
        let e = uitt.get(idx).unwrap();
        // Sending through the stale entry is not an error: the
        // instruction executes and reports where the IPI went (nowhere).
        assert_eq!(
            dom.senduipi(e, ReceiverState::RunningUifSet),
            Ok(SendOutcome::Dropped { reason: DropReason::Unregistered })
        );
        // Receiver-side operations on the dead handle still error.
        assert_eq!(dom.acknowledge(h), Err(UintrError::StaleUpid));
        assert_eq!(dom.set_suppress(h, true), Err(UintrError::StaleUpid));
        assert!(dom.upid(h).is_none());
    }

    #[test]
    fn uitt_purge_clears_all_entries_for_a_receiver() {
        let mut dom = UintrDomain::new();
        let a = dom.register_receiver();
        let b = dom.register_receiver();
        let mut uitt = Uitt::new();
        let ia0 = uitt.register(a, 0);
        let ib = uitt.register(b, 1);
        let ia7 = uitt.register(a, 7);
        assert_eq!(uitt.purge_upid(a), 2);
        assert!(uitt.get(ia0).is_none());
        assert!(uitt.get(ia7).is_none());
        assert_eq!(uitt.get(ib).unwrap().upid, b);
        assert_eq!(uitt.purge_upid(a), 0, "purge is idempotent");
        assert_eq!(uitt.len(), 1);
    }

    #[test]
    fn uitt_slot_reuse() {
        let mut dom = UintrDomain::new();
        let a = dom.register_receiver();
        let b = dom.register_receiver();
        let mut uitt = Uitt::new();
        let ia = uitt.register(a, 1);
        let ib = uitt.register(b, 2);
        assert_ne!(ia, ib);
        uitt.unregister(ia);
        assert!(uitt.get(ia).is_none());
        let ic = uitt.register(b, 9);
        assert_eq!(ic, ia, "freed slot must be reused");
        assert_eq!(uitt.len(), 2);
    }

    #[test]
    #[should_panic(expected = "vector out of range")]
    fn vector_64_rejected() {
        let mut dom = UintrDomain::new();
        let h = dom.register_receiver();
        let mut uitt = Uitt::new();
        uitt.register(h, 64);
    }

    #[test]
    fn observed_send_emits_schema_events() {
        use lp_sim::obs::{Counter, Observer};
        use lp_sim::SimTime;

        let (mut dom, uitt, h, idx) = setup();
        let e = uitt.get(idx).unwrap();
        let mut obs = Observer::new(16);
        let t = SimTime::from_nanos(100);

        // Fast path: send + second (coalesced) send + delivery.
        dom.senduipi_with_fault_observed(e, ReceiverState::RunningUifSet, None, 0, t, &mut obs)
            .unwrap();
        dom.senduipi_with_fault_observed(e, ReceiverState::RunningUifSet, None, 0, t, &mut obs)
            .unwrap();
        dom.acknowledge_observed(h, 0, SimTime::from_nanos(500), &mut obs)
            .unwrap();
        assert_eq!(obs.metrics().get(Counter::UipiSent), 2);
        assert_eq!(obs.metrics().get(Counter::UipiDelivered), 1);
        // Both sends posted vector 3: one bit, so not coalesced — fire
        // distinct vectors to see the flag.
        assert_eq!(obs.metrics().get(Counter::UipiCoalesced), 0);

        // Blocked receiver: slow path emits the kernel-assist event.
        dom.senduipi_with_fault_observed(e, ReceiverState::Blocked, None, 0, t, &mut obs)
            .unwrap();
        assert_eq!(obs.metrics().get(Counter::KernelAssistWakes), 1);

        // Two different vectors pending at delivery → coalesced.
        let mut uitt2 = Uitt::new();
        let i9 = uitt2.register(h, 9);
        let e9 = uitt2.get(i9).unwrap();
        dom.senduipi_with_fault_observed(e9, ReceiverState::RunningUifSet, None, 0, t, &mut obs)
            .unwrap();
        dom.acknowledge_observed(h, 0, SimTime::from_nanos(900), &mut obs).unwrap();
        assert_eq!(obs.metrics().get(Counter::UipiCoalesced), 1);

        // Empty acknowledge emits nothing.
        let before = obs.metrics().get(Counter::UipiDelivered);
        dom.acknowledge_observed(h, 0, SimTime::from_nanos(901), &mut obs).unwrap();
        assert_eq!(obs.metrics().get(Counter::UipiDelivered), before);
    }

    #[test]
    fn upid_slot_reuse_cannot_alias_old_handles() {
        let mut dom = UintrDomain::new();
        let a = dom.register_receiver();
        dom.unregister_receiver(a);
        let b = dom.register_receiver();
        // The slot is reused, but under a new generation: the old
        // handle must not alias the new receiver.
        assert_eq!(a.index(), b.index(), "freed slot must be reused");
        assert_ne!(a, b, "stale handle must not equal the new one");
        assert!(dom.upid(a).is_none());
        assert!(dom.upid(b).is_some());
        // A send addressed to the dead generation drops; the new
        // receiver's mailbox stays untouched.
        let mut uitt = Uitt::new();
        let stale = uitt.register(a, 1);
        assert_eq!(
            dom.senduipi(uitt.get(stale).unwrap(), ReceiverState::RunningUifSet),
            Ok(SendOutcome::Dropped { reason: DropReason::Unregistered })
        );
        assert!(!dom.has_pending(b));
        // Unregistering through the stale handle must not tear down the
        // new occupant either.
        dom.unregister_receiver(a);
        assert!(dom.upid(b).is_some());
    }

    #[test]
    fn fault_free_send_matches_plain_send() {
        let (mut dom, uitt, h, idx) = setup();
        let (mut dom2, ..) = setup();
        let e = uitt.get(idx).unwrap();
        let plain = dom2.senduipi(e, ReceiverState::RunningUifSet).unwrap();
        let faultless = dom.senduipi_with_fault(e, ReceiverState::RunningUifSet, None).unwrap();
        assert_eq!(plain, faultless);
        assert_eq!(dom.upid(h).unwrap().pending, dom2.upid(h).unwrap().pending);
        assert_eq!(dom.upid(h).unwrap().outstanding, dom2.upid(h).unwrap().outstanding);
    }

    #[test]
    fn injected_drop_leaves_no_trace() {
        use lp_sim::fault::IpiFault;
        let (mut dom, uitt, h, idx) = setup();
        let e = uitt.get(idx).unwrap();
        assert_eq!(
            dom.senduipi_with_fault(e, ReceiverState::RunningUifSet, Some(IpiFault::Drop)),
            Ok(SendOutcome::Dropped { reason: DropReason::Faulted })
        );
        assert!(!dom.has_pending(h), "a fabric drop must not post the vector");
        assert!(!dom.upid(h).unwrap().outstanding);
        // A retry with no fault succeeds normally.
        assert_eq!(
            dom.senduipi_with_fault(e, ReceiverState::RunningUifSet, None),
            Ok(SendOutcome::NotifiedRunning)
        );
    }

    #[test]
    fn injected_stuck_sn_suppresses_until_repaired() {
        use lp_sim::fault::IpiFault;
        let (mut dom, uitt, h, idx) = setup();
        let e = uitt.get(idx).unwrap();
        assert_eq!(
            dom.senduipi_with_fault(e, ReceiverState::RunningUifSet, Some(IpiFault::StuckSn)),
            Ok(SendOutcome::Suppressed)
        );
        assert!(dom.has_pending(h));
        // The watchdog's repair: clear SN, re-send, delivery works.
        dom.set_suppress(h, false).unwrap();
        assert_eq!(
            dom.senduipi_with_fault(e, ReceiverState::RunningUifSet, None),
            Ok(SendOutcome::NotifiedRunning)
        );
        assert_eq!(dom.acknowledge(h).unwrap(), 1 << 3);
    }

    #[test]
    fn injected_stale_ndst_posts_but_drops() {
        use lp_sim::fault::IpiFault;
        let (mut dom, uitt, h, idx) = setup();
        let e = uitt.get(idx).unwrap();
        assert_eq!(
            dom.senduipi_with_fault(e, ReceiverState::RunningUifSet, Some(IpiFault::StaleNdst)),
            Ok(SendOutcome::Dropped { reason: DropReason::StaleNdst })
        );
        // The vector posted and ON is set — a retry coalesces (still no
        // delivery), which is what escalates the watchdog to degrade.
        assert!(dom.has_pending(h));
        assert!(dom.upid(h).unwrap().outstanding);
        assert_eq!(
            dom.senduipi_with_fault(e, ReceiverState::RunningUifSet, None),
            Ok(SendOutcome::Coalesced)
        );
        // The signal-path fallback's acknowledge drains everything.
        assert_eq!(dom.acknowledge(h).unwrap(), 1 << 3);
        assert!(!dom.upid(h).unwrap().outstanding);
    }

    #[test]
    fn injected_duplicate_coalesces_and_delivers_once() {
        use lp_sim::fault::IpiFault;
        use lp_sim::obs::{Counter, Observer};
        let (mut dom, uitt, h, idx) = setup();
        let e = uitt.get(idx).unwrap();
        let mut obs = Observer::new(16);
        let out = dom
            .senduipi_with_fault_observed(
                e,
                ReceiverState::RunningUifSet,
                Some(IpiFault::Duplicate),
                0,
                SimTime::from_nanos(10),
                &mut obs,
            )
            .unwrap();
        assert_eq!(out, SendOutcome::NotifiedRunning);
        // Two instructions executed, one notification outstanding, one
        // delivery: duplication is idempotent end to end.
        assert_eq!(obs.metrics().get(Counter::UipiSent), 2);
        assert_eq!(dom.acknowledge(h).unwrap(), 1 << 3);
        assert!(!dom.has_pending(h));
    }
}
