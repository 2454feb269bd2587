//! Tail attribution: per-fiber phase accounting, always-on log-bucketed
//! phase histograms, and worst-request exemplars.
//!
//! Every simulated nanosecond of a request's life is charged to exactly
//! one [`Phase`]. The accountant ([`Attribution`]) is driven from the
//! same typed [`Event`] stream the counters are
//! ([`Observer::emit`](super::Observer::emit) feeds both), so the
//! attribution can never disagree with the event log: a phase boundary
//! *is* an event boundary. Per-request breakdowns aggregate into
//! fixed-size power-of-two [`PhaseHistogram`]s (per phase and
//! end-to-end) and the worst requests are pinned whole as
//! [`Exemplar`]s, phase breakdown included. The phase vocabulary and
//! the bucket scheme are documented in `docs/TRACING.md`.
//!
//! Exactness contract: an exemplar's six phase durations sum to its
//! end-to-end latency, always. [`Phase::Queued`] is the residual —
//! whatever the event stream did not explicitly charge to running,
//! switching, or a fault tier was time the request spent waiting in a
//! queue — so the identity holds by construction.

use super::event::Event;

/// Sentinel: no fiber currently on this worker.
const NO_FIBER: u32 = u32::MAX;

/// The typed phases a request's wall-clock time decomposes into.
///
/// Priority when several apply at once (a fiber on a worker whose
/// mechanism is unhealthy): `RetryStall` > `DegradedSignal` >
/// `BrownoutHeld` > `Running`. Off-worker time is `PreemptSwitch`
/// inside an open switch window and `Queued` otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Waiting: in the dispatch queue, parked between slices, or any
    /// other instant the event stream charged nowhere else (the
    /// residual that makes the breakdown sum exact).
    Queued = 0,
    /// On a worker core making progress, mechanism healthy.
    Running = 1,
    /// Inside a context-switch window: from [`Event::SwitchBegin`] to
    /// the matching [`Event::TaskStart`] (dispatch pick + fcontext
    /// switch, first launch included).
    PreemptSwitch = 2,
    /// On a worker whose current preemption is known lost: from the
    /// first [`Event::PreemptRetry`] of the run until the send lands
    /// or the run ends. The slice overrun a lost preemption causes is
    /// charged here, not to `Running`.
    RetryStall = 3,
    /// On a worker degraded to the kernel signal path (between
    /// [`Event::MechDegraded`] and [`Event::MechRecovered`]).
    DegradedSignal = 4,
    /// On a worker in the brownout tier (between
    /// [`Event::MechBrownout`] and the next landed preemption or
    /// degradation on that worker).
    BrownoutHeld = 5,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 6;

    /// Every phase, in breakdown order (the order `phase_ns` arrays and
    /// every export use).
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Queued,
        Phase::Running,
        Phase::PreemptSwitch,
        Phase::RetryStall,
        Phase::DegradedSignal,
        Phase::BrownoutHeld,
    ];

    /// Stable snake_case name (the key used in exports and docs).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::PreemptSwitch => "preempt_switch",
            Phase::RetryStall => "retry_stall",
            Phase::DegradedSignal => "degraded_signal",
            Phase::BrownoutHeld => "brownout_held",
        }
    }
}

/// Number of buckets in a [`PhaseHistogram`]: power-of-two buckets
/// cover the full `u64` nanosecond range.
pub const PHASE_HIST_BUCKETS: usize = 64;

/// A fixed-size log-bucketed histogram of nanosecond durations.
///
/// Bucket 0 holds exact zeros; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`; the last bucket is open-ended. No allocation,
/// ever — recording is a shift and two adds — and merging is a plain
/// element-wise sum, so merged histograms are deterministic in any
/// merge order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseHistogram {
    counts: [u64; PHASE_HIST_BUCKETS],
    count: u64,
    sum_ns: u64,
}

impl Default for PhaseHistogram {
    fn default() -> Self {
        PhaseHistogram {
            counts: [0; PHASE_HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl PhaseHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index of `ns`.
    #[inline]
    fn bucket_index(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            (PHASE_HIST_BUCKETS - ns.leading_zeros() as usize).min(PHASE_HIST_BUCKETS - 1)
        }
    }

    /// The inclusive `[lo, hi]` nanosecond range of bucket `i`.
    fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            _ if i >= PHASE_HIST_BUCKETS - 1 => (1 << (PHASE_HIST_BUCKETS - 2), u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one duration.
    #[cfg(test)]
    fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Records one duration without maintaining the `count` field —
    /// the completion hot path defers it, and
    /// [`PhaseStats::seal_zeros`] re-derives every count from the
    /// bucket sums before any read. Cuts one read-modify-write per
    /// record, which is material at one call per phase per completion.
    #[inline(always)]
    fn record_fast(&mut self, ns: u64) {
        self.counts[Self::bucket_index(ns)] += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Records an exact zero: bucket 0 directly, no shift, no sum add.
    #[cfg(test)]
    fn record_zero(&mut self) {
        self.counts[0] += 1;
        self.count += 1;
    }

    /// Element-wise sum: afterwards `self` is exactly the histogram of
    /// both sample sets. Associative and commutative, so any merge
    /// tree over the same runs yields the same bytes.
    fn merge(&mut self, other: &PhaseHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean (integer division), or 0 when empty.
    #[cfg(test)]
    fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the nearest-rank `q`
    /// quantile (`0 < q <= 1`), or 0 when empty. Quantized to the
    /// bucket boundary — within 2x of the true value by construction.
    fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bounds(i).1;
            }
        }
        u64::MAX
    }

    /// Convenience: bucketized p99.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

/// How many worst-request exemplars a run pins.
pub const EXEMPLAR_SLOTS: usize = 4;

/// One pinned worst request: identity, end-to-end latency, and the
/// full phase breakdown. The breakdown sums exactly to `latency_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Exemplar {
    /// Context-pool index of the request's fiber.
    pub fiber: u32,
    /// Worker the request finished on.
    pub worker: u16,
    /// Simulation instant the request completed, nanoseconds.
    pub finished_at_ns: u64,
    /// End-to-end latency (arrival to completion).
    pub latency_ns: u64,
    /// Nanoseconds charged to each phase, indexed by [`Phase::ALL`]
    /// order; sums to `latency_ns`.
    pub phase_ns: [u64; Phase::COUNT],
}

impl Exemplar {
    /// Nanoseconds this request spent in `p`.
    pub fn phase(&self, p: Phase) -> u64 {
        self.phase_ns[p as usize]
    }

    /// Sum of the phase breakdown (equals `latency_ns` for exemplars
    /// produced by [`Attribution`]).
    pub fn phase_sum(&self) -> u64 {
        self.phase_ns.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }
}

/// The aggregated attribution a run reports: per-phase and end-to-end
/// histograms plus the pinned worst-request exemplars.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Per-request nanoseconds spent in each phase, one histogram per
    /// phase in [`Phase::ALL`] order (every completion records into
    /// every phase histogram, zeros included, so counts line up).
    pub per_phase: [PhaseHistogram; Phase::COUNT],
    /// End-to-end request latency.
    pub end_to_end: PhaseHistogram,
    slots: [Exemplar; EXEMPLAR_SLOTS],
    filled: u8,
    /// Cached minimum `latency_ns` across a full slot pool — the
    /// admission floor. Lets [`consider`](Self::consider) reject the
    /// typical completion with one compare instead of scanning the
    /// pool. 0 while the pool is filling (everything admits).
    floor: u64,
}

impl PhaseStats {
    /// Records one completed request's breakdown and considers it for
    /// an exemplar slot (kept iff among the worst seen so far;
    /// strictly-greater replaces, so ties keep the earliest).
    #[cfg(test)]
    fn record(&mut self, ex: Exemplar) {
        for p in Phase::ALL {
            let ns = ex.phase(p);
            let h = &mut self.per_phase[p as usize];
            if ns == 0 {
                h.record_zero();
            } else {
                h.record(ns);
            }
        }
        self.end_to_end.record(ex.latency_ns);
        self.consider(ex);
    }

    /// Records one completion, deferring zero-valued phases: only the
    /// phases the request actually entered touch a histogram here; the
    /// implicit zeros are owed until the next [`seal_zeros`] call
    /// restores the invariant that every phase histogram's count
    /// equals the end-to-end count. The accountant's hot path uses
    /// this (with a seal at read time); external callers use
    /// [`record`](Self::record), which is always sealed.
    ///
    /// [`seal_zeros`]: Self::seal_zeros
    fn record_hot(&mut self, ex: Exemplar) {
        for p in Phase::ALL {
            let ns = ex.phase_ns[p as usize];
            if ns != 0 {
                self.per_phase[p as usize].record_fast(ns);
            }
        }
        self.end_to_end.record_fast(ex.latency_ns);
        self.consider(ex);
    }

    /// The clean-slice completion path: the breakdown is known to be
    /// exactly `queued_ns` + `label_ns` (in `label`) + `switch_ns`, so
    /// the three scalars go straight into their histograms — no
    /// breakdown array, and the 80-byte [`Exemplar`] is only built
    /// when the completion actually beats the exemplar pool's
    /// admission floor. Defers zero phases and counts exactly like
    /// [`record_hot`](Self::record_hot).
    #[allow(clippy::too_many_arguments)]
    fn record_parts(
        &mut self,
        label: Phase,
        label_ns: u64,
        switch_ns: u64,
        queued_ns: u64,
        latency_ns: u64,
        fiber: u32,
        worker: u16,
        finished_at_ns: u64,
    ) {
        if queued_ns != 0 {
            self.per_phase[Phase::Queued as usize].record_fast(queued_ns);
        }
        if label_ns != 0 {
            self.per_phase[label as usize].record_fast(label_ns);
        }
        if switch_ns != 0 {
            self.per_phase[Phase::PreemptSwitch as usize].record_fast(switch_ns);
        }
        self.end_to_end.record_fast(latency_ns);
        if (self.filled as usize) < EXEMPLAR_SLOTS || latency_ns > self.floor {
            let mut phase_ns = [0u64; Phase::COUNT];
            phase_ns[Phase::Queued as usize] = queued_ns;
            phase_ns[label as usize] = label_ns;
            phase_ns[Phase::PreemptSwitch as usize] =
                phase_ns[Phase::PreemptSwitch as usize].saturating_add(switch_ns);
            self.consider(Exemplar {
                fiber,
                worker,
                finished_at_ns,
                latency_ns,
                phase_ns,
            });
        }
    }

    /// Folds the zeros [`record_hot`](Self::record_hot) deferred into
    /// bucket 0, in O(phases). Idempotent; a no-op after plain
    /// [`record`](Self::record) calls.
    fn seal_zeros(&mut self) {
        let total: u64 = self.end_to_end.counts.iter().sum();
        self.end_to_end.count = total;
        for h in self.per_phase.iter_mut() {
            let cnt: u64 = h.counts.iter().sum();
            h.counts[0] += total.saturating_sub(cnt);
            h.count = total;
        }
    }

    /// The pinned exemplars, worst first (latency descending, ties by
    /// earlier finish then lower fiber id — a total order, so the
    /// listing is deterministic).
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let mut v: Vec<Exemplar> = self.slots[..self.filled as usize].to_vec();
        v.sort_by(|a, b| {
            b.latency_ns
                .cmp(&a.latency_ns)
                .then(a.finished_at_ns.cmp(&b.finished_at_ns))
                .then(a.fiber.cmp(&b.fiber))
        });
        v
    }

    /// The single worst request, if any completed.
    pub fn worst(&self) -> Option<Exemplar> {
        self.exemplars().into_iter().next()
    }

    /// Number of completions recorded.
    #[cfg(test)]
    fn completions(&self) -> u64 {
        self.end_to_end.count()
    }

    /// Merges another run's stats: histograms sum element-wise and the
    /// exemplar pool keeps the overall worst. Deterministic for a
    /// fixed merge order.
    pub fn merge(&mut self, other: &PhaseStats) {
        for (a, b) in self.per_phase.iter_mut().zip(other.per_phase.iter()) {
            a.merge(b);
        }
        self.end_to_end.merge(&other.end_to_end);
        for ex in &other.slots[..other.filled as usize] {
            self.consider(*ex);
        }
    }

    fn consider(&mut self, ex: Exemplar) {
        if (self.filled as usize) < EXEMPLAR_SLOTS {
            self.slots[self.filled as usize] = ex;
            self.filled += 1;
            if (self.filled as usize) == EXEMPLAR_SLOTS {
                self.refloor();
            }
            return;
        }
        if ex.latency_ns <= self.floor {
            return;
        }
        let (mut min_i, mut min_v) = (0usize, u64::MAX);
        for (i, s) in self.slots.iter().enumerate() {
            if s.latency_ns < min_v {
                min_i = i;
                min_v = s.latency_ns;
            }
        }
        self.slots[min_i] = ex;
        self.refloor();
    }

    /// Recomputes the admission floor from a full slot pool.
    fn refloor(&mut self) {
        self.floor = self.slots.iter().map(|s| s.latency_ns).min().unwrap_or(0);
    }
}

/// Per-worker accountant state, packed into 16 bytes so all workers'
/// live state shares one cache line (the accountant's hottest data:
/// every `task_start`/`preempt`/`task_finish` touches it, and the
/// surrounding simulation streams a working set large enough to evict
/// anything it doesn't keep tiny).
///
/// `packed` layout: bits 0..32 the on-core fiber (`NO_FIBER` when
/// idle), bits 32..35 the mechanism-health flags, bit 35 the
/// ledger-dirty marker ([`F_DIRTY`]: this fiber has charges in its
/// [`Ledger`], so its finish must merge them), bits 36.. the
/// switch-window duration `task_start` carried in, awaiting its
/// segment close (saturated at [`SWITCH_MAX`]; any excess shows up as
/// `Queued` residual). `mark_ns` is the open segment's start.
#[derive(Debug, Clone, Copy)]
struct WorkerAttr {
    packed: u64,
    mark_ns: u64,
}

/// Health-flag bit: a preemption retry is in flight on this worker.
const F_STALLED: u64 = 1 << 32;
/// Health-flag bit: the worker is degraded to the signal path.
const F_DEGRADED: u64 = 1 << 33;
/// Health-flag bit: the worker is in the brownout tier.
const F_BROWNOUT: u64 = 1 << 34;
/// All health-flag bits.
const F_HEALTH: u64 = F_STALLED | F_DEGRADED | F_BROWNOUT;
/// The on-core fiber has charges in its [`Ledger`] (it was preempted
/// before, or a health-flag change split its current slice), so its
/// finish must read and reset the ledger. Never-preempted
/// never-relabeled requests — the common case — skip the ledger
/// entirely: their whole breakdown lives in the open segment.
const F_DIRTY: u64 = 1 << 35;
/// Bit offset of the pending switch-window duration.
const SWITCH_SHIFT: u32 = 36;
/// Pending switch durations saturate here (~268 ms — far beyond any
/// plausible dispatch+switch window; the remainder is `Queued`).
const SWITCH_MAX: u64 = (1 << (64 - SWITCH_SHIFT)) - 1;

/// Phase label for each health-flag combination (index = bits 32..35
/// of `packed`), encoding the priority stalled > degraded > brownout.
const LABEL_LUT: [Phase; 8] = [
    Phase::Running,        // 000
    Phase::RetryStall,     // stalled
    Phase::DegradedSignal, // degraded
    Phase::RetryStall,     // stalled | degraded
    Phase::BrownoutHeld,   // brownout
    Phase::RetryStall,     // stalled | brownout
    Phase::DegradedSignal, // degraded | brownout
    Phase::RetryStall,     // all three
];

impl WorkerAttr {
    /// The on-core fiber, or `NO_FIBER`.
    #[inline]
    fn fiber(self) -> u32 {
        self.packed as u32
    }

    /// The phase label the current health flags select for on-core
    /// time (priority: stalled > degraded > brownout > running).
    #[inline]
    fn label(self) -> Phase {
        LABEL_LUT[((self.packed >> 32) & 7) as usize]
    }
}

impl Default for WorkerAttr {
    fn default() -> Self {
        WorkerAttr {
            packed: u64::from(NO_FIBER),
            mark_ns: 0,
        }
    }
}

/// Per-fiber accountant state: the five explicitly tracked phase
/// accumulators (`Queued` is the residual, computed at finish).
/// Line-aligned so one fiber's charges never straddle two lines.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Ledger {
    tracked_ns: [u64; Phase::COUNT],
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            tracked_ns: [0; Phase::COUNT],
        }
    }
}

/// The live phase accountant: a zero-alloc state machine over the
/// typed event stream.
///
/// State is two flat arrays — one per-fiber phase ledger (context-pool
/// index) and one packed per-worker record — grown once to the pool
/// and worker-count high-water marks and then reused, so the
/// steady-state hot path allocates nothing. Completion records skip
/// the phases a request never entered; the implicit zeros fold into
/// the histograms in O(phases) when the stats are read. Robust to arbitrary event streams (all arithmetic
/// saturates; unknown fibers/workers grow the arrays; orphaned
/// segments are defensively closed), and in-flight requests at end of
/// run are simply censored: only completions reach [`PhaseStats`].
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    enabled: bool,
    workers: Vec<WorkerAttr>,
    ledgers: Vec<Ledger>,
    stats: PhaseStats,
}

impl Attribution {
    /// An enabled accountant (the always-on default).
    pub fn new() -> Self {
        Attribution {
            enabled: true,
            ..Default::default()
        }
    }

    /// Turns the accountant on or off.
    ///
    /// Attribution ships always-on; the off switch exists so the
    /// benchmark's paired `attr` ablation can measure the accountant's
    /// healthy-path overhead (`obs.attr_share`, gated <2% in CI)
    /// against an otherwise byte-identical run. Turning it off must not change
    /// any other observable output.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The aggregated stats so far (seals deferred zero records first).
    #[cfg(test)]
    fn stats(&mut self) -> &PhaseStats {
        self.flush();
        &self.stats
    }

    /// Takes the aggregated stats, leaving empty ones behind (live
    /// per-fiber/per-worker state is reset too).
    pub fn take_stats(&mut self) -> PhaseStats {
        self.flush();
        self.workers.clear();
        self.ledgers.clear();
        std::mem::take(&mut self.stats)
    }

    /// Restores the phase-count invariant the hot path defers.
    fn flush(&mut self) {
        self.stats.seal_zeros();
    }

    #[inline]
    fn worker_mut(&mut self, w: u16) -> &mut WorkerAttr {
        let i = w as usize;
        if i >= self.workers.len() {
            self.workers.resize(i + 1, WorkerAttr::default());
        }
        &mut self.workers[i]
    }

    fn ledger_mut(&mut self, fiber: u32) -> &mut Ledger {
        let i = fiber as usize;
        if i >= self.ledgers.len() {
            self.ledgers.resize(i + 1, Ledger::default());
        }
        &mut self.ledgers[i]
    }

    /// Closes the open segment on `worker` at `at_ns`, charging it to
    /// the phase the health flags select (plus any pending
    /// switch-window duration), and starts the next segment.
    fn close_segment(&mut self, w: u16, at_ns: u64) {
        let i = w as usize;
        if i >= self.workers.len() {
            return;
        }
        let wa = self.workers[i];
        if wa.fiber() == NO_FIBER {
            return;
        }
        let phase = wa.label();
        let dur = at_ns.saturating_sub(wa.mark_ns);
        let sd = wa.packed >> SWITCH_SHIFT;
        let l = self.ledger_mut(wa.fiber());
        let slot = &mut l.tracked_ns[phase as usize];
        *slot = slot.saturating_add(dur);
        if sd != 0 {
            let s = &mut l.tracked_ns[Phase::PreemptSwitch as usize];
            *s = s.saturating_add(sd);
        }
        let wa = &mut self.workers[i];
        wa.packed = (wa.packed & !(SWITCH_MAX << SWITCH_SHIFT)) | F_DIRTY;
        wa.mark_ns = at_ns;
    }

    /// Applies a health-flag change on `worker`: closes the open
    /// segment only when the change would alter the phase label
    /// (splitting a segment at an identical label charges the same
    /// totals at strictly more cost — on the healthy path every
    /// `preempt_landed` takes the single-compare no-op exit).
    #[inline]
    fn set_flags(&mut self, w: u16, at_ns: u64, set: u64, clear: u64) {
        let wa = self.worker_mut(w);
        let cur = wa.packed;
        let next = (cur | set) & !clear;
        if next == cur {
            return;
        }
        let relabeled =
            LABEL_LUT[((next >> 32) & 7) as usize] != LABEL_LUT[((cur >> 32) & 7) as usize];
        if relabeled && cur as u32 != NO_FIBER {
            self.close_segment(w, at_ns);
        }
        let wa = self.worker_mut(w);
        wa.packed = (wa.packed & !F_HEALTH) | (next & F_HEALTH);
    }

    /// Advances the accountant over one emitted event. Called by
    /// [`Observer::emit`](super::Observer::emit) for every event —
    /// the same call that bumps the counters — so attribution, the
    /// counters, and the event log share one source of truth.
    #[inline(always)]
    pub fn observe(&mut self, at_ns: u64, ev: &Event) {
        if !self.enabled {
            return;
        }
        match *ev {
            Event::TaskStart {
                worker,
                fiber,
                resumed,
                switch_ns,
            } => {
                if self.worker_mut(worker).fiber() != NO_FIBER {
                    // Hostile stream: start over an open segment.
                    self.close_segment(worker, at_ns);
                }
                let wa = self.worker_mut(worker);
                // A fresh start clears any stall the previous occupant
                // left; worker-level degraded/brownout tiers persist. A
                // resumed fiber already has ledger charges from its
                // preempted slices, so it starts dirty.
                wa.packed = u64::from(fiber)
                    | (wa.packed & (F_DEGRADED | F_BROWNOUT))
                    | if resumed { F_DIRTY } else { 0 }
                    | (u64::from(switch_ns) << SWITCH_SHIFT);
                wa.mark_ns = at_ns;
            }
            Event::Preempt { worker, .. } => {
                self.close_segment(worker, at_ns);
                let wa = self.worker_mut(worker);
                wa.packed = (wa.packed & (F_DEGRADED | F_BROWNOUT)) | u64::from(NO_FIBER);
            }
            Event::TaskFinish {
                worker,
                fiber,
                latency_ns,
            } => {
                let wa = *self.worker_mut(worker);
                if wa.fiber() == fiber && wa.packed & F_DIRTY == 0 {
                    // Common case: the request ran in one clean slice —
                    // never preempted, never relabeled. Its whole
                    // breakdown is the open segment plus the switch
                    // window; the ledger was never touched and no
                    // breakdown array is needed.
                    let label_ns = at_ns.saturating_sub(wa.mark_ns);
                    let switch_ns = wa.packed >> SWITCH_SHIFT;
                    let queued_ns = latency_ns.saturating_sub(label_ns.saturating_add(switch_ns));
                    {
                        let wa = self.worker_mut(worker);
                        wa.packed = (wa.packed & (F_DEGRADED | F_BROWNOUT)) | u64::from(NO_FIBER);
                    }
                    self.stats.record_parts(
                        wa.label(),
                        label_ns,
                        switch_ns,
                        queued_ns,
                        latency_ns,
                        fiber,
                        worker,
                        at_ns,
                    );
                } else {
                    self.close_segment(worker, at_ns);
                    let l = self.ledger_mut(fiber);
                    let mut phase_ns = l.tracked_ns;
                    *l = Ledger::default();
                    {
                        let wa = self.worker_mut(worker);
                        wa.packed = (wa.packed & (F_DEGRADED | F_BROWNOUT)) | u64::from(NO_FIBER);
                    }
                    let tracked = phase_ns.iter().fold(0u64, |a, &b| a.saturating_add(b));
                    phase_ns[Phase::Queued as usize] = latency_ns.saturating_sub(tracked);
                    self.stats.record_hot(Exemplar {
                        fiber,
                        worker,
                        finished_at_ns: at_ns,
                        latency_ns,
                        phase_ns,
                    });
                }
            }
            Event::PreemptRetry { worker, .. } => {
                self.set_flags(worker, at_ns, F_STALLED, 0);
            }
            Event::PreemptLanded { worker, .. } => {
                self.set_flags(worker, at_ns, 0, F_STALLED | F_BROWNOUT);
            }
            Event::MechDegraded { worker, .. } => {
                self.set_flags(worker, at_ns, F_DEGRADED, F_BROWNOUT);
            }
            Event::MechRecovered { worker } => {
                self.set_flags(worker, at_ns, 0, F_DEGRADED);
            }
            Event::MechBrownout { worker, .. } => {
                self.set_flags(worker, at_ns, F_BROWNOUT, 0);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(w: u16, f: u32) -> Event {
        Event::TaskStart {
            worker: w,
            fiber: f,
            resumed: false,
            switch_ns: 0,
        }
    }

    #[test]
    fn histogram_buckets_and_bounds() {
        assert_eq!(PhaseHistogram::bucket_index(0), 0);
        assert_eq!(PhaseHistogram::bucket_index(1), 1);
        assert_eq!(PhaseHistogram::bucket_index(2), 2);
        assert_eq!(PhaseHistogram::bucket_index(3), 2);
        assert_eq!(PhaseHistogram::bucket_index(4), 3);
        assert_eq!(
            PhaseHistogram::bucket_index(u64::MAX),
            PHASE_HIST_BUCKETS - 1
        );
        for i in 0..PHASE_HIST_BUCKETS {
            let (lo, hi) = PhaseHistogram::bucket_bounds(i);
            assert!(lo <= hi, "bucket {i}");
            if lo > 0 {
                assert_eq!(PhaseHistogram::bucket_index(lo), i);
            }
            if hi < u64::MAX {
                assert_eq!(PhaseHistogram::bucket_index(hi), i);
            }
        }
    }

    #[test]
    fn histogram_record_merge_quantile() {
        let mut a = PhaseHistogram::new();
        for _ in 0..99 {
            a.record(1_000);
        }
        let mut b = PhaseHistogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.mean_ns(), (99 * 1_000 + 1_000_000) / 100);
        // p99 lands in the 1µs bucket, p99.9+ in the 1ms tail bucket.
        assert!(a.p99_ns() < 2_048, "{}", a.p99_ns());
        let p999 = a.quantile_ns(0.999);
        assert!(p999 >= 1_000_000, "{p999}");
        assert_eq!(a.quantile_ns(1.0), p999);
        // Merge is element-wise: merging in the other order gives the
        // same bytes.
        let mut c = PhaseHistogram::new();
        c.record(1_000_000);
        let mut d = PhaseHistogram::new();
        for _ in 0..99 {
            d.record(1_000);
        }
        c.merge(&d);
        assert_eq!(a, c);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = PhaseHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p99_ns(), 0);
        assert_eq!(h.mean_ns(), 0);
    }

    #[test]
    fn simple_run_splits_queued_and_running() {
        let mut a = Attribution::new();
        // Fiber 7 arrives at t=0 (implicit), switches in 100ns, runs
        // 400ns on worker 2, finishes with 1000ns end-to-end latency.
        a.observe(
            500,
            &Event::SwitchBegin {
                worker: 2,
                fiber: 7,
                resumed: false,
            },
        );
        a.observe(
            600,
            &Event::TaskStart {
                worker: 2,
                fiber: 7,
                resumed: false,
                switch_ns: 100,
            },
        );
        a.observe(
            1_000,
            &Event::TaskFinish {
                worker: 2,
                fiber: 7,
                latency_ns: 1_000,
            },
        );
        let ex = a.stats().worst().expect("one completion");
        assert_eq!(ex.fiber, 7);
        assert_eq!(ex.worker, 2);
        assert_eq!(ex.latency_ns, 1_000);
        assert_eq!(ex.phase(Phase::Running), 400);
        assert_eq!(ex.phase(Phase::PreemptSwitch), 100);
        assert_eq!(ex.phase(Phase::Queued), 500);
        assert_eq!(ex.phase_sum(), ex.latency_ns);
    }

    #[test]
    fn retry_stall_relabels_the_overrun() {
        let mut a = Attribution::new();
        a.observe(0, &start(0, 1));
        // Quantum should have ended at 1000ns; the watchdog notices the
        // lost preemption at 1500 and the re-send lands at 2000.
        a.observe(
            1_500,
            &Event::PreemptRetry {
                worker: 0,
                seq: 1,
                attempt: 1,
                delay_ns: 500,
            },
        );
        a.observe(
            2_000,
            &Event::PreemptLanded {
                worker: 0,
                seq: 1,
                uintr: true,
            },
        );
        a.observe(
            2_000,
            &Event::TaskFinish {
                worker: 0,
                fiber: 1,
                latency_ns: 2_000,
            },
        );
        let ex = a.stats().worst().unwrap();
        assert_eq!(ex.phase(Phase::Running), 1_500);
        assert_eq!(ex.phase(Phase::RetryStall), 500);
        assert_eq!(ex.phase(Phase::Queued), 0);
        assert_eq!(ex.phase_sum(), ex.latency_ns);
    }

    #[test]
    fn degraded_and_brownout_segments_label_by_priority() {
        let mut a = Attribution::new();
        a.observe(
            0,
            &Event::MechBrownout {
                worker: 3,
                losses: 2,
            },
        );
        a.observe(0, &start(3, 9));
        // 0..300 browned out, then degradation flips the label.
        a.observe(
            300,
            &Event::MechDegraded {
                worker: 3,
                losses: 3,
            },
        );
        a.observe(
            700,
            &Event::TaskFinish {
                worker: 3,
                fiber: 9,
                latency_ns: 700,
            },
        );
        let ex = a.stats().worst().unwrap();
        assert_eq!(ex.phase(Phase::BrownoutHeld), 300);
        assert_eq!(ex.phase(Phase::DegradedSignal), 400);
        assert_eq!(ex.phase(Phase::Running), 0);
        assert_eq!(ex.phase_sum(), 700);
    }

    #[test]
    fn preempted_fiber_resumes_with_fresh_segment() {
        let mut a = Attribution::new();
        a.observe(0, &start(0, 4));
        a.observe(
            1_000,
            &Event::Preempt {
                worker: 0,
                fiber: 4,
                ran_ns: 1_000,
            },
        );
        // Parked 1000..5000 (queued), switch window 5000..5200, second
        // slice 5200..6000.
        a.observe(
            5_000,
            &Event::SwitchBegin {
                worker: 1,
                fiber: 4,
                resumed: true,
            },
        );
        a.observe(
            5_200,
            &Event::TaskStart {
                worker: 1,
                fiber: 4,
                resumed: true,
                switch_ns: 200,
            },
        );
        a.observe(
            6_000,
            &Event::TaskFinish {
                worker: 1,
                fiber: 4,
                latency_ns: 6_000,
            },
        );
        let ex = a.stats().worst().unwrap();
        assert_eq!(ex.phase(Phase::Running), 1_800);
        assert_eq!(ex.phase(Phase::PreemptSwitch), 200);
        assert_eq!(ex.phase(Phase::Queued), 4_000);
        assert_eq!(ex.phase_sum(), 6_000);
    }

    #[test]
    fn exemplars_keep_the_worst_and_order_deterministically() {
        let mut s = PhaseStats::default();
        for (i, lat) in [500u64, 900, 100, 700, 300, 900].iter().enumerate() {
            let mut phase_ns = [0u64; Phase::COUNT];
            phase_ns[Phase::Queued as usize] = *lat;
            s.record(Exemplar {
                fiber: i as u32,
                worker: 0,
                finished_at_ns: i as u64 * 10,
                latency_ns: *lat,
                phase_ns,
            });
        }
        let exs = s.exemplars();
        assert_eq!(exs.len(), EXEMPLAR_SLOTS);
        let lats: Vec<u64> = exs.iter().map(|e| e.latency_ns).collect();
        assert_eq!(lats, vec![900, 900, 700, 500]);
        // Ties order by earlier finish.
        assert!(exs[0].finished_at_ns < exs[1].finished_at_ns);
        assert_eq!(s.completions(), 6);
        assert_eq!(s.end_to_end.count(), 6);
        assert_eq!(s.per_phase[Phase::Queued as usize].count(), 6);
    }

    #[test]
    fn disabled_accountant_records_nothing() {
        let mut a = Attribution::new();
        a.set_enabled(false);
        a.observe(0, &start(0, 1));
        a.observe(
            100,
            &Event::TaskFinish {
                worker: 0,
                fiber: 1,
                latency_ns: 100,
            },
        );
        assert_eq!(a.stats().completions(), 0);
        assert!(a.stats().worst().is_none());
    }

    #[test]
    fn merge_combines_runs() {
        let mut a = Attribution::new();
        a.observe(0, &start(0, 1));
        a.observe(
            100,
            &Event::TaskFinish {
                worker: 0,
                fiber: 1,
                latency_ns: 100,
            },
        );
        let mut b = Attribution::new();
        b.observe(0, &start(0, 2));
        b.observe(
            900,
            &Event::TaskFinish {
                worker: 0,
                fiber: 2,
                latency_ns: 900,
            },
        );
        let mut s = a.take_stats();
        s.merge(b.stats());
        assert_eq!(s.completions(), 2);
        assert_eq!(s.worst().unwrap().latency_ns, 900);
        // take_stats left the accountant empty but live.
        assert_eq!(a.stats().completions(), 0);
    }
}
