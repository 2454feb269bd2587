//! `lp-check race`: happens-before race detection over the
//! deterministic `lp_sim::obs` event stream.
//!
//! The trace (in-memory `TimedEvent`s or exported JSONL) is replayed
//! onto a [`HbGraph`]: each event is assigned to
//! an actor (dispatcher, the timer/watchdog control core, or a
//! worker), program order gives per-actor edges, and the typed
//! causality vocabulary —
//!
//! * **send→deliver**: `preempt_issued (worker, seq)` →
//!   `preempt_landed (worker, seq)`
//! * **retry→re-send**: `preempt_retry (worker, seq)` → the next
//!   `preempt_issued` for the same pair with `attempt > 0`
//! * **arm→fire**: `ktimer_armed (worker)` → `ktimer_fired (worker)`
//! * **dispatch→run**: `policy_dispatch (worker)` → the next fresh
//!   `task_start (worker)`
//! * **steal→run**: reserved for the work-stealing runtime
//!
//! — gives cross-actor edges. On top of the graph the analyzer
//! reports:
//!
//! * **uncaused deliveries** — a `preempt_landed` with no
//!   happens-before path from a matching `preempt_issued` (the
//!   delivery came from nowhere), including double-landings of one
//!   `(worker, seq)` identity;
//! * **lost wakeups** — a `preempt_retry` whose target never observes
//!   delivery, degradation, or run progress although the trace keeps
//!   going long past the backoff;
//! * **conflicting transitions** — degrade/recover transitions on one
//!   worker's mechanism state that are not monotone, or a recovery
//!   with no happens-before path from the degradation it undoes;
//! * **stranded fibers** — a parked fiber that never runs again while
//!   its worker keeps executing other work.
//!
//! Every finding carries a minimized event slice: the causal history
//! of the anchoring event (capped), rendered as JSONL, so a reader
//! sees the chain that led to the diagnostic rather than the whole
//! trace.
//!
//! Shipped-figure traces must produce **zero** findings; the tier-1
//! gate (`tests/static_analysis.rs`) seeds a lost-wakeup mutant and
//! asserts it is caught. Truncated rings are tolerated: a landing
//! whose issue predates the captured window is skipped, never
//! reported.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use lp_sim::obs::{Event, TimedEvent};

use crate::hb::{EdgeKind, HbGraph};

/// The kind of concurrency defect a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// A delivery with no happens-before path from any issue.
    UncausedDelivery,
    /// A retry whose target never observed delivery or degradation.
    LostWakeup,
    /// Non-monotone or causally unordered degrade/recover transitions.
    ConflictingTransition,
    /// A parked fiber that never ran again.
    StrandedFiber,
}

impl RaceKind {
    /// Stable kebab-case name used in human and JSON output.
    pub const fn name(self) -> &'static str {
        match self {
            RaceKind::UncausedDelivery => "uncaused-delivery",
            RaceKind::LostWakeup => "lost-wakeup",
            RaceKind::ConflictingTransition => "conflicting-transition",
            RaceKind::StrandedFiber => "stranded-fiber",
        }
    }
}

/// One race diagnostic: the defect kind, the worker it concerns, a
/// human message, and the minimized causal slice (JSONL lines).
#[derive(Debug, Clone)]
pub struct RaceFinding {
    /// What class of defect this is.
    pub kind: RaceKind,
    /// The worker the defect concerns.
    pub worker: u16,
    /// One-line description with the identifying details.
    pub message: String,
    /// The causal history of the anchoring event, oldest first,
    /// rendered as trace JSONL (capped at [`SLICE_CAP`] lines).
    pub slice: Vec<String>,
}

/// Maximum events in a finding's minimized slice.
pub const SLICE_CAP: usize = 12;

/// How far past a retry's backoff the trace must extend before an
/// unresolved retry counts as a lost wakeup (filters end-of-run
/// truncation).
const LOST_WAKEUP_MARGIN_NS: u64 = 1_000_000;

/// A park must be at least this far from the end of the trace before
/// the fiber can be called stranded.
const STRANDED_TAIL_NS: u64 = 5_000_000;

/// The parking worker must start this many other tasks, with the
/// parked fiber still waiting, before the fiber is called stranded.
const STRANDED_STARTS: usize = 16;

/// The result of one race analysis.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Events analyzed (after dropping unparseable lines).
    pub events: usize,
    /// Cross-actor happens-before edges constructed.
    pub edges: usize,
    /// Actors discovered (dispatcher + control + workers).
    pub actors: usize,
    /// Input lines skipped as unparseable (JSONL input only).
    pub skipped: usize,
    /// The findings, in trace order of their anchors.
    pub findings: Vec<RaceFinding>,
}

impl RaceReport {
    /// `true` when the trace is race-free.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "race: {} events, {} hb edges, {} actors, {} finding(s)",
            self.events,
            self.edges,
            self.actors,
            self.findings.len()
        );
        for f in &self.findings {
            let _ = writeln!(
                out,
                "  [{}] worker {}: {}",
                f.kind.name(),
                f.worker,
                f.message
            );
            for line in &f.slice {
                let _ = writeln!(out, "    | {line}");
            }
        }
        if self.findings.is_empty() {
            let _ = writeln!(out, "  clean: every delivery is caused, no lost wakeups");
        }
        out
    }

    /// Machine-readable rendering (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"events\":{},\"edges\":{},\"actors\":{},\"skipped\":{},\"findings\":[",
            self.events, self.edges, self.actors, self.skipped
        );
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":\"{}\",\"worker\":{},\"message\":\"{}\",\"slice\":[",
                f.kind.name(),
                f.worker,
                escape(&f.message)
            );
            for (j, line) in f.slice.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", escape(line));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The worker an event belongs to, if it is a per-worker event.
fn event_worker(ev: &Event) -> Option<u16> {
    match *ev {
        Event::UipiSent { worker, .. }
        | Event::UipiDelivered { worker, .. }
        | Event::UipiPended { worker }
        | Event::UipiSuppressed { worker }
        | Event::KernelAssistWake { worker }
        | Event::SignalSent { worker, .. }
        | Event::KtimerArmed { worker, .. }
        | Event::KtimerFired { worker }
        | Event::TaskStart { worker, .. }
        | Event::SwitchBegin { worker, .. }
        | Event::TaskFinish { worker, .. }
        | Event::Preempt { worker, .. }
        | Event::SpuriousPreempt { worker }
        | Event::PolicyDispatch { worker, .. }
        | Event::SliceGranted { worker, .. }
        | Event::FaultInjected { worker, .. }
        | Event::PreemptIssued { worker, .. }
        | Event::PreemptLanded { worker, .. }
        | Event::PreemptRetry { worker, .. }
        | Event::MechDegraded { worker, .. }
        | Event::MechRecovered { worker }
        | Event::MechBrownout { worker, .. } => Some(worker),
        Event::DeadlineArmed { slot, .. } | Event::DeadlineDisarmed { slot } => Some(slot),
        Event::TimerPoll { .. }
        | Event::IpcSampled { .. }
        | Event::Arrival { .. }
        | Event::Drop { .. }
        | Event::Shed { .. }
        | Event::Admitted { .. }
        | Event::QuantumAdjusted { .. }
        | Event::Marker { .. } => None,
    }
}

/// Actor index for an event: 0 = dispatcher, 1 = timer/watchdog
/// control core (all issue-side and kernel-send events), 2+w =
/// receiving side of worker `w`.
fn actor_of(ev: &Event) -> Actor {
    match *ev {
        Event::Arrival { .. }
        | Event::Drop { .. }
        | Event::Shed { .. }
        | Event::Admitted { .. }
        | Event::PolicyDispatch { .. } => Actor::Dispatcher,
        Event::UipiDelivered { worker, .. }
        | Event::DeadlineArmed { slot: worker, .. }
        | Event::DeadlineDisarmed { slot: worker }
        | Event::TaskStart { worker, .. }
        | Event::SwitchBegin { worker, .. }
        | Event::TaskFinish { worker, .. }
        | Event::Preempt { worker, .. }
        | Event::SpuriousPreempt { worker }
        | Event::SliceGranted { worker, .. }
        | Event::KtimerArmed { worker, .. }
        | Event::PreemptLanded { worker, .. }
        | Event::MechRecovered { worker } => Actor::Worker(worker),
        _ => Actor::Control,
    }
}

#[derive(Debug, Clone, Copy)]
enum Actor {
    Dispatcher,
    Control,
    Worker(u16),
}

impl Actor {
    fn index(self) -> usize {
        match self {
            Actor::Dispatcher => 0,
            Actor::Control => 1,
            Actor::Worker(w) => 2 + w as usize,
        }
    }
}

/// Analyzes an in-memory trace (e.g. `RunReport::events`).
#[cfg(test)]
fn analyze_events(events: &[TimedEvent]) -> RaceReport {
    Analyzer::run(events, 0)
}

/// Analyzes an exported JSONL trace. Unparseable or unknown lines are
/// skipped and counted, matching the documented schema-evolution rule
/// (parsers skip unknown `ev` values).
pub fn analyze_jsonl(text: &str) -> RaceReport {
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match TimedEvent::parse_jsonl(line) {
            Some(te) => events.push(te),
            None => skipped += 1,
        }
    }
    Analyzer::run(&events, skipped)
}

struct Analyzer<'a> {
    events: &'a [TimedEvent],
    graph: HbGraph,
    findings: Vec<RaceFinding>,
}

impl<'a> Analyzer<'a> {
    fn run(events: &'a [TimedEvent], skipped: usize) -> RaceReport {
        let workers = events
            .iter()
            .filter_map(|te| event_worker(&te.ev))
            .max()
            .map_or(0, |w| w as usize + 1);
        let actors = 2 + workers;
        let mut a = Analyzer {
            events,
            graph: HbGraph::new(actors),
            findings: Vec::new(),
        };
        a.build_graph();
        a.check_deliveries();
        a.check_lost_wakeups();
        a.check_transitions();
        a.check_stranded_fibers();
        a.findings.sort_by_key(|f| (f.worker, f.kind.name()));
        RaceReport {
            events: events.len(),
            edges: a.graph.edges().len(),
            actors,
            skipped,
            findings: a.findings,
        }
    }

    /// First pass: assign actors and construct the typed edges.
    fn build_graph(&mut self) {
        // Unconsumed issues per (worker, seq): (event idx, uintr).
        let mut open_issues: BTreeMap<(u16, u64), Vec<(usize, bool)>> = BTreeMap::new();
        // Pending retry decisions per (worker, seq).
        let mut pending_retry: BTreeMap<(u16, u64), usize> = BTreeMap::new();
        // Latest degrade decision per worker (joins its signal
        // re-send when there was no preempt_retry in between).
        let mut last_degrade: BTreeMap<u16, usize> = BTreeMap::new();
        // Armed kernel timer per worker.
        let mut pending_arm: BTreeMap<u16, usize> = BTreeMap::new();
        // FIFO of dispatch placements per worker.
        let mut pending_dispatch: BTreeMap<u16, Vec<usize>> = BTreeMap::new();

        for te in self.events {
            let actor = actor_of(&te.ev).index();
            let mut incoming: Vec<(usize, EdgeKind)> = Vec::new();
            match te.ev {
                Event::PreemptIssued {
                    worker,
                    seq,
                    attempt,
                    uintr,
                } => {
                    if attempt > 0 {
                        if let Some(r) = pending_retry.remove(&(worker, seq)) {
                            incoming.push((r, EdgeKind::RetryResend));
                        } else if let Some(d) = last_degrade.remove(&worker) {
                            // A degrade decision re-sends through the
                            // signal path without a preempt_retry.
                            incoming.push((d, EdgeKind::RetryResend));
                        }
                    }
                    let idx = self.graph.observe(actor, &incoming);
                    open_issues
                        .entry((worker, seq))
                        .or_default()
                        .push((idx, uintr));
                    continue;
                }
                Event::PreemptLanded { worker, seq, uintr } => {
                    if let Some(list) = open_issues.get_mut(&(worker, seq)) {
                        // Prefer the newest issue on the same path; a
                        // landing retires the whole run, so every
                        // remaining in-flight send for it is stale.
                        let pick = list
                            .iter()
                            .rev()
                            .find(|&&(_, u)| u == uintr)
                            .or_else(|| list.last())
                            .map(|&(i, _)| i);
                        if let Some(i) = pick {
                            incoming.push((i, EdgeKind::SendDeliver));
                        }
                        list.clear();
                    }
                }
                Event::PreemptRetry { worker, seq, .. } => {
                    let idx = self.graph.observe(actor, &incoming);
                    pending_retry.insert((worker, seq), idx);
                    continue;
                }
                Event::MechDegraded { worker, .. } => {
                    let idx = self.graph.observe(actor, &incoming);
                    last_degrade.insert(worker, idx);
                    continue;
                }
                Event::KtimerArmed { worker, .. } => {
                    let idx = self.graph.observe(actor, &incoming);
                    pending_arm.insert(worker, idx);
                    continue;
                }
                Event::KtimerFired { worker } => {
                    if let Some(armed) = pending_arm.remove(&worker) {
                        incoming.push((armed, EdgeKind::ArmFire));
                    }
                }
                Event::PolicyDispatch { worker, .. } => {
                    let idx = self.graph.observe(actor, &incoming);
                    pending_dispatch.entry(worker).or_default().push(idx);
                    continue;
                }
                Event::TaskStart {
                    worker,
                    resumed: false,
                    ..
                } => {
                    if let Some(q) = pending_dispatch.get_mut(&worker) {
                        if !q.is_empty() {
                            incoming.push((q.remove(0), EdgeKind::DispatchRun));
                        }
                    }
                }
                _ => {}
            }
            self.graph.observe(actor, &incoming);
        }
    }

    /// Renders the capped causal history of `anchor` as JSONL lines.
    fn slice_of(&self, anchor: usize) -> Vec<String> {
        self.graph
            .causal_slice(anchor, SLICE_CAP)
            .into_iter()
            .map(|i| {
                let mut s = String::new();
                self.events[i].write_jsonl(&mut s);
                s
            })
            .collect()
    }

    fn push(&mut self, kind: RaceKind, worker: u16, message: String, anchor: usize) {
        let slice = self.slice_of(anchor);
        self.findings.push(RaceFinding {
            kind,
            worker,
            message,
            slice,
        });
    }

    /// Uncaused and double deliveries: every `preempt_landed` must
    /// have a happens-before path from exactly one live issue.
    fn check_deliveries(&mut self) {
        // (worker, seq) identities already landed.
        let mut landed: BTreeMap<(u16, u64), usize> = BTreeMap::new();
        // Issue indices per (worker, seq), populated in trace order.
        let mut issues: BTreeMap<(u16, u64), Vec<usize>> = BTreeMap::new();
        let mut first_issue_at: BTreeMap<u16, usize> = BTreeMap::new();
        for (idx, te) in self.events.iter().enumerate() {
            match te.ev {
                Event::PreemptIssued { worker, seq, .. } => {
                    issues.entry((worker, seq)).or_default().push(idx);
                    first_issue_at.entry(worker).or_insert(idx);
                }
                Event::PreemptLanded { worker, seq, .. } => {
                    if let Some(&prev) = landed.get(&(worker, seq)) {
                        self.push(
                            RaceKind::ConflictingTransition,
                            worker,
                            format!(
                                "preemption (worker {worker}, seq {seq}) landed twice \
                                 (events {prev} and {idx}): double delivery"
                            ),
                            idx,
                        );
                        continue;
                    }
                    landed.insert((worker, seq), idx);
                    let cause = issues
                        .get(&(worker, seq))
                        .into_iter()
                        .flatten()
                        .rev()
                        .find(|&&i| self.graph.happens_before(i, idx));
                    if cause.is_none() {
                        // Ring truncation can cut the issue off the
                        // front of the window. Issues for one worker
                        // carry nondecreasing seq, so an *earlier*
                        // in-window issue for this worker proves the
                        // matching issue would have been captured —
                        // only then is the landing truly uncaused.
                        let provable = first_issue_at.get(&worker).is_some_and(|&f| f < idx);
                        if provable {
                            self.push(
                                RaceKind::UncausedDelivery,
                                worker,
                                format!(
                                    "preempt_landed (worker {worker}, seq {seq}) has no \
                                     happens-before path from any preempt_issued: the \
                                     delivery is uncaused"
                                ),
                                idx,
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Lost wakeups: the last retry of a `(worker, seq)` chain must be
    /// followed by delivery, degradation, or run progress — given the
    /// trace keeps going long enough that resolution was due.
    fn check_lost_wakeups(&mut self) {
        let Some(last) = self.events.last() else {
            return;
        };
        let trace_end = last.at.as_nanos().max(
            self.events
                .iter()
                .map(|te| te.at.as_nanos())
                .max()
                .unwrap_or(0),
        );
        // Last retry per (worker, seq).
        let mut last_retry: BTreeMap<(u16, u64), (usize, u64, u64)> = BTreeMap::new();
        for (idx, te) in self.events.iter().enumerate() {
            if let Event::PreemptRetry {
                worker,
                seq,
                delay_ns,
                ..
            } = te.ev
            {
                last_retry.insert((worker, seq), (idx, te.at.as_nanos(), delay_ns));
            }
        }
        for (&(worker, seq), &(idx, at, delay)) in &last_retry {
            let due = at
                .saturating_add(delay)
                .saturating_add(LOST_WAKEUP_MARGIN_NS);
            if trace_end < due {
                continue; // the window ends before resolution was due
            }
            let resolved = self.events[idx + 1..].iter().any(|te| match te.ev {
                Event::PreemptLanded {
                    worker: w, seq: s, ..
                } => w == worker && s == seq,
                Event::MechDegraded { worker: w, .. } => w == worker,
                Event::TaskFinish { worker: w, .. } => w == worker,
                Event::Preempt { worker: w, .. } => w == worker,
                Event::PreemptIssued {
                    worker: w, seq: s, ..
                } => w == worker && s > seq,
                _ => false,
            });
            if !resolved {
                self.push(
                    RaceKind::LostWakeup,
                    worker,
                    format!(
                        "preempt_retry (worker {worker}, seq {seq}) is never followed by \
                         delivery, degradation, or run progress although the trace \
                         continues {}us past the backoff: the wakeup is lost",
                        (trace_end - at) / 1_000
                    ),
                    idx,
                );
            }
        }
    }

    /// Degrade/recover monotonicity and causality: transitions on one
    /// worker's mechanism state must alternate degrade → recover, and
    /// each recovery must be causally reachable from the degradation
    /// it undoes (degrade —po→ probe issue —send→deliver→ landing
    /// —po→ recover). The reverse direction (recover → next degrade)
    /// has no trace-visible synchronization — the watchdog's read of
    /// victim state is internal — so only monotonicity is asserted.
    fn check_transitions(&mut self) {
        let mut by_worker: BTreeMap<u16, Vec<(usize, bool)>> = BTreeMap::new();
        for (idx, te) in self.events.iter().enumerate() {
            match te.ev {
                Event::MechDegraded { worker, .. } => {
                    by_worker.entry(worker).or_default().push((idx, true));
                }
                Event::MechRecovered { worker } => {
                    by_worker.entry(worker).or_default().push((idx, false));
                }
                _ => {}
            }
        }
        for (&worker, transitions) in &by_worker {
            let mut degraded_since: Option<usize> = None;
            let mut seen_any_degrade = false;
            for &(idx, is_degrade) in transitions {
                if is_degrade {
                    if degraded_since.is_some() {
                        self.push(
                            RaceKind::ConflictingTransition,
                            worker,
                            format!(
                                "mech_degraded on worker {worker} while already degraded: \
                                 transitions are not monotone"
                            ),
                            idx,
                        );
                    }
                    degraded_since = Some(idx);
                    seen_any_degrade = true;
                } else {
                    match degraded_since.take() {
                        None => {
                            // Ring truncation can cut the degrade off
                            // the window front; only flag when a
                            // degrade for this worker was captured.
                            if seen_any_degrade {
                                self.push(
                                    RaceKind::ConflictingTransition,
                                    worker,
                                    format!(
                                        "mech_recovered on worker {worker} without a \
                                         preceding mech_degraded"
                                    ),
                                    idx,
                                );
                            }
                        }
                        Some(d) => {
                            if !self.graph.happens_before(d, idx) {
                                self.push(
                                    RaceKind::ConflictingTransition,
                                    worker,
                                    format!(
                                        "mech_recovered on worker {worker} is concurrent \
                                         with the mech_degraded it undoes: no \
                                         happens-before path through a probe delivery"
                                    ),
                                    idx,
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Stranded fibers: a `preempt` parks a fiber; if the fiber never
    /// starts again while its worker keeps picking other work (and the
    /// park is not in the trace tail), its causality chain dead-ends.
    fn check_stranded_fibers(&mut self) {
        let Some(last) = self.events.last() else {
            return;
        };
        let trace_end = last.at.as_nanos();
        // Fiber ids are pool slots, reused only after release — a
        // parked fiber holds its slot, so "never starts again" is
        // exact, not a heuristic.
        let mut parked: BTreeMap<u32, (usize, u16, u64)> = BTreeMap::new();
        let mut starts_after: BTreeMap<u32, usize> = BTreeMap::new();
        for (idx, te) in self.events.iter().enumerate() {
            match te.ev {
                Event::Preempt { worker, fiber, .. } => {
                    parked.insert(fiber, (idx, worker, te.at.as_nanos()));
                    starts_after.insert(fiber, 0);
                }
                Event::TaskStart { worker, fiber, .. } => {
                    if parked.remove(&fiber).is_some() {
                        starts_after.remove(&fiber);
                    }
                    // Any other fiber starting on a worker with parked
                    // fibers advances their starvation counters.
                    for (f, &(_, w, _)) in parked.iter() {
                        if w == worker && *f != fiber {
                            *starts_after.entry(*f).or_insert(0) += 1;
                        }
                    }
                    let _ = idx;
                }
                _ => {}
            }
        }
        for (&fiber, &(idx, worker, at)) in &parked {
            let starved = starts_after.get(&fiber).copied().unwrap_or(0);
            if trace_end.saturating_sub(at) >= STRANDED_TAIL_NS && starved >= STRANDED_STARTS {
                self.push(
                    RaceKind::StrandedFiber,
                    worker,
                    format!(
                        "fiber {fiber} was parked on worker {worker} and never resumed \
                         although the worker started {starved} other tasks afterwards: \
                         the fiber's causality chain dead-ends"
                    ),
                    idx,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::SimTime;

    fn te(at_ns: u64, ev: Event) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_nanos(at_ns),
            ev,
        }
    }

    fn issue(at: u64, worker: u16, seq: u64, attempt: u8) -> TimedEvent {
        te(
            at,
            Event::PreemptIssued {
                worker,
                seq,
                attempt,
                uintr: true,
            },
        )
    }

    fn landed(at: u64, worker: u16, seq: u64) -> TimedEvent {
        te(
            at,
            Event::PreemptLanded {
                worker,
                seq,
                uintr: true,
            },
        )
    }

    #[test]
    fn clean_cycle_has_no_findings() {
        let trace = vec![
            issue(100, 0, 0, 0),
            landed(500, 0, 0),
            te(
                600,
                Event::Preempt {
                    worker: 0,
                    fiber: 1,
                    ran_ns: 500,
                },
            ),
            issue(1_000, 0, 1, 0),
            landed(1_400, 0, 1),
            te(
                1_500,
                Event::Preempt {
                    worker: 0,
                    fiber: 2,
                    ran_ns: 400,
                },
            ),
        ];
        let r = analyze_events(&trace);
        assert!(r.is_clean(), "{}", r.human());
        assert_eq!(r.events, 6);
        assert!(r.edges >= 2, "send->deliver edges missing");
    }

    #[test]
    fn uncaused_delivery_is_detected() {
        // The seeded mutant: a delivery whose issue never happened.
        let trace = vec![
            issue(100, 0, 0, 0),
            landed(500, 0, 0),
            landed(900, 0, 7), // no issue for seq 7 anywhere
        ];
        let r = analyze_events(&trace);
        assert_eq!(r.findings.len(), 1, "{}", r.human());
        assert_eq!(r.findings[0].kind, RaceKind::UncausedDelivery);
        assert_eq!(r.findings[0].worker, 0);
        assert!(!r.findings[0].slice.is_empty(), "finding carries a slice");
    }

    #[test]
    fn truncated_head_is_not_reported() {
        // Ring truncation: the trace opens mid-stream with a landing
        // whose issue fell off the window. No earlier issue for the
        // worker exists, so the analyzer must stay quiet.
        let trace = vec![
            landed(500, 0, 41),
            issue(1_000, 0, 42, 0),
            landed(1_400, 0, 42),
        ];
        let r = analyze_events(&trace);
        assert!(r.is_clean(), "{}", r.human());
    }

    #[test]
    fn double_delivery_is_detected() {
        let trace = vec![issue(100, 0, 0, 0), landed(500, 0, 0), landed(700, 0, 0)];
        let r = analyze_events(&trace);
        assert_eq!(r.findings.len(), 1, "{}", r.human());
        assert_eq!(r.findings[0].kind, RaceKind::ConflictingTransition);
        assert!(r.findings[0].message.contains("double delivery"));
    }

    #[test]
    fn lost_wakeup_is_detected() {
        let mut trace = vec![
            issue(100, 0, 0, 0),
            te(
                50_000,
                Event::PreemptRetry {
                    worker: 0,
                    seq: 0,
                    attempt: 1,
                    delay_ns: 5_000,
                },
            ),
            issue(55_000, 0, 0, 1),
        ];
        // The trace continues far past the backoff with unrelated
        // activity, but worker 0 never observes anything.
        for i in 0..20 {
            trace.push(te(
                100_000 + i * 500_000,
                Event::TaskFinish {
                    worker: 1,
                    fiber: 9,
                    latency_ns: 10,
                },
            ));
        }
        let r = analyze_events(&trace);
        assert!(
            r.findings
                .iter()
                .any(|f| f.kind == RaceKind::LostWakeup && f.worker == 0),
            "{}",
            r.human()
        );
    }

    #[test]
    fn resolved_retry_is_not_a_lost_wakeup() {
        let trace = vec![
            issue(100, 0, 0, 0),
            te(
                50_000,
                Event::PreemptRetry {
                    worker: 0,
                    seq: 0,
                    attempt: 1,
                    delay_ns: 5_000,
                },
            ),
            issue(55_000, 0, 0, 1),
            landed(56_000, 0, 0),
            te(
                56_100,
                Event::Preempt {
                    worker: 0,
                    fiber: 3,
                    ran_ns: 56_000,
                },
            ),
            te(
                10_000_000,
                Event::TaskFinish {
                    worker: 1,
                    fiber: 9,
                    latency_ns: 10,
                },
            ),
        ];
        let r = analyze_events(&trace);
        assert!(r.is_clean(), "{}", r.human());
    }

    #[test]
    fn retry_near_trace_end_is_tolerated() {
        // Resolution was never due inside the window: quiet.
        let trace = vec![
            issue(100, 0, 0, 0),
            te(
                50_000,
                Event::PreemptRetry {
                    worker: 0,
                    seq: 0,
                    attempt: 1,
                    delay_ns: 5_000,
                },
            ),
            te(
                60_000,
                Event::TaskFinish {
                    worker: 1,
                    fiber: 9,
                    latency_ns: 10,
                },
            ),
        ];
        let r = analyze_events(&trace);
        assert!(r.is_clean(), "{}", r.human());
    }

    #[test]
    fn recovery_without_probe_chain_is_conflicting() {
        // Degrade, then a recovery with no probe issue/landing chain:
        // the two transitions are concurrent in the hb graph.
        let trace = vec![
            issue(100, 0, 0, 0),
            te(
                200,
                Event::MechDegraded {
                    worker: 0,
                    losses: 3,
                },
            ),
            te(900, Event::MechRecovered { worker: 0 }),
        ];
        let r = analyze_events(&trace);
        assert_eq!(r.findings.len(), 1, "{}", r.human());
        assert_eq!(r.findings[0].kind, RaceKind::ConflictingTransition);
        assert!(r.findings[0].message.contains("concurrent"));
    }

    #[test]
    fn causal_recovery_is_clean() {
        // The real chain: degrade -> probe issue -> landing -> recover.
        let trace = vec![
            issue(100, 0, 0, 0),
            te(
                200,
                Event::MechDegraded {
                    worker: 0,
                    losses: 3,
                },
            ),
            issue(300, 0, 0, 1),
            landed(700, 0, 0),
            te(700, Event::MechRecovered { worker: 0 }),
            te(
                710,
                Event::Preempt {
                    worker: 0,
                    fiber: 1,
                    ran_ns: 600,
                },
            ),
        ];
        let r = analyze_events(&trace);
        assert!(r.is_clean(), "{}", r.human());
    }

    #[test]
    fn double_degrade_is_not_monotone() {
        let trace = vec![
            te(
                200,
                Event::MechDegraded {
                    worker: 0,
                    losses: 3,
                },
            ),
            te(
                400,
                Event::MechDegraded {
                    worker: 0,
                    losses: 4,
                },
            ),
        ];
        let r = analyze_events(&trace);
        assert_eq!(r.findings.len(), 1, "{}", r.human());
        assert!(r.findings[0].message.contains("monotone"));
    }

    #[test]
    fn stranded_fiber_is_detected() {
        let mut trace = vec![te(
            100,
            Event::Preempt {
                worker: 0,
                fiber: 7,
                ran_ns: 100,
            },
        )];
        // The worker keeps starting other fibers; 7 never returns, and
        // the trace runs long past the park.
        for i in 0..20 {
            trace.push(te(
                1_000_000 + i * 1_000_000,
                Event::TaskStart {
                    worker: 0,
                    fiber: 100 + i as u32,
                    resumed: false,
                    switch_ns: 0,
                },
            ));
        }
        let r = analyze_events(&trace);
        assert!(
            r.findings.iter().any(|f| f.kind == RaceKind::StrandedFiber),
            "{}",
            r.human()
        );
    }

    #[test]
    fn resumed_fiber_is_not_stranded() {
        let mut trace = vec![te(
            100,
            Event::Preempt {
                worker: 0,
                fiber: 7,
                ran_ns: 100,
            },
        )];
        for i in 0..20 {
            trace.push(te(
                1_000_000 + i * 1_000_000,
                Event::TaskStart {
                    worker: 0,
                    fiber: 100 + i as u32,
                    resumed: false,
                    switch_ns: 0,
                },
            ));
        }
        trace.push(te(
            30_000_000,
            Event::TaskStart {
                worker: 0,
                fiber: 7,
                resumed: true,
                switch_ns: 0,
            },
        ));
        let r = analyze_events(&trace);
        assert!(r.is_clean(), "{}", r.human());
    }

    #[test]
    fn jsonl_round_trip_matches_in_memory() {
        let trace = vec![issue(100, 0, 0, 0), landed(500, 0, 0), landed(900, 0, 7)];
        let mut text = String::new();
        for te in &trace {
            te.write_jsonl(&mut text);
            text.push('\n');
        }
        text.push_str("{\"t\":1000,\"ev\":\"some_future_event\",\"x\":1}\n");
        let r = analyze_jsonl(&text);
        assert_eq!(r.skipped, 1, "unknown events skipped, not fatal");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].kind, RaceKind::UncausedDelivery);
        assert!(r.to_json().contains("\"kind\":\"uncaused-delivery\""));
    }
}
