//! Exhaustive-interleaving checker for the UPID ON/SN/PIR protocol.
//!
//! The paper's correctness story rests on a lock-free-style state
//! machine: senders post vectors and race the receiver's drain,
//! suppression window, masking, and migration. Lost wakeups and broken
//! coalescing are exactly the bugs that survive unit tests (which pick
//! one interleaving) — so this module enumerates **all** of them.
//!
//! Each [`Scenario`] is a small concurrent program: thread 0 is the
//! receiver (drains, toggles `SN`, changes its scheduling state,
//! migrates), threads 1.. are senders (each a sequence of `SENDUIPI`s).
//! A bounded DFS explores every interleaving of the threads' programs
//! — each op is one atomic protocol transition, matching the SDM's
//! locked-RMW posting semantics — and after *every* transition checks
//! the protocol invariants (see [`Invariant`] docs and
//! `docs/CHECKS.md`) against both the real
//! [`UintrDomain`] and the independently written [`SpecUpid`] oracle.
//! At every
//! complete schedule a *schedule-in epilogue* (clear `SN`, drain) runs
//! and the checker asserts that every vector ever sent was drained
//! exactly once — the "no lost wakeup" liveness obligation reduced to a
//! safety check at the bounded horizon.
//!
//! A simple partial-order reduction is available ([`Mode::Por`]):
//! memoize `(program counters, world state)` pairs and prune revisits.
//! Two interleavings that converge to the same state and control point
//! have identical futures, so exploring one suffices for the safety
//! invariants; the full mode ([`Mode::Full`]) walks every schedule and
//! is the one the `>= 1000 distinct schedules` CI gate runs.

use std::collections::BTreeSet;
use std::fmt;

use lp_hw::uintr::{DropReason, ReceiverState, SendOutcome, UintrDomain, Uitt, UpidHandle};
use lp_hw::uintr_spec::SpecUpid;
use lp_hw::CoreId;
use lp_sim::fault::IpiFault;

/// One atomic protocol transition in a scenario program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A sender executes `SENDUIPI` posting `vector`.
    Send {
        /// User vector 0..64 to post.
        vector: u8,
    },
    /// A sender executes `SENDUIPI` but the fabric drops it
    /// (fault-injected [`IpiFault::Drop`]): the instruction retires,
    /// nothing reaches the UPID, and the outcome must be a typed
    /// `Dropped` — never a silent success.
    SendLost {
        /// User vector 0..64 the lost send was carrying.
        vector: u8,
    },
    /// The receiver drains its UPID (`acknowledge`).
    Ack,
    /// The kernel toggles the receiver's `SN` bit.
    Suppress(bool),
    /// The receiver's scheduling/masking state changes (affects how
    /// subsequent sends notify).
    SetRecvState(ReceiverState),
    /// The receiver migrates: its notification destination moves to
    /// `Some(core)` or is cleared.
    SetNdst(Option<usize>),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Send { vector } => write!(f, "send(v{vector})"),
            Op::SendLost { vector } => write!(f, "send-lost(v{vector})"),
            Op::Ack => write!(f, "ack"),
            Op::Suppress(b) => write!(f, "sn={}", u8::from(*b)),
            Op::SetRecvState(s) => write!(f, "recv={s:?}"),
            Op::SetNdst(c) => write!(f, "ndst={c:?}"),
        }
    }
}

/// A small concurrent program: `threads[0]` is the receiver, the rest
/// are senders. The DFS explores every interleaving that respects each
/// thread's program order.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Name shown in reports.
    pub name: &'static str,
    /// What the scenario stresses (one line, for the report).
    pub what: &'static str,
    /// Per-thread op sequences; index 0 is the receiver.
    pub threads: Vec<Vec<Op>>,
}

/// The protocol invariants checked after every transition (and at the
/// end of every schedule). Documented in `docs/CHECKS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// The real domain's (`ON`, `SN`, `PUIR`) always equals the spec's.
    SpecAgreement,
    /// `ON` is never set while `PUIR` is empty (no phantom
    /// notifications).
    OnImpliesPending,
    /// Sent vectors are never lost: `drained ∪ pending == sent` at all
    /// times, and `drained == sent` after the schedule-in epilogue.
    Conservation,
    /// Each `acknowledge` drains exactly the vectors posted since the
    /// previous drain — never more, never twice.
    DrainExactlyOnce,
    /// A send under `SN` reports `Suppressed` and does not set `ON`; a
    /// send under `ON` reports `Coalesced` and keeps the vector set.
    SuppressCoalesce,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Invariant::SpecAgreement => "spec-agreement",
            Invariant::OnImpliesPending => "on-implies-pending",
            Invariant::Conservation => "conservation",
            Invariant::DrainExactlyOnce => "drain-exactly-once",
            Invariant::SuppressCoalesce => "suppress-coalesce",
        };
        f.write_str(s)
    }
}

/// Exploration strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Enumerate every schedule (the CI gate counts these).
    Full,
    /// Partial-order reduction: prune `(pcs, state)` revisits.
    Por,
}

/// One invariant violation with the schedule that reached it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// Human-readable detail (expected vs. got).
    pub detail: String,
    /// The interleaving as `thread:op` steps, in execution order.
    pub schedule: String,
}

/// Exploration statistics + violations for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: &'static str,
    /// What the scenario stresses.
    pub what: &'static str,
    /// Complete schedules reached (leaves). In [`Mode::Por`] this is
    /// the number of *explored* leaves after pruning.
    pub schedules: u64,
    /// Individual transitions executed.
    pub steps: u64,
    /// Distinct `(pcs, state)` pairs seen (only tracked under
    /// [`Mode::Por`]).
    pub states: u64,
    /// Invariant violations (capped at [`MAX_VIOLATIONS`] per
    /// scenario).
    pub violations: Vec<Violation>,
}

/// The aggregate over all scenarios.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Mode the exploration ran under.
    pub mode: Mode,
    /// Per-scenario results.
    pub scenarios: Vec<ScenarioReport>,
}

impl ModelReport {
    /// Total complete schedules across scenarios.
    pub fn total_schedules(&self) -> u64 {
        self.scenarios.iter().map(|s| s.schedules).sum()
    }

    /// Total transitions executed.
    fn total_steps(&self) -> u64 {
        self.scenarios.iter().map(|s| s.steps).sum()
    }

    /// All violations across scenarios.
    fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.scenarios.iter().flat_map(|s| s.violations.iter())
    }

    /// `true` when every invariant held on every explored path.
    pub fn holds(&self) -> bool {
        self.violations().next().is_none()
    }

    /// Human-readable summary.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for s in &self.scenarios {
            out.push_str(&format!(
                "{:<18} {:>6} schedules  {:>7} steps{}  {}\n",
                s.name,
                s.schedules,
                s.steps,
                if self.mode == Mode::Por {
                    format!("  {:>6} states", s.states)
                } else {
                    String::new()
                },
                if s.violations.is_empty() {
                    "ok".to_string()
                } else {
                    format!("{} VIOLATION(S)", s.violations.len())
                },
            ));
            for v in &s.violations {
                out.push_str(&format!(
                    "  [{}] {}\n    schedule: {}\n",
                    v.invariant, v.detail, v.schedule
                ));
            }
        }
        out.push_str(&format!(
            "lp-check model ({:?}): {} scenario(s), {} schedules, {} steps — {}\n",
            self.mode,
            self.scenarios.len(),
            self.total_schedules(),
            self.total_steps(),
            if self.holds() {
                "all invariants hold"
            } else {
                "INVARIANT VIOLATIONS"
            }
        ));
        out
    }

    /// Machine-readable JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"mode\":\"{:?}\",\"total_schedules\":{},\"total_steps\":{},\"holds\":{},",
            self.mode,
            self.total_schedules(),
            self.total_steps(),
            self.holds()
        ));
        out.push_str("\"scenarios\":[");
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"schedules\":{},\"steps\":{},\"states\":{},\"violations\":{}}}",
                s.name,
                s.schedules,
                s.steps,
                s.states,
                s.violations.len()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Cap on recorded violations per scenario (exploration continues, but
/// a broken invariant usually breaks on thousands of paths at once).
pub const MAX_VIOLATIONS: usize = 8;

// ---------------------------------------------------------------------------
// The world: real domain + spec oracle + accounting.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct World {
    dom: UintrDomain,
    uitt: Uitt,
    h: UpidHandle,
    spec: SpecUpid,
    recv_state: ReceiverState,
    /// Union of all vectors ever posted.
    sent: u64,
    /// Union of all vectors returned by drains.
    drained: u64,
    /// Vectors posted since the last drain (independent bookkeeping for
    /// the exactly-once check; must track `PUIR` if the model is
    /// right).
    live: u64,
}

impl World {
    fn new() -> Self {
        let mut dom = UintrDomain::new();
        let h = dom.register_receiver();
        let mut uitt = Uitt::new();
        // Entry index i targets vector i; scenarios use vectors 0..16.
        for v in 0..16 {
            uitt.register(h, v);
        }
        World {
            dom,
            uitt,
            h,
            spec: SpecUpid::new(),
            recv_state: ReceiverState::RunningUifSet,
            sent: 0,
            drained: 0,
            live: 0,
        }
    }

    /// Fingerprint for the PoR memo: everything the future depends on.
    fn fingerprint(&self) -> Fingerprint {
        let u = self.dom.upid(self.h).expect("receiver registered");
        let rs = match self.recv_state {
            ReceiverState::RunningUifSet => 0u8,
            ReceiverState::RunningUifClear => 1,
            ReceiverState::Blocked => 2,
        };
        (u.state_key(), rs, self.sent, self.drained, self.live)
    }

    /// Applies one op; returns the invariant it broke, if any.
    fn apply(&mut self, op: Op) -> Result<(), (Invariant, String)> {
        match op {
            Op::Send { vector } => {
                let on_before = self.dom.upid(self.h).expect("registered").outstanding;
                let sn_before = self.dom.upid(self.h).expect("registered").suppress;
                let entry = self.uitt.get(vector as usize).expect("uitt entry");
                let got = self
                    .dom
                    .senduipi(entry, self.recv_state)
                    .map_err(|e| (Invariant::SpecAgreement, format!("send failed: {e}")))?;
                let want = self.spec.send(vector, self.recv_state);
                self.sent |= 1u64 << vector;
                self.live |= 1u64 << vector;
                if got != want {
                    return Err((
                        Invariant::SpecAgreement,
                        format!("send(v{vector}) -> {got:?}, spec says {want:?}"),
                    ));
                }
                let on_after = self.dom.upid(self.h).expect("registered").outstanding;
                if sn_before && (got != SendOutcome::Suppressed || on_after != on_before) {
                    return Err((
                        Invariant::SuppressCoalesce,
                        format!("send under SN gave {got:?} (ON {on_before}->{on_after})"),
                    ));
                }
                if !sn_before && on_before && got != SendOutcome::Coalesced {
                    return Err((
                        Invariant::SuppressCoalesce,
                        format!("send under ON gave {got:?}, expected Coalesced"),
                    ));
                }
            }
            Op::SendLost { vector } => {
                let entry = self.uitt.get(vector as usize).expect("uitt entry");
                let got = self
                    .dom
                    .senduipi_with_fault(entry, self.recv_state, Some(IpiFault::Drop))
                    .map_err(|e| (Invariant::SpecAgreement, format!("lost send failed: {e}")))?;
                if got
                    != (SendOutcome::Dropped {
                        reason: DropReason::Faulted,
                    })
                {
                    return Err((
                        Invariant::SpecAgreement,
                        format!("lost send(v{vector}) -> {got:?}, expected Dropped/Faulted"),
                    ));
                }
                // Nothing was posted: `sent`/`live`/spec stay untouched,
                // and check_state() below verifies the domain agrees.
            }
            Op::Ack => {
                let got = self
                    .dom
                    .acknowledge(self.h)
                    .map_err(|e| (Invariant::DrainExactlyOnce, format!("ack failed: {e}")))?;
                let want = self.spec.acknowledge();
                if got != want {
                    return Err((
                        Invariant::SpecAgreement,
                        format!("ack drained {got:#x}, spec says {want:#x}"),
                    ));
                }
                if got & !self.live != 0 {
                    return Err((
                        Invariant::DrainExactlyOnce,
                        format!(
                            "ack drained {:#x} not posted since the last drain (live {:#x})",
                            got & !self.live,
                            self.live
                        ),
                    ));
                }
                if got != self.live {
                    return Err((
                        Invariant::DrainExactlyOnce,
                        format!("ack drained {got:#x} but {:#x} was live", self.live),
                    ));
                }
                self.drained |= got;
                self.live = 0;
            }
            Op::Suppress(b) => {
                self.dom
                    .set_suppress(self.h, b)
                    .map_err(|e| (Invariant::SpecAgreement, format!("set_suppress: {e}")))?;
                self.spec.set_suppress(b);
            }
            Op::SetRecvState(s) => {
                self.recv_state = s;
            }
            Op::SetNdst(core) => {
                self.dom
                    .set_ndst(self.h, core.map(CoreId))
                    .map_err(|e| (Invariant::SpecAgreement, format!("set_ndst: {e}")))?;
            }
        }
        self.check_state()
    }

    /// The always-on invariants, checked after every transition.
    fn check_state(&self) -> Result<(), (Invariant, String)> {
        let u = self.dom.upid(self.h).expect("receiver registered");
        if u.outstanding != self.spec.on || u.suppress != self.spec.sn || u.pending != self.spec.pir
        {
            return Err((
                Invariant::SpecAgreement,
                format!(
                    "domain (ON={} SN={} PIR={:#x}) != spec (ON={} SN={} PIR={:#x})",
                    u.outstanding, u.suppress, u.pending, self.spec.on, self.spec.sn, self.spec.pir
                ),
            ));
        }
        if u.outstanding && u.pending == 0 {
            return Err((
                Invariant::OnImpliesPending,
                "ON set with empty PIR (phantom notification)".to_string(),
            ));
        }
        if self.drained | u.pending != self.sent || self.live != u.pending {
            return Err((
                Invariant::Conservation,
                format!(
                    "drained {:#x} | pending {:#x} != sent {:#x} (live {:#x})",
                    self.drained, u.pending, self.sent, self.live
                ),
            ));
        }
        Ok(())
    }

    /// End-of-schedule epilogue: the kernel schedules the receiver back
    /// in (clears `SN`) and the handler drains. Afterwards *every* sent
    /// vector must have been delivered exactly once and nothing may
    /// remain pending — the bounded-horizon form of "no lost wakeup".
    fn epilogue(&mut self) -> Result<(), (Invariant, String)> {
        self.apply(Op::Suppress(false))?;
        self.apply(Op::Ack)?;
        let u = self.dom.upid(self.h).expect("receiver registered");
        if self.drained != self.sent || u.pending != 0 || u.outstanding {
            return Err((
                Invariant::Conservation,
                format!(
                    "after schedule-in epilogue: drained {:#x}, sent {:#x}, pending {:#x}, ON={}",
                    self.drained, self.sent, u.pending, u.outstanding
                ),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Exploration.
// ---------------------------------------------------------------------------

/// A world's PoR fingerprint: the UPID state key, the receiver state,
/// and the sent, drained and live counts.
type Fingerprint = ((bool, bool, u64), u8, u64, u64, u64);

struct Explorer<'a> {
    sc: &'a Scenario,
    mode: Mode,
    report: ScenarioReport,
    memo: BTreeSet<(Vec<usize>, Fingerprint)>,
    trace: Vec<String>,
}

impl Explorer<'_> {
    fn record(&mut self, invariant: Invariant, detail: String) {
        if self.report.violations.len() < MAX_VIOLATIONS {
            self.report.violations.push(Violation {
                invariant,
                detail,
                schedule: self.trace.join(" "),
            });
        }
    }

    fn dfs(&mut self, pcs: &mut Vec<usize>, world: &World) {
        let enabled: Vec<usize> = (0..self.sc.threads.len())
            .filter(|&t| pcs[t] < self.sc.threads[t].len())
            .collect();
        if enabled.is_empty() {
            self.report.schedules += 1;
            let mut w = world.clone();
            if let Err((inv, detail)) = w.epilogue() {
                self.record(inv, detail);
            }
            return;
        }
        if self.mode == Mode::Por {
            let key = (pcs.clone(), world.fingerprint());
            if !self.memo.insert(key) {
                return;
            }
            self.report.states += 1;
        }
        for t in enabled {
            let op = self.sc.threads[t][pcs[t]];
            let mut w = world.clone();
            self.report.steps += 1;
            self.trace.push(format!("T{t}:{op}"));
            match w.apply(op) {
                Ok(()) => {
                    pcs[t] += 1;
                    self.dfs(pcs, &w);
                    pcs[t] -= 1;
                }
                Err((inv, detail)) => self.record(inv, detail),
            }
            self.trace.pop();
        }
    }
}

/// Explores one scenario exhaustively under `mode`.
fn explore(sc: &Scenario, mode: Mode) -> ScenarioReport {
    let mut ex = Explorer {
        sc,
        mode,
        report: ScenarioReport {
            name: sc.name,
            what: sc.what,
            schedules: 0,
            steps: 0,
            states: 0,
            violations: Vec::new(),
        },
        memo: BTreeSet::new(),
        trace: Vec::new(),
    };
    let mut pcs = vec![0usize; sc.threads.len()];
    ex.dfs(&mut pcs, &World::new());
    ex.report
}

/// The checked-in scenario suite: 2 senders × 1 receiver, ≤ 8 ops per
/// thread, covering the drain race, the suppression window,
/// masking/blocking transitions, migration, and same-vector
/// coalescing. Together they enumerate several thousand distinct
/// schedules (the CI gate requires ≥ 1000).
fn default_scenarios() -> Vec<Scenario> {
    use Op::*;
    use ReceiverState::*;
    vec![
        Scenario {
            name: "drain-race",
            what: "two 3-send bursts race three drains (coalescing vs. delivery)",
            threads: vec![
                vec![Ack, Ack, Ack],
                vec![Send { vector: 0 }, Send { vector: 1 }, Send { vector: 2 }],
                vec![Send { vector: 3 }, Send { vector: 4 }, Send { vector: 5 }],
            ],
        },
        Scenario {
            name: "suppress-window",
            what: "sends landing inside and around an SN=1 window",
            threads: vec![
                vec![Suppress(true), Suppress(false), Ack],
                vec![Send { vector: 0 }, Send { vector: 1 }],
                vec![Send { vector: 2 }, Send { vector: 3 }],
            ],
        },
        Scenario {
            name: "mask-block",
            what: "receiver masks (UIF=0) then blocks mid-burst",
            threads: vec![
                vec![
                    SetRecvState(RunningUifClear),
                    Ack,
                    SetRecvState(Blocked),
                    Ack,
                    SetRecvState(RunningUifSet),
                ],
                vec![Send { vector: 0 }, Send { vector: 1 }],
                vec![Send { vector: 2 }],
            ],
        },
        Scenario {
            name: "migrate-coalesce",
            what: "same-vector sends coalesce across an NDST migration",
            threads: vec![
                vec![SetNdst(Some(1)), Ack, SetNdst(None), Ack],
                vec![Send { vector: 7 }, Send { vector: 7 }],
                vec![Send { vector: 7 }],
            ],
        },
        Scenario {
            name: "lossy-retry",
            what: "a watchdog re-send races the original it presumed lost (no double-deliver)",
            threads: vec![
                // The receiver drains twice: if the retry could ever be
                // delivered as a second, distinct wakeup for the same
                // preemption, DrainExactlyOnce/Conservation would trip.
                vec![Ack, Ack],
                // The original send: in the racy interleavings it is
                // still in flight when the watchdog gives up on it.
                vec![Send { vector: 5 }],
                // The watchdog: its first attempt is eaten by the
                // fabric (typed Dropped, no UPID state), then it
                // re-sends the same vector.
                vec![SendLost { vector: 5 }, Send { vector: 5 }],
            ],
        },
        Scenario {
            name: "suppress-drain-race",
            what: "SN toggles race drains and a two-sender burst",
            threads: vec![
                vec![Suppress(true), Ack, Suppress(false), Ack],
                vec![Send { vector: 1 }, Send { vector: 2 }],
                vec![Send { vector: 2 }, Send { vector: 9 }],
            ],
        },
    ]
}

/// Runs the default suite under `mode`.
pub fn check_default(mode: Mode) -> ModelReport {
    ModelReport {
        mode,
        scenarios: default_scenarios()
            .iter()
            .map(|sc| explore(sc, mode))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Multinomial coefficient: the number of interleavings of programs
    /// with the given lengths.
    fn interleavings(lens: &[usize]) -> u64 {
        let total: usize = lens.iter().sum();
        let mut num = 1u128;
        for i in 1..=total {
            num *= i as u128;
        }
        for &l in lens {
            for i in 1..=l {
                num /= i as u128;
            }
        }
        num as u64
    }

    #[test]
    fn full_mode_counts_every_interleaving() {
        for sc in default_scenarios() {
            let lens: Vec<usize> = sc.threads.iter().map(Vec::len).collect();
            let r = explore(&sc, Mode::Full);
            assert_eq!(
                r.schedules,
                interleavings(&lens),
                "{}: expected the exact multinomial count",
                sc.name
            );
            assert!(r.violations.is_empty(), "{}: {:?}", sc.name, r.violations);
        }
    }

    #[test]
    fn suite_meets_the_schedule_floor() {
        let r = check_default(Mode::Full);
        assert!(r.holds(), "{}", r.human());
        assert!(
            r.total_schedules() >= 1000,
            "only {} schedules",
            r.total_schedules()
        );
    }

    #[test]
    fn por_explores_fewer_or_equal_leaves_and_agrees() {
        let full = check_default(Mode::Full);
        let por = check_default(Mode::Por);
        assert!(por.holds() == full.holds());
        assert!(por.total_schedules() <= full.total_schedules());
        assert!(por.total_steps() <= full.total_steps());
    }

    /// A deliberately broken drain (clears ON but forgets PUIR bits
    /// posted under SN) must be caught. This mutates via the real API:
    /// we simulate the bug by draining twice and pretending both counts
    /// — i.e. the checker's own bookkeeping flags a double-credit.
    #[test]
    fn checker_catches_a_lost_vector() {
        let mut w = World::new();
        w.apply(Op::Suppress(true)).unwrap();
        w.apply(Op::Send { vector: 4 }).unwrap();
        // Model a buggy kernel that clears SN without a follow-up drain
        // and then loses the pending bit: emulate by tampering with the
        // accounting the way a lost vector would look.
        w.sent |= 1 << 5; // a send the hardware dropped entirely
        let err = w.check_state().unwrap_err();
        assert_eq!(err.0, Invariant::Conservation);
    }

    /// A fault-dropped send must be a perfect no-op: typed `Dropped`
    /// outcome, no UPID mutation, no spec divergence, no credit in the
    /// conservation ledger. This is the single-op core of the
    /// `lossy-retry` scenario.
    #[test]
    fn lost_send_changes_nothing() {
        let mut w = World::new();
        w.apply(Op::Send { vector: 7 }).unwrap();
        let before = w.fingerprint();
        let sent = w.sent;
        w.apply(Op::SendLost { vector: 7 }).unwrap();
        assert_eq!(w.fingerprint(), before);
        assert_eq!(w.sent, sent, "a dropped send must not earn drain credit");
        w.check_state().unwrap();
        w.epilogue().unwrap();
    }

    #[test]
    fn lossy_retry_scenario_is_in_the_default_suite() {
        let sc = default_scenarios();
        let lossy = sc
            .iter()
            .find(|s| s.name == "lossy-retry")
            .expect("lossy-retry scenario registered");
        assert!(lossy
            .threads
            .iter()
            .flatten()
            .any(|op| matches!(op, Op::SendLost { .. })));
        let r = explore(lossy, Mode::Full);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn epilogue_flags_unacked_residue() {
        let mut w = World::new();
        w.apply(Op::Send { vector: 3 }).unwrap();
        // Healthy world: epilogue drains and passes.
        assert!(w.clone().epilogue().is_ok());
        // A world whose drain accounting lost a bit fails.
        let mut bad = w.clone();
        bad.sent |= 1 << 8;
        assert!(bad.epilogue().is_err());
    }
}
