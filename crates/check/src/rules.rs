//! The declared rule table: every lint `lp-check` enforces, with its
//! identifier (the name used in `lp-check: allow(...)` suppressions)
//! and scope. `docs/CHECKS.md` is the prose catalogue of this table,
//! with each rule's rationale; keep the two in sync.

/// Identifies one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Nondeterminism sources banned from sim-path crates.
    Nondet,
    /// Observability pairing: emitted events must be in the documented
    /// vocabulary and every `*_observed` wrapper must keep its plain
    /// twin.
    ObsPair,
    /// `unsafe` code is confined to `lp-fibers`.
    UnsafeScope,
    /// Every `unsafe` block / `unsafe impl` carries a `// SAFETY:`
    /// justification.
    SafetyComment,
    /// No `println!`/`eprintln!` in library code.
    NoPrint,
    /// The fault injector must draw all randomness from the
    /// `lp_sim::rng` substream machinery — never seed or source an RNG
    /// of its own.
    FaultRng,
    /// Scheduling-policy modules must be pure: no wall clocks, no
    /// ad-hoc RNG, no environment reads.
    PolicyPurity,
    /// `Ordering::Relaxed` is banned outside a documented static
    /// allowlist.
    RelaxedOrdering,
    /// Cross-worker obs events must carry a worker (or slot) identity.
    WorkerId,
    /// Watchdog retry/degrade/recover state changes only through
    /// `RetryMachine::step`, never raw field writes.
    RetryTransition,
    /// No allocation in the event engine's pop/arm/cascade hot paths:
    /// container-growth tokens are banned from the wheel core outside a
    /// documented static allowlist.
    HotAlloc,
    /// The chaos adversary (plan sampling, search moves, evaluation)
    /// must draw all randomness from the frozen `streams::CHAOS`
    /// substream — never seed or source an RNG of its own.
    ChaosRng,
    /// A malformed suppression comment (missing rule or reason).
    BadAllow,
}

impl RuleId {
    /// All rules, in reporting order.
    pub const ALL: [RuleId; 13] = [
        RuleId::Nondet,
        RuleId::ObsPair,
        RuleId::UnsafeScope,
        RuleId::SafetyComment,
        RuleId::NoPrint,
        RuleId::FaultRng,
        RuleId::PolicyPurity,
        RuleId::RelaxedOrdering,
        RuleId::WorkerId,
        RuleId::RetryTransition,
        RuleId::HotAlloc,
        RuleId::ChaosRng,
        RuleId::BadAllow,
    ];

    /// The stable identifier used in diagnostics and in
    /// `// lp-check: allow(<id>, <reason>)` suppressions.
    fn id(self) -> &'static str {
        match self {
            RuleId::Nondet => "nondet",
            RuleId::ObsPair => "obs-pair",
            RuleId::UnsafeScope => "unsafe-scope",
            RuleId::SafetyComment => "safety-comment",
            RuleId::NoPrint => "no-print",
            RuleId::FaultRng => "fault-rng",
            RuleId::PolicyPurity => "policy-purity",
            RuleId::RelaxedOrdering => "relaxed-ordering",
            RuleId::WorkerId => "worker-id",
            RuleId::RetryTransition => "retry-transition",
            RuleId::HotAlloc => "hot-alloc",
            RuleId::ChaosRng => "chaos-rng",
            RuleId::BadAllow => "bad-allow",
        }
    }

    /// Parses a rule identifier as written in a suppression.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.id() == s)
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// Source tokens the [`RuleId::Nondet`] rule bans (matched against
/// comment- and string-stripped code, on identifier boundaries, so
/// both `use std::collections::HashMap` and a later bare `HashMap`
/// reference fire).
pub const NONDET_TOKENS: [&str; 9] = [
    "HashMap",
    "HashSet",
    "Instant::now",
    "SystemTime",
    "available_parallelism",
    "thread_rng",
    "thread::scope",
    "thread::sleep",
    "thread::spawn",
];

/// The static per-file allowance for [`RuleId::Nondet`]: `(file,
/// tokens, reason)` triples naming the only places a banned token may
/// appear without an inline suppression. These are *architectural*
/// allowances — the deterministic parallel runner and its default job
/// count — documented in `docs/CHECKS.md`; hits here are
/// reported as suppressed diagnostics so the audit trail stays visible.
///
/// The invariant that keeps the list sound: every entry is code that
/// parallelizes *whole runs*; no simulated state ever crosses
/// a thread, and no listed token can change output bytes (see
/// `docs/PERFORMANCE.md` for the determinism argument).
pub const NONDET_FILE_ALLOWLIST: [(&str, &[&str], &str); 2] = [
    (
        "crates/sim/src/par.rs",
        &["thread::scope"],
        "the deterministic fan-out primitive: results are slotted by submission index",
    ),
    (
        "crates/experiments/src/runner.rs",
        &["available_parallelism"],
        "default job count only — affects wall-clock, never output bytes",
    ),
];

/// The documented reason `file` may contain `token` despite
/// [`RuleId::Nondet`], if the static allowlist covers the pair.
pub fn nondet_file_allowance(file: &str, token: &str) -> Option<&'static str> {
    NONDET_FILE_ALLOWLIST
        .iter()
        .find(|(f, tokens, _)| *f == file && tokens.contains(&token))
        .map(|&(_, _, why)| why)
}

/// Crates (directory names under `crates/`) exempt from
/// [`RuleId::Nondet`]: `fibers` runs *real* threads on real stacks with
/// real deadlines by design (it is the non-simulated artifact), and
/// `check` is the host-side analysis tool, not on any simulated path.
pub const NONDET_EXEMPT_CRATES: [&str; 2] = ["fibers", "check"];

/// The only crate allowed to contain `unsafe` code
/// ([`RuleId::UnsafeScope`]).
pub const UNSAFE_ALLOWED_CRATE: &str = "fibers";

/// Crates whose sources must only construct documented events and whose
/// `*_observed` wrappers must keep their plain twin
/// ([`RuleId::ObsPair`]).
pub const OBS_PAIRED_CRATES: [&str; 3] = ["hw", "kernel", "preemptible"];

/// The file [`RuleId::FaultRng`] polices: the fault injector.
pub const FAULT_RNG_FILE: &str = "crates/sim/src/fault.rs";

/// RNG seeding/sourcing tokens banned from [`FAULT_RNG_FILE`]. The
/// injector receives its generator fully formed from
/// `lp_sim::rng::rng(master, streams::FAULTS)`; any of these tokens
/// would mean it is minting entropy or substreams of its own.
pub const FAULT_RNG_TOKENS: [&str; 5] = [
    "OsRng",
    "SeedableRng",
    "StdRng",
    "from_entropy",
    "seed_from_u64",
];

/// The directory [`RuleId::PolicyPurity`] polices: the scheduling
/// policy zoo (every module under it, including future additions).
pub const POLICY_DIR: &str = "crates/preemptible/src/policies/";

/// Nondeterminism-source tokens banned from [`POLICY_DIR`]. Broader
/// than [`NONDET_TOKENS`] (which already applies there too): a policy
/// may not even *accept* ambient entropy or environment configuration —
/// decisions must derive from hook arguments and policy state alone,
/// per the determinism rules of `docs/POLICIES.md`.
pub const POLICY_PURITY_TOKENS: [&str; 9] = [
    "Instant",
    "OsRng",
    "SeedableRng",
    "StdRng",
    "SystemTime",
    "from_entropy",
    "seed_from_u64",
    "std::env",
    "thread_rng",
];

/// The static per-file allowance for [`RuleId::RelaxedOrdering`]:
/// `(file, reason)` pairs naming the only places `Ordering::Relaxed`
/// may appear. Hits here are reported as suppressed diagnostics so the
/// audit trail stays visible; anywhere else the rule fails the build.
pub const RELAXED_ALLOWLIST: [(&str, &str); 1] = [(
    "crates/sim/src/par.rs",
    "a work-claiming counter: fetch_add's atomicity alone guarantees \
     index uniqueness, and result publication is ordered by the per-slot \
     Mutex, so no cross-thread data flows through this ordering",
)];

/// The documented reason `file` may use `Ordering::Relaxed`, if the
/// static allowlist covers it.
pub fn relaxed_file_allowance(file: &str) -> Option<&'static str> {
    RELAXED_ALLOWLIST
        .iter()
        .find(|(f, _)| *f == file)
        .map(|&(_, why)| why)
}

/// The file [`RuleId::WorkerId`] polices: the obs event vocabulary.
pub const EVENT_VOCAB_FILE: &str = "crates/sim/src/obs/event.rs";

/// `Event` variants allowed to omit a `worker`/`slot` identity because
/// they are not cross-worker: dispatcher-global admission events,
/// timer-core aggregates, and free-form markers. Everything else must
/// say which worker it concerns or the happens-before engine cannot
/// place it ([`RuleId::WorkerId`]).
pub const WORKERLESS_EVENTS: [&str; 8] = [
    "Admitted",
    "Arrival",
    "Drop",
    "IpcSampled",
    "Marker",
    "QuantumAdjusted",
    "Shed",
    "TimerPoll",
];

/// `Event` variants the tail-attribution accountant keys on
/// ([`RuleId::WorkerId`], strengthened): the phase accountant keys
/// its per-worker segments on these events, so each must carry *both*
/// a `worker` and a `fiber` identity — and must appear in the
/// `docs/TRACING.md` vocabulary — or exemplar breakdowns would charge
/// time to the wrong request. `SwitchBegin` is listed even though the
/// accountant itself reads the switch window off `TaskStart`'s
/// `switch_ns` field: the Perfetto exporter pairs it with the
/// following `task_start` to render the switch slice, which needs the
/// same identities. Extend this list together with
/// `Attribution::observe` when new phase-driving spans are added.
pub const ATTRIBUTION_EVENTS: [&str; 4] = ["TaskStart", "TaskFinish", "Preempt", "SwitchBegin"];

/// The files [`RuleId::HotAlloc`] polices: the event engine's hot
/// core — the hierarchical timing wheel and its `EventQueue` facade.
/// Everything on the pop/arm/cancel/cascade path lives in these two
/// files; the engine driver and utimer layers above them only move
/// already-allocated values.
pub const HOT_ALLOC_FILES: [&str; 2] = ["crates/sim/src/queue.rs", "crates/sim/src/wheel.rs"];

/// Allocation / container-growth tokens banned from
/// [`HOT_ALLOC_FILES`] (matched on identifier boundaries against
/// comment- and string-stripped code, like [`NONDET_TOKENS`]). The hot
/// path may only move nodes between intrusive lists, the slab
/// freelist, and the pre-sized overflow heap.
pub const HOT_ALLOC_TOKENS: [&str; 10] = [
    "BTreeMap", "Box::new", "HashMap", "Vec::new", "VecDeque", "collect", "insert", "push",
    "to_vec", "vec!",
];

/// The static per-file allowance for [`RuleId::HotAlloc`]: `(file,
/// tokens, reason)` triples naming the only growth points the hot path
/// keeps on purpose. Hits here are reported as suppressed diagnostics
/// so the audit trail stays visible; any other banned token in
/// [`HOT_ALLOC_FILES`] fails the build.
pub const HOT_ALLOC_ALLOWLIST: [(&str, &[&str], &str); 2] = [
    (
        "crates/sim/src/queue.rs",
        &["push"],
        "the facade's `push` API delegates to the wheel and grows no container of its own",
    ),
    (
        "crates/sim/src/wheel.rs",
        &["push"],
        "the two deliberate growth points: slab extension when the freelist is dry and \
         far-future filing into the overflow heap — both amortized to zero in steady \
         state by `with_capacity` pre-sizing (pinned by the million-re-arm slab test)",
    ),
];

/// The documented reason `file` may contain `token` despite
/// [`RuleId::HotAlloc`], if the static allowlist covers the pair.
pub fn hot_alloc_allowance(file: &str, token: &str) -> Option<&'static str> {
    HOT_ALLOC_ALLOWLIST
        .iter()
        .find(|(f, tokens, _)| *f == file && tokens.contains(&token))
        .map(|&(_, _, why)| why)
}

/// The crate [`RuleId::RetryTransition`] polices and the one file
/// inside it that legitimately mutates the machine's fields.
pub const RETRY_STATE_CRATE: &str = "preemptible";
/// The typed-transition-function home, exempt from the rule.
pub const RETRY_STATE_FILE: &str = "crates/preemptible/src/retry.rs";

/// Field names of the watchdog health state. A write access spelled
/// `.{field} = / += / -=` outside [`RETRY_STATE_FILE`] bypasses
/// `RetryMachine::step` and fires [`RuleId::RetryTransition`].
pub const RETRY_STATE_FIELDS: [&str; 5] = [
    "losses",
    "degraded",
    "brownout",
    "degraded_sends",
    "probe_for",
];

/// The directory [`RuleId::ChaosRng`] polices: the chaos adversary
/// (every module under it, including future additions).
pub const CHAOS_RNG_DIR: &str = "crates/chaos/src/";

/// RNG seeding/sourcing tokens banned from [`CHAOS_RNG_DIR`]. Chaos
/// plan sampling, search moves, and tie-breaking all receive their
/// generator fully formed from `lp_sim::rng::rng(master,
/// streams::CHAOS)`; any of these tokens would mean the adversary is
/// minting entropy or substreams of its own.
pub const CHAOS_RNG_TOKENS: [&str; 5] = [
    "OsRng",
    "SeedableRng",
    "StdRng",
    "from_entropy",
    "seed_from_u64",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.id()), Some(r));
        }
        assert_eq!(RuleId::parse("no-such-rule"), None);
    }

    #[test]
    fn file_allowlist_lookup() {
        assert!(nondet_file_allowance("crates/sim/src/par.rs", "thread::scope").is_some());
        // The allowance is per (file, token): other tokens in the same
        // file, and the same token elsewhere, still fire.
        assert!(nondet_file_allowance("crates/sim/src/par.rs", "Instant::now").is_none());
        assert!(nondet_file_allowance("crates/sim/src/engine.rs", "thread::scope").is_none());
        // Every allowlisted token must be one the rule actually bans,
        // and every entry must carry a reason.
        for (file, tokens, why) in NONDET_FILE_ALLOWLIST {
            assert!(!why.is_empty(), "{file} allowance has no reason");
            for t in tokens {
                assert!(NONDET_TOKENS.contains(t), "{file} allows unbanned `{t}`");
            }
        }
    }

    #[test]
    fn hot_alloc_allowlist_lookup() {
        assert!(hot_alloc_allowance("crates/sim/src/wheel.rs", "push").is_some());
        // Per (file, token): other growth tokens in the hot files, and
        // `push` anywhere else, are not covered.
        assert!(hot_alloc_allowance("crates/sim/src/wheel.rs", "Box::new").is_none());
        assert!(hot_alloc_allowance("crates/sim/src/engine.rs", "push").is_none());
        for (file, tokens, why) in HOT_ALLOC_ALLOWLIST {
            assert!(!why.is_empty(), "{file} allowance has no reason");
            assert!(
                HOT_ALLOC_FILES.contains(&file),
                "{file} is not a policed file"
            );
            for t in tokens {
                assert!(HOT_ALLOC_TOKENS.contains(t), "{file} allows unbanned `{t}`");
            }
        }
    }
}
