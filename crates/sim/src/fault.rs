//! Deterministic fault injection for the mechanism stack.
//!
//! A [`FaultPlan`] declares *what* can go wrong (per-site probabilities
//! plus an exact occurrence schedule); a [`FaultInjector`] decides
//! *when*, drawing every decision from a dedicated
//! [`rng`](crate::rng) substream ([`streams::FAULTS`]) of the
//! experiment master seed — so faulty runs are byte-reproducible and a
//! disabled plan is a true no-op (no RNG draws, no state).
//!
//! The injector is consulted at four sites, one decision method each:
//!
//! * [`ipi_at`](FaultInjector::ipi_at) — before every `SENDUIPI`
//!   (drop / delay / duplicate / stuck `SN` / stale `NDST`);
//! * [`timer_at`](FaultInjector::timer_at) — at every kernel-timer
//!   arming (missed expiry / jitter spike / spurious fire);
//! * [`signal_at`](FaultInjector::signal_at) — before every kernel
//!   signal (lost delivery / runqueue-lock contention burst);
//! * [`core_at`](FaultInjector::core_at) — at every task launch
//!   (core stall/hog window that masks preemption delivery).
//!
//! The taxonomy, the recovery protocol each fault exercises, and the
//! watchdog parameters are documented in `docs/FAULTS.md`.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::rng::{rng, streams};
use crate::time::SimDur;

/// Every injectable fault, as a flat label.
///
/// The `u8` representation is the wire value of the `kind` field in
/// `fault_injected` events (see `docs/TRACING.md`), so the discriminants
/// are frozen: new kinds append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum FaultKind {
    /// `SENDUIPI` silently dropped by the fabric; no UPID state changes.
    IpiDrop = 0,
    /// `SENDUIPI` delivery delayed by the plan's `ipi_delay_ns`.
    IpiDelay = 1,
    /// `SENDUIPI` issued twice; the second send must coalesce.
    IpiDuplicate = 2,
    /// The receiver's `SN` suppress bit is stuck set when the send
    /// arrives; notification suppressed until a repair clears it.
    StuckSn = 3,
    /// The UPID's `NDST` destination is stale: the vector posts but the
    /// notification is misdirected and never lands.
    StaleNdst = 4,
    /// The kernel timer never fires for this arming.
    TimerMiss = 5,
    /// The kernel timer fires late by the plan's `timer_spike_ns`.
    TimerSpike = 6,
    /// The kernel timer fires one extra, spurious time.
    TimerSpurious = 7,
    /// The kernel signal is lost before the handler runs.
    SignalLost = 8,
    /// A runqueue-lock contention burst: delivery sees the plan's
    /// `contention_waiters` extra waiters ahead of it.
    SignalContention = 9,
    /// The core hogs (stalls) for the plan's `core_hog_ns`, masking
    /// preemption delivery for the window.
    CoreHog = 10,
}

impl FaultKind {
    /// All kinds, in wire order.
    pub const ALL: [FaultKind; 11] = [
        FaultKind::IpiDrop,
        FaultKind::IpiDelay,
        FaultKind::IpiDuplicate,
        FaultKind::StuckSn,
        FaultKind::StaleNdst,
        FaultKind::TimerMiss,
        FaultKind::TimerSpike,
        FaultKind::TimerSpurious,
        FaultKind::SignalLost,
        FaultKind::SignalContention,
        FaultKind::CoreHog,
    ];

    /// The injection site this kind belongs to.
    const fn site(self) -> Site {
        match self {
            FaultKind::IpiDrop
            | FaultKind::IpiDelay
            | FaultKind::IpiDuplicate
            | FaultKind::StuckSn
            | FaultKind::StaleNdst => Site::Ipi,
            FaultKind::TimerMiss | FaultKind::TimerSpike | FaultKind::TimerSpurious => Site::Timer,
            FaultKind::SignalLost | FaultKind::SignalContention => Site::Signal,
            FaultKind::CoreHog => Site::Core,
        }
    }
}

/// One of the four injection sites the runtime consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `UintrDomain::senduipi` (one decision per send attempt).
    Ipi,
    /// `KernelTimer` arming (one decision per armed expiry).
    Timer,
    /// `SignalPath` delivery (one decision per signal send).
    Signal,
    /// Worker-core task launch (one decision per started slice).
    Core,
}

impl Site {
    /// Every site, in the frozen index order of the injector's internal
    /// arrays.
    pub const ALL: [Site; 4] = [Site::Ipi, Site::Timer, Site::Signal, Site::Core];
}

/// A time-bounded rate boost: while `from_ns <= now < until_ns`, `rate`
/// is added to `kind`'s base rate. Windows are how `lp-chaos` lowers
/// sequenced/overlaid fault storms onto the injector — a burst is a
/// window, a wave is several.
///
/// A plan with no windows samples exactly like one built before windows
/// existed (same RNG draws at every decision), so the combinator layer
/// is free for everyone who does not use it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// What to inject while the window is open.
    pub kind: FaultKind,
    /// Extra per-decision probability added inside the window.
    pub rate: f64,
    /// Window start (inclusive), nanoseconds of sim time.
    pub from_ns: u64,
    /// Window end (exclusive), nanoseconds of sim time.
    pub until_ns: u64,
}

impl FaultWindow {
    /// Whether the window is open at `now_ns`.
    fn open_at(&self, now_ns: u64) -> bool {
        self.from_ns <= now_ns && now_ns < self.until_ns
    }
}

/// An exact, deterministic injection: fire `kind` at the site's
/// `occurrence`-th decision (0-based).
///
/// Schedule entries take precedence over the probabilistic rates, so a
/// test can say "drop exactly the third IPI" without touching any rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// What to inject.
    pub kind: FaultKind,
    /// Which decision at the kind's site (0-based occurrence index).
    pub occurrence: u64,
}

/// Declares which faults a run may see, and how hard.
///
/// All rates are per-decision probabilities in `[0, 1]`; magnitudes are
/// shared per site. The default plan is fully disabled: every rate is
/// `0.0` and the schedule is empty, and [`FaultPlan::enabled`] is
/// `false` — components must not even consult the injector then, so a
/// healthy run is byte-identical to one built before faults existed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// P(drop) per `SENDUIPI`.
    pub ipi_drop: f64,
    /// P(delayed delivery) per `SENDUIPI`.
    pub ipi_delay: f64,
    /// P(duplicated send) per `SENDUIPI`.
    pub ipi_duplicate: f64,
    /// P(stuck `SN` suppress bit) per `SENDUIPI`.
    pub ipi_stuck_sn: f64,
    /// P(stale `NDST` misdirection) per `SENDUIPI`.
    pub ipi_stale_ndst: f64,
    /// P(missed expiry) per kernel-timer arming.
    pub timer_miss: f64,
    /// P(jitter spike) per kernel-timer arming.
    pub timer_spike: f64,
    /// P(spurious extra fire) per kernel-timer arming.
    pub timer_spurious: f64,
    /// P(lost signal) per kernel-signal delivery.
    pub signal_lost: f64,
    /// P(contention burst) per kernel-signal delivery.
    pub signal_contention: f64,
    /// P(hog window) per started task slice.
    pub core_hog: f64,
    /// Extra delivery latency of an [`FaultKind::IpiDelay`].
    pub ipi_delay_ns: u64,
    /// Extra expiry latency of a [`FaultKind::TimerSpike`].
    pub timer_spike_ns: u64,
    /// Length of a [`FaultKind::CoreHog`] stall window.
    pub core_hog_ns: u64,
    /// Extra waiters a [`FaultKind::SignalContention`] burst simulates.
    pub contention_waiters: u32,
    /// Exact occurrence-indexed injections (checked before the rates).
    pub schedule: Vec<ScheduledFault>,
    /// Time-bounded rate boosts, added to the base rates while open.
    pub windows: Vec<FaultWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            ipi_drop: 0.0,
            ipi_delay: 0.0,
            ipi_duplicate: 0.0,
            ipi_stuck_sn: 0.0,
            ipi_stale_ndst: 0.0,
            timer_miss: 0.0,
            timer_spike: 0.0,
            timer_spurious: 0.0,
            signal_lost: 0.0,
            signal_contention: 0.0,
            core_hog: 0.0,
            ipi_delay_ns: 5_000,
            timer_spike_ns: 50_000,
            core_hog_ns: 200_000,
            contention_waiters: 8,
            schedule: Vec::new(),
            windows: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// The fully healthy plan (all rates zero, empty schedule).
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// A plan injecting only `kind`, probabilistically at `rate`.
    pub fn only(kind: FaultKind, rate: f64) -> Self {
        let mut p = FaultPlan::default();
        *p.rate_mut(kind) = rate;
        p
    }

    /// A plan injecting only `kind`, exactly once, at the site's
    /// `occurrence`-th decision.
    pub fn once(kind: FaultKind, occurrence: u64) -> Self {
        let mut p = FaultPlan::default();
        p.schedule.push(ScheduledFault { kind, occurrence });
        p
    }

    /// A plan injecting only `kind`, at `rate`, inside
    /// `[from_ns, until_ns)` of sim time.
    #[cfg(test)]
    fn windowed(kind: FaultKind, rate: f64, from_ns: u64, until_ns: u64) -> Self {
        let mut p = FaultPlan::default();
        p.windows.push(FaultWindow {
            kind,
            rate,
            from_ns,
            until_ns,
        });
        p
    }

    /// Whether this plan can inject anything at all. Disabled plans must
    /// never reach a [`FaultInjector`] decision (callers gate on this),
    /// which is what keeps healthy runs byte-identical.
    ///
    /// This is exactly "some site is armed" — the same per-site
    /// predicate ([`site_armed`](FaultPlan::site_armed)) the injector
    /// gates its hot path on, so `enabled()` and the injector can never
    /// disagree about a plan. In particular a schedule entry whose rate
    /// never matters (`once(kind, 0)`) arms its site, while a rate-0
    /// plan (`only(kind, 0.0)`) arms nothing.
    pub fn enabled(&self) -> bool {
        Site::ALL.iter().any(|&s| self.site_armed(s))
    }

    /// Sum of the base (always-on) rates of `site`'s kinds.
    fn site_rate_total(&self, site: Site) -> f64 {
        Self::site_kinds(site).iter().map(|&k| self.rate(k)).sum()
    }

    /// Whether the schedule mentions `site`.
    fn site_scheduled(&self, site: Site) -> bool {
        self.schedule.iter().any(|s| s.kind.site() == site)
    }

    /// Whether any window with a positive rate targets `site`.
    fn site_windowed(&self, site: Site) -> bool {
        self.windows
            .iter()
            .any(|w| w.kind.site() == site && w.rate > 0.0 && w.from_ns < w.until_ns)
    }

    /// Whether `site` can ever inject: a schedule entry, a positive base
    /// rate, or an open-able window. The single source of truth shared
    /// by [`enabled`](FaultPlan::enabled) and the injector's gating.
    pub fn site_armed(&self, site: Site) -> bool {
        self.site_scheduled(site) || self.site_rate_total(site) > 0.0 || self.site_windowed(site)
    }

    /// The probabilistic rate configured for `kind`.
    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::IpiDrop => self.ipi_drop,
            FaultKind::IpiDelay => self.ipi_delay,
            FaultKind::IpiDuplicate => self.ipi_duplicate,
            FaultKind::StuckSn => self.ipi_stuck_sn,
            FaultKind::StaleNdst => self.ipi_stale_ndst,
            FaultKind::TimerMiss => self.timer_miss,
            FaultKind::TimerSpike => self.timer_spike,
            FaultKind::TimerSpurious => self.timer_spurious,
            FaultKind::SignalLost => self.signal_lost,
            FaultKind::SignalContention => self.signal_contention,
            FaultKind::CoreHog => self.core_hog,
        }
    }

    fn rate_mut(&mut self, kind: FaultKind) -> &mut f64 {
        match kind {
            FaultKind::IpiDrop => &mut self.ipi_drop,
            FaultKind::IpiDelay => &mut self.ipi_delay,
            FaultKind::IpiDuplicate => &mut self.ipi_duplicate,
            FaultKind::StuckSn => &mut self.ipi_stuck_sn,
            FaultKind::StaleNdst => &mut self.ipi_stale_ndst,
            FaultKind::TimerMiss => &mut self.timer_miss,
            FaultKind::TimerSpike => &mut self.timer_spike,
            FaultKind::TimerSpurious => &mut self.timer_spurious,
            FaultKind::SignalLost => &mut self.signal_lost,
            FaultKind::SignalContention => &mut self.signal_contention,
            FaultKind::CoreHog => &mut self.core_hog,
        }
    }

    fn site_kinds(site: Site) -> &'static [FaultKind] {
        match site {
            Site::Ipi => &[
                FaultKind::IpiDrop,
                FaultKind::IpiDelay,
                FaultKind::IpiDuplicate,
                FaultKind::StuckSn,
                FaultKind::StaleNdst,
            ],
            Site::Timer => &[
                FaultKind::TimerMiss,
                FaultKind::TimerSpike,
                FaultKind::TimerSpurious,
            ],
            Site::Signal => &[FaultKind::SignalLost, FaultKind::SignalContention],
            Site::Core => &[FaultKind::CoreHog],
        }
    }
}

/// The decision at an IPI send site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpiFault {
    /// Do not deliver; no UPID state changes.
    Drop,
    /// Deliver, but this much later.
    Delay(SimDur),
    /// Send twice back-to-back.
    Duplicate,
    /// Force the receiver's `SN` bit set before the send.
    StuckSn,
    /// Post the vector but misdirect the notification.
    StaleNdst,
}

impl IpiFault {
    /// The flat label of this decision.
    pub const fn kind(self) -> FaultKind {
        match self {
            IpiFault::Drop => FaultKind::IpiDrop,
            IpiFault::Delay(_) => FaultKind::IpiDelay,
            IpiFault::Duplicate => FaultKind::IpiDuplicate,
            IpiFault::StuckSn => FaultKind::StuckSn,
            IpiFault::StaleNdst => FaultKind::StaleNdst,
        }
    }
}

/// The decision at a kernel-timer arming site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerFault {
    /// The expiry never fires.
    Miss,
    /// The expiry fires this much later.
    JitterSpike(SimDur),
    /// One extra, spurious expiry fires too.
    Spurious,
}

impl TimerFault {
    /// The flat label of this decision.
    pub const fn kind(self) -> FaultKind {
        match self {
            TimerFault::Miss => FaultKind::TimerMiss,
            TimerFault::JitterSpike(_) => FaultKind::TimerSpike,
            TimerFault::Spurious => FaultKind::TimerSpurious,
        }
    }
}

/// The decision at a kernel-signal delivery site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalFault {
    /// The handler never runs.
    Lost,
    /// Delivery proceeds but sees this many extra lock waiters.
    ContentionBurst(u32),
}

impl SignalFault {
    /// The flat label of this decision.
    pub const fn kind(self) -> FaultKind {
        match self {
            SignalFault::Lost => FaultKind::SignalLost,
            SignalFault::ContentionBurst(_) => FaultKind::SignalContention,
        }
    }
}

/// The decision at a task-launch (core) site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreFault {
    /// The core stalls for this window, masking preemption delivery.
    Hog(SimDur),
}

impl CoreFault {
    /// The flat label of this decision.
    pub const fn kind(self) -> FaultKind {
        match self {
            CoreFault::Hog(_) => FaultKind::CoreHog,
        }
    }
}

/// Samples a [`FaultPlan`] deterministically.
///
/// All randomness comes from the [`streams::FAULTS`] substream of the
/// master seed, so two runs with the same `(seed, plan)` inject the
/// same faults at the same decisions. Sites whose rates are all zero
/// (and have no schedule entry at the current occurrence) never draw
/// from the RNG at all, so a rate-0.0 plan samples identically to no
/// plan.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SmallRng,
    ipi_n: u64,
    timer_n: u64,
    signal_n: u64,
    core_n: u64,
    /// Per-site sum of rates, precomputed so the per-decision hot path
    /// (consulted on every send in a faulty run) is a load and a
    /// compare instead of a match-dispatched re-sum.
    totals: [f64; 4],
    /// Per-site "the schedule mentions this site" flags; sites with no
    /// entry skip the schedule scan entirely.
    scheduled: [bool; 4],
    /// Per-site "the plan has windows for this site" flags; the common
    /// windowless plan never touches the window list on a decision.
    windowed: [bool; 4],
}

const fn site_index(site: Site) -> usize {
    match site {
        Site::Ipi => 0,
        Site::Timer => 1,
        Site::Signal => 2,
        Site::Core => 3,
    }
}

impl FaultInjector {
    /// Builds an injector for `plan`, seeded from the experiment
    /// `master` seed via the frozen [`streams::FAULTS`] substream.
    pub fn new(plan: FaultPlan, master: u64) -> Self {
        let mut totals = [0.0f64; 4];
        let mut scheduled = [false; 4];
        let mut windowed = [false; 4];
        for (i, &s) in Site::ALL.iter().enumerate() {
            totals[i] = plan.site_rate_total(s);
            scheduled[i] = plan.site_scheduled(s);
            windowed[i] = plan.site_windowed(s);
        }
        FaultInjector {
            plan,
            rng: rng(master, streams::FAULTS),
            ipi_n: 0,
            timer_n: 0,
            signal_n: 0,
            core_n: 0,
            totals,
            scheduled,
            windowed,
        }
    }

    /// Decide the fate of the next `SENDUIPI` at sim time `now_ns`.
    pub fn ipi_at(&mut self, now_ns: u64) -> Option<IpiFault> {
        let kind = self.decide(Site::Ipi, now_ns)?;
        Some(match kind {
            FaultKind::IpiDrop => IpiFault::Drop,
            FaultKind::IpiDelay => IpiFault::Delay(SimDur::nanos(self.plan.ipi_delay_ns)),
            FaultKind::IpiDuplicate => IpiFault::Duplicate,
            FaultKind::StuckSn => IpiFault::StuckSn,
            FaultKind::StaleNdst => IpiFault::StaleNdst,
            _ => unreachable!("non-IPI kind decided at the IPI site"),
        })
    }

    /// Decide the fate of the next kernel-timer arming at `now_ns`.
    pub fn timer_at(&mut self, now_ns: u64) -> Option<TimerFault> {
        let kind = self.decide(Site::Timer, now_ns)?;
        Some(match kind {
            FaultKind::TimerMiss => TimerFault::Miss,
            FaultKind::TimerSpike => {
                TimerFault::JitterSpike(SimDur::nanos(self.plan.timer_spike_ns))
            }
            FaultKind::TimerSpurious => TimerFault::Spurious,
            _ => unreachable!("non-timer kind decided at the timer site"),
        })
    }

    /// Decide the fate of the next kernel-signal delivery at `now_ns`.
    pub fn signal_at(&mut self, now_ns: u64) -> Option<SignalFault> {
        let kind = self.decide(Site::Signal, now_ns)?;
        Some(match kind {
            FaultKind::SignalLost => SignalFault::Lost,
            FaultKind::SignalContention => {
                SignalFault::ContentionBurst(self.plan.contention_waiters)
            }
            _ => unreachable!("non-signal kind decided at the signal site"),
        })
    }

    /// Decide the fate of the next task launch at `now_ns`.
    pub fn core_at(&mut self, now_ns: u64) -> Option<CoreFault> {
        let kind = self.decide(Site::Core, now_ns)?;
        Some(match kind {
            FaultKind::CoreHog => CoreFault::Hog(SimDur::nanos(self.plan.core_hog_ns)),
            _ => unreachable!("non-core kind decided at the core site"),
        })
    }

    /// One decision at `site`: schedule entries first (exact occurrence
    /// match wins, earliest-declared entry breaks ties), then one
    /// uniform draw partitioned by the site's cumulative rates (base
    /// rates plus any windows open at `now_ns`) — a single draw per
    /// decision keeps the stream consumption pattern independent of
    /// which kinds are enabled.
    fn decide(&mut self, site: Site, now_ns: u64) -> Option<FaultKind> {
        let idx = site_index(site);
        let counter = match site {
            Site::Ipi => &mut self.ipi_n,
            Site::Timer => &mut self.timer_n,
            Site::Signal => &mut self.signal_n,
            Site::Core => &mut self.core_n,
        };
        let n = *counter;
        *counter += 1;
        // The schedule scan only exists to match schedule entries; a
        // site the schedule never mentions skips it.
        if self.scheduled[idx] {
            if let Some(s) = self
                .plan
                .schedule
                .iter()
                .find(|s| s.kind.site() == site && s.occurrence == n)
            {
                return Some(s.kind);
            }
        }
        // Windows boost the site total while open; the common
        // windowless plan pays nothing here.
        let boost = if self.windowed[idx] {
            self.plan
                .windows
                .iter()
                .filter(|w| w.kind.site() == site && w.open_at(now_ns))
                .map(|w| w.rate)
                .sum()
        } else {
            0.0
        };
        if self.totals[idx] + boost <= 0.0 {
            return None; // no draw: rate-0 sites are true no-ops
        }
        let kinds = FaultPlan::site_kinds(site);
        let x: f64 = self.rng.gen();
        let mut acc = 0.0;
        for &k in kinds {
            acc += self.plan.rate(k);
            if boost > 0.0 {
                acc += self
                    .plan
                    .windows
                    .iter()
                    .filter(|w| w.kind == k && w.open_at(now_ns))
                    .map(|w| w.rate)
                    .sum::<f64>();
            }
            if x < acc {
                return Some(k);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for (i, &k) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(k as u8, i as u8, "{k:?} code drifted");
        }
    }

    #[test]
    fn default_plan_is_disabled() {
        let p = FaultPlan::default();
        assert!(!p.enabled());
        assert_eq!(p, FaultPlan::disabled());
        assert!(FaultPlan::only(FaultKind::IpiDrop, 0.5).enabled());
        assert!(FaultPlan::once(FaultKind::TimerMiss, 3).enabled());
        assert!(!FaultPlan::only(FaultKind::IpiDrop, 0.0).enabled());
    }

    #[test]
    fn disabled_plan_never_injects() {
        let mut inj = FaultInjector::new(FaultPlan::disabled(), 42);
        for _ in 0..100 {
            assert_eq!(inj.ipi_at(0), None);
            assert_eq!(inj.timer_at(0), None);
            assert_eq!(inj.signal_at(0), None);
            assert_eq!(inj.core_at(0), None);
        }
    }

    #[test]
    fn injection_is_deterministic() {
        let plan = {
            let mut p = FaultPlan::only(FaultKind::IpiDrop, 0.3);
            p.timer_miss = 0.2;
            p.signal_lost = 0.1;
            p.core_hog = 0.25;
            p
        };
        let mut a = FaultInjector::new(plan.clone(), 7);
        let mut b = FaultInjector::new(plan, 7);
        for _ in 0..200 {
            assert_eq!(a.ipi_at(0), b.ipi_at(0));
            assert_eq!(a.timer_at(0), b.timer_at(0));
            assert_eq!(a.signal_at(0), b.signal_at(0));
            assert_eq!(a.core_at(0), b.core_at(0));
        }
    }

    #[test]
    fn schedule_fires_exactly_once_at_its_occurrence() {
        let mut inj = FaultInjector::new(FaultPlan::once(FaultKind::StuckSn, 2), 1);
        assert_eq!(inj.ipi_at(0), None);
        assert_eq!(inj.ipi_at(0), None);
        assert_eq!(inj.ipi_at(0), Some(IpiFault::StuckSn));
        for _ in 0..32 {
            assert_eq!(inj.ipi_at(0), None);
        }
        // Scheduling at the IPI site does not disturb the others.
        let mut inj = FaultInjector::new(FaultPlan::once(FaultKind::IpiDrop, 0), 1);
        assert_eq!(inj.timer_at(0), None);
        assert_eq!(inj.signal_at(0), None);
        assert_eq!(inj.ipi_at(0), Some(IpiFault::Drop));
    }

    #[test]
    fn rate_one_always_fires_and_carries_magnitudes() {
        let mut plan = FaultPlan::only(FaultKind::IpiDelay, 1.0);
        plan.ipi_delay_ns = 777;
        plan.timer_spike = 1.0;
        plan.timer_spike_ns = 888;
        plan.signal_contention = 1.0;
        plan.contention_waiters = 9;
        plan.core_hog = 1.0;
        plan.core_hog_ns = 999;
        let mut inj = FaultInjector::new(plan, 3);
        assert_eq!(inj.ipi_at(0), Some(IpiFault::Delay(SimDur::nanos(777))));
        assert_eq!(
            inj.timer_at(0),
            Some(TimerFault::JitterSpike(SimDur::nanos(888)))
        );
        assert_eq!(inj.signal_at(0), Some(SignalFault::ContentionBurst(9)));
        assert_eq!(inj.core_at(0), Some(CoreFault::Hog(SimDur::nanos(999))));
    }

    #[test]
    fn probabilistic_rate_hits_near_expectation() {
        let mut inj = FaultInjector::new(FaultPlan::only(FaultKind::SignalLost, 0.5), 11);
        let hits = (0..2_000).filter(|_| inj.signal_at(0).is_some()).count();
        assert!((800..1_200).contains(&hits), "{hits} hits at rate 0.5");
    }

    #[test]
    fn enabled_agrees_with_the_injector_gate() {
        // Regression (issue 9): `once(kind, 0)` must report enabled —
        // its schedule entry fires at the site's very first decision —
        // while a rate-0 plan stays disabled. Both answers now come
        // from the same per-site `site_armed` predicate the injector
        // gates on, so they cannot drift apart again.
        let armed = FaultPlan::once(FaultKind::IpiDrop, 0);
        assert!(armed.enabled());
        assert!(armed.site_armed(Site::Ipi));
        let mut inj = FaultInjector::new(armed, 9);
        assert_eq!(
            inj.ipi_at(0),
            Some(IpiFault::Drop),
            "occurrence 0 is the first decision"
        );

        let dead = FaultPlan::only(FaultKind::IpiDrop, 0.0);
        assert!(!dead.enabled());
        assert!(Site::ALL.iter().all(|&s| !dead.site_armed(s)));

        // A zero-rate or inverted window arms nothing either.
        assert!(!FaultPlan::windowed(FaultKind::CoreHog, 0.0, 0, 1_000).enabled());
        assert!(!FaultPlan::windowed(FaultKind::CoreHog, 0.5, 1_000, 1_000).enabled());
        assert!(FaultPlan::windowed(FaultKind::CoreHog, 0.5, 0, 1_000).enabled());
    }

    #[test]
    fn windows_fire_only_while_open() {
        let plan = FaultPlan::windowed(FaultKind::SignalLost, 1.0, 1_000, 2_000);
        let mut inj = FaultInjector::new(plan, 17);
        assert_eq!(inj.signal_at(999), None);
        assert_eq!(inj.signal_at(1_000), Some(SignalFault::Lost));
        assert_eq!(inj.signal_at(1_999), Some(SignalFault::Lost));
        assert_eq!(inj.signal_at(2_000), None, "until_ns is exclusive");
        // Other sites are untouched by the window.
        assert_eq!(inj.ipi_at(1_500), None);
    }

    #[test]
    fn windowless_plans_sample_identically_through_the_timed_api() {
        // The timed decision path must be a strict extension: with no
        // windows, `*_at(now)` consumes the RNG exactly like the
        // original untimed methods, whatever `now` is.
        let plan = {
            let mut p = FaultPlan::only(FaultKind::IpiDrop, 0.3);
            p.signal_lost = 0.4;
            p
        };
        let mut a = FaultInjector::new(plan.clone(), 23);
        let mut b = FaultInjector::new(plan, 23);
        for i in 0..200u64 {
            assert_eq!(a.ipi_at(0), b.ipi_at(i * 1_000));
            assert_eq!(a.signal_at(0), b.signal_at(i * 7_777));
        }
    }

    #[test]
    fn decision_kinds_match_their_site() {
        let mut plan = FaultPlan::default();
        for k in FaultKind::ALL {
            *plan.rate_mut(k) = 1.0 / 8.0;
        }
        let mut inj = FaultInjector::new(plan, 5);
        for _ in 0..200 {
            if let Some(f) = inj.ipi_at(0) {
                assert_eq!(f.kind().site(), Site::Ipi);
            }
            if let Some(f) = inj.timer_at(0) {
                assert_eq!(f.kind().site(), Site::Timer);
            }
            if let Some(f) = inj.signal_at(0) {
                assert_eq!(f.kind().site(), Site::Signal);
            }
            if let Some(f) = inj.core_at(0) {
                assert_eq!(f.kind().site(), Site::Core);
            }
        }
    }
}
