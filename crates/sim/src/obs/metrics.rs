//! The always-on counter/gauge registry.
//!
//! Counters are a fixed `u64` array indexed by [`Counter`]; bumping one
//! is an array add, so they stay enabled even when the event ring is
//! off. [`Metrics::account`] is the single source of truth for how an
//! [`Event`] maps onto counters — the event stream and the counters can
//! never disagree.

use super::event::Event;

/// Monotonic counters. Most count events; the `Core*Ns` family
/// accumulates nanoseconds charged to each core time class (the
/// metrics-side view of `lp-hw`'s `CoreClock`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names are the documentation; see docs/TRACING.md
pub enum Counter {
    UipiSent,
    UipiDelivered,
    UipiCoalesced,
    UipiPended,
    UipiSuppressed,
    KernelAssistWakes,
    SignalsSent,
    KtimersArmed,
    KtimersFired,
    IpcSamples,
    DeadlinesArmed,
    DeadlinesDisarmed,
    TimerPolls,
    DeadlinesFired,
    Arrivals,
    Drops,
    TaskStarts,
    TaskResumes,
    TaskFinishes,
    Preemptions,
    SpuriousPreemptions,
    QuantumAdjustments,
    Markers,
    CoreWorkNs,
    CorePreemptionNs,
    CoreDispatchNs,
    CoreTimerPollNs,
    CoreKernelNs,
    FaultsInjected,
    PreemptRetries,
    MechDegradations,
    MechRecoveries,
    PolicyDispatches,
    SlicesGranted,
    PreemptsIssued,
    PreemptsLanded,
    MechBrownouts,
    Sheds,
    Admissions,
    FiberSwitches,
}

impl Counter {
    /// Every counter, in snapshot order.
    pub const ALL: [Counter; 40] = [
        Counter::UipiSent,
        Counter::UipiDelivered,
        Counter::UipiCoalesced,
        Counter::UipiPended,
        Counter::UipiSuppressed,
        Counter::KernelAssistWakes,
        Counter::SignalsSent,
        Counter::KtimersArmed,
        Counter::KtimersFired,
        Counter::IpcSamples,
        Counter::DeadlinesArmed,
        Counter::DeadlinesDisarmed,
        Counter::TimerPolls,
        Counter::DeadlinesFired,
        Counter::Arrivals,
        Counter::Drops,
        Counter::TaskStarts,
        Counter::TaskResumes,
        Counter::TaskFinishes,
        Counter::Preemptions,
        Counter::SpuriousPreemptions,
        Counter::QuantumAdjustments,
        Counter::Markers,
        Counter::CoreWorkNs,
        Counter::CorePreemptionNs,
        Counter::CoreDispatchNs,
        Counter::CoreTimerPollNs,
        Counter::CoreKernelNs,
        Counter::FaultsInjected,
        Counter::PreemptRetries,
        Counter::MechDegradations,
        Counter::MechRecoveries,
        Counter::PolicyDispatches,
        Counter::SlicesGranted,
        // New counters append here: the snapshot JSONL key order is
        // pinned by tests (and downstream diffs) to the order above.
        Counter::PreemptsIssued,
        Counter::PreemptsLanded,
        Counter::MechBrownouts,
        Counter::Sheds,
        Counter::Admissions,
        Counter::FiberSwitches,
    ];

    /// Stable snake_case name (the JSONL/snapshot key).
    const fn name(self) -> &'static str {
        match self {
            Counter::UipiSent => "uipi_sent",
            Counter::UipiDelivered => "uipi_delivered",
            Counter::UipiCoalesced => "uipi_coalesced",
            Counter::UipiPended => "uipi_pended",
            Counter::UipiSuppressed => "uipi_suppressed",
            Counter::KernelAssistWakes => "kernel_assist_wakes",
            Counter::SignalsSent => "signals_sent",
            Counter::KtimersArmed => "ktimers_armed",
            Counter::KtimersFired => "ktimers_fired",
            Counter::IpcSamples => "ipc_samples",
            Counter::DeadlinesArmed => "deadlines_armed",
            Counter::DeadlinesDisarmed => "deadlines_disarmed",
            Counter::TimerPolls => "timer_polls",
            Counter::DeadlinesFired => "deadlines_fired",
            Counter::Arrivals => "arrivals",
            Counter::Drops => "drops",
            Counter::TaskStarts => "task_starts",
            Counter::TaskResumes => "task_resumes",
            Counter::TaskFinishes => "task_finishes",
            Counter::Preemptions => "preemptions",
            Counter::SpuriousPreemptions => "spurious_preemptions",
            Counter::QuantumAdjustments => "quantum_adjustments",
            Counter::Markers => "markers",
            Counter::CoreWorkNs => "core_work_ns",
            Counter::CorePreemptionNs => "core_preemption_ns",
            Counter::CoreDispatchNs => "core_dispatch_ns",
            Counter::CoreTimerPollNs => "core_timer_poll_ns",
            Counter::CoreKernelNs => "core_kernel_ns",
            Counter::FaultsInjected => "faults_injected",
            Counter::PreemptRetries => "preempt_retries",
            Counter::MechDegradations => "mech_degradations",
            Counter::MechRecoveries => "mech_recoveries",
            Counter::PolicyDispatches => "policy_dispatches",
            Counter::SlicesGranted => "slices_granted",
            Counter::PreemptsIssued => "preempts_issued",
            Counter::PreemptsLanded => "preempts_landed",
            Counter::MechBrownouts => "mech_brownouts",
            Counter::Sheds => "sheds",
            Counter::Admissions => "admissions",
            Counter::FiberSwitches => "fiber_switches",
        }
    }
}

/// Point-in-time gauges (last-write-wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Current global time quantum, nanoseconds.
    QuantumNs,
    /// Timer-core package power draw, watts (§V-B).
    TimerPowerW,
}

impl Gauge {
    /// Every gauge, in snapshot order.
    pub const ALL: [Gauge; 2] = [Gauge::QuantumNs, Gauge::TimerPowerW];

    /// Stable snake_case name.
    const fn name(self) -> &'static str {
        match self {
            Gauge::QuantumNs => "quantum_ns",
            Gauge::TimerPowerW => "timer_power_w",
        }
    }
}

/// The registry itself: one `u64` per [`Counter`], one `f64` per
/// [`Gauge`]. Plain arrays — no allocation, ever.
#[derive(Debug, Clone)]
pub struct Metrics {
    counters: [u64; Counter::ALL.len()],
    gauges: [f64; Gauge::ALL.len()],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: [0; Counter::ALL.len()],
            gauges: [0.0; Gauge::ALL.len()],
        }
    }
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `c` by one.
    #[inline]
    fn bump(&mut self, c: Counter) {
        self.counters[c as usize] += 1;
    }

    /// Adds `n` to `c` (saturating — a counter never wraps).
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        let slot = &mut self.counters[c as usize];
        *slot = slot.saturating_add(n);
    }

    /// Current value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Sets gauge `g`.
    #[inline]
    pub fn set_gauge(&mut self, g: Gauge, v: f64) {
        self.gauges[g as usize] = v;
    }

    /// Current value of gauge `g`.
    pub fn gauge(&self, g: Gauge) -> f64 {
        self.gauges[g as usize]
    }

    /// Applies an event's counter side effects. Called by
    /// [`Observer::emit`](super::Observer::emit) for every event, so
    /// counters stay consistent with the event stream by construction.
    #[inline]
    pub fn account(&mut self, ev: &Event) {
        match *ev {
            Event::UipiSent { .. } => self.bump(Counter::UipiSent),
            Event::UipiDelivered { coalesced, .. } => {
                self.bump(Counter::UipiDelivered);
                if coalesced {
                    self.bump(Counter::UipiCoalesced);
                }
            }
            Event::UipiPended { .. } => self.bump(Counter::UipiPended),
            Event::UipiSuppressed { .. } => self.bump(Counter::UipiSuppressed),
            Event::KernelAssistWake { .. } => self.bump(Counter::KernelAssistWakes),
            Event::SignalSent { .. } => self.bump(Counter::SignalsSent),
            Event::KtimerArmed { .. } => self.bump(Counter::KtimersArmed),
            Event::KtimerFired { .. } => self.bump(Counter::KtimersFired),
            Event::IpcSampled { .. } => self.bump(Counter::IpcSamples),
            Event::DeadlineArmed { .. } => self.bump(Counter::DeadlinesArmed),
            Event::DeadlineDisarmed { .. } => self.bump(Counter::DeadlinesDisarmed),
            Event::TimerPoll { expired } => {
                self.bump(Counter::TimerPolls);
                self.add(Counter::DeadlinesFired, expired as u64);
            }
            Event::Arrival { .. } => self.bump(Counter::Arrivals),
            Event::Drop { .. } => self.bump(Counter::Drops),
            Event::TaskStart { resumed, .. } => {
                self.bump(Counter::TaskStarts);
                if resumed {
                    self.bump(Counter::TaskResumes);
                }
            }
            Event::TaskFinish { .. } => self.bump(Counter::TaskFinishes),
            Event::Preempt { .. } => self.bump(Counter::Preemptions),
            Event::SpuriousPreempt { .. } => self.bump(Counter::SpuriousPreemptions),
            Event::PolicyDispatch { .. } => self.bump(Counter::PolicyDispatches),
            Event::SliceGranted { .. } => self.bump(Counter::SlicesGranted),
            Event::QuantumAdjusted { new_ns, .. } => {
                self.bump(Counter::QuantumAdjustments);
                self.set_gauge(Gauge::QuantumNs, new_ns as f64);
            }
            Event::Marker { .. } => self.bump(Counter::Markers),
            Event::FaultInjected { .. } => self.bump(Counter::FaultsInjected),
            Event::PreemptIssued { .. } => self.bump(Counter::PreemptsIssued),
            Event::PreemptLanded { .. } => self.bump(Counter::PreemptsLanded),
            Event::PreemptRetry { .. } => self.bump(Counter::PreemptRetries),
            Event::MechDegraded { .. } => self.bump(Counter::MechDegradations),
            Event::MechRecovered { .. } => self.bump(Counter::MechRecoveries),
            Event::MechBrownout { .. } => self.bump(Counter::MechBrownouts),
            Event::Shed { .. } => self.bump(Counter::Sheds),
            Event::Admitted { .. } => self.bump(Counter::Admissions),
            Event::SwitchBegin { .. } => self.bump(Counter::FiberSwitches),
        }
    }

    /// A frozen copy for reports.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), self.get(c)))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| (g.name(), self.gauge(g)))
                .collect(),
        }
    }
}

/// A frozen, by-name view of the registry, carried in run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge, in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, f64)>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 for unknown names, so reports from
    /// before a counter existed read naturally).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// One JSON object with all counters and gauges, keys in snapshot
    /// order (deterministic bytes).
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{v}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_add_get() {
        let mut m = Metrics::new();
        m.bump(Counter::Arrivals);
        m.bump(Counter::Arrivals);
        m.add(Counter::CoreWorkNs, 500);
        assert_eq!(m.get(Counter::Arrivals), 2);
        assert_eq!(m.get(Counter::CoreWorkNs), 500);
        assert_eq!(m.get(Counter::Drops), 0);
        m.add(Counter::CoreWorkNs, u64::MAX);
        assert_eq!(
            m.get(Counter::CoreWorkNs),
            u64::MAX,
            "saturates, never wraps"
        );
    }

    #[test]
    fn account_maps_events_to_counters() {
        let mut m = Metrics::new();
        m.account(&Event::UipiDelivered {
            worker: 0,
            coalesced: true,
        });
        m.account(&Event::UipiDelivered {
            worker: 0,
            coalesced: false,
        });
        m.account(&Event::TimerPoll { expired: 3 });
        m.account(&Event::TaskStart {
            worker: 0,
            fiber: 1,
            resumed: true,
            switch_ns: 0,
        });
        m.account(&Event::TaskStart {
            worker: 0,
            fiber: 2,
            resumed: false,
            switch_ns: 0,
        });
        m.account(&Event::QuantumAdjusted {
            old_ns: 30_000,
            new_ns: 25_000,
        });
        assert_eq!(m.get(Counter::UipiDelivered), 2);
        assert_eq!(m.get(Counter::UipiCoalesced), 1);
        assert_eq!(m.get(Counter::TimerPolls), 1);
        assert_eq!(m.get(Counter::DeadlinesFired), 3);
        assert_eq!(m.get(Counter::TaskStarts), 2);
        assert_eq!(m.get(Counter::TaskResumes), 1);
        assert_eq!(m.get(Counter::QuantumAdjustments), 1);
        assert_eq!(m.gauge(Gauge::QuantumNs), 25_000.0);
    }

    #[test]
    fn snapshot_lookup_and_unknown_names() {
        let mut m = Metrics::new();
        m.bump(Counter::Preemptions);
        m.set_gauge(Gauge::TimerPowerW, 1.2);
        let s = m.snapshot();
        assert_eq!(s.counter("preemptions"), 1);
        assert_eq!(s.counter("not_a_counter"), 0);
        assert_eq!(s.gauges[1], ("timer_power_w", 1.2));
        assert_eq!(s.counters.len(), Counter::ALL.len());
    }

    #[test]
    fn counter_names_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn snapshot_jsonl_is_deterministic() {
        let mut m = Metrics::new();
        m.bump(Counter::Arrivals);
        let a = m.snapshot().to_jsonl();
        let b = m.snapshot().to_jsonl();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"counters\":{\"uipi_sent\":0"));
        assert!(a.contains("\"arrivals\":1"));
        assert!(a.ends_with("}}"));
    }
}
