//! Cores and per-core time accounting.
//!
//! Fig. 1 (right) plots "overall CPU time spent in preemption vs.
//! execution", so overhead accounting is a first-class feature of the
//! simulated machine: every simulated core tracks where its cycles went,
//! by category, and experiments read the breakdown directly.

use lp_sim::obs::{Counter, Observer};
use lp_sim::{SimDur, SimTime};

/// Identifies a logical core (hyperthread) of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A core stall/hog window (fault injection, `lp_sim::fault`'s
/// `CoreHog`): while the window is open the core executes straight-line
/// work but services no preemption delivery — interrupts effectively
/// mask until the window closes, exactly the failure interrupt-isolation
/// work guards against. The runtime defers any preemption arrival on a
/// hogged core to the window's end via [`defer`](HogWindow::defer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HogWindow {
    until: Option<SimTime>,
}

impl HogWindow {
    /// No window open.
    pub fn none() -> Self {
        Self::default()
    }

    /// Opens (or extends) a window covering `[now, now + dur]`.
    pub fn begin(&mut self, now: SimTime, dur: SimDur) {
        let end = now + dur;
        self.until = Some(match self.until {
            Some(u) if u > end => u,
            _ => end,
        });
    }

    /// `true` while the window covers `now`.
    pub fn active(&self, now: SimTime) -> bool {
        self.until.is_some_and(|u| u > now)
    }

    /// The earliest instant at or after `at` the core can take a
    /// preemption: `at` itself when no window covers it, else the
    /// window's end.
    pub fn defer(&self, at: SimTime) -> SimTime {
        match self.until {
            Some(u) if u > at => u,
            _ => at,
        }
    }
}

/// Where a core's time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeClass {
    /// Useful request execution.
    Work,
    /// Preemption mechanism: interrupt delivery, handlers, the context
    /// switches it forces (Fig. 1 right's numerator).
    Preemption,
    /// Dispatch/scheduling decisions and queue manipulation.
    Dispatch,
    /// Timer-core polling (LibUtimer's dedicated core).
    TimerPoll,
    /// Kernel activity charged to this core (signal delivery, syscalls).
    Kernel,
}

/// Per-core cycle accounting.
///
/// ```
/// use lp_hw::cpu::{CoreClock, TimeClass};
/// use lp_sim::{SimDur, SimTime};
/// let mut c = CoreClock::new();
/// c.charge(TimeClass::Work, SimDur::micros(90));
/// c.charge(TimeClass::Preemption, SimDur::micros(10));
/// assert_eq!(c.total_charged(), SimDur::micros(100));
/// assert!((c.fraction(TimeClass::Preemption, SimTime::from_nanos(100_000)) - 0.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoreClock {
    work: SimDur,
    preemption: SimDur,
    dispatch: SimDur,
    timer_poll: SimDur,
    kernel: SimDur,
}

impl CoreClock {
    /// A fresh accounting block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `d` to the given class.
    pub fn charge(&mut self, class: TimeClass, d: SimDur) {
        let slot = match class {
            TimeClass::Work => &mut self.work,
            TimeClass::Preemption => &mut self.preemption,
            TimeClass::Dispatch => &mut self.dispatch,
            TimeClass::TimerPoll => &mut self.timer_poll,
            TimeClass::Kernel => &mut self.kernel,
        };
        *slot = slot.saturating_add(d);
    }

    /// Charges `d` and mirrors it into the observer's per-class
    /// `core_*_ns` counters, so the metrics registry carries the same
    /// breakdown report-level consumers read from the clock.
    pub fn charge_observed(&mut self, class: TimeClass, d: SimDur, obs: &mut Observer) {
        self.charge(class, d);
        let counter = match class {
            TimeClass::Work => Counter::CoreWorkNs,
            TimeClass::Preemption => Counter::CorePreemptionNs,
            TimeClass::Dispatch => Counter::CoreDispatchNs,
            TimeClass::TimerPoll => Counter::CoreTimerPollNs,
            TimeClass::Kernel => Counter::CoreKernelNs,
        };
        obs.metrics_mut().add(counter, d.as_nanos());
    }

    /// Time charged to one class.
    pub fn charged(&self, class: TimeClass) -> SimDur {
        match class {
            TimeClass::Work => self.work,
            TimeClass::Preemption => self.preemption,
            TimeClass::Dispatch => self.dispatch,
            TimeClass::TimerPoll => self.timer_poll,
            TimeClass::Kernel => self.kernel,
        }
    }

    /// Sum over all classes.
    pub fn total_charged(&self) -> SimDur {
        self.work + self.preemption + self.dispatch + self.timer_poll + self.kernel
    }

    /// Fraction of elapsed wall-clock spent in `class`.
    pub fn fraction(&self, class: TimeClass, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.charged(class).as_nanos() as f64 / elapsed.as_nanos() as f64
    }

    /// Preemption overhead normalized to useful work — the y-axis of
    /// Fig. 1 (right).
    pub fn preemption_over_work(&self) -> f64 {
        if self.work.is_zero() {
            return 0.0;
        }
        self.preemption.as_nanos() as f64 / self.work.as_nanos() as f64
    }

    /// Merges another clock into this one (for machine-wide totals).
    pub fn merge(&mut self, other: &CoreClock) {
        self.work += other.work;
        self.preemption += other.preemption;
        self.dispatch += other.dispatch;
        self.timer_poll += other.timer_poll;
        self.kernel += other.kernel;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accounting() {
        let mut c = CoreClock::new();
        c.charge(TimeClass::Work, SimDur::micros(70));
        c.charge(TimeClass::Preemption, SimDur::micros(7));
        c.charge(TimeClass::Dispatch, SimDur::micros(3));
        assert_eq!(c.charged(TimeClass::Work), SimDur::micros(70));
        assert_eq!(c.total_charged(), SimDur::micros(80));
        assert!((c.preemption_over_work() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn charge_observed_mirrors_into_counters() {
        let mut c = CoreClock::new();
        let mut obs = Observer::counters_only();
        c.charge_observed(TimeClass::Work, SimDur::micros(70), &mut obs);
        c.charge_observed(TimeClass::Preemption, SimDur::micros(7), &mut obs);
        c.charge_observed(TimeClass::TimerPoll, SimDur::micros(2), &mut obs);
        assert_eq!(obs.metrics().get(Counter::CoreWorkNs), 70_000);
        assert_eq!(obs.metrics().get(Counter::CorePreemptionNs), 7_000);
        assert_eq!(obs.metrics().get(Counter::CoreTimerPollNs), 2_000);
        // The clock itself saw the same charges.
        assert_eq!(c.charged(TimeClass::Work).as_nanos(), 70_000);
        assert_eq!(c.total_charged(), SimDur::micros(79));
    }

    #[test]
    fn clock_merge() {
        let mut a = CoreClock::new();
        a.charge(TimeClass::Work, SimDur::micros(1));
        let mut b = CoreClock::new();
        b.charge(TimeClass::Work, SimDur::micros(2));
        b.charge(TimeClass::Kernel, SimDur::micros(5));
        a.merge(&b);
        assert_eq!(a.charged(TimeClass::Work), SimDur::micros(3));
        assert_eq!(a.charged(TimeClass::Kernel), SimDur::micros(5));
    }

    #[test]
    fn zero_division_guards() {
        let c = CoreClock::new();
        assert_eq!(c.preemption_over_work(), 0.0);
        assert_eq!(c.fraction(TimeClass::Work, SimTime::ZERO), 0.0);
    }

    #[test]
    fn hog_window_defers_and_expires() {
        let mut h = HogWindow::none();
        let t = SimTime::from_nanos;
        assert!(!h.active(t(0)));
        assert_eq!(h.defer(t(50)), t(50));
        h.begin(t(100), SimDur::nanos(200));
        assert!(h.active(t(100)));
        assert!(h.active(t(299)));
        assert!(!h.active(t(300)), "window end is exclusive");
        assert_eq!(h.defer(t(150)), t(300));
        assert_eq!(h.defer(t(300)), t(300));
        assert_eq!(h.defer(t(400)), t(400));
        // A shorter overlapping window never shrinks the deferral.
        h.begin(t(200), SimDur::nanos(10));
        assert_eq!(h.defer(t(250)), t(300));
        // A longer one extends it.
        h.begin(t(250), SimDur::nanos(200));
        assert_eq!(h.defer(t(260)), t(450));
    }
}
