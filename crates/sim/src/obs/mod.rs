//! Structured cross-layer observability: typed events + metrics.
//!
//! Every layer of the reproduction — the UINTR architecture model
//! (`lp-hw`), the kernel substrate (`lp-kernel`), and the runtime
//! (`libpreemptible`) — emits the same typed [`Event`] vocabulary into
//! one [`Observer`]. The observer couples two sinks:
//!
//! * an [`EventRing`]: a preallocated circular window of the most
//!   recent [`TimedEvent`]s (zero heap allocation on push; capacity 0
//!   disables it entirely), and
//! * a [`Metrics`] registry: always-on [`Counter`]s and [`Gauge`]s,
//!   bumped automatically from every emitted event so the counters can
//!   never drift from the event stream.
//!
//! Event logs export as deterministic JSONL ([`TimedEvent::write_jsonl`]
//! / [`TimedEvent::parse_jsonl`]) — same seed, same bytes — and each
//! [`Event`] also renders as one human-readable line through `Display`.
//! The full event schema is documented in `docs/TRACING.md`.
//!
//! ```
//! use lp_sim::obs::{Counter, Event, Observer};
//! use lp_sim::SimTime;
//!
//! let mut obs = Observer::new(1024);
//! obs.emit(SimTime::from_nanos(100), Event::UipiSent { worker: 0, vector: 0 });
//! obs.emit(
//!     SimTime::from_nanos(450),
//!     Event::UipiDelivered { worker: 0, coalesced: false },
//! );
//! assert_eq!(obs.metrics().get(Counter::UipiSent), 1);
//! assert_eq!(obs.to_jsonl().lines().count(), 2);
//! ```

mod attr;
mod event;
mod metrics;
pub mod perfetto;
mod ring;

pub use attr::{
    Attribution, Exemplar, Phase, PhaseHistogram, PhaseStats, EXEMPLAR_SLOTS, PHASE_HIST_BUCKETS,
};
pub use event::{Event, TimedEvent};
pub use metrics::{Counter, Gauge, Metrics, MetricsSnapshot};
pub use perfetto::chrome_trace;
pub use ring::EventRing;

use crate::time::SimTime;

/// The per-run observability hub: a typed event ring, the always-on
/// metrics registry, and the tail-attribution accountant, all fed
/// through one [`emit`](Observer::emit) call.
#[derive(Debug, Clone)]
pub struct Observer {
    ring: EventRing,
    metrics: Metrics,
    attr: Attribution,
}

impl Observer {
    /// An observer keeping the last `ring_capacity` events. Capacity 0
    /// disables the ring; the counters and the phase accountant stay
    /// on regardless.
    pub fn new(ring_capacity: usize) -> Self {
        Observer {
            ring: EventRing::new(ring_capacity),
            metrics: Metrics::new(),
            attr: Attribution::new(),
        }
    }

    /// Counters only, no event window — the production default.
    pub fn counters_only() -> Self {
        Observer::new(0)
    }

    /// Records one event: bumps the mapped counters, advances the
    /// phase accountant, then appends to the ring. No heap allocation
    /// either way (the accountant's flat state grows once to the
    /// pool/worker high-water marks).
    #[inline(always)]
    pub fn emit(&mut self, at: SimTime, ev: Event) {
        self.metrics.account(&ev);
        self.attr.observe(at.as_nanos(), &ev);
        self.ring.push(TimedEvent { at, ev });
    }

    /// The tail-attribution accountant's aggregated stats so far.
    pub fn phases(&mut self) -> &PhaseStats {
        self.attr.stats()
    }

    /// Drains the accountant's aggregated stats for a report, leaving
    /// an empty accountant behind.
    pub fn take_phases(&mut self) -> PhaseStats {
        self.attr.take_stats()
    }

    /// Turns the phase accountant on or off. Attribution ships
    /// always-on; the off switch exists only for `lp-bench`'s
    /// attribution-overhead section (see [`Attribution::set_enabled`]).
    pub fn set_attribution_enabled(&mut self, on: bool) {
        self.attr.set_enabled(on);
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable registry access, for direct counter/gauge updates that
    /// have no event (e.g. per-class core-time accounting).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.ring.iter()
    }

    /// Drains the ring (oldest first), leaving the counters intact.
    pub fn take_events(&mut self) -> Vec<TimedEvent> {
        self.ring.take()
    }

    /// A frozen snapshot of all counters and gauges.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The held events as JSONL, one event per line, oldest first.
    /// Deterministic byte-for-byte for identical event streams.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.ring.len() * 64);
        for te in self.events() {
            te.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn emit_feeds_ring_and_counters() {
        let mut o = Observer::new(16);
        o.emit(t(1), Event::Arrival { class: 0 });
        o.emit(t(2), Event::Drop { class: 0 });
        assert_eq!(o.metrics().get(Counter::Arrivals), 1);
        assert_eq!(o.metrics().get(Counter::Drops), 1);
        assert_eq!(o.ring().len(), 2);
        let evs = o.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].at, t(1));
        // Counters survive the drain.
        assert_eq!(o.metrics().get(Counter::Arrivals), 1);
    }

    #[test]
    fn counters_stay_on_with_ring_disabled() {
        let mut o = Observer::counters_only();
        o.emit(t(1), Event::Preempt { worker: 0, fiber: 3, ran_ns: 5_000 });
        assert_eq!(o.metrics().get(Counter::Preemptions), 1);
        assert!(o.ring().is_empty());
        assert_eq!(o.to_jsonl(), "");
    }

    #[test]
    fn jsonl_round_trips_through_parse() {
        let mut o = Observer::new(8);
        o.emit(t(10), Event::UipiSent { worker: 1, vector: 0 });
        o.emit(t(20), Event::UipiDelivered { worker: 1, coalesced: false });
        o.emit(t(30), Event::Preempt { worker: 1, fiber: 4, ran_ns: 9_000 });
        let text = o.to_jsonl();
        let parsed: Vec<TimedEvent> = text
            .lines()
            .map(|l| TimedEvent::parse_jsonl(l).expect("parse"))
            .collect();
        let original: Vec<TimedEvent> = o.events().copied().collect();
        assert_eq!(parsed, original);
    }
}
