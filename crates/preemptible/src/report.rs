//! Run reports: everything an experiment reads off a finished run, and
//! the [`Ledger`] every simulated system records request outcomes
//! through.

use lp_hw::{CoreClock, TimeClass};
use lp_sim::obs::{Counter, Event, Exemplar, MetricsSnapshot, Observer, PhaseStats, TimedEvent};
use lp_sim::{SimDur, SimTime};
use lp_stats::{Histogram, TimeSeries};

/// Aggregated results of one simulated run.
#[derive(Debug)]
pub struct RunReport {
    /// The system that produced the run (for table labels).
    pub system: String,
    /// Offered load in requests/second (peak for bursty schedules).
    pub offered_rps: f64,
    /// Measured run length.
    pub duration: SimDur,
    /// Requests that arrived (after warmup).
    pub arrivals: u64,
    /// Requests that completed (after warmup).
    pub completions: u64,
    /// Requests dropped on context-pool exhaustion.
    pub dropped: u64,
    /// Requests still in flight at the end.
    pub in_flight: u64,
    /// Age of the oldest request still in flight when the run ended,
    /// ns (`0` when nothing was in flight). The completed-latency
    /// histogram censors requests the run never finished; this is the
    /// lower bound they put on the true worst-case response — see
    /// [`worst_case_ns`](Self::worst_case_ns).
    pub oldest_inflight_ns: u64,
    /// End-to-end latency of all completed requests: the merge of
    /// [`latency_by_class`](Self::latency_by_class).
    pub latency: Histogram,
    /// Latency split by workload class (class 0 = LC, 1 = BE).
    pub latency_by_class: Vec<Histogram>,
    /// Preemptions delivered (context actually switched out).
    pub preemptions: u64,
    /// Deliveries that raced completion (handler ran, nothing to park).
    pub spurious_preemptions: u64,
    /// Aggregate worker-core time accounting.
    pub cores: CoreClock,
    /// Per-worker accounting (workers only, not the timer core).
    pub per_worker: Vec<CoreClock>,
    /// Time accounting of the timer core(s), if any.
    pub timer_core: CoreClock,
    /// Per-second-ish series of completed-request latency (us), by
    /// class, when recording was enabled.
    pub latency_series: Vec<TimeSeries>,
    /// Measured arrival rate series (events; rate = count/frame).
    pub qps_series: Option<TimeSeries>,
    /// The quantum chosen over time (us), for adaptive runs.
    pub quantum_series: Option<TimeSeries>,
    /// Per-frame SLO-violation indicator series (frame mean = violation
    /// fraction), when an SLO and series recording were configured.
    pub slo_series: Option<TimeSeries>,
    /// The quantum at the end of the run.
    pub final_quantum: SimDur,
    /// Frozen metrics registry: every `lp_sim::obs` counter and gauge
    /// the run accumulated (always collected).
    pub metrics: MetricsSnapshot,
    /// The last [`RuntimeConfig::trace_capacity`] typed trace events,
    /// oldest first (empty when tracing was disabled).
    ///
    /// [`RuntimeConfig::trace_capacity`]: crate::RuntimeConfig::trace_capacity
    pub events: Vec<TimedEvent>,
    /// Events evicted from the circular trace window before the run
    /// ended: [`events`](Self::events) is a sliding window of the most
    /// recent `trace_capacity` events, and this counts what the wrap
    /// silently overwrote (0 when the window never filled, or when
    /// tracing was disabled and nothing was ever enqueued).
    pub events_dropped: u64,
    /// Tail attribution: always-on per-phase and end-to-end latency
    /// histograms plus the pinned worst-request exemplars, each with a
    /// phase breakdown summing exactly to its end-to-end latency (see
    /// `docs/TRACING.md`).
    pub phases: PhaseStats,
}

impl RunReport {
    /// Completed requests per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.completions as f64 / self.duration.as_secs_f64()
    }

    /// Median latency in microseconds.
    pub fn median_us(&self) -> f64 {
        self.latency.median() as f64 / 1_000.0
    }

    /// p99 latency in microseconds — the paper's tail metric.
    pub fn p99_us(&self) -> f64 {
        self.latency.p99() as f64 / 1_000.0
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.latency.mean() / 1_000.0
    }

    /// Fraction of completed requests exceeding `slo`.
    pub fn slo_violations(&self, slo: SimDur) -> f64 {
        self.latency.frac_above(slo.as_nanos())
    }

    /// Latency histogram of one class (empty histogram if the class
    /// never appeared).
    pub fn class_latency(&self, class: u8) -> &Histogram {
        static EMPTY: std::sync::OnceLock<Histogram> = std::sync::OnceLock::new();
        self.latency_by_class
            .get(class as usize)
            .unwrap_or_else(|| EMPTY.get_or_init(Histogram::new))
    }

    /// Preemption-mechanism time over useful work across the workers —
    /// Fig. 1 (right)'s y-axis.
    pub fn preemption_overhead_ratio(&self) -> f64 {
        self.cores.preemption_over_work()
    }

    /// Censoring-aware worst-case response, ns: the worst completed
    /// latency or the age of the oldest request the run never
    /// finished, whichever is larger. Under overload the unfinished
    /// backlog holds the true worst offenders, so `latency.max()`
    /// alone understates (and with zero completions reports `0` for)
    /// the worst case.
    pub fn worst_case_ns(&self) -> u64 {
        self.latency.max().max(self.oldest_inflight_ns)
    }

    /// Conservation check: every arrival is accounted for.
    pub fn is_conserved(&self) -> bool {
        self.arrivals == self.completions + self.dropped + self.in_flight
    }

    /// The captured trace as JSONL, one event per line, oldest first
    /// (see `docs/TRACING.md` for the schema). Byte-deterministic for
    /// identical seeds and configurations.
    ///
    /// Window semantics: the trace ring keeps only the most recent
    /// `trace_capacity` events, so under a small capacity this is the
    /// *tail* of the run, not the whole run —
    /// [`events_dropped`](Self::events_dropped) counts how many
    /// earlier events the wrap evicted. Size the capacity to the run
    /// (or check `events_dropped == 0`) before treating the JSONL as
    /// complete.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64);
        for te in &self.events {
            te.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }

    /// The captured trace as a Perfetto / Chrome `trace_event` JSON
    /// document (open it in `chrome://tracing` or ui.perfetto.dev):
    /// one track per worker, fiber slices reconstructed from
    /// `task_start` → `preempt`/`task_finish` span pairs. Byte-stable
    /// for identical event windows; subject to the same sliding-window
    /// semantics as [`events_jsonl`](Self::events_jsonl).
    pub fn perfetto_json(&self) -> String {
        lp_sim::obs::chrome_trace(&self.events)
    }

    /// The worst pinned request, if any completed — the run's top
    /// exemplar, whose phase breakdown sums to its latency.
    pub fn worst_exemplar(&self) -> Option<Exemplar> {
        self.phases.worst()
    }

    /// Worker utilization (work only) over the run.
    pub fn worker_utilization(&self) -> f64 {
        if self.per_worker.is_empty() || self.duration.is_zero() {
            return 0.0;
        }
        let end = SimTime::ZERO + self.duration;
        let total: f64 = self
            .per_worker
            .iter()
            .map(|c| c.fraction(TimeClass::Work, end))
            .sum();
        total / self.per_worker.len() as f64
    }
}

/// Request classes with their own latency histogram and series
/// (0 = latency-critical, 1 = best-effort).
const CLASSES: usize = 2;

/// The one record path for request outcomes, shared by the runtime and
/// the baselines.
///
/// Each outcome method emits its typed [`Event`] through the owned
/// [`Observer`] and, for completions, records the post-warmup latency
/// views. The report totals are the observer's counters, so the event
/// stream, the metrics and [`RunReport`] cannot disagree.
/// [`into_report`](Self::into_report) builds the report.
#[derive(Debug)]
pub struct Ledger {
    /// The run's event ring, metrics registry and phase accountant.
    /// Events that are not request outcomes are emitted through it
    /// directly.
    pub obs: Observer,
    /// Completions of requests that arrived before this instant stay
    /// out of the latency views.
    warmup_end: SimTime,
    slo: Option<SimDur>,
    latency_by_class: Vec<Histogram>,
    latency_series: Vec<TimeSeries>,
    qps_series: Option<TimeSeries>,
    slo_series: Option<TimeSeries>,
}

/// What only the model knows when its run ends: its label and load,
/// its core clocks, and the requests it never finished.
#[derive(Debug)]
pub struct RunEnd {
    /// The system that produced the run.
    pub system: String,
    /// Offered load in requests/second.
    pub offered_rps: f64,
    /// Measured run length.
    pub duration: SimDur,
    /// Requests still queued or running.
    pub in_flight: u64,
    /// Arrival instant of the oldest of them.
    pub oldest_arrival: Option<SimTime>,
    /// Per-worker clocks.
    pub per_worker: Vec<CoreClock>,
    /// The dispatcher's clock; counted in [`RunReport::cores`] only.
    pub dispatcher: CoreClock,
    /// The timer core's clock.
    pub timer_core: CoreClock,
    /// The quantum over time, for runs that record it.
    pub quantum_series: Option<TimeSeries>,
    /// The quantum at the end of the run.
    pub final_quantum: SimDur,
}

impl Ledger {
    /// A ledger keeping the last `trace_capacity` events, with tail
    /// attribution on or off, latency views from `warmup` on, series at
    /// `series_frame` width, and SLO-violation tracking against `slo`.
    pub fn new(
        trace_capacity: usize,
        attribution: bool,
        warmup: SimDur,
        series_frame: Option<SimDur>,
        slo: Option<SimDur>,
    ) -> Self {
        let mut obs = Observer::new(trace_capacity);
        obs.set_attribution_enabled(attribution);
        let series = || series_frame.map(|f| TimeSeries::new(f.as_nanos()));
        Ledger {
            obs,
            warmup_end: SimTime::ZERO + warmup,
            slo,
            latency_by_class: (0..CLASSES).map(|_| Histogram::new()).collect(),
            latency_series: (0..CLASSES).filter_map(|_| series()).collect(),
            qps_series: series(),
            slo_series: slo.and(series()),
        }
    }

    /// Requests arrived so far. The runtime and the baselines derive
    /// request ids from it.
    pub fn arrivals(&self) -> u64 {
        self.obs.metrics().get(Counter::Arrivals)
    }

    /// A request of `class` arrived.
    pub fn arrived(&mut self, now: SimTime, class: u8) {
        if let Some(ts) = self.qps_series.as_mut() {
            ts.record(now.as_nanos(), 1.0);
        }
        self.obs.emit(now, Event::Arrival { class });
    }

    /// A request of `class` was dropped for lack of room.
    pub fn dropped(&mut self, now: SimTime, class: u8) {
        self.obs.emit(now, Event::Drop { class });
    }

    /// Admission control shed a request of `class` at backlog `queued`.
    pub fn shed(&mut self, now: SimTime, class: u8, queued: u32) {
        self.obs.emit(now, Event::Shed { class, queued });
    }

    /// `fiber`, a request of `class` that arrived at `arrived`, ran to
    /// completion on `worker`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is neither 0 (latency-critical) nor 1
    /// (best-effort).
    pub fn finished(&mut self, now: SimTime, worker: u16, fiber: u32, arrived: SimTime, class: u8) {
        let lat = now.since(arrived);
        self.obs.emit(
            now,
            Event::TaskFinish {
                worker,
                fiber,
                latency_ns: lat.as_nanos(),
            },
        );
        if arrived < self.warmup_end {
            return;
        }
        self.latency_by_class[class as usize].record(lat.as_nanos());
        if let Some(ts) = self.latency_series.get_mut(class as usize) {
            ts.record(now.as_nanos(), lat.as_micros_f64());
        }
        if let (Some(slo), Some(ts)) = (self.slo, self.slo_series.as_mut()) {
            ts.record(now.as_nanos(), if lat > slo { 1.0 } else { 0.0 });
        }
    }

    /// `fiber` was switched out on `worker` after running `ran`.
    pub fn preempted(&mut self, now: SimTime, worker: u16, fiber: u32, ran: SimDur) {
        self.obs.emit(
            now,
            Event::Preempt {
                worker,
                fiber,
                ran_ns: ran.as_nanos(),
            },
        );
    }

    /// A preemption reached `worker` with nothing to switch out.
    pub fn spurious(&mut self, now: SimTime, worker: u16) {
        self.obs.emit(now, Event::SpuriousPreempt { worker });
    }

    /// The run's report: the totals read off the counters, the latency
    /// views, the merged core clocks, and the trace.
    pub fn into_report(mut self, end: RunEnd) -> RunReport {
        let m = self.obs.metrics();
        let mut cores = CoreClock::new();
        for w in &end.per_worker {
            cores.merge(w);
        }
        cores.merge(&end.dispatcher);
        let stop = SimTime::ZERO + end.duration;
        // Merging is exact (bucket counts, sum, min and max), so this is
        // the histogram one record per completion would have built.
        let mut latency = Histogram::new();
        for h in &self.latency_by_class {
            latency.merge(h);
        }
        RunReport {
            system: end.system,
            offered_rps: end.offered_rps,
            duration: end.duration,
            arrivals: m.get(Counter::Arrivals),
            completions: m.get(Counter::TaskFinishes),
            dropped: m.get(Counter::Drops) + m.get(Counter::Sheds),
            in_flight: end.in_flight,
            oldest_inflight_ns: end
                .oldest_arrival
                .map_or(0, |t| stop.saturating_since(t).as_nanos()),
            latency,
            latency_by_class: self.latency_by_class,
            preemptions: m.get(Counter::Preemptions),
            spurious_preemptions: m.get(Counter::SpuriousPreemptions),
            cores,
            per_worker: end.per_worker,
            timer_core: end.timer_core,
            latency_series: self.latency_series,
            qps_series: self.qps_series,
            quantum_series: end.quantum_series,
            slo_series: self.slo_series,
            final_quantum: end.final_quantum,
            metrics: self.obs.snapshot(),
            events_dropped: self.obs.ring().overwritten(),
            events: self.obs.take_events(),
            phases: self.obs.take_phases(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let mut latency = Histogram::new();
        latency.record_n(10_000, 99);
        latency.record(1_000_000);
        let mut cores = CoreClock::new();
        cores.charge(TimeClass::Work, SimDur::micros(900));
        cores.charge(TimeClass::Preemption, SimDur::micros(90));
        RunReport {
            system: "test".into(),
            offered_rps: 1_000.0,
            duration: SimDur::secs(1),
            arrivals: 105,
            completions: 100,
            dropped: 2,
            in_flight: 3,
            oldest_inflight_ns: 2_000_000,
            latency,
            latency_by_class: vec![],
            preemptions: 10,
            spurious_preemptions: 1,
            cores,
            per_worker: vec![],
            timer_core: CoreClock::new(),
            latency_series: vec![],
            qps_series: None,
            quantum_series: None,
            slo_series: None,
            final_quantum: SimDur::micros(30),
            metrics: MetricsSnapshot::default(),
            events: vec![],
            events_dropped: 0,
            phases: PhaseStats::default(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.throughput_rps() - 100.0).abs() < 1e-9);
        assert!((r.median_us() - 10.0).abs() < 0.2);
        assert!(r.p99_us() < 20.0);
        assert!((r.preemption_overhead_ratio() - 0.1).abs() < 1e-9);
        assert!(r.is_conserved());
        assert!((r.slo_violations(SimDur::micros(50)) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn class_latency_missing_class_is_empty() {
        let r = report();
        assert!(r.class_latency(1).is_empty());
    }

    #[test]
    fn conservation_detects_loss() {
        let mut r = report();
        r.completions = 90;
        assert!(!r.is_conserved());
    }
}
