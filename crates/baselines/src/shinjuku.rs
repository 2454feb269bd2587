//! The Shinjuku baseline (Kaffes et al., NSDI'19), as characterized in
//! the paper's evaluation.
//!
//! Shinjuku implements centralized preemptive scheduling: a **dedicated
//! dispatcher core** owns a single request queue, hands requests to
//! workers, tracks each worker's elapsed quantum in its polling loop,
//! and preempts overrunning workers with **posted IPIs** through a
//! ring-3-mapped APIC. Preempted requests return to the tail of the
//! central queue (cFCFS).
//!
//! The relevant mechanism differences from LibPreemptible, all modeled
//! explicitly:
//!
//! * preemption delivery is an ordinary IPI (µs-scale, kernel-trampoline
//!   receiver cost) instead of a user interrupt;
//! * every scheduling decision crosses dispatcher↔worker cachelines and
//!   is only noticed at the dispatcher's loop granularity;
//! * the quantum is static — Shinjuku "needs careful profiling to
//!   select the right time quanta" (§V-A), which experiments mirror by
//!   sweeping.

use std::collections::VecDeque;

use lp_hw::jitter::Jitter;
use lp_hw::{CoreClock, HwCosts, TimeClass};
use lp_sim::obs::Event;
use lp_sim::rng::{rng, streams};
use lp_sim::{Ctx, EventId, Model, SimDur, SimTime, Simulation};
use lp_workload::ArrivalGen;
use rand::rngs::SmallRng;

use libpreemptible::report::{Ledger, RunEnd, RunReport};
use libpreemptible::runtime::WorkloadSpec;

/// Shinjuku configuration.
#[derive(Debug, Clone)]
pub struct ShinjukuConfig {
    /// Worker cores (the dispatcher core is extra, as in the paper's
    /// "1 network thread, 5 worker threads" setup).
    pub workers: usize,
    /// The static preemption quantum; [`SimDur::MAX`] disables
    /// preemption.
    pub quantum: SimDur,
    /// Master seed.
    pub seed: u64,
    /// Keep the last N typed trace events (0 disables the ring; see
    /// `docs/TRACING.md`). The baseline emits the same lifecycle
    /// vocabulary as the runtime so traces and attribution compare
    /// apples to apples.
    pub trace_capacity: usize,
}

impl Default for ShinjukuConfig {
    fn default() -> Self {
        ShinjukuConfig {
            workers: 5,
            quantum: SimDur::micros(5),
            seed: 1,
            trace_capacity: 0,
        }
    }
}

/// Dispatcher loop iteration time (how often it checks quanta and idle
/// workers).
const LOOP_GRANULARITY: SimDur = SimDur::nanos(120);
/// Dispatcher cost to hand one request to a worker.
const DISPATCH_COST: SimDur = SimDur::nanos(220);
/// Receiver-side cost of taking a posted IPI and trampolining back to
/// the dispatcher-provided context (Shinjuku's interposition layer).
/// The Shinjuku paper reports ~2 us end-to-end per preemption
/// (interrupt entry + interposition trampoline).
const PREEMPT_RECEIVER_COST: SimDur = SimDur::nanos(1_800);
/// Bound on queued requests (beyond it arrivals drop, modeling finite
/// rings).
const QUEUE_CAPACITY: usize = 65_536;
/// Time-series frame width: the baseline records no series.
const SERIES_FRAME: Option<SimDur> = None;
/// Tail attribution (see [`RunReport::phases`]) is always on.
const ATTRIBUTION: bool = true;

#[derive(Debug)]
enum Ev {
    Arrival,
    /// Dispatcher assigns queued work to an idle worker.
    Assign,
    Finish {
        worker: usize,
        seq: u64,
    },
    /// Dispatcher's loop notices worker `w` exceeded its quantum.
    QuantumCheck {
        worker: usize,
        seq: u64,
    },
    /// The IPI lands on the worker.
    PreemptArrive {
        worker: usize,
        seq: u64,
    },
    /// The worker finished the preemption trampoline and is idle again.
    PreemptDone {
        worker: usize,
    },
}

struct Task {
    arrived: SimTime,
    remaining: SimDur,
    class: u8,
    /// Stable per-request id for the trace/attribution vocabulary
    /// (the runtime uses context-pool indices; here requests never
    /// share storage, so the arrival ordinal serves).
    fiber: u32,
    /// `true` once the task has been preempted at least once — the
    /// next `task_start` is a resume.
    preempted: bool,
}

enum WState {
    Idle,
    /// Taking a preemption interrupt: the trampoline occupies the core.
    Switching,
    Running {
        task: Task,
        started: SimTime,
        finish_ev: EventId,
        /// The dispatcher's quantum check; `None` without preemption.
        check_ev: Option<EventId>,
    },
}

struct Worker {
    state: WState,
    seq: u64,
    clock: CoreClock,
}

struct ShinjukuSystem {
    cfg: ShinjukuConfig,
    /// Hardware cost model.
    hw: HwCosts,
    spec: WorkloadSpec,
    queue: VecDeque<Task>,
    workers: Vec<Worker>,
    dispatcher: CoreClock,
    dispatcher_free_at: SimTime,
    arrivals_gen: ArrivalGen,
    service_rng: SmallRng,
    /// Hardware delivery jitter, on a stream nothing else reads.
    hw_jitter: Jitter,
    assign_pending: bool,

    /// Same request ledger and event/metrics/attribution hub as the
    /// runtime.
    ledger: Ledger,
}

impl ShinjukuSystem {
    fn new(cfg: ShinjukuConfig, spec: WorkloadSpec) -> Self {
        let workers = (0..cfg.workers)
            .map(|_| Worker {
                state: WState::Idle,
                seq: 0,
                clock: CoreClock::new(),
            })
            .collect();
        let hw = HwCosts::default();
        ShinjukuSystem {
            ledger: Ledger::new(
                cfg.trace_capacity,
                ATTRIBUTION,
                spec.warmup,
                SERIES_FRAME,
                None,
            ),
            hw_jitter: Jitter::new(rng(cfg.seed, streams::HW_JITTER), hw.jitter_sigma),
            hw,
            arrivals_gen: ArrivalGen::new(spec.arrivals.clone(), rng(cfg.seed, streams::ARRIVALS)),
            service_rng: rng(cfg.seed, streams::SERVICE),
            queue: VecDeque::new(),
            workers,
            dispatcher: CoreClock::new(),
            dispatcher_free_at: SimTime::ZERO,
            assign_pending: false,
            cfg,
            spec,
        }
    }

    fn jitter(&mut self, base: SimDur) -> SimDur {
        self.hw_jitter.sample(base)
    }

    /// Schedules an Assign if work and an idle worker exist and none is
    /// already pending.
    fn kick_dispatcher(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if self.assign_pending || self.queue.is_empty() {
            return;
        }
        if self.workers.iter().any(|w| matches!(w.state, WState::Idle)) {
            self.assign_pending = true;
            // The dispatcher notices at its loop granularity and
            // serializes on its own core.
            let notice = ctx.now() + self.jitter(LOOP_GRANULARITY);
            let start = self.dispatcher_free_at.max(notice);
            self.dispatcher_free_at = start + DISPATCH_COST;
            self.dispatcher.charge(TimeClass::Dispatch, DISPATCH_COST);
            ctx.at(self.dispatcher_free_at, Ev::Assign);
        }
    }

    fn start_on(&mut self, worker: usize, task: Task, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        // Handoff: worker observes the assignment (cacheline transfer)
        // and switches onto the request context.
        let start = now + self.hw.fcontext_switch;
        self.ledger.obs.emit(
            now,
            Event::SwitchBegin {
                worker: worker as u16,
                fiber: task.fiber,
                resumed: task.preempted,
            },
        );
        self.ledger.obs.emit(
            start,
            Event::TaskStart {
                worker: worker as u16,
                fiber: task.fiber,
                resumed: task.preempted,
                switch_ns: start.since(now).as_nanos().min(u64::from(u32::MAX)) as u32,
            },
        );
        self.workers[worker].seq += 1;
        let seq = self.workers[worker].seq;
        let finish_ev = ctx.at(start + task.remaining, Ev::Finish { worker, seq });
        // The dispatcher will notice quantum expiry at loop granularity.
        let check_ev = (self.cfg.quantum != SimDur::MAX).then(|| {
            let poll = LOOP_GRANULARITY.as_nanos().max(1);
            let expiry = (start + self.cfg.quantum).as_nanos().div_ceil(poll) * poll;
            ctx.at(
                SimTime::from_nanos(expiry),
                Ev::QuantumCheck { worker, seq },
            )
        });
        self.workers[worker]
            .clock
            .charge(TimeClass::Dispatch, self.hw.fcontext_switch);
        self.workers[worker].state = WState::Running {
            task,
            started: start,
            finish_ev,
            check_ev,
        };
    }
}

impl Model for ShinjukuSystem {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Ev::Arrival => {
                let now = ctx.now();
                let (class, service) = self.spec.source.sample(now, &mut self.service_rng);
                self.ledger.arrived(now, class);
                if self.queue.len() >= QUEUE_CAPACITY {
                    self.ledger.dropped(now, class);
                } else {
                    self.queue.push_back(Task {
                        arrived: now,
                        remaining: service,
                        class,
                        fiber: (self.ledger.arrivals() - 1).min(u64::from(u32::MAX)) as u32,
                        preempted: false,
                    });
                    self.kick_dispatcher(ctx);
                }
                let next = self.arrivals_gen.next_arrival(now);
                if next < SimTime::ZERO + self.spec.duration {
                    ctx.at(next, Ev::Arrival);
                }
            }
            Ev::Assign => {
                self.assign_pending = false;
                let Some(task) = self.queue.pop_front() else {
                    return;
                };
                let idle = self
                    .workers
                    .iter()
                    .position(|w| matches!(w.state, WState::Idle));
                match idle {
                    Some(w) => {
                        self.start_on(w, task, ctx);
                        self.kick_dispatcher(ctx);
                    }
                    None => {
                        // Assignment raced: requeue at the head.
                        self.queue.push_front(task);
                    }
                }
            }
            Ev::Finish { worker, seq } => {
                if self.workers[worker].seq != seq {
                    return;
                }
                let state = std::mem::replace(&mut self.workers[worker].state, WState::Idle);
                let WState::Running {
                    task,
                    started,
                    check_ev,
                    ..
                } = state
                else {
                    return;
                };
                let now = ctx.now();
                if let Some(ev) = check_ev {
                    ctx.cancel(ev);
                }
                self.workers[worker]
                    .clock
                    .charge(TimeClass::Work, now.saturating_since(started));
                self.workers[worker].seq += 1;
                self.ledger
                    .finished(now, worker as u16, task.fiber, task.arrived, task.class);
                self.kick_dispatcher(ctx);
            }
            Ev::QuantumCheck { worker, seq } => {
                if self.workers[worker].seq != seq {
                    return;
                }
                // The dispatcher observed an overrun: send the posted
                // IPI from the dispatcher core.
                let icr = self.jitter(self.hw.apic_icr_write);
                self.dispatcher.charge(TimeClass::Preemption, icr);
                let delivery = self.jitter(self.hw.ipi_delivery);
                ctx.at(
                    ctx.now() + icr + delivery,
                    Ev::PreemptArrive { worker, seq },
                );
            }
            Ev::PreemptArrive { worker, seq } => {
                let now = ctx.now();
                let recv = PREEMPT_RECEIVER_COST + self.hw.fcontext_switch;
                if self.workers[worker].seq != seq {
                    self.ledger.spurious(now, worker as u16);
                    self.workers[worker]
                        .clock
                        .charge(TimeClass::Preemption, recv);
                    return;
                }
                let state = std::mem::replace(&mut self.workers[worker].state, WState::Switching);
                let WState::Running {
                    mut task,
                    started,
                    finish_ev,
                    ..
                } = state
                else {
                    self.workers[worker].state = state;
                    return;
                };
                ctx.cancel(finish_ev);
                let executed = now.saturating_since(started);
                let w = &mut self.workers[worker];
                w.clock.charge(TimeClass::Work, executed);
                w.clock.charge(TimeClass::Preemption, recv);
                w.seq += 1;
                task.remaining = task.remaining.saturating_sub(executed);
                if task.remaining.is_zero() {
                    // The IPI raced completion: treat as completed.
                    self.ledger
                        .finished(now, worker as u16, task.fiber, task.arrived, task.class);
                } else {
                    task.remaining += self.hw.switch_pollution;
                    self.ledger
                        .preempted(now, worker as u16, task.fiber, executed);
                    task.preempted = true;
                    // cFCFS: preempted work re-enters at the tail.
                    self.queue.push_back(task);
                }
                // The trampoline occupies this core for `recv`; other
                // idle workers may pick the requeued task meanwhile.
                ctx.at(now + recv, Ev::PreemptDone { worker });
                self.kick_dispatcher(ctx);
            }
            Ev::PreemptDone { worker } => {
                if matches!(self.workers[worker].state, WState::Switching) {
                    self.workers[worker].state = WState::Idle;
                    self.kick_dispatcher(ctx);
                }
            }
        }
    }
}

/// Runs Shinjuku on the given workload.
///
/// ```
/// use lp_baselines::shinjuku::{run_shinjuku, ShinjukuConfig};
/// use libpreemptible::{ServiceSource, WorkloadSpec};
/// use lp_sim::SimDur;
/// use lp_workload::{PhasedService, RateSchedule, ServiceDist};
///
/// let report = run_shinjuku(
///     ShinjukuConfig { workers: 2, ..ShinjukuConfig::default() },
///     WorkloadSpec {
///         source: ServiceSource::Phased(PhasedService::constant(ServiceDist::workload_b())),
///         arrivals: RateSchedule::Constant(50_000.0),
///         duration: SimDur::millis(50),
///         warmup: SimDur::millis(5),
///     },
/// );
/// assert!(report.is_conserved());
/// ```
pub fn run_shinjuku(cfg: ShinjukuConfig, spec: WorkloadSpec) -> RunReport {
    let name = if cfg.quantum == SimDur::MAX {
        "Shinjuku (no preemption)".to_string()
    } else {
        format!("Shinjuku (q={})", cfg.quantum)
    };
    let duration = spec.duration;
    let offered = spec.arrivals.peak_rate();
    // Arrival-rate hint: ~100 us of peak arrivals in flight plus
    // per-worker bookkeeping events (see lp_sim::EventQueue docs).
    let queue_hint = 64 + (offered * 1e-4) as usize;
    let model = ShinjukuSystem::new(cfg, spec);
    let mut sim = Simulation::with_capacity(model, queue_hint);
    sim.schedule_at(SimTime::ZERO, Ev::Arrival);
    sim.run_until(SimTime::ZERO + duration);
    let m = sim.into_model();
    let running: Vec<SimTime> = m
        .workers
        .iter()
        .filter_map(|w| match &w.state {
            WState::Running { task, .. } => Some(task.arrived),
            _ => None,
        })
        .collect();
    let end = RunEnd {
        system: name,
        offered_rps: offered,
        duration,
        in_flight: (m.queue.len() + running.len()) as u64,
        oldest_arrival: m.queue.iter().map(|t| t.arrived).chain(running).min(),
        per_worker: m.workers.into_iter().map(|w| w.clock).collect(),
        dispatcher: m.dispatcher.clone(),
        // The dispatcher core plays the timer core's part.
        timer_core: m.dispatcher,
        quantum_series: None,
        final_quantum: SimDur::ZERO,
    };
    m.ledger.into_report(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use libpreemptible::runtime::ServiceSource;
    use lp_workload::{PhasedService, RateSchedule, ServiceDist};

    fn spec(rate: f64, ms: u64, dist: ServiceDist) -> WorkloadSpec {
        WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(dist)),
            arrivals: RateSchedule::Constant(rate),
            duration: SimDur::millis(ms),
            warmup: SimDur::millis(ms / 10),
        }
    }

    #[test]
    fn conserves_and_completes_at_low_load() {
        let r = run_shinjuku(
            ShinjukuConfig::default(),
            spec(100_000.0, 100, ServiceDist::workload_b()),
        );
        assert!(r.is_conserved());
        assert!(r.completions > 8_000);
        assert!(r.median_us() < 20.0, "median {}", r.median_us());
    }

    #[test]
    fn preempts_long_requests() {
        let r = run_shinjuku(
            ShinjukuConfig {
                quantum: SimDur::micros(10),
                ..ShinjukuConfig::default()
            },
            spec(10_000.0, 50, ServiceDist::Constant(SimDur::micros(100))),
        );
        assert!(r.preemptions > 4 * r.completions, "{r:?}");
        assert!(r.is_conserved());
    }

    #[test]
    fn no_preemption_mode() {
        let r = run_shinjuku(
            ShinjukuConfig {
                quantum: SimDur::MAX,
                ..ShinjukuConfig::default()
            },
            spec(100_000.0, 50, ServiceDist::workload_b()),
        );
        assert_eq!(r.preemptions, 0);
        assert!(r.is_conserved());
    }

    #[test]
    fn deterministic() {
        let mk = || {
            run_shinjuku(
                ShinjukuConfig::default(),
                spec(300_000.0, 50, ServiceDist::workload_a1()),
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.latency.p99(), b.latency.p99());
    }

    #[test]
    fn phase_breakdown_sums_to_end_to_end_latency() {
        // Same tail-attribution contract as the runtime: the baseline's
        // event stream must keep every pinned exemplar's phase
        // breakdown summing exactly to its end-to-end latency.
        let r = run_shinjuku(
            ShinjukuConfig {
                quantum: SimDur::micros(10),
                ..ShinjukuConfig::default()
            },
            spec(10_000.0, 50, ServiceDist::Constant(SimDur::micros(100))),
        );
        assert_eq!(r.phases.end_to_end.count(), r.completions);
        let exemplars = r.phases.exemplars();
        assert!(!exemplars.is_empty(), "no exemplar pinned");
        for ex in &exemplars {
            assert_eq!(
                ex.phase_sum(),
                ex.latency_ns,
                "phase breakdown does not sum to latency: {ex:?}"
            );
        }
        // 100us tasks on a 10us quantum: the worst request visibly
        // pays switch overhead, and trace capture works when asked.
        use lp_sim::obs::Phase;
        let worst = r.worst_exemplar().unwrap();
        assert!(worst.phase(Phase::PreemptSwitch) > 0, "{worst:?}");
        let traced = run_shinjuku(
            ShinjukuConfig {
                quantum: SimDur::micros(10),
                trace_capacity: 4096,
                ..ShinjukuConfig::default()
            },
            spec(10_000.0, 50, ServiceDist::Constant(SimDur::micros(100))),
        );
        assert!(traced.events.iter().any(|te| te.ev.name() == "task_start"));
        assert!(traced.perfetto_json().contains("\"ph\":\"X\""));
    }

    #[test]
    fn preemption_helps_bimodal_tail_vs_run_to_completion() {
        let dist = ServiceDist::workload_a1();
        let rate = 1_000_000.0; // ~60% of 5 workers' capacity
        let pre = run_shinjuku(
            ShinjukuConfig {
                quantum: SimDur::micros(5),
                ..ShinjukuConfig::default()
            },
            spec(rate, 200, dist.clone()),
        );
        let non = run_shinjuku(
            ShinjukuConfig {
                quantum: SimDur::MAX,
                ..ShinjukuConfig::default()
            },
            spec(rate, 200, dist),
        );
        assert!(
            pre.p99_us() * 2.0 < non.p99_us(),
            "pre {} vs non {}",
            pre.p99_us(),
            non.p99_us()
        );
    }
}
