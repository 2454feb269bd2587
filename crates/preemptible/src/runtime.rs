//! The LibPreemptible runtime: the two-level scheduler of §III-F bound
//! to the simulated machine.
//!
//! Architecture (paper Figs. 5–6):
//!
//! * a **dispatcher** (network thread) receives requests and places them
//!   on per-worker local FIFO queues (join-shortest-queue);
//! * **workers** run requests on pooled contexts; when a request's
//!   deadline (quantum) expires, LibUtimer's timer core `SENDUIPI`s the
//!   worker, whose handler parks the context on the global running list
//!   and returns control to the local scheduler;
//! * the **timer core** polls the TSC against the registered deadline
//!   slots (simulated exactly, but without burning one event per poll
//!   iteration: the model computes the poll tick at which the scan would
//!   notice each armed deadline);
//! * every control period the window statistics roll up and the policy
//!   (possibly Algorithm 1's controller) adjusts the quantum.
//!
//! The same runtime runs all four preemption mechanisms of the paper's
//! comparison via [`PreemptMech`]: UINTR, the w/o-UINTR fallback
//! (Fig. 8's orange line), Libinger-style per-thread kernel timers, and
//! no preemption at all.

use std::collections::VecDeque;

use lp_hw::cpu::HogWindow;
use lp_hw::jitter::Jitter;
use lp_hw::uintr::{ReceiverState, SendOutcome, UintrDomain, Uitt};
use lp_hw::{CoreClock, HwCosts, TimeClass};
use lp_kernel::{KernelCosts, KernelTimer, SignalPath};
use lp_sim::fault::{
    CoreFault, FaultInjector, FaultKind, FaultPlan, IpiFault, SignalFault, TimerFault,
};
use lp_sim::obs::Event;
use lp_sim::rng::{rng, streams};
use lp_sim::{Ctx, EventId, Model, SimDur, SimTime, Simulation, Ticket};
use lp_stats::{TimeSeries, WindowStats, WindowSummary};
use lp_workload::{ArrivalGen, ColocatedWorkload, JobClass, PhasedService, RateSchedule};
use rand::rngs::SmallRng;

use crate::context::{Context, ContextId, ContextPool};
use crate::report::{Ledger, RunEnd, RunReport};
use crate::retry::{RetryInput, RetryMachine, RetryOutput, Tier, WatchdogConfig};
use crate::sched::{Dispatch, Enqueue, ResumeSel, SchedCtx, SchedPolicy, TaskView};
use crate::utimer::{SlotId, UtimerRegistry};

/// How workers get preempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptMech {
    /// LibUtimer + `SENDUIPI` (the paper's system).
    Uintr,
    /// LibUtimer's timer core, but delivery through kernel signals —
    /// the "disabled UINTR in LibUtimer" ablation of Fig. 8.
    TimerCoreSignal,
    /// Per-thread kernel timers + signals (the Libinger/libturquoise
    /// lineage): no timer core, but the kernel timer floor applies.
    KernelTimerSignal,
    /// No preemption (run to completion).
    None,
}

impl PreemptMech {
    /// `true` if a dedicated timer core is required.
    fn needs_timer_core(self) -> bool {
        matches!(self, PreemptMech::Uintr | PreemptMech::TimerCoreSignal)
    }
}

/// Where request classes and service times come from.
#[derive(Debug, Clone)]
pub enum ServiceSource {
    /// A (possibly time-phased) synthetic distribution; all requests
    /// are class 0.
    Phased(PhasedService),
    /// The §V-C colocation mix (class 0 = MICA LC, class 1 = zlib BE).
    Colocated(ColocatedWorkload),
}

impl ServiceSource {
    /// Draws the class and service time of a request arriving at `t`.
    pub fn sample(&self, t: SimTime, rng: &mut SmallRng) -> (u8, SimDur) {
        match self {
            ServiceSource::Phased(p) => (0, p.sample(t, rng)),
            ServiceSource::Colocated(c) => {
                let (class, service) = c.sample(rng);
                let class = match class {
                    JobClass::LatencyCritical => 0,
                    JobClass::BestEffort => 1,
                };
                (class, service)
            }
        }
    }
}

/// The offered load and its duration.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Request classes and service times.
    pub source: ServiceSource,
    /// Arrival rate over time.
    pub arrivals: RateSchedule,
    /// Hard stop: the simulation ends at this instant.
    pub duration: SimDur,
    /// Completions of requests that arrived before this instant are
    /// excluded from the latency statistics.
    pub warmup: SimDur,
}

/// Overload admission control (see `docs/CHAOS.md`).
///
/// When armed, the dispatcher consults the aggregate queue depth
/// before allocating a context: past [`queue_cap`](Self::queue_cap)
/// the request is shed outright, and while any worker's retry tier is
/// above healthy (brownout or degraded) the tighter
/// [`brownout_cap`](Self::brownout_cap) applies. Sheds count against
/// the run's drop total (arrival conservation holds) and emit the
/// typed [`Event::Shed`]; requests admitted *under pressure* emit
/// [`Event::Admitted`]. An armed-but-idle run — admission on, but no
/// queue ever past either cap and every worker healthy — is
/// byte-identical to a run with admission disabled.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Master switch; the default is disabled.
    pub enabled: bool,
    /// Hard cap on total backlogged requests (dispatcher backlog, all
    /// worker local queues, and parked — preempted but unfinished —
    /// fibers). At or past the cap, any class is shed.
    pub queue_cap: usize,
    /// Tighter cap applied while any worker's retry tier is above
    /// [`crate::retry::Tier::Healthy`]: brownout
    /// pressure sheds earlier to protect latency-critical work.
    pub brownout_cap: usize,
    /// Shed best-effort (class 1) early when the last control window's
    /// p99 exceeded the configured SLO and the queue is at least half
    /// the cap.
    pub slo_aware: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            queue_cap: 256,
            brownout_cap: 64,
            slo_aware: false,
        }
    }
}

/// Runtime configuration (machine + library parameters).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads, each pinned to its own core.
    pub workers: usize,
    /// Preemption mechanism. One that needs a timer core gets one
    /// busy-polling core unless [`HwCosts::poll_loop`] is zero.
    pub mech: PreemptMech,
    /// Hardware cost model.
    pub hw: HwCosts,
    /// Context-pool capacity (requests beyond it are dropped).
    pub pool_capacity: usize,
    /// Allow idle workers to steal from the longest sibling queue.
    pub work_stealing: bool,
    /// Master seed; every stochastic component derives a substream.
    pub seed: u64,
    /// Window roll / controller invocation period.
    pub control_period: SimDur,
    /// Record time series at this frame width.
    pub series_frame: Option<SimDur>,
    /// Latency SLO for violation tracking.
    pub slo: Option<SimDur>,
    /// Keep the last N typed trace events (see `lp_sim::obs` and
    /// `docs/TRACING.md`). 0 disables the event ring; the metrics
    /// counters in [`RunReport::metrics`](crate::RunReport) are always
    /// collected.
    pub trace_capacity: usize,
    /// Tail attribution (per-phase latency accounting, always-on
    /// histograms, and p99 exemplars in
    /// [`RunReport::phases`](crate::RunReport::phases)). Ships enabled;
    /// the off switch exists only so the benchmark's paired `attr`
    /// ablation can measure the accountant's overhead (see
    /// `docs/TRACING.md`).
    pub attribution: bool,
    /// Fault-injection plan (see `lp_sim::fault` and `docs/FAULTS.md`).
    /// The default plan is disabled, in which case no injector is
    /// built, no watchdog events are scheduled, and the run is
    /// byte-identical to one without the fault subsystem.
    pub faults: FaultPlan,
    /// Overload admission control; disabled by default. An armed but
    /// never-triggered admission gate leaves the run byte-identical to
    /// a run without it.
    pub admission: AdmissionConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            mech: PreemptMech::Uintr,
            hw: HwCosts::default(),
            pool_capacity: 16_384,
            work_stealing: true,
            seed: 1,
            control_period: SimDur::millis(100),
            series_frame: None,
            slo: None,
            trace_capacity: 0,
            attribution: true,
            faults: FaultPlan::disabled(),
            admission: AdmissionConfig::default(),
        }
    }
}

/// Dispatcher per-request processing cost.
const DISPATCH_COST: SimDur = SimDur::nanos(180);
/// Worker-side scheduling-decision cost per pick (and again per steal).
const PICK_COST: SimDur = SimDur::nanos(60);

/// Events of the runtime model. Public only because [`Model::Event`]
/// must name it; not part of the supported API.
#[doc(hidden)]
#[derive(Debug)]
pub enum Ev {
    /// Next request hits the network thread.
    Arrival,
    /// Dispatcher finished routing the head-of-line request.
    Dispatched,
    /// Worker `w` looks for its next task.
    Pick { worker: usize },
    /// The task started under `seq` on worker `w` runs to completion.
    Finish { worker: usize, seq: u64 },
    /// The timer core's poll loop reaches a tick with expired deadlines.
    TimerCheck,
    /// A per-thread kernel timer armed under `seq` expired.
    KtimerExpiry { worker: usize, seq: u64 },
    /// The preemption notification lands on worker `w`. `uintr` records
    /// whether it travelled the user-interrupt path (recovery probes
    /// need delivery-path attribution).
    PreemptArrive {
        worker: usize,
        seq: u64,
        uintr: bool,
    },
    /// Control period boundary: roll stats, run the controller.
    ControlTick,
    /// A scheduled lost-preemption check, armed only for retry sends
    /// (attempt > 0): once a loss is detected the streak advances on
    /// the deterministic backoff cadence instead of waiting for the
    /// next organic event or scan tick. The healthy path (attempt 0)
    /// never schedules one, so a fault-free run stays event-identical
    /// to a run without the fault subsystem.
    WatchdogCheck,
}

#[derive(Debug)]
enum WState {
    Idle,
    Running {
        ctx: ContextId,
        started: SimTime,
        finish: FinishEv,
    },
}

/// A running slice's `Finish`. Most preempted slices never need one: a
/// slice that can outlive its deadline's fire only *owes* its `Finish`,
/// holding the sequence number the push would have taken at dispatch,
/// and a sender files it under that number unless the preemption it
/// schedules lands strictly first. Either way the event pops exactly
/// where a push at dispatch would have.
#[derive(Debug, Clone, Copy)]
enum FinishEv {
    /// The `Finish` is in the event queue.
    Queued(EventId),
    /// Not yet pushed: due at `at`, ordered by `ticket`.
    Owed { at: SimTime, ticket: Ticket },
}

/// Outcome of one admission-gate evaluation: shed or admit, plus the
/// aggregate queue depth the decision saw (exported on the event).
#[derive(Debug, Clone, Copy)]
struct AdmissionVerdict {
    shed: bool,
    queued: u32,
}

/// One armed lost-preemption deadline: the send issued for `seq`
/// (attempt `attempt`) must be observed landed by `at` or the watchdog
/// re-sends it. Kept per worker (the latest send wins) instead of as a
/// per-send event so the healthy path stays cheap.
#[derive(Debug, Clone, Copy)]
struct WdArm {
    at: SimTime,
    seq: u64,
    attempt: u32,
}

/// Per-worker record, 64-byte aligned so adjacent workers in the
/// `Vec<Worker>` never share a cache line (mirroring the per-worker
/// deadline-cacheline layout of §IV-A). Fields are ordered hot-first:
/// every dispatched event touches `state`/`seq`/`local`, while the
/// fault-injection machinery at the bottom is only read when faults
/// are enabled.
#[repr(align(64))]
struct Worker {
    // --- hot: touched by every Finish/Preempt/dispatch event ---
    state: WState,
    /// Monotonic run sequence; stale Finish/Preempt events are detected
    /// by comparing against this.
    seq: u64,
    local: VecDeque<ContextId>,
    slot: SlotId,
    uitt_index: usize,
    clock: CoreClock,
    // --- cold: kernel-timer fallback, fault-injection, and health ---
    ktimer: KernelTimer,
    /// The armed kernel timer's pending `KtimerExpiry`, if any: a
    /// disarm cancels it (a disarmed `timer_settime` timer never
    /// fires), and the handler clears it when the expiry fires.
    ktimer_expiry: Option<EventId>,
    /// Fault-injected stall window; preemption arrivals are deferred
    /// past it. Always closed when injection is disabled.
    hog: HogWindow,
    /// The retry/degrade/recover health machine (`retry.rs`). Every
    /// loss-streak, degradation, and probe transition goes through its
    /// typed `step` — raw writes are rejected by the
    /// `retry-transition` lint.
    retry: RetryMachine,
    /// The armed lost-preemption deadline, if injection is enabled and
    /// a send is outstanding. Observed by the throttled scan driven
    /// from the event loop (see [`Model::handle`]).
    wd: Option<WdArm>,
}

struct PendingReq {
    arrived: SimTime,
    class: u8,
    service: SimDur,
}

/// The simulation model. Use [`run`] rather than driving it manually.
pub struct LibPreemptibleSystem {
    cfg: RuntimeConfig,
    /// Lost-preemption watchdog parameters, always the defaults;
    /// consulted only when fault injection is enabled.
    watchdog: WatchdogConfig,
    spec: WorkloadSpec,
    policy: Box<dyn SchedPolicy>,
    /// Scratch for per-worker queue depths handed to policy hooks
    /// (reused to keep the hot path allocation-free).
    depth_scratch: Vec<usize>,
    /// Last closed control window, exposed to policy hooks.
    last_window: Option<WindowSummary>,

    workers: Vec<Worker>,
    pool: ContextPool,
    registry: UtimerRegistry,
    /// Scratch for the slots one timer-core check fires (reused to keep
    /// the poll path allocation-free).
    fired: Vec<SlotId>,
    uintr: UintrDomain,
    timer_uitt: Uitt,
    timer_check: Option<(SimTime, EventId)>,
    /// Next lost-preemption scan tick, in nanos (`u64::MAX` when
    /// injection is disabled). Checked with one compare at the top of
    /// every handled event; arming and settling deadlines are plain
    /// field stores, so the healthy path pays no per-send bookkeeping
    /// at all. An armed watchdog's victim always has a pending
    /// current-seq `PreemptArrive` or `Finish`, which keeps events
    /// flowing until the scan runs.
    wd_scan_at: u64,
    /// Scan cadence (half the watchdog timeout): bounds detection
    /// lateness to `timeout * 1.5` after the send without making the
    /// scan rate scale with the send rate.
    wd_scan_period: u64,
    timer_clock: CoreClock,

    arrivals_gen: ArrivalGen,
    service_rng: SmallRng,
    /// Hardware delivery jitter, on a stream nothing else reads.
    hw_jitter: Jitter,
    /// The kernel cost model: the stock one, as in every experiment.
    kernel: KernelCosts,
    signal_path: SignalPath,
    /// Present iff `cfg.faults.enabled()`; every fault decision in the
    /// run is sampled here and passed down to hw/kernel as data.
    injector: Option<FaultInjector>,

    dispatch_free_at: SimTime,
    dispatch_queue: VecDeque<PendingReq>,
    dispatcher_clock: CoreClock,
    rr_cursor: usize,

    /// Request outcomes, latency views, and the cross-layer typed
    /// event trace + metrics registry.
    ledger: Ledger,
    /// The controller's window statistics (whole run).
    window: WindowStats,
    /// The quantum at every control tick.
    quantum_series: TimeSeries,
}

/// Copies the policy-visible, read-only view out of a live context.
fn task_view(id: ContextId, c: &Context) -> TaskView {
    TaskView {
        request: c.request,
        fiber: id.index() as u32,
        arrived: c.arrived,
        remaining: c.remaining,
        total: c.total,
        preemptions: c.preemptions,
        class: c.class,
    }
}

impl LibPreemptibleSystem {
    fn new(cfg: RuntimeConfig, spec: WorkloadSpec, policy: Box<dyn SchedPolicy>) -> Self {
        assert!(cfg.workers > 0, "need at least one worker");
        let kernel = KernelCosts::default();
        let watchdog = WatchdogConfig::default();
        let mut registry = UtimerRegistry::new();
        let mut uintr = UintrDomain::new();
        let mut timer_uitt = Uitt::new();
        let workers = (0..cfg.workers)
            .map(|_| {
                let slot = registry.register();
                let upid = uintr.register_receiver();
                // LibPreemptible's security posture (§VII-B): the only
                // UITT entries in the system connect the timer core to
                // the workers, vector 0 = "deadline expired".
                let uitt_index = timer_uitt.register(upid, 0);
                Worker {
                    state: WState::Idle,
                    local: VecDeque::new(),
                    slot,
                    uitt_index,
                    clock: CoreClock::new(),
                    seq: 0,
                    ktimer: KernelTimer::new(
                        kernel.clone(),
                        rng(cfg.seed, 100 + slot.index() as u64),
                    ),
                    ktimer_expiry: None,
                    hog: HogWindow::none(),
                    retry: RetryMachine::new(&watchdog),
                    wd: None,
                }
            })
            .collect();
        LibPreemptibleSystem {
            arrivals_gen: ArrivalGen::new(spec.arrivals.clone(), rng(cfg.seed, streams::ARRIVALS)),
            service_rng: rng(cfg.seed, streams::SERVICE),
            hw_jitter: Jitter::new(rng(cfg.seed, streams::HW_JITTER), cfg.hw.jitter_sigma),
            signal_path: SignalPath::new(kernel.clone(), rng(cfg.seed, streams::KERNEL_JITTER)),
            kernel,
            injector: cfg
                .faults
                .enabled()
                .then(|| FaultInjector::new(cfg.faults.clone(), cfg.seed)),
            pool: ContextPool::with_capacity(cfg.pool_capacity),
            registry,
            fired: Vec::with_capacity(cfg.workers),
            uintr,
            timer_uitt,
            timer_check: None,
            wd_scan_at: if cfg.faults.enabled() { 0 } else { u64::MAX },
            wd_scan_period: (watchdog.timeout.as_nanos() / 2).max(1),
            timer_clock: CoreClock::new(),
            dispatch_free_at: SimTime::ZERO,
            dispatch_queue: VecDeque::new(),
            dispatcher_clock: CoreClock::new(),
            rr_cursor: 0,
            ledger: Ledger::new(
                cfg.trace_capacity,
                cfg.attribution,
                spec.warmup,
                cfg.series_frame,
                cfg.slo,
            ),
            window: WindowStats::new(),
            quantum_series: TimeSeries::new(
                cfg.series_frame.unwrap_or(cfg.control_period).as_nanos(),
            ),
            depth_scratch: Vec::with_capacity(cfg.workers),
            last_window: None,
            workers,
            cfg,
            watchdog,
            spec,
            policy,
        }
    }

    /// Refills `depth_scratch` with the current per-worker local queue
    /// depths (the read-only view policy hooks receive).
    fn fill_depths(&mut self) {
        self.depth_scratch.clear();
        self.depth_scratch
            .extend(self.workers.iter().map(|w| w.local.len()));
    }

    fn jitter(&mut self, base: SimDur) -> SimDur {
        self.hw_jitter.sample(base)
    }

    /// Picks the shortest local queue (ties broken by a rotating
    /// cursor so no worker is systematically favored).
    fn shortest_queue(&mut self) -> usize {
        let n = self.workers.len();
        let start = self.rr_cursor;
        self.rr_cursor = (self.rr_cursor + 1) % n;
        let mut best = start % n;
        for off in 1..n {
            let i = (start + off) % n;
            if self.workers[i].local.len() < self.workers[best].local.len() {
                best = i;
            }
        }
        best
    }

    /// The first poll tick at or after deadline `d`: the instant the
    /// timer core's loop sees `d` expired.
    fn poll_tick(&self, d: SimTime) -> SimTime {
        let poll = self.cfg.hw.poll_loop.as_nanos();
        if poll == 0 {
            return d;
        }
        SimTime::from_nanos(d.as_nanos().div_ceil(poll) * poll)
    }

    /// The instant a deadline falling due at `due` (from
    /// [`Self::arm_deadline`]) fires: the timer core's next poll tick,
    /// or the kernel timer's expiry itself. Never before `due`.
    fn fire_instant(&self, due: SimTime) -> SimTime {
        if self.cfg.mech.needs_timer_core() {
            self.poll_tick(due)
        } else {
            due
        }
    }

    /// Re-schedules the timer-core check for the earliest armed
    /// deadline, quantized up to the poll-loop granularity.
    fn update_timer_check(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if !self.cfg.mech.needs_timer_core() {
            return;
        }
        let desired = self
            .registry
            .next_deadline()
            .map(|d| self.poll_tick(d).max(ctx.now()));
        match (desired, self.timer_check) {
            (None, Some((_, ev))) => {
                ctx.cancel(ev);
                self.timer_check = None;
            }
            (Some(t), Some((cur, ev))) if t < cur => {
                ctx.cancel(ev);
                let ev = ctx.at(t, Ev::TimerCheck);
                self.timer_check = Some((t, ev));
            }
            (Some(t), None) => {
                let ev = ctx.at(t, Ev::TimerCheck);
                self.timer_check = Some((t, ev));
            }
            _ => {}
        }
    }

    /// Arms the preemption deadline for a task starting at `start` with
    /// quantum `q`. Returns the extra start-up cost charged to the
    /// worker (the kernel-timer path arms via syscall) and, if the
    /// deadline can fire, the instant it falls due: the armed deadline
    /// (the timer core sees it at [`Self::fire_instant`]) or the kernel
    /// timer's sampled expiry.
    fn arm_deadline(
        &mut self,
        worker: usize,
        start: SimTime,
        q: SimDur,
        ctx: &mut Ctx<'_, Ev>,
    ) -> (SimDur, Option<SimTime>) {
        if q == SimDur::MAX || self.cfg.mech == PreemptMech::None {
            return (SimDur::ZERO, None);
        }
        let seq = self.workers[worker].seq;
        match self.cfg.mech {
            PreemptMech::Uintr | PreemptMech::TimerCoreSignal => {
                let slot = self.workers[worker].slot;
                self.registry
                    .arm_observed(slot, start + q, start, &mut self.ledger.obs);
                self.update_timer_check(ctx);
                // utimer_arm_deadline is one cache-line write (which
                // can bounce with the timer core's polling reads).
                (self.cfg.hw.deadline_arm, Some(start + q))
            }
            PreemptMech::KernelTimerSignal => {
                let fault = self
                    .injector
                    .as_mut()
                    .and_then(|i| i.timer_at(start.as_nanos()));
                self.note_fault(start, worker, fault.map(TimerFault::kind));
                let w = &mut self.workers[worker];
                w.ktimer
                    .arm_observed(q, worker as u16, start, &mut self.ledger.obs);
                // Record the expiry at its modelled fire instant now,
                // whether or not it fires: a disarm before that instant
                // cancels the event, so it never reaches `handle`. The
                // expiry's signal send arms the watchdog.
                let actual = w.ktimer.sample_expiry_with_fault_observed(
                    fault,
                    worker as u16,
                    start,
                    &mut self.ledger.obs,
                );
                let cost = w.ktimer.arm_cost();
                let due = actual.map(|delay| start + delay);
                match actual {
                    Some(delay) => {
                        self.workers[worker].ktimer_expiry =
                            Some(ctx.at(start + delay, Ev::KtimerExpiry { worker, seq }));
                        if matches!(fault, Some(TimerFault::Spurious)) {
                            // The extra fire lands after the real one has
                            // been handled, so its sequence number is
                            // guaranteed stale: the handler runs for
                            // nothing (`spurious_preempt`).
                            ctx.at(
                                start + delay + delay,
                                Ev::PreemptArrive {
                                    worker,
                                    seq: u64::MAX,
                                    uintr: false,
                                },
                            );
                        }
                    }
                    None => {
                        // The kernel lost the arming: no expiry will ever
                        // fire. The watchdog recovers from roughly where
                        // the fire should have been.
                        let expected = q.max(self.kernel.timer_floor);
                        self.arm_watchdog(worker, seq, start + expected, 0, ctx);
                    }
                }
                (cost, due)
            }
            PreemptMech::None => (SimDur::ZERO, None),
        }
    }

    fn disarm_deadline(&mut self, worker: usize, ctx: &mut Ctx<'_, Ev>) {
        match self.cfg.mech {
            PreemptMech::Uintr | PreemptMech::TimerCoreSignal => {
                let slot = self.workers[worker].slot;
                self.registry
                    .disarm_observed(slot, ctx.now(), &mut self.ledger.obs);
                self.update_timer_check(ctx);
            }
            PreemptMech::KernelTimerSignal => {
                let w = &mut self.workers[worker];
                w.ktimer.disarm();
                if let Some(expiry) = w.ktimer_expiry.take() {
                    ctx.cancel(expiry);
                }
            }
            PreemptMech::None => {}
        }
    }

    /// Receiver-side cost of taking a preemption notification.
    fn preempt_receive_cost(&mut self) -> SimDur {
        match self.cfg.mech {
            PreemptMech::Uintr => self.cfg.hw.uintr_handler,
            PreemptMech::TimerCoreSignal | PreemptMech::KernelTimerSignal => {
                self.kernel.signal_handler + self.kernel.ctx_switch
            }
            PreemptMech::None => SimDur::ZERO,
        }
    }

    /// Retires the finished context `id` of `worker`: records the
    /// completion and tells the policy.
    fn finish_task(&mut self, worker: usize, id: ContextId, now: SimTime) {
        let tv = task_view(id, self.pool.get(id));
        self.pool.release(id);
        self.ledger
            .finished(now, worker as u16, tv.fiber, tv.arrived, tv.class);
        self.window.on_completion(now.since(tv.arrived).as_nanos());
        self.window.on_service_sample(tv.total.as_nanos());
        self.policy.task_finished(&tv);
    }

    fn start_task(&mut self, worker: usize, id: ContextId, resumed: bool, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        let (remaining, tv) = {
            let c = self.pool.get(id);
            (c.remaining, task_view(id, c))
        };
        debug_assert!(!remaining.is_zero(), "starting a completed context");
        let switch = self.cfg.hw.fcontext_switch;
        self.workers[worker].clock.charge_observed(
            TimeClass::Dispatch,
            PICK_COST + switch,
            &mut self.ledger.obs,
        );
        // The switch toward this fiber begins now; `TaskStart` (stamped
        // at the actual start instant) closes the window and carries
        // its duration, so the phase accountant charges pick +
        // fcontext-switch (+ arming) to `preempt_switch` from that one
        // event.
        self.ledger.obs.emit(
            now,
            Event::SwitchBegin {
                worker: worker as u16,
                fiber: id.index() as u32,
                resumed,
            },
        );
        let mut start = now + PICK_COST + switch;

        self.workers[worker].seq += 1;
        self.fill_depths();
        let q = {
            let queued: usize = self.depth_scratch.iter().sum();
            let mut sctx = SchedCtx {
                now,
                queue_depths: &self.depth_scratch,
                runnable: queued,
                parked: self.pool.parked(),
                window: self.last_window.as_ref(),
                obs: &mut self.ledger.obs,
            };
            self.policy.time_slice(&tv, &mut sctx)
        };
        if q != SimDur::MAX && self.cfg.mech != PreemptMech::None {
            self.ledger.obs.emit(
                start,
                Event::SliceGranted {
                    worker: worker as u16,
                    fiber: id.index() as u32,
                    slice_ns: q.as_nanos(),
                },
            );
        }
        let (arm_extra, due) = self.arm_deadline(worker, start, q, ctx);
        if !arm_extra.is_zero() {
            self.workers[worker].clock.charge_observed(
                TimeClass::Kernel,
                arm_extra,
                &mut self.ledger.obs,
            );
            start += arm_extra;
        }

        let mut remaining = remaining;
        let hog = self
            .injector
            .as_mut()
            .and_then(|i| i.core_at(start.as_nanos()));
        self.note_fault(start, worker, hog.map(CoreFault::kind));
        if let Some(CoreFault::Hog(stall)) = hog {
            // The core stalls mid-slice: the fiber burns `stall` extra
            // on-CPU time and no preemption can land inside the window.
            self.workers[worker].hog.begin(start, stall);
            self.pool.get_mut(id).remaining += stall;
            remaining += stall;
        }

        // The `Finish` takes its place in the tie-break order now, but
        // is pushed only if nothing can preempt the slice before it: a
        // slice that outlives its deadline's fire owes it to the sender
        // (`settle_finish`). The first compare skips the poll-tick
        // rounding for slices that end before their deadline is due.
        let at = start + remaining;
        let ticket = ctx.reserve();
        let finish = if due.is_some_and(|due| at > due && at > self.fire_instant(due)) {
            FinishEv::Owed { at, ticket }
        } else {
            let seq = self.workers[worker].seq;
            FinishEv::Queued(ctx.at_reserved(at, ticket, Ev::Finish { worker, seq }))
        };
        self.workers[worker].state = WState::Running {
            ctx: id,
            started: start,
            finish,
        };
        self.ledger.obs.emit(
            start,
            Event::TaskStart {
                worker: worker as u16,
                fiber: id.index() as u32,
                resumed,
                switch_ns: start.since(now).as_nanos().min(u64::from(u32::MAX)) as u32,
            },
        );
    }

    fn handle_pick(&mut self, worker: usize, ctx: &mut Ctx<'_, Ev>) {
        if !matches!(self.workers[worker].state, WState::Idle) {
            return; // stale pick
        }
        let own = self.workers[worker].local.len();
        let stealable = if self.cfg.work_stealing {
            self.workers
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != worker)
                .map(|(_, w)| w.local.len())
                .max()
                .unwrap_or(0)
        } else {
            0
        };
        let new_waiting = own + if own == 0 { stealable } else { 0 };
        self.fill_depths();
        let decision = {
            let mut sctx = SchedCtx {
                now: ctx.now(),
                queue_depths: &self.depth_scratch,
                runnable: new_waiting,
                parked: self.pool.parked(),
                window: self.last_window.as_ref(),
                obs: &mut self.ledger.obs,
            };
            self.policy.dispatch(worker, &mut sctx)
        };
        match decision {
            Dispatch::New => {
                let id = if let Some(id) = self.workers[worker].local.pop_front() {
                    id
                } else {
                    // Steal from the longest sibling queue.
                    let victim = self
                        .workers
                        .iter()
                        .enumerate()
                        .filter(|(i, w)| *i != worker && !w.local.is_empty())
                        .max_by_key(|(_, w)| w.local.len())
                        .map(|(i, _)| i);
                    match victim {
                        Some(v) => {
                            // Stealing touches a remote queue: extra cost.
                            self.workers[worker].clock.charge_observed(
                                TimeClass::Dispatch,
                                PICK_COST,
                                &mut self.ledger.obs,
                            );
                            self.workers[v].local.pop_back().expect("victim non-empty")
                        }
                        None => return, // raced away
                    }
                };
                self.start_task(worker, id, false, ctx);
            }
            Dispatch::Parked(sel) => {
                let id = match sel {
                    ResumeSel::Fifo => self.pool.take_parked(),
                    ResumeSel::MinKey => {
                        let policy = &self.policy;
                        self.pool
                            .take_parked_min_by_key(|id, c| policy.resume_key(&task_view(id, c)))
                    }
                };
                if let Some(id) = id {
                    self.start_task(worker, id, true, ctx)
                }
            }
            Dispatch::Idle => {}
        }
    }

    fn deliver_preemptions(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        let mut fired = std::mem::take(&mut self.fired);
        self.registry
            .expired_observed(now, &mut fired, &mut self.ledger.obs);
        let mut issue_at = now;
        for &slot in &fired {
            // Slot i belongs to worker i (`new`), and a slot stays armed
            // only while its worker runs the seq that armed it: finish
            // and landing both disarm before `seq` moves.
            let worker = slot.index();
            let seq = self.workers[worker].seq;
            debug_assert!(
                matches!(self.workers[worker].state, WState::Running { .. })
                    && self.workers[worker].slot == slot,
                "slot {slot:?} fired for a worker not running its armed seq"
            );
            let verdict = match self.cfg.mech {
                PreemptMech::Uintr => self.workers[worker].retry.step(RetryInput::Send { seq }),
                // Signal-only delivery has no UINTR path to degrade, so
                // it never steps the retry machine.
                PreemptMech::TimerCoreSignal => RetryOutput::Signal,
                _ => unreachable!("timer core disabled for {:?}", self.cfg.mech),
            };
            if verdict == RetryOutput::Signal {
                // The timer core tgkill()s the worker (a degraded UINTR
                // worker off its probe turn, or every worker without
                // UINTR); the kernel signal path serializes and jitters
                // delivery.
                self.send_preempt_signal(worker, seq, issue_at, 0, ctx);
                issue_at += self.kernel.syscall;
            } else {
                // The timer core executes SENDUIPI per target, serially.
                // A degraded worker gets here only on its probe turns.
                let issue = self.jitter(self.cfg.hw.senduipi_issue);
                issue_at += issue;
                self.timer_clock.charge_observed(
                    TimeClass::Preemption,
                    issue,
                    &mut self.ledger.obs,
                );
                let probe = verdict == RetryOutput::Probe;
                self.send_preempt_uipi(worker, seq, issue_at, 0, probe, ctx);
            }
        }
        self.fired = fired;
        self.update_timer_check(ctx);
    }

    /// Sends one preemption over UINTR at `at` (the `SENDUIPI` retire
    /// instant), applying a freshly sampled fault decision, and arms the
    /// watchdog when injection is enabled. `repair` clears the
    /// receiver's `SN` bit first — retries and probes use it to undo a
    /// stuck-suppress fault.
    fn send_preempt_uipi(
        &mut self,
        worker: usize,
        seq: u64,
        at: SimTime,
        attempt: u32,
        repair: bool,
        ctx: &mut Ctx<'_, Ev>,
    ) {
        self.ledger.obs.emit(
            at,
            Event::PreemptIssued {
                worker: worker as u16,
                seq,
                attempt: attempt.min(u32::from(u8::MAX)) as u8,
                uintr: true,
            },
        );
        let fault = self.injector.as_mut().and_then(|i| i.ipi_at(at.as_nanos()));
        self.note_fault(at, worker, fault.map(IpiFault::kind));
        let entry = self
            .timer_uitt
            .get(self.workers[worker].uitt_index)
            .expect("timer UITT entry");
        if repair {
            let _ = self.uintr.set_suppress(entry.upid, false);
        }
        // Workers are on-CPU; the architectural fast path.
        let outcome = self
            .uintr
            .senduipi_with_fault_observed(
                entry,
                ReceiverState::RunningUifSet,
                fault,
                worker as u16,
                at,
                &mut self.ledger.obs,
            )
            .expect("live UPID");
        let mut arrive = None;
        if outcome == SendOutcome::NotifiedRunning {
            let mut delivery = self.jitter(self.cfg.hw.uintr_delivery_running);
            if let Some(IpiFault::Delay(extra)) = fault {
                delivery += extra;
            }
            // The PUIR is acknowledged the instant the interrupt
            // lands; stamp the delivery event there so the trace
            // reads in causal order.
            self.uintr
                .acknowledge_observed(
                    entry.upid,
                    worker as u16,
                    at + delivery,
                    &mut self.ledger.obs,
                )
                .expect("live UPID");
            ctx.at(
                at + delivery,
                Ev::PreemptArrive {
                    worker,
                    seq,
                    uintr: true,
                },
            );
            arrive = Some(at + delivery);
        }
        // Any other outcome is a lost preemption; the watchdog notices.
        self.settle_finish(worker, seq, arrive, ctx);
        if self.injector.is_some() {
            self.arm_watchdog(worker, seq, at, attempt, ctx);
        }
    }

    /// Sends one preemption through the kernel signal path at `at`,
    /// applying a freshly sampled fault decision, and arms the watchdog
    /// when injection is enabled. Carries every signal the runtime
    /// sends: the timer core's `tgkill` (`TimerCoreSignal`, and
    /// degraded UINTR workers), the kernel timer's expiry
    /// (`KernelTimerSignal`), and every signal-path retry.
    fn send_preempt_signal(
        &mut self,
        worker: usize,
        seq: u64,
        at: SimTime,
        attempt: u32,
        ctx: &mut Ctx<'_, Ev>,
    ) {
        self.ledger.obs.emit(
            at,
            Event::PreemptIssued {
                worker: worker as u16,
                seq,
                attempt: attempt.min(u32::from(u8::MAX)) as u8,
                uintr: false,
            },
        );
        let fault = self
            .injector
            .as_mut()
            .and_then(|i| i.signal_at(at.as_nanos()));
        self.note_fault(at, worker, fault.map(SignalFault::kind));
        if self.cfg.mech == PreemptMech::Uintr {
            // The signal handler of a degraded worker drains whatever
            // the failed UINTR sends left posted in the UPID (e.g. a
            // stale-NDST vector whose `ON` bit blocks later probes).
            let entry = self
                .timer_uitt
                .get(self.workers[worker].uitt_index)
                .expect("timer UITT entry");
            if self
                .uintr
                .upid(entry.upid)
                .is_some_and(|u| u.outstanding || u.pending != 0)
            {
                let _ = self.uintr.acknowledge(entry.upid);
            }
        }
        let delivered = self.signal_path.deliver_with_fault_observed(
            at,
            fault,
            worker as u16,
            &mut self.ledger.obs,
        );
        if let Some(d) = delivered {
            if self.cfg.mech.needs_timer_core() {
                self.timer_clock.charge_observed(
                    TimeClass::Preemption,
                    d.sender_busy,
                    &mut self.ledger.obs,
                );
            } else {
                // No timer core: the sender is the kernel timer
                // softirq, so its send work lands on the victim's core.
                self.workers[worker].clock.charge_observed(
                    TimeClass::Kernel,
                    d.sender_busy,
                    &mut self.ledger.obs,
                );
            }
            ctx.at(
                d.handler_start,
                Ev::PreemptArrive {
                    worker,
                    seq,
                    uintr: false,
                },
            );
        }
        // A lost signal schedules nothing; the watchdog recovers it.
        self.settle_finish(worker, seq, delivered.map(|d| d.handler_start), ctx);
        if self.injector.is_some() {
            self.arm_watchdog(worker, seq, at, attempt, ctx);
        }
    }

    /// Called by both senders after a send for `seq`, which is always
    /// the running slice's: pushes `worker`'s owed `Finish` under its
    /// reserved ticket unless `arrive`, the instant of the
    /// `PreemptArrive` the send just scheduled (`None` if it was lost),
    /// is strictly before it. Such an arrival lands first, since only a
    /// landing or the `Finish` ends the slice and a core hog defers it
    /// at most to the stall's end, which precedes the `Finish`; so an
    /// owed `Finish` that is never pushed is one the landing would have
    /// cancelled.
    fn settle_finish(
        &mut self,
        worker: usize,
        seq: u64,
        arrive: Option<SimTime>,
        ctx: &mut Ctx<'_, Ev>,
    ) {
        let w = &mut self.workers[worker];
        debug_assert_eq!(w.seq, seq, "send for a finished slice");
        if let WState::Running { finish, .. } = &mut w.state {
            if let FinishEv::Owed { at, ticket } = *finish {
                if arrive.is_some_and(|t| t < at) {
                    return;
                }
                *finish = FinishEv::Queued(ctx.at_reserved(at, ticket, Ev::Finish { worker, seq }));
            }
        }
    }

    /// Emits [`Event::FaultInjected`] at `at` for `worker` when the
    /// fault decision just drawn there injected `kind`.
    fn note_fault(&mut self, at: SimTime, worker: usize, kind: Option<FaultKind>) {
        if let Some(kind) = kind {
            self.ledger.obs.emit(
                at,
                Event::FaultInjected {
                    worker: worker as u16,
                    kind: kind as u8,
                },
            );
        }
    }

    /// Arms the lost-preemption deadline for a send issued at `issued`.
    /// Callers gate on `self.injector.is_some()` so disabled runs
    /// record nothing. For first sends (attempt 0 — the healthy path)
    /// the deadline lives in the worker (latest send wins): one field
    /// store, no event, no heap traffic, no global bookkeeping. The
    /// throttled scan driven from [`Model::handle`] notices a deadline
    /// within half a timeout of it passing — an armed deadline's victim
    /// always has a pending current-seq `PreemptArrive` or `Finish`
    /// (the send that armed it either scheduled the arrival or pushed
    /// the owed `Finish`, and the kernel timer's lost arming pushes the
    /// `Finish` at dispatch), so a due deadline can never sleep past
    /// the end of the run. Retries (attempt > 0) are already on the
    /// faulty path, so they also schedule a precise [`Ev::WatchdogCheck`]:
    /// once a loss streak starts it advances on the backoff cadence,
    /// not the accident of scan or event timing.
    #[inline]
    fn arm_watchdog(
        &mut self,
        worker: usize,
        seq: u64,
        issued: SimTime,
        attempt: u32,
        ctx: &mut Ctx<'_, Ev>,
    ) {
        let at = issued + self.watchdog.timeout;
        self.workers[worker].wd = Some(WdArm { at, seq, attempt });
        if attempt > 0 {
            ctx.at(at, Ev::WatchdogCheck);
        }
    }

    /// Runs the lost-preemption check for every worker whose armed
    /// deadline passed, then schedules the next scan tick. Called from
    /// the event loop whenever the sim clock reaches `wd_scan_at`, and
    /// directly by [`Ev::WatchdogCheck`] retry events; safe to call
    /// early or repeatedly (due deadlines are taken before their
    /// checks run, and a scan that finds nothing due is four loads).
    #[cold]
    fn check_watchdogs(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        for worker in 0..self.workers.len() {
            let due = match self.workers[worker].wd {
                Some(a) if a.at <= now => {
                    self.workers[worker].wd = None;
                    Some(a)
                }
                _ => None,
            };
            if let Some(a) = due {
                self.handle_watchdog(worker, a.seq, a.attempt, ctx);
            }
        }
        self.wd_scan_at = now.as_nanos() + self.wd_scan_period;
    }

    /// The watchdog deadline for the preemption issued under `seq`
    /// passed. If the victim moved on (preempted or finished) the send
    /// landed: record the success and possibly complete a recovery
    /// probe. Otherwise the preemption is lost: re-send with capped
    /// exponential backoff, degrading to the signal path after enough
    /// consecutive losses.
    #[cold]
    fn handle_watchdog(&mut self, worker: usize, seq: u64, attempt: u32, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        let lost = self.workers[worker].seq == seq
            && matches!(self.workers[worker].state, WState::Running { .. });
        if !lost {
            // The victim moved on: the send landed another way or the
            // task finished. Settle the streak (and any probe).
            self.workers[worker].retry.step(RetryInput::Settled { seq });
            return;
        }
        let can_degrade = self.cfg.mech == PreemptMech::Uintr;
        match self.workers[worker]
            .retry
            .step(RetryInput::Lost { seq, can_degrade })
        {
            RetryOutput::Degrade { losses } => {
                self.ledger.obs.emit(
                    now,
                    Event::MechDegraded {
                        worker: worker as u16,
                        losses: losses.min(u32::from(u8::MAX)) as u8,
                    },
                );
                self.send_preempt_signal(worker, seq, now, attempt + 1, ctx);
            }
            RetryOutput::Brownout { losses } => {
                // Intermediate tier: the worker is visibly losing
                // preemptions but has not yet earned the signal-path
                // degrade. Announce the pressure (admission control
                // keys off it) and re-send over UINTR with SN repair,
                // exactly like `Retry { uintr: true }`.
                self.ledger.obs.emit(
                    now,
                    Event::MechBrownout {
                        worker: worker as u16,
                        losses: losses.min(u32::from(u8::MAX)) as u8,
                    },
                );
                let delay = self.watchdog.backoff.delay(attempt);
                self.ledger.obs.emit(
                    now,
                    Event::PreemptRetry {
                        worker: worker as u16,
                        seq,
                        attempt: attempt.min(u32::from(u8::MAX)) as u8,
                        delay_ns: delay.as_nanos(),
                    },
                );
                self.send_preempt_uipi(worker, seq, now + delay, attempt + 1, true, ctx);
            }
            RetryOutput::Retry { uintr } => {
                let delay = self.watchdog.backoff.delay(attempt);
                self.ledger.obs.emit(
                    now,
                    Event::PreemptRetry {
                        worker: worker as u16,
                        seq,
                        attempt: attempt.min(u32::from(u8::MAX)) as u8,
                        delay_ns: delay.as_nanos(),
                    },
                );
                let at = now + delay;
                if uintr {
                    self.send_preempt_uipi(worker, seq, at, attempt + 1, true, ctx);
                } else {
                    // Degraded workers, failed probes, and the
                    // signal-based mechanisms all retry through the
                    // kernel signal path.
                    self.send_preempt_signal(worker, seq, at, attempt + 1, ctx);
                }
            }
            other => unreachable!("Lost verdict is Degrade, Brownout, or Retry, got {other:?}"),
        }
    }

    fn handle_preempt_arrive(
        &mut self,
        worker: usize,
        seq: u64,
        uintr: bool,
        ctx: &mut Ctx<'_, Ev>,
    ) {
        let now = ctx.now();
        if self.workers[worker].hog.active(now) {
            // Fault-injected core stall: the interrupt cannot be
            // serviced until the window closes. `defer` is strictly
            // after `now` while the window is active.
            let at = self.workers[worker].hog.defer(now);
            ctx.at(at, Ev::PreemptArrive { worker, seq, uintr });
            return;
        }
        let recv_cost = self.preempt_receive_cost();
        let w_seq = self.workers[worker].seq;
        let current = w_seq == seq && matches!(self.workers[worker].state, WState::Running { .. });
        if current {
            self.ledger.obs.emit(
                now,
                Event::PreemptLanded {
                    worker: worker as u16,
                    seq,
                    uintr,
                },
            );
            // The machine settles the loss streak; a recovery probe
            // coming back over the user-interrupt path means the
            // fabric healed.
            let verdict = self.workers[worker]
                .retry
                .step(RetryInput::Landed { seq, uintr });
            if verdict == RetryOutput::Recovered {
                self.ledger.obs.emit(
                    now,
                    Event::MechRecovered {
                        worker: worker as u16,
                    },
                );
            }
        }
        match &mut self.workers[worker].state {
            WState::Running {
                ctx: id,
                started,
                finish,
            } if w_seq == seq => {
                let id = *id;
                let started_at = *started;
                if let FinishEv::Queued(ev) = *finish {
                    ctx.cancel(ev);
                }
                debug_assert!(started_at <= now);
                let executed = now.saturating_since(started_at);
                let w = &mut self.workers[worker];
                w.clock
                    .charge_observed(TimeClass::Work, executed, &mut self.ledger.obs);
                w.clock.charge_observed(
                    TimeClass::Preemption,
                    recv_cost + self.cfg.hw.fcontext_switch,
                    &mut self.ledger.obs,
                );
                w.seq += 1;
                w.state = WState::Idle;
                // The send landed: retire its watchdog deadline before
                // the next send overwrites it (the sweep would only see
                // the overwrite), keeping the loss streak strictly
                // consecutive. The retry machine already settled the
                // streak (and any probe) in the `Landed` step above.
                if w.wd.is_some_and(|a| a.seq == seq) {
                    w.wd = None;
                }
                {
                    let c = self.pool.get_mut(id);
                    c.remaining = c.remaining.saturating_sub(executed);
                    if c.remaining.is_zero() {
                        // Preemption landed exactly at completion:
                        // treat as completed.
                        self.finish_task(worker, id, now);
                    } else {
                        // Cache/TLB pollution: the resumed computation
                        // will take a bit longer.
                        let c = self.pool.get_mut(id);
                        c.remaining += self.cfg.hw.switch_pollution;
                        self.pool.park(id);
                        self.ledger
                            .preempted(now, worker as u16, id.index() as u32, executed);
                        let tv = task_view(id, self.pool.get(id));
                        self.policy.task_preempted(&tv, executed);
                    }
                }
                self.disarm_deadline(worker, ctx);
                ctx.at(
                    now + recv_cost + self.cfg.hw.fcontext_switch,
                    Ev::Pick { worker },
                );
            }
            WState::Running {
                ctx: running_ctx,
                started,
                finish,
            } => {
                // Stale delivery raced a completion: the handler still
                // runs, stealing `recv_cost` from whatever the worker
                // now executes. Shift the current run (start and
                // finish) by the handler cost so executed-time math
                // stays consistent. The shifted `Finish` takes a fresh
                // place in the tie-break order, queued or owed.
                *started += recv_cost;
                let at = *started + self.pool.get(*running_ctx).remaining;
                *finish = match *finish {
                    FinishEv::Queued(ev) => {
                        ctx.cancel(ev);
                        FinishEv::Queued(ctx.at(at, Ev::Finish { worker, seq: w_seq }))
                    }
                    FinishEv::Owed { .. } => FinishEv::Owed {
                        at,
                        ticket: ctx.reserve(),
                    },
                };
                self.ledger.spurious(now, worker as u16);
                self.workers[worker].clock.charge_observed(
                    TimeClass::Preemption,
                    recv_cost,
                    &mut self.ledger.obs,
                );
            }
            WState::Idle => {
                // Spurious delivery to an idle worker: handler cost only.
                self.ledger.spurious(now, worker as u16);
                self.workers[worker].clock.charge_observed(
                    TimeClass::Preemption,
                    recv_cost,
                    &mut self.ledger.obs,
                );
            }
        }
    }

    /// Evaluates the admission gate for a request of `class` about to
    /// be dispatched. `None` means the gate is idle (no overload, no
    /// mechanism pressure): nothing is emitted and the run stays
    /// byte-identical to one with admission disabled. `Some` carries
    /// the shed/admit decision plus the queue depth it was based on.
    ///
    /// The gate reads only existing state — queue lengths, retry tiers,
    /// the last control window — and never samples RNG, so arming it
    /// costs no stream draws.
    fn admission_verdict(&self, class: u8) -> Option<AdmissionVerdict> {
        // Backlog = everything not currently executing: the dispatcher
        // queue, worker local queues, and parked fibers. Under a
        // preemptive policy the overload mass sits in the parked set
        // (every quantum expiry parks the fiber again), so leaving it
        // out would blind the gate exactly when it matters.
        let queued = self.dispatch_queue.len()
            + self.workers.iter().map(|w| w.local.len()).sum::<usize>()
            + self.pool.parked();
        let depth = u32::try_from(queued).unwrap_or(u32::MAX);
        let adm = &self.cfg.admission;
        let pressured = self.workers.iter().any(|w| w.retry.tier() > Tier::Healthy);
        let cap = if pressured {
            adm.brownout_cap.min(adm.queue_cap)
        } else {
            adm.queue_cap
        };
        if queued >= cap {
            return Some(AdmissionVerdict {
                shed: true,
                queued: depth,
            });
        }
        if adm.slo_aware && class == 1 && queued >= adm.queue_cap / 2 {
            if let (Some(slo), Some(win)) = (self.cfg.slo, self.last_window.as_ref()) {
                if win.p99_ns > slo.as_nanos() {
                    return Some(AdmissionVerdict {
                        shed: true,
                        queued: depth,
                    });
                }
            }
        }
        // Below every cap: the gate only speaks when the mechanism is
        // under visible pressure, so a healthy armed run stays silent.
        pressured.then_some(AdmissionVerdict {
            shed: false,
            queued: depth,
        })
    }

    fn handle_finish(&mut self, worker: usize, seq: u64, ctx: &mut Ctx<'_, Ev>) {
        // Every run that ends by a landing cancels its queued `Finish`
        // (or never pushed it), so only a current one reaches here.
        debug_assert_eq!(
            self.workers[worker].seq, seq,
            "stale Finish fired (worker {worker})"
        );
        let WState::Running {
            ctx: id, started, ..
        } = self.workers[worker].state
        else {
            return;
        };
        let now = ctx.now();
        let executed = now.saturating_since(started);
        self.workers[worker]
            .clock
            .charge_observed(TimeClass::Work, executed, &mut self.ledger.obs);
        self.disarm_deadline(worker, ctx);
        self.pool.get_mut(id).remaining = SimDur::ZERO;
        self.finish_task(worker, id, now);
        let w = &mut self.workers[worker];
        w.seq += 1;
        w.state = WState::Idle;
        // A natural finish settles any outstanding send for this run:
        // the watchdog cannot tell a lost preemption from one that
        // raced completion, so the loss streak resets (retire the
        // deadline here for the same overwrite reason as on arrival).
        w.retry.step(RetryInput::Settled { seq });
        if w.wd.is_some_and(|a| a.seq == seq) {
            w.wd = None;
        }
        ctx.immediately(Ev::Pick { worker });
    }
}

impl Model for LibPreemptibleSystem {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        // Lost-preemption watchdogs piggyback on the event stream: one
        // compare per event against a throttled scan tick, so the
        // healthy path pays no per-send heap traffic or bookkeeping at
        // all. An armed watchdog's victim always has a pending
        // current-seq `PreemptArrive` or `Finish` (`arm_watchdog`), so
        // a due check cannot starve — detection lands within half a
        // timeout of the deadline whenever events flow, and retries
        // sharpen that with their own scheduled checks.
        if ctx.now().as_nanos() >= self.wd_scan_at {
            self.check_watchdogs(ctx);
        }
        match ev {
            Ev::Arrival => {
                let now = ctx.now();
                self.window.on_arrival();
                let (class, service) = self.spec.source.sample(now, &mut self.service_rng);
                self.ledger.arrived(now, class);
                self.dispatch_queue.push_back(PendingReq {
                    arrived: now,
                    class,
                    service,
                });
                // Dispatcher serializes request handling.
                let start = self.dispatch_free_at.max(now);
                self.dispatcher_clock.charge_observed(
                    TimeClass::Dispatch,
                    DISPATCH_COST,
                    &mut self.ledger.obs,
                );
                self.dispatch_free_at = start + DISPATCH_COST;
                ctx.at(self.dispatch_free_at, Ev::Dispatched);

                // Next arrival while the run lasts.
                let next = self.arrivals_gen.next_arrival(now);
                if next < SimTime::ZERO + self.spec.duration {
                    ctx.at(next, Ev::Arrival);
                }
            }
            Ev::Dispatched => {
                let req = self
                    .dispatch_queue
                    .pop_front()
                    .expect("dispatched event without pending request");
                if self.cfg.admission.enabled {
                    if let Some(verdict) = self.admission_verdict(req.class) {
                        let queued = verdict.queued;
                        if verdict.shed {
                            // A shed is a drop taken early, before a
                            // context is burned on a request the queue
                            // cannot serve in time: it counts against
                            // the same conservation total as a
                            // pool-exhaustion drop, but carries its own
                            // typed event so overload behaviour is
                            // attributable in traces.
                            self.ledger.shed(ctx.now(), req.class, queued);
                            return;
                        }
                        self.ledger.obs.emit(
                            ctx.now(),
                            Event::Admitted {
                                class: req.class,
                                queued,
                            },
                        );
                    }
                }
                match self.pool.allocate(
                    self.ledger.arrivals(),
                    req.arrived,
                    req.service,
                    req.class,
                ) {
                    Ok(id) => {
                        let now = ctx.now();
                        let tv = task_view(id, self.pool.get(id));
                        self.fill_depths();
                        let (choice, enq) = {
                            let queued: usize = self.depth_scratch.iter().sum();
                            let mut sctx = SchedCtx {
                                now,
                                queue_depths: &self.depth_scratch,
                                runnable: queued,
                                parked: self.pool.parked(),
                                window: self.last_window.as_ref(),
                                obs: &mut self.ledger.obs,
                            };
                            let choice = self.policy.select_cpu(&tv, &mut sctx);
                            let enq = self.policy.enqueue(&tv, &mut sctx);
                            (choice, enq)
                        };
                        let (w, explicit) = match choice {
                            Some(w) if w < self.workers.len() => (w, true),
                            _ => (self.shortest_queue(), false),
                        };
                        self.ledger.obs.emit(
                            now,
                            Event::PolicyDispatch {
                                worker: w as u16,
                                explicit,
                            },
                        );
                        self.window.on_queue_sample(self.workers[w].local.len());
                        match enq {
                            Enqueue::Back => self.workers[w].local.push_back(id),
                            Enqueue::Front => self.workers[w].local.push_front(id),
                        }
                        if matches!(self.workers[w].state, WState::Idle) {
                            ctx.immediately(Ev::Pick { worker: w });
                        }
                    }
                    Err(_) => self.ledger.dropped(ctx.now(), req.class),
                }
            }
            Ev::Pick { worker } => self.handle_pick(worker, ctx),
            Ev::Finish { worker, seq } => self.handle_finish(worker, seq, ctx),
            Ev::TimerCheck => {
                self.timer_check = None;
                self.deliver_preemptions(ctx);
            }
            Ev::KtimerExpiry { worker, seq } => {
                let w = &mut self.workers[worker];
                w.ktimer_expiry = None;
                let current = w.seq == seq && matches!(w.state, WState::Running { .. });
                // Every run that ends disarms its deadline, cancelling
                // the expiry, so only a current one reaches here.
                debug_assert!(
                    current,
                    "disarmed kernel-timer expiry fired (worker {worker})"
                );
                if current {
                    // The kernel timer softirq signals the worker. A lost
                    // signal schedules nothing: the watchdog this send
                    // arms recovers it.
                    self.send_preempt_signal(worker, seq, ctx.now(), 0, ctx);
                }
            }
            Ev::PreemptArrive { worker, seq, uintr } => {
                self.handle_preempt_arrive(worker, seq, uintr, ctx)
            }
            // Retry deadlines check precisely, independent of the
            // throttled scan cadence.
            Ev::WatchdogCheck => self.check_watchdogs(ctx),
            Ev::ControlTick => {
                let now = ctx.now();
                let summary = self.window.roll(now.as_nanos());
                self.policy
                    .on_window_observed(&summary, now, &mut self.ledger.obs);
                self.last_window = Some(summary);
                let q = self.policy.quantum_hint(0);
                if q != SimDur::MAX {
                    self.quantum_series
                        .record(now.as_nanos(), q.as_micros_f64());
                }
                let next = now + self.cfg.control_period;
                if next < SimTime::ZERO + self.spec.duration {
                    ctx.at(next, Ev::ControlTick);
                }
            }
        }
    }
}

/// Runs LibPreemptible on the given workload and returns the report.
///
/// ```
/// use libpreemptible::{run, Fifo, RuntimeConfig, ServiceSource, WorkloadSpec};
/// use lp_sim::SimDur;
/// use lp_workload::{PhasedService, RateSchedule, ServiceDist};
///
/// let cfg = RuntimeConfig { workers: 2, ..RuntimeConfig::default() };
/// let spec = WorkloadSpec {
///     source: ServiceSource::Phased(PhasedService::constant(ServiceDist::workload_b())),
///     arrivals: RateSchedule::Constant(50_000.0),
///     duration: SimDur::millis(50),
///     warmup: SimDur::millis(5),
/// };
/// let report = run(cfg, Box::new(Fifo::new(SimDur::micros(10))), spec);
/// assert!(report.is_conserved());
/// assert!(report.completions > 1_000);
/// ```
pub fn run(cfg: RuntimeConfig, policy: Box<dyn SchedPolicy>, spec: WorkloadSpec) -> RunReport {
    let system_name = format!("LibPreemptible[{:?}]/{}", cfg.mech, policy.name());
    let duration = spec.duration;
    let offered = spec.arrivals.peak_rate();
    let control_period = cfg.control_period;
    let polls_timer_core = cfg.mech.needs_timer_core() && cfg.hw.poll_loop != SimDur::ZERO;

    // Pre-size the event queue's node slab from the arrival-rate hint:
    // the live event population is bounded by in-flight requests
    // (~100 us of peak arrivals, capped by the context pool) plus a
    // deadline and a finish event per worker and the arrival/control
    // ticks. With the slab warm the wheel's arm/cancel/re-arm cycle
    // recycles nodes from the freelist and never allocates mid-run
    // (pinned by `million_rearm_cycles_do_not_grow_the_slab`).
    let queue_hint = 64 + cfg.workers * 4 + ((offered * 1e-4) as usize).min(cfg.pool_capacity);
    let model = LibPreemptibleSystem::new(cfg, spec, policy);
    let mut sim = Simulation::with_capacity(model, queue_hint);
    sim.schedule_at(SimTime::ZERO, Ev::Arrival);
    sim.schedule_at(SimTime::ZERO + control_period, Ev::ControlTick);
    sim.run_until(SimTime::ZERO + duration);

    let m = sim.into_model();
    let mut timer_core = m.timer_clock;
    if polls_timer_core {
        // The dedicated timer core is busy-polling whenever it is not
        // issuing SENDUIPIs.
        let total = SimDur::nanos(duration.as_nanos());
        timer_core.charge(
            TimeClass::TimerPoll,
            total.saturating_sub(timer_core.total_charged()),
        );
    }
    let end = RunEnd {
        system: system_name,
        offered_rps: offered,
        duration,
        in_flight: m.pool.live() as u64 + m.dispatch_queue.len() as u64,
        oldest_arrival: m
            .pool
            .oldest_live_arrival()
            .into_iter()
            .chain(m.dispatch_queue.iter().map(|p| p.arrived))
            .min(),
        per_worker: m.workers.into_iter().map(|w| w.clock).collect(),
        dispatcher: m.dispatcher_clock,
        timer_core,
        quantum_series: Some(m.quantum_series),
        final_quantum: m.policy.quantum_hint(0),
    };
    m.ledger.into_report(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Fifo;
    use lp_workload::ServiceDist;

    fn spec(rate: f64, ms: u64) -> WorkloadSpec {
        WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(ServiceDist::workload_b())),
            arrivals: RateSchedule::Constant(rate),
            duration: SimDur::millis(ms),
            warmup: SimDur::millis(ms / 10),
        }
    }

    fn small_cfg(mech: PreemptMech) -> RuntimeConfig {
        RuntimeConfig {
            workers: 4,
            mech,
            control_period: SimDur::millis(10),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn conservation_and_throughput_low_load() {
        // 4 workers x 5us mean: capacity 800k rps. Offer 100k.
        let r = run(
            small_cfg(PreemptMech::Uintr),
            Box::new(Fifo::new(SimDur::micros(10))),
            spec(100_000.0, 100),
        );
        assert!(r.is_conserved(), "{r:?}");
        assert_eq!(r.dropped, 0);
        // ~10k arrivals in 100ms.
        assert!(r.arrivals > 8_000 && r.arrivals < 12_000, "{}", r.arrivals);
        // Nearly everything completes; latency near service time.
        assert!(r.in_flight < 20);
        assert!(r.median_us() < 15.0, "median {}", r.median_us());
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            run(
                small_cfg(PreemptMech::Uintr),
                Box::new(Fifo::new(SimDur::micros(10))),
                spec(200_000.0, 50),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.latency.p99(), b.latency.p99());
    }

    #[test]
    fn preemption_happens_for_long_requests() {
        let spec = WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
                SimDur::micros(100),
            ))),
            arrivals: RateSchedule::Constant(10_000.0),
            duration: SimDur::millis(50),
            warmup: SimDur::ZERO,
        };
        let r = run(
            small_cfg(PreemptMech::Uintr),
            Box::new(Fifo::new(SimDur::micros(10))),
            spec,
        );
        // 100us tasks with a 10us quantum: many preemptions each.
        assert!(
            r.preemptions > 9 * r.completions / 2,
            "preemptions {} completions {}",
            r.preemptions,
            r.completions
        );
        assert!(r.is_conserved());
    }

    #[test]
    fn nonpreemptive_never_preempts() {
        let r = run(
            small_cfg(PreemptMech::None),
            Box::new(Fifo::new(SimDur::MAX)),
            spec(100_000.0, 50),
        );
        assert_eq!(r.preemptions, 0);
        assert_eq!(r.spurious_preemptions, 0);
        assert!(r.is_conserved());
    }

    #[test]
    fn disarmed_kernel_timer_expiries_never_fire() {
        // 5 us tasks under a 60 us slice: every run finishes long before
        // its kernel-timer expiry, so every expiry is disarmed. A
        // disarmed expiry that still reached the handler would trip its
        // debug assertion (this test runs in debug under `cargo test`).
        let spec = WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
                SimDur::micros(5),
            ))),
            arrivals: RateSchedule::Constant(100_000.0),
            duration: SimDur::millis(50),
            warmup: SimDur::ZERO,
        };
        let r = run(
            small_cfg(PreemptMech::KernelTimerSignal),
            Box::new(Fifo::new(SimDur::micros(60))),
            spec,
        );
        assert!(r.completions > 4_000, "completions {}", r.completions);
        assert_eq!(r.preemptions, 0);
        assert!(r.is_conserved());
    }

    #[test]
    fn preemption_tames_bimodal_tail() {
        // A1 at moderately high load: preemptive 10us quantum must
        // crush p99 relative to run-to-completion.
        let mk_spec = || WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(ServiceDist::workload_a1())),
            arrivals: RateSchedule::Constant(800_000.0), // ~60% util on 4 cores
            duration: SimDur::millis(300),
            warmup: SimDur::millis(30),
        };
        let pre = run(
            small_cfg(PreemptMech::Uintr),
            Box::new(Fifo::new(SimDur::micros(5))),
            mk_spec(),
        );
        let non = run(
            small_cfg(PreemptMech::None),
            Box::new(Fifo::new(SimDur::MAX)),
            mk_spec(),
        );
        assert!(pre.is_conserved() && non.is_conserved());
        assert!(
            pre.p99_us() * 3.0 < non.p99_us(),
            "preemptive p99 {} vs non-preemptive {}",
            pre.p99_us(),
            non.p99_us()
        );
    }

    #[test]
    fn signal_fallback_is_slower_than_uintr() {
        let mk_spec = || WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(ServiceDist::workload_a1())),
            arrivals: RateSchedule::Constant(900_000.0),
            duration: SimDur::millis(200),
            warmup: SimDur::millis(20),
        };
        let uintr = run(
            small_cfg(PreemptMech::Uintr),
            Box::new(Fifo::new(SimDur::micros(5))),
            mk_spec(),
        );
        let signal = run(
            small_cfg(PreemptMech::TimerCoreSignal),
            Box::new(Fifo::new(SimDur::micros(5))),
            mk_spec(),
        );
        assert!(
            signal.p99_us() > 1.5 * uintr.p99_us(),
            "signal p99 {} vs uintr {}",
            signal.p99_us(),
            uintr.p99_us()
        );
    }

    #[test]
    fn overload_builds_queues_not_crashes() {
        // Offer 2x capacity.
        let r = run(
            RuntimeConfig {
                pool_capacity: 512,
                ..small_cfg(PreemptMech::Uintr)
            },
            Box::new(Fifo::new(SimDur::micros(10))),
            spec(1_600_000.0, 30),
        );
        assert!(r.is_conserved());
        assert!(r.dropped > 0 || r.in_flight > 100);
    }

    #[test]
    fn armed_but_silent_injector_changes_nothing() {
        // An enabled plan whose faults can never fire (one scheduled
        // injection at an unreachable occurrence) builds the injector
        // and arms a watchdog per preemption, yet must leave every
        // result — stats, metrics, trace — identical to the healthy
        // run. This is the <2%-overhead claim's correctness half.
        use lp_sim::fault::{FaultKind, FaultPlan};
        let mk = |faults: FaultPlan| {
            run(
                RuntimeConfig {
                    trace_capacity: 4096,
                    faults,
                    ..small_cfg(PreemptMech::Uintr)
                },
                Box::new(Fifo::new(SimDur::micros(10))),
                spec(300_000.0, 50),
            )
        };
        let healthy = mk(FaultPlan::disabled());
        let armed = mk(FaultPlan::once(FaultKind::IpiDrop, u64::MAX));
        assert_eq!(healthy.arrivals, armed.arrivals);
        assert_eq!(healthy.completions, armed.completions);
        assert_eq!(healthy.preemptions, armed.preemptions);
        assert_eq!(healthy.latency.p99(), armed.latency.p99());
        assert_eq!(healthy.metrics.counters, armed.metrics.counters);
        assert_eq!(healthy.events, armed.events);
        assert_eq!(armed.metrics.counter("faults_injected"), 0);
        assert_eq!(armed.metrics.counter("preempt_retries"), 0);
    }

    #[test]
    fn dropped_ipis_degrade_to_signal_path() {
        // Every SENDUIPI vanishes: after `degrade_after` consecutive
        // losses each worker must fall back to signals and the system
        // must still preempt, complete, and conserve requests.
        use lp_sim::fault::{FaultKind, FaultPlan};
        let spec = WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
                SimDur::micros(400),
            ))),
            arrivals: RateSchedule::Constant(8_000.0),
            duration: SimDur::millis(60),
            warmup: SimDur::ZERO,
        };
        let r = run(
            RuntimeConfig {
                faults: FaultPlan::only(FaultKind::IpiDrop, 1.0),
                ..small_cfg(PreemptMech::Uintr)
            },
            Box::new(Fifo::new(SimDur::micros(20))),
            spec,
        );
        assert!(r.is_conserved(), "{r:?}");
        assert!(r.completions > 100, "completions {}", r.completions);
        assert!(r.preemptions > 0, "signal fallback never preempted");
        assert!(r.metrics.counter("faults_injected") > 0);
        assert!(r.metrics.counter("preempt_retries") > 0);
        assert_eq!(r.metrics.counter("mech_degradations"), 4, "one per worker");
        assert_eq!(
            r.metrics.counter("mech_recoveries"),
            0,
            "probes keep failing"
        );
    }

    #[test]
    fn transient_drops_degrade_then_probe_recovers() {
        // Exactly the first `degrade_after` sends are dropped; the
        // fabric then heals. The victim worker must degrade once,
        // probe, and recover to UINTR.
        use lp_sim::fault::{FaultKind, FaultPlan, ScheduledFault};
        let mut plan = FaultPlan::disabled();
        for occurrence in 0..3 {
            plan.schedule.push(ScheduledFault {
                kind: FaultKind::IpiDrop,
                occurrence,
            });
        }
        let spec = WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
                SimDur::micros(400),
            ))),
            arrivals: RateSchedule::Constant(8_000.0),
            duration: SimDur::millis(80),
            warmup: SimDur::ZERO,
        };
        let r = run(
            RuntimeConfig {
                // One worker so the scheduled occurrences 0..3 are all
                // consumed by the same worker's send/retry chain.
                workers: 1,
                faults: plan,
                ..small_cfg(PreemptMech::Uintr)
            },
            Box::new(Fifo::new(SimDur::micros(20))),
            spec,
        );
        assert!(r.is_conserved(), "{r:?}");
        assert_eq!(r.metrics.counter("faults_injected"), 3);
        assert_eq!(r.metrics.counter("mech_degradations"), 1);
        assert_eq!(
            r.metrics.counter("mech_recoveries"),
            1,
            "probe must recover"
        );
        assert!(r.preemptions > 100);
    }

    #[test]
    fn phase_breakdown_sums_to_end_to_end_latency() {
        // The tail-attribution contract: every pinned exemplar's phase
        // breakdown sums *exactly* to its end-to-end latency (queued
        // time is the residual, so the identity holds by construction
        // — this pins that the construction survives the runtime's
        // actual event stream), and the end-to-end histogram sees
        // every completion.
        let r = run(
            small_cfg(PreemptMech::Uintr),
            Box::new(Fifo::new(SimDur::micros(10))),
            spec(300_000.0, 50),
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
        let worst = r.worst_exemplar().unwrap();
        assert_eq!(worst.latency_ns, exemplars[0].latency_ns);
        // Preempted tails spend visible time in the switch phase.
        use lp_sim::obs::Phase;
        assert!(
            !r.phases.per_phase[Phase::PreemptSwitch as usize].is_empty(),
            "no preempt_switch time attributed"
        );
    }

    #[test]
    fn attribution_off_switch_changes_no_results() {
        // `attribution: false` exists only for the benchmark's overhead
        // ablation; it must not perturb the simulation itself.
        let mk = |attribution: bool| {
            run(
                RuntimeConfig {
                    attribution,
                    ..small_cfg(PreemptMech::Uintr)
                },
                Box::new(Fifo::new(SimDur::micros(10))),
                spec(300_000.0, 50),
            )
        };
        let on = mk(true);
        let off = mk(false);
        assert_eq!(on.latency.p99(), off.latency.p99());
        assert_eq!(on.metrics.counters, off.metrics.counters);
        assert!(off.phases.end_to_end.is_empty());
        assert!(off.worst_exemplar().is_none());
    }

    #[test]
    fn ring_overflow_is_counted_not_silent() {
        // A window far smaller than the run: the report must surface
        // how much the wrap evicted instead of pretending the tail is
        // the whole trace.
        let r = run(
            RuntimeConfig {
                trace_capacity: 64,
                ..small_cfg(PreemptMech::Uintr)
            },
            Box::new(Fifo::new(SimDur::micros(10))),
            spec(300_000.0, 50),
        );
        assert_eq!(r.events.len(), 64);
        assert!(r.events_dropped > 0, "wrap evicted nothing?");
        // Untraced and generously-traced runs report zero drops.
        let untraced = run(
            small_cfg(PreemptMech::Uintr),
            Box::new(Fifo::new(SimDur::micros(10))),
            spec(300_000.0, 50),
        );
        assert_eq!(untraced.events_dropped, 0);
    }

    #[test]
    fn worker_time_accounting_sums_sanely() {
        let r = run(
            small_cfg(PreemptMech::Uintr),
            Box::new(Fifo::new(SimDur::micros(10))),
            spec(400_000.0, 100),
        );
        for (i, w) in r.per_worker.iter().enumerate() {
            let total = w.total_charged();
            assert!(
                total <= SimDur::millis(100) + SimDur::micros(200),
                "worker {i} overcharged: {total}"
            );
            assert!(
                w.charged(TimeClass::Work) > SimDur::millis(10),
                "worker {i} did almost no work"
            );
        }
    }
}
