//! The typed event vocabulary shared by every layer of the stack.
//!
//! One `enum` — [`Event`] — names everything the reproduction can
//! observe, from the architectural `SENDUIPI` up to the runtime's
//! quantum controller. Variants are plain `Copy` data (ids and
//! nanosecond quantities only, no strings, no heap), so recording one
//! costs a couple of stores. The full schema, with the emitting module
//! and the paper figure each event speaks to, is documented in
//! `docs/TRACING.md`.

use std::fmt;

use crate::time::SimTime;

/// One observable occurrence somewhere in the stack.
///
/// Field conventions: `worker` is the worker-core index, `slot` a
/// LibUtimer deadline-slot index, `fiber` the context-pool index of a
/// preemptible function, `class` the workload class (0 = LC, 1 = BE),
/// and `*_ns` quantities are nanoseconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    // ---- hardware (lp-hw::uintr) ----
    /// The timer core executed `SENDUIPI` targeting `worker`.
    UipiSent {
        /// Receiver worker.
        worker: u16,
        /// User vector posted into the UPID's PUIR bitmap.
        vector: u8,
    },
    /// A user interrupt was delivered (the receiver acknowledged and
    /// drained its PUIR bitmap).
    UipiDelivered {
        /// Receiver worker.
        worker: u16,
        /// More than one posted vector drained at once — earlier sends
        /// were coalesced into this notification.
        coalesced: bool,
    },
    /// A send found the receiver masked (`UIF = 0`); the vector pends.
    UipiPended {
        /// Receiver worker.
        worker: u16,
    },
    /// A send found notifications suppressed (`SN = 1`).
    UipiSuppressed {
        /// Receiver worker.
        worker: u16,
    },
    /// A send found the receiver blocked in the kernel: the slow
    /// kernel-assisted wakeup path (Table IV's "uintrFd (blocked)").
    KernelAssistWake {
        /// Receiver worker.
        worker: u16,
    },

    // ---- kernel (lp-kernel) ----
    /// A kernel signal was sent (tgkill / timer softirq → handler).
    SignalSent {
        /// Receiver worker.
        worker: u16,
        /// Time spent waiting on the kernel signal lock (§V-B).
        lock_wait_ns: u64,
    },
    /// A per-thread kernel timer was armed (`timer_settime`).
    KtimerArmed {
        /// Owning worker.
        worker: u16,
        /// Requested interval.
        target_ns: u64,
    },
    /// A per-thread kernel timer expired (softirq fired).
    KtimerFired {
        /// Owning worker.
        worker: u16,
    },
    /// One IPC ping-pong notification was sampled (Table IV).
    IpcSampled {
        /// Mechanism index into `IpcMechanism::ALL` (0 = signal … 5 =
        /// uintrFd blocked).
        mech: u8,
        /// Sampled one-way notification latency.
        latency_ns: u64,
    },

    // ---- LibUtimer (libpreemptible::utimer) ----
    /// A deadline slot was armed (`utimer_arm_deadline`, one cacheline
    /// write).
    DeadlineArmed {
        /// Deadline slot.
        slot: u16,
        /// Absolute expiry instant.
        deadline_ns: u64,
    },
    /// A deadline slot was disarmed before expiry (task finished or
    /// yielded early).
    DeadlineDisarmed {
        /// Deadline slot.
        slot: u16,
    },
    /// The timer core's poll loop scanned the slots and found expiries.
    TimerPoll {
        /// Number of deadline slots that had expired at this tick.
        expired: u16,
    },

    // ---- runtime (libpreemptible::runtime / adaptive) ----
    /// A request arrived at the network thread.
    Arrival {
        /// Workload class.
        class: u8,
    },
    /// A request was dropped on context-pool exhaustion.
    Drop {
        /// Workload class.
        class: u8,
    },
    /// A worker launched or resumed a preemptible function.
    TaskStart {
        /// Executing worker.
        worker: u16,
        /// Context-pool index.
        fiber: u32,
        /// `true` when resuming a previously preempted function.
        resumed: bool,
        /// Nanoseconds spent in the context-switch window that ended
        /// here (dispatch pick + fcontext switch + arming) — the span
        /// since the matching [`Event::SwitchBegin`]. Carried on the
        /// event so the tail-attribution accountant charges
        /// `preempt_switch` from this event alone.
        switch_ns: u32,
    },
    /// A request ran to completion.
    TaskFinish {
        /// Executing worker.
        worker: u16,
        /// Context-pool index.
        fiber: u32,
        /// End-to-end latency (arrival → completion).
        latency_ns: u64,
    },
    /// A preemption landed: the handler parked the running function and
    /// returned to the local scheduler.
    Preempt {
        /// Preempted worker.
        worker: u16,
        /// Context-pool index of the parked function.
        fiber: u32,
        /// How long the function ran in this slice.
        ran_ns: u64,
    },
    /// A preemption notification raced completion (or found the worker
    /// idle): the handler ran but there was nothing to park.
    SpuriousPreempt {
        /// Interrupted worker.
        worker: u16,
    },
    /// The scheduling policy placed a dispatched request on a worker's
    /// local queue (`select_cpu`), or declined and the runtime used
    /// join-shortest-queue.
    PolicyDispatch {
        /// Worker whose local queue received the request.
        worker: u16,
        /// `true` when the policy chose the worker; `false` for the
        /// runtime's JSQ fallback.
        explicit: bool,
    },
    /// The scheduling policy granted a finite time slice to a task
    /// starting (or resuming) on a worker. Not emitted for
    /// run-to-completion slices or when preemption is disabled.
    SliceGranted {
        /// Worker the task starts on.
        worker: u16,
        /// Context-pool index of the task.
        fiber: u32,
        /// Granted slice length.
        slice_ns: u64,
    },
    /// A worker began a context switch toward a fiber: the dispatch
    /// pick plus fcontext-switch window that ends at the matching
    /// [`Event::TaskStart`] (which carries the window's duration as
    /// `switch_ns`, charged to the fiber's `preempt_switch` phase —
    /// see `docs/TRACING.md`). Trace exports render this window as a
    /// switch slice.
    SwitchBegin {
        /// Worker doing the switch.
        worker: u16,
        /// Context-pool index of the incoming fiber.
        fiber: u32,
        /// `true` when resuming a previously preempted function.
        resumed: bool,
    },
    /// Algorithm 1 changed the global time quantum.
    QuantumAdjusted {
        /// Quantum before the control step.
        old_ns: u64,
        /// Quantum after the control step.
        new_ns: u64,
    },
    /// Free-form user annotation (experiments mark phase boundaries).
    Marker {
        /// Caller-defined code.
        code: u32,
    },

    // ---- resilience (lp_sim::fault + runtime watchdog) ----
    /// The fault injector fired: one planned fault was injected.
    FaultInjected {
        /// Worker the fault targets (the victim of the lost delivery,
        /// stalled core, etc.).
        worker: u16,
        /// `FaultKind` wire code (see `lp_sim::fault::FaultKind`).
        kind: u8,
    },
    /// The runtime issued one preemption send toward a worker. The
    /// `(worker, seq)` pair is the preemption's stable causality
    /// identity: the matching [`Event::PreemptLanded`] carries the same
    /// pair, giving `lp-check race` its send→deliver happens-before
    /// edge.
    PreemptIssued {
        /// Worker the send targets.
        worker: u16,
        /// Run sequence the send is armed for (stale deliveries carry
        /// an older seq and are ignored by the victim).
        seq: u64,
        /// Send attempt (0 = first send, 1+ = watchdog re-sends).
        attempt: u8,
        /// True for the UINTR path, false for the kernel signal path.
        uintr: bool,
    },
    /// A preemption landed on its victim while the victim was still on
    /// the matching run: the receiving half of the
    /// [`Event::PreemptIssued`] causality edge. Stale or spurious
    /// arrivals do not emit this (they emit
    /// [`Event::SpuriousPreempt`]).
    PreemptLanded {
        /// Worker the preemption landed on.
        worker: u16,
        /// Run sequence the arrival matched.
        seq: u64,
        /// True when delivery came over the user-interrupt path.
        uintr: bool,
    },
    /// The lost-preemption watchdog re-sent an armed preemption whose
    /// deadline passed without delivery.
    PreemptRetry {
        /// Worker whose preemption went missing.
        worker: u16,
        /// Run sequence of the lost send (joins the retry to its
        /// re-send in the happens-before graph).
        seq: u64,
        /// Retry attempt number (1 = first re-send).
        attempt: u8,
        /// Backoff delay applied before the next watchdog check.
        delay_ns: u64,
    },
    /// After N consecutive UINTR losses the runtime degraded this
    /// worker's preemption mechanism to the kernel signal path.
    MechDegraded {
        /// Degraded worker.
        worker: u16,
        /// Consecutive losses that triggered the degradation.
        losses: u8,
    },
    /// A UINTR probe succeeded on a degraded worker: the runtime
    /// recovered it back to the fast user-interrupt path.
    MechRecovered {
        /// Recovered worker.
        worker: u16,
    },
    /// A worker entered the brownout tier: repeated UINTR losses short
    /// of the degrade threshold. The fast path stays in use but the
    /// admission controller treats the worker as pressured.
    MechBrownout {
        /// Browned-out worker.
        worker: u16,
        /// Consecutive losses that triggered the brownout.
        losses: u8,
    },
    /// The admission controller rejected a request at dispatch: queues
    /// (or the deadline estimate) said it could not finish usefully.
    Shed {
        /// Workload class.
        class: u8,
        /// Total requests queued runtime-wide at the decision.
        queued: u32,
    },
    /// The admission controller admitted a request while the runtime
    /// was under pressure (only emitted under pressure, so an idle
    /// armed controller stays invisible).
    Admitted {
        /// Workload class.
        class: u8,
        /// Total requests queued runtime-wide at the decision.
        queued: u32,
    },
}

impl Event {
    /// The event's stable schema name (the `"ev"` value in JSONL).
    pub const fn name(self) -> &'static str {
        match self {
            Event::UipiSent { .. } => "uipi_sent",
            Event::UipiDelivered { .. } => "uipi_delivered",
            Event::UipiPended { .. } => "uipi_pended",
            Event::UipiSuppressed { .. } => "uipi_suppressed",
            Event::KernelAssistWake { .. } => "kernel_assist_wake",
            Event::SignalSent { .. } => "signal_sent",
            Event::KtimerArmed { .. } => "ktimer_armed",
            Event::KtimerFired { .. } => "ktimer_fired",
            Event::IpcSampled { .. } => "ipc_sampled",
            Event::DeadlineArmed { .. } => "deadline_armed",
            Event::DeadlineDisarmed { .. } => "deadline_disarmed",
            Event::TimerPoll { .. } => "timer_poll",
            Event::Arrival { .. } => "arrival",
            Event::Drop { .. } => "drop",
            Event::TaskStart { .. } => "task_start",
            Event::TaskFinish { .. } => "task_finish",
            Event::Preempt { .. } => "preempt",
            Event::SpuriousPreempt { .. } => "spurious_preempt",
            Event::PolicyDispatch { .. } => "policy_dispatch",
            Event::SliceGranted { .. } => "slice_granted",
            Event::SwitchBegin { .. } => "switch_begin",
            Event::QuantumAdjusted { .. } => "quantum_adjusted",
            Event::Marker { .. } => "marker",
            Event::FaultInjected { .. } => "fault_injected",
            Event::PreemptIssued { .. } => "preempt_issued",
            Event::PreemptLanded { .. } => "preempt_landed",
            Event::PreemptRetry { .. } => "preempt_retry",
            Event::MechDegraded { .. } => "mech_degraded",
            Event::MechRecovered { .. } => "mech_recovered",
            Event::MechBrownout { .. } => "mech_brownout",
            Event::Shed { .. } => "shed",
            Event::Admitted { .. } => "admitted",
        }
    }
}

impl fmt::Display for Event {
    /// Human-oriented one-line rendering of the event, for logs and
    /// the `trace_dump` example's filtered life-cycle view.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::UipiSent { worker, vector } => {
                write!(f, "SENDUIPI -> worker {worker} (vector {vector})")
            }
            Event::UipiDelivered { worker, coalesced } => {
                if coalesced {
                    write!(f, "uintr delivered to worker {worker} (coalesced)")
                } else {
                    write!(f, "uintr delivered to worker {worker}")
                }
            }
            Event::UipiPended { worker } => write!(f, "uintr pended at worker {worker} (UIF=0)"),
            Event::UipiSuppressed { worker } => {
                write!(f, "uintr suppressed at worker {worker} (SN=1)")
            }
            Event::KernelAssistWake { worker } => {
                write!(f, "kernel-assisted wakeup of worker {worker}")
            }
            Event::SignalSent { worker, lock_wait_ns } => {
                write!(f, "signal -> worker {worker} (lock wait {lock_wait_ns}ns)")
            }
            Event::KtimerArmed { worker, target_ns } => {
                write!(f, "ktimer armed on worker {worker} for {target_ns}ns")
            }
            Event::KtimerFired { worker } => write!(f, "ktimer fired on worker {worker}"),
            Event::IpcSampled { mech, latency_ns } => {
                write!(f, "ipc sample mech {mech}: {latency_ns}ns")
            }
            Event::DeadlineArmed { slot, deadline_ns } => {
                write!(f, "deadline slot {slot} armed for t={deadline_ns}ns")
            }
            Event::DeadlineDisarmed { slot } => write!(f, "deadline slot {slot} disarmed"),
            Event::TimerPoll { expired } => {
                write!(f, "timer core poll: {expired} deadline(s) expired")
            }
            Event::Arrival { class } => write!(f, "arrival (class {class})"),
            Event::Drop { class } => write!(f, "drop (class {class}, pool full)"),
            Event::TaskStart { worker, fiber, resumed, switch_ns } => {
                let verb = if resumed { "resume" } else { "start" };
                write!(f, "{verb} fiber {fiber} on worker {worker} (switch {switch_ns}ns)")
            }
            Event::TaskFinish { worker, fiber, latency_ns } => {
                write!(f, "finish fiber {fiber} on worker {worker} (latency {latency_ns}ns)")
            }
            Event::Preempt { worker, fiber, ran_ns } => {
                write!(f, "preempt fiber {fiber} on worker {worker} (ran {ran_ns}ns)")
            }
            Event::SpuriousPreempt { worker } => {
                write!(f, "spurious preemption at worker {worker}")
            }
            Event::PolicyDispatch { worker, explicit } => {
                let how = if explicit { "policy" } else { "jsq" };
                write!(f, "dispatch to worker {worker} ({how})")
            }
            Event::SliceGranted { worker, fiber, slice_ns } => {
                write!(f, "slice {slice_ns}ns granted to fiber {fiber} on worker {worker}")
            }
            Event::SwitchBegin { worker, fiber, resumed } => {
                let verb = if resumed { "resume" } else { "launch" };
                write!(f, "switch toward fiber {fiber} on worker {worker} ({verb})")
            }
            Event::QuantumAdjusted { old_ns, new_ns } => {
                write!(f, "quantum {old_ns}ns -> {new_ns}ns")
            }
            Event::Marker { code } => write!(f, "marker {code}"),
            Event::FaultInjected { worker, kind } => {
                write!(f, "fault kind {kind} injected at worker {worker}")
            }
            Event::PreemptIssued { worker, seq, attempt, uintr } => {
                let path = if uintr { "uintr" } else { "signal" };
                write!(
                    f,
                    "preempt seq {seq} issued to worker {worker} over {path} (attempt {attempt})"
                )
            }
            Event::PreemptLanded { worker, seq, uintr } => {
                let path = if uintr { "uintr" } else { "signal" };
                write!(f, "preempt seq {seq} landed on worker {worker} over {path}")
            }
            Event::PreemptRetry { worker, seq, attempt, delay_ns } => {
                write!(
                    f,
                    "preempt seq {seq} re-sent to worker {worker} (attempt {attempt}, backoff {delay_ns}ns)"
                )
            }
            Event::MechDegraded { worker, losses } => {
                write!(f, "worker {worker} degraded to signal path after {losses} losses")
            }
            Event::MechRecovered { worker } => {
                write!(f, "worker {worker} recovered to uintr path")
            }
            Event::MechBrownout { worker, losses } => {
                write!(f, "worker {worker} browned out after {losses} losses")
            }
            Event::Shed { class, queued } => {
                write!(f, "shed (class {class}, {queued} queued)")
            }
            Event::Admitted { class, queued } => {
                write!(f, "admitted under pressure (class {class}, {queued} queued)")
            }
        }
    }
}

/// An [`Event`] stamped with the simulation instant it was emitted at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub ev: Event,
}

impl TimedEvent {
    /// Appends the event as one JSON line (no trailing newline) to
    /// `out`.
    ///
    /// The key order is fixed per variant — `t`, `ev`, then the fields
    /// in declaration order — so identical event streams serialize to
    /// identical bytes, which the determinism tests rely on.
    pub fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write as _;
        let t = self.at.as_nanos();
        let name = self.ev.name();
        let _ = write!(out, "{{\"t\":{t},\"ev\":\"{name}\"");
        match self.ev {
            Event::UipiSent { worker, vector } => {
                let _ = write!(out, ",\"worker\":{worker},\"vector\":{vector}");
            }
            Event::UipiDelivered { worker, coalesced } => {
                let _ = write!(out, ",\"worker\":{worker},\"coalesced\":{coalesced}");
            }
            Event::UipiPended { worker }
            | Event::UipiSuppressed { worker }
            | Event::KernelAssistWake { worker }
            | Event::KtimerFired { worker }
            | Event::SpuriousPreempt { worker } => {
                let _ = write!(out, ",\"worker\":{worker}");
            }
            Event::SignalSent { worker, lock_wait_ns } => {
                let _ = write!(out, ",\"worker\":{worker},\"lock_wait_ns\":{lock_wait_ns}");
            }
            Event::KtimerArmed { worker, target_ns } => {
                let _ = write!(out, ",\"worker\":{worker},\"target_ns\":{target_ns}");
            }
            Event::IpcSampled { mech, latency_ns } => {
                let _ = write!(out, ",\"mech\":{mech},\"latency_ns\":{latency_ns}");
            }
            Event::DeadlineArmed { slot, deadline_ns } => {
                let _ = write!(out, ",\"slot\":{slot},\"deadline_ns\":{deadline_ns}");
            }
            Event::DeadlineDisarmed { slot } => {
                let _ = write!(out, ",\"slot\":{slot}");
            }
            Event::TimerPoll { expired } => {
                let _ = write!(out, ",\"expired\":{expired}");
            }
            Event::Arrival { class } | Event::Drop { class } => {
                let _ = write!(out, ",\"class\":{class}");
            }
            Event::TaskStart { worker, fiber, resumed, switch_ns } => {
                let _ = write!(
                    out,
                    ",\"worker\":{worker},\"fiber\":{fiber},\"resumed\":{resumed},\"switch_ns\":{switch_ns}"
                );
            }
            Event::TaskFinish { worker, fiber, latency_ns } => {
                let _ = write!(
                    out,
                    ",\"worker\":{worker},\"fiber\":{fiber},\"latency_ns\":{latency_ns}"
                );
            }
            Event::Preempt { worker, fiber, ran_ns } => {
                let _ = write!(out, ",\"worker\":{worker},\"fiber\":{fiber},\"ran_ns\":{ran_ns}");
            }
            Event::PolicyDispatch { worker, explicit } => {
                let _ = write!(out, ",\"worker\":{worker},\"explicit\":{explicit}");
            }
            Event::SliceGranted { worker, fiber, slice_ns } => {
                let _ = write!(out, ",\"worker\":{worker},\"fiber\":{fiber},\"slice_ns\":{slice_ns}");
            }
            Event::SwitchBegin { worker, fiber, resumed } => {
                let _ = write!(out, ",\"worker\":{worker},\"fiber\":{fiber},\"resumed\":{resumed}");
            }
            Event::QuantumAdjusted { old_ns, new_ns } => {
                let _ = write!(out, ",\"old_ns\":{old_ns},\"new_ns\":{new_ns}");
            }
            Event::Marker { code } => {
                let _ = write!(out, ",\"code\":{code}");
            }
            Event::FaultInjected { worker, kind } => {
                let _ = write!(out, ",\"worker\":{worker},\"kind\":{kind}");
            }
            Event::PreemptIssued { worker, seq, attempt, uintr } => {
                let _ = write!(
                    out,
                    ",\"worker\":{worker},\"seq\":{seq},\"attempt\":{attempt},\"uintr\":{uintr}"
                );
            }
            Event::PreemptLanded { worker, seq, uintr } => {
                let _ = write!(out, ",\"worker\":{worker},\"seq\":{seq},\"uintr\":{uintr}");
            }
            Event::PreemptRetry { worker, seq, attempt, delay_ns } => {
                let _ = write!(
                    out,
                    ",\"worker\":{worker},\"seq\":{seq},\"attempt\":{attempt},\"delay_ns\":{delay_ns}"
                );
            }
            Event::MechDegraded { worker, losses } => {
                let _ = write!(out, ",\"worker\":{worker},\"losses\":{losses}");
            }
            Event::MechRecovered { worker } => {
                let _ = write!(out, ",\"worker\":{worker}");
            }
            Event::MechBrownout { worker, losses } => {
                let _ = write!(out, ",\"worker\":{worker},\"losses\":{losses}");
            }
            Event::Shed { class, queued } | Event::Admitted { class, queued } => {
                let _ = write!(out, ",\"class\":{class},\"queued\":{queued}");
            }
        }
        out.push('}');
    }

    /// The event as one JSON line.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        self.write_jsonl(&mut s);
        s
    }

    /// Parses a line produced by [`write_jsonl`](Self::write_jsonl).
    ///
    /// This is a schema-aware reader for the exporter's own output (it
    /// tolerates reordered keys and extra whitespace but is not a
    /// general JSON parser). Returns `None` on unknown event names or
    /// missing fields.
    pub fn parse_jsonl(line: &str) -> Option<TimedEvent> {
        let t = field_u64(line, "t")?;
        let name = field_str(line, "ev")?;
        let ev = match name {
            "uipi_sent" => Event::UipiSent {
                worker: field_u64(line, "worker")? as u16,
                vector: field_u64(line, "vector")? as u8,
            },
            "uipi_delivered" => Event::UipiDelivered {
                worker: field_u64(line, "worker")? as u16,
                coalesced: field_bool(line, "coalesced")?,
            },
            "uipi_pended" => Event::UipiPended { worker: field_u64(line, "worker")? as u16 },
            "uipi_suppressed" => {
                Event::UipiSuppressed { worker: field_u64(line, "worker")? as u16 }
            }
            "kernel_assist_wake" => {
                Event::KernelAssistWake { worker: field_u64(line, "worker")? as u16 }
            }
            "signal_sent" => Event::SignalSent {
                worker: field_u64(line, "worker")? as u16,
                lock_wait_ns: field_u64(line, "lock_wait_ns")?,
            },
            "ktimer_armed" => Event::KtimerArmed {
                worker: field_u64(line, "worker")? as u16,
                target_ns: field_u64(line, "target_ns")?,
            },
            "ktimer_fired" => Event::KtimerFired { worker: field_u64(line, "worker")? as u16 },
            "ipc_sampled" => Event::IpcSampled {
                mech: field_u64(line, "mech")? as u8,
                latency_ns: field_u64(line, "latency_ns")?,
            },
            "deadline_armed" => Event::DeadlineArmed {
                slot: field_u64(line, "slot")? as u16,
                deadline_ns: field_u64(line, "deadline_ns")?,
            },
            "deadline_disarmed" => {
                Event::DeadlineDisarmed { slot: field_u64(line, "slot")? as u16 }
            }
            "timer_poll" => Event::TimerPoll { expired: field_u64(line, "expired")? as u16 },
            "arrival" => Event::Arrival { class: field_u64(line, "class")? as u8 },
            "drop" => Event::Drop { class: field_u64(line, "class")? as u8 },
            "task_start" => Event::TaskStart {
                worker: field_u64(line, "worker")? as u16,
                fiber: field_u64(line, "fiber")? as u32,
                resumed: field_bool(line, "resumed")?,
                switch_ns: field_u64(line, "switch_ns")? as u32,
            },
            "task_finish" => Event::TaskFinish {
                worker: field_u64(line, "worker")? as u16,
                fiber: field_u64(line, "fiber")? as u32,
                latency_ns: field_u64(line, "latency_ns")?,
            },
            "preempt" => Event::Preempt {
                worker: field_u64(line, "worker")? as u16,
                fiber: field_u64(line, "fiber")? as u32,
                ran_ns: field_u64(line, "ran_ns")?,
            },
            "spurious_preempt" => {
                Event::SpuriousPreempt { worker: field_u64(line, "worker")? as u16 }
            }
            "policy_dispatch" => Event::PolicyDispatch {
                worker: field_u64(line, "worker")? as u16,
                explicit: field_bool(line, "explicit")?,
            },
            "slice_granted" => Event::SliceGranted {
                worker: field_u64(line, "worker")? as u16,
                fiber: field_u64(line, "fiber")? as u32,
                slice_ns: field_u64(line, "slice_ns")?,
            },
            "switch_begin" => Event::SwitchBegin {
                worker: field_u64(line, "worker")? as u16,
                fiber: field_u64(line, "fiber")? as u32,
                resumed: field_bool(line, "resumed")?,
            },
            "quantum_adjusted" => Event::QuantumAdjusted {
                old_ns: field_u64(line, "old_ns")?,
                new_ns: field_u64(line, "new_ns")?,
            },
            "marker" => Event::Marker { code: field_u64(line, "code")? as u32 },
            "fault_injected" => Event::FaultInjected {
                worker: field_u64(line, "worker")? as u16,
                kind: field_u64(line, "kind")? as u8,
            },
            "preempt_issued" => Event::PreemptIssued {
                worker: field_u64(line, "worker")? as u16,
                seq: field_u64(line, "seq")?,
                attempt: field_u64(line, "attempt")? as u8,
                uintr: field_bool(line, "uintr")?,
            },
            "preempt_landed" => Event::PreemptLanded {
                worker: field_u64(line, "worker")? as u16,
                seq: field_u64(line, "seq")?,
                uintr: field_bool(line, "uintr")?,
            },
            "preempt_retry" => Event::PreemptRetry {
                worker: field_u64(line, "worker")? as u16,
                seq: field_u64(line, "seq")?,
                attempt: field_u64(line, "attempt")? as u8,
                delay_ns: field_u64(line, "delay_ns")?,
            },
            "mech_degraded" => Event::MechDegraded {
                worker: field_u64(line, "worker")? as u16,
                losses: field_u64(line, "losses")? as u8,
            },
            "mech_recovered" => {
                Event::MechRecovered { worker: field_u64(line, "worker")? as u16 }
            }
            "mech_brownout" => Event::MechBrownout {
                worker: field_u64(line, "worker")? as u16,
                losses: field_u64(line, "losses")? as u8,
            },
            "shed" => Event::Shed {
                class: field_u64(line, "class")? as u8,
                queued: field_u64(line, "queued")? as u32,
            },
            "admitted" => Event::Admitted {
                class: field_u64(line, "class")? as u8,
                queued: field_u64(line, "queued")? as u32,
            },
            _ => return None,
        };
        Some(TimedEvent { at: SimTime::from_nanos(t), ev })
    }
}

/// The raw text of `"key":` followed by its value start, or `None`.
fn field_pos<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)?;
    Some(line[at + needle.len()..].trim_start())
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = field_pos(line, key)?;
    let digits: &str = rest.split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    let rest = field_pos(line, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = field_pos(line, key)?;
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// One instance of every variant, for exhaustive schema tests.
    pub(crate) fn one_of_each() -> Vec<TimedEvent> {
        let evs = [
            Event::UipiSent { worker: 3, vector: 0 },
            Event::UipiDelivered { worker: 3, coalesced: true },
            Event::UipiPended { worker: 1 },
            Event::UipiSuppressed { worker: 2 },
            Event::KernelAssistWake { worker: 0 },
            Event::SignalSent { worker: 5, lock_wait_ns: 1_200 },
            Event::KtimerArmed { worker: 4, target_ns: 60_000 },
            Event::KtimerFired { worker: 4 },
            Event::IpcSampled { mech: 5, latency_ns: 4_096 },
            Event::DeadlineArmed { slot: 7, deadline_ns: 99_000 },
            Event::DeadlineDisarmed { slot: 7 },
            Event::TimerPoll { expired: 2 },
            Event::Arrival { class: 0 },
            Event::Drop { class: 1 },
            Event::TaskStart { worker: 0, fiber: 12, resumed: false, switch_ns: 650 },
            Event::TaskFinish { worker: 0, fiber: 12, latency_ns: 88_000 },
            Event::Preempt { worker: 0, fiber: 12, ran_ns: 10_000 },
            Event::SpuriousPreempt { worker: 6 },
            Event::PolicyDispatch { worker: 3, explicit: true },
            Event::SliceGranted { worker: 3, fiber: 12, slice_ns: 10_000 },
            Event::SwitchBegin { worker: 3, fiber: 12, resumed: true },
            Event::QuantumAdjusted { old_ns: 30_000, new_ns: 25_000 },
            Event::Marker { code: 42 },
            Event::FaultInjected { worker: 1, kind: 0 },
            Event::PreemptIssued { worker: 1, seq: 9, attempt: 0, uintr: true },
            Event::PreemptLanded { worker: 1, seq: 9, uintr: true },
            Event::PreemptRetry { worker: 1, seq: 9, attempt: 2, delay_ns: 40_000 },
            Event::MechDegraded { worker: 1, losses: 3 },
            Event::MechRecovered { worker: 1 },
            Event::MechBrownout { worker: 1, losses: 2 },
            Event::Shed { class: 1, queued: 257 },
            Event::Admitted { class: 0, queued: 31 },
        ];
        evs.iter()
            .enumerate()
            .map(|(i, &ev)| TimedEvent { at: t(100 * i as u64), ev })
            .collect()
    }

    #[test]
    fn events_are_small_and_copy() {
        // The hot-path contract: an event is a handful of words, not a
        // heap structure.
        assert!(std::mem::size_of::<Event>() <= 24, "{}", std::mem::size_of::<Event>());
        assert!(std::mem::size_of::<TimedEvent>() <= 32);
        let e = Event::Arrival { class: 0 };
        let f = e; // Copy
        assert_eq!(e, f);
    }

    #[test]
    fn jsonl_roundtrip_every_variant() {
        for te in one_of_each() {
            let line = te.to_jsonl();
            let back = TimedEvent::parse_jsonl(&line)
                .unwrap_or_else(|| panic!("unparseable: {line}"));
            assert_eq!(back, te, "{line}");
        }
    }

    #[test]
    fn jsonl_fixed_key_order() {
        let te = TimedEvent {
            at: t(1_234),
            ev: Event::Preempt { worker: 2, fiber: 9, ran_ns: 10_000 },
        };
        assert_eq!(
            te.to_jsonl(),
            r#"{"t":1234,"ev":"preempt","worker":2,"fiber":9,"ran_ns":10000}"#
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TimedEvent::parse_jsonl("not json").is_none());
        assert!(TimedEvent::parse_jsonl(r#"{"t":1,"ev":"no_such_event"}"#).is_none());
        // Missing field.
        assert!(TimedEvent::parse_jsonl(r#"{"t":1,"ev":"preempt","worker":2}"#).is_none());
    }

    #[test]
    fn parse_tolerates_reordered_keys() {
        let line = r#"{"ev":"arrival","class":1,"t":77}"#;
        let te = TimedEvent::parse_jsonl(line).unwrap();
        assert_eq!(te.at, t(77));
        assert_eq!(te.ev, Event::Arrival { class: 1 });
    }

    #[test]
    fn display_is_single_line() {
        for te in one_of_each() {
            let s = te.ev.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "{s:?}");
        }
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut names: Vec<&str> = one_of_each().iter().map(|t| t.ev.name()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate event names");
        for name in names {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{name} not snake_case"
            );
        }
    }
}
