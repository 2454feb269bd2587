//! The `select_cpu` placement hook: isolating best-effort work on a
//! dedicated worker.
//!
//! ```text
//! cargo run --release --example policy_placement
//! ```
//!
//! The runtime's default placement is join-shortest-queue, which mixes
//! the §V-C colocation workload's 2% zlib jobs (~100s of us each) into
//! every worker's queue. The policy below instead answers the
//! `select_cpu` hook (`docs/POLICIES.md`): best-effort requests
//! (class 1) are pinned to the last worker, latency-critical requests
//! (class 0) go to the shortest of the remaining queues via
//! `ctx.queue_depths`. Every placement is recorded as a
//! `policy_dispatch` trace event whose `explicit` flag says whether
//! the policy chose or the JSQ fallback did.

use libpreemptible::sched::{Dispatch, Enqueue, ResumeSel, SchedCtx, SchedPolicy, TaskView};
use libpreemptible::{run, PreemptMech, RunReport, RuntimeConfig, ServiceSource, WorkloadSpec};
use lp_sim::obs::Event;
use lp_sim::SimDur;
use lp_workload::{ColocatedWorkload, RateSchedule};

/// FCFS with class-partitioned placement: class 1 owns the last
/// worker, class 0 load-balances across the rest.
#[derive(Debug)]
struct BePinned {
    slice: SimDur,
}

impl SchedPolicy for BePinned {
    fn name(&self) -> &'static str {
        "be-pinned (placement)"
    }

    fn select_cpu(&mut self, task: &TaskView, ctx: &mut SchedCtx<'_>) -> Option<usize> {
        let last = ctx.queue_depths.len() - 1;
        if task.class == 1 {
            return Some(last);
        }
        // Shortest queue among the LC workers (first-min = lowest id).
        ctx.queue_depths[..last]
            .iter()
            .enumerate()
            .min_by_key(|&(_, d)| d)
            .map(|(w, _)| w)
    }

    fn enqueue(&mut self, _task: &TaskView, _ctx: &mut SchedCtx<'_>) -> Enqueue {
        Enqueue::Back
    }

    fn dispatch(&mut self, _cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        if ctx.runnable > 0 {
            Dispatch::New
        } else if ctx.parked > 0 {
            Dispatch::Parked(ResumeSel::Fifo)
        } else {
            Dispatch::Idle
        }
    }

    fn time_slice(&mut self, _task: &TaskView, _ctx: &mut SchedCtx<'_>) -> SimDur {
        self.slice
    }

    fn quantum_hint(&self, _class: u8) -> SimDur {
        self.slice
    }
}

fn colocated(policy: Box<dyn SchedPolicy>) -> RunReport {
    run(
        RuntimeConfig {
            workers: 4,
            mech: PreemptMech::Uintr,
            control_period: SimDur::millis(5),
            // Keep a trace window so the policy_dispatch events (and
            // their `explicit` placement flag) can be inspected below.
            trace_capacity: 1 << 14,
            // Work stealing would let LC workers pull pinned BE jobs
            // back off the dedicated queue; placement demos disable it.
            work_stealing: false,
            ..RuntimeConfig::default()
        },
        policy,
        WorkloadSpec {
            source: ServiceSource::Colocated(ColocatedWorkload::paper_config()),
            arrivals: RateSchedule::Constant(500_000.0),
            duration: SimDur::millis(100),
            warmup: SimDur::millis(10),
        },
    )
}

fn main() {
    let pinned = colocated(Box::new(BePinned { slice: SimDur::micros(10) }));
    let jsq = colocated(Box::new(libpreemptible::Fifo::new(SimDur::micros(10))));

    let explicit = pinned
        .events
        .iter()
        .filter(|te| matches!(te.ev, Event::PolicyDispatch { explicit: true, .. }))
        .count();
    println!(
        "placements recorded: {} ({} explicit in the trace window)\n",
        pinned.metrics.counter("policy_dispatches"),
        explicit
    );
    for (label, r) in [("jsq (default)", &jsq), ("be-pinned", &pinned)] {
        println!(
            "{:<16} LC p99 {:>8.1} us   BE p99 {:>9.1} us   overall p99 {:>8.1} us",
            label,
            r.class_latency(0).p99() as f64 / 1_000.0,
            r.class_latency(1).p99() as f64 / 1_000.0,
            r.p99_us()
        );
    }
}
