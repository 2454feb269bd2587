//! Implementing a custom scheduling policy against the LibPreemptible
//! API (§III-F: "LibPreemptible exposes an API for users to easily
//! integrate application-specific scheduling policies").
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```
//!
//! The policy below is written directly against the `SchedPolicy`
//! framework trait (`docs/POLICIES.md`): a *tail-aging escalator* that
//! grants every request a generous slice, but — observing each closed
//! control window — halves the slice it grants when the window's tail
//! deteriorates, aging long requests toward finer-grained sharing
//! while leaving short requests untouched. It is compared against
//! plain preemptive FCFS with the same average quantum. A second
//! example, `policy_placement`, shows the `select_cpu` placement hook.

use libpreemptible::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};
use libpreemptible::{run, Fifo, RuntimeConfig, ServiceSource, WorkloadSpec};
use lp_sim::SimDur;
use lp_stats::WindowSummary;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

/// Grants fresh requests a large slice and shrinks it as window tail
/// latency deteriorates — a dozen-line policy, which is the point.
#[derive(Debug)]
struct TailAgingPolicy {
    quantum: SimDur,
}

impl SchedPolicy for TailAgingPolicy {
    fn name(&self) -> &'static str {
        "tail-aging (custom)"
    }

    fn dispatch(&mut self, _cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        // Short-job friendly: always drain fresh requests first, then
        // resume the shortest leftover.
        if ctx.runnable > 0 {
            Dispatch::New
        } else if ctx.parked > 0 {
            Dispatch::Parked(ResumeSel::MinKey)
        } else {
            Dispatch::Idle
        }
    }

    fn time_slice(&mut self, _task: &TaskView, _ctx: &mut SchedCtx<'_>) -> SimDur {
        self.quantum
    }

    fn resume_key(&self, task: &TaskView) -> u64 {
        // MinKey resumes the smallest key: least remaining work first.
        task.remaining.as_nanos()
    }

    fn quantum_hint(&self, _class: u8) -> SimDur {
        self.quantum
    }

    fn on_window(&mut self, s: &WindowSummary) {
        // React to the observed tail: p99 beyond 20x median means
        // head-of-line blocking — tighten; a calm window relaxes.
        self.quantum = if s.p99_ns > 20 * s.median_ns.max(1) {
            (self.quantum / 2).max(SimDur::micros(3))
        } else {
            (self.quantum * 2).min(SimDur::micros(50))
        };
    }
}

fn main() {
    let dist = ServiceDist::workload_a2();
    let rate = dist.rate_for_utilization(0.8, 4);
    let spec = || WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(dist.clone())),
        arrivals: RateSchedule::Constant(rate),
        duration: SimDur::millis(200),
        warmup: SimDur::millis(20),
    };
    let cfg = || RuntimeConfig {
        control_period: SimDur::millis(5),
        ..RuntimeConfig::default()
    };

    let custom = run(
        cfg(),
        Box::new(TailAgingPolicy {
            quantum: SimDur::micros(50),
        }),
        spec(),
    );
    let fcfs = run(cfg(), Box::new(Fifo::new(SimDur::micros(25))), spec());

    println!("workload A2 at {:.0} kRPS, 4 workers\n", rate / 1_000.0);
    for r in [&fcfs, &custom] {
        println!(
            "{:<40} median {:>7.1} us   p99 {:>8.1} us   preemptions {}",
            r.system,
            r.median_us(),
            r.p99_us(),
            r.preemptions
        );
    }
}
