//! Replaying a recorded service-time trace through the runtime.
//!
//! ```text
//! cargo run --release --example trace_replay [trace.txt]
//! ```
//!
//! Reads one service time per line (fractional microseconds; `#`
//! comments allowed) — or uses a built-in production-like trace — then
//! (1) reports the trace's dispersion, (2) replays it at 70% load
//! without preemption and under LibPreemptible's adaptive quantum, and
//! (3) prints the tail-latency difference. This is the "bring your own
//! workload" path: everything the synthetic experiments do works on
//! measured data.

use libpreemptible::adaptive::{AdaptiveConfig, QuantumController};
use libpreemptible::{
    run, AdaptiveQuantum, Fifo, PreemptMech, RuntimeConfig, ServiceSource, WorkloadSpec,
};
use lp_sim::SimDur;
use lp_workload::{EmpiricalDist, PhasedService, RateSchedule, ServiceDist};

/// A production-like default: mostly fast cache hits, a slow-query
/// tail.
const BUILTIN_TRACE: &str = "\
# service times, us
0.8\n1.1\n0.9\n1.3\n0.7\n1.0\n0.8\n250\n0.9\n1.2\n0.8\n1.0\n1.1\n0.9\n420\n1.0\n\
0.7\n0.9\n1.4\n0.8\n1.0\n0.9\n1.1\n0.8\n310\n0.9\n1.0\n1.2\n0.8\n1.1\n0.9\n1.0\n";

fn main() {
    let text = std::env::args()
        .nth(1)
        .map(|p| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("reading {p}: {e}")))
        .unwrap_or_else(|| BUILTIN_TRACE.to_string());
    let trace = EmpiricalDist::from_us_lines(&text).expect("parse trace");
    println!(
        "trace: {} samples, mean {}, SCV {:.1} ({})",
        trace.len(),
        trace.mean(),
        trace.scv(),
        if trace.scv() > 10.0 {
            "heavy-tailed"
        } else {
            "light-tailed"
        },
    );

    // The runtime's ServiceSource is distribution-driven; EmpiricalDist
    // exposes mean/SCV so we mirror the trace with a two-point
    // distribution matching both moments. Among the two-point family we
    // pick the *rare-long* member (0.5% longs, like the paper's A
    // workloads): long = mean * (1 + sqrt(scv * (1-p)/p)).
    let mean_us = trace.mean().as_micros_f64();
    let scv = trace.scv().max(0.01);
    let p = 0.005f64;
    let long = mean_us * (1.0 + (scv * (1.0 - p) / p).sqrt());
    let short = (mean_us - p * long) / (1.0 - p);
    let dist = ServiceDist::Bimodal {
        p_long: p,
        short: SimDur::from_micros_f64(short.max(0.1)),
        long: SimDur::from_micros_f64(long),
    };
    println!("moment-matched surrogate: {dist}\n");

    let workers = 4;
    let rate = dist.rate_for_utilization(0.7, workers);
    let spec = || WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(dist.clone())),
        arrivals: RateSchedule::Constant(rate),
        duration: SimDur::millis(300),
        warmup: SimDur::millis(30),
    };

    let base = run(
        RuntimeConfig {
            workers,
            mech: PreemptMech::None,
            ..RuntimeConfig::default()
        },
        Box::new(Fifo::new(SimDur::MAX)),
        spec(),
    );
    let adaptive = {
        let mut cfg = AdaptiveConfig::paper_defaults(rate / 0.7);
        cfg.period = SimDur::millis(5);
        run(
            RuntimeConfig {
                workers,
                control_period: SimDur::millis(5),
                ..RuntimeConfig::default()
            },
            Box::new(AdaptiveQuantum::new(QuantumController::new(
                cfg,
                SimDur::micros(20),
            ))),
            spec(),
        )
    };

    println!("replay at {:.0} kRPS on {workers} workers:", rate / 1e3);
    for r in [&base, &adaptive] {
        assert!(r.is_conserved());
        println!(
            "  {:<42} median {:>7.1} us   p99 {:>9.1} us   final quantum {}",
            r.system,
            r.median_us(),
            r.p99_us(),
            r.final_quantum
        );
    }
    println!(
        "\np99 improvement from adaptive preemption: {:.1}x",
        base.p99_us() / adaptive.p99_us()
    );
}
