//! Trace dump: capture the typed cross-layer event trace of a short
//! run and print it as JSONL (its head, then a filtered view of the
//! preemption life-cycle), followed by the metrics registry snapshot.
//!
//! ```text
//! cargo run --release --example trace_dump
//! ```
//!
//! The event schema is documented in `docs/TRACING.md`. Tracing is
//! enabled by setting [`RuntimeConfig::trace_capacity`]; the metrics
//! counters are collected on every run regardless.

use libpreemptible::{run, Fifo, RuntimeConfig, ServiceSource, WorkloadSpec};
use lp_sim::obs::{Event, TimedEvent};
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

fn main() {
    // Long constant-service requests under a short quantum: every
    // request gets preempted several times, so the trace shows the full
    // arm → poll → SENDUIPI → delivery → park cycle repeatedly.
    let spec = WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
            SimDur::micros(40),
        ))),
        arrivals: RateSchedule::Constant(20_000.0),
        duration: SimDur::millis(2),
        warmup: SimDur::ZERO,
    };
    let cfg = RuntimeConfig {
        workers: 2,
        trace_capacity: 4096,
        ..RuntimeConfig::default()
    };
    let report = run(cfg, Box::new(Fifo::new(SimDur::micros(10))), spec);

    println!("== events (JSONL, one per line) ==");
    let jsonl = report.events_jsonl();
    for line in jsonl.lines().take(25) {
        println!("{line}");
    }
    if report.events.len() > 25 {
        println!("... {} more", report.events.len() - 25);
    }

    // The JSONL stream round-trips losslessly through the parser.
    let parsed: Vec<TimedEvent> = jsonl
        .lines()
        .map(|l| TimedEvent::parse_jsonl(l).expect("schema round-trip"))
        .collect();
    assert_eq!(parsed, report.events);

    println!("\n== preemption life-cycles (filtered) ==");
    let mut shown = 0;
    for te in &report.events {
        let keep = matches!(
            te.ev,
            Event::DeadlineArmed { .. }
                | Event::UipiSent { .. }
                | Event::UipiDelivered { .. }
                | Event::Preempt { .. }
        );
        if keep {
            println!("{}", te.to_jsonl());
            shown += 1;
            if shown == 16 {
                break;
            }
        }
    }

    println!("\n== metrics registry ==");
    for (name, value) in &report.metrics.counters {
        if *value > 0 {
            println!("  {name:<22} {value}");
        }
    }
    for (name, value) in &report.metrics.gauges {
        println!("  {name:<22} {value}");
    }

    // Counters and run totals are the same numbers by construction.
    assert_eq!(report.metrics.counter("preemptions"), report.preemptions);
    assert_eq!(report.metrics.counter("task_finishes"), report.completions);
    println!(
        "\n{} preemptions across {} completions, {} events captured",
        report.preemptions,
        report.completions,
        report.events.len()
    );
}
