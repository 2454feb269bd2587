//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload's fixed simulated work in a
//! closed loop for `--seconds` and prints the end-to-end metrics; with
//! `--trace 1` it runs the separate traced pass that times calls into
//! each crate and prints the per-layer metrics. Every simulation and
//! artifact run is checked; the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed`, and `metrics`, and the exit
//! code is non-zero if any check failed. `METRICS.md` defines every
//! workload and metric.

mod checks;
mod e2e;
mod layers;
mod micro;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use checks::Ops;
use workloads::Workload;

/// The end-to-end metrics, `(name, unit)`, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_p99_us", "us"),
    ("sim_worst_us", "us"),
    ("sim_miss_ratio", "ratio"),
];

/// The per-layer metrics, `(name, unit)`, printed by `--trace 1`,
/// except the per-artifact ones (see [`per_layer`]).
const LAYER_METRICS: [(&str, &str); 54] = [
    ("engine.push_pop_per_s", "1/s"),
    ("engine.rearm_per_s", "1/s"),
    ("engine.deadline_cancel_ratio", "ratio"),
    ("obs.events", "count"),
    ("obs.events_per_s", "1/s"),
    ("obs.attr_share", "share"),
    ("obs.attr_share_q1", "share"),
    ("obs.attr_share_q3", "share"),
    ("obs.attr_pairs", "count"),
    ("obs.trace_export_s", "s"),
    ("runtime.req_per_s", "1/s"),
    ("runtime.preempts_per_s", "1/s"),
    ("runtime.admission_share", "share"),
    ("runtime.admission_share_q1", "share"),
    ("runtime.admission_share_q3", "share"),
    ("runtime.admission_pairs", "count"),
    ("runtime.watchdog_share", "share"),
    ("runtime.watchdog_share_q1", "share"),
    ("runtime.watchdog_share_q3", "share"),
    ("runtime.watchdog_pairs", "count"),
    ("runtime.landed_ratio", "ratio"),
    ("sched.adapter_share", "share"),
    ("sched.adapter_share_q1", "share"),
    ("sched.adapter_share_q3", "share"),
    ("sched.adapter_pairs", "count"),
    ("retry.retries_per_landed", "ratio"),
    ("retry.degradations", "count"),
    ("retry.brownouts", "count"),
    ("admission.shed_ratio", "ratio"),
    ("sim.queued_p99_us", "us"),
    ("sim.preempt_switch_p99_us", "us"),
    ("sim.retry_stall_p99_us", "us"),
    ("sim.degraded_signal_p99_us", "us"),
    ("sim.brownout_held_p99_us", "us"),
    ("hw.senduipi_per_s", "1/s"),
    ("kernel.signal_per_s", "1/s"),
    ("workload.draw_ns", "ns"),
    ("workload.share", "share"),
    ("stats.record_ns", "ns"),
    ("stats.share", "share"),
    ("baselines.shinjuku_share", "share"),
    ("baselines.libinger_share", "share"),
    ("runtime.fig8_share", "share"),
    ("par.speedup", "x"),
    ("par.efficiency", "share"),
    ("chaos.replay_s", "s"),
    ("self.engine_s", "s"),
    ("self.hw_s", "s"),
    ("self.kernel_s", "s"),
    ("self.workload_s", "s"),
    ("self.stats_s", "s"),
    ("self.obs_attr_s", "s"),
    ("self.runtime_s", "s"),
    ("trace.overhead_share", "share"),
];

/// Every per-layer metric, `(name, unit)`, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(
        lp_experiments::runner::all_artifacts()
            .iter()
            .map(|a| (format!("experiments.{}_s", a.name), "s")),
    );
    out.push(("experiments.residual_s".into(), "s"));
    out
}

/// What one benchmark run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name; metrics a workload does not exercise are
    /// left out and print as 0 (see `METRICS.md`).
    pub values: BTreeMap<String, f64>,
    /// Operations attempted and failed.
    pub ops: Ops,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !std::path::Path::new(checks::CORPUS_PATH).is_file() {
        eprintln!(
            "perfbench: {} not found; run from the repository root",
            checks::CORPUS_PATH
        );
        return ExitCode::from(2);
    }
    let (outcome, metrics): (Outcome, Vec<(String, &str)>) = if args.trace {
        let o = layers::run(args.workload, args.seed);
        (o, per_layer())
    } else {
        let o = e2e::run(args.workload, args.seed, args.seconds, start);
        (
            o,
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
        )
    };

    let mut outcome = outcome;
    for (name, v) in &outcome.values {
        if !v.is_finite() {
            outcome.ops.record(
                &format!("metric {name}"),
                &[format!("value {v} is not finite")],
            );
        }
    }
    let mut json = String::new();
    println!(
        "{} (seed {}, {})",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for (i, (name, unit)) in metrics.iter().enumerate() {
        let v = outcome
            .values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        println!("  {name:<32} {v:>16.6} {unit}");
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    let ops = &outcome.ops;
    println!(
        "  operations: {} attempted, {} failed",
        ops.attempted, ops.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed
    );
    if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut expected = 0;
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
                "{}",
                w.name()
            );
            expected += 1;
        }
        let metrics: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .collect();
        for (name, unit) in &metrics {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(
                json.contains(&entry),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
            expected += 1;
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            expected,
            "BENCHMARK.json has extra entries"
        );
    }
}
