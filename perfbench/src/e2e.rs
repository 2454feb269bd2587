//! The untraced run: end-to-end metrics.
//!
//! The timed loop runs the workload's fixed amount of simulated work
//! back to back (a closed loop) until `--seconds` have passed, with a
//! minimum number of operations so every output is checked against a
//! repeat. Set-up (input construction, the corpus replay on
//! `fault_overload`, and one untimed warm-up operation) runs
//! [`SETUP_REPS`] times: first from process start, then spread evenly
//! over the timed loop, so `setup_s` samples the host over the whole
//! run rather than in its first second.

use std::collections::BTreeMap;
use std::time::Instant;

use lp_experiments::runner::{all_artifacts, with_jobs};
use lp_experiments::Scale;
use lp_stats::Histogram;

use crate::checks::{self, Ops};
use crate::stats::{median, misses, nearest_rank, relative_iqr, tail_percentile};
use crate::workloads::{Case, Workload};
use crate::Outcome;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// `wall_s` is this percentile (nearest rank) of the per-operation
/// host times. The host alternates between uncontended and contended
/// phases lasting seconds; a run's median reports whichever phase
/// dominated it, while a low percentile reports the code's
/// uncontended cost.
const LOW_PERCENTILE: f64 = 10.0;
/// Minimum timed `quick_all` iterations.
const MIN_QUICK_ALL: usize = 3;

/// Worker threads the `par` runner uses for `quick_all`.
pub fn jobs() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Runs the untraced benchmark of `w`.
pub fn run(w: Workload, seed: u64, seconds: f64, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    // One set-up: returns the workload's cases and the seconds it took.
    let set_up = |from: Instant, digests: &mut BTreeMap<u64, u64>, ops: &mut Ops| {
        let cases: Vec<Case> = (0..w.subseeds()).map(|k| w.case(seed, k)).collect();
        if w == Workload::FaultOverload {
            checks::replay_corpus(ops);
        }
        if w == Workload::QuickAll {
            quick_all_once(seed, digests, ops);
        } else {
            sim_once(&cases[0], 0, digests, ops);
        }
        (cases, from.elapsed().as_secs_f64())
    };
    let (cases, first_setup) = set_up(start, &mut digests, &mut out.ops);
    let mut setups = vec![first_setup];
    // A fresh process that has done the set-up and one operation: the
    // peak a user sees running the workload once.
    out.set("peak_rss_mb", peak_rss_mb());

    // The loop measures `seconds` of timed operations; the later
    // set-ups run between operations, spread evenly, off the clock.
    // A runtime workload runs every sub-seed at least twice.
    let min_ops = if w == Workload::QuickAll {
        MIN_QUICK_ALL
    } else {
        2 * cases.len()
    };
    let mut times = Vec::new();
    let mut artifact_times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut tail = Tail::default();
    let mut measured = 0.0;
    while times.len() < min_ops || setups.len() < SETUP_REPS || measured < seconds {
        if setups.len() < SETUP_REPS
            && measured >= seconds * setups.len() as f64 / SETUP_REPS as f64
        {
            setups.push(set_up(Instant::now(), &mut digests, &mut out.ops).1);
            continue;
        }
        let i = times.len();
        let t = Instant::now();
        if w == Workload::QuickAll {
            for (name, secs) in quick_all_once(seed, &mut digests, &mut out.ops) {
                artifact_times.entry(name).or_default().push(secs);
            }
        } else {
            let k = i % cases.len();
            let r = sim_once(&cases[k], k as u64, &mut digests, &mut out.ops);
            if i < cases.len() {
                tail.add(&r, cases[k].slo_us());
            }
        }
        times.push(t.elapsed().as_secs_f64());
        measured += times[i];
    }
    if w == Workload::QuickAll {
        // The simulated tail: the canonical Fig. 8 point, untimed.
        for (k, case) in cases.iter().enumerate() {
            let r = sim_once(case, k as u64, &mut digests, &mut out.ops);
            tail.add(&r, case.slo_us());
        }
    }

    print_samples("wall_s", &times);
    print_samples("setup_s", &setups);
    let wall = if w == Workload::QuickAll {
        // Each artifact's low percentile, summed: the artifacts differ
        // in size by three orders of magnitude, so each is its own
        // sample series.
        artifact_times.values().map(|t| low_percentile(t)).sum()
    } else {
        low_percentile(&times)
    };
    out.set("wall_s", wall);
    out.set("setup_s", median(&setups).unwrap_or(0.0));
    // The mean, not the median: per-run p99s are quantized to the
    // histogram's 1/128 buckets, and their median can sit on one bucket
    // for every seed.
    out.set(
        "sim_p99_us",
        tail.p99_us.iter().sum::<f64>() / tail.p99_us.len().max(1) as f64,
    );
    out.set("sim_worst_us", median(&tail.worst_us).unwrap_or(0.0));
    out.set(
        "sim_miss_ratio",
        tail.misses as f64 / tail.arrivals.max(1) as f64,
    );
    out
}

/// The [`LOW_PERCENTILE`] of `samples` (0 for none).
fn low_percentile(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, LOW_PERCENTILE).unwrap_or(0.0)
}

/// Prints a timing's sample count, median, spread, and the highest
/// percentile that has at least ten samples beyond it.
fn print_samples(name: &str, samples: &[f64]) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = tail_percentile(sorted.len());
    println!(
        "  {name}: {} samples, p{LOW_PERCENTILE} {:.6}, median {:.6}, p{p} {:.6}, IQR/median {:.4}",
        sorted.len(),
        low_percentile(&sorted),
        median(&sorted).unwrap_or(0.0),
        nearest_rank(&sorted, p).unwrap_or(0.0),
        relative_iqr(&sorted).unwrap_or(0.0),
    );
}

/// The simulated tail over one round of sub-seeds.
#[derive(Debug, Default)]
pub struct Tail {
    /// Every completed request's latency, all sub-seeds merged.
    pub latency: Histogram,
    /// Each sub-seed's p99 latency, microseconds.
    pub p99_us: Vec<f64>,
    /// Each sub-seed's censoring-aware worst case, microseconds.
    pub worst_us: Vec<f64>,
    /// Requests that missed the SLO.
    pub misses: u64,
    /// Requests that arrived.
    pub arrivals: u64,
}

impl Tail {
    /// Folds one report in.
    pub fn add(&mut self, r: &libpreemptible::RunReport, slo_us: u64) {
        let slo_ns = slo_us * 1_000;
        let above = r.latency.count() - r.latency.count_at_or_below(slo_ns);
        self.latency.merge(&r.latency);
        self.p99_us.push(r.p99_us());
        self.worst_us.push(r.worst_case_ns() as f64 / 1e3);
        self.misses += misses(above, r.dropped, r.in_flight);
        self.arrivals += r.arrivals;
    }
}

/// Runs one simulation as one checked operation: its invariants, and
/// its digest against the first run of the same sub-seed.
pub fn sim_once(
    case: &Case,
    k: u64,
    digests: &mut BTreeMap<u64, u64>,
    ops: &mut Ops,
) -> libpreemptible::RunReport {
    let r = case.run();
    let mut fails = checks::report_failures(&r);
    if r.completions > 0 && r.worst_exemplar().is_none() {
        fails.push("attribution pinned no exemplar despite completions".into());
    }
    let d = checks::report_digest(&r);
    fails.extend(checks::digest_failure(*digests.entry(k).or_insert(d), d));
    ops.record(&format!("simulation {k}"), &fails);
    r
}

/// Runs the quick-scale artifact list once on the parallel runner as
/// one checked operation: its outputs must match the first run's.
/// Returns each artifact's host seconds. Running the list one artifact
/// at a time is exactly what `runner::run_artifacts` does.
fn quick_all_once(
    seed: u64,
    digests: &mut BTreeMap<u64, u64>,
    ops: &mut Ops,
) -> Vec<(&'static str, f64)> {
    let mut times = Vec::new();
    let outputs: Vec<_> = with_jobs(jobs(), || {
        all_artifacts()
            .iter()
            .map(|a| {
                let t = Instant::now();
                let output = a.run(Scale::Quick, seed);
                times.push((a.name, t.elapsed().as_secs_f64()));
                (a.name, output)
            })
            .collect()
    });
    let d = checks::artifacts_digest(&outputs);
    ops.record(
        "quick_all",
        &checks::digest_failure(*digests.entry(u64::MAX).or_insert(d), d),
    );
    times
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
