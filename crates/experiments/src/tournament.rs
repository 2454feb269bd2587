//! The policy tournament — the zoo's general-purpose policies vs every
//! paper workload, ranked into a byte-reproducible leaderboard.
//!
//! Not a figure of the paper: the paper evaluates one scheduling
//! policy (adaptive-quantum FCFS). The tournament exists to keep the
//! [`SchedPolicy`] framework honest — each policy in [`POLICIES`] runs
//! the §V-A workloads A1, A2 and B at ρ = 0.75 on 4 workers under
//! UINTR preemption, and the results are ranked by mean per-workload
//! p99 rank. Output is a markdown leaderboard plus a JSON artifact,
//! both byte-identical at any `LP_JOBS` (pinned by a test below, and
//! by the `tournament` CI job). Omitted from the `all` binary's
//! paper-order artifact list on purpose; regenerate with
//! `cargo run --release -p lp-experiments --bin tournament`. The two
//! zoo policies that exist for one figure's baseline (`RoundRobin` for
//! Libinger, `ClassQuantum` for Fig. 13-right) are not entrants.
//!
//! Adding a policy: implement [`SchedPolicy`], add a factory arm to
//! `make_policy` and its name to [`POLICIES`] — the sweep, ranking
//! and both renderers pick it up. See `docs/POLICIES.md`.

use lp_sim::SimDur;
use lp_workload::RateSchedule;

use libpreemptible::adaptive::{AdaptiveConfig, QuantumController};
use libpreemptible::policies::{AdaptiveQuantum, Edf, Fifo, Mlfq, Srpt, Vruntime};
use libpreemptible::runtime::{run, RuntimeConfig, ServiceSource, WorkloadSpec};
use libpreemptible::sched::SchedPolicy;

use crate::common::{PaperWorkload, Scale};
use crate::runner;

/// The competitors, in stable (alphabetical) order. The order fixes
/// the sweep grid and therefore the artifact bytes; ranking is by
/// measured tails, not by this list.
pub const POLICIES: [&str; 6] = [
    "adaptive-quantum",
    "edf",
    "fifo",
    "mlfq",
    "srpt",
    "vruntime",
];

/// The workloads contested: the three stationary §V-A workloads (C is
/// a phase change — a controller story, not a ranking one).
pub const WORKLOADS: [PaperWorkload; 3] = [PaperWorkload::A1, PaperWorkload::A2, PaperWorkload::B];

/// Offered load per workload, as a fraction of 4-worker capacity.
pub const RHO: f64 = 0.75;

/// SLO defining goodput: completions within 100 us per second.
pub const SLO: SimDur = SimDur::micros(100);

const WORKERS: usize = 4;

/// Builds a tournament entrant by name. The adaptive-quantum entrant
/// is tuned exactly like the figure modules tune it (paper defaults
/// against saturation throughput, controller period = the runtime's
/// control period).
fn make_policy(name: &str, max_load_rps: f64, control_period: SimDur) -> Box<dyn SchedPolicy> {
    match name {
        "adaptive-quantum" => {
            let mut a = AdaptiveConfig::paper_defaults(max_load_rps);
            a.period = control_period;
            Box::new(AdaptiveQuantum::new(QuantumController::new(
                a,
                SimDur::micros(10),
            )))
        }
        "edf" => Box::new(Edf::new(
            SimDur::micros(10),
            SimDur::micros(100),
            SimDur::millis(1),
        )),
        "fifo" => Box::new(Fifo::new(SimDur::micros(10))),
        "mlfq" => Box::new(Mlfq::new(SimDur::micros(5), 4)),
        "srpt" => Box::new(Srpt::new(SimDur::micros(10))),
        "vruntime" => Box::new(Vruntime::new(SimDur::micros(10))),
        other => panic!("unknown tournament policy {other:?}"),
    }
}

/// One (policy, workload) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentPoint {
    /// Competitor name ([`SchedPolicy::name`]).
    pub policy: &'static str,
    /// Workload label (`A1`, `A2`, `B`).
    pub workload: &'static str,
    /// p99 latency, us.
    pub p99_us: f64,
    /// p99.9 latency, us.
    pub p999_us: f64,
    /// Completions per second that met the [`SLO`].
    pub goodput_rps: f64,
    /// Preemptions delivered over the run.
    pub preemptions: u64,
    /// Requests completed over the run.
    pub completions: u64,
}

/// One leaderboard entry: a policy with its per-workload points, in
/// [`WORKLOADS`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardRow {
    /// 1-based final placement.
    pub rank: usize,
    /// Competitor name.
    pub policy: &'static str,
    /// Mean of the per-workload p99 placements (lower is better).
    pub mean_rank: f64,
    /// The policy's measured cells, one per workload.
    pub points: Vec<TournamentPoint>,
}

/// Runs the full sweep and ranks it. Each cell is an independent
/// deterministic simulation fanned out through [`runner::map_points`];
/// the ranking is a pure function of the returned grid, so the
/// leaderboard bytes cannot depend on the job count.
pub fn run_tournament(scale: Scale, seed: u64) -> Vec<LeaderboardRow> {
    let duration = scale.point_duration();
    let control_period = (duration / 40).max(SimDur::millis(2));

    let mut grid: Vec<(&'static str, PaperWorkload)> = Vec::new();
    for &policy in &POLICIES {
        for &wl in &WORKLOADS {
            grid.push((policy, wl));
        }
    }

    let points = runner::map_points("tournament", &grid, |_id, &(policy, wl)| {
        let rate = wl.rate_for(RHO, WORKERS);
        let max_load = wl.rate_for(1.0, WORKERS);
        let r = run(
            RuntimeConfig {
                workers: WORKERS,
                seed,
                control_period,
                ..RuntimeConfig::default()
            },
            make_policy(policy, max_load, control_period),
            WorkloadSpec {
                source: ServiceSource::Phased(wl.service(duration)),
                arrivals: RateSchedule::Constant(rate),
                duration,
                warmup: scale.warmup(),
            },
        );
        assert!(r.is_conserved(), "{policy} on {}: not conserved", wl.name());
        TournamentPoint {
            policy,
            workload: wl.name(),
            p99_us: r.p99_us(),
            p999_us: r.latency.p999() as f64 / 1_000.0,
            goodput_rps: r.throughput_rps() * (1.0 - r.slo_violations(SLO)),
            preemptions: r.preemptions,
            completions: r.completions,
        }
    });

    rank(&points)
}

/// Ranks a sweep grid: within each workload, policies place by p99
/// (ties broken by name, so the result is total and deterministic);
/// the final order is by mean placement, again name-tiebroken.
fn rank(points: &[TournamentPoint]) -> Vec<LeaderboardRow> {
    // Per-workload placements.
    let mut placement: Vec<(&'static str, &'static str, usize)> = Vec::new();
    for &wl in &WORKLOADS {
        let mut cells: Vec<&TournamentPoint> =
            points.iter().filter(|p| p.workload == wl.name()).collect();
        cells.sort_by(|a, b| {
            a.p99_us
                .total_cmp(&b.p99_us)
                .then_with(|| a.policy.cmp(b.policy))
        });
        for (i, c) in cells.iter().enumerate() {
            placement.push((c.policy, c.workload, i + 1));
        }
    }

    let mut rows: Vec<LeaderboardRow> = POLICIES
        .iter()
        .map(|&policy| {
            let ranks: Vec<usize> = placement
                .iter()
                .filter(|&&(p, _, _)| p == policy)
                .map(|&(_, _, r)| r)
                .collect();
            let mean_rank = ranks.iter().sum::<usize>() as f64 / ranks.len() as f64;
            LeaderboardRow {
                rank: 0,
                policy,
                mean_rank,
                points: points
                    .iter()
                    .filter(|p| p.policy == policy)
                    .cloned()
                    .collect(),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        a.mean_rank
            .total_cmp(&b.mean_rank)
            .then_with(|| a.policy.cmp(b.policy))
    });
    for (i, row) in rows.iter_mut().enumerate() {
        row.rank = i + 1;
    }
    rows
}

/// Renders the leaderboard as the markdown artifact
/// (`results/tournament.md`). Fixed-precision formatting keeps the
/// bytes reproducible.
pub fn leaderboard_markdown(rows: &[LeaderboardRow], seed: u64) -> String {
    let mut s = String::new();
    s.push_str("# Policy tournament leaderboard\n\n");
    s.push_str(&format!(
        "Workloads A1/A2/B at rho={RHO}, {WORKERS} workers, UINTR preemption, \
         seed {seed}. Rank = mean per-workload p99 placement; goodput counts \
         completions within the {} us SLO.\n\n",
        SLO.as_nanos() / 1_000
    ));
    s.push_str(
        "| rank | policy | mean rank | A1 p99 (us) | A2 p99 (us) | B p99 (us) | preemptions |\n",
    );
    s.push_str("|---|---|---|---|---|---|---|\n");
    for row in rows {
        let p99 = |wl: &str| {
            row.points
                .iter()
                .find(|p| p.workload == wl)
                .map(|p| format!("{:.1}", p.p99_us))
                .unwrap_or_else(|| "-".into())
        };
        let preemptions: u64 = row.points.iter().map(|p| p.preemptions).sum();
        s.push_str(&format!(
            "| {} | {} | {:.2} | {} | {} | {} | {} |\n",
            row.rank,
            row.policy,
            row.mean_rank,
            p99("A1"),
            p99("A2"),
            p99("B"),
            preemptions,
        ));
    }
    s.push_str("\n## Per-point detail\n\n");
    s.push_str("| policy | workload | p99 (us) | p99.9 (us) | goodput (rps) | preemptions | completions |\n");
    s.push_str("|---|---|---|---|---|---|---|\n");
    for row in rows {
        for p in &row.points {
            s.push_str(&format!(
                "| {} | {} | {:.1} | {:.1} | {:.0} | {} | {} |\n",
                p.policy,
                p.workload,
                p.p99_us,
                p.p999_us,
                p.goodput_rps,
                p.preemptions,
                p.completions,
            ));
        }
    }
    s
}

/// Renders the leaderboard as the JSON artifact
/// (`results/tournament.json`). Hand-rolled with fixed-precision
/// floats so the bytes are stable across job counts and toolchains.
pub fn leaderboard_json(rows: &[LeaderboardRow], seed: u64) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"seed\": {seed},\n  \"rho\": {RHO},\n  \"workers\": {WORKERS},\n  \"slo_us\": {},\n",
        SLO.as_nanos() / 1_000
    ));
    s.push_str("  \"leaderboard\": [\n");
    for (i, row) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rank\": {}, \"policy\": \"{}\", \"mean_rank\": {:.3}, \"points\": [",
            row.rank, row.policy, row.mean_rank
        ));
        for (j, p) in row.points.iter().enumerate() {
            s.push_str(&format!(
                "{{\"workload\": \"{}\", \"p99_us\": {:.3}, \"p999_us\": {:.3}, \
                 \"goodput_rps\": {:.3}, \"preemptions\": {}, \"completions\": {}}}",
                p.workload, p.p99_us, p.p999_us, p.goodput_rps, p.preemptions, p.completions
            ));
            if j + 1 < row.points.len() {
                s.push_str(", ");
            }
        }
        s.push_str("]}");
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_contests_every_workload() {
        let rows = run_tournament(Scale::Quick, crate::DEFAULT_SEED);
        assert_eq!(rows.len(), POLICIES.len());
        for row in &rows {
            assert_eq!(row.points.len(), WORKLOADS.len());
            for p in &row.points {
                assert!(
                    p.completions > 0,
                    "{} on {} completed nothing",
                    p.policy,
                    p.workload
                );
                assert!(p.goodput_rps >= 0.0);
            }
        }
        // Ranks are a permutation of 1..=n.
        let mut ranks: Vec<usize> = rows.iter().map(|r| r.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (1..=POLICIES.len()).collect::<Vec<_>>());
        // Mean ranks are sorted — the leaderboard is actually ranked.
        for w in rows.windows(2) {
            assert!(w[0].mean_rank <= w[1].mean_rank);
        }
    }

    /// The acceptance bar: both artifacts are byte-identical across
    /// job counts (the CI `tournament` job re-checks this end-to-end
    /// through the binary with `LP_JOBS` in the environment).
    #[test]
    fn leaderboard_bytes_are_job_count_invariant() {
        let render = || {
            let rows = run_tournament(Scale::Quick, crate::DEFAULT_SEED);
            (
                leaderboard_json(&rows, crate::DEFAULT_SEED),
                leaderboard_markdown(&rows, crate::DEFAULT_SEED),
            )
        };
        let serial = runner::with_jobs(1, render);
        for jobs in [2, 8] {
            let parallel = runner::with_jobs(jobs, render);
            assert_eq!(
                serial, parallel,
                "LP_JOBS={jobs} changed the artifact bytes"
            );
        }
    }

    #[test]
    fn ranking_is_total_and_name_tiebroken() {
        let mk = |policy: &'static str, workload: &'static str, p99: f64| TournamentPoint {
            policy,
            workload,
            p99_us: p99,
            p999_us: p99 * 2.0,
            goodput_rps: 1000.0,
            preemptions: 1,
            completions: 10,
        };
        // Two policies tie everywhere: alphabetical order must decide.
        let points: Vec<TournamentPoint> = POLICIES
            .iter()
            .flat_map(|&p| WORKLOADS.iter().map(move |w| mk(p, w.name(), 5.0)))
            .collect();
        let rows = rank(&points);
        let order: Vec<&str> = rows.iter().map(|r| r.policy).collect();
        let mut sorted = POLICIES.to_vec();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }
}
