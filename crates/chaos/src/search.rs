//! Deterministic adversarial search over the plan space.
//!
//! Two phases, both byte-reproducible:
//!
//! 1. **Successive halving**: a seeded population of random plans is
//!    scored on short runs; each rung keeps the better half and
//!    doubles the evaluation horizon, so the budget concentrates on
//!    plans that keep looking bad as the run gets longer.
//! 2. **Coordinate descent**: the winner's leaves are mutated one
//!    parameter at a time (rates ×2/÷2, magnitudes ×2/÷2, spikes
//!    ±50%); any move that raises the objective is kept, for a fixed
//!    number of passes.
//!
//! Then [`minimize`] delta-debugs the cliff: leaves are removed and
//! rates halved while the plan keeps ≥ 90% of the peak objective, so
//! the corpus stores the load-bearing core of each attack, not the
//! haystack the search walked through.
//!
//! Determinism: every random draw comes from the single `SmallRng` the
//! caller seeds from `rng(master, streams::CHAOS)`, and all draws
//! happen on the calling thread — the parallel fan-out
//! (`lp_sim::par::ordered_map`) only evaluates already-built
//! candidates and returns scores in submission order. Ties break by
//! submission index. The trajectory is therefore a pure function of
//! `(master seed, budget, eval config)`, independent of `LP_JOBS`.

use lp_sim::par::ordered_map;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::eval::{evaluate, EvalConfig, EvalOutcome};
use crate::plan::{ChaosAtom, ChaosPlan};

/// How much work the search may spend.
#[derive(Debug, Clone, Copy)]
pub struct SearchBudget {
    /// Rung-0 population size.
    pub population: usize,
    /// Successive-halving rungs (each keeps half, doubles the horizon).
    pub rungs: usize,
    /// Coordinate-descent passes over the winner's leaves.
    pub descent_passes: usize,
    /// Worker threads for candidate evaluation (`1` = serial; any
    /// value produces the same bytes).
    pub jobs: usize,
    /// Atom families the sampler may draw from, by tag
    /// (`"drop"`, `"hog"`, `"jitter"`, `"spike"`); empty means all
    /// four. Unconstrained search converges on the single strongest
    /// family, so corpus generation runs restarts under different
    /// restrictions to cover the whole fault algebra.
    pub families: &'static [&'static str],
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            population: 16,
            rungs: 3,
            descent_passes: 2,
            jobs: 1,
            families: &[],
        }
    }
}

/// A scored plan.
#[derive(Debug, Clone)]
pub struct ScoredPlan {
    /// The plan.
    pub plan: ChaosPlan,
    /// Its outcome at the full evaluation horizon, unhardened.
    pub outcome: EvalOutcome,
}

/// Every atom family tag, in wire order.
const ALL_FAMILIES: [&str; 4] = ["drop", "hog", "jitter", "spike"];

/// Samples one random plan: 2–4 components overlaid, each a primitive
/// optionally windowed into the horizon. `families` restricts the
/// atom pool (empty = all four).
fn sample_plan(rng: &mut SmallRng, horizon_us: u64, families: &[&str]) -> ChaosPlan {
    let n = rng.gen_range(2..5usize);
    let parts = (0..n)
        .map(|_| sample_component(rng, horizon_us, families))
        .collect();
    ChaosPlan::Overlay(parts)
}

fn sample_component(rng: &mut SmallRng, horizon_us: u64, families: &[&str]) -> ChaosPlan {
    let atom = sample_atom(rng, families);
    if rng.gen_bool(0.5) {
        let h = horizon_us.max(4) as u32;
        let from = rng.gen_range(0..h / 2);
        let dur = rng.gen_range(h / 8..h / 2 + 1).max(1);
        ChaosPlan::windowed(ChaosPlan::Atom(atom), from, dur)
    } else {
        ChaosPlan::Atom(atom)
    }
}

fn sample_atom(rng: &mut SmallRng, families: &[&str]) -> ChaosAtom {
    let pool = if families.is_empty() {
        &ALL_FAMILIES[..]
    } else {
        families
    };
    // Rates are drawn in whole per-mille steps so sampled plans are
    // already quantized for the corpus text form.
    let ppm = |rng: &mut SmallRng| rng.gen_range(1..1_000u32) * 1_000;
    match pool[rng.gen_range(0..pool.len())] {
        "drop" => ChaosAtom::UintrDropBurst { rate_ppm: ppm(rng) },
        "hog" => ChaosAtom::CoreHogStorm {
            rate_ppm: ppm(rng) / 10,
            hog_us: rng.gen_range(1..21u32) * 100,
        },
        "jitter" => ChaosAtom::TimerJitterWave {
            rate_ppm: ppm(rng),
            spike_us: rng.gen_range(1..21u32) * 50,
        },
        "spike" => ChaosAtom::ArrivalSpike {
            extra_rps: rng.gen_range(1..17u32) * 1_000,
        },
        other => panic!("unknown atom family {other:?}"),
    }
}

/// Scores candidates in parallel, in submission order.
fn score_all(plans: &[ChaosPlan], cfg: &EvalConfig, jobs: usize) -> Vec<EvalOutcome> {
    ordered_map(jobs, plans, |_, p| evaluate(p, cfg, false))
}

/// Ranks indices by objective descending, ties by index ascending.
fn ranked(outcomes: &[EvalOutcome]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..outcomes.len()).collect();
    idx.sort_by_key(|&i| (std::cmp::Reverse(outcomes[i].objective()), i));
    idx
}

/// Runs the full search and returns the worst plan found, scored at
/// the full horizon. `rng` must come from
/// `lp_sim::rng::rng(master, streams::CHAOS)`.
pub fn search(rng: &mut SmallRng, cfg: &EvalConfig, budget: &SearchBudget) -> ScoredPlan {
    assert!(budget.population >= 2, "need a population to halve");
    assert!(budget.rungs >= 1, "need at least one rung");
    let mut plans: Vec<ChaosPlan> = (0..budget.population)
        .map(|_| sample_plan(rng, cfg.horizon_us, budget.families))
        .collect();

    // Successive halving: rung r evaluates at horizon / 2^(rungs-1-r),
    // so the last rung runs at the full horizon.
    for r in 0..budget.rungs {
        let shift = (budget.rungs - 1 - r) as u32;
        let rung_cfg = EvalConfig {
            horizon_us: (cfg.horizon_us >> shift).max(1_000),
            ..*cfg
        };
        let outcomes = score_all(&plans, &rung_cfg, budget.jobs);
        let keep = (plans.len() / 2).max(1);
        let order = ranked(&outcomes);
        plans = order[..keep].iter().map(|&i| plans[i].clone()).collect();
        if plans.len() == 1 {
            break;
        }
    }
    let mut best = plans.swap_remove(0);
    let mut best_outcome = evaluate(&best, cfg, false);

    // Coordinate descent: all moves for a pass are generated up front
    // (no RNG involved), scored in parallel, and the single best
    // improvement is taken; repeat within the pass until no move
    // improves.
    for _ in 0..budget.descent_passes {
        loop {
            let mut moves: Vec<ChaosPlan> = Vec::new();
            for leaf in 0..best.leaves() {
                for m in coordinate_moves() {
                    if let Some(cand) = best.map_leaf(leaf, |a| apply_move(a, m)) {
                        // Skip no-op moves (already at a clamp) so rank
                        // order stays meaningful.
                        if cand != best {
                            moves.push(cand);
                        }
                    }
                }
            }
            if moves.is_empty() {
                break;
            }
            let outcomes = score_all(&moves, cfg, budget.jobs);
            let order = ranked(&outcomes);
            let top = order[0];
            if outcomes[top].objective() > best_outcome.objective() {
                best = moves[top].clone();
                best_outcome = outcomes[top];
            } else {
                break;
            }
        }
    }
    ScoredPlan {
        plan: best,
        outcome: best_outcome,
    }
}

/// One coordinate move: a pure transform of a single atom.
#[derive(Debug, Clone, Copy)]
enum Move {
    RateUp,
    RateDown,
    MagUp,
    MagDown,
}

fn coordinate_moves() -> [Move; 4] {
    [Move::RateUp, Move::RateDown, Move::MagUp, Move::MagDown]
}

fn apply_move(a: ChaosAtom, m: Move) -> ChaosAtom {
    let rate = |r: u32, up: bool| {
        if up {
            (r.saturating_mul(2)).min(1_000_000)
        } else {
            (r / 2).max(1_000)
        }
    };
    let mag = |v: u32, up: bool, lo: u32, hi: u32| {
        if up {
            (v.saturating_mul(2)).min(hi)
        } else {
            (v / 2).max(lo)
        }
    };
    match (a, m) {
        (ChaosAtom::UintrDropBurst { rate_ppm }, Move::RateUp) => ChaosAtom::UintrDropBurst {
            rate_ppm: rate(rate_ppm, true),
        },
        (ChaosAtom::UintrDropBurst { rate_ppm }, Move::RateDown) => ChaosAtom::UintrDropBurst {
            rate_ppm: rate(rate_ppm, false),
        },
        // A drop burst has no magnitude knob: magnitude moves are
        // no-ops the caller filters out.
        (a @ ChaosAtom::UintrDropBurst { .. }, Move::MagUp | Move::MagDown) => a,
        (ChaosAtom::CoreHogStorm { rate_ppm, hog_us }, Move::RateUp) => ChaosAtom::CoreHogStorm {
            rate_ppm: rate(rate_ppm, true),
            hog_us,
        },
        (ChaosAtom::CoreHogStorm { rate_ppm, hog_us }, Move::RateDown) => ChaosAtom::CoreHogStorm {
            rate_ppm: rate(rate_ppm, false),
            hog_us,
        },
        (ChaosAtom::CoreHogStorm { rate_ppm, hog_us }, Move::MagUp) => ChaosAtom::CoreHogStorm {
            rate_ppm,
            hog_us: mag(hog_us, true, 50, 4_000),
        },
        (ChaosAtom::CoreHogStorm { rate_ppm, hog_us }, Move::MagDown) => ChaosAtom::CoreHogStorm {
            rate_ppm,
            hog_us: mag(hog_us, false, 50, 4_000),
        },
        (ChaosAtom::TimerJitterWave { rate_ppm, spike_us }, Move::RateUp) => {
            ChaosAtom::TimerJitterWave {
                rate_ppm: rate(rate_ppm, true),
                spike_us,
            }
        }
        (ChaosAtom::TimerJitterWave { rate_ppm, spike_us }, Move::RateDown) => {
            ChaosAtom::TimerJitterWave {
                rate_ppm: rate(rate_ppm, false),
                spike_us,
            }
        }
        (ChaosAtom::TimerJitterWave { rate_ppm, spike_us }, Move::MagUp) => {
            ChaosAtom::TimerJitterWave {
                rate_ppm,
                spike_us: mag(spike_us, true, 10, 2_000),
            }
        }
        (ChaosAtom::TimerJitterWave { rate_ppm, spike_us }, Move::MagDown) => {
            ChaosAtom::TimerJitterWave {
                rate_ppm,
                spike_us: mag(spike_us, false, 10, 2_000),
            }
        }
        (ChaosAtom::ArrivalSpike { extra_rps }, Move::RateUp | Move::MagUp) => {
            ChaosAtom::ArrivalSpike {
                extra_rps: (extra_rps + extra_rps / 2).min(64_000),
            }
        }
        (ChaosAtom::ArrivalSpike { extra_rps }, Move::RateDown | Move::MagDown) => {
            ChaosAtom::ArrivalSpike {
                extra_rps: (extra_rps - extra_rps / 3).max(500),
            }
        }
    }
}

/// Delta-debugging minimizer: repeatedly drop leaves and halve rates
/// while the plan keeps at least `keep_frac_pct`% of `cliff`'s
/// objective. Returns the smallest surviving plan with its outcome.
pub fn minimize(plan: &ChaosPlan, cfg: &EvalConfig, cliff: u64, keep_frac_pct: u64) -> ScoredPlan {
    let floor = cliff / 100 * keep_frac_pct;
    let mut best = plan.clone();
    let mut outcome = evaluate(&best, cfg, false);
    // Pass 1: structural — remove whole leaves, first-fit, restarting
    // after every successful removal (classic ddmin step with n = 1).
    'removal: loop {
        for i in 0..best.leaves() {
            if let Some(cand) = best.without_leaf(i) {
                let o = evaluate(&cand, cfg, false);
                if o.objective() >= floor {
                    best = cand;
                    outcome = o;
                    continue 'removal;
                }
            }
        }
        break;
    }
    // Pass 2: magnitudes — halve each surviving rate while the cliff
    // holds, so the corpus records the weakest fault intensity that
    // still reproduces it.
    loop {
        let mut improved = false;
        for i in 0..best.leaves() {
            if let Some(cand) = best.map_leaf(i, |a| apply_move(a, Move::RateDown)) {
                if cand == best {
                    continue;
                }
                let o = evaluate(&cand, cfg, false);
                if o.objective() >= floor {
                    best = cand;
                    outcome = o;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    ScoredPlan {
        plan: best,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::rng::{rng, streams};

    fn quick_cfg() -> EvalConfig {
        EvalConfig {
            horizon_us: 8_000,
            ..EvalConfig::default()
        }
    }

    #[test]
    fn search_is_reproducible_across_job_counts() {
        let cfg = quick_cfg();
        let budget = |jobs| SearchBudget {
            population: 4,
            rungs: 2,
            descent_passes: 1,
            jobs,
            families: &[],
        };
        let a = search(&mut rng(7, streams::CHAOS), &cfg, &budget(1));
        let b = search(&mut rng(7, streams::CHAOS), &cfg, &budget(8));
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let cfg = quick_cfg();
        let budget = SearchBudget {
            population: 4,
            rungs: 1,
            descent_passes: 0,
            jobs: 1,
            families: &[],
        };
        let a = search(&mut rng(1, streams::CHAOS), &cfg, &budget);
        let b = search(&mut rng(2, streams::CHAOS), &cfg, &budget);
        assert_ne!(a.plan, b.plan, "two seeds sampled identical populations");
    }

    #[test]
    fn minimizer_never_loses_the_cliff_threshold() {
        let cfg = quick_cfg();
        let found = search(
            &mut rng(7, streams::CHAOS),
            &cfg,
            &SearchBudget {
                population: 4,
                rungs: 2,
                descent_passes: 0,
                jobs: 1,
                families: &[],
            },
        );
        let cliff = found.outcome.objective();
        let min = minimize(&found.plan, &cfg, cliff, 90);
        assert!(min.outcome.objective() >= cliff / 100 * 90);
        assert!(min.plan.leaves() <= found.plan.leaves());
        // Minimization itself is deterministic.
        let again = minimize(&found.plan, &cfg, cliff, 90);
        assert_eq!(min.plan, again.plan);
    }
}
