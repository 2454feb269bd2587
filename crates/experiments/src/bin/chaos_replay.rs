//! Replays the pinned chaos regression corpus and fails loudly on any
//! drift.
//!
//! For every entry in `results/chaos_corpus.json` the plan is
//! re-evaluated hardened and unhardened under the entry's own pinned
//! `EvalConfig`. The gate fails (exit 1) if any re-derived objective or
//! worst-case differs from the pinned value, if either run breaks
//! arrival conservation (a stranded fiber), or if the hardened runtime
//! no longer beats the unhardened worst case. Entries fan out across
//! `LP_JOBS` worker threads; `results/chaos_replay.csv` is pure-integer
//! and byte-identical at any job count, which is what CI diffs.

use lp_chaos::{corpus, evaluate};
use lp_experiments::runner;

fn main() {
    let path = "results/chaos_corpus.json";
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} — run the `chaos` binary first"));
    let entries = corpus::from_json(&raw)
        .unwrap_or_else(|| panic!("{path} is malformed or has the wrong version"));
    assert!(
        entries.len() >= 3,
        "corpus has {} entries, expected >= 3",
        entries.len()
    );

    let outcomes = runner::map_points("chaos_replay", &entries, |_id, e| {
        (
            evaluate(&e.plan, &e.cfg, false),
            evaluate(&e.plan, &e.cfg, true),
        )
    });

    let mut csv = String::from(
        "name,unhardened_objective,unhardened_worst_ns,hardened_objective,hardened_worst_ns\n",
    );
    let mut drifted = false;
    for (e, (u, h)) in entries.iter().zip(&outcomes) {
        let mut fail = |what: &str| {
            eprintln!("DRIFT {}: {what}", e.name);
            drifted = true;
        };
        if (u.objective(), u.worst_ns) != (e.unhardened_objective, e.unhardened_worst_ns) {
            fail(&format!(
                "unhardened (objective, worst_ns) = ({}, {}), pinned ({}, {})",
                u.objective(),
                u.worst_ns,
                e.unhardened_objective,
                e.unhardened_worst_ns
            ));
        }
        if (h.objective(), h.worst_ns) != (e.hardened_objective, e.hardened_worst_ns) {
            fail(&format!(
                "hardened (objective, worst_ns) = ({}, {}), pinned ({}, {})",
                h.objective(),
                h.worst_ns,
                e.hardened_objective,
                e.hardened_worst_ns
            ));
        }
        if !u.conserved || !h.conserved {
            fail("arrival conservation broken — a fiber was stranded");
        }
        if h.worst_ns >= u.worst_ns {
            fail(&format!(
                "hardened worst {} ns no longer beats unhardened worst {} ns",
                h.worst_ns, u.worst_ns
            ));
        }
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            e.name,
            u.objective(),
            u.worst_ns,
            h.objective(),
            h.worst_ns
        ));
    }
    lp_experiments::common::save_csv("chaos_replay.csv", &csv);
    print!("{csv}");
    if drifted {
        eprintln!("corpus replay drifted — regenerate with the `chaos` binary if intended");
        std::process::exit(1);
    }
    println!("corpus replay: {} entries byte-stable", entries.len());
}
