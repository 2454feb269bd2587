//! Tier-1 gate for the `lp-check` static-analysis subsystem.
//!
//! Five properties must hold on every commit:
//!
//! 1. **The workspace lints clean.** `lp-check lint` finds zero
//!    unsuppressed violations of the determinism / observability /
//!    concurrency / unsafe-hygiene rules catalogued in `docs/CHECKS.md`.
//! 2. **The UINTR protocol model-checks.** Exhaustively exploring every
//!    interleaving of the bundled 2-sender/1-receiver scenarios (≥1,000
//!    schedules) upholds all protocol invariants.
//! 3. **The watchdog lifecycle model-checks under DPOR**, and the
//!    sleep-set reduction earns ≥10× on the flagship scenario at
//!    verified-equal terminal coverage.
//! 4. **The figure traces are race-free.** `lp-check race` reports zero
//!    findings over both shipped trace recipes — and still catches a
//!    deliberately seeded causality-free delivery in the same trace.
//! 5. **The `all --json` schema is pinned** against a golden key-path
//!    list (version 2).
//!
//! Running these as a `cargo test` target (not only as a CI job) means
//! `cargo test` locally reproduces exactly what CI enforces.

use std::path::Path;

use lp_check::lint::lint_workspace;
use lp_check::model::{check_default, Mode};
use lp_check::{lifecycle, race};
use lp_experiments::{traces, Scale, DEFAULT_SEED};

/// The workspace root is the directory containing this test's manifest.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_lints_clean() {
    let report = lint_workspace(root()).expect("lint run");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — walker broken?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "lp-check lint found {} violation(s):\n{}",
        report.violation_count(),
        report.human()
    );
}

#[test]
fn uintr_protocol_model_checks() {
    let report = check_default(Mode::Full);
    assert!(
        report.total_schedules() >= 1000,
        "only {} schedules explored — scenario suite shrank below the \
         1,000-schedule floor",
        report.total_schedules()
    );
    assert!(
        report.holds(),
        "UINTR protocol invariant violated:\n{}",
        report.human()
    );
}

#[test]
fn partial_order_reduction_agrees_with_full_exploration() {
    let full = check_default(Mode::Full);
    let por = check_default(Mode::Por);
    assert!(full.holds() && por.holds());
    assert!(
        por.total_schedules() < full.total_schedules(),
        "PoR explored {} schedules vs {} full — reduction not reducing",
        por.total_schedules(),
        full.total_schedules()
    );
}

#[test]
fn lifecycle_dpor_reduces_at_least_10x_at_equal_coverage() {
    // `Mode::Por` runs sleep-set DPOR and, for scenarios flagged
    // `compare_naive`, re-runs naive exploration and records any
    // terminal-coverage mismatch as a violation — so `holds()` already
    // vouches for coverage equality, not just invariant safety.
    let report = lifecycle::check_default(Mode::Por);
    assert!(
        report.holds(),
        "lifecycle invariant or DPOR-coverage violation:\n{}",
        report.human()
    );
    let flagship = report
        .scenarios
        .iter()
        .find(|s| s.name == "degrade-recover-2w")
        .expect("flagship scenario present");
    let reduction = flagship
        .reduction()
        .expect("flagship runs the naive cross-check");
    assert!(
        reduction >= 10.0,
        "DPOR reduction on degrade-recover-2w fell to {reduction:.1}x \
         (naive {:?} -> {} schedules) — below the 10x floor",
        flagship.naive_schedules,
        flagship.dpor_schedules
    );
}

/// Both shipped figure-trace recipes, quick scale — identical to what
/// `cargo run -p lp-experiments --bin traces` exports for CI.
fn figure_traces() -> [(&'static str, String); 2] {
    [
        ("fig2", traces::fig2_trace(Scale::Quick, DEFAULT_SEED)),
        ("figr", traces::figr_trace(Scale::Quick, DEFAULT_SEED)),
    ]
}

#[test]
fn race_detector_is_clean_on_figure_traces() {
    for (name, jsonl) in figure_traces() {
        let report = race::analyze_jsonl(&jsonl);
        assert_eq!(
            report.skipped, 0,
            "{name}: race analyzer skipped {} trace line(s) it could not parse",
            report.skipped
        );
        assert!(
            report.events > 1000 && report.edges > 100,
            "{name}: suspiciously small graph ({} events, {} edges) — \
             did the trace recipe or edge builder regress?",
            report.events,
            report.edges
        );
        assert!(
            report.is_clean(),
            "{name}: lp-check race found {} finding(s):\n{}",
            report.findings.len(),
            report.human()
        );
    }
}

#[test]
fn race_detector_catches_seeded_uncaused_delivery() {
    // The mutant: a `preempt_landed` appended to the real Fig. R trace
    // with a sequence number no send ever issued — a delivery with no
    // happens-before path from any cause, the signature of a lost/
    // forged wakeup. The detector must flag exactly this worker.
    let clean = traces::figr_trace(Scale::Quick, DEFAULT_SEED);
    let last_t: u64 = clean
        .lines()
        .rev()
        .find_map(|l| {
            let rest = l.strip_prefix("{\"t\":")?;
            rest.split(',').next()?.parse().ok()
        })
        .expect("trace has timestamped events");
    let mutant = format!(
        "{clean}{{\"t\":{},\"ev\":\"preempt_landed\",\"worker\":2,\"seq\":999983,\"uintr\":true}}\n",
        last_t + 1
    );
    let report = race::analyze_jsonl(&mutant);
    assert!(
        !report.is_clean(),
        "seeded causality-free delivery went undetected"
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind.name() == "uncaused-delivery" && f.worker == 2),
        "expected an uncaused-delivery finding for worker 2, got:\n{}",
        report.human()
    );
}

/// Every `"key"` in a JSON document as a dotted path (array elements
/// collapse to `[]`), relying only on syntax — no external parser.
/// Good enough for JSON we generate ourselves with stable key order.
fn json_key_paths(json: &str) -> std::collections::BTreeSet<String> {
    let mut paths = std::collections::BTreeSet::new();
    // Stack of (container char, segment that named it).
    let mut stack: Vec<(char, String)> = Vec::new();
    let mut pending_key: Option<String> = None;
    let mut chars = json.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let mut s = String::new();
                while let Some(&n) = chars.peek() {
                    chars.next();
                    if n == '\\' {
                        chars.next();
                    } else if n == '"' {
                        break;
                    } else {
                        s.push(n);
                    }
                }
                while chars.peek().is_some_and(|n| n.is_whitespace()) {
                    chars.next();
                }
                if chars.peek() == Some(&':') {
                    chars.next();
                    let mut path: Vec<&str> = stack.iter().map(|(_, seg)| seg.as_str()).collect();
                    path.push(&s);
                    paths.insert(path.join("."));
                    pending_key = Some(s);
                } else {
                    // A string *value* — its key has been spent.
                    pending_key = None;
                }
            }
            '{' | '[' => {
                let seg = match pending_key.take() {
                    Some(k) => k,
                    None => match stack.last() {
                        Some(('[', _)) => "[]".to_string(),
                        _ => String::new(),
                    },
                };
                stack.push((c, seg));
            }
            '}' | ']' => {
                stack.pop();
                pending_key = None;
            }
            ',' => pending_key = None,
            _ => {}
        }
    }
    // Root containers contribute empty segments; strip them.
    paths
        .into_iter()
        .map(|p| {
            p.split('.')
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join(".")
        })
        .collect()
}

#[test]
fn all_json_schema_matches_golden() {
    let lint = lint_workspace(root()).expect("lint run");
    let upid = check_default(Mode::Full);
    let lc = lifecycle::check_default(Mode::Full);
    let json = lp_check::all_json(&lint, &upid, &lc);

    assert!(
        json.starts_with(&format!("{{\"version\":{}", lp_check::JSON_SCHEMA_VERSION)),
        "all --json must lead with the schema version"
    );

    let actual = json_key_paths(&json)
        .into_iter()
        .collect::<Vec<_>>()
        .join("\n");
    let golden_path = root().join("tests/golden/lp_check_all_json_keys.txt");
    if std::env::var_os("LP_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, format!("{actual}\n")).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect(
        "read tests/golden/lp_check_all_json_keys.txt (run with LP_UPDATE_GOLDEN=1 to create)",
    );
    assert_eq!(
        actual,
        golden.trim_end(),
        "`lp-check all --json` key paths drifted from the golden file. \
         If the change is intentional, bump JSON_SCHEMA_VERSION in \
         crates/check/src/lib.rs and re-run with LP_UPDATE_GOLDEN=1."
    );
}
