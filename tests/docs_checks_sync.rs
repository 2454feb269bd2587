//! Keeps the numbers in `docs/CHECKS.md` honest.
//!
//! The doc quotes live quantities — the inline-suppression count, the
//! static-allowlist hit count, and the schedule counts of both model
//! checkers, full and reduced. Prose numbers rot the moment a scenario
//! or allowlist entry changes, so this test regenerates every quoted
//! number from the same `lp-check` library APIs the binary uses and
//! asserts the doc contains it verbatim. Change the checker, and this
//! test names the exact sentence to update.

use std::path::Path;

use lp_check::lifecycle;
use lp_check::lint::lint_workspace;
use lp_check::model::{self, Mode};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The doc with runs of whitespace collapsed to single spaces, so
/// needles are immune to prose re-wrapping.
fn checks_md_normalized() -> String {
    let raw = std::fs::read_to_string(root().join("docs/CHECKS.md")).expect("read docs/CHECKS.md");
    raw.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// `12345` -> `"12,345"`, matching the doc's thousands style.
fn commas(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[track_caller]
fn assert_doc_contains(doc: &str, needle: &str, what: &str) {
    assert!(
        doc.contains(needle),
        "docs/CHECKS.md is stale: expected to find `{needle}` ({what}). \
         Regenerate the number from `lp-check` output and update the prose."
    );
}

#[test]
fn suppression_counts_match_live_lint() {
    let doc = checks_md_normalized();
    let report = lint_workspace(root()).expect("lint run");

    // The doc claims the workspace carries no inline suppressions.
    // If one is ever added, the claim (not just a number) must change.
    assert_eq!(
        report.inline_suppressed_count(),
        0,
        "the workspace now carries inline `lp-check: allow` suppressions — \
         rewrite the `zero inline suppressions` claim in docs/CHECKS.md"
    );
    assert_doc_contains(&doc, "zero inline suppressions", "inline-suppression claim");

    // Every suppression is a static-allowlist hit, and the doc quotes
    // how many.
    let forced = report.suppressed_count() - report.inline_suppressed_count();
    assert_doc_contains(
        &doc,
        &format!("{} static-allowlist hits", commas(forced as u64)),
        "static-allowlist hit count",
    );
}

#[test]
fn upid_schedule_counts_match_live_model() {
    let doc = checks_md_normalized();
    let full = model::check_default(Mode::Full);
    let por = model::check_default(Mode::Por);
    assert!(full.holds() && por.holds());

    assert_doc_contains(
        &doc,
        &format!("**{} schedules**", commas(full.total_schedules())),
        "full UPID exploration schedule count",
    );
    assert_doc_contains(
        &doc,
        &format!("**{} schedules**", commas(por.total_schedules())),
        "PoR UPID exploration schedule count",
    );
    let ratio = full.total_schedules() as f64 / por.total_schedules() as f64;
    assert_doc_contains(
        &doc,
        &format!("~{:.0}× fewer", ratio),
        "UPID PoR reduction ratio",
    );
}

#[test]
fn lifecycle_schedule_counts_match_live_dpor() {
    let doc = checks_md_normalized();
    let naive = lifecycle::check_default(Mode::Full);
    let dpor = lifecycle::check_default(Mode::Por);
    assert!(naive.holds() && dpor.holds());

    assert_doc_contains(
        &doc,
        &format!("**{} schedules**", commas(naive.total_schedules())),
        "naive lifecycle schedule total",
    );
    assert_doc_contains(
        &doc,
        &format!("**{} schedules**", commas(dpor.total_schedules())),
        "DPOR lifecycle schedule total",
    );

    // The flagship scenario's before/after and reduction factor.
    let flag_naive = naive
        .scenarios
        .iter()
        .find(|s| s.name == "degrade-recover-2w")
        .expect("flagship scenario in naive run");
    let flag_dpor = dpor
        .scenarios
        .iter()
        .find(|s| s.name == "degrade-recover-2w")
        .expect("flagship scenario in DPOR run");
    assert_doc_contains(
        &doc,
        &format!("**{}** naive schedules", commas(flag_naive.dpor_schedules)),
        "flagship naive schedule count",
    );
    assert_doc_contains(
        &doc,
        &format!("to **{}**", commas(flag_dpor.dpor_schedules)),
        "flagship DPOR schedule count",
    );
    let reduction = flag_naive.dpor_schedules as f64 / flag_dpor.dpor_schedules as f64;
    assert_doc_contains(
        &doc,
        &format!("**{}×** reduction", commas(reduction.round() as u64)),
        "flagship reduction factor",
    );

    // Every shipped scenario is named in the doc.
    for s in &naive.scenarios {
        assert_doc_contains(&doc, &format!("`{}`", s.name), "lifecycle scenario name");
    }
}
