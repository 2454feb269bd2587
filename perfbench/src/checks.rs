//! Output checks. Every simulation and every artifact run is one
//! operation; an operation fails if any of its checks fails, and the
//! benchmark exits non-zero if any operation failed.

use std::fmt::Write as _;

use libpreemptible::RunReport;
use lp_chaos::{corpus, evaluate};
use lp_experiments::runner::ArtifactOutput;

/// The pinned chaos corpus, relative to the checkout root.
pub const CORPUS_PATH: &str = "results/chaos_corpus.json";

/// Operations attempted and failed; each failure is reported on stderr.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations run.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
}

impl Ops {
    /// Records one operation; `failures` lists the checks it failed.
    pub fn record(&mut self, what: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            eprintln!("FAILED {what}: {}", failures.join("; "));
        }
    }
}

/// 64-bit FNV-1a of `bytes`: a stable digest for byte-identity checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of everything a run report says about the simulated system:
/// totals, the latency histogram, every counter and gauge, and the
/// phase attribution. Host timings are not in a report, so identical
/// inputs must give identical digests.
pub fn report_digest(r: &RunReport) -> u64 {
    let mut s = String::new();
    let _ = write!(
        s,
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|",
        r.system,
        r.arrivals,
        r.completions,
        r.dropped,
        r.in_flight,
        r.oldest_inflight_ns,
        r.preemptions,
        r.spurious_preemptions,
        r.final_quantum.as_nanos()
    );
    for (v, c) in r.latency.iter() {
        let _ = write!(s, "{v}:{c},");
    }
    s.push_str(&r.metrics.to_jsonl());
    let _ = write!(s, "{:?}", r.phases);
    fnv1a(s.as_bytes())
}

/// The per-report invariants: arrival conservation, and the worst
/// exemplar's phase breakdown summing exactly to its latency.
pub fn report_failures(r: &RunReport) -> Vec<String> {
    let mut out = Vec::new();
    if !r.is_conserved() {
        out.push(format!(
            "not conserved: {} arrivals != {} completed + {} dropped + {} in flight",
            r.arrivals, r.completions, r.dropped, r.in_flight
        ));
    }
    if let Some(ex) = r
        .worst_exemplar()
        .filter(|ex| ex.phase_sum() != ex.latency_ns)
    {
        out.push(format!(
            "worst exemplar phases sum to {} ns, latency is {} ns",
            ex.phase_sum(),
            ex.latency_ns
        ));
    }
    out
}

/// Compares a repeated run's digest with the first run's.
pub fn digest_failure(first: u64, again: u64) -> Vec<String> {
    if first == again {
        Vec::new()
    } else {
        vec![format!(
            "report digest {again:016x} differs from the first run's {first:016x}"
        )]
    }
}

/// The fields an ablation must leave unchanged: a passive or idle
/// feature may cost host time but must not move the simulated system.
pub fn ablation_failures(with: &RunReport, without: &RunReport) -> Vec<String> {
    let same = with.arrivals == without.arrivals
        && with.completions == without.completions
        && with.preemptions == without.preemptions
        && with.latency.p99() == without.latency.p99()
        && with.metrics.counters == without.metrics.counters;
    let mut out = report_failures(with);
    out.extend(report_failures(without));
    if !same {
        out.push(
            "ablation arms differ in arrivals, completions, preemptions, p99, or counters".into(),
        );
    }
    out
}

/// Digest of one quick-scale artifact list's outputs: every rendered
/// table and every CSV, in order.
pub fn artifacts_digest(outputs: &[(&'static str, ArtifactOutput)]) -> u64 {
    let mut s = String::new();
    for (name, out) in outputs {
        s.push_str(name);
        for t in &out.tables {
            s.push_str(&t.render());
        }
        for (file, csv) in &out.csvs {
            s.push_str(file);
            s.push_str(csv);
        }
    }
    fnv1a(s.as_bytes())
}

/// Parses the pinned corpus and replays every cliff, hardened and
/// unhardened, against its pinned objective and worst case. Each cliff
/// is one operation.
pub fn replay_corpus(ops: &mut Ops) {
    let entries = std::fs::read_to_string(CORPUS_PATH)
        .ok()
        .and_then(|raw| corpus::from_json(&raw))
        .unwrap_or_default();
    if entries.is_empty() {
        ops.record(
            "corpus",
            &[format!("{CORPUS_PATH} is missing, malformed, or empty")],
        );
    }
    for e in &entries {
        let u = evaluate(&e.plan, &e.cfg, false);
        let h = evaluate(&e.plan, &e.cfg, true);
        let mut fails = Vec::new();
        if (u.objective(), u.worst_ns) != (e.unhardened_objective, e.unhardened_worst_ns) {
            fails.push(format!(
                "unhardened ({}, {}) != pinned",
                u.objective(),
                u.worst_ns
            ));
        }
        if (h.objective(), h.worst_ns) != (e.hardened_objective, e.hardened_worst_ns) {
            fails.push(format!(
                "hardened ({}, {}) != pinned",
                h.objective(),
                h.worst_ns
            ));
        }
        if !u.conserved || !h.conserved {
            fails.push("not conserved".into());
        }
        ops.record(&format!("corpus {}", e.name), &fails);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn ops_count_failures_once_per_operation() {
        let mut ops = Ops::default();
        ops.record("ok", &[]);
        ops.record("bad", &["x".into(), "y".into()]);
        assert_eq!((ops.attempted, ops.failed), (2, 1));
    }
}
