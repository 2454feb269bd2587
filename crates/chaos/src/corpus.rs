//! The pinned regression corpus: minimized cliffs on disk.
//!
//! `results/chaos_corpus.json` stores every minimized worst-case plan
//! the search has found, together with the evaluation context and the
//! scores both runtime variants achieved when the entry was minted. CI
//! replays every entry at `LP_JOBS=1` and `LP_JOBS=8` and diffs the
//! bytes — a cliff that stops reproducing, or a hardened runtime that
//! stops beating the unhardened one, fails the build.
//!
//! Serialization is hand-rolled (the workspace has no serde): every
//! number is an integer, field order is fixed, and plans round-trip
//! through a parenthesized text form ([`plan_to_text`] /
//! [`plan_from_text`]) whose grammar is:
//!
//! ```text
//! plan  := atom | combinator
//! atom  := drop(ppm) | hog(ppm,hog_us) | jitter(ppm,spike_us) | spike(rps)
//! comb  := win(from_us,dur_us,plan) | over(plan;...) | seq(plan;...)
//! ```

use crate::eval::{EvalConfig, EvalOutcome};
use crate::plan::{ChaosAtom, ChaosPlan};

/// One pinned cliff.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Stable entry name (`cliff-<n>` by convention).
    pub name: String,
    /// The evaluation context the scores were minted under.
    pub cfg: EvalConfig,
    /// The minimized plan.
    pub plan: ChaosPlan,
    /// Objective of the unhardened runtime under the plan.
    pub unhardened_objective: u64,
    /// Worst-case response of the unhardened runtime, ns.
    pub unhardened_worst_ns: u64,
    /// Objective of the hardened (admission-armed) runtime.
    pub hardened_objective: u64,
    /// Worst-case response of the hardened runtime, ns.
    pub hardened_worst_ns: u64,
}

impl CorpusEntry {
    /// Builds an entry from a fresh pair of evaluations.
    pub fn new(
        name: impl Into<String>,
        cfg: EvalConfig,
        plan: ChaosPlan,
        unhardened: &EvalOutcome,
        hardened: &EvalOutcome,
    ) -> CorpusEntry {
        CorpusEntry {
            name: name.into(),
            cfg,
            plan,
            unhardened_objective: unhardened.objective(),
            unhardened_worst_ns: unhardened.worst_ns,
            hardened_objective: hardened.objective(),
            hardened_worst_ns: hardened.worst_ns,
        }
    }
}

// ---------------------------------------------------------------------------
// Plan text form.
// ---------------------------------------------------------------------------

/// Renders a plan in the corpus text form (see module docs).
pub fn plan_to_text(plan: &ChaosPlan) -> String {
    let mut s = String::new();
    write_plan(plan, &mut s);
    s
}

fn write_plan(plan: &ChaosPlan, out: &mut String) {
    use std::fmt::Write;
    match plan {
        ChaosPlan::Atom(a) => match *a {
            ChaosAtom::UintrDropBurst { rate_ppm } => {
                write!(out, "drop({rate_ppm})").expect("string write")
            }
            ChaosAtom::CoreHogStorm { rate_ppm, hog_us } => {
                write!(out, "hog({rate_ppm},{hog_us})").expect("string write")
            }
            ChaosAtom::TimerJitterWave { rate_ppm, spike_us } => {
                write!(out, "jitter({rate_ppm},{spike_us})").expect("string write")
            }
            ChaosAtom::ArrivalSpike { extra_rps } => {
                write!(out, "spike({extra_rps})").expect("string write")
            }
        },
        ChaosPlan::Window {
            body,
            from_us,
            dur_us,
        } => {
            write!(out, "win({from_us},{dur_us},").expect("string write");
            write_plan(body, out);
            out.push(')');
        }
        ChaosPlan::Overlay(cs) => write_children("over", cs, out),
        ChaosPlan::Sequence(cs) => write_children("seq", cs, out),
    }
}

fn write_children(tag: &str, cs: &[ChaosPlan], out: &mut String) {
    out.push_str(tag);
    out.push('(');
    for (i, c) in cs.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        write_plan(c, out);
    }
    out.push(')');
}

/// Parses the corpus text form back into a plan. Returns `None` on any
/// syntax error (the replay binary treats that as corpus corruption).
pub fn plan_from_text(s: &str) -> Option<ChaosPlan> {
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
    };
    let plan = p.plan()?;
    (p.i == p.s.len()).then_some(plan)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn plan(&mut self) -> Option<ChaosPlan> {
        let tag = self.ident()?;
        self.expect(b'(')?;
        let plan = match tag.as_str() {
            "drop" => ChaosPlan::Atom(ChaosAtom::UintrDropBurst {
                rate_ppm: self.num()?,
            }),
            "hog" => {
                let rate_ppm = self.num()?;
                self.expect(b',')?;
                ChaosPlan::Atom(ChaosAtom::CoreHogStorm {
                    rate_ppm,
                    hog_us: self.num()?,
                })
            }
            "jitter" => {
                let rate_ppm = self.num()?;
                self.expect(b',')?;
                ChaosPlan::Atom(ChaosAtom::TimerJitterWave {
                    rate_ppm,
                    spike_us: self.num()?,
                })
            }
            "spike" => ChaosPlan::Atom(ChaosAtom::ArrivalSpike {
                extra_rps: self.num()?,
            }),
            "win" => {
                let from_us = self.num()?;
                self.expect(b',')?;
                let dur_us = self.num()?;
                self.expect(b',')?;
                let body = self.plan()?;
                ChaosPlan::Window {
                    body: Box::new(body),
                    from_us,
                    dur_us,
                }
            }
            "over" => ChaosPlan::Overlay(self.children()?),
            "seq" => ChaosPlan::Sequence(self.children()?),
            _ => return None,
        };
        self.expect(b')')?;
        Some(plan)
    }

    fn children(&mut self) -> Option<Vec<ChaosPlan>> {
        let mut out = vec![self.plan()?];
        while self.peek() == Some(b';') {
            self.i += 1;
            out.push(self.plan()?);
        }
        Some(out)
    }

    fn ident(&mut self) -> Option<String> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_lowercase()) {
            self.i += 1;
        }
        (self.i > start).then(|| String::from_utf8_lossy(&self.s[start..self.i]).into_owned())
    }

    fn num(&mut self) -> Option<u32> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()?
            .parse()
            .ok()
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Option<()> {
        if self.peek() == Some(c) {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Corpus JSON.
// ---------------------------------------------------------------------------

/// Current corpus schema version.
pub const CORPUS_VERSION: u32 = 1;

/// Serializes the corpus with fixed field order and integer values
/// only — byte-stable for identical entries.
pub fn to_json(entries: &[CorpusEntry]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("{\n");
    writeln!(out, "  \"version\": {CORPUS_VERSION},").expect("string write");
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let c = &e.cfg;
        write!(
            out,
            "    {{\"name\": \"{}\", \"seed\": {}, \"workers\": {}, \"base_rps\": {}, \
             \"horizon_us\": {}, \"slo_us\": {}, \"service_us\": {}, \"quantum_us\": {}, \
             \"plan\": \"{}\", \"unhardened_objective\": {}, \"unhardened_worst_ns\": {}, \
             \"hardened_objective\": {}, \"hardened_worst_ns\": {}}}",
            e.name,
            c.seed,
            c.workers,
            c.base_rps,
            c.horizon_us,
            c.slo_us,
            c.service_us,
            c.quantum_us,
            plan_to_text(&e.plan),
            e.unhardened_objective,
            e.unhardened_worst_ns,
            e.hardened_objective,
            e.hardened_worst_ns,
        )
        .expect("string write");
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a corpus file. Returns `None` on any structural error —
/// callers treat that as corpus corruption and fail loudly rather
/// than replaying a partial corpus.
pub fn from_json(s: &str) -> Option<Vec<CorpusEntry>> {
    if field_u64(s, "version")? != u64::from(CORPUS_VERSION) {
        return None;
    }
    let open = s.find("\"entries\"")?;
    let lo = s[open..].find('[')? + open;
    let hi = s.rfind(']')?;
    let body = &s[lo + 1..hi];
    let mut entries = Vec::new();
    let mut rest = body;
    while let Some(a) = rest.find('{') {
        let b = rest[a..].find('}')? + a;
        let obj = &rest[a..=b];
        entries.push(parse_entry(obj)?);
        rest = &rest[b + 1..];
    }
    (!entries.is_empty()).then_some(entries)
}

fn parse_entry(obj: &str) -> Option<CorpusEntry> {
    Some(CorpusEntry {
        name: field_str(obj, "name")?,
        cfg: EvalConfig {
            workers: field_u64(obj, "workers")? as usize,
            seed: field_u64(obj, "seed")?,
            base_rps: field_u64(obj, "base_rps")? as u32,
            horizon_us: field_u64(obj, "horizon_us")?,
            slo_us: field_u64(obj, "slo_us")?,
            service_us: field_u64(obj, "service_us")?,
            quantum_us: field_u64(obj, "quantum_us")?,
        },
        plan: plan_from_text(&field_str(obj, "plan")?)?,
        unhardened_objective: field_u64(obj, "unhardened_objective")?,
        unhardened_worst_ns: field_u64(obj, "unhardened_worst_ns")?,
        hardened_objective: field_u64(obj, "hardened_objective")?,
        hardened_worst_ns: field_u64(obj, "hardened_worst_ns")?,
    })
}

fn field_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let a = obj.find(&pat)? + pat.len();
    let b = obj[a..].find('"')? + a;
    Some(obj[a..b].to_string())
}

fn field_u64(obj: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let a = obj.find(&pat)? + pat.len();
    let digits: String = obj[a..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> ChaosPlan {
        ChaosPlan::Overlay(vec![
            ChaosPlan::windowed(
                ChaosPlan::Atom(ChaosAtom::UintrDropBurst { rate_ppm: 500_000 }),
                100,
                5_000,
            ),
            ChaosPlan::Sequence(vec![
                ChaosPlan::Atom(ChaosAtom::CoreHogStorm {
                    rate_ppm: 20_000,
                    hog_us: 800,
                }),
                ChaosPlan::Atom(ChaosAtom::ArrivalSpike { extra_rps: 9_000 }),
            ]),
        ])
    }

    #[test]
    fn plan_text_round_trips() {
        let p = sample_plan();
        let text = plan_to_text(&p);
        assert_eq!(
            text,
            "over(win(100,5000,drop(500000));seq(hog(20000,800);spike(9000)))"
        );
        assert_eq!(plan_from_text(&text), Some(p));
        // Malformed text is rejected, not best-effort-parsed.
        assert_eq!(plan_from_text("over(drop(1)"), None);
        assert_eq!(plan_from_text("drop(1)x"), None);
        assert_eq!(plan_from_text("frob(1)"), None);
    }

    #[test]
    fn corpus_json_round_trips_byte_stably() {
        let entry = CorpusEntry {
            name: "cliff-1".into(),
            cfg: EvalConfig::default(),
            plan: sample_plan(),
            unhardened_objective: 1_234_567,
            unhardened_worst_ns: 900_000,
            hardened_objective: 456_789,
            hardened_worst_ns: 400_000,
        };
        let json = to_json(std::slice::from_ref(&entry));
        let parsed = from_json(&json).expect("parse");
        assert_eq!(parsed, vec![entry]);
        // Re-serializing parsed entries reproduces the bytes exactly.
        assert_eq!(to_json(&parsed), json);
    }

    #[test]
    fn corrupted_corpora_are_rejected() {
        assert!(from_json("{}").is_none());
        assert!(from_json("{\"version\": 99, \"entries\": []}").is_none());
        let good = to_json(&[CorpusEntry {
            name: "c".into(),
            cfg: EvalConfig::default(),
            plan: ChaosPlan::Atom(ChaosAtom::ArrivalSpike { extra_rps: 1 }),
            unhardened_objective: 1,
            unhardened_worst_ns: 1,
            hardened_objective: 1,
            hardened_worst_ns: 1,
        }]);
        assert!(from_json(&good).is_some());
        assert!(from_json(&good.replace("spike(1)", "spoke(1)")).is_none());
    }
}
