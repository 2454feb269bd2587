//! The workspace linter: a lightweight token/line-level analyzer (no
//! external parser — consistent with the vendored-offline policy) that
//! walks every `crates/*/src/**/*.rs` file and enforces the rule table
//! in [`crate::rules`].
//!
//! The analyzer first strips comments and string/char literals with a
//! small character-level state machine (line comments, nested block
//! comments, raw strings, lifetimes vs. char literals), so rules match
//! *code* tokens only — a `HashMap` in a doc example or an "unsafe" in
//! a diagnostic string never fires. Stripped comment text is kept
//! per-line for the rules that read comments: `// SAFETY:`
//! justifications and `// lp-check: allow(rule, reason)` suppressions.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{
    hot_alloc_allowance, nondet_file_allowance, relaxed_file_allowance, RuleId, ATTRIBUTION_EVENTS,
    CHAOS_RNG_DIR, CHAOS_RNG_TOKENS, EVENT_VOCAB_FILE, FAULT_RNG_FILE, FAULT_RNG_TOKENS,
    HOT_ALLOC_FILES, HOT_ALLOC_TOKENS, NONDET_EXEMPT_CRATES, NONDET_TOKENS, OBS_PAIRED_CRATES,
    POLICY_DIR, POLICY_PURITY_TOKENS, RETRY_STATE_CRATE, RETRY_STATE_FIELDS, RETRY_STATE_FILE,
    UNSAFE_ALLOWED_CRATE, WORKERLESS_EVENTS,
};

/// One finding, pinned to a file and line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What went wrong, with the offending token.
    pub message: String,
    /// `true` when an `lp-check: allow(...)` at/above the site covers
    /// it (reported for audit, but not a failure).
    pub suppressed: bool,
    /// `true` when the suppression came from a static allowlist in
    /// `rules.rs` rather than an inline `lp-check: allow` comment —
    /// lets the docs distinguish architectural allowances from one-off
    /// source-level suppressions.
    pub forced: bool,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}{}",
            self.file,
            self.line,
            self.rule,
            self.message,
            if self.suppressed { " (suppressed)" } else { "" }
        )
    }
}

/// The result of linting a workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every finding, suppressed ones included, in (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Findings that actually fail the build (not suppressed).
    fn violations(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.suppressed)
    }

    /// Number of unsuppressed findings.
    pub fn violation_count(&self) -> usize {
        self.violations().count()
    }

    /// Number of suppressed findings.
    pub fn suppressed_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.suppressed).count()
    }

    /// Suppressions granted by inline `lp-check: allow` comments only
    /// (static-allowlist hits excluded) — the number `docs/CHECKS.md`
    /// quotes as the workspace's inline-suppression count.
    pub fn inline_suppressed_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.suppressed && !d.forced)
            .count()
    }

    /// `true` when no unsuppressed finding remains.
    pub fn is_clean(&self) -> bool {
        self.violation_count() == 0
    }

    /// Human-readable diagnostics, one per line, plus a summary tail.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "lp-check lint: {} file(s), {} violation(s), {} suppressed\n",
            self.files_scanned,
            self.violation_count(),
            self.suppressed_count()
        ));
        out
    }

    /// Machine-readable JSON (stable key order, no dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        out.push_str(&format!("\"violations\":{},", self.violation_count()));
        out.push_str(&format!("\"suppressed\":{},", self.suppressed_count()));
        out.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"suppressed\":{},\"message\":\"{}\"}}",
                d.rule,
                json_escape(&d.file),
                d.line,
                d.suppressed,
                json_escape(&d.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Source model: one file split into per-line code text + comment text.
// ---------------------------------------------------------------------------

/// A source file after comment/string stripping.
struct StrippedFile {
    /// Code with comments and string/char literal *contents* blanked to
    /// spaces (line lengths preserved).
    code: Vec<String>,
    /// Comment text per line (both `//` and `/* */` bodies).
    comments: Vec<String>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    CharLit,
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Strips comments and literals. A small, honest state machine: it
/// handles nested block comments, escapes, raw strings (`r"…"`,
/// `r#"…"#`, byte variants) and tells lifetimes from char literals by
/// one character of lookahead.
fn strip(source: &str) -> StrippedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut code_line = String::new();
    let mut comment_line = String::new();
    let mut state = State::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            code.push(std::mem::take(&mut code_line));
            comments.push(std::mem::take(&mut comment_line));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    code_line.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    code_line.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Str;
                    code_line.push(' ');
                    i += 1;
                    continue;
                }
                // Raw (byte) strings: r"…", r#"…"#, br#"…"#.
                let prev_ident = i > 0 && is_ident(chars[i - 1]);
                if !prev_ident && (c == 'r' || (c == 'b' && next == Some('r'))) {
                    let mut j = i + if c == 'b' { 2 } else { 1 };
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        for _ in i..=j {
                            code_line.push(' ');
                        }
                        state = State::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                }
                if c == '\'' {
                    // Char literal iff it closes within two chars or
                    // escapes; otherwise it is a lifetime.
                    let is_char = next == Some('\\')
                        || (chars.get(i + 2) == Some(&'\'') && next != Some('\''));
                    if is_char {
                        state = State::CharLit;
                        code_line.push(' ');
                        i += 1;
                        continue;
                    }
                }
                code_line.push(c);
                i += 1;
            }
            State::LineComment => {
                comment_line.push(c);
                code_line.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    code_line.push_str("  ");
                    i += 2;
                    continue;
                }
                comment_line.push(c);
                code_line.push(' ');
                i += 1;
            }
            State::Str => {
                if c == '\\' {
                    code_line.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Code;
                }
                code_line.push(' ');
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if chars.get(i + 1 + k as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes {
                            code_line.push(' ');
                        }
                        state = State::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                code_line.push(' ');
                i += 1;
            }
            State::CharLit => {
                if c == '\\' {
                    code_line.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    state = State::Code;
                }
                code_line.push(' ');
                i += 1;
            }
        }
    }
    code.push(code_line);
    comments.push(comment_line);
    StrippedFile { code, comments }
}

/// `true` if `hay` contains `needle` delimited by non-identifier
/// characters on both sides (so `HashMap` does not match `FxHashMap`).
fn contains_token(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(hay[..at].chars().next_back().unwrap());
        let after = hay[at + needle.len()..].chars().next();
        let after_ok = after.is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

/// Parsed `lp-check: allow(rule, reason)` markers per line, plus the
/// malformed ones (which become [`RuleId::BadAllow`] findings).
struct Allows {
    by_line: BTreeMap<usize, Vec<RuleId>>,
    bad: Vec<(usize, String)>,
}

fn parse_allows(f: &StrippedFile) -> Allows {
    let mut by_line = BTreeMap::new();
    let mut bad = Vec::new();
    for (idx, comment) in f.comments.iter().enumerate() {
        let line = idx + 1;
        // Suppressions are plain `//` comments; doc comments (`///`,
        // `//!` — whose stripped text starts with `/` or `!`) merely
        // *describe* the syntax and never suppress anything.
        let trimmed = comment.trim_start();
        if trimmed.starts_with('/') || trimmed.starts_with('!') {
            continue;
        }
        let Some(pos) = comment.find("lp-check: allow(") else {
            continue;
        };
        let rest = &comment[pos + "lp-check: allow(".len()..];
        let Some(close) = rest.find(')') else {
            bad.push((line, "unclosed lp-check: allow(".to_string()));
            continue;
        };
        let inner = &rest[..close];
        let (rule_s, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        match RuleId::parse(rule_s) {
            Some(rule) if !reason.is_empty() => {
                by_line.entry(line).or_insert_with(Vec::new).push(rule);
            }
            Some(_) => bad.push((
                line,
                format!("allow({rule_s}) is missing its reason — write allow({rule_s}, <why>)"),
            )),
            None => bad.push((line, format!("allow names unknown rule `{rule_s}`"))),
        }
    }
    Allows { by_line, bad }
}

impl Allows {
    /// A finding at `line` is covered by an allow on the same line or
    /// the line directly above it.
    fn covers(&self, rule: RuleId, line: usize) -> bool {
        [line, line.saturating_sub(1)]
            .iter()
            .any(|l| self.by_line.get(l).is_some_and(|rs| rs.contains(&rule)))
    }
}

// ---------------------------------------------------------------------------
// The workspace walk + rule passes.
// ---------------------------------------------------------------------------

/// Lints every `crates/*/src/**/*.rs` under `root` (the workspace
/// root). Deterministic: files are visited in sorted order.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let vocab = tracing_vocabulary(root)?;
    let mut report = LintReport::default();
    for file in workspace_sources(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        lint_file(&rel, &source, &vocab, &mut report);
        report.files_scanned += 1;
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// All `.rs` files under `crates/*/src`, sorted.
fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The event-name vocabulary declared in `docs/TRACING.md`: the first
/// backticked snake_case token of every table row. Emitting an
/// `Event::Variant` whose snake_case name is not in this set is an
/// [`RuleId::ObsPair`] violation — the docs and the code drifted.
fn tracing_vocabulary(root: &Path) -> io::Result<BTreeSet<String>> {
    let doc = std::fs::read_to_string(root.join("docs/TRACING.md"))?;
    let mut vocab = BTreeSet::new();
    for line in doc.lines() {
        let Some(cell) = line.strip_prefix('|') else {
            continue;
        };
        let Some(first_cell) = cell.split('|').next() else {
            continue;
        };
        // Every backticked token in the first cell (counter rows list
        // several).
        let mut rest = first_cell;
        while let Some(open) = rest.find('`') {
            let tail = &rest[open + 1..];
            let Some(close) = tail.find('`') else { break };
            let token = &tail[..close];
            if !token.is_empty()
                && token
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            {
                vocab.insert(token.to_string());
            }
            rest = &tail[close + 1..];
        }
    }
    Ok(vocab)
}

fn camel_to_snake(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 4);
    for (i, c) in s.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// The crate name (`crates/<name>/…`) a workspace-relative path belongs
/// to, if any.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

fn lint_file(rel: &str, source: &str, vocab: &BTreeSet<String>, report: &mut LintReport) {
    let stripped = strip(source);
    let allows = parse_allows(&stripped);
    let krate = crate_of(rel).unwrap_or("");
    let is_bin = rel.contains("/src/bin/") || rel.ends_with("/src/main.rs");

    // `forced` marks a diagnostic suppressed regardless of inline
    // `lp-check: allow` comments — used by the static nondet allowlist.
    let mut push = |rule: RuleId, line: usize, message: String, forced: bool| {
        let suppressed = forced || allows.covers(rule, line);
        report.diagnostics.push(Diagnostic {
            rule,
            file: rel.to_string(),
            line,
            message,
            suppressed,
            forced,
        });
    };

    for (line, msg) in &allows.bad {
        push(RuleId::BadAllow, *line, msg.clone(), false);
    }

    // Pass 1: per-line token rules.
    for (idx, code) in stripped.code.iter().enumerate() {
        let line = idx + 1;

        if !NONDET_EXEMPT_CRATES.contains(&krate) {
            for token in NONDET_TOKENS {
                if contains_token(code, token) {
                    // The static per-file allowance (rules.rs): the hit
                    // is still reported — as suppressed — so the audit
                    // trail survives, but it does not fail the build.
                    if let Some(why) = nondet_file_allowance(rel, token) {
                        push(
                            RuleId::Nondet,
                            line,
                            format!("nondeterminism source `{token}` (static allowlist: {why})"),
                            true,
                        );
                        continue;
                    }
                    push(
                        RuleId::Nondet,
                        line,
                        format!("nondeterminism source `{token}` in sim-path crate `{krate}`"),
                        false,
                    );
                }
            }
        }

        if HOT_ALLOC_FILES.contains(&rel) {
            for token in HOT_ALLOC_TOKENS {
                if contains_token(code, token) {
                    // The static allowance (rules.rs) keeps the two
                    // deliberate growth points visible as suppressed
                    // diagnostics without failing the build.
                    if let Some(why) = hot_alloc_allowance(rel, token) {
                        push(
                            RuleId::HotAlloc,
                            line,
                            format!("hot-path growth token `{token}` (static allowlist: {why})"),
                            true,
                        );
                        continue;
                    }
                    push(
                        RuleId::HotAlloc,
                        line,
                        format!(
                            "hot-path growth token `{token}` in the event engine core — \
                             the pop/arm/cascade paths must only move pre-allocated \
                             nodes (or extend rules::HOT_ALLOC_ALLOWLIST with a \
                             written amortization argument)"
                        ),
                        false,
                    );
                }
            }
        }

        if rel == FAULT_RNG_FILE {
            for token in FAULT_RNG_TOKENS {
                if contains_token(code, token) {
                    push(
                        RuleId::FaultRng,
                        line,
                        format!(
                            "`{token}` in the fault injector — draw from \
                             `rng(master, streams::FAULTS)` only, never seed an RNG here"
                        ),
                        false,
                    );
                }
            }
        }

        if rel.starts_with(POLICY_DIR) {
            for token in POLICY_PURITY_TOKENS {
                if contains_token(code, token) {
                    push(
                        RuleId::PolicyPurity,
                        line,
                        format!(
                            "`{token}` in a scheduling-policy module — decisions must be \
                             pure functions of hook arguments and policy state \
                             (docs/POLICIES.md determinism rules)"
                        ),
                        false,
                    );
                }
            }
        }

        if rel.starts_with(CHAOS_RNG_DIR) {
            for token in CHAOS_RNG_TOKENS {
                if contains_token(code, token) {
                    push(
                        RuleId::ChaosRng,
                        line,
                        format!(
                            "`{token}` in the chaos adversary — draw from \
                             `rng(master, streams::CHAOS)` only, never seed an RNG here \
                             (corpus replay depends on it; see docs/CHAOS.md)"
                        ),
                        false,
                    );
                }
            }
        }

        if contains_token(code, "Relaxed") {
            if let Some(why) = relaxed_file_allowance(rel) {
                push(
                    RuleId::RelaxedOrdering,
                    line,
                    format!("`Ordering::Relaxed` (static allowlist: {why})"),
                    true,
                );
            } else {
                push(
                    RuleId::RelaxedOrdering,
                    line,
                    "`Ordering::Relaxed` outside the audited allowlist — use Acquire/\
                     Release (or add the file to rules::RELAXED_ALLOWLIST with a \
                     written no-ordering-needed argument)"
                        .to_string(),
                    false,
                );
            }
        }

        if krate == RETRY_STATE_CRATE && rel != RETRY_STATE_FILE {
            for field in RETRY_STATE_FIELDS {
                if raw_retry_field_write(code, field) {
                    push(
                        RuleId::RetryTransition,
                        line,
                        format!(
                            "raw write to watchdog state `.{field}` — route the \
                             transition through `RetryMachine::step` so the \
                             model-checked machine stays the only mutator"
                        ),
                        false,
                    );
                }
            }
        }

        if !is_bin {
            for mac in ["println!", "eprintln!"] {
                if code.contains(mac) {
                    push(
                        RuleId::NoPrint,
                        line,
                        format!("`{mac}` in library code — report through the Observer instead"),
                        false,
                    );
                }
            }
        }

        if contains_token(code, "unsafe") {
            if krate != UNSAFE_ALLOWED_CRATE {
                push(
                    RuleId::UnsafeScope,
                    line,
                    format!("`unsafe` outside `{UNSAFE_ALLOWED_CRATE}` (crate `{krate}`)"),
                    false,
                );
            }
            if unsafe_needs_safety_comment(&stripped.code, idx)
                && !has_safety_comment(&stripped, idx)
            {
                push(
                    RuleId::SafetyComment,
                    line,
                    "`unsafe` block without a `// SAFETY:` comment on or above it".to_string(),
                    false,
                );
            }
        }

        // Event vocabulary (only in the observability-paired crates).
        if OBS_PAIRED_CRATES.contains(&krate) {
            for variant in event_variants(code) {
                let snake = camel_to_snake(&variant);
                if !vocab.contains(&snake) {
                    push(
                        RuleId::ObsPair,
                        line,
                        format!(
                            "`Event::{variant}` (wire name `{snake}`) is not in the \
                             docs/TRACING.md vocabulary — document it before emitting it"
                        ),
                        false,
                    );
                }
            }
        }
    }

    // Pass 2: the event vocabulary file — every variant carries a
    // `worker` (or `slot`) identity unless it is a declared global
    // event, so the happens-before engine can place it on an actor;
    // and the attribution-driving span events additionally carry a
    // `fiber` identity and a documented wire name, so the phase
    // accountant can charge time to the right request.
    if rel == EVENT_VOCAB_FILE {
        for (variant, line, has_id, has_fiber) in event_enum_variants(&stripped.code) {
            if !has_id && !WORKERLESS_EVENTS.contains(&variant.as_str()) {
                push(
                    RuleId::WorkerId,
                    line,
                    format!(
                        "`Event::{variant}` carries no `worker`/`slot` field — the \
                         race detector cannot place it on an actor; add the id or \
                         declare it global in rules::WORKERLESS_EVENTS"
                    ),
                    false,
                );
            }
            if ATTRIBUTION_EVENTS.contains(&variant.as_str()) {
                if !has_id || !has_fiber {
                    push(
                        RuleId::WorkerId,
                        line,
                        format!(
                            "`Event::{variant}` drives the phase accountant but lacks \
                             a `worker` and `fiber` identity — exemplar breakdowns \
                             would charge time to the wrong request (see \
                             rules::ATTRIBUTION_EVENTS)"
                        ),
                        false,
                    );
                }
                let snake = camel_to_snake(&variant);
                if !vocab.contains(&snake) {
                    push(
                        RuleId::ObsPair,
                        line,
                        format!(
                            "attribution event `Event::{variant}` (wire name `{snake}`) \
                             is not in the docs/TRACING.md vocabulary — the phase \
                             semantics must be documented where the phases are"
                        ),
                        false,
                    );
                }
            }
        }
    }

    // Pass 3: `_observed` wrappers must keep their plain twin in the
    // same file (the mutator/event pair the tracing contract rests on).
    if OBS_PAIRED_CRATES.contains(&krate) {
        let fns = fn_names(&stripped.code);
        for (name, line) in &fns {
            if let Some(base) = name.strip_suffix("_observed") {
                if !fns.iter().any(|(n, _)| n == base) {
                    push(
                        RuleId::ObsPair,
                        *line,
                        format!(
                            "`fn {name}` has no plain `fn {base}` twin in this file — \
                             the observed wrapper must delegate to an unobserved mutator"
                        ),
                        false,
                    );
                }
            }
        }
    }
}

/// `true` when `code` writes to `.{field}` (`=`, `+=`, `-=`, …) rather
/// than reading or comparing it. Line-level on purpose: the fields are
/// private to `RetryMachine`, so this is belt-and-suspenders against
/// the fields being re-inlined into a runtime struct.
fn raw_retry_field_write(code: &str, field: &str) -> bool {
    let pat = format!(".{field}");
    let mut start = 0;
    while let Some(pos) = code[start..].find(&pat) {
        let at = start + pos;
        let after = &code[at + pat.len()..];
        if after.chars().next().is_none_or(|c| !is_ident(c)) {
            let rest = after.trim_start().as_bytes();
            let is_write = match rest.first() {
                Some(b'=') => !matches!(rest.get(1), Some(b'=') | Some(b'>')),
                Some(b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^') => {
                    rest.get(1) == Some(&b'=')
                }
                _ => false,
            };
            if is_write {
                return true;
            }
        }
        start = at + 1;
    }
    false
}

/// The variants of `pub enum Event` in the vocabulary file: `(name,
/// 1-based line, carries a worker/slot field)`. Brace-depth scan over
/// stripped code — variants open at depth 1, their fields sit below.
fn event_enum_variants(code_lines: &[String]) -> Vec<(String, usize, bool, bool)> {
    let start = code_lines.iter().position(|code| {
        code.find("pub enum Event").is_some_and(|pos| {
            code[pos + "pub enum Event".len()..]
                .chars()
                .next()
                .is_none_or(|c| !is_ident(c))
        })
    });
    let Some(start) = start else {
        return Vec::new();
    };
    let mut out: Vec<(String, usize, bool, bool)> = Vec::new();
    let mut depth = 0i32;
    for (idx, code) in code_lines.iter().enumerate().skip(start) {
        let trimmed = code.trim();
        if depth == 1
            && trimmed
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
        {
            let name: String = trimmed.chars().take_while(|&c| is_ident(c)).collect();
            out.push((name, idx + 1, false, false));
        }
        if let Some(last) = out.last_mut() {
            if depth >= 1 && (contains_token(code, "worker") || contains_token(code, "slot")) {
                last.2 = true;
            }
            if depth >= 1 && contains_token(code, "fiber") {
                last.3 = true;
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if depth == 0 && idx > start {
            break;
        }
    }
    out
}

/// `Event::Variant` occurrences (CamelCase idents only) in a code line.
fn event_variants(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(pos) = rest.find("Event::") {
        let tail = &rest[pos + "Event::".len()..];
        let ident: String = tail.chars().take_while(|&c| is_ident(c)).collect();
        if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            out.push(ident);
        }
        rest = tail;
    }
    out
}

/// All `fn <name>` definitions in a file with their 1-based lines.
fn fn_names(code_lines: &[String]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (idx, code) in code_lines.iter().enumerate() {
        let mut rest = code.as_str();
        while let Some(pos) = rest.find("fn ") {
            let token_ok = {
                let before = &rest[..pos];
                before.is_empty() || !is_ident(before.chars().next_back().unwrap())
            };
            let tail = &rest[pos + 3..];
            if token_ok {
                let name: String = tail
                    .trim_start()
                    .chars()
                    .take_while(|&c| is_ident(c))
                    .collect();
                if !name.is_empty() {
                    out.push((name, idx + 1));
                }
            }
            rest = tail;
        }
    }
    out
}

/// Whether the `unsafe` on line `idx` opens an unsafe *block* or an
/// `unsafe impl` (the forms that need a `// SAFETY:` justification;
/// `unsafe fn` declarations document their contract in a `# Safety`
/// doc section instead, which rustdoc already enforces).
fn unsafe_needs_safety_comment(code_lines: &[String], idx: usize) -> bool {
    let code = &code_lines[idx];
    let mut rest = code.as_str();
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = {
            let before = &rest[..pos];
            before.is_empty() || !is_ident(before.chars().next_back().unwrap())
        };
        let tail = &rest[pos + "unsafe".len()..];
        if before_ok && !tail.chars().next().is_some_and(is_ident) {
            let next_tokens = tail.trim_start();
            if next_tokens.starts_with('{') || next_tokens.starts_with("impl") {
                return true;
            }
            // `unsafe` at end of line with the `{` opening on the next.
            if next_tokens.is_empty()
                && code_lines
                    .get(idx + 1)
                    .is_some_and(|l| l.trim_start().starts_with('{'))
            {
                return true;
            }
        }
        rest = tail;
    }
    false
}

/// A `SAFETY:` comment counts if it appears on the same line as the
/// `unsafe`, or anywhere in the contiguous run of comment/attribute
/// lines directly above it (multi-line justifications are the norm).
fn has_safety_comment(f: &StrippedFile, idx: usize) -> bool {
    if f.comments[idx].contains("SAFETY:") {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let code = f.code[j].trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#!");
        if !code.is_empty() && !is_attr {
            break; // a real code line ends the run
        }
        if f.comments[j].contains("SAFETY:") {
            return true;
        }
        if code.is_empty() && f.comments[j].trim().is_empty() {
            break; // a fully blank line ends the run too
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_separates_code_and_comments() {
        let src = "let a = 1; // trailing note\nlet s = \"HashMap inside\";\n/* block\nstill block */ let b = 2;\n";
        let f = strip(src);
        assert!(f.code[0].contains("let a = 1;"));
        assert!(!f.code[0].contains("trailing"));
        assert!(f.comments[0].contains("trailing note"));
        assert!(!f.code[1].contains("HashMap"));
        assert!(f.comments[2].contains("block"));
        assert!(f.comments[3].contains("still block"));
        assert!(f.code[3].contains("let b = 2;"));
    }

    #[test]
    fn stripper_handles_lifetimes_and_chars() {
        let f = strip("fn f<'a>(x: &'a str) { let c = 'y'; let q = '\\''; }\n");
        assert!(f.code[0].contains("fn f<'a>(x: &'a str)"));
        assert!(
            !f.code[0].contains('y'),
            "char literal content blanked: {}",
            f.code[0]
        );
    }

    #[test]
    fn stripper_handles_raw_strings() {
        let f = strip("let s = r#\"unsafe { println!() }\"#; let t = 3;\n");
        assert!(!f.code[0].contains("unsafe"));
        assert!(f.code[0].contains("let t = 3;"));
    }

    #[test]
    fn token_boundaries_respected() {
        assert!(contains_token("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_token("use fx::FxHashMap;", "HashMap"));
        assert!(!contains_token("let hash_map_like = 1;", "HashMap"));
        assert!(contains_token("std::thread::sleep(d)", "thread::sleep"));
    }

    #[test]
    fn event_variant_extraction() {
        let vs = event_variants("obs.emit(at, Event::UipiSent { worker, vector });");
        assert_eq!(vs, vec!["UipiSent".to_string()]);
        assert_eq!(camel_to_snake("UipiSent"), "uipi_sent");
        assert_eq!(camel_to_snake("KernelAssistWake"), "kernel_assist_wake");
    }

    #[test]
    fn allow_parsing_and_coverage() {
        let f = strip("// lp-check: allow(nondet, timing loop is test-only)\nlet t = Instant::now();\n// lp-check: allow(nondet)\n// lp-check: allow(frobnicate, x)\n");
        let allows = parse_allows(&f);
        assert!(allows.covers(RuleId::Nondet, 2));
        assert!(!allows.covers(RuleId::NoPrint, 2));
        assert_eq!(
            allows.bad.len(),
            2,
            "missing reason + unknown rule: {:?}",
            allows.bad
        );
    }

    #[test]
    fn nondet_static_allowlist_suppresses_only_listed_pairs() {
        let vocab = BTreeSet::new();
        // The allowlisted (file, token) pair: reported, but suppressed.
        let mut r = LintReport::default();
        lint_file(
            "crates/sim/src/par.rs",
            "std::thread::scope(|s| { let _ = s; });\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 0, "{}", r.human());
        assert_eq!(r.suppressed_count(), 1);
        assert!(r.diagnostics[0].message.contains("static allowlist"));
        // The same token in any other file still fails.
        let mut r = LintReport::default();
        lint_file(
            "crates/sim/src/engine.rs",
            "std::thread::scope(|s| { let _ = s; });\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 1);
        // A different banned token in an allowlisted file still fails.
        let mut r = LintReport::default();
        lint_file(
            "crates/sim/src/par.rs",
            "let t = std::time::Instant::now();\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 1);
    }

    #[test]
    fn hot_alloc_rule_is_scoped_to_the_wheel_core() {
        let vocab = BTreeSet::new();
        // The allowlisted (file, token) pair: reported, but suppressed.
        let mut r = LintReport::default();
        lint_file(
            "crates/sim/src/wheel.rs",
            "self.heap.push(entry);\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 0, "{}", r.human());
        assert_eq!(r.suppressed_count(), 1);
        assert!(r.diagnostics[0].message.contains("static allowlist"));
        // An unlisted growth token in a hot file fails the build.
        let mut r = LintReport::default();
        lint_file(
            "crates/sim/src/wheel.rs",
            "let b = Box::new(node);\nlet m = HashMap::default();\n",
            &vocab,
            &mut r,
        );
        assert!(
            r.diagnostics
                .iter()
                .filter(|d| d.rule == RuleId::HotAlloc && !d.suppressed)
                .count()
                == 2,
            "{}",
            r.human()
        );
        // The same tokens outside the hot files are not this rule's
        // business (nondet still owns HashMap there).
        let mut r = LintReport::default();
        lint_file(
            "crates/sim/src/engine.rs",
            "let b = Box::new(node); v.push(b);\n",
            &vocab,
            &mut r,
        );
        assert!(
            r.diagnostics.iter().all(|d| d.rule != RuleId::HotAlloc),
            "{}",
            r.human()
        );
        // Moving nodes between intrusive lists is clean.
        let mut r = LintReport::default();
        lint_file(
            "crates/sim/src/wheel.rs",
            "self.nodes[prev as usize].next = next;\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 0, "{}", r.human());
    }

    #[test]
    fn fault_rng_rule_is_scoped_to_the_injector_file() {
        let vocab = BTreeSet::new();
        // Seeding an RNG inside fault.rs fails the build.
        let mut r = LintReport::default();
        lint_file(
            "crates/sim/src/fault.rs",
            "let r = SmallRng::seed_from_u64(7);\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 1, "{}", r.human());
        assert!(r.diagnostics[0].message.contains("streams::FAULTS"));
        // The same token elsewhere is not this rule's business (other
        // rules may still apply).
        let mut r = LintReport::default();
        lint_file(
            "crates/sim/src/rng.rs",
            "let r = SmallRng::seed_from_u64(7);\n",
            &vocab,
            &mut r,
        );
        assert!(
            r.diagnostics.iter().all(|d| d.rule != RuleId::FaultRng),
            "{}",
            r.human()
        );
        // Drawing via the blessed substream helper is clean.
        let mut r = LintReport::default();
        lint_file(
            "crates/sim/src/fault.rs",
            "let r = rng(master, streams::FAULTS);\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 0, "{}", r.human());
    }

    #[test]
    fn chaos_rng_rule_is_scoped_to_the_chaos_directory() {
        let vocab = BTreeSet::new();
        // Seeding an RNG anywhere in the chaos crate fails the build.
        let mut r = LintReport::default();
        lint_file(
            "crates/chaos/src/search.rs",
            "let r = SmallRng::seed_from_u64(7);\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 1, "{}", r.human());
        assert!(r.diagnostics[0].message.contains("streams::CHAOS"));
        // The same token elsewhere is not this rule's business (other
        // rules may still apply).
        let mut r = LintReport::default();
        lint_file(
            "crates/sim/src/rng.rs",
            "let r = SmallRng::seed_from_u64(7);\n",
            &vocab,
            &mut r,
        );
        assert!(
            r.diagnostics.iter().all(|d| d.rule != RuleId::ChaosRng),
            "{}",
            r.human()
        );
        // Drawing via the blessed substream helper is clean.
        let mut r = LintReport::default();
        lint_file(
            "crates/chaos/src/plan.rs",
            "let r = rng(master, streams::CHAOS);\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 0, "{}", r.human());
    }

    #[test]
    fn policy_purity_rule_is_scoped_to_the_zoo_directory() {
        let vocab = BTreeSet::new();
        // Ambient entropy inside a zoo module fails the build. (The
        // nondet rule fires on `thread_rng` too; the purity rule must
        // be among the diagnostics with its own message.)
        let mut r = LintReport::default();
        lint_file(
            "crates/preemptible/src/policies/mine.rs",
            "let q = rand::thread_rng().gen_range(0..4);\n",
            &vocab,
            &mut r,
        );
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.rule == RuleId::PolicyPurity && !d.suppressed),
            "{}",
            r.human()
        );
        assert!(r.human().contains("docs/POLICIES.md"));
        // Environment reads and wall clocks are banned there as well.
        let mut r = LintReport::default();
        lint_file(
            "crates/preemptible/src/policies/mine.rs",
            "let j = std::env::var(\"LP_JOBS\");\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 1, "{}", r.human());
        // The same tokens outside the zoo are not this rule's business
        // (other rules may still apply).
        let mut r = LintReport::default();
        lint_file(
            "crates/preemptible/src/runtime.rs",
            "let j = std::env::var(\"LP_JOBS\");\n",
            &vocab,
            &mut r,
        );
        assert!(
            r.diagnostics.iter().all(|d| d.rule != RuleId::PolicyPurity),
            "{}",
            r.human()
        );
        // A clean zoo module passes.
        let mut r = LintReport::default();
        lint_file(
            "crates/preemptible/src/policies/mine.rs",
            "pub struct Mine { slice: u64 }\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 0, "{}", r.human());
    }

    #[test]
    fn relaxed_ordering_banned_outside_allowlist() {
        let vocab = BTreeSet::new();
        // Anywhere unlisted: a violation.
        let mut r = LintReport::default();
        lint_file(
            "crates/preemptible/src/runtime.rs",
            "flag.store(true, Ordering::Relaxed);\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 1, "{}", r.human());
        assert!(r.human().contains("relaxed-ordering"));
        // The allowlisted file: reported, but suppressed.
        let mut r = LintReport::default();
        lint_file(
            "crates/sim/src/par.rs",
            "let i = next.fetch_add(1, Ordering::Relaxed);\n",
            &vocab,
            &mut r,
        );
        assert!(
            r.diagnostics
                .iter()
                .all(|d| d.rule != RuleId::RelaxedOrdering || d.suppressed),
            "{}",
            r.human()
        );
        // Other orderings never fire.
        let mut r = LintReport::default();
        lint_file(
            "crates/preemptible/src/runtime.rs",
            "flag.store(true, Ordering::Release);\n",
            &vocab,
            &mut r,
        );
        assert!(
            r.diagnostics
                .iter()
                .all(|d| d.rule != RuleId::RelaxedOrdering),
            "{}",
            r.human()
        );
    }

    #[test]
    fn retry_state_writes_must_go_through_the_machine() {
        let vocab = BTreeSet::new();
        for write in [
            "w.losses = 0;\n",
            "self.workers[i].losses += 1;\n",
            "w.degraded = true;\n",
            "w.degraded_sends -= 1;\n",
            "w.probe_for = Some(seq);\n",
        ] {
            let mut r = LintReport::default();
            lint_file("crates/preemptible/src/runtime.rs", write, &vocab, &mut r);
            assert_eq!(r.violation_count(), 1, "`{write}` must fire: {}", r.human());
            assert!(r.human().contains("RetryMachine::step"));
        }
        // Reads and comparisons are fine.
        for read in [
            "if w.losses == 0 {}\n",
            "let d = w.degraded;\n",
            "assert!(m.losses() >= 1);\n",
            "match w.probe_for { _ => {} }\n",
        ] {
            let mut r = LintReport::default();
            lint_file("crates/preemptible/src/runtime.rs", read, &vocab, &mut r);
            assert!(
                r.diagnostics
                    .iter()
                    .all(|d| d.rule != RuleId::RetryTransition),
                "`{read}` must not fire: {}",
                r.human()
            );
        }
        // The machine's own home is exempt — and so is any other crate.
        let mut r = LintReport::default();
        lint_file(
            "crates/preemptible/src/retry.rs",
            "self.losses = 0;\n",
            &vocab,
            &mut r,
        );
        assert_eq!(r.violation_count(), 0, "{}", r.human());
        let mut r = LintReport::default();
        lint_file(
            "crates/check/src/lifecycle.rs",
            "st.losses = 0;\n",
            &vocab,
            &mut r,
        );
        assert!(
            r.diagnostics
                .iter()
                .all(|d| d.rule != RuleId::RetryTransition),
            "{}",
            r.human()
        );
    }

    #[test]
    fn worker_id_required_on_event_variants() {
        let vocab = BTreeSet::new();
        let enum_src = "\
pub enum Event {
    UipiSent { worker: u16, vector: u8 },
    DeadlineArmed { slot: u32, deadline_ns: u64 },
    Arrival { class: u8 },
    Rogue { latency_ns: u64 },
}
";
        // Parsed shape first.
        let stripped = strip(enum_src);
        let vs = event_enum_variants(&stripped.code);
        assert_eq!(vs.len(), 4);
        assert_eq!(vs[0], ("UipiSent".to_string(), 2, true, false));
        assert!(vs[1].2, "slot counts as an identity");
        assert_eq!(vs[3], ("Rogue".to_string(), 5, false, false));
        // The rule: only the undeclared worker-less variant fires, and
        // only in the vocabulary file.
        let mut r = LintReport::default();
        lint_file("crates/sim/src/obs/event.rs", enum_src, &vocab, &mut r);
        let hits: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::WorkerId)
            .collect();
        assert_eq!(hits.len(), 1, "{}", r.human());
        assert!(hits[0].message.contains("Rogue"));
        assert_eq!(hits[0].line, 5);
        let mut r = LintReport::default();
        lint_file("crates/sim/src/other.rs", enum_src, &vocab, &mut r);
        assert!(
            r.diagnostics.iter().all(|d| d.rule != RuleId::WorkerId),
            "{}",
            r.human()
        );
    }

    #[test]
    fn fn_pairing_detects_missing_twin() {
        let code = strip("pub fn arm(&mut self) {}\npub fn arm_observed(&mut self) {}\npub fn lonely_observed(&mut self) {}\n");
        let fns = fn_names(&code.code);
        assert!(fns.iter().any(|(n, _)| n == "arm"));
        assert!(fns.iter().any(|(n, _)| n == "lonely_observed"));
    }

    #[test]
    fn safety_comment_detection() {
        let src = "// SAFETY: the pointer is valid for the lifetime of the call.\nunsafe { do_it() }\nlet a = 1;\nlet b = 2;\nlet c = 3;\nunsafe { bare() }\n";
        let f = strip(src);
        assert!(unsafe_needs_safety_comment(&f.code, 1));
        assert!(has_safety_comment(&f, 1));
        assert!(unsafe_needs_safety_comment(&f.code, 5));
        assert!(!has_safety_comment(&f, 5));
        // `unsafe fn` declarations are handled by `# Safety` docs, not
        // this rule.
        let g = strip("pub unsafe fn raw() -> u8 { 0 }\n");
        assert!(!unsafe_needs_safety_comment(&g.code, 0));
    }
}
