//! Markdown link hygiene: every relative link in the top-level and
//! `docs/` markdown must resolve to a file (or directory) in the
//! tree, and every `#fragment` must match a heading of the target
//! file (slugified the way GitHub does). Docs drift — a renamed file,
//! a moved doc, a reworded heading — fails here instead of shipping a
//! dead link.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The markdown files whose links are checked, relative to the
/// workspace root.
fn doc_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![
        root.join("README.md"),
        root.join("DESIGN.md"),
        root.join("EXPERIMENTS.md"),
        root.join("ROADMAP.md"),
    ];
    let docs = root.join("docs");
    let mut entries: Vec<_> = std::fs::read_dir(&docs)
        .expect("docs/ directory")
        .map(|e| e.expect("readable docs/ entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    entries.sort();
    files.extend(entries);
    files.retain(|p| p.exists());
    files
}

/// Extracts the `](target)` part of every inline markdown link in
/// `text`. Good enough for this repo's docs: no reference-style links,
/// no angle brackets, no nested parentheses in targets.
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find("](") {
        let tail = &rest[open + 2..];
        let Some(close) = tail.find(')') else { break };
        out.push(tail[..close].to_string());
        rest = &tail[close + 1..];
    }
    out
}

/// GitHub's heading-anchor slug: lowercase; keep letters, digits,
/// `-`, `_`; spaces become `-`; everything else (backticks, em
/// dashes, parens, …) is dropped. Duplicate headings get `-1`, `-2`,
/// … suffixes.
fn slugify(heading: &str) -> String {
    let mut slug = String::new();
    for c in heading.trim().chars() {
        if c.is_alphanumeric() || c == '-' || c == '_' {
            slug.extend(c.to_lowercase());
        } else if c == ' ' {
            slug.push('-');
        }
    }
    slug
}

/// Every anchor a markdown file exposes: its ATX headings, slugified,
/// with GitHub's duplicate-suffix rule applied.
fn anchors_of(text: &str) -> BTreeSet<String> {
    let mut seen: Vec<String> = Vec::new();
    let mut anchors = BTreeSet::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !line.starts_with('#') {
            continue;
        }
        let heading = line.trim_start_matches('#');
        if line.chars().find(|&c| c != '#') != Some(' ') {
            continue;
        }
        let slug = slugify(heading);
        let dups = seen.iter().filter(|s| **s == slug).count();
        anchors.insert(if dups == 0 {
            slug.clone()
        } else {
            format!("{slug}-{dups}")
        });
        seen.push(slug);
    }
    anchors
}

#[test]
fn relative_markdown_links_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();
    let mut checked = 0usize;
    let mut anchors_checked = 0usize;
    for file in doc_files(root) {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let dir = file.parent().expect("doc file has a parent");
        for target in link_targets(&text) {
            // External links and mail are out of scope.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, fragment) = match target.split_once('#') {
                Some((p, f)) => (p, Some(f)),
                None => (target.as_str(), None),
            };
            // Resolve the target file: in-page anchors point at the
            // doc itself.
            let resolved = if path_part.is_empty() {
                file.clone()
            } else {
                checked += 1;
                let p = dir.join(path_part);
                if !p.exists() {
                    broken.push(format!("{}: ]({})", file.display(), target));
                    continue;
                }
                p
            };
            // Validate the fragment against the target's headings.
            if let Some(frag) = fragment {
                if resolved.extension().is_none_or(|e| e != "md") {
                    continue;
                }
                anchors_checked += 1;
                let target_text = std::fs::read_to_string(&resolved)
                    .unwrap_or_else(|e| panic!("read {}: {e}", resolved.display()));
                if !anchors_of(&target_text).contains(frag) {
                    broken.push(format!(
                        "{}: ]({}) — no heading in {} slugifies to `#{}`",
                        file.display(),
                        target,
                        resolved.display(),
                        frag
                    ));
                }
            }
        }
    }
    assert!(
        checked > 20,
        "only {checked} relative links found — the extractor regressed"
    );
    assert!(
        anchors_checked > 3,
        "only {anchors_checked} #fragment links found — the anchor check regressed"
    );
    assert!(
        broken.is_empty(),
        "broken relative markdown links:\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn slugify_matches_github_examples() {
    assert_eq!(
        slugify(" lp-check race — happens-before race detection"),
        "lp-check-race--happens-before-race-detection"
    );
    assert_eq!(
        slugify(" Resilience layer (`lp_sim::fault` + runtime watchdog)"),
        "resilience-layer-lp_simfault--runtime-watchdog"
    );
    assert_eq!(slugify(" The policy tournament"), "the-policy-tournament");
}
