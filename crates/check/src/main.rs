//! The `lp-check` CLI: `lint`, `model`, `race`, or `all`.
//!
//! Exit status: 0 when clean, 1 on violations, 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use lp_check::model::Mode;
use lp_check::{lifecycle, lint, model, race, JSON_SCHEMA_VERSION};

const USAGE: &str = "\
usage: lp-check <lint|model|race|all> [options]

subcommands:
  lint    walk crates/*/src and enforce the determinism/observability
          rule table (docs/CHECKS.md)
  model   exhaustively explore the UPID sender/receiver interleavings
          and the watchdog retry/degrade/recover lifecycle (DPOR) and
          check the protocol invariants
  race    happens-before race detection over exported JSONL traces
          (--trace, repeatable)
  all     lint + model

options:
  --json          machine-readable output
  --root <path>   workspace root (default: discovered from cwd)
  --por           model: prune with partial-order reduction instead of
                  enumerating every schedule
  --trace <path>  race: a JSONL trace to analyze (repeatable)
";

struct Args {
    cmd: String,
    json: bool,
    por: bool,
    root: Option<PathBuf>,
    traces: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv
        .next()
        .ok_or_else(|| "missing subcommand".to_string())?;
    let mut args = Args {
        cmd,
        json: false,
        por: false,
        root: None,
        traces: Vec::new(),
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--por" => args.por = true,
            "--root" => {
                let p = argv
                    .next()
                    .ok_or_else(|| "--root needs a path".to_string())?;
                args.root = Some(PathBuf::from(p));
            }
            "--trace" => {
                let p = argv
                    .next()
                    .ok_or_else(|| "--trace needs a path".to_string())?;
                args.traces.push(PathBuf::from(p));
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

/// Ascends from the current directory to the first one that looks like
/// the workspace root (has both `Cargo.toml` and `crates/`).
fn discover_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn lint_report(args: &Args) -> Result<lint::LintReport, String> {
    let root = args
        .root
        .clone()
        .or_else(discover_root)
        .ok_or_else(|| "could not find the workspace root; pass --root".to_string())?;
    lint::lint_workspace(&root).map_err(|e| format!("lint failed: {e}"))
}

fn run_lint(args: &Args) -> Result<bool, String> {
    let report = lint_report(args)?;
    if args.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.human());
    }
    Ok(report.is_clean())
}

fn model_reports(args: &Args) -> (model::ModelReport, lifecycle::LifecycleReport, bool) {
    let mode = if args.por { Mode::Por } else { Mode::Full };
    let upid = model::check_default(mode);
    let lc = lifecycle::check_default(mode);
    // The CI gate: every invariant holds, and (in full mode) the suite
    // actually enumerated a meaningful schedule count.
    let ok = upid.holds() && lc.holds() && (mode == Mode::Por || upid.total_schedules() >= 1000);
    (upid, lc, ok)
}

fn run_model(args: &Args) -> bool {
    let (upid, lc, ok) = model_reports(args);
    if args.json {
        println!(
            "{{\"version\":{JSON_SCHEMA_VERSION},\"upid\":{},\"lifecycle\":{}}}",
            upid.to_json(),
            lc.to_json()
        );
    } else {
        print!("{}", upid.human());
        print!("{}", lc.human());
    }
    ok
}

fn run_race(args: &Args) -> Result<bool, String> {
    if args.traces.is_empty() {
        return Err("race needs at least one --trace <path>".to_string());
    }
    let mut ok = true;
    let mut json_parts = Vec::new();
    for path in &args.traces {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let report = race::analyze_jsonl(&text);
        ok &= report.is_clean();
        if args.json {
            json_parts.push(format!(
                "{{\"path\":\"{}\",\"report\":{}}}",
                path.display(),
                report.to_json()
            ));
        } else {
            println!("== {} ==", path.display());
            print!("{}", report.human());
        }
    }
    if args.json {
        println!(
            "{{\"version\":{JSON_SCHEMA_VERSION},\"traces\":[{}]}}",
            json_parts.join(",")
        );
    }
    Ok(ok)
}

fn run_all(args: &Args) -> Result<bool, String> {
    let lint_report = lint_report(args)?;
    let (upid, lc, model_ok) = model_reports(args);
    if args.json {
        println!("{}", lp_check::all_json(&lint_report, &upid, &lc));
    } else {
        print!("{}", lint_report.human());
        print!("{}", upid.human());
        print!("{}", lc.human());
    }
    Ok(lint_report.is_clean() && model_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lp-check: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.cmd.as_str() {
        "lint" => match run_lint(&args) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("lp-check: {e}");
                return ExitCode::from(2);
            }
        },
        "model" => run_model(&args),
        "race" => match run_race(&args) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("lp-check: {e}");
                return ExitCode::from(2);
            }
        },
        "all" => match run_all(&args) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("lp-check: {e}");
                return ExitCode::from(2);
            }
        },
        other => {
            eprintln!("lp-check: unknown subcommand `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
