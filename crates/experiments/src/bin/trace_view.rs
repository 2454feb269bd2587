//! Exports one run as a Perfetto / Chrome `trace_event` JSON document
//! — open `results/trace.json` in ui.perfetto.dev or chrome://tracing
//! to see one track per worker with per-fiber execution slices.
//!
//! Usage: `trace_view [scenario]`, where `scenario` is `healthy`
//! (default) or the name of a pinned cliff from
//! `results/chaos_corpus.json` (e.g. `cliff-1`). The run is the same
//! deterministic evaluation figA sweeps — trace capture is a passive
//! observer, so what you see is exactly what the corpus pinned. The
//! trace window keeps the last `TRACE_CAPACITY` events; the summary
//! line reports how many earlier events the wrap evicted.

use lp_chaos::evaluate_report;
use lp_experiments::figa;
use lp_sim::obs::Phase;

/// Events retained in the trace window — sized so a quick-scale
/// horizon fits without eviction.
const TRACE_CAPACITY: usize = 1 << 18;

fn main() {
    let want = std::env::args().nth(1).unwrap_or_else(|| "healthy".into());
    let corpus = std::fs::read_to_string("results/chaos_corpus.json").ok();
    let scenarios = figa::scenarios(corpus.as_deref());
    let sc = scenarios
        .iter()
        .find(|s| s.name == want)
        .unwrap_or_else(|| {
            let names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
            eprintln!(
                "trace_view: unknown scenario `{want}`; have: {}",
                names.join(", ")
            );
            std::process::exit(2);
        });

    let r = evaluate_report(&sc.plan, &sc.cfg, false, TRACE_CAPACITY);
    let json = r.perfetto_json();

    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("trace_view: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join("trace.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("trace_view: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }

    println!(
        "wrote {} ({} events, {} evicted, {} completions)",
        path.display(),
        r.events.len(),
        r.events_dropped,
        r.completions
    );
    if let Some(ex) = r.worst_exemplar() {
        println!(
            "worst request: fiber {} on worker {}, {} us end to end",
            ex.fiber,
            ex.worker,
            ex.latency_ns / 1_000
        );
        for p in Phase::ALL {
            let ns = ex.phase(p);
            if ns > 0 {
                println!("  {:>15}: {} us", p.name(), ns / 1_000);
            }
        }
    }
}
