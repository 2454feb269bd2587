//! Regenerates Fig. 8 (latency vs throughput + max-throughput summary).
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(Some("fig8"), &mut std::io::stdout().lock())
}
