//! Regenerates Fig. 11 (timer delivery scalability).
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(Some("fig11"), &mut std::io::stdout().lock())
}
