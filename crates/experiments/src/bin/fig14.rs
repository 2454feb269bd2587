//! Regenerates Fig. 14 (bursty colocation, adaptive quantum).
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(Some("fig14"), &mut std::io::stdout().lock())
}
