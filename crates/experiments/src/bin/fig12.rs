//! Regenerates Fig. 12 (LibUtimer precision).
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(Some("fig12"), &mut std::io::stdout().lock())
}
