//! Regenerates Fig. 1 (both panels).
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(Some("fig1"), &mut std::io::stdout().lock())
}
