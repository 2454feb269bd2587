//! Regenerates Fig. 9 (adaptive quanta vs SLO violations).
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(Some("fig9"), &mut std::io::stdout().lock())
}
