//! Regenerates Fig. 2 (tail vs quantum).
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(Some("fig2"), &mut std::io::stdout().lock())
}
