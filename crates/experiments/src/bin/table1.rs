//! Regenerates Table I.
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(Some("table1"), &mut std::io::stdout().lock())
}
