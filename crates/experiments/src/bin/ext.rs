//! Regenerates the extension experiments (X1-X4).
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(Some("ext"), &mut std::io::stdout().lock())
}
