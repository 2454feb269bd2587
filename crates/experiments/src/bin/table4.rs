//! Regenerates Table IV (IPC mechanism overhead).
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(Some("table4"), &mut std::io::stdout().lock())
}
