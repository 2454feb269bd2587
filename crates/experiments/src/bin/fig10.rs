//! Regenerates Fig. 10 (RPC deployment overhead).
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(Some("fig10"), &mut std::io::stdout().lock())
}
