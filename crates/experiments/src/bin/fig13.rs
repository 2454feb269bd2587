//! Regenerates Fig. 13 (MICA + zlib colocation).
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(Some("fig13"), &mut std::io::stdout().lock())
}
