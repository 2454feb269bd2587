//! Runs every experiment in paper order.
//!
//! The artifact list itself executes serially (stdout follows the
//! paper); each artifact fans its point grid out across `LP_JOBS`
//! worker threads through `lp_experiments::runner`, with output
//! byte-identical to a serial run.
fn main() -> std::io::Result<()> {
    lp_experiments::runner::emit(None, &mut std::io::stdout().lock())
}
