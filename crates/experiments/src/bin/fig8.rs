//! Regenerates Fig. 8 (latency vs throughput + max-throughput summary).
use lp_experiments::{common::Scale, fig8, DEFAULT_SEED};
fn main() {
    let scale = Scale::from_env(Scale::Full);
    let (pts, rows) = fig8::fig8(scale, DEFAULT_SEED);
    let t = fig8::sweep_table(&pts);
    println!("{}", t.render());
    lp_experiments::common::save_csv("fig8_sweep.csv", &t.to_csv());
    let t = fig8::max_table(&rows);
    println!("{}", t.render());
    lp_experiments::common::save_csv("fig8_max.csv", &t.to_csv());
}
