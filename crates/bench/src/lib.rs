//! Benchmark harness crate: no library code. The overhead gates are the
//! `lp-bench` binary (`src/main.rs`); the Criterion microbenchmarks live
//! in `benches/`. Run them with `cargo bench -p lp-bench`.

#![warn(missing_docs)]
