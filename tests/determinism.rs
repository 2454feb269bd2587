//! Tier-1 gate: the parallel experiment runner is *byte-deterministic*.
//!
//! The contract (docs/PERFORMANCE.md): for any job count, every
//! artifact produces exactly the same result vectors and exactly the
//! same CSV bytes as the serial run. These tests pin that for the
//! quick-scale Fig. 2 grid and the Fig. 8 grid across
//! `LP_JOBS` ∈ {1, 2, 8}. Fig. 8 is one shared batch from which both
//! the sweep and the max-throughput summary (a serial reduction over
//! parallel measurements) are read.
//!
//! The Fig. 8 grid is computed once per job count and shared by the
//! sweep and max-throughput tests. Both are also pinned across
//! commits: the FNV-1a-64 digests and lengths of the quick-scale
//! `fig8_sweep.csv` and `fig8_max.csv` at [`SEED`] are constants here,
//! so a change that moves a single byte of the headline figure fails
//! until the constants are updated on purpose.
//!
//! `runner::with_jobs` pins the job count per call, so these tests are
//! independent of the environment and of each other.

use std::sync::OnceLock;

use lp_experiments::runner::with_jobs;
use lp_experiments::{fig2, fig8, Scale};

const SEED: u64 = 2024;

#[test]
fn fig2_grid_is_byte_identical_across_job_counts() {
    let serial = with_jobs(1, || fig2::run_fig2(Scale::Quick, SEED));
    let serial_csv = fig2::table(&serial).to_csv();
    for jobs in [2, 8] {
        let par = with_jobs(jobs, || fig2::run_fig2(Scale::Quick, SEED));
        assert_eq!(serial, par, "fig2 points diverged at LP_JOBS={jobs}");
        assert_eq!(
            serial_csv,
            fig2::table(&par).to_csv(),
            "fig2 CSV bytes diverged at LP_JOBS={jobs}"
        );
    }
}

/// FNV-1a, 64-bit: a dependency-free digest for pinning output bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

type Fig8 = (Vec<fig8::SweepPoint>, Vec<fig8::MaxThroughputRow>);

/// The quick-scale Fig. 8 grid at `LP_JOBS` 1, 2 and 8, simulated once
/// per test binary and shared by the sweep and max-throughput tests.
fn fig8_grids() -> &'static [(usize, Fig8)] {
    static GRIDS: OnceLock<Vec<(usize, Fig8)>> = OnceLock::new();
    GRIDS.get_or_init(|| {
        [1, 2, 8]
            .into_iter()
            .map(|jobs| (jobs, with_jobs(jobs, || fig8::fig8(Scale::Quick, SEED))))
            .collect()
    })
}

#[test]
fn fig8_sweep_is_byte_identical_across_job_counts() {
    let [(_, serial), par @ ..] = fig8_grids() else {
        unreachable!("three job counts")
    };
    let serial_csv = fig8::sweep_table(&serial.0).to_csv();
    for (jobs, par) in par {
        assert_eq!(serial.0, par.0, "fig8 sweep diverged at LP_JOBS={jobs}");
        assert_eq!(
            serial_csv,
            fig8::sweep_table(&par.0).to_csv(),
            "fig8 sweep CSV bytes diverged at LP_JOBS={jobs}"
        );
    }
    // Pinned across commits: any change to these bytes is a change to
    // the reproduced figure and must be deliberate.
    assert_eq!(
        (fnv1a64(serial_csv.as_bytes()), serial_csv.len()),
        (0x0654_99c6_3722_f49c, 3128),
        "fig8_sweep.csv digest moved"
    );
}

#[test]
fn fig8_max_throughput_reduction_is_byte_identical_across_job_counts() {
    // The max-throughput criterion reduces the shared grid's reports
    // serially — the reduction must see them in exactly the submission
    // order.
    let [(_, serial), par @ ..] = fig8_grids() else {
        unreachable!("three job counts")
    };
    let serial_csv = fig8::max_table(&serial.1).to_csv();
    for (jobs, par) in par {
        assert_eq!(serial.1, par.1, "fig8 max-throughput diverged at LP_JOBS={jobs}");
        assert_eq!(
            serial_csv,
            fig8::max_table(&par.1).to_csv(),
            "fig8 max CSV bytes diverged at LP_JOBS={jobs}"
        );
    }
    assert_eq!(
        (fnv1a64(serial_csv.as_bytes()), serial_csv.len()),
        (0xf5fa_6797_4eb8_6c14, 409),
        "fig8_max.csv digest moved"
    );
}
