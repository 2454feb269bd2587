//! The deterministic parallel experiment runner.
//!
//! Every figure in the paper's evaluation is a grid of independent
//! simulation points — `(system, workload, rate, seed)` tuples that
//! share nothing but their inputs. The runner executes those grids on
//! a fixed-size scoped-thread pool ([`lp_sim::par::ordered_map`])
//! while keeping every observable output **byte-identical** to the
//! serial loop it replaced:
//!
//! * points are keyed by an explicit [`PointId`] (artifact name +
//!   submission index);
//! * results come back in submission order, so tables and CSVs render
//!   the same bytes at any job count;
//! * `LP_JOBS=1` forces the serial path exactly (no pool is created);
//! * nested fan-outs (the `all` binary running figure modules that fan
//!   out their own grids) degrade to inline execution instead of
//!   spawning a second level of threads.
//!
//! Job-count resolution order: a [`with_jobs`] override (used by tests
//! so they never race on the environment) → the `LP_JOBS` environment
//! variable → the machine's available parallelism. The tier-1 test
//! `tests/determinism.rs` pins the byte-identity claim across
//! `LP_JOBS=1,2,8`; the architecture and the determinism argument are
//! written up in `docs/PERFORMANCE.md`.

use std::cell::Cell;
use std::io::{self, Write};

use lp_stats::Table;

use crate::common::{save_csv, Scale};
use crate::DEFAULT_SEED;

/// Identifies one submitted point of an artifact's grid, for labeling
/// and debugging parallel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointId {
    /// The artifact (figure/table) the point belongs to.
    pub artifact: &'static str,
    /// Submission index within the artifact's grid — equals the index
    /// of the result in the returned `Vec`.
    pub index: usize,
}

impl std::fmt::Display for PointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.artifact, self.index)
    }
}

thread_local! {
    /// A scoped override installed by [`with_jobs`].
    static JOBS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of pool workers a fan-out will use: the innermost
/// [`with_jobs`] override if any, else `LP_JOBS` from the environment,
/// else the machine's available parallelism.
pub fn jobs() -> usize {
    if let Some(n) = JOBS_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("LP_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    // Covered by the lint's static nondet allowlist: the job count
    // changes wall-clock only, never output bytes (see docs/CHECKS.md).
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Runs `f` with the runner's job count pinned to `jobs`, restoring
/// the previous setting afterwards (panic-safe). This is how tests
/// compare serial against parallel execution without mutating the
/// process environment.
pub fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOBS_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(JOBS_OVERRIDE.with(|c| c.replace(Some(jobs.max(1)))));
    f()
}

/// Executes `f` over every point of an artifact's grid on the pool,
/// returning results in submission order.
///
/// This is the single entry point the figure modules fan out through;
/// it exists (rather than calling `lp_sim::par` directly) so the job
/// count, the [`PointId`] key, and the serial fallback are decided in
/// exactly one place.
pub fn map_points<T, U, F>(artifact: &'static str, points: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(PointId, &T) -> U + Sync,
{
    lp_sim::par::ordered_map(jobs(), points, move |index, point| {
        f(PointId { artifact, index }, point)
    })
}

// ---------------------------------------------------------------------------
// Artifact submission: the paper-order run list behind `all` and the
// per-artifact binaries.
// ---------------------------------------------------------------------------

/// Everything one artifact produces: tables to print (in order) and
/// CSV files to save under `results/`.
pub struct ArtifactOutput {
    /// Rendered tables, printed in order.
    pub tables: Vec<Table>,
    /// `(file name, contents)` pairs for `results/<name>`.
    pub csvs: Vec<(&'static str, String)>,
}

impl ArtifactOutput {
    fn new() -> Self {
        ArtifactOutput {
            tables: Vec::new(),
            csvs: Vec::new(),
        }
    }

    /// Adds a table and saves it as `results/<csv_name>` too.
    fn saved(mut self, csv_name: &'static str, t: Table) -> Self {
        self.csvs.push((csv_name, t.to_csv()));
        self.tables.push(t);
        self
    }

    /// Adds a table that is printed but not saved.
    fn printed(mut self, t: Table) -> Self {
        self.tables.push(t);
        self
    }
}

/// One named entry of the paper-order experiment list.
pub struct Artifact {
    /// Short name (matches the module / result file stem).
    pub name: &'static str,
    run: fn(Scale, u64) -> ArtifactOutput,
}

impl Artifact {
    /// Runs the artifact at the given scale and seed.
    pub fn run(&self, scale: Scale, seed: u64) -> ArtifactOutput {
        (self.run)(scale, seed)
    }
}

/// The complete evaluation in paper order — the run list behind
/// `cargo run -p lp-experiments --bin all` and the one definition each
/// per-artifact binary (`--bin fig8`, …) looks its entry up in (see
/// [`emit`]). The benchmark times each entry through [`run_artifacts`].
///
/// Each artifact internally fans its point grid out through
/// [`map_points`]; the list itself is executed in order so stdout
/// stays in paper order.
pub fn all_artifacts() -> Vec<Artifact> {
    vec![
        Artifact {
            name: "table1",
            run: |_, _| ArtifactOutput::new().saved("table1.csv", crate::table1::run()),
        },
        Artifact {
            name: "fig1",
            run: |scale, _| {
                let (tl, tr) = crate::fig1::tables(
                    &crate::fig1::run_left(scale),
                    &crate::fig1::run_right(scale),
                );
                ArtifactOutput::new()
                    .saved("fig1_left.csv", tl)
                    .saved("fig1_right.csv", tr)
            },
        },
        Artifact {
            name: "fig2",
            run: |scale, seed| {
                ArtifactOutput::new().saved(
                    "fig2.csv",
                    crate::fig2::table(&crate::fig2::run_fig2(scale, seed)),
                )
            },
        },
        Artifact {
            name: "fig8",
            run: |scale, seed| {
                let (sweep, max) = crate::fig8::fig8(scale, seed);
                ArtifactOutput::new()
                    .saved("fig8_sweep.csv", crate::fig8::sweep_table(&sweep))
                    .saved("fig8_max.csv", crate::fig8::max_table(&max))
            },
        },
        Artifact {
            name: "fig9",
            run: |scale, seed| {
                let rows = crate::fig9::run_fig9(scale, seed);
                ArtifactOutput::new()
                    .saved("fig9.csv", crate::fig9::table(&rows))
                    .saved("fig9_trace.csv", crate::fig9::quantum_trace(&rows))
            },
        },
        Artifact {
            name: "fig10",
            run: |scale, seed| {
                ArtifactOutput::new().saved(
                    "fig10.csv",
                    crate::fig10::table(&crate::fig10::run_fig10(scale, seed)),
                )
            },
        },
        Artifact {
            name: "table4",
            run: |scale, _| {
                ArtifactOutput::new().saved(
                    "table4.csv",
                    crate::table4::table(&crate::table4::run(scale)),
                )
            },
        },
        Artifact {
            name: "fig11",
            run: |scale, seed| {
                ArtifactOutput::new().saved(
                    "fig11.csv",
                    crate::fig11::table(&crate::fig11::run_fig11(scale, seed)),
                )
            },
        },
        Artifact {
            name: "fig12",
            run: |scale, seed| {
                ArtifactOutput::new().saved(
                    "fig12.csv",
                    crate::fig12::table(&crate::fig12::run_fig12(scale, seed)),
                )
            },
        },
        Artifact {
            name: "fig13",
            run: |scale, seed| {
                ArtifactOutput::new()
                    .saved(
                        "fig13_left.csv",
                        crate::fig13::table(
                            &crate::fig13::run_left(scale, seed),
                            "Fig 13 (left): fixed 30us quantum vs load",
                        ),
                    )
                    .saved(
                        "fig13_right.csv",
                        crate::fig13::table(
                            &crate::fig13::run_right(scale, seed),
                            "Fig 13 (right): quantum sweep at 55 kRPS",
                        ),
                    )
            },
        },
        Artifact {
            name: "fig14",
            run: |scale, seed| {
                ArtifactOutput::new().saved(
                    "fig14.csv",
                    crate::fig14::table(&crate::fig14::run_fig14(scale, seed)),
                )
            },
        },
        Artifact {
            name: "ext",
            run: |scale, seed| {
                ArtifactOutput::new()
                    .printed(crate::ext::power_table())
                    .printed(crate::ext::security_table())
                    .printed(crate::ext::min_quantum_table(&crate::ext::run_min_quantum(
                        scale, seed,
                    )))
                    .printed(crate::ext::hw_offload_table(scale, seed))
            },
        },
    ]
}

/// Runs a list of artifacts in submission order, returning each one's
/// output paired with its name. The artifact sequence itself stays on
/// the calling thread (stdout must follow paper order anyway); the
/// parallelism lives inside each artifact's point grid.
pub fn run_artifacts(
    artifacts: &[Artifact],
    scale: Scale,
    seed: u64,
) -> Vec<(&'static str, ArtifactOutput)> {
    artifacts
        .iter()
        .map(|a| (a.name, a.run(scale, seed)))
        .collect()
}

/// The body of the `all` binary (`only == None`) and of each
/// per-artifact binary (`only == Some(name)`): runs the artifact list,
/// or its one entry named `name`, at `LP_SCALE` (default full) and
/// [`DEFAULT_SEED`]. As each artifact finishes, its CSVs are saved under
/// `results/` and its tables are written to `out`, rendered and
/// newline-terminated, in paper order.
///
/// # Panics
///
/// Panics if `only` names no artifact of [`all_artifacts`].
pub fn emit(only: Option<&str>, out: &mut impl Write) -> io::Result<()> {
    let artifacts: Vec<Artifact> = all_artifacts()
        .into_iter()
        .filter(|a| only.is_none_or(|name| a.name == name))
        .collect();
    assert!(!artifacts.is_empty(), "no artifact named {only:?}");
    let scale = Scale::from_env(Scale::Full);
    for a in &artifacts {
        let output = a.run(scale, DEFAULT_SEED);
        for (file, csv) in &output.csvs {
            save_csv(file, csv);
        }
        for t in &output.tables {
            writeln!(out, "{}", t.render())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_jobs_overrides_and_restores() {
        let outer = jobs();
        let inner = with_jobs(3, || {
            assert_eq!(jobs(), 3);
            with_jobs(1, jobs)
        });
        assert_eq!(inner, 1);
        assert_eq!(jobs(), outer, "override leaked past with_jobs");
    }

    #[test]
    fn with_jobs_floors_at_one() {
        assert_eq!(with_jobs(0, jobs), 1);
    }

    #[test]
    fn map_points_keys_and_order() {
        let pts: Vec<u64> = (0..100).collect();
        let out = with_jobs(8, || {
            map_points("test", &pts, |id, &x| {
                assert_eq!(id.artifact, "test");
                (id.index as u64, x * 2)
            })
        });
        let serial = with_jobs(1, || {
            map_points("test", &pts, |id, &x| (id.index as u64, x * 2))
        });
        assert_eq!(out, serial);
        assert!(out.iter().enumerate().all(|(i, &(idx, _))| idx == i as u64));
    }

    #[test]
    fn artifact_list_is_paper_ordered() {
        let names: Vec<&str> = all_artifacts().iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            vec![
                "table1", "fig1", "fig2", "fig8", "fig9", "fig10", "table4", "fig11", "fig12",
                "fig13", "fig14", "ext"
            ]
        );
    }

    #[test]
    fn point_id_display() {
        let id = PointId {
            artifact: "fig8",
            index: 17,
        };
        assert_eq!(id.to_string(), "fig8#17");
    }
}
