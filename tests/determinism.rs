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
//! sweep and max-throughput tests. Every quick-scale CSV of the `all`
//! run list is also pinned across commits: the FNV-1a-64 digests and
//! lengths of `fig8_sweep.csv` and `fig8_max.csv` at [`SEED`] are
//! constants in the Fig. 8 tests, and the other thirteen CSVs are
//! constants in [`QUICK_ALL_PINS`], checked by one run of
//! `runner::all_artifacts()` minus `fig8` at the ambient job count
//! (`LP_JOBS`, else the host's parallelism), so CI's `LP_JOBS` 1/2/8
//! matrix checks every CSV at each count. The same run pins the `ext`
//! artifact, which saves no CSV, by the digest of its rendered tables
//! ([`EXT_TABLES_PIN`]). The extension outputs outside that list (the
//! tournament leaderboard, Figs. R, W and A, and the chaos replay) are
//! pinned the same way in [`EXTENSION_PINS`]. A change that moves a
//! single byte of any reproduced figure fails until the constants are
//! updated on purpose.
//!
//! Below the figures, [`run_reports_are_pinned_across_commits`] pins
//! whole [`RunReport`]s: every field of one small run per system,
//! mechanism and zoo policy (totals, histograms, series, core clocks,
//! metrics, trace and tail attribution) is folded into one digest per
//! run, so a refactor of the record path cannot move a byte of any
//! report.
//!
//! Every other test pins its job count per call with
//! `runner::with_jobs`, so it is independent of the environment and of
//! the other tests.

use std::fmt::Write as _;
use std::sync::OnceLock;

use libpreemptible::adaptive::{AdaptiveConfig, QuantumController};
use libpreemptible::runtime::AdmissionConfig;
use libpreemptible::{
    run, AdaptiveQuantum, ClassQuantum, Edf, Fifo, Mlfq, PreemptMech, RunReport, RuntimeConfig,
    SchedPolicy, ServiceSource, Srpt, Vruntime, WorkloadSpec,
};
use lp_baselines::{run_libinger, run_shinjuku, LibingerConfig, ShinjukuConfig};
use lp_chaos::{corpus, evaluate, CorpusEntry};
use lp_experiments::runner::{self, with_jobs};
use lp_experiments::{fig2, fig8, figa, figr, figw, tournament, Scale};
use lp_sim::fault::{FaultKind, FaultPlan};
use lp_sim::SimDur;
use lp_workload::{ColocatedWorkload, PhasedService, RateSchedule, ServiceDist};

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
        assert_eq!(
            serial.1, par.1,
            "fig8 max-throughput diverged at LP_JOBS={jobs}"
        );
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

/// `(file, FNV-1a-64, byte length)` of every quick-scale CSV that
/// `runner::all_artifacts()` saves besides the two Fig. 8 files, at
/// [`SEED`].
const QUICK_ALL_PINS: [(&str, u64, usize); 13] = [
    ("table1.csv", 0x85d1_9023_0921_f036, 229),
    ("fig1_left.csv", 0x9d89_7cf8_3d6d_0845, 119),
    ("fig1_right.csv", 0x7f9e_d5ab_42b4_a2d7, 191),
    ("fig2.csv", 0xc96e_4984_edb9_8400, 460),
    ("fig9.csv", 0xe80a_2015_4db3_41ae, 145),
    ("fig9_trace.csv", 0x028b_5ee6_0184_d3a1, 333),
    ("fig10.csv", 0x72d4_e0e5_245a_8b83, 152),
    ("table4.csv", 0x9451_b134_3fe6_e130, 255),
    ("fig11.csv", 0xe203_4f0a_bb60_38e0, 913),
    ("fig12.csv", 0x944d_88fc_4ff2_1af6, 184),
    ("fig13_left.csv", 0x0a7e_5a04_2379_cf70, 214),
    ("fig13_right.csv", 0x4e5f_8bcb_ed63_ec92, 164),
    ("fig14.csv", 0x76a4_b607_70f8_6d7a, 159),
];

/// `(FNV-1a-64, byte length)` of the quick-scale `ext` artifact's
/// tables at [`SEED`], each rendered and followed by a newline: the
/// bytes `--bin ext` prints.
const EXT_TABLES_PIN: (u64, usize) = (0x2e98_d1d3_a1da_bf7d, 1161);

#[test]
fn quick_all_csvs_are_pinned_across_commits() {
    let artifacts: Vec<_> = runner::all_artifacts()
        .into_iter()
        .filter(|a| a.name != "fig8")
        .collect();
    let outputs = runner::run_artifacts(&artifacts, Scale::Quick, SEED);
    let got: Vec<(&str, u64, usize)> = outputs
        .iter()
        .flat_map(|(_, out)| &out.csvs)
        .map(|(file, csv)| (*file, fnv1a64(csv.as_bytes()), csv.len()))
        .collect();
    assert_eq!(got, QUICK_ALL_PINS, "a quick-scale `all` CSV digest moved");

    let (_, ext) = outputs
        .iter()
        .find(|(name, _)| *name == "ext")
        .expect("`ext` is in the artifact list");
    let printed: String = ext.tables.iter().map(|t| t.render() + "\n").collect();
    assert_eq!(
        (fnv1a64(printed.as_bytes()), printed.len()),
        EXT_TABLES_PIN,
        "the quick-scale `ext` tables moved"
    );
}

/// `(artifact, FNV-1a-64, byte length)` of the quick-scale extension
/// outputs outside the `all` run list, at [`SEED`]: the tournament
/// leaderboard (`--bin tournament`), the Fig. R, W and A CSVs, and
/// `chaos_replay.csv`. Fig. A and the replay read the committed
/// corpus, `results/chaos_corpus.json`.
const EXTENSION_PINS: [(&str, u64, usize); 6] = [
    ("tournament.md", 0xf6b9_8e95_421c_24b8, 1760),
    ("tournament.json", 0xd124_0c2e_e287_9618, 2810),
    ("figR.csv", 0xa40e_edd1_67a3_e38c, 322),
    ("figW.csv", 0x48f1_ba42_6cd4_9d68, 332),
    ("figA.csv", 0x05df_9188_ac04_9e78, 1070),
    ("chaos_replay.csv", 0x74af_2ad0_7458_7c1f, 220),
];

/// The bytes `--bin chaos_replay` writes: each corpus entry
/// re-evaluated unhardened and hardened under its own pinned config.
fn chaos_replay_csv(entries: &[CorpusEntry]) -> String {
    let mut csv = String::from(
        "name,unhardened_objective,unhardened_worst_ns,hardened_objective,hardened_worst_ns\n",
    );
    for e in entries {
        let u = evaluate(&e.plan, &e.cfg, false);
        let h = evaluate(&e.plan, &e.cfg, true);
        writeln!(
            csv,
            "{},{},{},{},{}",
            e.name,
            u.objective(),
            u.worst_ns,
            h.objective(),
            h.worst_ns
        )
        .unwrap();
    }
    csv
}

#[test]
fn extension_artifacts_are_pinned_across_commits() {
    let corpus_json = std::fs::read_to_string("results/chaos_corpus.json")
        .expect("results/chaos_corpus.json is committed");
    let entries = corpus::from_json(&corpus_json).expect("corpus parses");
    let leaderboard = tournament::run_tournament(Scale::Quick, SEED);
    let outputs = [
        (
            "tournament.md",
            tournament::leaderboard_markdown(&leaderboard, SEED),
        ),
        (
            "tournament.json",
            tournament::leaderboard_json(&leaderboard, SEED),
        ),
        (
            "figR.csv",
            figr::table(&figr::run_figr(Scale::Quick, SEED)).to_csv(),
        ),
        (
            "figW.csv",
            figw::table(&figw::run_figw(Scale::Quick, SEED)).to_csv(),
        ),
        (
            "figA.csv",
            figa::table(&figa::run_figa(
                Scale::Quick,
                &figa::scenarios(Some(&corpus_json)),
            ))
            .to_csv(),
        ),
        ("chaos_replay.csv", chaos_replay_csv(&entries)),
    ];
    let got: Vec<(&str, u64, usize)> = outputs
        .iter()
        .map(|(file, out)| (*file, fnv1a64(out.as_bytes()), out.len()))
        .collect();
    assert_eq!(got, EXTENSION_PINS, "a quick-scale extension output moved");
}

/// FNV-1a-64 of every field of `r`: the totals, every latency
/// histogram (overall and per class), every series frame, the core
/// clocks, the metrics and events JSONL, and the phase attribution.
fn report_digest(r: &RunReport) -> u64 {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{}|{:?}|{:?}|{}|{}|{}|{}|{}|{}|{}|{:?}|{}",
        r.system,
        r.offered_rps,
        r.duration,
        r.arrivals,
        r.completions,
        r.dropped,
        r.in_flight,
        r.oldest_inflight_ns,
        r.preemptions,
        r.spurious_preemptions,
        r.final_quantum,
        r.events_dropped,
    );
    let _ = writeln!(s, "{:?}\n{:?}", r.latency, r.latency_by_class);
    let _ = writeln!(s, "{:?}\n{:?}", r.latency_series, r.qps_series);
    let _ = writeln!(s, "{:?}\n{:?}", r.quantum_series, r.slo_series);
    let _ = writeln!(s, "{:?}\n{:?}\n{:?}", r.cores, r.per_worker, r.timer_core);
    s.push_str(&r.metrics.to_jsonl());
    s.push('\n');
    s.push_str(&r.events_jsonl());
    let _ = write!(s, "{:?}", r.phases);
    fnv1a64(s.as_bytes())
}

fn phased(dist: ServiceDist, rps: f64, ms: u64) -> WorkloadSpec {
    WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(dist)),
        arrivals: RateSchedule::Constant(rps),
        duration: SimDur::millis(ms),
        warmup: SimDur::millis(ms / 10),
    }
}

fn runtime_cell(mech: PreemptMech) -> RunReport {
    let cfg = RuntimeConfig {
        workers: 2,
        mech,
        seed: SEED,
        control_period: SimDur::millis(2),
        trace_capacity: 4096,
        ..RuntimeConfig::default()
    };
    let policy: Box<dyn SchedPolicy> = if mech == PreemptMech::None {
        Box::new(Fifo::new(SimDur::MAX))
    } else {
        Box::new(Fifo::new(SimDur::micros(10)))
    };
    run(
        cfg,
        policy,
        phased(ServiceDist::workload_a1(), 150_000.0, 10),
    )
}

/// The `fault_overload` geometry, shortened: 400 us requests on a
/// 20 us slice, half the IPIs dropped, a 0.8x/1.6x square wave and
/// SLO-aware admission, so the run degrades, retries and sheds.
fn fault_overload_cell() -> RunReport {
    let cfg = RuntimeConfig {
        workers: 4,
        seed: SEED,
        control_period: SimDur::millis(10),
        slo: Some(SimDur::micros(1_500)),
        trace_capacity: 4096,
        faults: FaultPlan::only(FaultKind::IpiDrop, 0.5),
        admission: AdmissionConfig {
            enabled: true,
            queue_cap: 256,
            brownout_cap: 64,
            slo_aware: true,
        },
        ..RuntimeConfig::default()
    };
    let spec = WorkloadSpec {
        arrivals: RateSchedule::Square {
            base_rps: 8_000.0,
            base_for: SimDur::millis(20),
            spike_rps: 16_000.0,
            spike_for: SimDur::millis(20),
        },
        ..phased(ServiceDist::Constant(SimDur::micros(400)), 0.0, 120)
    };
    run(cfg, Box::new(Fifo::new(SimDur::micros(20))), spec)
}

/// The fault matrix's kernel-timer geometry (400 us requests on a
/// 20 us slice, four workers) with half of the expiry signals lost,
/// so the watchdog re-sends preemptions the kernel timer dropped.
fn kernel_timer_signal_lost_cell() -> RunReport {
    let cfg = RuntimeConfig {
        workers: 4,
        mech: PreemptMech::KernelTimerSignal,
        seed: SEED,
        control_period: SimDur::millis(10),
        trace_capacity: 4096,
        faults: FaultPlan::only(FaultKind::SignalLost, 0.5),
        ..RuntimeConfig::default()
    };
    let spec = phased(ServiceDist::Constant(SimDur::micros(400)), 8_000.0, 60);
    run(cfg, Box::new(Fifo::new(SimDur::micros(20))), spec)
}

/// The kernel-timer geometry above with timer spikes, spurious timer
/// fires and lost expiry signals together: the watchdog arms at each
/// expiry's send while stale extra fires land on the same workers.
fn kernel_timer_faults_cell() -> RunReport {
    let cfg = RuntimeConfig {
        workers: 4,
        mech: PreemptMech::KernelTimerSignal,
        seed: SEED,
        control_period: SimDur::millis(10),
        trace_capacity: 4096,
        faults: FaultPlan {
            timer_spike: 0.2,
            timer_spurious: 0.2,
            signal_lost: 0.3,
            ..FaultPlan::default()
        },
        ..RuntimeConfig::default()
    };
    let spec = phased(ServiceDist::Constant(SimDur::micros(400)), 8_000.0, 60);
    run(cfg, Box::new(Fifo::new(SimDur::micros(20))), spec)
}

/// Four UINTR workers on constant 10.4 us tasks with a 5 us `Fifo`
/// slice at about 300 krps: the second slice's finish races its
/// deadline's landing, so a slice's `Finish` is pushed at dispatch,
/// pushed late by the sender, or never pushed because the landing
/// comes first. `faults` runs the same geometry with IPIs dropped.
fn finish_race_cell(faults: FaultPlan) -> RunReport {
    let cfg = RuntimeConfig {
        workers: 4,
        seed: SEED,
        control_period: SimDur::millis(10),
        trace_capacity: 4096,
        faults,
        ..RuntimeConfig::default()
    };
    let spec = phased(ServiceDist::Constant(SimDur::nanos(10_400)), 300_000.0, 60);
    run(cfg, Box::new(Fifo::new(SimDur::micros(5))), spec)
}

/// The colocation mix under Algorithm 1 with series and an SLO on.
fn colocated_cell() -> RunReport {
    let cfg = RuntimeConfig {
        workers: 1,
        seed: SEED,
        control_period: SimDur::millis(2),
        series_frame: Some(SimDur::millis(1)),
        slo: Some(SimDur::micros(50)),
        ..RuntimeConfig::default()
    };
    let mut adaptive = AdaptiveConfig::paper_defaults(60_000.0);
    adaptive.period = cfg.control_period;
    let ctl = QuantumController::new(adaptive, SimDur::micros(30));
    let spec = WorkloadSpec {
        source: ServiceSource::Colocated(ColocatedWorkload::paper_config()),
        ..phased(ServiceDist::workload_b(), 40_000.0, 20)
    };
    run(cfg, Box::new(AdaptiveQuantum::new(ctl)), spec)
}

/// The colocation mix on two workers under `policy`: the 100 us
/// best-effort chunks outrun every zoo slice, so each policy preempts.
fn policy_cell(policy: impl SchedPolicy + 'static) -> RunReport {
    let cfg = RuntimeConfig {
        workers: 2,
        seed: SEED,
        control_period: SimDur::millis(2),
        trace_capacity: 4096,
        ..RuntimeConfig::default()
    };
    let spec = WorkloadSpec {
        source: ServiceSource::Colocated(ColocatedWorkload::paper_config()),
        ..phased(ServiceDist::workload_b(), 80_000.0, 10)
    };
    run(cfg, Box::new(policy), spec)
}

fn shinjuku_cell(quantum: SimDur, trace_capacity: usize) -> RunReport {
    let cfg = ShinjukuConfig {
        workers: 3,
        quantum,
        seed: SEED,
        trace_capacity,
    };
    run_shinjuku(cfg, phased(ServiceDist::workload_a1(), 300_000.0, 10))
}

/// One cell of the pinned matrix: its name and the run it pins.
type Cell = (&'static str, fn() -> RunReport);

/// `(cell, FNV-1a-64 of every report field)` at [`SEED`].
const REPORT_PINS: [(&str, u64); 19] = [
    ("runtime/uintr", 0x0674_3612_7be7_4f45),
    ("runtime/timer_core_signal", 0xa5b3_8b10_a8e8_f746),
    ("runtime/kernel_timer_signal", 0xe772_5dd8_781c_2b1c),
    ("runtime/none", 0x8e2b_b0d1_06e6_323c),
    ("runtime/kernel_timer_signal_lost", 0x7c94_1f7b_e6c6_3ba0),
    ("runtime/kernel_timer_faults", 0xaf04_c738_ce3e_abd4),
    ("runtime/finish_races_landing", 0xf0b9_6c4c_1b34_146f),
    ("runtime/finish_races_lost_ipi", 0x3dc2_253a_1842_5147),
    ("libinger", 0xf47a_d5d9_c6ca_ca9c),
    ("fault_overload", 0x53ad_5714_c71e_ac6c),
    ("colocated", 0x4024_e805_eb16_dd92),
    ("policy/mlfq", 0x7c67_22a8_ba31_9a17),
    ("policy/edf", 0x2481_8cee_3669_d91f),
    ("policy/srpt", 0xa5b2_110c_8e73_86cb),
    ("policy/vruntime", 0x61b2_ab4b_bba4_3168),
    ("policy/class_quantum", 0x7798_b10c_d813_5de3),
    ("shinjuku/q5us", 0x5e02_f219_9b10_10ab),
    ("shinjuku/no_preemption", 0x4663_e658_07ef_ff0c),
    ("shinjuku/traced", 0x7fa3_92cf_02f2_6327),
];

#[test]
fn run_reports_are_pinned_across_commits() {
    let cells: [Cell; 19] = [
        ("runtime/uintr", || runtime_cell(PreemptMech::Uintr)),
        ("runtime/timer_core_signal", || {
            runtime_cell(PreemptMech::TimerCoreSignal)
        }),
        ("runtime/kernel_timer_signal", || {
            runtime_cell(PreemptMech::KernelTimerSignal)
        }),
        ("runtime/none", || runtime_cell(PreemptMech::None)),
        (
            "runtime/kernel_timer_signal_lost",
            kernel_timer_signal_lost_cell,
        ),
        ("runtime/kernel_timer_faults", kernel_timer_faults_cell),
        ("runtime/finish_races_landing", || {
            finish_race_cell(FaultPlan::default())
        }),
        ("runtime/finish_races_lost_ipi", || {
            finish_race_cell(FaultPlan::only(FaultKind::IpiDrop, 0.3))
        }),
        ("libinger", || {
            let cfg = LibingerConfig {
                workers: 2,
                quantum: SimDur::micros(60),
                seed: SEED,
            };
            run_libinger(
                cfg,
                phased(ServiceDist::Constant(SimDur::micros(300)), 4_000.0, 20),
            )
        }),
        ("fault_overload", fault_overload_cell),
        ("colocated", colocated_cell),
        ("policy/mlfq", || {
            policy_cell(Mlfq::new(SimDur::micros(5), 4))
        }),
        ("policy/edf", || {
            policy_cell(Edf::new(
                SimDur::micros(10),
                SimDur::micros(100),
                SimDur::millis(1),
            ))
        }),
        ("policy/srpt", || policy_cell(Srpt::new(SimDur::micros(10)))),
        ("policy/vruntime", || {
            policy_cell(Vruntime::new(SimDur::micros(10)))
        }),
        ("policy/class_quantum", || {
            policy_cell(ClassQuantum::new(SimDur::micros(10), SimDur::micros(20)))
        }),
        ("shinjuku/q5us", || shinjuku_cell(SimDur::micros(5), 0)),
        ("shinjuku/no_preemption", || shinjuku_cell(SimDur::MAX, 0)),
        ("shinjuku/traced", || shinjuku_cell(SimDur::micros(5), 4096)),
    ];
    let reports: Vec<(&str, RunReport)> = cells.iter().map(|(name, f)| (*name, f())).collect();
    // The matrix must exercise what it claims to pin.
    let by_name = |n: &str| &reports.iter().find(|(name, _)| *name == n).unwrap().1;
    assert!(
        by_name("fault_overload").metrics.counter("sheds") > 0,
        "no shed to pin"
    );
    assert!(
        by_name("colocated").slo_series.is_some(),
        "no SLO series to pin"
    );
    assert!(
        !by_name("shinjuku/traced").events.is_empty(),
        "no Shinjuku trace to pin"
    );
    assert!(
        by_name("runtime/kernel_timer_signal").preemptions > 0,
        "no kernel-timer preemption to pin"
    );
    assert!(
        by_name("runtime/kernel_timer_signal_lost")
            .metrics
            .counter("preempt_retries")
            > 0,
        "no lost-signal retry to pin"
    );
    let faults = by_name("runtime/kernel_timer_faults");
    assert!(
        faults.spurious_preemptions > 0,
        "no spurious kernel-timer fire to pin"
    );
    assert!(
        faults.metrics.counter("preempt_retries") > 0,
        "no kernel-timer retry to pin"
    );
    for name in [
        "policy/mlfq",
        "policy/edf",
        "policy/srpt",
        "policy/vruntime",
        "policy/class_quantum",
    ] {
        assert!(
            by_name(name).preemptions > 0,
            "{name}: no preemption to pin"
        );
    }
    for name in [
        "runtime/finish_races_landing",
        "runtime/finish_races_lost_ipi",
    ] {
        let r = by_name(name);
        assert!(r.preemptions > 0, "{name}: no preemption to pin");
        assert!(
            r.spurious_preemptions > 0,
            "{name}: no landing after its task finished"
        );
    }
    for (name, r) in &reports {
        assert!(r.is_conserved(), "{name}: not conserved");
    }
    let got: Vec<(&str, u64)> = reports
        .iter()
        .map(|(n, r)| (*n, report_digest(r)))
        .collect();
    assert_eq!(got, REPORT_PINS, "a pinned RunReport digest moved");
}
