//! The traced run: per-layer metrics.
//!
//! Spans are recorded around the calls this file makes into each
//! crate's public functions (nothing inside the simulator is
//! instrumented) and written to `perfbench/out/` as Chrome trace-event
//! JSON at exit. A `libpreemptible::run` call is one opaque span, so
//! its split across the layers below it is modelled: each layer's
//! operation count from the run's counters, times that layer's cost
//! from a microbenchmark, with the runtime itself as the residual.
//! On `quick_all` the artifact and per-system spans are measured
//! directly. `METRICS.md` defines every metric.

use std::collections::BTreeMap;
use std::time::Instant;

use libpreemptible::runtime::AdmissionConfig;
use libpreemptible::{FcfsPreempt, Fifo, RunReport, RuntimeConfig, ServiceSource};
use lp_experiments::common::{run_system, PaperWorkload, SystemUnderTest};
use lp_experiments::fig8::utilization_grid;
use lp_experiments::runner::{all_artifacts, run_artifacts, with_jobs};
use lp_experiments::Scale;
use lp_sim::fault::{FaultKind, FaultPlan};
use lp_sim::obs::{Phase, PhaseStats};
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule};

use crate::checks::{self, Ops};
use crate::e2e::{jobs, sim_once, Tail};
use crate::micro;
use crate::spans::Recorder;
use crate::stats::{event_count, median, ratio, with_first, Share};
use crate::workloads::{Case, SimInput, Workload, FIG8_POINT_RHO, FIG8_POINT_WORKLOAD};
use crate::Outcome;

/// Interleaved pairs per ablation.
const PAIRS: usize = 32;
/// Ablation arms simulate this fraction of the workload's duration:
/// short arms put the two runs of a pair close together in time, so
/// slow drifts in host speed cancel within the pair.
const ABLATION_SHORTEN: u32 = 10;
/// Simulated length of the trace-export run.
const EXPORT_RUN: SimDur = SimDur::millis(20);

/// Runs the traced benchmark of `w`.
pub fn run(w: Workload, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();

    rec.next_run();
    let (_, replay_s) = rec.span("chaos.replay", |_| checks::replay_corpus(&mut out.ops));
    out.set("chaos.replay_s", replay_s);

    // One round of sub-seeds, each run traced and untraced, in
    // alternating order.
    let cases: Vec<Case> = (0..w.subseeds()).map(|k| w.case(seed, k)).collect();
    let mut digests = BTreeMap::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut tail = Tail::default();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut phases = PhaseStats::default();
    for (k, case) in cases.iter().enumerate() {
        let k = k as u64;
        for traced_arm in [with_first(k as usize), !with_first(k as usize)] {
            if traced_arm {
                rec.next_run();
                let (r, secs) = rec.span("runtime.run", |_| {
                    sim_once(case, k, &mut digests, &mut out.ops)
                });
                traced.push(secs);
                tail.add(&r, case.slo_us());
                for &(name, v) in &r.metrics.counters {
                    *counters.entry(name).or_insert(0) += v;
                }
                phases.merge(&r.phases);
            } else {
                let t = Instant::now();
                sim_once(case, k, &mut digests, &mut out.ops);
                untraced.push(t.elapsed().as_secs_f64());
            }
        }
    }
    let wall = median(&untraced).unwrap_or(0.0);
    let wall_traced = median(&traced).unwrap_or(0.0);
    out.set("trace.overhead_share", ratio(wall_traced - wall, wall));
    let host_secs: f64 = untraced.iter().sum();
    let c = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let sims = cases.len() as f64;

    out.set(
        "engine.deadline_cancel_ratio",
        ratio(c("deadlines_disarmed"), c("deadlines_armed")),
    );
    let events = event_count(counters.iter().map(|(&n, &v)| (n, v))) as f64;
    out.set("obs.events", events);
    out.set("obs.events_per_s", ratio(events, host_secs));
    out.set("runtime.req_per_s", ratio(c("task_finishes"), host_secs));
    out.set("runtime.preempts_per_s", ratio(c("preemptions"), host_secs));
    out.set(
        "runtime.landed_ratio",
        ratio(c("preempts_landed"), c("preempts_issued")),
    );
    out.set(
        "retry.retries_per_landed",
        ratio(c("preempt_retries"), c("preempts_landed")),
    );
    out.set("retry.degradations", c("mech_degradations"));
    out.set("retry.brownouts", c("mech_brownouts"));
    out.set("admission.shed_ratio", ratio(c("sheds"), c("arrivals")));
    for (name, phase) in [
        ("sim.queued_p99_us", Phase::Queued),
        ("sim.preempt_switch_p99_us", Phase::PreemptSwitch),
        ("sim.retry_stall_p99_us", Phase::RetryStall),
        ("sim.degraded_signal_p99_us", Phase::DegradedSignal),
        ("sim.brownout_held_p99_us", Phase::BrownoutHeld),
    ] {
        out.set(name, phases.per_phase[phase as usize].p99_ns() as f64 / 1e3);
    }

    // Microbenchmarks, sized to the workload.
    let (arrivals, service, population) = load_shape(&cases[0]);
    let push_pop = rec
        .span("micro.engine.push_pop", |_| {
            micro::push_pop_per_s(population)
        })
        .0;
    let rearm = rec.span("micro.engine.rearm", |_| micro::rearm_per_s()).0;
    let senduipi = rec.span("micro.hw.senduipi", |_| micro::senduipi_per_s()).0;
    let signal = rec
        .span("micro.kernel.deliver", |_| micro::signal_per_s(seed))
        .0;
    let draw = rec
        .span("micro.workload.draw", |_| {
            micro::draw_ns(&arrivals, &service, seed)
        })
        .0;
    let (lo, hi) = (tail.latency.median() / 2, tail.latency.p99().max(1) * 2);
    let record = rec
        .span("micro.stats.record", |_| {
            micro::record_ns(lo, hi.max(lo + 1))
        })
        .0;
    out.set("engine.push_pop_per_s", push_pop);
    out.set("engine.rearm_per_s", rearm);
    out.set("hw.senduipi_per_s", senduipi);
    out.set("kernel.signal_per_s", signal);
    out.set("workload.draw_ns", draw);
    out.set("stats.record_ns", record);

    // Ablations and the trace export need a configurable runtime.
    let mut attr = Share::NONE;
    if let Case::Runtime(base) = &cases[0] {
        let inputs: Vec<&SimInput> = cases
            .iter()
            .map(|c| match c {
                Case::Runtime(i) => i.as_ref(),
                Case::Fig8Point { .. } => unreachable!("one workload has one case kind"),
            })
            .collect();
        attr = ablation(&mut rec, &mut out.ops, "attr", &inputs, |i, with| {
            i.run_with(
                RuntimeConfig {
                    attribution: with,
                    ..i.cfg.clone()
                },
                Box::new(Fifo::new(i.slice)),
            )
        });
        let adapter = ablation(&mut rec, &mut out.ops, "adapter", &inputs, |i, with| {
            if with {
                i.run_with(i.cfg.clone(), Box::new(FcfsPreempt::fixed(i.slice)))
            } else {
                i.run()
            }
        });
        set_share(&mut out, "sched.adapter", adapter);
        if !base.cfg.admission.enabled {
            let idle = AdmissionConfig {
                enabled: true,
                queue_cap: usize::MAX,
                brownout_cap: usize::MAX,
                slo_aware: false,
            };
            let s = ablation(&mut rec, &mut out.ops, "admission", &inputs, |i, with| {
                let admission = if with {
                    idle.clone()
                } else {
                    i.cfg.admission.clone()
                };
                i.run_with(
                    RuntimeConfig {
                        admission,
                        ..i.cfg.clone()
                    },
                    Box::new(Fifo::new(i.slice)),
                )
            });
            set_share(&mut out, "runtime.admission", s);
        }
        if !base.cfg.faults.enabled() {
            let s = ablation(&mut rec, &mut out.ops, "watchdog", &inputs, |i, with| {
                let faults = if with {
                    FaultPlan::once(FaultKind::IpiDrop, u64::MAX)
                } else {
                    FaultPlan::disabled()
                };
                i.run_with(
                    RuntimeConfig {
                        faults,
                        ..i.cfg.clone()
                    },
                    Box::new(Fifo::new(i.slice)),
                )
            });
            set_share(&mut out, "runtime.watchdog", s);
        }
        let export_s = trace_export(&mut rec, &mut out.ops, base);
        out.set("obs.trace_export_s", export_s);
    }
    set_share(&mut out, "obs.attr", attr);

    // Modelled split of one simulation's host time (see module docs).
    let per_sim = |name: &str| c(name) / sims;
    let workload_s = per_sim("arrivals") * draw * 1e-9;
    let stats_s = 2.0 * tail.latency.count() as f64 / sims * record * 1e-9;
    let split = [
        (
            "self.engine_s",
            ratio(
                2.0 * per_sim("arrivals")
                    + per_sim("task_starts")
                    + per_sim("task_finishes")
                    + per_sim("preempts_issued")
                    + per_sim("timer_polls"),
                push_pop,
            ) + ratio(per_sim("preemptions") + per_sim("timer_polls"), rearm),
        ),
        ("self.hw_s", ratio(per_sim("uipi_sent"), senduipi)),
        ("self.kernel_s", ratio(per_sim("signals_sent"), signal)),
        ("self.workload_s", workload_s),
        ("self.stats_s", stats_s),
        ("self.obs_attr_s", attr.median * wall),
    ];
    let mut modelled = 0.0;
    for (name, secs) in split {
        out.set(name, secs);
        modelled += secs;
    }
    out.set("self.runtime_s", wall - modelled);
    out.set("workload.share", ratio(workload_s, wall));
    out.set("stats.share", ratio(stats_s, wall));

    if w == Workload::QuickAll {
        quick_all_layers(&mut rec, &mut out, seed);
    }

    write_trace(&rec, w, seed);
    out
}

/// The workload's arrival schedule, service distribution, and live
/// event population (the bound the runtime pre-sizes its event queue
/// to: 64 + 4 per worker + 100 us of peak arrivals).
fn load_shape(case: &Case) -> (RateSchedule, PhasedService, usize) {
    let (arrivals, service, workers) = match case {
        Case::Runtime(i) => {
            let service = match &i.spec.source {
                ServiceSource::Phased(p) => p.clone(),
                ServiceSource::Colocated(_) => unreachable!("benchmark workloads are phased"),
            };
            (i.spec.arrivals.clone(), service, i.cfg.workers)
        }
        Case::Fig8Point { .. } => {
            let (sys, wl) = (SystemUnderTest::LibPreemptible, FIG8_POINT_WORKLOAD);
            let rate = wl.rate_for(FIG8_POINT_RHO, sys.workers());
            (
                RateSchedule::Constant(rate),
                wl.service(Scale::Quick.point_duration()),
                sys.workers(),
            )
        }
    };
    let population = 64 + 4 * workers + (arrivals.peak_rate() * 1e-4) as usize;
    (arrivals, service, population)
}

/// Runs `PAIRS` interleaved pairs of `arm(input, with)` in ABBA order,
/// cycling through the sub-seeds at a shortened duration, and checks
/// that the two arms of each pair simulate the same system. Each arm
/// is one operation.
fn ablation(
    rec: &mut Recorder,
    ops: &mut Ops,
    name: &str,
    inputs: &[&SimInput],
    arm: impl Fn(&SimInput, bool) -> RunReport,
) -> Share {
    let shortened: Vec<SimInput> = inputs
        .iter()
        .map(|i| i.shortened(ABLATION_SHORTEN))
        .collect();
    let mut pairs = Vec::new();
    for i in 0..PAIRS {
        let input = &shortened[i % shortened.len()];
        rec.next_run();
        let run_arm = |rec: &mut Recorder, with: bool| {
            let label = format!("ablation.{name}.{}", if with { "with" } else { "without" });
            rec.span(&label, |_| arm(input, with))
        };
        let ((with_r, with_s), (without_r, without_s)) = if with_first(i) {
            let a = run_arm(rec, true);
            (a, run_arm(rec, false))
        } else {
            let b = run_arm(rec, false);
            (run_arm(rec, true), b)
        };
        let fails = checks::ablation_failures(&with_r, &without_r);
        ops.record(&format!("ablation {name} pair {i} (with)"), &fails);
        ops.record(&format!("ablation {name} pair {i} (without)"), &fails);
        pairs.push((with_s, without_s));
    }
    Share::from_pairs(&pairs)
}

fn set_share(out: &mut Outcome, prefix: &str, s: Share) {
    out.set(&format!("{prefix}_share"), s.median);
    out.set(&format!("{prefix}_share_q1"), s.q1);
    out.set(&format!("{prefix}_share_q3"), s.q3);
    out.set(&format!("{prefix}_pairs"), s.pairs as f64);
}

/// Host seconds to export a short run's full trace as JSONL and as
/// Perfetto JSON, on an event ring sized to hold every event.
fn trace_export(rec: &mut Recorder, ops: &mut Ops, base: &SimInput) -> f64 {
    let mut short = base.shortened((base.spec.duration.as_nanos() / EXPORT_RUN.as_nanos()) as u32);
    rec.next_run();
    let sizing = short.run();
    ops.record("trace export sizing", &checks::report_failures(&sizing));
    // Every emitted event bumps at least one counter, so the event
    // count bounds the ring size from above.
    short.cfg.trace_capacity = event_count(sizing.metrics.counters.iter().copied()) as usize + 1;
    let r = rec.span("runtime.run", |_| short.run()).0;
    let mut fails = checks::report_failures(&r);
    if r.events_dropped != 0 || r.events.is_empty() {
        fails.push(format!("trace ring dropped {} events", r.events_dropped));
    }
    let ((jsonl, perfetto), secs) = rec.span("obs.trace_export", |_| {
        (r.events_jsonl(), r.perfetto_json())
    });
    if jsonl.lines().count() != r.events.len() || !perfetto.starts_with('{') {
        fails.push("trace export is malformed".into());
    }
    ops.record("trace export", &fails);
    secs
}

/// `quick_all`'s measured layers: serial per-artifact spans, the
/// parallel runner, and the Fig. 8 grid split by system.
fn quick_all_layers(rec: &mut Recorder, out: &mut Outcome, seed: u64) {
    let artifacts = all_artifacts();
    let mut parallel = Vec::new();
    let mut parallel_run = |rec: &mut Recorder| {
        rec.next_run();
        let (outputs, secs) = rec.span("quick_all.parallel", |_| {
            with_jobs(jobs(), || run_artifacts(&artifacts, Scale::Quick, seed))
        });
        parallel.push(secs);
        checks::artifacts_digest(&outputs)
    };
    let first = parallel_run(rec);

    // The serial reference, one span per artifact.
    rec.next_run();
    let (serial_outputs, serial_s) = rec.span("quick_all.serial", |rec| {
        with_jobs(1, || {
            artifacts
                .iter()
                .map(|a| {
                    (
                        a.name,
                        rec.span(&format!("artifact.{}", a.name), |_| {
                            a.run(Scale::Quick, seed)
                        })
                        .0,
                    )
                })
                .collect::<Vec<_>>()
        })
    });
    let reference = checks::artifacts_digest(&serial_outputs);
    let second = parallel_run(rec);
    for (i, d) in [first, second].into_iter().enumerate() {
        out.ops.record(
            &format!("quick_all parallel {i} vs serial"),
            &checks::digest_failure(reference, d),
        );
    }
    out.ops.record("quick_all serial", &[]);

    let selfs = rec.self_times();
    let mut artifact_total = 0.0;
    for a in &artifacts {
        let s = selfs
            .get(&format!("artifact.{}", a.name))
            .copied()
            .unwrap_or(0.0);
        out.set(&format!("experiments.{}_s", a.name), s);
        artifact_total += s;
    }
    out.set("experiments.residual_s", serial_s - artifact_total);
    let par = median(&parallel).unwrap_or(0.0);
    let speedup = ratio(artifact_total, par);
    out.set("par.speedup", speedup);
    out.set("par.efficiency", speedup / jobs() as f64);

    // The quick Fig. 8 grids (sweep and max-throughput), one span per
    // `run_system` call, named by system.
    let mut points = Vec::new();
    for wl in PaperWorkload::ALL {
        for sys in SystemUnderTest::ALL {
            let capacity = wl.rate_for(1.0, sys.workers());
            points.push((wl, sys, 0.1 * capacity));
            // Fig. 8 runs each grid rate twice: once for the sweep and
            // once for the max-throughput search.
            for &rho in &utilization_grid(Scale::Quick) {
                points.push((wl, sys, rho * capacity));
                points.push((wl, sys, rho * capacity));
            }
        }
    }
    rec.next_run();
    let mut per_system: BTreeMap<&'static str, f64> = BTreeMap::new();
    rec.span("fig8.grid", |rec| {
        for &(wl, sys, rate) in &points {
            let (r, secs) = rec.span(&format!("fig8.{}", sys.name()), |_| {
                run_system(sys, wl, rate, Scale::Quick, seed)
            });
            out.ops.record(
                &format!("fig8 {} {} {rate:.0}", sys.name(), wl.name()),
                &checks::report_failures(&r),
            );
            *per_system.entry(sys.name()).or_insert(0.0) += secs;
        }
    });
    let sys_s = |s: SystemUnderTest| per_system.get(s.name()).copied().unwrap_or(0.0);
    out.set(
        "baselines.shinjuku_share",
        ratio(sys_s(SystemUnderTest::Shinjuku), serial_s),
    );
    out.set(
        "baselines.libinger_share",
        ratio(sys_s(SystemUnderTest::Libinger), serial_s),
    );
    out.set(
        "runtime.fig8_share",
        ratio(
            sys_s(SystemUnderTest::LibPreemptible) + sys_s(SystemUnderTest::LibPreemptibleNoUintr),
            serial_s,
        ),
    );
}

/// Writes the spans to `perfbench/out/trace-<workload>-<seed>.json`.
fn write_trace(rec: &Recorder, w: Workload, seed: u64) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{}-{seed}.json", w.name()));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, rec.chrome_json())) {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), rec.spans().len()),
        Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
    }
}
