//! Criterion benches: one group per paper table/figure, each running
//! the corresponding experiment at quick scale. `cargo bench -p
//! lp-bench --bench paper` both times the harness and prints the
//! regenerated rows once per artifact (via eprintln at setup).
//!
//! The paper-scale numbers come from the experiment binaries
//! (`cargo run --release -p lp-experiments --bin all`); these benches
//! exist so the whole evaluation is exercised under `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lp_experiments::common::Scale;
use lp_experiments::*;

const SEED: u64 = 2024;

fn bench_table1(c: &mut Criterion) {
    eprintln!("{}", table1::run().render());
    c.bench_function("table1_oversubscription", |b| {
        b.iter(|| black_box(table1::run().render().len()))
    });
}

fn bench_fig1(c: &mut Criterion) {
    let (tl, tr) = fig1::tables(&fig1::run_left(Scale::Quick), &fig1::run_right(Scale::Quick));
    eprintln!("{}", tl.render());
    eprintln!("{}", tr.render());
    let mut g = c.benchmark_group("fig1");
    g.sample_size(10);
    g.bench_function("left_ipc_gap", |b| {
        b.iter(|| black_box(fig1::run_left(Scale::Quick).len()))
    });
    g.finish();
}

fn bench_fig2(c: &mut Criterion) {
    eprintln!("{}", fig2::table(&fig2::run_fig2(Scale::Quick, SEED)).render());
    let mut g = c.benchmark_group("fig2");
    g.sample_size(10);
    g.bench_function("quantum_sweep", |b| {
        b.iter(|| black_box(fig2::run_fig2(Scale::Quick, SEED).len()))
    });
    g.finish();
}

fn bench_fig8(c: &mut Criterion) {
    let (pts, rows) = fig8::fig8(Scale::Quick, SEED);
    eprintln!("{}", fig8::sweep_table(&pts).render());
    eprintln!("{}", fig8::max_table(&rows).render());
    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    // One representative point per system rather than the whole sweep.
    for sys in SystemUnderTest::ALL {
        g.bench_function(&format!("A1_rho0.8/{}", sys.name()), |b| {
            b.iter(|| {
                let rate = PaperWorkload::A1.rate_for(0.8, sys.workers());
                let r = common::run_system(sys, PaperWorkload::A1, rate, Scale::Quick, SEED);
                black_box(r.latency.p99())
            })
        });
    }
    g.finish();
}

fn bench_fig9(c: &mut Criterion) {
    let rows = fig9::run_fig9(Scale::Quick, SEED);
    eprintln!("{}", fig9::table(&rows).render());
    let mut g = c.benchmark_group("fig9");
    g.sample_size(10);
    g.bench_function("adaptive_workload_c", |b| {
        b.iter(|| black_box(fig9::run_fig9(Scale::Quick, SEED).len()))
    });
    g.finish();
}

fn bench_fig10(c: &mut Criterion) {
    let pts = fig10::run_fig10(Scale::Quick, SEED);
    eprintln!("{}", fig10::table(&pts).render());
    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    g.bench_function("rpc_overhead_grid", |b| {
        b.iter(|| black_box(fig10::run_fig10(Scale::Quick, SEED).len()))
    });
    g.finish();
}

fn bench_table4(c: &mut Criterion) {
    let rows = table4::run(Scale::Quick);
    eprintln!("{}", table4::table(&rows).render());
    let mut g = c.benchmark_group("table4");
    g.bench_function("ipc_pingpong", |b| {
        b.iter(|| black_box(table4::run(Scale::Quick).len()))
    });
    g.finish();
}

fn bench_fig11(c: &mut Criterion) {
    let cells = fig11::run_fig11(Scale::Quick, SEED);
    eprintln!("{}", fig11::table(&cells).render());
    let mut g = c.benchmark_group("fig11");
    g.sample_size(10);
    g.bench_function("timer_scalability", |b| {
        b.iter(|| black_box(fig11::run_fig11(Scale::Quick, SEED).len()))
    });
    g.finish();
}

fn bench_fig12(c: &mut Criterion) {
    let rows = fig12::run_fig12(Scale::Quick, SEED);
    eprintln!("{}", fig12::table(&rows).render());
    let mut g = c.benchmark_group("fig12");
    g.bench_function("timer_precision", |b| {
        b.iter(|| black_box(fig12::run_fig12(Scale::Quick, SEED).len()))
    });
    g.finish();
}

fn bench_fig13(c: &mut Criterion) {
    let left = fig13::run_left(Scale::Quick, SEED);
    eprintln!("{}", fig13::table(&left, "Fig 13 (left)").render());
    let right = fig13::run_right(Scale::Quick, SEED);
    eprintln!("{}", fig13::table(&right, "Fig 13 (right)").render());
    let mut g = c.benchmark_group("fig13");
    g.sample_size(10);
    g.bench_function("colocation_left", |b| {
        b.iter(|| black_box(fig13::run_left(Scale::Quick, SEED).len()))
    });
    g.finish();
}

fn bench_fig14(c: &mut Criterion) {
    let rows = fig14::run_fig14(Scale::Quick, SEED);
    eprintln!("{}", fig14::table(&rows).render());
    let mut g = c.benchmark_group("fig14");
    g.sample_size(10);
    g.bench_function("bursty_adaptive", |b| {
        b.iter(|| black_box(fig14::run_fig14(Scale::Quick, SEED).len()))
    });
    g.finish();
}

fn bench_ext(c: &mut Criterion) {
    eprintln!("{}", ext::power_table().render());
    eprintln!("{}", ext::security_table().render());
    eprintln!(
        "{}",
        ext::min_quantum_table(&ext::run_min_quantum(Scale::Quick, SEED)).render()
    );
    let mut g = c.benchmark_group("ext");
    g.sample_size(10);
    g.bench_function("min_quantum_sweep", |b| {
        b.iter(|| black_box(ext::run_min_quantum(Scale::Quick, SEED).len()))
    });
    g.finish();
}

criterion_group!(
    paper,
    bench_table1,
    bench_fig1,
    bench_fig2,
    bench_fig8,
    bench_fig9,
    bench_fig10,
    bench_table4,
    bench_fig11,
    bench_fig12,
    bench_fig13,
    bench_fig14,
    bench_ext,
);
criterion_main!(paper);
