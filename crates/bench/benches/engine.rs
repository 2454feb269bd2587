//! Microbenchmarks of the substrate paths no other harness measures:
//! stale cancels, wheel cascades and bucket collisions, observer
//! emission, workload sampling and trace parsing. Event-queue
//! push/pop and re-arm throughput, histogram recording, trace export
//! and end-to-end runtime throughput are the benchmark's
//! (`perfbench/METRICS.md`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use lp_sim::obs::{Event, Observer, TimedEvent};
use lp_sim::{EventQueue, SimTime};
use lp_workload::{ServiceDist, Zipf};
use rand::Rng;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    // Cancel-after-fire: the deadline already popped; the completion
    // path still calls cancel on the stale id. Must be an O(1) no-op
    // and must not grow any internal state (regression-tested in
    // lp-sim; measured here).
    g.bench_function("fire_then_cancel_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(8);
            q.push(SimTime::from_nanos(u64::MAX), 0u64);
            for i in 0..10_000u64 {
                let id = q.push(SimTime::from_nanos(i), 1);
                let fired = q.pop().expect("armed deadline");
                black_box(fired);
                q.cancel(id); // stale: the event already fired
            }
            black_box(q.live_len())
        })
    });
    g.finish();
}

fn bench_wheel(c: &mut Criterion) {
    // Cascade stress: deadlines scattered across every wheel level and
    // the overflow heap, so draining exercises level rollover, bucket
    // refiling, and heap migration — the paths a heap-only queue never
    // had.
    let mut g = c.benchmark_group("wheel_cascade");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("all_levels_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            let mut r = lp_sim::rng::rng(6, 0);
            for i in 0..10_000u64 {
                // Log-uniform-ish spread: every level of the 2^40 ns
                // horizon gets traffic, plus ~3% overflow residents.
                let t = r.gen_range(0..1u64 << 41) >> r.gen_range(0..30);
                q.push(SimTime::from_nanos(t), i);
            }
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    // A long march of evenly spaced deadlines: every pop advances the
    // cursor across slot (and periodically level-window) boundaries, so
    // this isolates steady cascade cost rather than bucket drain cost.
    g.bench_function("rollover_march_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for i in 0..10_000u64 {
                q.push(SimTime::from_nanos(i * 4_096), i);
            }
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    g.finish();

    // Collision stress: many events landing in one bucket. Drain order
    // within a bucket must still follow (time, seq), so these measure
    // the intrusive-list walk and the cached-minimum recompute under
    // worst-case occupancy skew.
    let mut g = c.benchmark_group("bucket_collision");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("same_tick_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for i in 0..10_000u64 {
                q.push(SimTime::from_nanos(777), i);
            }
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    g.bench_function("one_window_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            let mut r = lp_sim::rng::rng(7, 0);
            for i in 0..10_000u64 {
                // All inside one level-2 window (one bucket from the
                // cursor's viewpoint); pops cascade it down through
                // level 1 into level 0.
                q.push(SimTime::from_nanos(r.gen_range(4_096..8_192)), i);
            }
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("zipf_100k", |b| {
        let z = Zipf::new(1_000_000, 0.99);
        let mut r = lp_sim::rng::rng(3, 0);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(z.sample(&mut r));
            }
            black_box(acc)
        })
    });
    g.bench_function("bimodal_100k", |b| {
        let d = ServiceDist::workload_a1();
        let mut r = lp_sim::rng::rng(4, 0);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(d.sample(&mut r).as_nanos());
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_tracing(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracing");
    g.throughput(Throughput::Elements(100_000));
    // The typed ring (hot-path emission: counter bump + Copy store).
    g.bench_function("typed_ring_emit_100k", |b| {
        let mut obs = Observer::new(4_096);
        b.iter(|| {
            for i in 0..100_000u64 {
                obs.emit(
                    SimTime::from_nanos(i),
                    Event::Preempt {
                        worker: (i % 8) as u16,
                        fiber: i as u32,
                        ran_ns: 10_000,
                    },
                );
            }
            black_box(obs.metrics().snapshot().counters.len())
        })
    });
    // Counters only — the always-on production configuration.
    g.bench_function("counters_only_emit_100k", |b| {
        let mut obs = Observer::counters_only();
        b.iter(|| {
            for i in 0..100_000u64 {
                obs.emit(
                    SimTime::from_nanos(i),
                    Event::Preempt {
                        worker: (i % 8) as u16,
                        fiber: i as u32,
                        ran_ns: 10_000,
                    },
                );
            }
            black_box(obs.metrics().snapshot().counters.len())
        })
    });
    g.finish();

    let mut g = c.benchmark_group("trace_export");
    g.throughput(Throughput::Elements(4_096));
    g.bench_function("parse_4k_lines", |b| {
        let mut obs = Observer::new(4_096);
        for i in 0..4_096u64 {
            obs.emit(
                SimTime::from_nanos(i * 100),
                Event::TaskFinish {
                    worker: (i % 8) as u16,
                    fiber: i as u32,
                    latency_ns: 5_000,
                },
            );
        }
        let text = obs.to_jsonl();
        b.iter(|| {
            let n = text.lines().filter_map(TimedEvent::parse_jsonl).count();
            black_box(n)
        })
    });
    g.finish();
}

criterion_group!(
    engine,
    bench_event_queue,
    bench_wheel,
    bench_workload,
    bench_tracing
);
criterion_main!(engine);
