//! Microbenchmarks of the substrate itself: event-queue throughput,
//! histogram recording, workload sampling, and end-to-end simulated
//! events/second — the numbers that bound how big a paper-scale run
//! can be.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use libpreemptible::{run, Fifo, RuntimeConfig, ServiceSource, WorkloadSpec};
use lp_sim::obs::{Event, Observer, TimedEvent};
use lp_sim::{EventQueue, SimDur, SimTime};
use lp_stats::Histogram;
use lp_workload::{PhasedService, RateSchedule, ServiceDist, Zipf};
use rand::Rng;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut r = lp_sim::rng::rng(1, 0);
            for i in 0..10_000u64 {
                q.push(SimTime::from_nanos(r.gen_range(0..1_000_000)), i);
            }
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    // The LibUtimer arming pattern: every task start arms a preemption
    // deadline, most tasks complete before it fires, so the hot loop is
    // push → cancel → re-arm. With tombstones this left a dead entry in
    // the heap per iteration; generation-tagged slots make cancel O(1)
    // and keep the heap at O(live).
    g.bench_function("arm_cancel_rearm_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(64);
            let mut r = lp_sim::rng::rng(5, 0);
            // Background events keep the heap non-trivial.
            for i in 0..32u64 {
                q.push(SimTime::from_nanos(1_000_000_000 + i), i);
            }
            let mut now = 0u64;
            let mut armed = q.push(SimTime::from_nanos(now + 100), u64::MAX);
            for _ in 0..10_000 {
                q.cancel(armed);
                now += r.gen_range(1..100);
                armed = q.push(SimTime::from_nanos(now + 100), u64::MAX);
            }
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
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

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("histogram");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("record_100k", |b| {
        b.iter(|| {
            let mut h = Histogram::new();
            let mut r = lp_sim::rng::rng(2, 0);
            for _ in 0..100_000 {
                h.record(r.gen_range(1..10_000_000));
            }
            black_box(h.p99())
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
                    Event::Preempt { worker: (i % 8) as u16, fiber: i as u32, ran_ns: 10_000 },
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
                    Event::Preempt { worker: (i % 8) as u16, fiber: i as u32, ran_ns: 10_000 },
                );
            }
            black_box(obs.metrics().snapshot().counters.len())
        })
    });
    g.finish();

    let mut g = c.benchmark_group("trace_export");
    g.throughput(Throughput::Elements(4_096));
    g.bench_function("jsonl_4k_events", |b| {
        let mut obs = Observer::new(4_096);
        for i in 0..4_096u64 {
            obs.emit(
                SimTime::from_nanos(i * 100),
                Event::UipiSent { worker: (i % 8) as u16, vector: 0 },
            );
        }
        b.iter(|| black_box(obs.to_jsonl().len()))
    });
    g.bench_function("parse_4k_lines", |b| {
        let mut obs = Observer::new(4_096);
        for i in 0..4_096u64 {
            obs.emit(
                SimTime::from_nanos(i * 100),
                Event::TaskFinish { worker: (i % 8) as u16, fiber: i as u32, latency_ns: 5_000 },
            );
        }
        let text = obs.to_jsonl();
        b.iter(|| {
            let n = text
                .lines()
                .filter_map(TimedEvent::parse_jsonl)
                .count();
            black_box(n)
        })
    });
    g.finish();
}

fn bench_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime");
    g.sample_size(10);
    // ~10k requests with preemptions: reports simulated-requests/sec.
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("a1_10k_requests", |b| {
        b.iter(|| {
            let dist = ServiceDist::workload_a1();
            let rate = dist.rate_for_utilization(0.8, 4);
            let duration = SimDur::from_secs_f64(10_000.0 / rate);
            let r = run(
                RuntimeConfig::default(),
                Box::new(Fifo::new(SimDur::micros(5))),
                WorkloadSpec {
                    source: ServiceSource::Phased(PhasedService::constant(dist)),
                    arrivals: RateSchedule::Constant(rate),
                    duration,
                    warmup: SimDur::ZERO,
                },
            );
            black_box(r.completions)
        })
    });
    g.finish();
}

criterion_group!(
    engine,
    bench_event_queue,
    bench_wheel,
    bench_histogram,
    bench_workload,
    bench_tracing,
    bench_runtime
);
criterion_main!(engine);
