//! Microbenchmarks of single layers, called through each crate's
//! public API: the per-operation costs the traced run multiplies by
//! a workload's operation counts.
//!
//! Each measurement takes [`SAMPLES`] timed batches after one warm-up
//! batch and reports the median batch.

use std::hint::black_box;
use std::time::Instant;

use lp_hw::uintr::{ReceiverState, UintrDomain, Uitt};
use lp_kernel::{KernelCosts, SignalPath};
use lp_sim::rng::{rng, streams};
use lp_sim::{EventQueue, SimDur, SimTime};
use lp_stats::Histogram;
use lp_workload::{ArrivalGen, PhasedService, RateSchedule};

use crate::stats::median;

/// Timed batches per measurement.
const SAMPLES: usize = 15;

/// Deterministic scatter of `i` over `[0, span)`.
fn scatter(i: u64, span: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) % span.max(1)
}

/// Median seconds per operation of `batch`, which performs `ops`
/// operations per call.
fn per_op(ops: u64, mut batch: impl FnMut() -> u64) -> f64 {
    black_box(batch());
    let times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            black_box(batch());
            t.elapsed().as_secs_f64() / ops as f64
        })
        .collect();
    median(&times).expect("SAMPLES > 0")
}

/// Event-queue hold cycles per second at a steady live population of
/// `population` events: pop the earliest, push one a scattered delay
/// later.
pub fn push_pop_per_s(population: usize) -> f64 {
    const OPS: u64 = 200_000;
    let secs = per_op(OPS, || {
        let mut q = EventQueue::with_capacity(population);
        for i in 0..population as u64 {
            q.push(SimTime::from_nanos(scatter(i, 100_000)), i);
        }
        let mut last = 0;
        for i in 0..OPS {
            let (t, ev) = q.pop().expect("population > 0");
            last = ev;
            q.push(t + SimDur::nanos(1 + scatter(i, 100_000)), i);
        }
        last
    });
    1.0 / secs
}

/// Deadline arm/cancel/re-arm cycles per second, the LibUtimer
/// pattern, over a resident population of 32 far-future events.
pub fn rearm_per_s() -> f64 {
    const OPS: u64 = 200_000;
    let secs = per_op(OPS, || {
        let mut q = EventQueue::with_capacity(64);
        for i in 0..32u64 {
            q.push(SimTime::from_nanos(1_000_000_000 + i), i);
        }
        let mut now = 0u64;
        let mut armed = q.push(SimTime::from_nanos(now + 100), u64::MAX);
        for i in 0..OPS {
            q.cancel(armed);
            now += 1 + scatter(i, 99);
            armed = q.push(SimTime::from_nanos(now + 100), u64::MAX);
        }
        now
    });
    1.0 / secs
}

/// `senduipi` + `acknowledge` round trips per second across four
/// registered receivers.
pub fn senduipi_per_s() -> f64 {
    const OPS: u64 = 200_000;
    let mut dom = UintrDomain::new();
    let mut uitt = Uitt::new();
    let receivers: Vec<_> = (0..4).map(|_| dom.register_receiver()).collect();
    let slots: Vec<usize> = receivers.iter().map(|&h| uitt.register(h, 0)).collect();
    let entries: Vec<_> = slots
        .iter()
        .map(|&i| uitt.get(i).expect("just registered"))
        .collect();
    let secs = per_op(OPS, || {
        let mut acc = 0u64;
        for i in 0..OPS as usize {
            let w = i & 3;
            let _ = black_box(dom.senduipi(entries[w], ReceiverState::RunningUifSet));
            acc = acc.wrapping_add(dom.acknowledge(receivers[w]).unwrap_or(0));
        }
        acc
    });
    1.0 / secs
}

/// Kernel signal deliveries per second on an uncontended path (sends
/// 20 us apart, so the lock is free for each).
pub fn signal_per_s(seed: u64) -> f64 {
    const OPS: u64 = 100_000;
    let secs = per_op(OPS, || {
        let mut path = SignalPath::new(KernelCosts::default(), rng(seed, streams::KERNEL_JITTER));
        let mut acc = 0u64;
        for i in 0..OPS {
            let d = path.deliver(SimTime::from_nanos(i * 20_000));
            acc = acc.wrapping_add(d.latency.as_nanos());
        }
        acc
    });
    1.0 / secs
}

/// Nanoseconds per workload draw: one `ArrivalGen::next_arrival` plus
/// one `PhasedService::sample`, on the workload's own schedule and
/// service distribution.
pub fn draw_ns(arrivals: &RateSchedule, service: &PhasedService, seed: u64) -> f64 {
    const OPS: u64 = 200_000;
    let secs = per_op(OPS, || {
        let mut gen = ArrivalGen::new(arrivals.clone(), rng(seed, streams::ARRIVALS));
        let mut svc_rng = rng(seed, streams::SERVICE);
        let mut t = SimTime::ZERO;
        let mut acc = 0u64;
        for _ in 0..OPS {
            t = gen.next_arrival(t);
            acc = acc.wrapping_add(service.sample(t, &mut svc_rng).as_nanos());
        }
        acc
    });
    secs * 1e9
}

/// Nanoseconds per `Histogram::record` of latencies scattered over
/// `[lo_ns, hi_ns)`.
pub fn record_ns(lo_ns: u64, hi_ns: u64) -> f64 {
    const OPS: u64 = 200_000;
    let values: Vec<u64> = (0..OPS)
        .map(|i| lo_ns + scatter(i, hi_ns.saturating_sub(lo_ns)))
        .collect();
    let secs = per_op(OPS, || {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        h.count()
    });
    secs * 1e9
}
