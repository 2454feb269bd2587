//! Integration tests of the mechanism stack below the runtime:
//! UINTR + kernel models composed the way the library composes them.

use lp_hw::uintr::{ReceiverState, SendOutcome, UintrDomain, Uitt};
use lp_hw::HwCosts;
use lp_kernel::{IpcLatency, IpcMechanism, KernelCosts, KernelTimer, SignalPath};
use lp_sim::rng::rng;
use lp_sim::{SimDur, SimTime};
use lp_stats::Histogram;

/// The Fig. 1 story told through the composed models: the UINTR path
/// assembled from HwCosts beats the calibrated kernel signal path by
/// an order of magnitude, and both reproduce their Table IV anchors.
#[test]
fn hardware_vs_software_delivery_gap() {
    let ipc = IpcLatency::new(HwCosts::default());
    let mut r = rng(1, 0);
    let mut uintr = Histogram::new();
    let mut signal = Histogram::new();
    for _ in 0..50_000 {
        uintr.record(ipc.sample(IpcMechanism::UintrFd, &mut r).as_nanos());
        signal.record(ipc.sample(IpcMechanism::Signal, &mut r).as_nanos());
    }
    let gap = signal.mean() / uintr.mean();
    assert!(gap > 10.0, "signal/uintr mean gap = {gap:.1}");
    // Jitter too: the hardware path is far tighter.
    assert!(signal.stddev() > 4.0 * uintr.stddev());
}

/// A full LibUtimer "tick" against the architectural model: arm, poll,
/// send, coalesce, acknowledge — across multiple workers.
#[test]
fn utimer_tick_through_uintr_state_machine() {
    let mut dom = UintrDomain::new();
    let mut uitt = Uitt::new();
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let upid = dom.register_receiver();
            (upid, uitt.register(upid, 0))
        })
        .collect();

    // Timer core finds all 8 deadlines expired in one poll; sends are
    // serialized but every worker must end up notified exactly once.
    for &(_, idx) in &workers {
        let entry = uitt.get(idx).unwrap();
        assert_eq!(
            dom.senduipi(entry, ReceiverState::RunningUifSet).unwrap(),
            SendOutcome::NotifiedRunning
        );
    }
    // A second poll tick re-sends before handlers ran: all coalesce.
    for &(_, idx) in &workers {
        let entry = uitt.get(idx).unwrap();
        assert_eq!(
            dom.senduipi(entry, ReceiverState::RunningUifSet).unwrap(),
            SendOutcome::Coalesced
        );
    }
    // Handlers drain; each sees vector 0 pending exactly once.
    for &(upid, _) in &workers {
        assert_eq!(dom.acknowledge(upid).unwrap(), 1);
    }
    for &(upid, _) in &workers {
        assert!(!dom.has_pending(upid));
    }
}

/// The kernel-timer + signal path that limits Libinger: a 5 us request
/// cannot be honored (floor), and storms contend.
#[test]
fn kernel_path_floor_and_contention() {
    let costs = KernelCosts::default();
    let mut t = KernelTimer::new(costs.clone(), rng(2, 0));
    t.arm(SimDur::micros(5));
    let mut h = Histogram::new();
    for _ in 0..2_000 {
        h.record(t.sample_expiry().as_nanos());
    }
    // Asked for 5us, got the floor.
    assert!(h.mean() > 40_000.0, "mean expiry {} ns", h.mean());

    let mut path = SignalPath::new(costs, rng(3, 0));
    let storm: Vec<_> = (0..16).map(|_| path.deliver(SimTime::ZERO)).collect();
    let lone = path.deliver(SimTime::ZERO + SimDur::millis(10));
    assert!(
        storm.last().unwrap().latency > lone.latency * 4,
        "storm tail {} vs lone {}",
        storm.last().unwrap().latency,
        lone.latency
    );
}

/// Histograms merged across worker shards equal a single global
/// histogram — the pattern the runtime uses for per-class stats.
#[test]
fn sharded_stats_compose() {
    let mut shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
    let mut global = Histogram::new();
    let mut r = rng(4, 0);
    let ipc = IpcLatency::new(HwCosts::default());
    for i in 0..10_000u64 {
        let v = ipc.sample(IpcMechanism::MessageQueue, &mut r).as_nanos();
        shards[(i % 4) as usize].record(v);
        global.record(v);
    }
    let mut merged = Histogram::new();
    for s in &shards {
        merged.merge(s);
    }
    assert_eq!(merged.count(), global.count());
    assert_eq!(merged.p99(), global.p99());
    assert_eq!(merged.median(), global.median());
}
