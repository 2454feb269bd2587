//! `lp_hw::jitter`'s fast path against an in-test copy of the reference
//! formula `base.mul_f64(exp(sigma · sqrt(-2 ln u1) · cos(2π u2)))`,
//! rounded with `f64::round`.
//!
//! The fast path must return the reference's `SimDur` on every call:
//! the simulator's pinned reports depend on it. These tests check that
//! call by call over the calibrated latency constants, check the
//! unrounded values stay well inside the guard band, force draws onto
//! the fallback branch, and hold the buffered [`Jitter`] stream to
//! repeated [`jitter::sample`] calls. The `#[ignore]`d sweep repeats the
//! call-by-call check at 10^8 draws; run it in release with
//! `cargo test --release -p lp-hw --test jitter_exact -- --include-ignored`.

use lp_hw::jitter::{self, Jitter, GUARD_ABS, GUARD_REL};
use lp_hw::HwCosts;
use lp_kernel::KernelCosts;
use lp_sim::rng::rng;
use lp_sim::SimDur;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// One reference evaluation, with the values the fast path rounds.
struct Reference {
    result: SimDur,
    /// Unrounded nanoseconds with `f64::cos`.
    v_ref: f64,
    /// Unrounded nanoseconds with the table cosine.
    v_fast: f64,
}

/// The reference formula, drawing exactly what `jitter::sample` draws.
fn reference(rng: &mut SmallRng, base: SimDur, sigma: f64) -> Option<Reference> {
    if sigma == 0.0 || base.is_zero() {
        return None;
    }
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let x = std::f64::consts::TAU * u2;
    let value = |c: f64| base.as_micros_f64() * (sigma * (r * c)).exp() * 1_000.0;
    let v_ref = value(x.cos());
    Some(Reference {
        result: round_ref(v_ref),
        v_ref,
        v_fast: value(jitter::cos(x)),
    })
}

/// `SimDur::from_micros_f64` as the reference wrote it: `f64::round`.
fn round_ref(v: f64) -> SimDur {
    if v <= 0.0 || !v.is_finite() {
        SimDur::ZERO
    } else {
        SimDur::nanos(v.round() as u64)
    }
}

fn guard(v: f64) -> f64 {
    GUARD_ABS + v * GUARD_REL
}

/// Every latency constant the simulator jitters, plus 5 ns and 1 ms.
fn bases() -> Vec<SimDur> {
    let mut out = vec![SimDur::nanos(5), SimDur::millis(1)];
    for hw in [
        HwCosts::sapphire_rapids(),
        HwCosts::no_uintr(),
        HwCosts::hw_offload_timer(),
    ] {
        out.extend([
            hw.senduipi_issue,
            hw.uintr_delivery_running,
            hw.uintr_delivery_blocked,
            hw.uintr_handler,
            hw.ipi_delivery,
            hw.apic_icr_write,
            hw.deadline_arm,
            hw.fcontext_switch,
            hw.kernel_ctx_switch,
            hw.switch_pollution,
            hw.poll_loop,
        ]);
    }
    let k = KernelCosts::linux_5_15();
    out.extend([
        k.syscall,
        k.signal_deliver_base,
        k.signal_handler,
        k.signal_lock_hold,
        k.timer_floor,
        k.timer_arm,
        k.noise_spike,
        k.ctx_switch,
    ]);
    out.retain(|d| !d.is_zero());
    out.sort();
    out.dedup();
    out
}

/// Every sigma the simulator jitters with: the hardware presets' sigma
/// and the 2x/4x multiples the IPC and Fig. 12 models use, the kernel
/// timer sigma, the literal sigmas of the signal, timer, kernel-timer
/// and Fig. 12 call sites, and the MICA service sigma.
fn sigmas() -> Vec<f64> {
    let mut out = Vec::new();
    for hw in [HwCosts::sapphire_rapids(), HwCosts::no_uintr()] {
        out.extend([
            hw.jitter_sigma,
            hw.jitter_sigma * 2.0,
            hw.jitter_sigma * 4.0,
        ]);
    }
    out.push(KernelCosts::linux_5_15().timer_jitter_sigma);
    out.extend([0.1, 0.15, 0.3, 0.4, 0.5, 0.12]);
    out.sort_by(f64::total_cmp);
    out.dedup();
    out
}

/// Tallies of one call-by-call run.
#[derive(Default)]
struct Tally {
    draws: u64,
    fallbacks: u64,
    worst_share_of_guard: f64,
}

/// Checks `draws` consecutive `sample` calls against the reference.
fn check_pair(seed: u64, base: SimDur, sigma: f64, draws: u64, tally: &mut Tally) {
    let mut fast = rng(seed, 0);
    let mut slow = fast.clone();
    for i in 0..draws {
        let got = jitter::sample(&mut fast, base, sigma);
        let want = reference(&mut slow, base, sigma).expect("nonzero base and sigma");
        assert_eq!(
            got, want.result,
            "draw {i} of base {base}, sigma {sigma}: v_ref {:?}",
            want.v_ref
        );
        let share = (want.v_fast - want.v_ref).abs() / guard(want.v_ref);
        assert!(
            share <= 0.1,
            "draw {i} of base {base}, sigma {sigma}: |v_fast - v_ref| is {share} of the guard"
        );
        tally.worst_share_of_guard = tally.worst_share_of_guard.max(share);
        tally.fallbacks += u64::from(jitter::round_guarded(want.v_fast).is_none());
    }
    tally.draws += draws;
}

fn sweep(draws_per_pair: u64) -> Tally {
    let mut tally = Tally::default();
    let mut seed = 0;
    for base in bases() {
        for sigma in sigmas() {
            seed += 1;
            check_pair(seed, base, sigma, draws_per_pair, &mut tally);
        }
    }
    tally
}

#[test]
fn call_by_call_matches_reference_at_a_million_draws_per_pair() {
    // One million draws for every base at the sigma of the preset or
    // call site it belongs to, and for 5 ns and 1 ms at every sigma.
    let hw = HwCosts::sapphire_rapids();
    let kernel = KernelCosts::linux_5_15();
    let mut pairs: Vec<(SimDur, f64)> = Vec::new();
    for base in bases() {
        pairs.push((base, hw.jitter_sigma));
    }
    let no_uintr = HwCosts::no_uintr();
    for base in [
        no_uintr.uintr_delivery_running,
        no_uintr.uintr_delivery_blocked,
    ] {
        pairs.push((base, no_uintr.jitter_sigma));
    }
    pairs.extend([
        (kernel.signal_lock_hold, 0.1),
        (kernel.signal_deliver_base, 0.15),
        (kernel.timer_floor, kernel.timer_jitter_sigma),
        (kernel.noise_spike, 0.4),
    ]);
    for sigma in sigmas() {
        pairs.push((SimDur::nanos(5), sigma));
        pairs.push((SimDur::millis(1), sigma));
    }
    let mut tally = Tally::default();
    for (i, (base, sigma)) in pairs.into_iter().enumerate() {
        check_pair(1_000 + i as u64, base, sigma, 1_000_000, &mut tally);
    }
    assert!(tally.worst_share_of_guard < 0.1);
}

#[test]
#[ignore = "10^8 draws; run in release with --include-ignored"]
fn sweep_of_a_hundred_million_draws_matches_reference() {
    let pairs = (bases().len() * sigmas().len()) as u64;
    let tally = sweep(100_000_000u64.div_ceil(pairs));
    assert!(tally.draws >= 100_000_000);
    assert!(tally.worst_share_of_guard < 0.1);
    eprintln!(
        "{} draws, {} in the guard band, worst |v_fast - v_ref| {:.2e} of the guard",
        tally.draws, tally.fallbacks, tally.worst_share_of_guard
    );
}

#[test]
fn zero_sigma_and_zero_base_consume_no_draw() {
    let mut a = rng(9, 9);
    let b = a.clone();
    assert_eq!(
        jitter::sample(&mut a, SimDur::nanos(400), 0.0),
        SimDur::nanos(400)
    );
    assert_eq!(jitter::sample(&mut a, SimDur::ZERO, 0.25), SimDur::ZERO);
    assert_eq!(a.next_u64(), b.clone().next_u64(), "a draw was consumed");

    let mut stream = Jitter::new(rng(9, 9), 0.0);
    for ns in [0, 5, 400, 1_000_000] {
        assert_eq!(stream.sample(SimDur::nanos(ns)), SimDur::nanos(ns));
    }
    // A stream's zero-base calls leave its draw order intact.
    let mut stream = Jitter::new(rng(9, 10), 0.05);
    let mut plain = rng(9, 10);
    for ns in [0, 400, 0, 0, 150, 0, 30] {
        let base = SimDur::nanos(ns);
        assert_eq!(stream.sample(base), jitter::sample(&mut plain, base, 0.05));
    }
}

#[test]
fn fallback_branch_runs_where_fast_rounding_would_differ() {
    // Pick sigma so the reference lands a few ulps from 700.5 ns at base
    // 5 ns (sigma · z ≈ ln 140.1, so the cosines' last-bit difference
    // moves v by several ulps), then nudge sigma until the fast and
    // reference values straddle 700.5. A fast-path rounding would then
    // give the wrong integer; `sample` must still give the reference's.
    let base = SimDur::nanos(5);
    let target = (700.5f64 / 5.0).ln();
    let mut src = rng(77, 0);
    let mut straddles = 0;
    let mut guarded = 0;
    for _ in 0..20_000 {
        let state = src.clone();
        let u1: f64 = src.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = src.gen_range(0.0..1.0);
        let (r, x) = ((-2.0 * u1.ln()).sqrt(), std::f64::consts::TAU * u2);
        let z = r * x.cos();
        if z.abs() < 0.5 {
            continue;
        }
        let mut sigma = target / z;
        for _ in 0..16 {
            let mut probe = state.clone();
            let want = reference(&mut probe, base, sigma).expect("nonzero");
            assert!(
                want.v_ref > 699.0 && want.v_ref < 702.0,
                "v_ref {}",
                want.v_ref
            );
            let got = jitter::sample(&mut state.clone(), base, sigma);
            assert_eq!(got, want.result, "sigma {sigma:e}, v_ref {}", want.v_ref);
            if jitter::round_guarded(want.v_fast).is_none() {
                guarded += 1;
            }
            if (want.v_fast >= 700.5) != (want.v_ref >= 700.5) {
                straddles += 1;
                assert_eq!(jitter::round_guarded(want.v_fast), None);
                assert_ne!(got.as_nanos(), want.v_fast.round() as u64);
            }
            sigma = if want.v_ref < 700.5 {
                sigma.next_up()
            } else {
                sigma.next_down()
            };
        }
    }
    assert!(
        guarded > 1_000,
        "only {guarded} draws reached the guard band"
    );
    assert!(straddles > 0, "no draw straddled a rounding boundary");
}

#[test]
fn stream_equals_repeated_sample_with_interleaved_bases() {
    let bases = bases();
    for (k, sigma) in sigmas().into_iter().chain([0.0, -0.3, 9.0]).enumerate() {
        let mut stream = Jitter::new(rng(5, k as u64), sigma);
        let mut plain = rng(5, k as u64);
        for i in 0..50_000usize {
            // Zero bases in between: they must not consume a draw.
            let base = if i % 7 == 3 {
                SimDur::ZERO
            } else {
                bases[i % bases.len()]
            };
            assert_eq!(
                stream.sample(base),
                jitter::sample(&mut plain, base, sigma),
                "call {i}, sigma {sigma}"
            );
        }
    }
}
