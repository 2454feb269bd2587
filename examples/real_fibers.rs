//! Real preemptible functions — no simulation.
//!
//! ```text
//! cargo run --release --example real_fibers
//! ```
//!
//! Runs the paper's Fig. 7 round-robin scheduler over actual switched
//! stacks (`lp-fibers`): a mix of microsecond-scale "requests" where a
//! few long ones would monopolize the core without preemption. The
//! deadline-checked preemption points play the role of LibUtimer's
//! armed deadlines; completion order shows the head-of-line blocking
//! disappearing as the slice shrinks. It ends by timing the two costs
//! the simulated `HwCosts.fcontext_switch` (40 ns) stands in for.

use lp_fibers::{Fiber, RoundRobinRunner};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Spawns 1 long (2 ms) and 8 short (~50 us) "requests"; returns the
/// completion order and the preemption count.
fn run_with_slice(slice: Duration) -> (Vec<&'static str>, u32) {
    let order = Rc::new(RefCell::new(Vec::new()));
    let mut rr = RoundRobinRunner::new(slice);

    let o = order.clone();
    rr.spawn(move |y| {
        let end = Instant::now() + Duration::from_millis(2);
        while Instant::now() < end {
            y.preempt_point();
        }
        o.borrow_mut().push("LONG");
    });
    for _ in 0..8 {
        let o = order.clone();
        rr.spawn(move |y| {
            let end = Instant::now() + Duration::from_micros(50);
            while Instant::now() < end {
                y.preempt_point();
            }
            o.borrow_mut().push("short");
        });
    }
    let stats = rr.run();
    let order = order.borrow().clone();
    (order, stats.preemptions)
}

/// Median host ns per call of `op`, over 31 batches of 5,000 calls.
fn median_ns(mut op: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..31)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..5_000 {
                op();
            }
            start.elapsed().as_nanos() as f64 / 5_000.0
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

fn main() {
    println!("9 requests on one core: 1 x 2ms + 8 x 50us\n");
    for (label, slice) in [
        (
            "10 ms slice (effectively run-to-completion)",
            Duration::from_millis(10),
        ),
        ("100 us slice", Duration::from_micros(100)),
    ] {
        let start = Instant::now();
        let (order, preemptions) = run_with_slice(slice);
        let long_pos = order.iter().position(|s| *s == "LONG").unwrap();
        println!("{label}:");
        println!("  completion order : {}", order.join(" "));
        println!("  LONG finished    : #{} of 9", long_pos + 1);
        println!("  preemptions      : {preemptions}");
        println!("  wall time        : {:?}\n", start.elapsed());
    }
    println!("With the coarse slice the 2 ms request completes first and");
    println!("every short request waits behind it (head-of-line blocking);");
    println!("with a 100 us slice the shorts finish in their first rounds");
    println!("and the long request is preempted ~20 times.\n");

    // A resume plus a yield back is two stack switches; a launch
    // prepares a fresh stack, switches in and switches out at return.
    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    let mut fiber = Fiber::new(64 * 1024, move |y| {
        while !d.get() {
            y.yield_now();
        }
    });
    let pair = median_ns(|| {
        black_box(fiber.resume(None));
    });
    // Run it to completion so its drop has no stack to unwind.
    done.set(true);
    fiber.resume(None);
    let launch = median_ns(|| {
        black_box(Fiber::new(16 * 1024, |_| {}).resume(None));
    });
    println!("fiber switch pair  : {pair:.1} ns (median of 31 batches)");
    println!("fresh-stack launch : {launch:.1} ns (median of 31 batches)");
}
