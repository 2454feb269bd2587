//! A tour of the low-level building blocks: LibUtimer deadline slots,
//! the timing wheel, and the UINTR architectural state machine — the
//! pieces §IV builds LibPreemptible out of.
//!
//! ```text
//! cargo run --release --example utimer_tour
//! ```

use libpreemptible::utimer::UtimerRegistry;
use lp_hw::uintr::{ReceiverState, SendOutcome, UintrDomain, Uitt};
use lp_sim::{EventQueue, SimTime};

fn main() {
    // --- LibUtimer deadline slots (utimer_register / arm_deadline) ---
    let mut reg = UtimerRegistry::new();
    let workers: Vec<_> = (0..4).map(|_| reg.register()).collect();
    // Workers arm staggered 5/10/15/20 us deadlines (one cacheline
    // write each — no syscall, which is the whole point).
    for (i, &slot) in workers.iter().enumerate() {
        reg.arm(slot, SimTime::from_nanos(5_000 * (i as u64 + 1)));
    }
    println!(
        "armed {} deadline slots; earliest = {:?}",
        reg.armed(),
        reg.next_deadline()
    );

    // The timer core polls the TSC and collects expiries.
    let mut fired = Vec::new();
    for t in [6_000u64, 12_000, 22_000] {
        let now = SimTime::from_nanos(t);
        for slot in reg.expired(now) {
            fired.push((t, slot.index()));
        }
    }
    println!("expiry order (poll-time, worker): {fired:?}");
    assert_eq!(fired.len(), 4);

    // --- Timing wheel for large thread counts (§IV-A, [64]) ---
    // The simulator's event queue is a hierarchical timing wheel.
    let mut wheel = EventQueue::new();
    for i in 0..1_000u64 {
        wheel.push(SimTime::from_nanos(1_000 * (i % 97 + 1)), i);
    }
    let horizon = SimTime::from_nanos(50_000);
    let mut due = 0;
    while wheel.peek_time().is_some_and(|t| t <= horizon) {
        wheel.pop();
        due += 1;
    }
    println!(
        "timing wheel: {due} of 1000 deadlines due within 50 us, {} still filed",
        wheel.live_len()
    );
    assert_eq!(due + wheel.live_len(), 1_000);

    // --- The UINTR state machine underneath (§III-A, Fig. 3) ---
    let mut dom = UintrDomain::new();
    let receiver = dom.register_receiver(); // allocates the UPID
    let mut uitt = Uitt::new(); // the timer core's send table
    let idx = uitt.register(receiver, 0); // vector 0 = "deadline"

    let entry = uitt.get(idx).unwrap();
    let first = dom.senduipi(entry, ReceiverState::RunningUifSet).unwrap();
    let second = dom.senduipi(entry, ReceiverState::RunningUifSet).unwrap();
    println!("first SENDUIPI:  {first:?}");
    println!("second SENDUIPI: {second:?} (hardware coalesces while ON=1)");
    assert_eq!(first, SendOutcome::NotifiedRunning);
    assert_eq!(second, SendOutcome::Coalesced);

    let pending = dom.acknowledge(receiver).unwrap();
    println!("handler drained PUIR bitmap: {pending:#b}");

    // Blocked receivers take the kernel-assisted slow path — the
    // "uintrFd (blocked)" row of Table IV.
    let blocked = dom.senduipi(entry, ReceiverState::Blocked).unwrap();
    println!("send to blocked receiver: {blocked:?}");
    assert_eq!(blocked, SendOutcome::NotifiedBlocked);
}
