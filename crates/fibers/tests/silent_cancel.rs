//! Dropping a suspended fiber cancels it by unwinding its stack; that
//! unwind must run the fiber's destructors without going through the
//! panic hook (which would print a spurious "panicked at" report).
//!
//! This file holds a single test because it replaces the process-wide
//! panic hook.

use std::cell::Cell;
use std::panic;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lp_fibers::{Fiber, Status};

/// Sets its flag when dropped.
struct DropFlag(Rc<Cell<bool>>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.set(true);
    }
}

#[test]
fn dropping_a_suspended_fiber_unwinds_without_the_panic_hook() {
    let hook_calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&hook_calls);
    panic::set_hook(Box::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));

    let dropped = Rc::new(Cell::new(false));
    let flag = Rc::clone(&dropped);
    let mut fiber = Fiber::new(32 * 1024, move |y| {
        let _local = DropFlag(flag);
        loop {
            y.yield_now();
        }
    });
    assert_eq!(fiber.resume(None), Status::Yielded);
    assert_eq!(fiber.resume(None), Status::Yielded);
    assert!(!dropped.get(), "the fiber is suspended, its local is alive");
    drop(fiber);

    let _ = panic::take_hook();
    assert!(dropped.get(), "cancel must drop the fiber's locals");
    assert_eq!(
        hook_calls.load(Ordering::SeqCst),
        0,
        "cancel reached the panic hook"
    );
}
