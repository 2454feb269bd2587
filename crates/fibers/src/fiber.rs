//! Real preemptible functions (paper §IV-C) on switched stacks.
//!
//! A [`Fiber`] runs a closure on its own stack. Control returns to the
//! caller when the closure completes, explicitly yields, or passes a
//! *preemption point* after its time slice expired — exactly the
//! `fn_launch` / `fn_resume` / `fn_completed` contract of the paper,
//! with the UINTR-driven asynchronous preemption replaced by
//! deadline-checked safe points (the portable fallback the paper
//! prescribes for hardware without user interrupts).

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::arch::{prepare_stack, switch_stacks, StackPointer};
use crate::stack::Stack;

/// Why control came back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The function ran to completion (`fn_completed` is now true).
    Completed,
    /// The function called [`Yielder::yield_now`].
    Yielded,
    /// The function passed a preemption point after its deadline.
    Preempted,
}

/// Yield codes passed through the stack switch.
const CODE_COMPLETED: usize = 0;
const CODE_YIELDED: usize = 1;
const CODE_PREEMPTED: usize = 2;
const CODE_PANICKED: usize = 3;
/// Resume codes.
const RESUME_FIRST_MASK: usize = !0; // first resume passes the inner ptr
const RESUME_RUN: usize = 0;
const RESUME_CANCEL: usize = 1;

/// Cancellation token unwound through a cancelled fiber.
struct Cancelled;

/// A fiber's body, boxed until its first entry.
type FiberFn = Box<dyn FnOnce(&Yielder)>;

struct Inner {
    /// Caller's saved stack pointer while the fiber runs.
    caller_sp: UnsafeCell<StackPointer>,
    /// Fiber's saved stack pointer while suspended.
    fiber_sp: UnsafeCell<StackPointer>,
    /// The closure, present until first entry.
    func: UnsafeCell<Option<FiberFn>>,
    /// Deadline for the current slice (checked at preemption points).
    deadline: Cell<Option<Instant>>,
    /// Set when the next resume should unwind the fiber.
    cancel: Cell<bool>,
    /// Payload of a panic that escaped the closure.
    panic: UnsafeCell<Option<Box<dyn Any + Send>>>,
}

/// The entry function the architecture trampoline calls on the fiber's
/// stack. `arg` is the `Inner` pointer passed by the first switch.
pub(crate) unsafe extern "sysv64" fn fiber_entry(arg: usize) -> ! {
    // SAFETY: the only caller is the arch trampoline, whose bootstrap
    // frame was filed by `Fiber::with_stack` with `arg` set to the
    // `Inner` box that outlives the whole run of this fiber.
    let inner = unsafe { &*(arg as *const Inner) };
    let yielder = Yielder {
        inner,
        _not_send: PhantomData,
    };
    // SAFETY: `func` is only taken here, exactly once per fiber (first
    // entry); no other reference to the cell exists while we run.
    let func = unsafe { (*inner.func.get()).take() }.expect("fiber entered twice");
    let result = catch_unwind(AssertUnwindSafe(|| func(&yielder)));
    let code = match result {
        Ok(()) => CODE_COMPLETED,
        Err(payload) => {
            if payload.downcast_ref::<Cancelled>().is_some() {
                CODE_COMPLETED
            } else {
                // SAFETY: the caller side only reads `panic` after this
                // fiber switched out for good (CODE_PANICKED below).
                unsafe { *inner.panic.get() = Some(payload) };
                CODE_PANICKED
            }
        }
    };
    // Final switch out; this context is dead and must never resume.
    // SAFETY: `caller_sp` was stored by the `resume` that entered us
    // and its stack is suspended waiting for exactly this switch.
    unsafe { switch_stacks(inner.fiber_sp.get(), inner.caller_sp.get(), code) };
    unreachable!("completed fiber resumed");
}

/// Handle the running closure uses to cede control.
pub struct Yielder<'a> {
    inner: &'a Inner,
    _not_send: PhantomData<*mut ()>,
}

impl Yielder<'_> {
    fn switch_out(&self, code: usize) {
        let (save, restore) = (self.inner.fiber_sp.get(), self.inner.caller_sp.get());
        // SAFETY: called from fiber context only (the Yielder never
        // leaves the closure), so `caller_sp` holds the suspended
        // caller written by the `resume` that entered us.
        let resume = unsafe { switch_stacks(save, restore, code) };
        if resume == RESUME_CANCEL || self.inner.cancel.get() {
            // `resume_unwind` skips the panic hook: a cancel is not a
            // panic and must not print one.
            resume_unwind(Box::new(Cancelled));
        }
    }

    /// Unconditionally yields to the caller ([`Status::Yielded`]).
    pub fn yield_now(&self) {
        self.switch_out(CODE_YIELDED);
    }

    /// A preemption point: yields with [`Status::Preempted`] iff the
    /// current slice's deadline has passed. Returns `true` if a
    /// preemption happened (and the fiber has since been resumed).
    ///
    /// This is the safe-point analogue of the UINTR handler: on
    /// UINTR-less hardware LibPreemptible "will fall back to standard
    /// interrupts"; in a plain library context the fallback is
    /// cooperative checks against the armed deadline.
    pub fn preempt_point(&self) -> bool {
        match self.inner.deadline.get() {
            Some(d) if Instant::now() >= d => {
                self.switch_out(CODE_PREEMPTED);
                true
            }
            _ => false,
        }
    }
}

enum State {
    /// Never entered.
    Fresh,
    /// Suspended at a yield or preemption point.
    Suspended,
    /// Done (or cancelled); stack reusable.
    Completed,
}

/// A preemptible function: a closure running on its own switched
/// stack, resumable slice by slice.
///
/// ```
/// use lp_fibers::{Fiber, Status};
/// use std::time::Duration;
///
/// let mut counter = 0u32;
/// let mut fiber = Fiber::new(8192, |y| {
///     for _ in 0..3 {
///         y.yield_now();
///     }
/// });
/// // fn_launch semantics: run until completion or yield.
/// let mut status = fiber.resume(None);
/// while status != Status::Completed {
///     counter += 1;
///     status = fiber.resume(None);
/// }
/// assert_eq!(counter, 3);
/// assert!(fiber.completed());
/// ```
pub struct Fiber {
    inner: Box<Inner>,
    stack: Option<Stack>,
    state: State,
    /// Fibers hold raw stack state; moving the handle between threads
    /// while suspended is fine (the state is self-contained), but the
    /// handle is intentionally !Sync.
    _not_sync: PhantomData<Cell<()>>,
}

impl Fiber {
    /// Creates a fiber with a dedicated stack of `stack_size` bytes.
    /// Execution does not start until [`resume`](Self::resume) —
    /// compose `new` + `resume` for the paper's `fn_launch`.
    pub fn new<F>(stack_size: usize, f: F) -> Self
    where
        F: FnOnce(&Yielder) + 'static,
    {
        Self::with_stack(Stack::new(stack_size), f)
    }

    /// Creates a fiber on a caller-provided (possibly pooled) stack.
    pub fn with_stack<F>(stack: Stack, f: F) -> Self
    where
        F: FnOnce(&Yielder) + 'static,
    {
        // SAFETY: `stack.top()` is the one-past-the-end address of an
        // owned, writable, 16-byte-aligned allocation of >= 4 KiB —
        // ample for the 7-word bootstrap frame.
        let sp = unsafe { prepare_stack(stack.top()) };
        Fiber {
            inner: Box::new(Inner {
                caller_sp: UnsafeCell::new(0),
                fiber_sp: UnsafeCell::new(sp),
                func: UnsafeCell::new(Some(Box::new(f))),
                deadline: Cell::new(None),
                cancel: Cell::new(false),
                panic: UnsafeCell::new(None),
            }),
            stack: Some(stack),
            state: State::Fresh,
            _not_sync: PhantomData,
        }
    }

    /// Runs the fiber until it completes, yields, or — when `slice` is
    /// given — passes a preemption point after the slice expires.
    ///
    /// # Panics
    ///
    /// Panics if the fiber already completed, or re-raises a panic
    /// that escaped the fiber's closure.
    pub fn resume(&mut self, slice: Option<Duration>) -> Status {
        let first = matches!(self.state, State::Fresh);
        assert!(
            !matches!(self.state, State::Completed),
            "resuming a completed fiber"
        );
        self.inner.deadline.set(slice.map(|s| Instant::now() + s));
        let arg = if first {
            (&*self.inner as *const Inner as usize) & RESUME_FIRST_MASK
        } else {
            RESUME_RUN
        };
        let (save, restore) = (self.inner.caller_sp.get(), self.inner.fiber_sp.get());
        // SAFETY: `fiber_sp` is either the bootstrap frame filed by
        // `prepare_stack` (first resume) or the frame saved by the
        // fiber's own `switch_out`; the state check above guarantees
        // the fiber is not completed, so the frame is live and unique.
        let code = unsafe { switch_stacks(save, restore, arg) };
        match code {
            CODE_COMPLETED => {
                self.state = State::Completed;
                Status::Completed
            }
            CODE_YIELDED => {
                self.state = State::Suspended;
                Status::Yielded
            }
            CODE_PREEMPTED => {
                self.state = State::Suspended;
                Status::Preempted
            }
            CODE_PANICKED => {
                self.state = State::Completed;
                // SAFETY: the fiber stored the payload and switched out
                // for good before signalling CODE_PANICKED; we are the
                // only remaining accessor of the cell.
                let payload = unsafe { (*self.inner.panic.get()).take() }
                    .expect("panicked fiber without payload");
                resume_unwind(payload);
            }
            other => unreachable!("bad yield code {other}"),
        }
    }

    /// `fn_completed`: whether the function finished (so "a reschedule
    /// is unnecessary").
    pub fn completed(&self) -> bool {
        matches!(self.state, State::Completed)
    }

    /// Reclaims the stack of a completed fiber for pooling.
    ///
    /// Returns `None` if the fiber has not completed (its stack still
    /// holds live frames).
    pub fn into_stack(mut self) -> Option<Stack> {
        if self.completed() {
            self.stack.take()
        } else {
            None
        }
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        if matches!(self.state, State::Suspended) {
            // Unwind the fiber so locals on its stack are dropped.
            self.inner.cancel.set(true);
            // SAFETY: the fiber is suspended at a `switch_out`, so its
            // saved frame is live; RESUME_CANCEL makes it unwind and
            // switch back exactly once with CODE_COMPLETED.
            let code = unsafe {
                switch_stacks(
                    self.inner.caller_sp.get(),
                    self.inner.fiber_sp.get(),
                    RESUME_CANCEL,
                )
            };
            debug_assert_eq!(code, CODE_COMPLETED, "cancel must complete the fiber");
            self.state = State::Completed;
        }
        // Fresh fibers never ran: just drop the boxed closure.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const STACK: usize = 32 * 1024;

    #[test]
    fn runs_to_completion() {
        let out = Rc::new(RefCell::new(0));
        let o = out.clone();
        let mut f = Fiber::new(STACK, move |_| {
            *o.borrow_mut() = 42;
        });
        assert_eq!(f.resume(None), Status::Completed);
        assert!(f.completed());
        assert_eq!(*out.borrow(), 42);
    }

    #[test]
    fn yields_and_resumes_with_state_intact() {
        let trace = Rc::new(RefCell::new(Vec::new()));
        let t = trace.clone();
        let mut f = Fiber::new(STACK, move |y| {
            let mut local = vec![1, 2, 3]; // lives across switches
            t.borrow_mut().push(local.len());
            y.yield_now();
            local.push(4);
            t.borrow_mut().push(local.len());
            y.yield_now();
            t.borrow_mut().push(local.iter().sum::<i32>() as usize);
        });
        assert_eq!(f.resume(None), Status::Yielded);
        assert_eq!(f.resume(None), Status::Yielded);
        assert_eq!(f.resume(None), Status::Completed);
        assert_eq!(*trace.borrow(), vec![3, 4, 10]);
    }

    #[test]
    fn preemption_points_honor_slices() {
        let mut f = Fiber::new(STACK, move |y| {
            // Spin past any deadline, checking safe points.
            for _ in 0..1_000 {
                let spin_until = Instant::now() + Duration::from_micros(200);
                while Instant::now() < spin_until {}
                y.preempt_point();
            }
        });
        // A tiny slice must produce a preemption, not completion.
        let status = f.resume(Some(Duration::from_micros(50)));
        assert_eq!(status, Status::Preempted);
        // A generous slice lets it finish eventually.
        let mut guard = 0;
        while !f.completed() {
            f.resume(Some(Duration::from_secs(10)));
            guard += 1;
            assert!(guard < 2_000, "fiber never completed");
        }
    }

    #[test]
    fn no_deadline_means_no_preemption() {
        let mut f = Fiber::new(STACK, |y| {
            for _ in 0..100 {
                assert!(!y.preempt_point());
            }
        });
        assert_eq!(f.resume(None), Status::Completed);
    }

    #[test]
    fn panic_propagates_to_caller() {
        let mut f = Fiber::new(STACK, |_| panic!("boom from fiber"));
        let err = catch_unwind(AssertUnwindSafe(|| f.resume(None))).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom from fiber");
        assert!(f.completed());
    }

    #[test]
    fn drop_unwinds_suspended_fiber() {
        struct SetOnDrop(Rc<Cell<bool>>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = Rc::new(Cell::new(false));
        let d = dropped.clone();
        let mut f = Fiber::new(STACK, move |y| {
            let _guard = SetOnDrop(d);
            loop {
                y.yield_now();
            }
        });
        assert_eq!(f.resume(None), Status::Yielded);
        assert!(!dropped.get());
        drop(f);
        assert!(dropped.get(), "locals on the fiber stack must be dropped");
    }

    #[test]
    fn fresh_fiber_drop_is_clean() {
        let dropped = Rc::new(Cell::new(false));
        let d = dropped.clone();
        let f = Fiber::new(STACK, move |_| {
            d.set(true);
        });
        drop(f); // never ran; closure simply dropped
        assert!(!dropped.get());
    }

    #[test]
    #[should_panic(expected = "resuming a completed fiber")]
    fn resume_after_completion_panics() {
        let mut f = Fiber::new(STACK, |_| {});
        f.resume(None);
        f.resume(None);
    }

    #[test]
    fn stack_reclaim_after_completion() {
        let mut f = Fiber::new(STACK, |_| {});
        assert!(matches!(f.resume(None), Status::Completed));
        let stack = f.into_stack().expect("stack back");
        assert!(stack.canary_intact());
    }

    #[test]
    fn suspended_fiber_keeps_its_stack() {
        let mut f = Fiber::new(STACK, |y| y.yield_now());
        f.resume(None);
        assert!(f.into_stack().is_none());
    }

    #[test]
    fn deep_call_stacks_work() {
        fn recurse(n: u32, y: &Yielder) -> u64 {
            if n == 0 {
                y.yield_now();
                1
            } else {
                recurse(n - 1, y).wrapping_mul(2).wrapping_add(1)
            }
        }
        let out = Rc::new(Cell::new(0u64));
        let o = out.clone();
        let mut f = Fiber::new(256 * 1024, move |y| {
            o.set(recurse(500, y));
        });
        assert_eq!(f.resume(None), Status::Yielded);
        assert_eq!(f.resume(None), Status::Completed);
        // f(n) = 2^(n+1) - 1; mod 2^64 with n=500 that wraps to u64::MAX.
        assert_eq!(out.get(), u64::MAX);
    }

    #[test]
    fn many_concurrent_fibers() {
        let total = Rc::new(Cell::new(0u64));
        let mut fibers: Vec<Fiber> = (0..500)
            .map(|i| {
                let t = total.clone();
                Fiber::new(16 * 1024, move |y| {
                    y.yield_now();
                    t.set(t.get() + i);
                })
            })
            .collect();
        for f in &mut fibers {
            assert_eq!(f.resume(None), Status::Yielded);
        }
        for f in &mut fibers {
            assert_eq!(f.resume(None), Status::Completed);
        }
        assert_eq!(total.get(), (0..500).sum::<u64>());
    }
}
