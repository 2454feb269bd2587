//! The paper's Fig. 7: "a simple round-robin scheduler running N
//! static user-level threads" — on *real* fibers.
//!
//! `fn_launch` each task, then loop `fn_resume` over the incomplete
//! ones with a per-slice deadline until all complete.

use std::time::Duration;

use crate::fiber::{Fiber, Status, Yielder};
use crate::stack::{StackPool, DEFAULT_STACK_SIZE};

/// Outcome of a round-robin run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinStats {
    /// Total scheduling passes over the task list.
    pub rounds: u32,
    /// Total preemptions delivered across all tasks.
    pub preemptions: u32,
    /// Tasks completed (always all of them on return).
    pub completed: usize,
}

/// A Fig. 7-style round-robin runner over preemptible functions.
pub struct RoundRobinRunner {
    fibers: Vec<Fiber>,
    pool: StackPool,
    slice: Duration,
}

impl RoundRobinRunner {
    /// Creates a runner granting each task `slice` per turn.
    pub fn new(slice: Duration) -> Self {
        RoundRobinRunner {
            fibers: Vec::new(),
            pool: StackPool::new(DEFAULT_STACK_SIZE),
            slice,
        }
    }

    /// `fn_launch`: adds a task (execution starts on the first
    /// [`run`](Self::run) pass, slice-bounded like every resume).
    pub fn spawn<F>(&mut self, f: F)
    where
        F: FnOnce(&Yielder) + 'static,
    {
        let stack = self.pool.take();
        self.fibers.push(Fiber::with_stack(stack, f));
    }

    /// Number of tasks not yet complete.
    fn pending(&self) -> usize {
        self.fibers.iter().filter(|f| !f.completed()).count()
    }

    /// Runs every task to completion, one slice at a time, recycling
    /// stacks into the pool as tasks finish.
    pub fn run(&mut self) -> RoundRobinStats {
        let mut stats = RoundRobinStats {
            rounds: 0,
            preemptions: 0,
            completed: 0,
        };
        while self.pending() > 0 {
            stats.rounds += 1;
            for fiber in &mut self.fibers {
                if fiber.completed() {
                    continue;
                }
                match fiber.resume(Some(self.slice)) {
                    Status::Completed => {}
                    Status::Preempted => stats.preemptions += 1,
                    Status::Yielded => {}
                }
            }
        }
        // Recycle all stacks.
        for fiber in self.fibers.drain(..) {
            if let Some(stack) = fiber.into_stack() {
                self.pool.put(stack);
            }
            stats.completed += 1;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Instant;

    #[test]
    fn runs_mixed_tasks_to_completion() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut rr = RoundRobinRunner::new(Duration::from_micros(200));
        for i in 0..8u32 {
            let l = log.clone();
            rr.spawn(move |y| {
                // Some tasks are long (spin + preemption points), some
                // short.
                if i % 2 == 0 {
                    let end = Instant::now() + Duration::from_micros(600);
                    while Instant::now() < end {
                        y.preempt_point();
                    }
                }
                l.borrow_mut().push(i);
            });
        }
        let stats = rr.run();
        assert_eq!(stats.completed, 8);
        assert!(stats.preemptions > 0, "long tasks must be preempted");
        assert!(stats.rounds >= 2, "preempted tasks need extra rounds");
        let mut got = log.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        // All 8 stacks recycled.
        assert_eq!(rr.pool.free_count(), 8);
    }

    #[test]
    fn short_tasks_complete_in_one_round() {
        let mut rr = RoundRobinRunner::new(Duration::from_millis(10));
        let n = Rc::new(RefCell::new(0));
        for _ in 0..16 {
            let n = n.clone();
            rr.spawn(move |_| *n.borrow_mut() += 1);
        }
        let stats = rr.run();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.preemptions, 0);
        assert_eq!(*n.borrow(), 16);
    }

    #[test]
    fn stacks_are_reused_across_batches() {
        let mut rr = RoundRobinRunner::new(Duration::from_millis(1));
        for _ in 0..4 {
            rr.spawn(|_| {});
        }
        rr.run();
        let after_first = rr.pool.free_count();
        for _ in 0..4 {
            rr.spawn(|_| {});
        }
        rr.run();
        assert_eq!(rr.pool.free_count(), after_first.max(4));
    }
}
