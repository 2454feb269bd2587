//! Fiber stacks: aligned heap allocations with overflow canaries and a
//! reuse pool (the paper's "global memory pool" of contexts, §IV-B).

use std::alloc::{alloc, dealloc, Layout};

/// Canary pattern written at the low end of every stack; checked on
/// release to detect overflows after the fact.
const CANARY: u64 = 0xDEAD_57AC_CAFE_F00D;
/// Number of canary words.
const CANARY_WORDS: usize = 4;

/// Default stack size (the paper's contexts are request-sized; 64 KiB
/// is roomy for test workloads).
pub const DEFAULT_STACK_SIZE: usize = 64 * 1024;

/// An owned, 16-byte-aligned fiber stack.
#[derive(Debug)]
pub struct Stack {
    base: *mut u8,
    size: usize,
}

// SAFETY: the stack is plain owned memory; ownership moves freely
// across threads as long as the fiber running on it does not (enforced
// by Fiber being !Send while suspended mid-run — see fiber.rs).
unsafe impl Send for Stack {}

impl Stack {
    /// Allocates a stack of `size` bytes (rounded up to 16).
    ///
    /// # Panics
    ///
    /// Panics if `size` is too small to be useful (< 4 KiB) or the
    /// allocation fails.
    pub fn new(size: usize) -> Self {
        assert!(size >= 4096, "stack of {size} bytes is too small");
        let size = (size + 15) & !15;
        let layout = Layout::from_size_align(size, 16).expect("stack layout");
        // SAFETY: `layout` has nonzero size (asserted >= 4 KiB above).
        let base = unsafe { alloc(layout) };
        assert!(!base.is_null(), "stack allocation failed");
        let stack = Stack { base, size };
        // SAFETY: `base` points at a fresh allocation of at least
        // CANARY_WORDS * 8 bytes, exclusively owned by `stack`.
        unsafe {
            let words = base as *mut u64;
            for i in 0..CANARY_WORDS {
                words.add(i).write(CANARY);
            }
        }
        stack
    }

    /// One-past-the-end (highest) address, 16-byte aligned — where the
    /// bootstrap frame is filed.
    pub fn top(&self) -> *mut u8 {
        // SAFETY: one-past-the-end of the owned allocation is a valid
        // provenance-carrying address (never dereferenced as such).
        let top = unsafe { self.base.add(self.size) };
        debug_assert_eq!(top as usize % 16, 0);
        top
    }

    /// `true` if the low-end canary is intact (no overflow reached the
    /// bottom of the stack).
    pub fn canary_intact(&self) -> bool {
        // SAFETY: the canary words were written at construction and
        // the allocation lives until Drop.
        unsafe {
            let words = self.base as *const u64;
            (0..CANARY_WORDS).all(|i| words.add(i).read() == CANARY)
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        debug_assert!(
            self.canary_intact(),
            "fiber stack overflow detected on drop"
        );
        let layout = Layout::from_size_align(self.size, 16).expect("stack layout");
        // SAFETY: `base` came from `alloc` with this exact layout and
        // is freed exactly once (Drop consumes the owner).
        unsafe { dealloc(self.base, layout) };
    }
}

/// A free-list of stacks for reuse across fiber launches — "contexts
/// can be reused by other requests once a function finished execution;
/// the free contexts are maintained in a global free list".
#[derive(Debug, Default)]
pub struct StackPool {
    free: Vec<Stack>,
    stack_size: usize,
}

impl StackPool {
    /// Creates a pool handing out stacks of `stack_size` bytes.
    pub fn new(stack_size: usize) -> Self {
        StackPool {
            free: Vec::new(),
            stack_size,
        }
    }

    /// Takes a stack from the free list, allocating if empty.
    pub fn take(&mut self) -> Stack {
        self.free
            .pop()
            .unwrap_or_else(|| Stack::new(self.stack_size))
    }

    /// Returns a stack for reuse.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the stack's canary shows an overflow.
    pub fn put(&mut self, stack: Stack) {
        debug_assert!(stack.canary_intact(), "returning an overflowed stack");
        self.free.push(stack);
    }

    /// Stacks currently on the free list.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_alignment() {
        let s = Stack::new(DEFAULT_STACK_SIZE);
        assert_eq!(s.top() as usize % 16, 0);
        assert!(s.size >= DEFAULT_STACK_SIZE);
        assert!(s.canary_intact());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_tiny_stacks() {
        Stack::new(64);
    }

    #[test]
    fn canary_detects_scribble() {
        let s = Stack::new(8192);
        // SAFETY: top - size is the base of the live allocation; we
        // deliberately scribble the first canary word.
        unsafe {
            (s.top().sub(s.size) as *mut u64).write(0);
        }
        assert!(!s.canary_intact());
        // Avoid the debug panic in Drop.
        std::mem::forget(s);
    }

    #[test]
    fn pool_reuses() {
        let mut pool = StackPool::new(8192);
        let a = pool.take();
        let a_top = a.top() as usize;
        pool.put(a);
        assert_eq!(pool.free_count(), 1);
        let b = pool.take();
        assert_eq!(b.top() as usize, a_top, "stack must be recycled");
        assert_eq!(pool.free_count(), 0);
    }
}
