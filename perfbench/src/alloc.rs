//! A counting global allocator, installed in the benchmark binary only.
//!
//! Every `alloc`, `alloc_zeroed` and `realloc` increments a per-thread
//! counter, so [`allocs`] read before and after a run gives the exact
//! number of heap allocations the run made on this thread. The simulator
//! is single-threaded and deterministic, so the counts repeat exactly for
//! the same inputs; a per-thread counter also keeps them exact while the
//! test harness allocates on other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without a destructor: reading it never
    // allocates, so the allocator may touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down; an
    // allocation made then is simply not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator plus an allocation counter.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update
// touches no allocator state and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations made by the calling thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_known_allocations_exactly() {
        let before = allocs();
        let boxed = black_box(Box::new([7u8; 64]));
        assert_eq!(allocs() - before, 1, "one Box::new is one allocation");
        let mut v: Vec<u64> = black_box(Vec::with_capacity(2));
        v.extend([1, 2, 3]);
        assert_eq!(allocs() - before, 3, "with_capacity + one growth realloc");
        drop(black_box(v));
        drop(black_box(boxed));
        assert_eq!(allocs() - before, 3, "frees are not allocations");
    }
}
