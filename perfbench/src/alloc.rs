//! A counting global allocator: every allocation made by a thread bumps
//! that thread's counter, so a span can report how many allocations the
//! call it wraps made. Counts are per thread and repeat exactly for the
//! same inputs, which is what lets a later change cite them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`] and counts `alloc`, `alloc_zeroed` and
/// `realloc` calls on the calling thread.
pub struct Counting;

thread_local! {
    // `const` initialisation with a `Cell<u64>` needs no destructor and
    // never allocates, so it is safe to touch from inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down; such
    // allocations are simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter update touches
// only a thread-local `Cell` and never allocates.
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
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
