//! A counting global allocator for allocation-accounting tests.
//!
//! A test binary that holds a code path to an allocation budget installs
//! [`CountingAllocator`] as its global allocator:
//!
//! ```text
//! #[global_allocator]
//! static ALLOCATOR: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;
//! ```
//!
//! and measures a closure with [`allocations_during`]. Counts are kept
//! per thread, so tests that run in parallel in one binary, and
//! background threads such as a server's workers or event loop, never
//! bleed into each other's windows. A counted window therefore covers
//! only work the calling thread does itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. `const`-initialised and free of
    /// destructors, so touching it from inside the allocator neither
    /// allocates nor registers a thread-exit hook.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` rather than `with`: an allocation made while the
    // thread's locals are being torn down must not panic in here.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` against the calling thread. Deallocations are not counted.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only extra work is a
// thread-local counter update that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Count the allocations the calling thread performs while running `f`.
pub fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}
