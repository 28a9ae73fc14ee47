//! A counting global allocator: how many times, and for how many bytes, a
//! piece of code goes to the heap.
//!
//! A binary opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: teechain_bench::alloc_count::CountingAlloc = CountingAlloc;
//! ```
//!
//! (`benches/micro.rs` and `tests/alloc_budget.rs` do) and reads the counts
//! through [`measure`]. Counts are per thread, so tests that run side by
//! side do not see each other. This file holds the bench crate's only
//! `unsafe`; nothing outside benches and tests links it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap traffic of one thread over some interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls asked for (a `realloc` counts its new size).
    pub bytes: u64,
}

thread_local! {
    // `Cell` of a `Copy` value, initialised in a `const` block: reading it
    // never allocates and it has no destructor to run at thread exit.
    static COUNTS: Cell<AllocCounts> = const { Cell::new(AllocCounts { allocs: 0, bytes: 0 }) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is being torn down.
    let _ = COUNTS.try_with(|c| {
        let mut v = c.get();
        v.allocs += 1;
        v.bytes += bytes as u64;
        c.set(v);
    });
}

/// The system allocator, counting.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the callers' obligations (a layout of
// non-zero size, a pointer that came from this allocator with that layout)
// are passed through as received. The only addition is `note`, which touches
// a thread-local `Cell` and neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout`, as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout`, as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through one of the methods here,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// This thread's heap traffic since it started. All zeros for ever if the
/// binary did not install [`CountingAlloc`]; see [`installed`].
pub fn counts() -> AllocCounts {
    COUNTS.with(Cell::get)
}

/// Runs `f` and returns what it allocated on this thread.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocCounts) {
    let before = counts();
    let r = f();
    let after = counts();
    (
        r,
        AllocCounts {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
        },
    )
}

/// True if allocations are being counted, i.e. the running binary declared
/// [`CountingAlloc`] its global allocator.
pub fn installed() -> bool {
    measure(|| std::hint::black_box(Box::new(0u8))).1.allocs == 1
}
