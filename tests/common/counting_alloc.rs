//! A counting global allocator for the allocation-pin suites. A binary
//! that includes this file (`#[path = "common/counting_alloc.rs"] mod
//! counting_alloc;`) runs on it: the `#[global_allocator]` below is that
//! binary's, which is why each pin lives in a test file of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the test harness's other threads
    /// must not leak into the count).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread asked for: an allocation's size, or what a
    /// reallocation grew by. Frees are not subtracted.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds: what it allocated minus what it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most [`LIVE`] has been since [`peak_bytes_during`] started.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count(bytes: usize) {
        // `try_with`: a thread that is tearing down still allocates.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    }

    /// Moves the bytes held by `delta` (negative for a free).
    fn hold(delta: i64) {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + delta);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state and never allocates (a `const` thread-local `Cell`).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        Self::hold(layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::hold(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size.saturating_sub(layout.size()));
        Self::hold(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its value with the number of allocations (and
/// reallocations) this thread made meanwhile.
#[allow(dead_code)] // each including binary uses some of the three
pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns its value with the bytes this thread allocated
/// meanwhile.
#[allow(dead_code)]
pub fn bytes_allocated_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let value = f();
    (value, BYTES.with(Cell::get) - before)
}

/// Runs `f` and returns its value with the most bytes this thread held
/// at any one time meanwhile, over what it held when `f` started —
/// what `f` adds to the peak resident set, where bytes allocated also
/// count what was freed again at once.
#[allow(dead_code)]
pub fn peak_bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let value = f();
    (value, (PEAK.with(Cell::get) - before) as u64)
}
