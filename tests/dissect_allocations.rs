//! Allocation pin for the dissector's hot path.
//!
//! The dissector's speed comes from opening each Initial in place:
//! borrowed packet views, a reused plaintext buffer, a frame walk that
//! never builds a `Vec<Frame>`. This binary counts heap allocations (it
//! owns the process's global allocator, hence its own file) and pins that
//! property directly instead of through a timing threshold: after
//! warm-up, dissecting allocates the returned `messages` vector and
//! nothing else.

use quicsand_dissect::dissect_udp_payload;
use quicsand_intel::Provider;
use quicsand_traffic::backscatter::BackscatterBuilder;
use quicsand_traffic::research::research_probe_payload;
use quicsand_wire::Version;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the test harness's other threads
    /// must not leak into the count).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count() {
        // `try_with`: a thread that is tearing down still allocates.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state and never allocates (a `const` thread-local `Cell`).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn dissecting_allocates_only_the_returned_messages() {
    let client_initial = research_probe_payload(7);
    assert_eq!(client_initial.len(), quicsand_wire::MIN_INITIAL_SIZE);
    let backscatter =
        BackscatterBuilder::new(Provider::Google, Version::Draft29.to_wire(), 7).respond();
    let backscatter = &backscatter.datagrams[0];

    // Warm-up: the thread's scratch buffers grow to their working size.
    for payload in [&client_initial, backscatter] {
        dissect_udp_payload(payload).expect("generated payloads dissect");
    }

    let (dissected, allocations) = allocations_during(|| dissect_udp_payload(&client_initial));
    let dissected = dissected.expect("client initial dissects");
    assert!(
        dissected.messages[0].has_client_hello,
        "the initial must have been opened and its frames walked"
    );
    assert_eq!(allocations, 1, "padded client initial");

    let (dissected, allocations) = allocations_during(|| dissect_udp_payload(backscatter));
    let dissected = dissected.expect("backscatter dissects");
    assert_eq!(dissected.messages.len(), 2, "initial + handshake");
    assert!(!dissected.messages[0].has_client_hello);
    assert_eq!(allocations, 1, "coalesced backscatter datagram");
}
