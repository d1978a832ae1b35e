//! Allocation pin for the dissector's hot path.
//!
//! The dissector's speed comes from opening each Initial in place:
//! borrowed packet views, a reused plaintext buffer, a frame walk that
//! never builds a `Vec<Frame>`. This binary counts heap allocations (it
//! owns the process's global allocator, hence its own file) and pins that
//! property directly instead of through a timing threshold: after
//! warm-up, dissecting allocates the returned `messages` vector and
//! nothing else. Checking — the live path's extraction, which keeps only
//! the message kinds — allocates nothing at all, warm-up or not.

use quicsand_dissect::{check_udp_payload, dissect_udp_payload, MessageKind};
use quicsand_intel::Provider;
use quicsand_traffic::backscatter::BackscatterBuilder;
use quicsand_traffic::research::research_probe_payload;
use quicsand_wire::Version;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

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
    assert_eq!(
        dissected.messages[0].has_client_hello,
        Some(true),
        "the initial must have been opened and its frames walked"
    );
    assert_eq!(allocations, 1, "padded client initial");

    let (dissected, allocations) = allocations_during(|| dissect_udp_payload(backscatter));
    let dissected = dissected.expect("backscatter dissects");
    assert_eq!(dissected.messages.len(), 2, "initial + handshake");
    assert_eq!(dissected.messages[0].has_client_hello, Some(false));
    assert_eq!(allocations, 1, "coalesced backscatter datagram");
}

#[test]
fn checking_allocates_nothing_even_cold() {
    let client_initial = research_probe_payload(7);
    let backscatter =
        BackscatterBuilder::new(Provider::Google, Version::Draft29.to_wire(), 7).respond();
    let backscatter = &backscatter.datagrams[0];

    // No warm-up: the check touches no per-thread scratch to grow.
    let (kinds, allocations) = allocations_during(|| check_udp_payload(&client_initial));
    let kinds = kinds.expect("client initial checks");
    assert!(kinds.contains(MessageKind::Initial));
    assert_eq!(allocations, 0, "padded client initial");

    let (kinds, allocations) = allocations_during(|| check_udp_payload(backscatter));
    let kinds = kinds.expect("backscatter checks");
    assert!(kinds.contains(MessageKind::Initial) && kinds.contains(MessageKind::Handshake));
    assert_eq!(allocations, 0, "coalesced backscatter datagram");
}
