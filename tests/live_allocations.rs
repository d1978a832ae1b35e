//! Allocation pin for the live engine's QUIC path.
//!
//! The detector reads only which records were admitted and on which
//! channel, so `LiveEngine` checks a QUIC payload instead of dissecting
//! it (no per-record message vector) and hands the detector its admitted
//! records through one buffer of fixed size (no per-record offer list).
//! This binary counts allocated bytes (it owns the process's global
//! allocator, hence its own file) and pins that: over backscatter from a
//! fixed set of victims, what `offer_chunk` allocates follows the victims
//! and minutes, and four times the packets allocate exactly the same
//! bytes. It pins, too, that a victim far below the packet threshold
//! costs no evidence ring: no packet of it could be in an alert's
//! evidence, so the ring's capacity cannot change what it allocates.

use quicsand_intel::Provider;
use quicsand_live::{LiveConfig, LiveEngine, LiveEventKind};
use quicsand_net::{PacketRecord, TcpFlags, Timestamp};
use quicsand_telescope::GuardConfig;
use quicsand_traffic::backscatter::BackscatterBuilder;
use quicsand_wire::Version;
use std::net::Ipv4Addr;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::bytes_allocated_during;

const VICTIMS: u32 = 8;
const MINUTES: u64 = 10;

/// `VICTIMS` servers answering spoofed Initials, each sending
/// `per_minute` coalesced Initial + Handshake datagrams in every one of
/// `MINUTES` minutes: one flood per victim, opened and escalated at any
/// `per_minute` of 180 or more (3 pps, above the escalation rate).
fn backscatter(per_minute: u64) -> Vec<PacketRecord> {
    let datagram = BackscatterBuilder::new(Provider::Google, Version::V1.to_wire(), 7)
        .respond()
        .datagrams[0]
        .clone();
    let mut records = Vec::new();
    for minute in 0..MINUTES {
        for slot in 0..per_minute {
            for victim in 0..VICTIMS {
                let micros = minute * 60_000_000
                    + slot * (60_000_000 / per_minute)
                    + u64::from(victim) * 100;
                records.push(PacketRecord::udp(
                    Timestamp::from_micros(micros),
                    Ipv4Addr::from(0x8EFA_0000 + victim),
                    Ipv4Addr::new(128, (slot >> 8) as u8, slot as u8, victim as u8),
                    443,
                    40_000,
                    datagram.clone(),
                ));
            }
        }
    }
    records
}

#[test]
fn live_backscatter_allocates_by_victims_and_minutes_not_by_packets() {
    let measure = |per_minute: u64| {
        let records = backscatter(per_minute);
        let mut engine = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 1);
        let (events, bytes) = bytes_allocated_during(|| engine.offer_chunk(&records));
        let ingest = engine.ingest_stats();
        assert_eq!(ingest.quic_valid, records.len() as u64);
        assert_eq!(ingest.quarantine.total(), 0);
        assert_eq!(engine.live_stats().events_in, records.len() as u64);
        for kind in [LiveEventKind::Opened, LiveEventKind::Escalated] {
            let count = events.iter().filter(|e| e.kind == kind).count();
            assert_eq!(count, VICTIMS as usize, "{kind:?} at {per_minute}/min");
        }
        bytes
    };
    // Warm-up: anything the process initialises once.
    measure(180);
    let sparse = measure(180);
    let dense = measure(720);
    assert_eq!(
        dense, sparse,
        "4x the packets from the same victims over the same minutes allocated {dense} bytes, \
         not the {sparse} of the sparse capture"
    );
}

#[test]
fn sub_threshold_victims_allocate_no_evidence_ring() {
    // Spoofed churn: 4 096 sources, one SYN-ACK each, 1 ms apart.
    let records: Vec<PacketRecord> = (0..4_096u32)
        .map(|source| {
            PacketRecord::tcp(
                Timestamp::from_micros(u64::from(source) * 1_000),
                Ipv4Addr::from(0x0B00_0000 + source),
                Ipv4Addr::new(10, 0, (source >> 8) as u8, source as u8),
                443,
                50_000,
                TcpFlags::SYN_ACK,
            )
        })
        .collect();
    let measure = |evidence_capacity: usize| {
        let config = LiveConfig {
            evidence_capacity,
            ..LiveConfig::default()
        };
        let mut engine = LiveEngine::new(config, GuardConfig::default(), 1);
        let (events, bytes) = bytes_allocated_during(|| engine.offer_chunk(&records));
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(engine.tracked(), records.len());
        bytes
    };
    // Warm-up: anything the process initialises once.
    measure(16);
    let narrow = measure(1);
    let wide = measure(16);
    assert_eq!(
        wide, narrow,
        "4 096 one-packet victims allocated {wide} bytes at a 16-packet evidence ring, \
         not the {narrow} of a 1-packet ring"
    );
}
