//! Allocation pins for the batch pipeline.
//!
//! An admitted TCP/ICMP record goes from the admit loop straight into
//! its shard's sessionizer; nothing per record is kept. An admitted QUIC
//! packet is counted, sessionized and folded into its session's attack
//! tally in the same loop, and all that stays of it is one `(ts, src)`
//! arrival for Fig. 4. This binary counts allocated bytes (it owns the
//! process's global allocator, hence its own file) and pins that
//! directly instead of through a resident-set threshold: what
//! `Analysis::run` allocates depends on how many sources, minutes,
//! clients and connection IDs a capture spans, not on how many packets
//! it holds. A pipeline that buffers admitted records — 56 bytes each,
//! in a vector that doubles — or QUIC observations allocates in
//! proportion to the packets.

use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_intel::Provider;
use quicsand_net::{IcmpKind, PacketRecord, TcpFlags, Timestamp};
use quicsand_traffic::backscatter::BackscatterBuilder;
use quicsand_traffic::{Scenario, ScenarioConfig};
use quicsand_wire::Version;
use std::net::Ipv4Addr;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{bytes_allocated_during, peak_bytes_during};

const SOURCES: u32 = 64;
const MINUTES: u64 = 30;

/// `SOURCES` victims, each sending `per_minute` packets in every one of
/// `MINUTES` minutes (SYN-ACKs, every fifth an ICMP reply): one long
/// session per source whatever `per_minute` is.
fn backscatter(per_minute: u64) -> Vec<PacketRecord> {
    let mut records = Vec::new();
    for minute in 0..MINUTES {
        for slot in 0..per_minute {
            for source in 0..SOURCES {
                let micros = minute * 60_000_000
                    + slot * (60_000_000 / per_minute)
                    + u64::from(source) * 100;
                let ts = Timestamp::from_micros(micros);
                let src = Ipv4Addr::from(0xC633_6400 + source);
                let dst = Ipv4Addr::new(128, (slot >> 8) as u8, slot as u8, source as u8);
                records.push(if slot % 5 == 4 {
                    PacketRecord::icmp(ts, src, dst, IcmpKind::EchoReply)
                } else {
                    PacketRecord::tcp(ts, src, dst, 443, 50_000, TcpFlags::SYN_ACK)
                });
            }
        }
    }
    records
}

/// The world and config of a scenario, for its records to be replaced.
fn shell() -> (Scenario, AnalysisConfig) {
    let scenario = Scenario::generate(&ScenarioConfig {
        days: 1,
        research_packets_per_scan: 10,
        request_sessions: 1,
        quic_attacks: 1,
        common_attacks: 1,
        misconfig_sessions: 1,
        garbage_udp443_packets: 1,
        ..ScenarioConfig::test()
    });
    let config = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    (scenario, config)
}

#[test]
fn a_tcp_icmp_capture_allocates_by_sources_and_minutes_not_by_packets() {
    let (mut scenario, config) = shell();
    let mut measure = |per_minute: u64| {
        scenario.records = backscatter(per_minute);
        let (analysis, bytes) = bytes_allocated_during(|| Analysis::run(&scenario, &config));
        assert_eq!(analysis.ingest.total, scenario.records.len() as u64);
        assert_eq!(analysis.ingest.quarantine.total(), 0);
        assert_eq!(analysis.common_sessions.len(), SOURCES as usize);
        assert_eq!(analysis.common_attacks.len(), SOURCES as usize);
        let packets: u64 = analysis
            .common_sessions
            .iter()
            .map(|s| s.packet_count)
            .sum();
        assert_eq!(packets, analysis.ingest.total);
        bytes
    };
    // Warm-up: thread-local scratch grows to its working size.
    measure(40);
    let sparse = measure(40);
    let dense = measure(160);
    assert!(
        dense * 4 <= sparse * 5,
        "4x the packets over the same sources and minutes allocated {dense} bytes, \
         more than 1.25x the {sparse} of the sparse capture"
    );
}

const VICTIMS: u32 = 16;
const CLIENTS: u64 = 8;
const QUIC_MINUTES: u64 = 32;

/// `VICTIMS` servers outside any education network, each answering
/// `per_minute` spoofed Initials in every one of `QUIC_MINUTES` minutes: one
/// flood per victim whatever `per_minute` is, from a fixed set of
/// datagrams (so of server connection IDs) to `CLIENTS` fixed client
/// addresses and ports.
fn quic_backscatter(per_minute: u64) -> Vec<PacketRecord> {
    let replies: Vec<Vec<_>> = (0..VICTIMS)
        .map(|victim| {
            let mut builder =
                BackscatterBuilder::new(Provider::Google, Version::V1.to_wire(), victim.into());
            (0..CLIENTS)
                .map(|_| builder.respond().datagrams[0].clone())
                .collect()
        })
        .collect();
    let mut records = Vec::new();
    for minute in 0..QUIC_MINUTES {
        for slot in 0..per_minute {
            for victim in 0..VICTIMS {
                let micros = minute * 60_000_000
                    + slot * (60_000_000 / per_minute)
                    + u64::from(victim) * 100;
                let client = slot % CLIENTS;
                records.push(PacketRecord::udp(
                    Timestamp::from_micros(micros),
                    Ipv4Addr::from(0x8EFA_0000 + victim),
                    Ipv4Addr::new(128, 0, client as u8, victim as u8),
                    443,
                    40_000 + client as u16,
                    replies[victim as usize][client as usize].clone(),
                ));
            }
        }
    }
    records
}

#[test]
fn a_quic_flood_holds_one_arrival_per_packet_and_nothing_else() {
    let (mut scenario, config) = shell();
    let mut measure = |per_minute: u64| {
        scenario.records = quic_backscatter(per_minute);
        let (analysis, bytes) = peak_bytes_during(|| Analysis::run(&scenario, &config));
        let packets = scenario.records.len() as u64;
        assert_eq!(analysis.ingest.quarantine.total(), 0);
        assert_eq!(analysis.response_packets, packets);
        assert_eq!(analysis.arrivals.len() as u64, packets);
        assert_eq!(analysis.quic_attacks.len(), VICTIMS as usize);
        let tallied: u64 = analysis
            .attack_tallies
            .iter()
            .map(|tally| tally.resources.packets)
            .sum();
        assert_eq!(tallied, packets);
        (packets, bytes)
    };
    // Dissecting a datagram allocates its message list, dropped once the
    // packet is folded in; so the pin is on the most bytes held at once.
    // Packet counts sit on powers of two, where the arrival vector is
    // full: 16 bytes per packet held, plus what does not grow.
    measure(32);
    let (sparse_packets, sparse) = measure(32);
    let (dense_packets, dense) = measure(128);
    assert_eq!(sparse_packets.count_ones() + dense_packets.count_ones(), 2);
    let per_packet = dense.saturating_sub(sparse) as f64 / (dense_packets - sparse_packets) as f64;
    assert!(
        per_packet <= 24.0,
        "4x the packets over the same victims, clients and connection IDs held \
         {dense} bytes at the peak against {sparse}: {per_packet:.1} bytes per added packet"
    );
}
