//! Allocation pin for the batch pipeline's TCP/ICMP path.
//!
//! An admitted TCP/ICMP record goes from the admit loop straight into
//! its shard's sessionizer; nothing per record is kept. This binary
//! counts allocated bytes (it owns the process's global allocator, hence
//! its own file) and pins that directly instead of through a resident-set
//! threshold: what `Analysis::run` allocates depends on how many sources
//! and minutes a TCP/ICMP capture spans, not on how many packets it
//! holds. A pipeline that buffers admitted records — 56 bytes each, in a
//! vector that doubles — allocates in proportion to the packets.

use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_net::{IcmpKind, PacketRecord, TcpFlags, Timestamp};
use quicsand_traffic::{Scenario, ScenarioConfig};
use std::net::Ipv4Addr;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::bytes_allocated_during;

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

#[test]
fn a_tcp_icmp_capture_allocates_by_sources_and_minutes_not_by_packets() {
    // The world and config of a scenario, the records replaced.
    let mut scenario = Scenario::generate(&ScenarioConfig {
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
