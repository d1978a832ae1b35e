//! A capture written to disk and re-read must analyze identically:
//! the persistence path is how real deployments would feed the tool.
//! The writer is the reference for the one reader: whatever it wrote,
//! the reader decodes back unchanged.

use corpus::{adversarial_corpus, assert_expected};
use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_net::capture::{self, CaptureWriter};
use quicsand_net::{PacketRecord, Timestamp, ZeroCopyCaptureReader};
use quicsand_traffic::{Scenario, ScenarioConfig};
use std::fs::File;
use std::io::BufWriter;
use std::net::Ipv4Addr;

#[path = "common/corpus.rs"]
mod corpus;

#[test]
fn file_roundtrip_preserves_analysis() {
    let mut config = ScenarioConfig::test();
    // Keep the file small but representative.
    config.research_packets_per_scan = 500;
    config.quic_attacks = 30;
    config.victim_pool = 12;
    config.common_attacks = 20;
    let scenario = Scenario::generate(&config);

    let dir = std::env::temp_dir().join("quicsand-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.qscp");

    // Write streaming.
    let mut writer = CaptureWriter::new(BufWriter::new(File::create(&path).unwrap())).unwrap();
    for record in &scenario.records {
        writer.write(record).unwrap();
    }
    assert_eq!(writer.records_written(), scenario.records.len() as u64);
    writer
        .finish()
        .unwrap()
        .into_inner()
        .unwrap()
        .sync_all()
        .unwrap();

    // Read back.
    let records = ZeroCopyCaptureReader::from_path(&path)
        .unwrap()
        .read_to_end()
        .unwrap();
    assert_eq!(records, scenario.records);

    // Analyses agree.
    let original = Analysis::run(&scenario, &AnalysisConfig::default());
    let reloaded = Scenario {
        world: scenario.world.clone(),
        records,
        truth: scenario.truth.clone(),
        config: scenario.config.clone(),
    };
    let reanalyzed = Analysis::run(&reloaded, &AnalysisConfig::default());
    assert_eq!(original.quic_attacks, reanalyzed.quic_attacks);
    assert_eq!(original.ingest, reanalyzed.ingest);

    std::fs::remove_file(&path).unwrap();
}

/// A zero-length UDP payload is a legal darknet observation (it is
/// exactly what some liveness probes look like) — the capture format
/// must persist it losslessly, and ingest must quarantine rather than
/// misparse it.
#[test]
fn zero_length_payload_roundtrips_and_is_quarantined() {
    let record = PacketRecord::udp(
        Timestamp::from_micros(1_000),
        Ipv4Addr::new(203, 0, 113, 9),
        Ipv4Addr::new(128, 0, 0, 1),
        40000,
        443,
        bytes::Bytes::new(),
    );
    let bytes = capture::to_bytes(std::slice::from_ref(&record)).unwrap();
    let back = capture::from_bytes(&bytes).unwrap();
    assert_eq!(back, vec![record.clone()]);

    let mut pipeline = quicsand_telescope::TelescopePipeline::new();
    pipeline.ingest(&record);
    assert_eq!(pipeline.stats().quarantine.empty_payload, 1);
}

/// A QUIC Initial carrying the maximum legal 20-byte connection IDs
/// must survive the capture format byte-for-byte and still dissect —
/// the boundary the oversized-CID fault sits one byte past.
#[test]
fn max_length_cid_packet_roundtrips_and_dissects() {
    use quicsand_wire::crypto::{Direction, InitialSecrets};
    use quicsand_wire::{ConnectionId, Frame, Packet, PacketPayload, Version};

    let dcid = ConnectionId::new(&[0x5A; 20]).unwrap();
    let scid = ConnectionId::new(&[0xA5; 20]).unwrap();
    let packet = Packet::Initial {
        version: Version::V1,
        dcid,
        scid,
        token: bytes::Bytes::new(),
        packet_number: 0,
        payload: PacketPayload::new(vec![Frame::Ping]),
    };
    let key = InitialSecrets::derive(Version::V1, &dcid).key(Direction::ClientToServer);
    let wire = packet.encode(Some(key)).unwrap();

    let record = PacketRecord::udp(
        Timestamp::from_micros(2_000),
        Ipv4Addr::new(203, 0, 113, 10),
        Ipv4Addr::new(128, 0, 0, 2),
        50000,
        443,
        bytes::Bytes::from(wire),
    );
    let bytes = capture::to_bytes(std::slice::from_ref(&record)).unwrap();
    let back = capture::from_bytes(&bytes).unwrap();
    assert_eq!(back, vec![record.clone()]);

    let quicsand_net::Transport::Udp { payload, .. } = &back[0].transport else {
        panic!("expected udp transport");
    };
    let dissected = quicsand_dissect::dissect_udp_payload(payload).expect("max-CID packet parses");
    assert!(!dissected.messages.is_empty());
}

/// Declaring more payload than any datagram can carry must be rejected
/// by the reader before it allocates.
#[test]
fn hostile_declared_length_is_rejected() {
    let mut bytes = capture::to_bytes(&[]).unwrap();
    bytes.extend_from_slice(&0u64.to_le_bytes()); // ts
    bytes.extend_from_slice(&0u32.to_le_bytes()); // src
    bytes.extend_from_slice(&0u32.to_le_bytes()); // dst
    bytes.push(0); // TAG_UDP
    bytes.extend_from_slice(&40000u16.to_le_bytes());
    bytes.extend_from_slice(&443u16.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        capture::from_bytes(&bytes),
        Err(capture::CaptureError::OversizedPayload(u32::MAX))
    ));
}

/// The adversarial dissection corpus replayed through the capture layer:
/// one UDP record per entry, each from its own source, decoded back
/// unchanged, and each payload — now a view into the reader's arena —
/// dissects to the entry's typed outcome.
#[test]
fn adversarial_corpus_roundtrips_and_dissects_over_arena_views() {
    let records: Vec<PacketRecord> = adversarial_corpus()
        .into_iter()
        .enumerate()
        .map(|(i, entry)| {
            PacketRecord::udp(
                Timestamp::from_micros(1_000 + i as u64),
                Ipv4Addr::new(10, 99, (i / 256) as u8, (i % 256) as u8),
                Ipv4Addr::new(128, 0, 0, 7),
                40_000 + i as u16,
                443,
                entry.payload.into(),
            )
        })
        .collect();
    let bytes = capture::to_bytes(&records).unwrap();
    let decoded = ZeroCopyCaptureReader::from_bytes(bytes)
        .unwrap()
        .read_to_end()
        .unwrap();
    assert_eq!(decoded, records);
    for (record, entry) in decoded.iter().zip(adversarial_corpus()) {
        let payload = record.udp_payload().expect("corpus records are UDP");
        let result = quicsand_dissect::dissect_udp_payload(payload);
        assert_expected(entry.name, entry.expect, &result);
    }
}
