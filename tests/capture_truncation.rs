//! Truncation regression tests: a capture cut at *any* byte offset must
//! be reported as [`CaptureError::Truncated`] — never silently accepted
//! as a shorter capture. What each cut must read as is worked out from
//! the record boundaries the writer produces:
//!
//! * fewer than 8 header bytes → `Truncated`;
//! * a cut exactly at a record boundary → clean end of stream, with
//!   every preceding record decoded;
//! * a cut anywhere inside a record — including mid-timestamp, which a
//!   streaming reader once swallowed as a clean end of stream —
//!   → `Truncated`;
//! * that error is sticky: every later pull reports it again, through
//!   every pull interface.

use bytes::Bytes;
use quicsand_faults::{FaultPlan, FaultProfile};
use quicsand_net::capture::{to_bytes, CaptureError};
use quicsand_net::zerocopy::ZeroCopyCaptureReader;
use quicsand_net::{IcmpKind, PacketRecord, StreamSource, TcpFlags, Timestamp};
use std::net::Ipv4Addr;

/// One record of every transport, so the sweep crosses every field kind
/// (timestamp, addresses, tag, ports, length, payload, flags, icmp).
fn samples() -> Vec<PacketRecord> {
    vec![
        PacketRecord::udp(
            Timestamp::from_micros(111),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(128, 0, 0, 1),
            40000,
            443,
            Bytes::from_static(b"payload bytes"),
        ),
        PacketRecord::tcp(
            Timestamp::from_micros(222),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(128, 0, 0, 2),
            443,
            55555,
            TcpFlags::SYN_ACK,
        ),
        PacketRecord::icmp(
            Timestamp::from_micros(333),
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(128, 0, 0, 3),
            IcmpKind::TtlExceeded,
        ),
        PacketRecord::udp(
            Timestamp::from_micros(444),
            Ipv4Addr::new(10, 0, 0, 4),
            Ipv4Addr::new(128, 0, 0, 4),
            443,
            2,
            Bytes::new(),
        ),
    ]
}

/// Byte offsets (into the serialized capture) at which each record ends.
/// A cut exactly here is a clean end of stream; anywhere else is not.
fn record_boundaries(records: &[PacketRecord]) -> Vec<usize> {
    let mut boundaries = vec![8]; // after the file header
    for record in records {
        let one = to_bytes(std::slice::from_ref(record)).unwrap();
        boundaries.push(boundaries.last().unwrap() + (one.len() - 8));
    }
    boundaries
}

fn decode(bytes: &[u8]) -> Result<Vec<PacketRecord>, CaptureError> {
    ZeroCopyCaptureReader::from_bytes(bytes.to_vec())?.read_to_end()
}

#[test]
fn truncation_at_every_byte_offset_is_detected() {
    let records = samples();
    let bytes = to_bytes(&records).unwrap();
    let boundaries = record_boundaries(&records);
    assert_eq!(*boundaries.last().unwrap(), bytes.len());

    for cut in 0..=bytes.len() {
        let decoded = decode(&bytes[..cut]);
        if let Some(complete) = boundaries.iter().position(|&b| b == cut) {
            // Clean prefix: exactly the records that fit.
            assert_eq!(
                decoded.as_deref().expect("boundary cut"),
                &records[..complete],
                "boundary {cut}"
            );
        } else {
            // Mid-header or mid-record: the reader must say so.
            assert!(
                matches!(decoded, Err(CaptureError::Truncated)),
                "the cut at byte {cut} must be reported, got {decoded:?}"
            );
        }
    }
}

/// The specific bug a streaming reader once had: 1–7 trailing bytes of a
/// timestamp were swallowed as a clean end of stream, silently dropping
/// data.
#[test]
fn mid_timestamp_truncation_is_not_a_clean_eof() {
    let records = samples();
    let bytes = to_bytes(&records).unwrap();
    let boundaries = record_boundaries(&records);
    // Cut inside the timestamp of every record in turn.
    for &boundary in &boundaries[..boundaries.len() - 1] {
        for extra in 1..8 {
            let cut = boundary + extra;
            let decoded = decode(&bytes[..cut]);
            assert!(
                matches!(decoded, Err(CaptureError::Truncated)),
                "cut {extra} bytes into a timestamp (offset {cut}) must be \
                 Truncated, got {decoded:?}"
            );
        }
    }
}

/// Records decoded *before* the cut are still delivered by the
/// record-at-a-time interface, so a consumer sees the valid prefix and
/// then the typed error — not a silently shortened capture.
#[test]
fn valid_prefix_is_delivered_before_the_truncation_error() {
    let records = samples();
    let bytes = to_bytes(&records).unwrap();
    let boundaries = record_boundaries(&records);
    let cut = boundaries[2] + 3; // inside the third record
    let mut reader = ZeroCopyCaptureReader::from_bytes(bytes[..cut].to_vec()).unwrap();
    for want in &records[..2] {
        assert_eq!(reader.read_record().unwrap().unwrap(), *want);
    }
    assert!(matches!(reader.read_record(), Err(CaptureError::Truncated)));
}

/// A 20k-record faulted stream — duplicates, reorders, corrupt and
/// truncated payloads — round-trips unchanged, and a cut at any of a
/// spread of offsets reads as exactly the records before it when it
/// falls on a record boundary, and as `Truncated` when it does not.
#[test]
fn a_faulted_20k_stream_roundtrips_and_reads_every_cut_as_its_prefix() {
    let scenario = quicsand_traffic::Scenario::generate(&quicsand_traffic::ScenarioConfig::test());
    let clean: Vec<PacketRecord> = scenario.records.into_iter().take(20_000).collect();
    assert!(clean.len() >= 20_000, "need the full record volume");
    let faulted = FaultPlan::new(FaultProfile::standard(), 0xD1FF).apply_all(&clean);

    let bytes = to_bytes(&faulted).unwrap();
    assert_eq!(decode(&bytes).unwrap(), faulted);

    let boundaries = record_boundaries(&faulted);
    let mid = boundaries[boundaries.len() / 2];
    let cuts = [
        9,
        100,
        1_001,
        mid,
        mid + 1,
        bytes.len() / 2,
        bytes.len() - 1,
    ];
    for cut in cuts {
        let decoded = decode(&bytes[..cut]);
        match boundaries.iter().position(|&b| b == cut) {
            Some(complete) => assert_eq!(decoded.unwrap(), faulted[..complete], "cut {cut}"),
            None => assert!(
                matches!(decoded, Err(CaptureError::Truncated)),
                "cut {cut}: {decoded:?}"
            ),
        }
    }
}

/// Every way of pulling records from the reader sees a cut the
/// same way: the records before it, then `Truncated`, then `Truncated`
/// again — never a clean end of stream after the error. A reader whose
/// cursor stopped wherever a field read failed got this wrong at field
/// boundaries (8, 12, 16, 17, 21 or 25 bytes into a UDP record): the
/// error was reported once and the next pull read a clean end, so a
/// `pull_chunk` consumer — which takes the good records first and the
/// error on its next call — never saw it.
#[test]
fn a_cut_is_reported_again_by_every_pull_interface() {
    let records = samples();
    let bytes = to_bytes(&records).unwrap();
    let boundaries = record_boundaries(&records);
    for cut in 8..=bytes.len() {
        let open = || ZeroCopyCaptureReader::from_bytes(bytes[..cut].to_vec()).unwrap();
        // Records that fit before the cut; a cut on a boundary is a clean
        // end, and stays one.
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        let want = &records[..complete];
        let clean = boundaries.contains(&cut);
        let tail = |result: &Result<usize, CaptureError>| match result {
            Ok(0) => clean,
            Err(CaptureError::Truncated) => !clean,
            _ => false,
        };

        let mut reader = open();
        if !want.is_empty() {
            assert_eq!(
                reader.pull_chunk(64).unwrap(),
                want,
                "pull_chunk, cut {cut}"
            );
        }
        for _ in 0..2 {
            let next = reader.pull_chunk(64).map(|chunk| chunk.len());
            assert!(
                tail(&next),
                "pull_chunk after the records, cut {cut}: {next:?}"
            );
        }

        let mut reader = open();
        for record in want {
            assert_eq!(&reader.next_record().unwrap().unwrap(), record, "cut {cut}");
        }
        for _ in 0..2 {
            let next = reader
                .next_record()
                .transpose()
                .map(|r| usize::from(r.is_some()));
            assert!(
                tail(&next),
                "next_record after the records, cut {cut}: {next:?}"
            );
        }

        let mut reader = open();
        for record in want {
            let batch = reader.read_batch(1).unwrap();
            assert_eq!(batch.records(), std::slice::from_ref(record), "cut {cut}");
        }
        for _ in 0..2 {
            let next = reader.read_batch(64).map(|batch| batch.len());
            assert!(
                tail(&next),
                "read_batch after the records, cut {cut}: {next:?}"
            );
        }
    }
}
