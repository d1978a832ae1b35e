//! Zero-copy batched capture decoding: the one `QSCP` reader.
//!
//! Capture files are replayed many times per generation and fit in
//! memory, so a reader that copied each record's bytes out of an IO
//! buffer, and allocated a fresh `Vec` per UDP payload, would pay for
//! copies nothing needs.
//!
//! This module decodes records against a single immutable arena:
//!
//! * the file is read **once**, and the read buffer itself becomes the
//!   arena — [`Bytes::from`] takes a `Vec` over, it does not copy it;
//! * a record is decoded with one bounds check on its 17-byte fixed
//!   prefix and one on its transport tail; a short or malformed record is
//!   a typed [`CaptureError`], never a panic;
//! * UDP payloads are handed out as [`Bytes::slice`] windows into the
//!   arena (reference-count bump + offset pair, no copy, no allocation);
//! * [`ZeroCopyCaptureReader::read_batch`] drains records in batches so
//!   downstream sharding can amortize per-record hand-off.
//!
//! The crate is `#![forbid(unsafe_code)]`, so the arena is a plain
//! read-to-end rather than an `mmap` (see DESIGN.md §10 for the safety
//! argument); the decoding discipline is identical to what a mapped
//! buffer would use.
//!
//! ## Truncation contract
//!
//! * fewer than 8 header bytes → [`CaptureError::Truncated`];
//! * zero bytes remaining at a record boundary → clean end of stream;
//! * a record cut anywhere after its first byte — including inside the
//!   timestamp — → [`CaptureError::Truncated`].
//!
//! The cursor never stops inside a record: it moves only past a record
//! that decoded whole, so an error is sticky — every later read reports
//! it again, and none reports a clean end of stream after it.

use crate::capture::{
    decode_flags, decode_icmp, CaptureError, FORMAT_VERSION, MAGIC, MAX_UDP_PAYLOAD, TAG_ICMP,
    TAG_TCP, TAG_UDP,
};
use crate::record::{PacketRecord, Transport};
use crate::stream::StreamSource;
use crate::time::Timestamp;
use bytes::Bytes;
use std::net::Ipv4Addr;
use std::path::Path;

/// Default number of records per [`ZeroCopyCaptureReader::read_batch`]
/// batch when callers have no better chunk size.
pub const DEFAULT_BATCH: usize = 4096;

/// Records per [`ZeroCopyCaptureReader::read_batch`] batch for a
/// run-to-completion pass over a capture file (`quicsand analyze` /
/// `metrics`).
///
/// The batch pipeline fans every slice out over its `--threads` shards —
/// one scoped spawn + join and one index vector per shard per slice — so
/// a slice has to be long enough for that to be noise: 65 536 records
/// take 6–60 ms to admit (0.1–1 µs each), three orders of magnitude more
/// than a spawn. It also has to stay small next to the capture arena:
/// 65 536 decoded records are 3 MiB (48 B each), whatever the capture
/// size. [`DEFAULT_BATCH`] is sized for the live engine's alert latency
/// instead, and would pay the fan-out sixteen times as often.
pub const BULK_BATCH: usize = 65_536;

/// A record's fixed prefix: timestamp (8), source (4), destination (4),
/// transport tag (1).
const PREFIX: usize = 17;
/// What follows a UDP prefix before the payload: two ports and the
/// payload length.
const UDP_HEAD: usize = 8;
/// What follows a TCP prefix: two ports and the flags byte.
const TCP_TAIL: usize = 5;

/// A batch of decoded records, ready for sharded hand-off.
///
/// Produced by [`ZeroCopyCaptureReader::read_batch`]; UDP payloads inside
/// the batch are views into the reader's arena, so the batch itself owns
/// no payload bytes.
#[derive(Debug, Default)]
pub struct RecordBatch {
    records: Vec<PacketRecord>,
}

impl RecordBatch {
    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records as a slice.
    pub fn records(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Consumes the batch, yielding its records.
    pub fn into_records(self) -> Vec<PacketRecord> {
        self.records
    }
}

/// Arena-backed capture decoder for the `QSCP` format that
/// [`crate::capture::CaptureWriter`] writes.
///
/// UDP payloads are O(1) [`Bytes`] views into a single file-sized arena
/// instead of per-record heap copies.
///
/// Cloning is O(1): the clone shares the arena and reads on from the
/// same position independently — a second pass over a capture costs no
/// second copy of it.
#[derive(Debug, Clone)]
pub struct ZeroCopyCaptureReader {
    arena: Bytes,
    /// Where the next record starts: always a record boundary.
    offset: usize,
    records_read: u64,
}

impl ZeroCopyCaptureReader {
    /// Decodes the 8-byte file header and positions the cursor at the
    /// first record.
    ///
    /// # Errors
    /// [`CaptureError::Truncated`] for fewer than 8 header bytes,
    /// [`CaptureError::BadMagic`] / [`CaptureError::BadVersion`] for a
    /// corrupt header, judged field by field.
    pub fn from_bytes(data: impl Into<Bytes>) -> Result<Self, CaptureError> {
        let arena = data.into();
        // Field by field, so a short header is judged on what it has.
        let field = |at: usize, len: usize| arena.get(at..at + len).ok_or(CaptureError::Truncated);
        if field(0, 4)? != MAGIC {
            return Err(CaptureError::BadMagic);
        }
        let version = u16::from_le_bytes(field(4, 2)?.try_into().expect("2 bytes"));
        if version != FORMAT_VERSION {
            return Err(CaptureError::BadVersion(version));
        }
        field(6, 2)?; // reserved
        Ok(ZeroCopyCaptureReader {
            arena,
            offset: 8,
            records_read: 0,
        })
    }

    /// Reads a capture file and opens it; the read buffer is the arena.
    ///
    /// # Errors
    /// [`CaptureError::Io`] if the file cannot be read; header errors as
    /// in [`from_bytes`](Self::from_bytes).
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, CaptureError> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Decodes the next record, or `Ok(None)` at a clean end of stream.
    ///
    /// The record is bounds-checked twice — its fixed prefix, then its
    /// transport tail — and the cursor moves only once it has decoded, so
    /// an error leaves the reader where it was and the next call reports
    /// it again.
    ///
    /// # Errors
    /// [`CaptureError::Truncated`] for a record cut at any byte offset
    /// (including mid-timestamp); the other `CaptureError` variants for
    /// structurally invalid records, in field order: an unknown tag
    /// before an oversized length before a cut payload.
    pub fn read_record(&mut self) -> Result<Option<PacketRecord>, CaptureError> {
        let rest = self.arena.get(self.offset..).unwrap_or_default();
        if rest.is_empty() {
            return Ok(None);
        }
        let Some((prefix, tail)) = rest.split_first_chunk::<PREFIX>() else {
            return Err(CaptureError::Truncated);
        };
        let [t0, t1, t2, t3, t4, t5, t6, t7, s0, s1, s2, s3, d0, d1, d2, d3, tag] = *prefix;
        let (transport, tail_len) = match tag {
            TAG_UDP => {
                let Some((&[p0, p1, q0, q1, l0, l1, l2, l3], body)) =
                    tail.split_first_chunk::<UDP_HEAD>()
                else {
                    return Err(CaptureError::Truncated);
                };
                let len = u32::from_le_bytes([l0, l1, l2, l3]);
                if len as usize > MAX_UDP_PAYLOAD {
                    return Err(CaptureError::OversizedPayload(len));
                }
                let len = len as usize;
                if body.len() < len {
                    return Err(CaptureError::Truncated);
                }
                let start = self.offset + PREFIX + UDP_HEAD;
                let udp = Transport::Udp {
                    src_port: u16::from_le_bytes([p0, p1]),
                    dst_port: u16::from_le_bytes([q0, q1]),
                    payload: self.arena.slice(start..start + len),
                };
                (udp, UDP_HEAD + len)
            }
            TAG_TCP => {
                let Some(&[p0, p1, q0, q1, flags]) = tail.first_chunk::<TCP_TAIL>() else {
                    return Err(CaptureError::Truncated);
                };
                let tcp = Transport::Tcp {
                    src_port: u16::from_le_bytes([p0, p1]),
                    dst_port: u16::from_le_bytes([q0, q1]),
                    flags: decode_flags(flags),
                };
                (tcp, TCP_TAIL)
            }
            TAG_ICMP => {
                let Some(&kind) = tail.first() else {
                    return Err(CaptureError::Truncated);
                };
                let kind = decode_icmp(kind)?;
                (Transport::Icmp { kind }, 1)
            }
            other => return Err(CaptureError::BadTag(other)),
        };
        self.offset += PREFIX + tail_len;
        self.records_read += 1;
        Ok(Some(PacketRecord {
            ts: Timestamp::from_micros(u64::from_le_bytes([t0, t1, t2, t3, t4, t5, t6, t7])),
            // Addresses are stored as little-endian `u32`s of the
            // big-endian address: the octets come reversed.
            src: Ipv4Addr::new(s3, s2, s1, s0),
            dst: Ipv4Addr::new(d3, d2, d1, d0),
            transport,
        }))
    }

    /// Decodes up to `max` records into a [`RecordBatch`].
    ///
    /// An empty batch signals a clean end of stream. A decode error after
    /// some records of the batch already decoded is reported immediately
    /// — the partial batch is discarded.
    ///
    /// # Errors
    /// As [`read_record`](Self::read_record).
    pub fn read_batch(&mut self, max: usize) -> Result<RecordBatch, CaptureError> {
        let mut records = Vec::with_capacity(max.min(self.remaining_bytes() / PREFIX + 1));
        while records.len() < max {
            match self.read_record()? {
                Some(record) => records.push(record),
                None => break,
            }
        }
        Ok(RecordBatch { records })
    }

    /// Decodes every remaining record.
    ///
    /// # Errors
    /// As [`read_record`](Self::read_record).
    pub fn read_to_end(&mut self) -> Result<Vec<PacketRecord>, CaptureError> {
        self.read_batch(usize::MAX).map(RecordBatch::into_records)
    }

    /// Number of records decoded so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Bytes not yet decoded.
    pub fn remaining_bytes(&self) -> usize {
        self.arena.len() - self.offset
    }
}

/// Yields `Err` again after an error (see [`read_record`]): stop at the
/// first one.
///
/// [`read_record`]: ZeroCopyCaptureReader::read_record
impl Iterator for ZeroCopyCaptureReader {
    type Item = Result<PacketRecord, CaptureError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

/// Errors are sticky, so the default `pull_chunk` hands a partial chunk
/// over and reports the error on the next call.
impl StreamSource for ZeroCopyCaptureReader {
    fn next_record(&mut self) -> Option<Result<PacketRecord, CaptureError>> {
        self.read_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::to_bytes;
    use crate::record::{IcmpKind, TcpFlags};

    fn samples() -> Vec<PacketRecord> {
        vec![
            PacketRecord::udp(
                Timestamp::from_micros(123),
                Ipv4Addr::new(1, 2, 3, 4),
                Ipv4Addr::new(128, 0, 0, 1),
                40000,
                443,
                Bytes::from_static(b"\xc3payload"),
            ),
            PacketRecord::tcp(
                Timestamp::from_secs(60),
                Ipv4Addr::new(8, 8, 8, 8),
                Ipv4Addr::new(128, 5, 5, 5),
                443,
                55555,
                TcpFlags::SYN_ACK,
            ),
            PacketRecord::icmp(
                Timestamp::from_secs(61),
                Ipv4Addr::new(9, 9, 9, 9),
                Ipv4Addr::new(128, 6, 6, 6),
                IcmpKind::DestUnreachable,
            ),
            PacketRecord::udp(
                Timestamp::from_secs(62),
                Ipv4Addr::new(1, 1, 1, 1),
                Ipv4Addr::new(128, 7, 7, 7),
                443,
                1,
                Bytes::new(),
            ),
        ]
    }

    #[test]
    fn payloads_are_views_into_the_arena_not_copies() {
        let bytes = to_bytes(&samples()).unwrap();
        let before = bytes.clone();
        let arena = bytes.as_ptr();
        let mut reader = ZeroCopyCaptureReader::from_bytes(bytes).unwrap();
        let first = reader.read_record().unwrap().unwrap();
        let Transport::Udp { payload, .. } = &first.transport else {
            panic!("first sample is UDP");
        };
        // The payload window must alias the buffer the reader was given:
        // same bytes, same address, and the arena outlives the reader
        // through the payload's refcount.
        assert_eq!(payload.as_slice(), b"\xc3payload");
        drop(reader);
        // Header (8) + fixed record prefix (25) precede the payload.
        assert_eq!(payload.as_slice(), &before[33..41]);
        assert_eq!(payload.as_ptr(), arena.wrapping_add(33));
    }

    #[test]
    fn batch_iteration_covers_everything_once() {
        let bytes = to_bytes(&samples()).unwrap();
        let mut reader = ZeroCopyCaptureReader::from_bytes(bytes).unwrap();
        let mut all = Vec::new();
        loop {
            let batch = reader.read_batch(3).unwrap();
            if batch.is_empty() {
                break;
            }
            all.extend(batch.into_records());
        }
        assert_eq!(all, samples());
        assert_eq!(reader.records_read(), 4);
        assert_eq!(reader.remaining_bytes(), 0);
    }

    #[test]
    fn header_errors_are_typed_field_by_field() {
        // Short header → Truncated, bad magic → BadMagic, bad version →
        // BadVersion.
        for cut in 0..8 {
            let bytes = to_bytes(&[]).unwrap();
            let result = ZeroCopyCaptureReader::from_bytes(bytes[..cut].to_vec());
            assert!(
                matches!(result, Err(CaptureError::Truncated)),
                "header cut at {cut}"
            );
        }
        let mut bad_magic = to_bytes(&[]).unwrap();
        bad_magic[0] = b'X';
        assert!(matches!(
            ZeroCopyCaptureReader::from_bytes(bad_magic),
            Err(CaptureError::BadMagic)
        ));
        let mut bad_version = to_bytes(&[]).unwrap();
        bad_version[4] = 99;
        assert!(matches!(
            ZeroCopyCaptureReader::from_bytes(bad_version.clone()),
            Err(CaptureError::BadVersion(99))
        ));
        // Judged field by field: a bad version is reported even when the
        // reserved bytes after it are missing.
        assert!(matches!(
            ZeroCopyCaptureReader::from_bytes(bad_version[..6].to_vec()),
            Err(CaptureError::BadVersion(99))
        ));
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut bytes = to_bytes(&[]).unwrap();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.push(TAG_UDP);
        bytes.extend_from_slice(&443u16.to_le_bytes());
        bytes.extend_from_slice(&443u16.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = ZeroCopyCaptureReader::from_bytes(bytes).unwrap();
        assert!(matches!(
            reader.read_record(),
            Err(CaptureError::OversizedPayload(u32::MAX))
        ));
    }

    #[test]
    fn errors_follow_field_order() {
        // An unknown tag is reported before the tail it would announce is
        // found missing, an unknown ICMP kind whatever follows it.
        let cases = [
            (9, &[][..], "BadTag(9)"),
            (TAG_ICMP, &[77, 1, 2][..], "BadValue(\"icmp kind\")"),
        ];
        for (tag, tail, want) in cases {
            let mut bytes = to_bytes(&[]).unwrap();
            bytes.extend_from_slice(&[0; 16]);
            bytes.push(tag);
            bytes.extend_from_slice(tail);
            let mut reader = ZeroCopyCaptureReader::from_bytes(bytes).unwrap();
            assert_eq!(format!("{:?}", reader.read_record().unwrap_err()), want);
        }
    }

    #[test]
    fn reads_never_panic_and_never_stop_inside_a_record() {
        let bytes = to_bytes(&samples()).unwrap();
        for cut in 8..bytes.len() {
            let mut reader = ZeroCopyCaptureReader::from_bytes(bytes[..cut].to_vec()).unwrap();
            let mut decoded = 0u64;
            let error = loop {
                match reader.read_record() {
                    Ok(Some(_)) => decoded += 1,
                    Ok(None) => break None,
                    Err(error) => break Some(error),
                }
            };
            let Some(error) = error else { continue };
            // The cursor stayed at the start of the cut record: the same
            // error again, the same bytes left, nothing more decoded.
            let left = reader.remaining_bytes();
            assert!(left > 0, "cut {cut}: an error left no bytes behind");
            for _ in 0..3 {
                assert_eq!(
                    format!("{:?}", reader.read_record().unwrap_err()),
                    format!("{error:?}"),
                    "cut {cut}"
                );
                assert_eq!(reader.remaining_bytes(), left, "cut {cut}");
            }
            assert_eq!(reader.records_read(), decoded);
        }
    }
}
