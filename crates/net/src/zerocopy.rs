//! Zero-copy batched capture decoding.
//!
//! [`crate::capture::CaptureReader`] is a streaming reader over any
//! `Read`: it allocates a fresh `Vec` for every UDP payload and copies
//! each record's bytes out of the IO buffer. That is the right shape for
//! unbounded pipes, but for capture *files* — the dominant case, replayed
//! many times per generation — the whole file fits in memory and the
//! per-record copies are pure overhead.
//!
//! This module decodes records against a single immutable arena instead:
//!
//! * the file is read **once** into one [`Bytes`] allocation (the arena);
//! * [`DecoderBuffer`] is a typed cursor over that arena — every read is
//!   bounds-checked and returns [`CaptureError::Truncated`] instead of
//!   panicking, in the style of s2n-codec's checked splits;
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
//! ## Truncation contract (shared with `CaptureReader`)
//!
//! * fewer than 8 header bytes → [`CaptureError::Truncated`];
//! * zero bytes remaining at a record boundary → clean end of stream;
//! * a record cut anywhere after its first byte — including inside the
//!   timestamp — → [`CaptureError::Truncated`].

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
/// 65 536 decoded records are 3.5 MiB (56 B each), whatever the capture
/// size. [`DEFAULT_BATCH`] is sized for the live engine's alert latency
/// instead, and would pay the fan-out sixteen times as often.
pub const BULK_BATCH: usize = 65_536;

/// A checked little-endian cursor over an immutable byte arena.
///
/// All reads advance the cursor; any read past the end returns
/// [`CaptureError::Truncated`] — never a panic. Slices split off the
/// buffer are zero-copy [`Bytes`] windows into the backing arena.
///
/// (The vendored `bytes::Buf` trait is *big*-endian and panics on
/// underflow, so the capture format's little-endian checked reads are
/// implemented here instead.)
#[derive(Debug, Clone)]
pub struct DecoderBuffer {
    arena: Bytes,
    offset: usize,
}

impl DecoderBuffer {
    /// Wraps an arena in a cursor positioned at its start.
    pub fn new(arena: Bytes) -> Self {
        DecoderBuffer { arena, offset: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.arena.len() - self.offset
    }

    /// Whether the cursor is at the end of the arena.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current byte offset from the start of the arena.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Borrows the next `len` bytes without advancing.
    fn peek(&self, len: usize) -> Result<&[u8], CaptureError> {
        self.arena
            .as_slice()
            .get(self.offset..self.offset + len)
            .ok_or(CaptureError::Truncated)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`CaptureError::Truncated`] at end of arena.
    pub fn read_u8(&mut self) -> Result<u8, CaptureError> {
        let b = self.peek(1)?[0];
        self.offset += 1;
        Ok(b)
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    /// [`CaptureError::Truncated`] if fewer than 2 bytes remain.
    pub fn read_u16_le(&mut self) -> Result<u16, CaptureError> {
        let v = u16::from_le_bytes(self.peek(2)?.try_into().expect("2 bytes"));
        self.offset += 2;
        Ok(v)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`CaptureError::Truncated`] if fewer than 4 bytes remain.
    pub fn read_u32_le(&mut self) -> Result<u32, CaptureError> {
        let v = u32::from_le_bytes(self.peek(4)?.try_into().expect("4 bytes"));
        self.offset += 4;
        Ok(v)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`CaptureError::Truncated`] if fewer than 8 bytes remain.
    pub fn read_u64_le(&mut self) -> Result<u64, CaptureError> {
        let v = u64::from_le_bytes(self.peek(8)?.try_into().expect("8 bytes"));
        self.offset += 8;
        Ok(v)
    }

    /// Splits off the next `len` bytes as a zero-copy view of the arena.
    ///
    /// # Errors
    /// [`CaptureError::Truncated`] if fewer than `len` bytes remain.
    pub fn split_slice(&mut self, len: usize) -> Result<Bytes, CaptureError> {
        if self.remaining() < len {
            return Err(CaptureError::Truncated);
        }
        let slice = self.arena.slice(self.offset..self.offset + len);
        self.offset += len;
        Ok(slice)
    }
}

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

/// Arena-backed capture decoder: the zero-copy counterpart of
/// [`crate::capture::CaptureReader`].
///
/// Decodes the same `QSCP` format with the same error taxonomy and the
/// same truncation contract, but UDP payloads are O(1) [`Bytes`] views
/// into a single file-sized arena instead of per-record heap copies.
///
/// Cloning is O(1): the clone shares the arena and reads on from the
/// same position independently — a second pass over a capture costs no
/// second copy of it.
#[derive(Debug, Clone)]
pub struct ZeroCopyCaptureReader {
    buf: DecoderBuffer,
    records_read: u64,
}

impl ZeroCopyCaptureReader {
    /// Decodes the 8-byte file header and positions the cursor at the
    /// first record.
    ///
    /// # Errors
    /// [`CaptureError::Truncated`] for fewer than 8 header bytes,
    /// [`CaptureError::BadMagic`] / [`CaptureError::BadVersion`] for a
    /// corrupt header — the same taxonomy as `CaptureReader::new`.
    pub fn from_bytes(data: impl Into<Bytes>) -> Result<Self, CaptureError> {
        let mut buf = DecoderBuffer::new(data.into());
        let mut magic = [0u8; 4];
        magic.copy_from_slice(buf.peek(4)?);
        buf.offset += 4;
        if &magic != MAGIC {
            return Err(CaptureError::BadMagic);
        }
        let version = buf.read_u16_le()?;
        if version != FORMAT_VERSION {
            return Err(CaptureError::BadVersion(version));
        }
        buf.read_u16_le()?; // reserved
        Ok(ZeroCopyCaptureReader {
            buf,
            records_read: 0,
        })
    }

    /// Reads a capture file into a single arena and opens it.
    ///
    /// # Errors
    /// [`CaptureError::Io`] if the file cannot be read; header errors as
    /// in [`from_bytes`](Self::from_bytes).
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, CaptureError> {
        let mut file = std::fs::File::open(path)?;
        // No size (a pipe) means no size hint; the read is still whole.
        let size = file.metadata().map_or(0, |meta| meta.len());
        let size = usize::try_from(size).unwrap_or(0);
        Self::from_bytes(Bytes::read_from(&mut file, size)?)
    }

    /// Decodes the next record, or `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    /// [`CaptureError::Truncated`] for a record cut at any byte offset
    /// (including mid-timestamp); the other `CaptureError` variants for
    /// structurally invalid records.
    pub fn read_record(&mut self) -> Result<Option<PacketRecord>, CaptureError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        let ts = Timestamp::from_micros(self.buf.read_u64_le()?);
        let src = Ipv4Addr::from(self.buf.read_u32_le()?.to_be_bytes());
        let dst = Ipv4Addr::from(self.buf.read_u32_le()?.to_be_bytes());
        let tag = self.buf.read_u8()?;
        let transport = match tag {
            TAG_UDP => {
                let src_port = self.buf.read_u16_le()?;
                let dst_port = self.buf.read_u16_le()?;
                let len = self.buf.read_u32_le()?;
                if len as usize > MAX_UDP_PAYLOAD {
                    return Err(CaptureError::OversizedPayload(len));
                }
                Transport::Udp {
                    src_port,
                    dst_port,
                    payload: self.buf.split_slice(len as usize)?,
                }
            }
            TAG_TCP => {
                let src_port = self.buf.read_u16_le()?;
                let dst_port = self.buf.read_u16_le()?;
                let flags = decode_flags(self.buf.read_u8()?);
                Transport::Tcp {
                    src_port,
                    dst_port,
                    flags,
                }
            }
            TAG_ICMP => Transport::Icmp {
                kind: decode_icmp(self.buf.read_u8()?)?,
            },
            other => return Err(CaptureError::BadTag(other)),
        };
        self.records_read += 1;
        Ok(Some(PacketRecord {
            ts,
            src,
            dst,
            transport,
        }))
    }

    /// Decodes up to `max` records into a [`RecordBatch`].
    ///
    /// An empty batch signals a clean end of stream. A decode error after
    /// some records of the batch already decoded is reported immediately
    /// — the partial batch is discarded, matching the legacy reader's
    /// fail-on-first-error iteration.
    ///
    /// # Errors
    /// As [`read_record`](Self::read_record).
    pub fn read_batch(&mut self, max: usize) -> Result<RecordBatch, CaptureError> {
        let mut records = Vec::with_capacity(max.min(self.buf.remaining() / 17 + 1));
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
        self.buf.remaining()
    }
}

impl Iterator for ZeroCopyCaptureReader {
    type Item = Result<PacketRecord, CaptureError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

impl StreamSource for ZeroCopyCaptureReader {
    fn next_record(&mut self) -> Option<Result<PacketRecord, CaptureError>> {
        self.read_record().transpose()
    }

    fn pull_chunk(&mut self, max: usize) -> Result<Vec<PacketRecord>, CaptureError> {
        let mut chunk = Vec::with_capacity(max.min(self.buf.remaining() / 17 + 1));
        while chunk.len() < max {
            match self.read_record() {
                Ok(Some(record)) => chunk.push(record),
                Ok(None) => break,
                Err(error) if chunk.is_empty() => return Err(error),
                // Truncation does not consume the cursor past the cut,
                // so the error re-surfaces on the next (empty) pull —
                // the sticky-error contract `pull_chunk` documents.
                Err(_) => break,
            }
        }
        Ok(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{from_bytes, to_bytes, CaptureReader};
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
    fn decodes_identically_to_the_legacy_reader() {
        let bytes = to_bytes(&samples()).unwrap();
        let legacy = from_bytes(&bytes).unwrap();
        let zero = ZeroCopyCaptureReader::from_bytes(bytes)
            .unwrap()
            .read_to_end()
            .unwrap();
        assert_eq!(legacy, zero);
        assert_eq!(zero, samples());
    }

    #[test]
    fn payloads_are_views_into_the_arena_not_copies() {
        let bytes = to_bytes(&samples()).unwrap();
        let before = bytes.clone();
        let mut reader = ZeroCopyCaptureReader::from_bytes(bytes).unwrap();
        let first = reader.read_record().unwrap().unwrap();
        let Transport::Udp { payload, .. } = &first.transport else {
            panic!("first sample is UDP");
        };
        // The payload window must alias the arena: same bytes, and the
        // arena outlives the reader through the payload's refcount.
        assert_eq!(payload.as_slice(), b"\xc3payload");
        drop(reader);
        // Header (8) + fixed record prefix (25) precede the payload.
        assert_eq!(payload.as_slice(), &before[33..41]);
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
    fn header_taxonomy_matches_legacy() {
        // Short header → Truncated, bad magic → BadMagic, bad version →
        // BadVersion; identical to `CaptureReader::new`.
        for cut in 0..8 {
            let bytes = to_bytes(&[]).unwrap();
            let result = ZeroCopyCaptureReader::from_bytes(bytes[..cut].to_vec());
            assert!(
                matches!(result, Err(CaptureError::Truncated)),
                "header cut at {cut}"
            );
            assert!(matches!(
                CaptureReader::new(&bytes[..cut]),
                Err(CaptureError::Truncated)
            ));
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
            ZeroCopyCaptureReader::from_bytes(bad_version),
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
    fn decoder_buffer_checked_reads_never_panic() {
        let mut buf = DecoderBuffer::new(Bytes::from(vec![1, 2, 3]));
        assert_eq!(buf.read_u16_le().unwrap(), 0x0201);
        assert!(matches!(buf.read_u32_le(), Err(CaptureError::Truncated)));
        assert!(matches!(buf.read_u64_le(), Err(CaptureError::Truncated)));
        assert!(matches!(buf.split_slice(2), Err(CaptureError::Truncated)));
        assert_eq!(buf.read_u8().unwrap(), 3);
        assert!(buf.is_empty());
        assert!(matches!(buf.read_u8(), Err(CaptureError::Truncated)));
        assert_eq!(buf.offset(), 3);
    }
}
