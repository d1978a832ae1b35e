//! Unbounded record sources for the live engine.
//!
//! The batch pipeline reads a capture in slices; the live engine
//! instead pulls records from a [`StreamSource`], so a stream has no
//! inherent end (a replayed capture simply runs dry). The capture
//! reader, [`crate::ZeroCopyCaptureReader`], is a source (file replay), and
//! [`MemoryStream`] replays an in-memory record vector (e.g. a
//! `traffic` scenario) without cloning it up front.

use crate::capture::CaptureError;
use crate::record::PacketRecord;

/// A pull-based, possibly unbounded stream of packet records.
///
/// `None` means the source is exhausted (a finite replay ended); a
/// live capture source would simply block in `next_record` until
/// traffic arrives.
///
/// Errors are sticky: once `next_record` has returned `Some(Err(_))`,
/// every later call returns the same error again, never a record and
/// never `None`. A consumer that stops early therefore cannot mistake a
/// failed source for a finished one.
pub trait StreamSource {
    /// Pulls the next record. `Some(Err(_))` reports a corrupt record or
    /// a failed source, and repeats on every later call.
    fn next_record(&mut self) -> Option<Result<PacketRecord, CaptureError>>;

    /// Pulls up to `max` records into a chunk (for batched hand-off to
    /// sharded workers). Stops early at stream end or on the first
    /// error; a partial chunk is returned before the error surfaces on
    /// the *next* call.
    fn pull_chunk(&mut self, max: usize) -> Result<Vec<PacketRecord>, CaptureError> {
        let mut chunk = Vec::with_capacity(max.min(4096));
        while chunk.len() < max {
            match self.next_record() {
                Some(Ok(record)) => chunk.push(record),
                Some(Err(error)) if chunk.is_empty() => return Err(error),
                // The error is sticky: the next call reports it.
                Some(Err(_)) | None => break,
            }
        }
        Ok(chunk)
    }
}

/// Replays an in-memory record vector as a stream.
///
/// The stream *consumes* the backing vector: each pull moves the record
/// out instead of deep-cloning it (a UDP record clone would copy its
/// whole payload, once per record, on the live path).
#[derive(Debug)]
pub struct MemoryStream {
    records: std::vec::IntoIter<PacketRecord>,
}

impl MemoryStream {
    /// Creates a stream over `records` (replayed in order).
    pub fn new(records: Vec<PacketRecord>) -> Self {
        MemoryStream {
            records: records.into_iter(),
        }
    }

    /// Records not yet pulled.
    pub fn remaining(&self) -> usize {
        self.records.len()
    }
}

impl From<Vec<PacketRecord>> for MemoryStream {
    fn from(records: Vec<PacketRecord>) -> Self {
        MemoryStream::new(records)
    }
}

impl StreamSource for MemoryStream {
    fn next_record(&mut self) -> Option<Result<PacketRecord, CaptureError>> {
        self.records.next().map(Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TcpFlags;
    use crate::time::Timestamp;
    use std::net::Ipv4Addr;

    fn record(i: u64) -> PacketRecord {
        PacketRecord::tcp(
            Timestamp::from_secs(i),
            Ipv4Addr::new(10, 0, 0, (i % 250) as u8),
            Ipv4Addr::new(192, 0, 2, 1),
            443,
            5000,
            TcpFlags::SYN_ACK,
        )
    }

    #[test]
    fn memory_stream_replays_in_order() {
        let records: Vec<_> = (0..10).map(record).collect();
        let mut stream = MemoryStream::new(records.clone());
        assert_eq!(stream.remaining(), 10);
        let mut out = Vec::new();
        while let Some(r) = stream.next_record() {
            out.push(r.unwrap());
        }
        assert_eq!(out, records);
        assert_eq!(stream.remaining(), 0);
        assert!(stream.next_record().is_none());
    }

    #[test]
    fn chunked_pull_covers_everything_once() {
        let records: Vec<_> = (0..25).map(record).collect();
        let mut stream = MemoryStream::new(records.clone());
        let mut out = Vec::new();
        loop {
            let chunk = stream.pull_chunk(7).unwrap();
            if chunk.is_empty() {
                break;
            }
            assert!(chunk.len() <= 7);
            out.extend(chunk);
        }
        assert_eq!(out, records);
    }

    #[test]
    fn capture_reader_is_a_stream_source() {
        use crate::capture::to_bytes;
        use crate::zerocopy::ZeroCopyCaptureReader;
        let records: Vec<_> = (0..5).map(record).collect();
        let mut reader = ZeroCopyCaptureReader::from_bytes(to_bytes(&records).unwrap()).unwrap();
        let mut out = Vec::new();
        while let Some(r) = StreamSource::next_record(&mut reader) {
            out.push(r.unwrap());
        }
        assert_eq!(out, records);
    }
}
