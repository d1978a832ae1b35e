//! A pcap stand-in: streaming binary capture format.
//!
//! Scenarios are expensive to generate at month scale; persisting them
//! lets the experiment harness generate once and analyze many times,
//! just like the paper works from a fixed April 2021 trace. The format
//! is deliberately simple: a magic header followed by length-delimited
//! records. [`CaptureWriter`] writes it; the one reader is
//! [`ZeroCopyCaptureReader`].
//!
//! ```text
//! file   := "QSCP" u16:version u16:reserved record*
//! record := u64:ts_micros u32:src u32:dst u8:tag body
//! body   := udp(src_port u16, dst_port u16, len u32, payload)
//!         | tcp(src_port u16, dst_port u16, flags u8)
//!         | icmp(kind u8)
//! ```
//! All integers little-endian.

use crate::record::{IcmpKind, PacketRecord, TcpFlags, Transport};
use crate::zerocopy::ZeroCopyCaptureReader;
use std::fmt;
use std::io::{self, Write};

/// File magic.
pub const MAGIC: &[u8; 4] = b"QSCP";
/// Current format version.
pub const FORMAT_VERSION: u16 = 1;

pub(crate) const TAG_UDP: u8 = 0;
pub(crate) const TAG_TCP: u8 = 1;
pub(crate) const TAG_ICMP: u8 = 2;

/// Largest UDP payload representable over IPv4 (65 535 − 20 IP − 8 UDP).
///
/// A declared record length above this bound cannot have come from a
/// real datagram, so the reader rejects it *before* allocating — a
/// corrupt or hostile capture must not be able to request a 4 GiB
/// buffer with four bytes of input.
pub const MAX_UDP_PAYLOAD: usize = 65_507;

/// Errors from reading a capture stream.
#[derive(Debug)]
pub enum CaptureError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Bad magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Unknown record tag.
    BadTag(u8),
    /// Unknown encoded enum value.
    BadValue(&'static str),
    /// A record declared a payload length no real datagram can have.
    OversizedPayload(u32),
    /// A record was cut off mid-way.
    Truncated,
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::Io(e) => write!(f, "io error: {e}"),
            CaptureError::BadMagic => write!(f, "bad capture magic"),
            CaptureError::BadVersion(v) => write!(f, "unsupported capture version {v}"),
            CaptureError::BadTag(t) => write!(f, "unknown record tag {t}"),
            CaptureError::BadValue(what) => write!(f, "invalid encoded value for {what}"),
            CaptureError::OversizedPayload(len) => {
                write!(f, "declared payload length {len} exceeds {MAX_UDP_PAYLOAD}")
            }
            CaptureError::Truncated => write!(f, "truncated record"),
        }
    }
}

impl std::error::Error for CaptureError {}

impl From<io::Error> for CaptureError {
    fn from(e: io::Error) -> Self {
        CaptureError::Io(e)
    }
}

/// Streaming capture writer.
pub struct CaptureWriter<W: Write> {
    inner: W,
    records_written: u64,
}

impl<W: Write> CaptureWriter<W> {
    /// Creates a writer, emitting the file header immediately.
    ///
    /// # Errors
    /// IO errors from the sink.
    pub fn new(mut inner: W) -> io::Result<Self> {
        inner.write_all(MAGIC)?;
        inner.write_all(&FORMAT_VERSION.to_le_bytes())?;
        inner.write_all(&0u16.to_le_bytes())?;
        Ok(CaptureWriter {
            inner,
            records_written: 0,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    /// IO errors from the sink; `InvalidInput` for a UDP payload larger
    /// than [`MAX_UDP_PAYLOAD`] (which the reader would refuse anyway).
    pub fn write(&mut self, record: &PacketRecord) -> io::Result<()> {
        if let Transport::Udp { payload, .. } = &record.transport {
            if payload.len() > MAX_UDP_PAYLOAD {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "udp payload of {} bytes exceeds {MAX_UDP_PAYLOAD}",
                        payload.len()
                    ),
                ));
            }
        }
        let w = &mut self.inner;
        w.write_all(&record.ts.as_micros().to_le_bytes())?;
        w.write_all(&u32::from(record.src).to_le_bytes())?;
        w.write_all(&u32::from(record.dst).to_le_bytes())?;
        match &record.transport {
            Transport::Udp {
                src_port,
                dst_port,
                payload,
            } => {
                w.write_all(&[TAG_UDP])?;
                w.write_all(&src_port.to_le_bytes())?;
                w.write_all(&dst_port.to_le_bytes())?;
                w.write_all(&(payload.len() as u32).to_le_bytes())?;
                w.write_all(payload)?;
            }
            Transport::Tcp {
                src_port,
                dst_port,
                flags,
            } => {
                w.write_all(&[TAG_TCP])?;
                w.write_all(&src_port.to_le_bytes())?;
                w.write_all(&dst_port.to_le_bytes())?;
                w.write_all(&[encode_flags(*flags)])?;
            }
            Transport::Icmp { kind } => {
                w.write_all(&[TAG_ICMP])?;
                w.write_all(&[encode_icmp(*kind)])?;
            }
        }
        self.records_written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    /// IO errors from the flush.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

fn encode_flags(flags: TcpFlags) -> u8 {
    (flags.syn as u8) | (flags.ack as u8) << 1 | (flags.rst as u8) << 2 | (flags.fin as u8) << 3
}

pub(crate) fn decode_flags(b: u8) -> TcpFlags {
    TcpFlags {
        syn: b & 1 != 0,
        ack: b & 2 != 0,
        rst: b & 4 != 0,
        fin: b & 8 != 0,
    }
}

fn encode_icmp(kind: IcmpKind) -> u8 {
    match kind {
        IcmpKind::EchoRequest => 0,
        IcmpKind::EchoReply => 1,
        IcmpKind::DestUnreachable => 2,
        IcmpKind::TtlExceeded => 3,
    }
}

pub(crate) fn decode_icmp(b: u8) -> Result<IcmpKind, CaptureError> {
    Ok(match b {
        0 => IcmpKind::EchoRequest,
        1 => IcmpKind::EchoReply,
        2 => IcmpKind::DestUnreachable,
        3 => IcmpKind::TtlExceeded,
        _ => return Err(CaptureError::BadValue("icmp kind")),
    })
}

/// Serializes records to an in-memory capture buffer.
///
/// # Errors
/// Never fails for in-memory sinks in practice; propagates IO errors.
pub fn to_bytes(records: &[PacketRecord]) -> io::Result<Vec<u8>> {
    let mut writer = CaptureWriter::new(Vec::new())?;
    for record in records {
        writer.write(record)?;
    }
    writer.finish()
}

/// Deserializes an in-memory capture buffer.
///
/// # Errors
/// [`CaptureError`] on malformed input.
pub fn from_bytes(data: &[u8]) -> Result<Vec<PacketRecord>, CaptureError> {
    ZeroCopyCaptureReader::from_bytes(data.to_vec())?.read_to_end()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use bytes::Bytes;
    use std::net::Ipv4Addr;

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
    fn roundtrip() {
        let records = samples();
        let bytes = to_bytes(&records).unwrap();
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn empty_capture() {
        let bytes = to_bytes(&[]).unwrap();
        assert_eq!(bytes.len(), 8); // header only
        assert!(from_bytes(&bytes).unwrap().is_empty());
    }

    #[test]
    fn writer_counts_records() {
        let mut writer = CaptureWriter::new(Vec::new()).unwrap();
        assert_eq!(writer.records_written(), 0);
        for record in samples() {
            writer.write(&record).unwrap();
        }
        assert_eq!(writer.records_written(), 4);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&samples()).unwrap();
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(CaptureError::BadMagic)));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = to_bytes(&[]).unwrap();
        bytes[4] = 99;
        assert!(matches!(
            from_bytes(&bytes),
            Err(CaptureError::BadVersion(99))
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = to_bytes(&samples()).unwrap();
        // Cut in the middle of the last record.
        let cut = bytes.len() - 3;
        let result = from_bytes(&bytes[..cut]);
        assert!(
            matches!(result, Err(CaptureError::Truncated)),
            "got {result:?}"
        );
    }

    #[test]
    fn bad_tag_rejected() {
        let mut bytes = to_bytes(&[]).unwrap();
        // Append a record with an invalid tag.
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.push(9);
        assert!(matches!(from_bytes(&bytes), Err(CaptureError::BadTag(9))));
    }

    #[test]
    fn bad_icmp_kind_rejected() {
        let mut bytes = to_bytes(&[]).unwrap();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.push(TAG_ICMP);
        bytes.push(77);
        assert!(matches!(
            from_bytes(&bytes),
            Err(CaptureError::BadValue("icmp kind"))
        ));
    }

    #[test]
    fn all_flag_combinations_roundtrip() {
        for bits in 0u8..16 {
            let flags = decode_flags(bits);
            assert_eq!(encode_flags(flags), bits);
        }
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        // A hostile capture that declares a 4 GiB payload with zero
        // bytes of backing data must fail fast, not preallocate.
        let mut bytes = to_bytes(&[]).unwrap();
        bytes.extend_from_slice(&0u64.to_le_bytes()); // ts
        bytes.extend_from_slice(&0u32.to_le_bytes()); // src
        bytes.extend_from_slice(&0u32.to_le_bytes()); // dst
        bytes.push(TAG_UDP);
        bytes.extend_from_slice(&443u16.to_le_bytes());
        bytes.extend_from_slice(&443u16.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // declared len
        assert!(matches!(
            from_bytes(&bytes),
            Err(CaptureError::OversizedPayload(u32::MAX))
        ));
    }

    #[test]
    fn max_payload_boundary_roundtrips_and_one_past_is_rejected() {
        let at_limit = PacketRecord::udp(
            Timestamp::from_micros(1),
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(128, 0, 0, 1),
            40000,
            443,
            Bytes::from(vec![0xAB; MAX_UDP_PAYLOAD]),
        );
        let bytes = to_bytes(std::slice::from_ref(&at_limit)).unwrap();
        assert_eq!(from_bytes(&bytes).unwrap(), vec![at_limit]);

        let over = PacketRecord::udp(
            Timestamp::from_micros(1),
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(128, 0, 0, 1),
            40000,
            443,
            Bytes::from(vec![0xAB; MAX_UDP_PAYLOAD + 1]),
        );
        let err = to_bytes(std::slice::from_ref(&over)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn streaming_iteration() {
        let bytes = to_bytes(&samples()).unwrap();
        let reader = ZeroCopyCaptureReader::from_bytes(bytes).unwrap();
        let mut count = 0;
        for record in reader {
            record.unwrap();
            count += 1;
        }
        assert_eq!(count, 4);
    }
}
