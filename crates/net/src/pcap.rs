//! Classic libpcap export (LINKTYPE_RAW: raw IPv4 packets).
//!
//! Lets any capture produced by this project be opened in Wireshark —
//! whose dissectors are exactly the tool the paper's methodology builds
//! on (§4.1). Export is the one pcap job; the reader in the tests reads
//! the writer's output back.
//!
//! Format: the classic (non-ng) container, microsecond timestamps,
//! little-endian magic `0xa1b2c3d4`, linktype 101 (RAW).

use crate::l3::encode_ipv4;
use crate::record::PacketRecord;
use std::io::{self, Write};

/// Classic pcap magic (microsecond resolution, our byte order).
pub const PCAP_MAGIC: u32 = 0xa1b2_c3d4;
/// LINKTYPE_RAW: packets begin with the IPv4/IPv6 header.
pub const LINKTYPE_RAW: u32 = 101;
/// Snap length written into the global header.
pub const SNAPLEN: u32 = 65_535;

/// Writes records as a classic pcap stream.
pub struct PcapWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Creates the writer and emits the global header.
    ///
    /// # Errors
    /// IO errors from the sink.
    pub fn new(mut inner: W) -> io::Result<Self> {
        inner.write_all(&PCAP_MAGIC.to_le_bytes())?;
        inner.write_all(&2u16.to_le_bytes())?; // version major
        inner.write_all(&4u16.to_le_bytes())?; // version minor
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&SNAPLEN.to_le_bytes())?;
        inner.write_all(&LINKTYPE_RAW.to_le_bytes())?;
        Ok(PcapWriter { inner, written: 0 })
    }

    /// Appends one record (serialized to a raw IPv4 packet).
    ///
    /// # Errors
    /// IO errors from the sink.
    pub fn write(&mut self, record: &PacketRecord) -> io::Result<()> {
        let packet = encode_ipv4(record);
        let micros = record.ts.as_micros();
        self.inner
            .write_all(&((micros / 1_000_000) as u32).to_le_bytes())?;
        self.inner
            .write_all(&((micros % 1_000_000) as u32).to_le_bytes())?;
        self.inner.write_all(&(packet.len() as u32).to_le_bytes())?;
        self.inner.write_all(&(packet.len() as u32).to_le_bytes())?;
        self.inner.write_all(&packet)?;
        self.written += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        self.written
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

/// Serializes records to in-memory pcap bytes.
///
/// # Errors
/// Propagates IO errors (none for Vec sinks in practice).
pub fn to_pcap_bytes(records: &[PacketRecord]) -> io::Result<Vec<u8>> {
    let mut writer = PcapWriter::new(Vec::new())?;
    for record in records {
        writer.write(record)?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l3::decode::{decode_ipv4, L3Error};
    use crate::time::Timestamp;
    use std::fmt;
    use std::io::Read;

    // The import half: reads back what the writer wrote, the reference
    // the writer is tested against.

    /// Errors from reading a pcap stream.
    #[derive(Debug)]
    pub enum PcapError {
        /// Underlying IO failure.
        Io(io::Error),
        /// Bad magic (or an unsupported pcap flavour).
        BadMagic(u32),
        /// Unsupported link type.
        BadLinkType(u32),
        /// A packet body failed to parse as IPv4.
        BadPacket(L3Error),
        /// Record header cut short.
        Truncated,
    }

    impl fmt::Display for PcapError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                PcapError::Io(e) => write!(f, "io error: {e}"),
                PcapError::BadMagic(m) => write!(f, "bad pcap magic {m:#010x}"),
                PcapError::BadLinkType(t) => write!(f, "unsupported linktype {t}"),
                PcapError::BadPacket(e) => write!(f, "bad packet: {e}"),
                PcapError::Truncated => write!(f, "truncated pcap record"),
            }
        }
    }

    impl std::error::Error for PcapError {}

    impl From<io::Error> for PcapError {
        fn from(e: io::Error) -> Self {
            PcapError::Io(e)
        }
    }

    /// Reads a classic pcap stream of raw IPv4 packets.
    pub struct PcapReader<R: Read> {
        inner: R,
    }

    impl<R: Read> PcapReader<R> {
        /// Creates the reader, validating the global header.
        ///
        /// # Errors
        /// [`PcapError`] on bad magic/linktype or IO failure.
        pub fn new(mut inner: R) -> Result<Self, PcapError> {
            let mut header = [0u8; 24];
            inner.read_exact(&mut header)?;
            let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
            if magic != PCAP_MAGIC {
                return Err(PcapError::BadMagic(magic));
            }
            let linktype = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes"));
            if linktype != LINKTYPE_RAW {
                return Err(PcapError::BadLinkType(linktype));
            }
            Ok(PcapReader { inner })
        }

        fn read_record(&mut self) -> Result<Option<PacketRecord>, PcapError> {
            let mut header = [0u8; 16];
            match self.inner.read_exact(&mut header) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
                Err(e) => return Err(e.into()),
            }
            let secs = u32::from_le_bytes(header[0..4].try_into().expect("4"));
            let micros = u32::from_le_bytes(header[4..8].try_into().expect("4"));
            let incl = u32::from_le_bytes(header[8..12].try_into().expect("4")) as usize;
            let mut packet = vec![0u8; incl];
            self.inner.read_exact(&mut packet).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    PcapError::Truncated
                } else {
                    PcapError::Io(e)
                }
            })?;
            let ts = Timestamp::from_micros(u64::from(secs) * 1_000_000 + u64::from(micros));
            decode_ipv4(ts, &packet)
                .map(Some)
                .map_err(PcapError::BadPacket)
        }
    }

    impl<R: Read> Iterator for PcapReader<R> {
        type Item = Result<PacketRecord, PcapError>;

        fn next(&mut self) -> Option<Self::Item> {
            self.read_record().transpose()
        }
    }

    /// Parses in-memory pcap bytes.
    ///
    /// # Errors
    /// [`PcapError`] on malformed input.
    pub fn from_pcap_bytes(data: &[u8]) -> Result<Vec<PacketRecord>, PcapError> {
        PcapReader::new(data)?.collect()
    }

    use crate::record::{IcmpKind, TcpFlags};
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    fn samples() -> Vec<PacketRecord> {
        vec![
            PacketRecord::udp(
                Timestamp::from_micros(1_500_000),
                Ipv4Addr::new(1, 2, 3, 4),
                Ipv4Addr::new(128, 0, 0, 1),
                40_000,
                443,
                Bytes::from_static(b"payload"),
            ),
            PacketRecord::tcp(
                Timestamp::from_secs(2),
                Ipv4Addr::new(9, 9, 9, 9),
                Ipv4Addr::new(128, 1, 1, 1),
                443,
                5555,
                TcpFlags::SYN_ACK,
            ),
            PacketRecord::icmp(
                Timestamp::from_secs(3),
                Ipv4Addr::new(8, 8, 8, 8),
                Ipv4Addr::new(128, 2, 2, 2),
                IcmpKind::EchoReply,
            ),
        ]
    }

    #[test]
    fn roundtrip() {
        let records = samples();
        let bytes = to_pcap_bytes(&records).unwrap();
        let back = from_pcap_bytes(&bytes).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn global_header_layout() {
        let bytes = to_pcap_bytes(&[]).unwrap();
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[0..4], &PCAP_MAGIC.to_le_bytes());
        assert_eq!(&bytes[20..24], &LINKTYPE_RAW.to_le_bytes());
    }

    #[test]
    fn timestamps_preserved_with_microseconds() {
        let bytes = to_pcap_bytes(&samples()).unwrap();
        let back = from_pcap_bytes(&bytes).unwrap();
        assert_eq!(back[0].ts.as_micros(), 1_500_000);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_pcap_bytes(&samples()).unwrap();
        bytes[0] ^= 0xff;
        assert!(matches!(
            from_pcap_bytes(&bytes),
            Err(PcapError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_linktype_rejected() {
        let mut bytes = to_pcap_bytes(&[]).unwrap();
        bytes[20] = 1; // LINKTYPE_ETHERNET
        assert!(matches!(
            from_pcap_bytes(&bytes),
            Err(PcapError::BadLinkType(1))
        ));
    }

    #[test]
    fn truncated_record_detected() {
        let bytes = to_pcap_bytes(&samples()).unwrap();
        let result = from_pcap_bytes(&bytes[..bytes.len() - 3]);
        assert!(matches!(result, Err(PcapError::Truncated)), "{result:?}");
    }

    #[test]
    fn writer_counts() {
        let mut writer = PcapWriter::new(Vec::new()).unwrap();
        for r in samples() {
            writer.write(&r).unwrap();
        }
        assert_eq!(writer.written(), 3);
    }

    #[test]
    fn capture_and_pcap_agree() {
        // The two persistence formats hold the same information.
        let records = samples();
        let via_pcap = from_pcap_bytes(&to_pcap_bytes(&records).unwrap()).unwrap();
        let via_qscp =
            crate::capture::from_bytes(&crate::capture::to_bytes(&records).unwrap()).unwrap();
        assert_eq!(via_pcap, via_qscp);
    }
}
