//! Packet records: the telescope's unit of storage.
//!
//! A record is the layer-3/4 metadata plus transport payload of one
//! captured packet — the same information a pcap of the UCSD telescope
//! would provide after Ethernet/IP decapsulation. TCP and ICMP records
//! carry the flag/type information needed to classify common backscatter
//! (SYN-ACK, RST, echo replies, port unreachable) as in Jonker et al.,
//! which the paper reuses for its TCP/ICMP comparison baseline.

use crate::time::Timestamp;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// TCP header flags (subset relevant to backscatter classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TcpFlags {
    /// SYN flag.
    pub syn: bool,
    /// ACK flag.
    pub ack: bool,
    /// RST flag.
    pub rst: bool,
    /// FIN flag.
    pub fin: bool,
}

impl TcpFlags {
    /// A SYN segment (connection request — what a scanner or SYN flood
    /// sends).
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        rst: false,
        fin: false,
    };
    /// A SYN-ACK segment (what a flood victim reflects to spoofed
    /// sources — classic backscatter).
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        rst: false,
        fin: false,
    };
    /// An RST segment (victim refusing or tearing down).
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        rst: true,
        fin: false,
    };
    /// An RST-ACK segment.
    pub const RST_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        rst: true,
        fin: false,
    };

    /// Whether these flags mark a *response* (backscatter) rather than a
    /// request: any ACK or RST.
    pub fn is_response(self) -> bool {
        self.ack || self.rst
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (set, label) in [
            (self.syn, "SYN"),
            (self.ack, "ACK"),
            (self.rst, "RST"),
            (self.fin, "FIN"),
        ] {
            if set {
                if any {
                    write!(f, "|")?;
                }
                write!(f, "{label}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// ICMP message kinds relevant to background radiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IcmpKind {
    /// Echo request (type 8) — ping scans and ICMP floods.
    EchoRequest,
    /// Echo reply (type 0) — backscatter from ping floods.
    EchoReply,
    /// Destination unreachable (type 3) — victims of UDP floods reply
    /// with port-unreachable.
    DestUnreachable,
    /// TTL exceeded (type 11).
    TtlExceeded,
}

impl IcmpKind {
    /// Whether this kind is a response generated by a victim.
    pub fn is_response(self) -> bool {
        matches!(self, IcmpKind::EchoReply | IcmpKind::DestUnreachable)
    }
}

/// The transport layer of a record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transport {
    /// UDP with ports and opaque payload (QUIC rides here).
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// UDP payload bytes.
        #[serde(with = "serde_bytes_shim")]
        payload: Bytes,
    },
    /// TCP with ports and flags; payload irrelevant to the analyses.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Header flags.
        flags: TcpFlags,
    },
    /// ICMP message.
    Icmp {
        /// Message kind.
        kind: IcmpKind,
    },
}

/// Serde shim for `bytes::Bytes` (serde support for `Bytes` is gated
/// behind a feature of the bytes crate; the shim keeps the dependency
/// surface minimal).
mod serde_bytes_shim {
    use bytes::Bytes;
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(bytes: &Bytes, ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_bytes(bytes)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<Bytes, D::Error> {
        let v: Vec<u8> = Vec::deserialize(de)?;
        Ok(Bytes::from(v))
    }
}

impl Transport {
    /// Source port if the transport has one.
    pub fn src_port(&self) -> Option<u16> {
        match self {
            Transport::Udp { src_port, .. } | Transport::Tcp { src_port, .. } => Some(*src_port),
            Transport::Icmp { .. } => None,
        }
    }

    /// Destination port if the transport has one.
    pub fn dst_port(&self) -> Option<u16> {
        match self {
            Transport::Udp { dst_port, .. } | Transport::Tcp { dst_port, .. } => Some(*dst_port),
            Transport::Icmp { .. } => None,
        }
    }
}

/// One captured packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketRecord {
    /// Capture timestamp.
    pub ts: Timestamp,
    /// IPv4 source address (for backscatter: the victim; for scans: the
    /// scanner).
    pub src: Ipv4Addr,
    /// IPv4 destination address (always inside the telescope prefix for
    /// captured IBR).
    pub dst: Ipv4Addr,
    /// Transport layer.
    pub transport: Transport,
}

// Decoded records are written, moved and scanned by the hundred thousand:
// their size shows in decode and admit time (a layout change alone has
// moved a TCP-only analysis by ~30 %) and in batch memory, so it changes
// only on purpose.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<PacketRecord>() == 48);

impl PacketRecord {
    /// Builds a UDP record.
    pub fn udp(
        ts: Timestamp,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
    ) -> Self {
        PacketRecord {
            ts,
            src,
            dst,
            transport: Transport::Udp {
                src_port,
                dst_port,
                payload,
            },
        }
    }

    /// Builds a TCP record.
    pub fn tcp(
        ts: Timestamp,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        flags: TcpFlags,
    ) -> Self {
        PacketRecord {
            ts,
            src,
            dst,
            transport: Transport::Tcp {
                src_port,
                dst_port,
                flags,
            },
        }
    }

    /// Builds an ICMP record.
    pub fn icmp(ts: Timestamp, src: Ipv4Addr, dst: Ipv4Addr, kind: IcmpKind) -> Self {
        PacketRecord {
            ts,
            src,
            dst,
            transport: Transport::Icmp { kind },
        }
    }

    /// The UDP payload, if this is a UDP packet.
    pub fn udp_payload(&self) -> Option<&Bytes> {
        match &self.transport {
            Transport::Udp { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// Approximate on-the-wire size in bytes (IPv4 header + transport
    /// header + payload), used for volume accounting.
    pub fn wire_size(&self) -> usize {
        20 + match &self.transport {
            Transport::Udp { payload, .. } => 8 + payload.len(),
            Transport::Tcp { .. } => 20,
            Transport::Icmp { .. } => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn builders_and_accessors() {
        let udp = PacketRecord::udp(
            Timestamp::from_secs(1),
            ip(1, 2, 3, 4),
            ip(128, 0, 0, 1),
            5555,
            443,
            Bytes::from_static(b"quic"),
        );
        assert_eq!(udp.transport.src_port(), Some(5555));
        assert_eq!(udp.transport.dst_port(), Some(443));
        assert_eq!(udp.udp_payload().unwrap().as_ref(), b"quic");

        let tcp = PacketRecord::tcp(
            Timestamp::from_secs(2),
            ip(9, 9, 9, 9),
            ip(128, 1, 1, 1),
            443,
            1234,
            TcpFlags::SYN_ACK,
        );
        assert!(tcp.udp_payload().is_none());

        let icmp = PacketRecord::icmp(
            Timestamp::from_secs(3),
            ip(8, 8, 8, 8),
            ip(128, 2, 2, 2),
            IcmpKind::EchoReply,
        );
        assert_eq!(icmp.transport.src_port(), None);
        assert_eq!(icmp.transport.dst_port(), None);
    }

    #[test]
    fn tcp_flag_classification() {
        assert!(!TcpFlags::SYN.is_response());
        assert!(TcpFlags::SYN_ACK.is_response());
        assert!(TcpFlags::RST.is_response());
        assert!(TcpFlags::RST_ACK.is_response());
        assert!(!TcpFlags::default().is_response());
    }

    #[test]
    fn icmp_classification() {
        assert!(!IcmpKind::EchoRequest.is_response());
        assert!(IcmpKind::EchoReply.is_response());
        assert!(IcmpKind::DestUnreachable.is_response());
        assert!(!IcmpKind::TtlExceeded.is_response());
    }

    #[test]
    fn flag_display() {
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::RST.to_string(), "RST");
        assert_eq!(TcpFlags::default().to_string(), "-");
    }

    #[test]
    fn wire_sizes() {
        let udp = PacketRecord::udp(
            Timestamp::EPOCH,
            ip(1, 1, 1, 1),
            ip(2, 2, 2, 2),
            1,
            2,
            Bytes::from(vec![0u8; 100]),
        );
        assert_eq!(udp.wire_size(), 20 + 8 + 100);
        let tcp = PacketRecord::tcp(
            Timestamp::EPOCH,
            ip(1, 1, 1, 1),
            ip(2, 2, 2, 2),
            1,
            2,
            TcpFlags::SYN,
        );
        assert_eq!(tcp.wire_size(), 40);
        let icmp = PacketRecord::icmp(
            Timestamp::EPOCH,
            ip(1, 1, 1, 1),
            ip(2, 2, 2, 2),
            IcmpKind::EchoRequest,
        );
        assert_eq!(icmp.wire_size(), 28);
    }
}
