//! IPv4/UDP/TCP/ICMP packet serialization — real layer-3/4 headers with
//! checksums.
//!
//! The simulation's [`PacketRecord`] keeps
//! parsed metadata; this module lowers records to actual IPv4 packets,
//! so captures can be exported to libpcap and inspected with standard
//! tooling (the paper's methodology leans on Wireshark dissection,
//! §4.1). Parsing packets back is test-only: the reference the encoder
//! is checked against.

use crate::record::{IcmpKind, PacketRecord, Transport};
use std::net::Ipv4Addr;

/// IPv4 protocol numbers.
mod proto {
    pub const ICMP: u8 = 1;
    pub const TCP: u8 = 6;
    pub const UDP: u8 = 17;
}

/// RFC 1071 Internet checksum over `data` (with an optional seed for
/// pseudo-header folding).
pub fn internet_checksum(data: &[u8], seed: u32) -> u16 {
    let mut sum = seed;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

fn pseudo_header_seed(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, len: u16) -> u32 {
    let s = u32::from(src);
    let d = u32::from(dst);
    (s >> 16) + (s & 0xffff) + (d >> 16) + (d & 0xffff) + u32::from(protocol) + u32::from(len)
}

/// Serializes a record to a raw IPv4 packet (header + transport).
pub fn encode_ipv4(record: &PacketRecord) -> Vec<u8> {
    let (protocol, transport_bytes) = match &record.transport {
        Transport::Udp {
            src_port,
            dst_port,
            payload,
        } => {
            let len = (8 + payload.len()) as u16;
            let mut t = Vec::with_capacity(len as usize);
            t.extend_from_slice(&src_port.to_be_bytes());
            t.extend_from_slice(&dst_port.to_be_bytes());
            t.extend_from_slice(&len.to_be_bytes());
            t.extend_from_slice(&[0, 0]); // checksum placeholder
            t.extend_from_slice(payload);
            let seed = pseudo_header_seed(record.src, record.dst, proto::UDP, len);
            let mut checksum = internet_checksum(&t, seed);
            if checksum == 0 {
                checksum = 0xffff; // RFC 768: zero means "no checksum"
            }
            t[6..8].copy_from_slice(&checksum.to_be_bytes());
            (proto::UDP, t)
        }
        Transport::Tcp {
            src_port,
            dst_port,
            flags,
        } => {
            let mut t = Vec::with_capacity(20);
            t.extend_from_slice(&src_port.to_be_bytes());
            t.extend_from_slice(&dst_port.to_be_bytes());
            t.extend_from_slice(&0u32.to_be_bytes()); // seq
            t.extend_from_slice(&0u32.to_be_bytes()); // ack
            let mut flag_bits = 0u8;
            if flags.fin {
                flag_bits |= 0x01;
            }
            if flags.syn {
                flag_bits |= 0x02;
            }
            if flags.rst {
                flag_bits |= 0x04;
            }
            if flags.ack {
                flag_bits |= 0x10;
            }
            t.push(5 << 4); // data offset 5 words
            t.push(flag_bits);
            t.extend_from_slice(&0xffffu16.to_be_bytes()); // window
            t.extend_from_slice(&[0, 0]); // checksum placeholder
            t.extend_from_slice(&[0, 0]); // urgent
            let seed = pseudo_header_seed(record.src, record.dst, proto::TCP, 20);
            let checksum = internet_checksum(&t, seed);
            t[16..18].copy_from_slice(&checksum.to_be_bytes());
            (proto::TCP, t)
        }
        Transport::Icmp { kind } => {
            let (ty, code) = match kind {
                IcmpKind::EchoRequest => (8u8, 0u8),
                IcmpKind::EchoReply => (0, 0),
                IcmpKind::DestUnreachable => (3, 3), // port unreachable
                IcmpKind::TtlExceeded => (11, 0),
            };
            let mut t = vec![ty, code, 0, 0, 0, 0, 0, 0];
            let checksum = internet_checksum(&t, 0);
            t[2..4].copy_from_slice(&checksum.to_be_bytes());
            (proto::ICMP, t)
        }
    };

    let total_len = (20 + transport_bytes.len()) as u16;
    let mut packet = Vec::with_capacity(total_len as usize);
    packet.push(0x45); // version 4, IHL 5
    packet.push(0); // DSCP/ECN
    packet.extend_from_slice(&total_len.to_be_bytes());
    packet.extend_from_slice(&[0, 0]); // identification
    packet.extend_from_slice(&[0x40, 0]); // don't-fragment
    packet.push(64); // TTL
    packet.push(protocol);
    packet.extend_from_slice(&[0, 0]); // header checksum placeholder
    packet.extend_from_slice(&record.src.octets());
    packet.extend_from_slice(&record.dst.octets());
    let checksum = internet_checksum(&packet, 0);
    packet[10..12].copy_from_slice(&checksum.to_be_bytes());
    packet.extend_from_slice(&transport_bytes);
    packet
}

/// The decoding half: parses raw IPv4 packets back into records, the
/// reference the encoder and the pcap writer are tested against.
#[cfg(test)]
pub(crate) mod decode {
    use super::*;
    use crate::record::TcpFlags;
    use crate::time::Timestamp;
    use bytes::Bytes;
    use std::fmt;

    /// Errors from parsing raw IPv4 packets.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum L3Error {
        /// Packet shorter than its headers claim.
        Truncated(&'static str),
        /// Not IPv4 or an unsupported header layout.
        Unsupported(&'static str),
        /// A checksum failed verification.
        BadChecksum(&'static str),
    }

    impl fmt::Display for L3Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                L3Error::Truncated(what) => write!(f, "truncated {what}"),
                L3Error::Unsupported(what) => write!(f, "unsupported {what}"),
                L3Error::BadChecksum(what) => write!(f, "bad checksum in {what}"),
            }
        }
    }

    impl std::error::Error for L3Error {}

    /// Parses a raw IPv4 packet back into a record (checksums verified).
    ///
    /// # Errors
    /// [`L3Error`] describing the first problem.
    pub fn decode_ipv4(ts: Timestamp, packet: &[u8]) -> Result<PacketRecord, L3Error> {
        if packet.len() < 20 {
            return Err(L3Error::Truncated("ipv4 header"));
        }
        if packet[0] >> 4 != 4 {
            return Err(L3Error::Unsupported("ip version"));
        }
        let ihl = usize::from(packet[0] & 0x0f) * 4;
        if ihl < 20 || packet.len() < ihl {
            return Err(L3Error::Truncated("ipv4 options"));
        }
        if internet_checksum(&packet[..ihl], 0) != 0 {
            return Err(L3Error::BadChecksum("ipv4 header"));
        }
        let total_len = usize::from(u16::from_be_bytes([packet[2], packet[3]]));
        if packet.len() < total_len {
            return Err(L3Error::Truncated("ipv4 payload"));
        }
        let protocol = packet[9];
        let src = Ipv4Addr::new(packet[12], packet[13], packet[14], packet[15]);
        let dst = Ipv4Addr::new(packet[16], packet[17], packet[18], packet[19]);
        let body = &packet[ihl..total_len];

        let transport = match protocol {
            proto::UDP => {
                if body.len() < 8 {
                    return Err(L3Error::Truncated("udp header"));
                }
                let src_port = u16::from_be_bytes([body[0], body[1]]);
                let dst_port = u16::from_be_bytes([body[2], body[3]]);
                let len = usize::from(u16::from_be_bytes([body[4], body[5]]));
                if len < 8 || body.len() < len {
                    return Err(L3Error::Truncated("udp payload"));
                }
                let seed = pseudo_header_seed(src, dst, proto::UDP, len as u16);
                if internet_checksum(&body[..len], seed) != 0 {
                    return Err(L3Error::BadChecksum("udp"));
                }
                Transport::Udp {
                    src_port,
                    dst_port,
                    payload: Bytes::copy_from_slice(&body[8..len]),
                }
            }
            proto::TCP => {
                if body.len() < 20 {
                    return Err(L3Error::Truncated("tcp header"));
                }
                let seed = pseudo_header_seed(src, dst, proto::TCP, body.len() as u16);
                if internet_checksum(body, seed) != 0 {
                    return Err(L3Error::BadChecksum("tcp"));
                }
                let flag_bits = body[13];
                Transport::Tcp {
                    src_port: u16::from_be_bytes([body[0], body[1]]),
                    dst_port: u16::from_be_bytes([body[2], body[3]]),
                    flags: TcpFlags {
                        fin: flag_bits & 0x01 != 0,
                        syn: flag_bits & 0x02 != 0,
                        rst: flag_bits & 0x04 != 0,
                        ack: flag_bits & 0x10 != 0,
                    },
                }
            }
            proto::ICMP => {
                if body.len() < 8 {
                    return Err(L3Error::Truncated("icmp header"));
                }
                if internet_checksum(body, 0) != 0 {
                    return Err(L3Error::BadChecksum("icmp"));
                }
                let kind = match (body[0], body[1]) {
                    (8, _) => IcmpKind::EchoRequest,
                    (0, _) => IcmpKind::EchoReply,
                    (3, _) => IcmpKind::DestUnreachable,
                    (11, _) => IcmpKind::TtlExceeded,
                    _ => return Err(L3Error::Unsupported("icmp type")),
                };
                Transport::Icmp { kind }
            }
            _ => return Err(L3Error::Unsupported("ip protocol")),
        };

        Ok(PacketRecord {
            ts,
            src,
            dst,
            transport,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::decode::{decode_ipv4, L3Error};
    use super::*;
    use crate::record::TcpFlags;
    use crate::time::Timestamp;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn ip(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, 3, 4)
    }

    fn samples() -> Vec<PacketRecord> {
        vec![
            PacketRecord::udp(
                Timestamp::from_secs(1),
                ip(1, 2),
                ip(128, 0),
                40_000,
                443,
                Bytes::from_static(b"\xc3quic payload"),
            ),
            PacketRecord::udp(
                Timestamp::from_secs(2),
                ip(9, 9),
                ip(128, 1),
                443,
                1234,
                Bytes::new(),
            ),
            PacketRecord::tcp(
                Timestamp::from_secs(3),
                ip(8, 8),
                ip(128, 2),
                443,
                5555,
                TcpFlags::SYN_ACK,
            ),
            PacketRecord::icmp(
                Timestamp::from_secs(4),
                ip(7, 7),
                ip(128, 3),
                IcmpKind::DestUnreachable,
            ),
        ]
    }

    #[test]
    fn roundtrip_all_transports() {
        for record in samples() {
            let wire = encode_ipv4(&record);
            let back = decode_ipv4(record.ts, &wire).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn ipv4_header_is_wireshark_sane() {
        let record = &samples()[0];
        let wire = encode_ipv4(record);
        assert_eq!(wire[0], 0x45);
        assert_eq!(wire[9], 17, "protocol UDP");
        assert_eq!(&wire[12..16], &record.src.octets());
        assert_eq!(&wire[16..20], &record.dst.octets());
        let total = u16::from_be_bytes([wire[2], wire[3]]) as usize;
        assert_eq!(total, wire.len());
        // Header checksum verifies to zero.
        assert_eq!(internet_checksum(&wire[..20], 0), 0);
    }

    #[test]
    fn corrupted_checksums_rejected() {
        for record in samples() {
            let mut wire = encode_ipv4(&record);
            // Flip a payload/header byte past the IP header.
            let idx = wire.len() - 1;
            wire[idx] ^= 0xff;
            let result = decode_ipv4(record.ts, &wire);
            assert!(
                matches!(
                    result,
                    Err(L3Error::BadChecksum(_)) | Err(L3Error::Truncated(_))
                ),
                "corruption must be detected, got {result:?}"
            );
        }
    }

    #[test]
    fn corrupted_ip_header_rejected() {
        let mut wire = encode_ipv4(&samples()[0]);
        wire[8] = 63; // change TTL without fixing the checksum
        assert_eq!(
            decode_ipv4(Timestamp::EPOCH, &wire),
            Err(L3Error::BadChecksum("ipv4 header"))
        );
    }

    #[test]
    fn truncation_rejected() {
        let wire = encode_ipv4(&samples()[0]);
        for cut in [0, 10, 19, 24] {
            assert!(decode_ipv4(Timestamp::EPOCH, &wire[..cut]).is_err());
        }
    }

    #[test]
    fn non_ipv4_rejected() {
        let mut wire = encode_ipv4(&samples()[0]);
        wire[0] = 0x65; // version 6
        assert_eq!(
            decode_ipv4(Timestamp::EPOCH, &wire),
            Err(L3Error::Unsupported("ip version"))
        );
    }

    #[test]
    fn checksum_rfc1071_examples() {
        // Canonical example: checksum of the example header from
        // RFC 1071 discussions verifies to zero after insertion.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let c = internet_checksum(&data, 0);
        let mut with = data.to_vec();
        with.extend_from_slice(&c.to_be_bytes());
        assert_eq!(internet_checksum(&with, 0), 0);
        // Odd-length input.
        assert_ne!(internet_checksum(&[0xab], 0), 0);
    }

    proptest! {
        #[test]
        fn prop_udp_roundtrip(
            src in any::<u32>(),
            dst in any::<u32>(),
            sp in any::<u16>(),
            dp in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let record = PacketRecord::udp(
                Timestamp::from_secs(5),
                Ipv4Addr::from(src),
                Ipv4Addr::from(dst),
                sp,
                dp,
                Bytes::from(payload),
            );
            let wire = encode_ipv4(&record);
            prop_assert_eq!(decode_ipv4(record.ts, &wire).unwrap(), record);
        }

        #[test]
        fn prop_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = decode_ipv4(Timestamp::EPOCH, &data);
        }
    }
}
