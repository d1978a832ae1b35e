//! QUIC packet headers (RFC 9000 §17).
//!
//! Long headers carry the version and both connection IDs and are used
//! during handshakes — which is all a telescope ever sees of a flood.
//! Short (1-RTT) headers carry only the destination connection ID.

use crate::cid::ConnectionId;
use crate::error::{WireError, WireResult};
use crate::version::Version;
use bytes::{Buf, BufMut};

/// Form bit: set for long headers (RFC 9000 §17.2).
pub const FORM_BIT: u8 = 0x80;
/// Fixed bit: must be set in all v1 packets (RFC 9000 §17.2/§17.3).
pub const FIXED_BIT: u8 = 0x40;

/// The four long-header packet types (RFC 9000 §17.2, Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LongPacketType {
    /// Initial packet — carries the first CRYPTO flight and a token field.
    Initial,
    /// 0-RTT packet — early application data.
    ZeroRtt,
    /// Handshake packet — the remainder of the TLS handshake.
    Handshake,
    /// Retry packet — address-validation challenge (Table 1's defence).
    Retry,
}

impl LongPacketType {
    /// The two type bits as placed in bits 4–5 of the first byte.
    pub fn bits(self) -> u8 {
        match self {
            LongPacketType::Initial => 0b00,
            LongPacketType::ZeroRtt => 0b01,
            LongPacketType::Handshake => 0b10,
            LongPacketType::Retry => 0b11,
        }
    }

    /// Parses the two type bits.
    pub fn from_bits(bits: u8) -> Self {
        match bits & 0b11 {
            0b00 => LongPacketType::Initial,
            0b01 => LongPacketType::ZeroRtt,
            0b10 => LongPacketType::Handshake,
            _ => LongPacketType::Retry,
        }
    }

    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            LongPacketType::Initial => "Initial",
            LongPacketType::ZeroRtt => "0-RTT",
            LongPacketType::Handshake => "Handshake",
            LongPacketType::Retry => "Retry",
        }
    }
}

/// The invariant prefix of a long-header packet: first byte through the
/// source connection ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LongHeader {
    /// Packet type from the first byte.
    pub ty: LongPacketType,
    /// QUIC version.
    pub version: Version,
    /// Destination connection ID.
    pub dcid: ConnectionId,
    /// Source connection ID.
    pub scid: ConnectionId,
}

impl LongHeader {
    /// Encodes the header prefix. `pn_len` (1–4) fills the low two bits
    /// for packet types that carry a packet number; pass 1 for Retry.
    ///
    /// # Errors
    /// [`WireError::InvalidValue`] for an illegal `pn_len`.
    pub fn encode<B: BufMut>(&self, buf: &mut B, pn_len: usize) -> WireResult<()> {
        if !(1..=4).contains(&pn_len) {
            return Err(WireError::InvalidValue {
                what: "packet number length",
            });
        }
        let first = FORM_BIT | FIXED_BIT | (self.ty.bits() << 4) | ((pn_len as u8) - 1);
        buf.put_u8(first);
        buf.put_u32(self.version.to_wire());
        self.dcid.encode_with_len(buf);
        self.scid.encode_with_len(buf);
        Ok(())
    }

    /// Decodes a long-header prefix, returning the header, the raw first
    /// byte (callers need its packet-number-length bits) — the buffer is
    /// left positioned after the SCID.
    ///
    /// # Errors
    /// Any [`WireError`] describing the malformation; notably
    /// [`WireError::FixedBitUnset`] for non-QUIC UDP payloads, which is
    /// the dissector's primary rejection path.
    pub fn decode<B: Buf>(buf: &mut B) -> WireResult<(Self, u8)> {
        if buf.remaining() < 1 {
            return Err(WireError::UnexpectedEnd { what: "first byte" });
        }
        let first = buf.get_u8();
        if first & FORM_BIT == 0 {
            return Err(WireError::InvalidValue {
                what: "form bit (short header)",
            });
        }
        if buf.remaining() < 4 {
            return Err(WireError::UnexpectedEnd { what: "version" });
        }
        let version = Version::from_wire(buf.get_u32());
        // Version Negotiation packets are exempt from the fixed bit
        // (RFC 9000 §17.2.1); everything else must set it.
        if version != Version::Negotiation && first & FIXED_BIT == 0 {
            return Err(WireError::FixedBitUnset);
        }
        let dcid = ConnectionId::decode_with_len(buf)?;
        let scid = ConnectionId::decode_with_len(buf)?;
        let ty = LongPacketType::from_bits(first >> 4);
        Ok((
            LongHeader {
                ty,
                version,
                dcid,
                scid,
            },
            first,
        ))
    }

    /// Packet-number length encoded in a first byte (valid for Initial,
    /// 0-RTT and Handshake packets after header-protection removal).
    pub fn pn_len_from_first_byte(first: u8) -> usize {
        ((first & 0b11) + 1) as usize
    }
}

/// A short (1-RTT) header. The DCID length is not self-describing; the
/// receiver must know it out-of-band (RFC 9000 §17.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortHeader {
    /// Destination connection ID.
    pub dcid: ConnectionId,
    /// Latency spin bit.
    pub spin: bool,
    /// Key phase bit.
    pub key_phase: bool,
}

impl ShortHeader {
    /// Encodes the short header with the given packet-number length.
    ///
    /// # Errors
    /// [`WireError::InvalidValue`] for an illegal `pn_len`.
    pub fn encode<B: BufMut>(&self, buf: &mut B, pn_len: usize) -> WireResult<()> {
        if !(1..=4).contains(&pn_len) {
            return Err(WireError::InvalidValue {
                what: "packet number length",
            });
        }
        let mut first = FIXED_BIT | ((pn_len as u8) - 1);
        if self.spin {
            first |= 0x20;
        }
        if self.key_phase {
            first |= 0x04;
        }
        buf.put_u8(first);
        buf.put_slice(self.dcid.as_slice());
        Ok(())
    }

    /// Decodes a short header whose DCID is known to be `dcid_len` bytes.
    ///
    /// # Errors
    /// Standard [`WireError`] variants on malformed or truncated input.
    pub fn decode<B: Buf>(buf: &mut B, dcid_len: usize) -> WireResult<(Self, u8)> {
        if buf.remaining() < 1 {
            return Err(WireError::UnexpectedEnd { what: "first byte" });
        }
        let first = buf.get_u8();
        if first & FORM_BIT != 0 {
            return Err(WireError::InvalidValue {
                what: "form bit (long header)",
            });
        }
        if first & FIXED_BIT == 0 {
            return Err(WireError::FixedBitUnset);
        }
        if dcid_len > crate::cid::MAX_CID_LEN {
            return Err(WireError::CidTooLong(dcid_len));
        }
        if buf.remaining() < dcid_len {
            return Err(WireError::UnexpectedEnd { what: "short dcid" });
        }
        let mut bytes = [0u8; crate::cid::MAX_CID_LEN];
        buf.copy_to_slice(&mut bytes[..dcid_len]);
        let dcid = ConnectionId::new(&bytes[..dcid_len]).expect("<= 20");
        Ok((
            ShortHeader {
                dcid,
                spin: first & 0x20 != 0,
                key_phase: first & 0x04 != 0,
            },
            first,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_long(ty: LongPacketType) -> LongHeader {
        LongHeader {
            ty,
            version: Version::V1,
            dcid: ConnectionId::new(&[1, 2, 3, 4]).unwrap(),
            scid: ConnectionId::new(&[5, 6, 7, 8, 9]).unwrap(),
        }
    }

    #[test]
    fn type_bits_roundtrip() {
        for ty in [
            LongPacketType::Initial,
            LongPacketType::ZeroRtt,
            LongPacketType::Handshake,
            LongPacketType::Retry,
        ] {
            assert_eq!(LongPacketType::from_bits(ty.bits()), ty);
        }
        assert_eq!(LongPacketType::Initial.name(), "Initial");
        assert_eq!(LongPacketType::Handshake.name(), "Handshake");
    }

    #[test]
    fn long_header_roundtrip_all_types() {
        for ty in [
            LongPacketType::Initial,
            LongPacketType::ZeroRtt,
            LongPacketType::Handshake,
            LongPacketType::Retry,
        ] {
            let hdr = sample_long(ty);
            let mut buf = Vec::new();
            hdr.encode(&mut buf, 2).unwrap();
            let mut slice = &buf[..];
            let (decoded, first) = LongHeader::decode(&mut slice).unwrap();
            assert_eq!(decoded, hdr);
            assert_eq!(LongHeader::pn_len_from_first_byte(first), 2);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn first_byte_layout() {
        let hdr = sample_long(LongPacketType::Handshake);
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 4).unwrap();
        // form | fixed | type=10 | pnlen-1=11
        assert_eq!(buf[0], 0b1110_0011);
        // version immediately follows
        assert_eq!(&buf[1..5], &[0, 0, 0, 1]);
    }

    #[test]
    fn rejects_short_form_in_long_decode() {
        let mut slice: &[u8] = &[0x40, 0, 0, 0, 1, 0, 0];
        assert!(matches!(
            LongHeader::decode(&mut slice),
            Err(WireError::InvalidValue { .. })
        ));
    }

    #[test]
    fn rejects_unset_fixed_bit() {
        // Long form, fixed bit clear, version 1.
        let mut slice: &[u8] = &[0x80, 0, 0, 0, 1, 0, 0];
        assert_eq!(
            LongHeader::decode(&mut slice),
            Err(WireError::FixedBitUnset)
        );
    }

    #[test]
    fn version_negotiation_exempt_from_fixed_bit() {
        // Long form, fixed bit clear, version 0 — legal VN prefix.
        let mut slice: &[u8] = &[0x80, 0, 0, 0, 0, 0, 0];
        let (hdr, _) = LongHeader::decode(&mut slice).unwrap();
        assert_eq!(hdr.version, Version::Negotiation);
    }

    #[test]
    fn truncation_points() {
        let hdr = sample_long(LongPacketType::Initial);
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 1).unwrap();
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(
                LongHeader::decode(&mut slice).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn pn_len_bounds_enforced() {
        let hdr = sample_long(LongPacketType::Initial);
        let mut buf = Vec::new();
        assert!(hdr.encode(&mut buf, 0).is_err());
        assert!(hdr.encode(&mut buf, 5).is_err());
    }

    #[test]
    fn short_header_roundtrip() {
        let hdr = ShortHeader {
            dcid: ConnectionId::new(&[9, 9, 9]).unwrap(),
            spin: true,
            key_phase: false,
        };
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 3).unwrap();
        let mut slice = &buf[..];
        let (decoded, first) = ShortHeader::decode(&mut slice, 3).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(LongHeader::pn_len_from_first_byte(first), 3);
    }

    #[test]
    fn short_header_flags() {
        for (spin, key_phase) in [(false, false), (true, false), (false, true), (true, true)] {
            let hdr = ShortHeader {
                dcid: ConnectionId::EMPTY,
                spin,
                key_phase,
            };
            let mut buf = Vec::new();
            hdr.encode(&mut buf, 1).unwrap();
            let mut slice = &buf[..];
            let (decoded, _) = ShortHeader::decode(&mut slice, 0).unwrap();
            assert_eq!(decoded.spin, spin);
            assert_eq!(decoded.key_phase, key_phase);
        }
    }

    #[test]
    fn short_decode_rejects_long_form_and_truncation() {
        let mut long_first: &[u8] = &[0xc0, 1, 2, 3];
        assert!(ShortHeader::decode(&mut long_first, 2).is_err());
        let mut truncated: &[u8] = &[0x40, 1];
        assert!(ShortHeader::decode(&mut truncated, 4).is_err());
        let mut no_fixed: &[u8] = &[0x00, 1, 2];
        assert_eq!(
            ShortHeader::decode(&mut no_fixed, 2),
            Err(WireError::FixedBitUnset)
        );
    }

    proptest! {
        #[test]
        fn prop_long_roundtrip(
            ty_bits in 0u8..4,
            dcid in proptest::collection::vec(any::<u8>(), 0..=20),
            scid in proptest::collection::vec(any::<u8>(), 0..=20),
            pn_len in 1usize..=4,
        ) {
            let hdr = LongHeader {
                ty: LongPacketType::from_bits(ty_bits),
                version: Version::V1,
                dcid: ConnectionId::new(&dcid).unwrap(),
                scid: ConnectionId::new(&scid).unwrap(),
            };
            let mut buf = Vec::new();
            hdr.encode(&mut buf, pn_len).unwrap();
            let mut slice = &buf[..];
            let (decoded, first) = LongHeader::decode(&mut slice).unwrap();
            prop_assert_eq!(decoded, hdr);
            prop_assert_eq!(LongHeader::pn_len_from_first_byte(first), pn_len);
        }

        #[test]
        fn prop_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut slice = &data[..];
            let _ = LongHeader::decode(&mut slice);
            let mut slice = &data[..];
            let _ = ShortHeader::decode(&mut slice, 8);
        }
    }
}
