//! Complete QUIC packets: building (sealing) and parsing (two-stage).
//!
//! Parsing is deliberately split the way a telescope must split it:
//!
//! 1. [`walk_datagram`] — keyless structural parse of a UDP payload into
//!    borrowed [`PacketView`]s, without allocating (QUIC supports
//!    coalescing several packets into one datagram, and servers use this
//!    for the Initial+Handshake flight the paper counts in §6).
//!    [`parse_datagram`] collects the same views into owned
//!    [`ParsedPacket`]s for endpoints that keep them.
//! 2. [`PacketView::open_into`] / [`ParsedPacket::open`] — verify and
//!    decrypt, for passive observers re-deriving Initial keys (into a
//!    reused buffer) and for endpoints (into decoded frames).
//!
//! One deliberate simplification: *header protection* (RFC 9001 §5.4) is
//! not applied, so packet numbers are visible in cleartext. Wireshark
//! removes header protection during dissection anyway (Initial keys are
//! derivable passively), so nothing the paper measures depends on it;
//! see DESIGN.md §2.

use crate::cid::ConnectionId;
use crate::crypto::{open_into, seal, TAG_LEN};
use crate::error::{WireError, WireResult};
use crate::frame::{take, Frame};
use crate::header::{LongHeader, LongPacketType, ShortHeader, FIXED_BIT, FORM_BIT};
use crate::pktnum::{decode_packet_number, read_packet_number, write_packet_number};
use crate::retry::{compute_retry_tag, verify_retry_tag, RETRY_TAG_LEN};
use crate::siphash::SipKey;
use crate::varint::{read_varint, varint_len, write_varint};
use crate::version::Version;
use bytes::{BufMut, Bytes};

/// Plaintext payload of a protected packet, as a frame sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketPayload {
    /// The frames carried by the packet.
    pub frames: Vec<Frame>,
}

impl PacketPayload {
    /// Creates a payload from frames.
    pub fn new(frames: Vec<Frame>) -> Self {
        PacketPayload { frames }
    }

    /// Serializes the frames.
    ///
    /// # Errors
    /// Propagates frame encoding errors.
    pub fn encode(&self) -> WireResult<Vec<u8>> {
        let mut buf = Vec::with_capacity(64);
        for frame in &self.frames {
            frame.encode(&mut buf)?;
        }
        Ok(buf)
    }

    /// Parses a frame sequence.
    ///
    /// # Errors
    /// Propagates frame decoding errors.
    pub fn decode(data: &[u8]) -> WireResult<Self> {
        Ok(PacketPayload {
            frames: Frame::decode_all(data)?,
        })
    }
}

/// A logical QUIC packet, pre-sealing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Initial packet (may carry a retry token).
    Initial {
        /// QUIC version.
        version: Version,
        /// Destination connection ID.
        dcid: ConnectionId,
        /// Source connection ID.
        scid: ConnectionId,
        /// Retry/NEW_TOKEN token (empty for first flights).
        token: Bytes,
        /// Full packet number.
        packet_number: u64,
        /// Plaintext frames.
        payload: PacketPayload,
    },
    /// 0-RTT packet.
    ZeroRtt {
        /// QUIC version.
        version: Version,
        /// Destination connection ID.
        dcid: ConnectionId,
        /// Source connection ID.
        scid: ConnectionId,
        /// Full packet number.
        packet_number: u64,
        /// Plaintext frames.
        payload: PacketPayload,
    },
    /// Handshake packet.
    Handshake {
        /// QUIC version.
        version: Version,
        /// Destination connection ID.
        dcid: ConnectionId,
        /// Source connection ID.
        scid: ConnectionId,
        /// Full packet number.
        packet_number: u64,
        /// Plaintext frames.
        payload: PacketPayload,
    },
    /// Retry packet; the integrity tag is computed at encode time.
    Retry {
        /// QUIC version.
        version: Version,
        /// Destination connection ID (the client's SCID).
        dcid: ConnectionId,
        /// Source connection ID (the server's new CID).
        scid: ConnectionId,
        /// The address-validation token.
        token: Bytes,
        /// The client's original DCID (input to the integrity tag; not
        /// itself serialized).
        original_dcid: ConnectionId,
    },
    /// Version Negotiation packet.
    VersionNegotiation {
        /// Destination connection ID (echoed client SCID).
        dcid: ConnectionId,
        /// Source connection ID (echoed client DCID).
        scid: ConnectionId,
        /// Versions the server supports.
        versions: Vec<Version>,
    },
    /// 1-RTT (short header) packet.
    OneRtt {
        /// Destination connection ID.
        dcid: ConnectionId,
        /// Spin bit.
        spin: bool,
        /// Key phase bit.
        key_phase: bool,
        /// Full packet number.
        packet_number: u64,
        /// Plaintext frames.
        payload: PacketPayload,
    },
}

impl Packet {
    /// Packet-number length used on the wire. Fixed at 4 bytes for
    /// simplicity and maximal reconstruction robustness.
    pub const PN_LEN: usize = 4;

    /// Seals and serializes the packet.
    ///
    /// `key` is required for Initial/0-RTT/Handshake/1-RTT packets and
    /// ignored for Retry and Version Negotiation.
    ///
    /// # Errors
    /// [`WireError::InvalidValue`] if a key is missing for a protected
    /// type, plus any frame encoding error.
    pub fn encode(&self, key: Option<SipKey>) -> WireResult<Vec<u8>> {
        self.encode_min_size(key, 0)
    }

    /// [`encode`](Self::encode), with an Initial's plaintext padded so
    /// the packet reaches `min_size` (other types ignore it).
    fn encode_min_size(&self, key: Option<SipKey>, min_size: usize) -> WireResult<Vec<u8>> {
        match self {
            Packet::Initial {
                version,
                dcid,
                scid,
                token,
                packet_number,
                payload,
            } => {
                let hdr = LongHeader {
                    ty: LongPacketType::Initial,
                    version: *version,
                    dcid: *dcid,
                    scid: *scid,
                };
                let mut extra = Vec::with_capacity(token.len() + 2);
                write_varint(&mut extra, token.len() as u64)?;
                extra.extend_from_slice(token);
                encode_protected(&hdr, &extra, *packet_number, payload, key, min_size)
            }
            Packet::ZeroRtt {
                version,
                dcid,
                scid,
                packet_number,
                payload,
            } => {
                let hdr = LongHeader {
                    ty: LongPacketType::ZeroRtt,
                    version: *version,
                    dcid: *dcid,
                    scid: *scid,
                };
                encode_protected(&hdr, &[], *packet_number, payload, key, 0)
            }
            Packet::Handshake {
                version,
                dcid,
                scid,
                packet_number,
                payload,
            } => {
                let hdr = LongHeader {
                    ty: LongPacketType::Handshake,
                    version: *version,
                    dcid: *dcid,
                    scid: *scid,
                };
                encode_protected(&hdr, &[], *packet_number, payload, key, 0)
            }
            Packet::Retry {
                version,
                dcid,
                scid,
                token,
                original_dcid,
            } => {
                let hdr = LongHeader {
                    ty: LongPacketType::Retry,
                    version: *version,
                    dcid: *dcid,
                    scid: *scid,
                };
                let mut out = Vec::with_capacity(64 + token.len());
                hdr.encode(&mut out, 1)?;
                out.extend_from_slice(token);
                let tag = compute_retry_tag(*version, original_dcid, &out);
                out.extend_from_slice(&tag);
                Ok(out)
            }
            Packet::VersionNegotiation {
                dcid,
                scid,
                versions,
            } => {
                let mut out = Vec::with_capacity(16 + versions.len() * 4);
                out.put_u8(FORM_BIT | FIXED_BIT);
                out.put_u32(0);
                dcid.encode_with_len(&mut out);
                scid.encode_with_len(&mut out);
                for v in versions {
                    out.put_u32(v.to_wire());
                }
                Ok(out)
            }
            Packet::OneRtt {
                dcid,
                spin,
                key_phase,
                packet_number,
                payload,
            } => {
                let key = key.ok_or(WireError::InvalidValue {
                    what: "missing key for protected packet",
                })?;
                let hdr = ShortHeader {
                    dcid: *dcid,
                    spin: *spin,
                    key_phase: *key_phase,
                };
                let mut out = Vec::with_capacity(128);
                hdr.encode(&mut out, Self::PN_LEN)?;
                let header_end = out.len();
                write_packet_number(&mut out, *packet_number, Self::PN_LEN)?;
                let plaintext = payload.encode()?;
                let aad = out[..header_end].to_vec();
                let sealed = seal(key, *packet_number, &aad, &plaintext);
                out.extend_from_slice(&sealed);
                Ok(out)
            }
        }
    }

    /// Pads the encoding of a client Initial to `min_size` by appending
    /// PADDING frames *before* sealing, then encodes.
    ///
    /// # Errors
    /// As for [`Packet::encode`]; also if the packet is not an Initial.
    pub fn encode_padded(&self, key: Option<SipKey>, min_size: usize) -> WireResult<Vec<u8>> {
        if !matches!(self, Packet::Initial { .. }) {
            return Err(WireError::InvalidValue {
                what: "padding only defined for initial packets",
            });
        }
        self.encode_min_size(key, min_size)
    }
}

fn encode_protected(
    hdr: &LongHeader,
    extra_after_scid: &[u8],
    packet_number: u64,
    payload: &PacketPayload,
    key: Option<SipKey>,
    min_size: usize,
) -> WireResult<Vec<u8>> {
    let key = key.ok_or(WireError::InvalidValue {
        what: "missing key for protected packet",
    })?;
    let mut out = Vec::with_capacity(1400);
    hdr.encode(&mut out, Packet::PN_LEN)?;
    out.extend_from_slice(extra_after_scid);
    let mut plaintext = payload.encode()?;
    // PADDING makes up what the unpadded packet (with the Length varint
    // its own body needs) falls short of `min_size`; when the padded body
    // needs a wider Length the packet ends up a byte over, never under.
    let bare_body = Packet::PN_LEN + plaintext.len() + TAG_LEN;
    let bare_len_field = varint_len(bare_body as u64).ok_or(WireError::InvalidValue {
        what: "packet length",
    })?;
    let padding = min_size.saturating_sub(out.len() + bare_len_field + bare_body);
    plaintext.resize(plaintext.len() + padding, 0);
    // Length covers the packet number and the sealed payload.
    write_varint(
        &mut out,
        (Packet::PN_LEN + plaintext.len() + TAG_LEN) as u64,
    )?;
    let aad = out.clone();
    write_packet_number(&mut out, packet_number, Packet::PN_LEN)?;
    let sealed = seal(key, packet_number, &aad, &plaintext);
    out.extend_from_slice(&sealed);
    Ok(out)
}

/// Structural (keyless) view of one packet from a datagram.
///
/// `D` holds the tokens and `V` the Version Negotiation list: owned
/// (`Bytes`, `Vec<Version>`) in the [`ParsedPacket`]s endpoints keep,
/// slices of the datagram in a [`HeaderView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedHeader<D = Bytes, V = Vec<Version>> {
    /// Initial, 0-RTT or Handshake packet.
    Long {
        /// Packet type (never Retry here).
        ty: LongPacketType,
        /// QUIC version.
        version: Version,
        /// Destination connection ID.
        dcid: ConnectionId,
        /// Source connection ID.
        scid: ConnectionId,
        /// Token (Initial packets only; empty otherwise).
        token: D,
        /// Truncated packet number as read from the wire.
        truncated_pn: u64,
        /// Wire length of the packet number.
        pn_len: usize,
    },
    /// Retry packet.
    Retry {
        /// QUIC version.
        version: Version,
        /// Destination connection ID.
        dcid: ConnectionId,
        /// Source connection ID.
        scid: ConnectionId,
        /// Address-validation token.
        token: D,
        /// Integrity tag (verify with [`verify_retry_tag`]).
        tag: [u8; RETRY_TAG_LEN],
    },
    /// Version Negotiation packet.
    VersionNegotiation {
        /// Destination connection ID.
        dcid: ConnectionId,
        /// Source connection ID.
        scid: ConnectionId,
        /// Offered versions (in a [`HeaderView`]: the raw list, four
        /// big-endian bytes per version).
        versions: V,
    },
    /// 1-RTT short-header packet.
    Short {
        /// Destination connection ID.
        dcid: ConnectionId,
        /// Spin bit.
        spin: bool,
        /// Key phase bit.
        key_phase: bool,
        /// Truncated packet number.
        truncated_pn: u64,
        /// Wire length of the packet number.
        pn_len: usize,
    },
}

/// A [`ParsedHeader`] borrowing its token and version list from the
/// datagram.
pub type HeaderView<'a> = ParsedHeader<&'a [u8], &'a [u8]>;

impl<D, V> ParsedHeader<D, V> {
    /// The long-header packet type, if any.
    pub fn long_type(&self) -> Option<LongPacketType> {
        match self {
            ParsedHeader::Long { ty, .. } => Some(*ty),
            ParsedHeader::Retry { .. } => Some(LongPacketType::Retry),
            _ => None,
        }
    }

    /// The QUIC version, if the header carries one.
    pub fn version(&self) -> Option<Version> {
        match self {
            ParsedHeader::Long { version, .. } | ParsedHeader::Retry { version, .. } => {
                Some(*version)
            }
            ParsedHeader::VersionNegotiation { .. } => Some(Version::Negotiation),
            ParsedHeader::Short { .. } => None,
        }
    }

    /// The source connection ID, if visible (absent in short headers).
    pub fn scid(&self) -> Option<ConnectionId> {
        match self {
            ParsedHeader::Long { scid, .. }
            | ParsedHeader::Retry { scid, .. }
            | ParsedHeader::VersionNegotiation { scid, .. } => Some(*scid),
            ParsedHeader::Short { .. } => None,
        }
    }

    /// The destination connection ID.
    pub fn dcid(&self) -> ConnectionId {
        match self {
            ParsedHeader::Long { dcid, .. }
            | ParsedHeader::Retry { dcid, .. }
            | ParsedHeader::VersionNegotiation { dcid, .. }
            | ParsedHeader::Short { dcid, .. } => *dcid,
        }
    }

    /// Reconstructs the full packet number, verifies the tag over `aad`
    /// and `sealed`, and decrypts into `plaintext`.
    fn open_sealed(
        &self,
        key: SipKey,
        largest_pn: Option<u64>,
        aad: &[u8],
        sealed: &[u8],
        plaintext: &mut Vec<u8>,
    ) -> WireResult<u64> {
        let (truncated, pn_len) = match self {
            ParsedHeader::Long {
                truncated_pn,
                pn_len,
                ..
            }
            | ParsedHeader::Short {
                truncated_pn,
                pn_len,
                ..
            } => (*truncated_pn, *pn_len),
            _ => {
                return Err(WireError::InvalidValue {
                    what: "open() on unprotected packet",
                })
            }
        };
        let pn = decode_packet_number(truncated, pn_len, largest_pn);
        open_into(key, pn, aad, sealed, plaintext)?;
        Ok(pn)
    }
}

/// One structurally parsed packet plus its sealed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacket {
    /// The keyless header view.
    pub header: ParsedHeader,
    /// Sealed payload (ciphertext plus tag); empty for Retry and Version
    /// Negotiation packets.
    pub sealed: Bytes,
    /// Total wire length of this packet within the datagram.
    pub wire_len: usize,
}

impl ParsedPacket {
    /// Decrypts the payload and decodes its frames.
    ///
    /// `largest_pn` is the largest packet number previously processed in
    /// this packet number space, used to reconstruct the full number.
    /// Returns the full packet number and the frames.
    ///
    /// # Errors
    /// [`WireError::AeadFailure`] on key mismatch; frame errors
    /// otherwise. Retry/VN packets yield [`WireError::InvalidValue`].
    pub fn open(
        &self,
        key: SipKey,
        largest_pn: Option<u64>,
        aad: &[u8],
    ) -> WireResult<(u64, Vec<Frame>)> {
        let mut plaintext = Vec::new();
        let pn = self
            .header
            .open_sealed(key, largest_pn, aad, &self.sealed, &mut plaintext)?;
        Ok((pn, Frame::decode_all(&plaintext)?))
    }
}

/// One structurally parsed packet, borrowed from its datagram: what
/// [`walk_datagram`] yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketView<'a> {
    /// The keyless header view.
    pub header: HeaderView<'a>,
    /// The bytes the tag authenticates besides the payload: the header
    /// through the Length field (empty for Retry and Version
    /// Negotiation packets).
    pub aad: &'a [u8],
    /// Sealed payload (ciphertext plus tag); empty for Retry and Version
    /// Negotiation packets.
    pub sealed: &'a [u8],
    /// Total wire length of this packet within the datagram.
    pub wire_len: usize,
}

impl PacketView<'_> {
    /// Verifies the tag in place and decrypts the payload into
    /// `plaintext`, which is overwritten and keeps its capacity; walk the
    /// result with [`Frame::walk`]. Returns the full packet number,
    /// reconstructed as in [`ParsedPacket::open`].
    ///
    /// # Errors
    /// [`WireError::AeadFailure`] on key mismatch; Retry/VN packets yield
    /// [`WireError::InvalidValue`].
    pub fn open_into(
        &self,
        key: SipKey,
        largest_pn: Option<u64>,
        plaintext: &mut Vec<u8>,
    ) -> WireResult<u64> {
        self.header
            .open_sealed(key, largest_pn, self.aad, self.sealed, plaintext)
    }

    /// Copies the view into an owned packet plus the AAD bytes
    /// [`ParsedPacket::open`] needs.
    pub fn into_parsed(self) -> (ParsedPacket, Vec<u8>) {
        let header = match self.header {
            ParsedHeader::Long {
                ty,
                version,
                dcid,
                scid,
                token,
                truncated_pn,
                pn_len,
            } => ParsedHeader::Long {
                ty,
                version,
                dcid,
                scid,
                token: Bytes::copy_from_slice(token),
                truncated_pn,
                pn_len,
            },
            ParsedHeader::Retry {
                version,
                dcid,
                scid,
                token,
                tag,
            } => ParsedHeader::Retry {
                version,
                dcid,
                scid,
                token: Bytes::copy_from_slice(token),
                tag,
            },
            ParsedHeader::VersionNegotiation {
                dcid,
                scid,
                versions,
            } => ParsedHeader::VersionNegotiation {
                dcid,
                scid,
                versions: versions
                    .chunks_exact(4)
                    .map(|v| Version::from_wire(u32::from_be_bytes(v.try_into().expect("4 bytes"))))
                    .collect(),
            },
            ParsedHeader::Short {
                dcid,
                spin,
                key_phase,
                truncated_pn,
                pn_len,
            } => ParsedHeader::Short {
                dcid,
                spin,
                key_phase,
                truncated_pn,
                pn_len,
            },
        };
        let packet = ParsedPacket {
            header,
            sealed: Bytes::copy_from_slice(self.sealed),
            wire_len: self.wire_len,
        };
        (packet, self.aad.to_vec())
    }
}

/// Keyless iterator over the coalesced packets of a datagram; see
/// [`walk_datagram`]. Stops after the first malformed packet.
#[derive(Debug, Clone)]
pub struct Packets<'a> {
    rest: &'a [u8],
    short_dcid_len: usize,
}

impl<'a> Iterator for Packets<'a> {
    type Item = WireResult<PacketView<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let packet = parse_one(&mut self.rest, self.short_dcid_len);
        if packet.is_err() {
            self.rest = &[];
        }
        Some(packet)
    }
}

/// Walks the coalesced QUIC packets of a UDP datagram (keyless),
/// borrowing every view from `datagram` without allocating.
///
/// `short_dcid_len` is the connection ID length assumed for short-header
/// packets (endpoints know theirs; telescopes guess — the dissector
/// passes 8 and treats failures as opaque).
pub fn walk_datagram(datagram: &[u8], short_dcid_len: usize) -> Packets<'_> {
    Packets {
        rest: datagram,
        short_dcid_len,
    }
}

/// Parses all coalesced QUIC packets in a UDP datagram (keyless) into
/// owned packets: [`walk_datagram`], collected.
///
/// Returns the parsed packets together with the AAD bytes each needs for
/// [`ParsedPacket::open`].
///
/// # Errors
/// The first structural malformation encountered.
pub fn parse_datagram(
    datagram: &[u8],
    short_dcid_len: usize,
) -> WireResult<Vec<(ParsedPacket, Vec<u8>)>> {
    let mut packets = Vec::new();
    for view in walk_datagram(datagram, short_dcid_len) {
        packets.push(view?.into_parsed());
    }
    Ok(packets)
}

/// Parses the packet at the front of the non-empty `rest` and advances
/// past it. A short-header packet has no length field and consumes the
/// remainder of the datagram; so do Retry and Version Negotiation.
fn parse_one<'a>(rest: &mut &'a [u8], short_dcid_len: usize) -> WireResult<PacketView<'a>> {
    let input = *rest;
    let mut buf = input;
    if input[0] & FORM_BIT == 0 {
        let (hdr, first) = ShortHeader::decode(&mut buf, short_dcid_len)?;
        let pn_len = LongHeader::pn_len_from_first_byte(first);
        let aad = &input[..input.len() - buf.len()];
        let truncated_pn = read_packet_number(&mut buf, pn_len)?;
        *rest = &[];
        return Ok(PacketView {
            header: ParsedHeader::Short {
                dcid: hdr.dcid,
                spin: hdr.spin,
                key_phase: hdr.key_phase,
                truncated_pn,
                pn_len,
            },
            aad,
            sealed: buf,
            wire_len: input.len(),
        });
    }

    let (hdr, first) = LongHeader::decode(&mut buf)?;

    if hdr.version == Version::Negotiation {
        // Version list until the end of the datagram.
        if !buf.chunks_exact(4).remainder().is_empty() {
            return Err(WireError::UnexpectedEnd {
                what: "version list",
            });
        }
        *rest = &[];
        return Ok(PacketView {
            header: ParsedHeader::VersionNegotiation {
                dcid: hdr.dcid,
                scid: hdr.scid,
                versions: buf,
            },
            aad: &[],
            sealed: &[],
            wire_len: input.len(),
        });
    }

    if hdr.ty == LongPacketType::Retry {
        // Token is everything up to the final 16-byte tag.
        let Some(token_len) = buf.len().checked_sub(RETRY_TAG_LEN) else {
            return Err(WireError::UnexpectedEnd { what: "retry tag" });
        };
        let (token, tag) = buf.split_at(token_len);
        *rest = &[];
        return Ok(PacketView {
            header: ParsedHeader::Retry {
                version: hdr.version,
                dcid: hdr.dcid,
                scid: hdr.scid,
                token,
                tag: tag.try_into().expect("16 bytes"),
            },
            aad: &[],
            sealed: &[],
            wire_len: input.len(),
        });
    }

    // Initial: token length + token precede the Length field.
    let token = if hdr.ty == LongPacketType::Initial {
        let token_len = read_varint(&mut buf)? as usize;
        take(&mut buf, token_len)?
    } else {
        &[]
    };

    let length = read_varint(&mut buf)? as usize;
    // AAD is the header through the Length field (everything before the
    // packet number), exactly what encode_protected used.
    let aad = &input[..input.len() - buf.len()];
    let body = take(&mut buf, length)?;
    let pn_len = LongHeader::pn_len_from_first_byte(first);
    if length < pn_len {
        return Err(WireError::InvalidValue {
            what: "length shorter than packet number",
        });
    }
    let (mut pn_bytes, sealed) = body.split_at(pn_len);
    let truncated_pn = read_packet_number(&mut pn_bytes, pn_len)?;

    *rest = buf;
    Ok(PacketView {
        header: ParsedHeader::Long {
            ty: hdr.ty,
            version: hdr.version,
            dcid: hdr.dcid,
            scid: hdr.scid,
            token,
            truncated_pn,
            pn_len,
        },
        aad,
        sealed,
        wire_len: input.len() - buf.len(),
    })
}

/// Verifies a parsed Retry packet's integrity tag against the original
/// DCID. Reconstructs the pseudo-packet prefix from the parsed fields.
///
/// # Errors
/// [`WireError::RetryIntegrityFailure`] on mismatch.
pub fn verify_parsed_retry(parsed: &ParsedHeader, original_dcid: &ConnectionId) -> WireResult<()> {
    let ParsedHeader::Retry {
        version,
        dcid,
        scid,
        token,
        tag,
    } = parsed
    else {
        return Err(WireError::InvalidValue {
            what: "not a retry packet",
        });
    };
    let hdr = LongHeader {
        ty: LongPacketType::Retry,
        version: *version,
        dcid: *dcid,
        scid: *scid,
    };
    let mut prefix = Vec::with_capacity(32 + token.len());
    hdr.encode(&mut prefix, 1)?;
    prefix.extend_from_slice(token);
    verify_retry_tag(*version, original_dcid, &prefix, tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::{Direction, InitialSecrets};

    fn keys() -> InitialSecrets {
        InitialSecrets::derive(Version::V1, &ConnectionId::from_u64(0xabcd))
    }

    fn sample_initial() -> Packet {
        Packet::Initial {
            version: Version::V1,
            dcid: ConnectionId::from_u64(0xabcd),
            scid: ConnectionId::from_u64(0x1234),
            token: Bytes::new(),
            packet_number: 0,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from_static(b"client hello"),
            }]),
        }
    }

    #[test]
    fn initial_roundtrip() {
        let key = keys().key(Direction::ClientToServer);
        let wire = sample_initial().encode(Some(key)).unwrap();
        let packets = parse_datagram(&wire, 8).unwrap();
        assert_eq!(packets.len(), 1);
        let (parsed, aad) = &packets[0];
        assert_eq!(parsed.wire_len, wire.len());
        match &parsed.header {
            ParsedHeader::Long {
                ty,
                version,
                dcid,
                scid,
                token,
                ..
            } => {
                assert_eq!(*ty, LongPacketType::Initial);
                assert_eq!(*version, Version::V1);
                assert_eq!(*dcid, ConnectionId::from_u64(0xabcd));
                assert_eq!(*scid, ConnectionId::from_u64(0x1234));
                assert!(token.is_empty());
            }
            other => panic!("expected long header, got {other:?}"),
        }
        let (pn, frames) = parsed.open(key, None, aad).unwrap();
        assert_eq!(pn, 0);
        assert_eq!(
            frames,
            vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from_static(b"client hello"),
            }]
        );
    }

    #[test]
    fn initial_with_token_roundtrip() {
        let key = keys().key(Direction::ClientToServer);
        let packet = Packet::Initial {
            version: Version::V1,
            dcid: ConnectionId::from_u64(0xabcd),
            scid: ConnectionId::from_u64(0x1234),
            token: Bytes::from_static(b"a retry token"),
            packet_number: 1,
            payload: PacketPayload::new(vec![Frame::Ping]),
        };
        let wire = packet.encode(Some(key)).unwrap();
        let packets = parse_datagram(&wire, 8).unwrap();
        let (parsed, aad) = &packets[0];
        match &parsed.header {
            ParsedHeader::Long { token, .. } => {
                assert_eq!(token.as_ref(), b"a retry token");
            }
            other => panic!("unexpected {other:?}"),
        }
        let (pn, frames) = parsed.open(key, Some(0), aad).unwrap();
        assert_eq!(pn, 1);
        assert_eq!(frames, vec![Frame::Ping]);
    }

    #[test]
    fn padded_initial_reaches_min_size() {
        let key = keys().key(Direction::ClientToServer);
        let wire = sample_initial()
            .encode_padded(Some(key), crate::MIN_INITIAL_SIZE)
            .unwrap();
        assert!(wire.len() >= crate::MIN_INITIAL_SIZE);
        // Still parses and opens.
        let packets = parse_datagram(&wire, 8).unwrap();
        let (parsed, aad) = &packets[0];
        let (_, frames) = parsed.open(key, None, aad).unwrap();
        assert!(frames.iter().any(|f| matches!(f, Frame::Padding { .. })));
    }

    #[test]
    fn padding_noop_when_already_large() {
        let key = keys().key(Direction::ClientToServer);
        let bare = sample_initial().encode(Some(key)).unwrap();
        let padded = sample_initial().encode_padded(Some(key), 10).unwrap();
        assert_eq!(bare, padded);
    }

    #[test]
    fn encode_padded_equals_encoding_an_explicit_padding_frame() {
        // The PADDING run is sized from the bare packet, so sealing once
        // must give the bytes that sealing the bare packet, measuring it
        // and sealing again with a Padding frame gave — also where the
        // padded Length field needs a wider varint than the bare one.
        let key = keys().key(Direction::ClientToServer);
        for crypto_len in [0usize, 1, 20, 42, 43, 44, 45, 300] {
            let frames = vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from(vec![0xab; crypto_len]),
            }];
            let initial = |frames| Packet::Initial {
                version: Version::V1,
                dcid: ConnectionId::from_u64(0xabcd),
                scid: ConnectionId::from_u64(0x1234),
                token: Bytes::from_static(b"tok"),
                packet_number: 2,
                payload: PacketPayload::new(frames),
            };
            let bare = initial(frames.clone()).encode(Some(key)).unwrap();
            for min_size in (0..140).chain([1200, 1201]) {
                let expected = if bare.len() >= min_size {
                    bare.clone()
                } else {
                    let mut padded = frames.clone();
                    padded.push(Frame::Padding {
                        len: min_size - bare.len(),
                    });
                    initial(padded).encode(Some(key)).unwrap()
                };
                let got = initial(frames.clone())
                    .encode_padded(Some(key), min_size)
                    .unwrap();
                assert_eq!(got, expected, "crypto {crypto_len}, min_size {min_size}");
            }
        }
    }

    #[test]
    fn encode_padded_rejects_non_initial() {
        let packet = Packet::Handshake {
            version: Version::V1,
            dcid: ConnectionId::EMPTY,
            scid: ConnectionId::EMPTY,
            packet_number: 0,
            payload: PacketPayload::new(vec![Frame::Ping]),
        };
        assert!(packet.encode_padded(Some(keys().client), 1200).is_err());
    }

    #[test]
    fn missing_key_rejected() {
        assert!(sample_initial().encode(None).is_err());
    }

    #[test]
    fn coalesced_initial_and_handshake() {
        // The server's first flight in the paper (§6): one datagram with
        // an Initial (Server Hello) coalesced with a Handshake packet.
        let secrets = keys();
        let initial = Packet::Initial {
            version: Version::V1,
            dcid: ConnectionId::from_u64(1),
            scid: ConnectionId::from_u64(2),
            token: Bytes::new(),
            packet_number: 0,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from_static(b"server hello"),
            }]),
        };
        let handshake = Packet::Handshake {
            version: Version::V1,
            dcid: ConnectionId::from_u64(1),
            scid: ConnectionId::from_u64(2),
            packet_number: 0,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from_static(b"cert chain"),
            }]),
        };
        let mut datagram = initial.encode(Some(secrets.server)).unwrap();
        datagram.extend(handshake.encode(Some(secrets.server)).unwrap());

        let packets = parse_datagram(&datagram, 8).unwrap();
        assert_eq!(packets.len(), 2);
        assert_eq!(
            packets[0].0.header.long_type(),
            Some(LongPacketType::Initial)
        );
        assert_eq!(
            packets[1].0.header.long_type(),
            Some(LongPacketType::Handshake)
        );
        let (_, frames) = packets[1]
            .0
            .open(secrets.server, None, &packets[1].1)
            .unwrap();
        assert_eq!(
            frames,
            vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from_static(b"cert chain"),
            }]
        );
    }

    #[test]
    fn retry_roundtrip_with_tag_verification() {
        let odcid = ConnectionId::from_u64(0xabcd);
        let packet = Packet::Retry {
            version: Version::V1,
            dcid: ConnectionId::from_u64(0x1234),
            scid: ConnectionId::from_u64(0x5678),
            token: Bytes::from_static(b"validate me"),
            original_dcid: odcid,
        };
        let wire = packet.encode(None).unwrap();
        let packets = parse_datagram(&wire, 8).unwrap();
        assert_eq!(packets.len(), 1);
        let header = &packets[0].0.header;
        match header {
            ParsedHeader::Retry { token, .. } => {
                assert_eq!(token.as_ref(), b"validate me");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(verify_parsed_retry(header, &odcid).is_ok());
        // Wrong ODCID must fail.
        assert!(verify_parsed_retry(header, &ConnectionId::from_u64(9)).is_err());
    }

    #[test]
    fn version_negotiation_roundtrip() {
        let packet = Packet::VersionNegotiation {
            dcid: ConnectionId::from_u64(1),
            scid: ConnectionId::from_u64(2),
            versions: vec![Version::V1, Version::Draft29],
        };
        let wire = packet.encode(None).unwrap();
        let packets = parse_datagram(&wire, 8).unwrap();
        match &packets[0].0.header {
            ParsedHeader::VersionNegotiation { versions, .. } => {
                assert_eq!(versions, &vec![Version::V1, Version::Draft29]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn one_rtt_roundtrip() {
        let key = SipKey { k0: 5, k1: 6 };
        let packet = Packet::OneRtt {
            dcid: ConnectionId::from_u64(42),
            spin: true,
            key_phase: false,
            packet_number: 12345,
            payload: PacketPayload::new(vec![Frame::Ping]),
        };
        let wire = packet.encode(Some(key)).unwrap();
        let packets = parse_datagram(&wire, 8).unwrap();
        let (parsed, aad) = &packets[0];
        match &parsed.header {
            ParsedHeader::Short { dcid, spin, .. } => {
                assert_eq!(*dcid, ConnectionId::from_u64(42));
                assert!(spin);
            }
            other => panic!("unexpected {other:?}"),
        }
        let (pn, frames) = parsed.open(key, Some(12344), aad).unwrap();
        assert_eq!(pn, 12345);
        assert_eq!(frames, vec![Frame::Ping]);
    }

    #[test]
    fn wrong_key_fails_open() {
        let key = keys().key(Direction::ClientToServer);
        let wrong = keys().key(Direction::ServerToClient);
        let wire = sample_initial().encode(Some(key)).unwrap();
        let packets = parse_datagram(&wire, 8).unwrap();
        let (parsed, aad) = &packets[0];
        assert_eq!(parsed.open(wrong, None, aad), Err(WireError::AeadFailure));
    }

    #[test]
    fn truncated_datagram_rejected() {
        let key = keys().key(Direction::ClientToServer);
        let wire = sample_initial().encode(Some(key)).unwrap();
        for cut in 1..wire.len() {
            assert!(
                parse_datagram(&wire[..cut], 8).is_err(),
                "prefix of {cut} must not parse"
            );
        }
    }

    #[test]
    fn garbage_rejected_cleanly() {
        assert!(parse_datagram(&[], 8).unwrap().is_empty());
        // DNS-over-UDP-looking bytes: no QUIC fixed bit.
        let dns = [0x12u8, 0x34, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0];
        assert!(parse_datagram(&dns, 8).is_err());
    }

    #[test]
    fn header_accessors() {
        let key = keys().key(Direction::ClientToServer);
        let wire = sample_initial().encode(Some(key)).unwrap();
        let packets = parse_datagram(&wire, 8).unwrap();
        let header = &packets[0].0.header;
        assert_eq!(header.long_type(), Some(LongPacketType::Initial));
        assert_eq!(header.version(), Some(Version::V1));
        assert_eq!(header.scid(), Some(ConnectionId::from_u64(0x1234)));
        assert_eq!(header.dcid(), ConnectionId::from_u64(0xabcd));
    }
}
