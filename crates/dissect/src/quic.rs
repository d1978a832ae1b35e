//! The QUIC payload dissector (Wireshark stand-in).
//!
//! Structurally parses a UDP payload as one or more coalesced QUIC
//! packets and extracts the metadata the paper's analyses need:
//! versions, connection IDs, message types — and whether an Initial
//! carries an *unencrypted* TLS Client Hello.
//!
//! One walk decides whether a payload is QUIC; what it extracts is the
//! caller's choice of type ([`Extraction`]). [`dissect_udp_payload`]
//! builds the full [`DissectedPacket`] and trial-decrypts every Initial;
//! the batch extraction ([`DissectedPacket`]'s [`Extraction`]) builds the
//! same packet but opens an Initial only in the response direction, the
//! backscatter whose Client Hello verdict the §6 check reads — a
//! scanner's request Initial keeps no verdict (`None`).
//! [`check_udp_payload`] returns only the [`MessageKinds`] — all the
//! live detector reads besides the port-derived direction — and opens
//! nothing. Opening costs a keyed tag over the whole Initial. Same walk,
//! same verdict, same [`DissectError`].
//!
//! The Client Hello check works exactly as it does for Wireshark on the
//! real wire: Initial keys are derivable by any passive observer from
//! the packet's destination connection ID, **but only for
//! client-originated Initials** — a server's Initial reply is protected
//! under keys derived from the *client's original* DCID, which appears
//! nowhere in the reply. So the dissector attempts the derivation; if
//! decryption fails, the Initial is opaque ("does not contain an
//! (unencrypted) TLS Client Hello") and is attributed to an encrypted
//! Server Hello reply — the §6 backscatter signature.

use crate::classify::Direction;
use quicsand_wire::crypto::InitialSecrets;
use quicsand_wire::header::LongPacketType;
use quicsand_wire::packet::{walk_datagram, HeaderView, PacketView, ParsedHeader};
use quicsand_wire::tls::{peek_handshake_type, HandshakeType};
use quicsand_wire::{ConnectionId, Frame, Version, WireError};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;

/// Per-thread buffers every dissection reuses, so that after warm-up
/// dissecting allocates nothing but the returned messages.
#[derive(Default)]
struct Scratch {
    /// Plaintext of the Initial being trial-decrypted.
    plaintext: Vec<u8>,
    /// Messages of the datagram in progress; cloned out at exact size.
    messages: Vec<MessageMeta>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Typed dissection failure: *why* a UDP payload was rejected.
///
/// The seed dissector collapsed every failure into a bare [`WireError`]
/// (and earlier prototypes into an `Option`); the telescope pipeline
/// needs the *class* of malformation to maintain its per-kind
/// quarantine counters — truncated captures, garbage version fields and
/// oversized CIDs are distinct phenomena in real IBR and are counted
/// separately (QUICsand §4.1 false-positive analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DissectError {
    /// The UDP payload was empty (zero-length datagrams carry no QUIC).
    Empty,
    /// The payload ended before a structurally complete QUIC packet:
    /// truncated capture snaplen, cut-off header, or a length field
    /// pointing past the end of the datagram.
    Truncated(WireError),
    /// A long header announced a version outside the registry (not a
    /// known deployment, not the grease pattern, not negotiation).
    BadVersion(u32),
    /// A connection ID length field exceeded the 20-byte maximum.
    BadCid(usize),
    /// Structurally not QUIC at all (fixed bit unset, impossible field
    /// values) — the port filter's false positives.
    NotQuic(WireError),
}

impl DissectError {
    /// Classifies a low-level wire error into the dissection taxonomy.
    fn from_wire(e: WireError) -> Self {
        match e {
            WireError::UnexpectedEnd { .. } | WireError::LengthOutOfBounds { .. } => {
                DissectError::Truncated(e)
            }
            WireError::UnsupportedVersion(v) => DissectError::BadVersion(v),
            WireError::CidTooLong(n) => DissectError::BadCid(n),
            other => DissectError::NotQuic(other),
        }
    }

    /// The underlying wire error, when one exists.
    pub fn wire_cause(&self) -> Option<&WireError> {
        match self {
            DissectError::Truncated(e) | DissectError::NotQuic(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for DissectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DissectError::Empty => write!(f, "empty udp payload"),
            DissectError::Truncated(e) => write!(f, "truncated quic packet: {e}"),
            DissectError::BadVersion(v) => write!(f, "unknown quic version {v:#010x}"),
            DissectError::BadCid(n) => write!(f, "connection id length {n} exceeds maximum"),
            DissectError::NotQuic(e) => write!(f, "not a quic payload: {e}"),
        }
    }
}

impl std::error::Error for DissectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.wire_cause().map(|e| e as _)
    }
}

/// The QUIC message types the analyses distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// Initial packet.
    Initial,
    /// 0-RTT packet.
    ZeroRtt,
    /// Handshake packet.
    Handshake,
    /// Retry packet (the unused defence, §6).
    Retry,
    /// Version Negotiation packet.
    VersionNegotiation,
    /// 1-RTT short-header packet.
    OneRtt,
}

impl MessageKind {
    /// Number of kinds (`OneRtt` is the last variant).
    pub(crate) const COUNT: usize = MessageKind::OneRtt as usize + 1;

    /// A dense index in `0..COUNT`, for per-kind arrays.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            MessageKind::Initial => "Initial",
            MessageKind::ZeroRtt => "0-RTT",
            MessageKind::Handshake => "Handshake",
            MessageKind::Retry => "Retry",
            MessageKind::VersionNegotiation => "VersionNegotiation",
            MessageKind::OneRtt => "1-RTT",
        }
    }
}

/// Metadata of one QUIC message (packet) inside a datagram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageMeta {
    /// Message type.
    pub kind: MessageKind,
    /// Version, when the header carries one.
    pub version: Option<u32>,
    /// Source connection ID (absent in short headers).
    pub scid: Option<ConnectionId>,
    /// Destination connection ID.
    pub dcid: ConnectionId,
    /// Whether the message is an Initial whose payload decrypted to a
    /// TLS Client Hello under passively derivable keys. `None` for an
    /// Initial the extraction did not open (a request under the batch
    /// extraction), so that an unopened Initial never reads as "no
    /// Client Hello"; `Some(false)` for every other kind of message.
    pub has_client_hello: Option<bool>,
    /// Wire length of the message.
    pub wire_len: usize,
}

/// A dissected UDP payload: the coalesced messages it carries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DissectedPacket {
    /// The messages, in wire order.
    pub messages: Vec<MessageMeta>,
}

impl DissectedPacket {
    /// The set of message kinds present.
    pub fn kinds(&self) -> MessageKinds {
        self.messages.iter().map(|m| m.kind).collect()
    }

    /// Whether any message is a Retry (the paper captured none).
    pub fn has_retry(&self) -> bool {
        self.kinds().contains(MessageKind::Retry)
    }

    /// The first version announced by any long header.
    pub fn version(&self) -> Option<u32> {
        self.messages.iter().find_map(|m| m.version)
    }

    /// All source connection IDs in the datagram.
    pub fn scids(&self) -> impl Iterator<Item = &ConnectionId> {
        self.messages.iter().filter_map(|m| m.scid.as_ref())
    }

    /// A stable 64-bit key (FNV-1a) over the first non-empty source
    /// connection ID. The client-chosen SCID persists when the client
    /// changes address, so this key powers CID-keyed migration linking
    /// in the sessionizer. `None` when no message carries a non-empty
    /// SCID (short headers, empty-SCID backscatter).
    pub fn client_cid_key(&self) -> Option<u64> {
        let cid = self.scids().find(|c| !c.is_empty())?;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &byte in cid.as_slice() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Some(hash)
    }

    /// Whether every long-header DCID has length zero — the validity
    /// check the paper applies to backscatter (§5.2: "we carefully
    /// checked that the packets are valid [...] by verifying that the
    /// DCID length attribute is set to zero"). Short headers carry no
    /// DCID-length attribute and are skipped.
    pub fn all_dcids_empty(&self) -> bool {
        self.messages
            .iter()
            .filter(|m| m.version.is_some())
            .all(|m| m.dcid.is_empty())
    }
}

/// The set of [`MessageKind`]s a datagram carries — what the live path
/// extracts: one byte, `Copy`, built without trial decryption, without
/// the scratch buffers and without allocating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MessageKinds(u8);

impl MessageKinds {
    /// Whether a message of `kind` is present.
    pub fn contains(self, kind: MessageKind) -> bool {
        self.0 & Self::bit(kind) != 0
    }

    fn insert(&mut self, kind: MessageKind) {
        self.0 |= Self::bit(kind);
    }

    fn bit(kind: MessageKind) -> u8 {
        1 << kind as u8
    }
}

impl FromIterator<MessageKind> for MessageKinds {
    fn from_iter<I: IntoIterator<Item = MessageKind>>(kinds: I) -> Self {
        let mut set = MessageKinds::default();
        for kind in kinds {
            set.insert(kind);
        }
        set
    }
}

/// What an admit caller extracts from a UDP payload the dissector
/// accepts, chosen by the caller's type: the batch path keeps the full
/// [`DissectedPacket`] (the figures read its connection IDs, and the §6
/// check the Client Hello verdicts of backscatter Initials), the live
/// path only the [`MessageKinds`]. Both come from the same walk, so they
/// accept and reject exactly the same payloads with the same
/// [`DissectError`].
pub trait Extraction: Sized {
    /// Validates `payload` as QUIC and extracts `Self` from it;
    /// `direction` is the port-derived direction of the datagram.
    ///
    /// # Errors
    /// The payload's [`DissectError`].
    fn extract(payload: &[u8], direction: Direction) -> Result<Self, DissectError>;

    /// The message kinds present (Retry / Version Negotiation events
    /// read these on every path).
    fn kinds(&self) -> MessageKinds;
}

/// Opens Initials only in the response direction: the Client Hello
/// verdict's one reader is the §6 check over backscatter, so a request
/// Initial is left sealed and its verdict is `None`. Otherwise
/// [`dissect_udp_payload`]'s result.
impl Extraction for DissectedPacket {
    fn extract(payload: &[u8], direction: Direction) -> Result<Self, DissectError> {
        dissect(payload, direction == Direction::Response)
    }

    fn kinds(&self) -> MessageKinds {
        DissectedPacket::kinds(self)
    }
}

impl Extraction for MessageKinds {
    #[inline]
    fn extract(payload: &[u8], _: Direction) -> Result<Self, DissectError> {
        check_udp_payload(payload)
    }

    fn kinds(&self) -> MessageKinds {
        *self
    }
}

/// The one structural walk behind every extraction: hands `visit` each
/// packet of a known version with its kind, and decides the verdict.
///
/// An empty payload is [`DissectError::Empty`]. A structural error
/// anywhere in the datagram outranks an unknown version in an earlier
/// packet (the quarantine taxonomy depends on that order), so the
/// version verdict waits for the walk to reach the end; packets after
/// the first unknown version are not visited.
fn walk(
    payload: &[u8],
    mut visit: impl FnMut(&PacketView<'_>, MessageKind),
) -> Result<(), DissectError> {
    if payload.is_empty() {
        return Err(DissectError::Empty);
    }
    let mut bad_version = None;
    for packet in walk_datagram(payload, 8) {
        let packet = packet.map_err(DissectError::from_wire)?;
        if let Some(Version::Unknown(v)) = packet.header.version() {
            bad_version.get_or_insert(v);
        }
        if bad_version.is_none() {
            visit(&packet, message_kind(&packet.header));
        }
    }
    match bad_version {
        Some(v) => Err(DissectError::BadVersion(v)),
        None => Ok(()),
    }
}

/// Dissects a UDP payload as QUIC, trial-decrypting every Initial.
///
/// # Errors
/// [`DissectError`] when the payload is not structurally valid QUIC —
/// the caller (telescope pipeline) counts these as non-QUIC false
/// positives of the port filter and quarantines them per error kind.
pub fn dissect_udp_payload(payload: &[u8]) -> Result<DissectedPacket, DissectError> {
    dissect(payload, true)
}

/// The dissection behind both [`DissectedPacket`] extractions: opens the
/// Initials when `open`, and leaves their verdict `None` otherwise.
fn dissect(payload: &[u8], open: bool) -> Result<DissectedPacket, DissectError> {
    SCRATCH.with(|scratch| {
        let Scratch {
            plaintext,
            messages,
        } = &mut *scratch.borrow_mut();
        messages.clear();
        walk(payload, |packet, kind| {
            let plaintext = open.then_some(&mut *plaintext);
            messages.push(message_meta(packet, kind, plaintext));
        })?;
        Ok(DissectedPacket {
            messages: messages.clone(),
        })
    })
}

/// Validates a UDP payload as QUIC and returns the message kinds it
/// carries — [`dissect_udp_payload`]'s verdict without its extraction:
/// no Initial is trial-decrypted and nothing is allocated.
///
/// # Errors
/// Exactly the [`DissectError`] [`dissect_udp_payload`] returns.
#[inline]
pub fn check_udp_payload(payload: &[u8]) -> Result<MessageKinds, DissectError> {
    let mut kinds = MessageKinds::default();
    walk(payload, |_, kind| kinds.insert(kind))?;
    Ok(kinds)
}

/// The message type of one structurally valid packet.
fn message_kind(header: &HeaderView<'_>) -> MessageKind {
    match header {
        ParsedHeader::Long { ty, .. } => match ty {
            LongPacketType::Initial => MessageKind::Initial,
            LongPacketType::ZeroRtt => MessageKind::ZeroRtt,
            LongPacketType::Handshake => MessageKind::Handshake,
            LongPacketType::Retry => MessageKind::Retry,
        },
        ParsedHeader::Retry { .. } => MessageKind::Retry,
        ParsedHeader::VersionNegotiation { .. } => MessageKind::VersionNegotiation,
        ParsedHeader::Short { .. } => MessageKind::OneRtt,
    }
}

/// The metadata of one structurally valid packet of a known version;
/// an Initial is opened into `plaintext` when there is one.
fn message_meta(
    packet: &PacketView<'_>,
    kind: MessageKind,
    plaintext: Option<&mut Vec<u8>>,
) -> MessageMeta {
    let header = &packet.header;
    let has_client_hello = match header {
        ParsedHeader::Long {
            ty: LongPacketType::Initial,
            version,
            dcid,
            ..
        } => plaintext
            .map(|plaintext| initial_carries_client_hello(packet, *version, dcid, plaintext)),
        _ => Some(false),
    };
    MessageMeta {
        kind,
        version: header.version().map(Version::to_wire),
        scid: header.scid(),
        dcid: header.dcid(),
        has_client_hello,
        wire_len: packet.wire_len,
    }
}

/// Attempts the passive Initial decryption and Client Hello detection.
fn initial_carries_client_hello(
    packet: &PacketView<'_>,
    version: Version,
    dcid: &ConnectionId,
    plaintext: &mut Vec<u8>,
) -> bool {
    // A passive observer derives the *client* Initial key from the DCID
    // in the packet itself. For client-sent Initials this succeeds; for
    // server replies it cannot (the server seals under keys derived from
    // the client's original DCID, not from the DCID of the reply).
    let key = InitialSecrets::client_key(version, dcid);
    if packet.open_into(key, None, plaintext).is_err() {
        return false;
    }
    // Every frame must decode, not just those up to the first CRYPTO
    // frame: Initial keys are public, so a valid tag over a Client Hello
    // with a garbage tail is craftable and must stay `false`.
    let mut client_hello = false;
    for frame in Frame::walk(plaintext) {
        match frame {
            Ok(Frame::Crypto { data, .. }) => {
                client_hello |= peek_handshake_type(data) == Ok(HandshakeType::ClientHello);
            }
            Ok(_) => {}
            Err(_) => return false,
        }
    }
    client_hello
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use quicsand_wire::crypto::Direction as CryptoDir;
    use quicsand_wire::packet::{seal_client_initial, Packet, PacketPayload};
    use quicsand_wire::tls::{cipher_suite, ClientHello, ServerHello};

    fn client_hello() -> ClientHello {
        ClientHello {
            random: [1u8; 32],
            cipher_suites: vec![cipher_suite::AES_128_GCM_SHA256],
            server_name: Some("www.google.com".into()),
            alpn: vec!["h3-29".into()],
            key_share: Bytes::from_static(&[2u8; 32]),
        }
    }

    /// A faithful client first flight: Initial protected under keys
    /// derived from its own DCID.
    fn client_initial() -> Bytes {
        seal_client_initial(
            Version::Draft29,
            ConnectionId::from_u64(0xdddd),
            ConnectionId::from_u64(0xcccc),
            Bytes::new(),
            0,
            &client_hello(),
        )
    }

    /// A server reply to a *spoofed* client: Initial (Server Hello) +
    /// Handshake coalesced, sealed under keys derived from the client's
    /// original DCID — which the telescope never sees.
    fn server_backscatter() -> Vec<u8> {
        let original_dcid = ConnectionId::from_u64(0x5555);
        let keys = InitialSecrets::derive(Version::Draft29, &original_dcid);
        let server_scid = ConnectionId::from_u64(0x9999);
        let initial = Packet::Initial {
            version: Version::Draft29,
            // Server replies to the client's (empty) SCID: DCID len 0,
            // the §5.2 validity signature.
            dcid: ConnectionId::EMPTY,
            scid: server_scid,
            token: Bytes::new(),
            packet_number: 0,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from(
                    ServerHello {
                        random: [7u8; 32],
                        cipher_suite: cipher_suite::AES_128_GCM_SHA256,
                        key_share: Bytes::from_static(&[3u8; 32]),
                    }
                    .encode(),
                ),
            }]),
        };
        let handshake = Packet::Handshake {
            version: Version::Draft29,
            dcid: ConnectionId::EMPTY,
            scid: server_scid,
            packet_number: 0,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from(vec![0x0b; 600]), // opaque cert bytes
            }]),
        };
        let mut datagram = initial
            .encode(Some(keys.key(CryptoDir::ServerToClient)))
            .unwrap();
        datagram.extend(
            handshake
                .encode(Some(keys.key(CryptoDir::ServerToClient)))
                .unwrap(),
        );
        datagram
    }

    #[test]
    fn client_initial_detected_with_client_hello() {
        let dissected = dissect_udp_payload(&client_initial()).unwrap();
        assert_eq!(dissected.messages.len(), 1);
        let m = &dissected.messages[0];
        assert_eq!(m.kind, MessageKind::Initial);
        assert_eq!(m.version, Some(Version::Draft29.to_wire()));
        assert_eq!(
            m.has_client_hello,
            Some(true),
            "passively derivable CH must be seen"
        );
    }

    #[test]
    fn server_backscatter_is_initial_without_client_hello() {
        let dissected = dissect_udp_payload(&server_backscatter()).unwrap();
        assert_eq!(dissected.messages.len(), 2);
        assert_eq!(dissected.messages[0].kind, MessageKind::Initial);
        assert_eq!(
            dissected.messages[0].has_client_hello,
            Some(false),
            "server initial must be opaque to the telescope"
        );
        assert_eq!(dissected.messages[1].kind, MessageKind::Handshake);
        assert!(dissected.all_dcids_empty(), "§5.2 validity check");
    }

    #[test]
    fn scids_are_extracted_for_fig9() {
        let dissected = dissect_udp_payload(&server_backscatter()).unwrap();
        let scids: Vec<_> = dissected.scids().collect();
        assert_eq!(scids.len(), 2);
        assert!(scids.iter().all(|s| **s == ConnectionId::from_u64(0x9999)));
    }

    #[test]
    fn retry_detected() {
        let wire = Packet::Retry {
            version: Version::V1,
            dcid: ConnectionId::from_u64(1),
            scid: ConnectionId::from_u64(2),
            token: Bytes::from_static(b"tok"),
            original_dcid: ConnectionId::from_u64(3),
        }
        .encode(None)
        .unwrap();
        let dissected = dissect_udp_payload(&wire).unwrap();
        assert!(dissected.has_retry());
        assert_eq!(dissected.messages[0].kind, MessageKind::Retry);
    }

    #[test]
    fn version_negotiation_detected() {
        let wire = Packet::VersionNegotiation {
            dcid: ConnectionId::from_u64(1),
            scid: ConnectionId::from_u64(2),
            versions: vec![Version::V1],
        }
        .encode(None)
        .unwrap();
        let dissected = dissect_udp_payload(&wire).unwrap();
        assert_eq!(dissected.messages[0].kind, MessageKind::VersionNegotiation);
        assert_eq!(dissected.version(), Some(0));
    }

    #[test]
    fn one_rtt_detected() {
        let key = quicsand_wire::siphash::SipKey { k0: 1, k1: 2 };
        let wire = Packet::OneRtt {
            dcid: ConnectionId::new(&[1; 8]).unwrap(),
            spin: false,
            key_phase: false,
            packet_number: 5,
            payload: PacketPayload::new(vec![Frame::Ping]),
        }
        .encode(Some(key))
        .unwrap();
        let dissected = dissect_udp_payload(&wire).unwrap();
        assert_eq!(dissected.messages[0].kind, MessageKind::OneRtt);
        assert_eq!(dissected.messages[0].version, None);
        assert!(dissected.messages[0].scid.is_none());
    }

    #[test]
    fn non_quic_payloads_rejected() {
        // Empty.
        assert_eq!(dissect_udp_payload(&[]), Err(DissectError::Empty));
        // DNS-ish bytes (fixed bit clear).
        assert!(matches!(
            dissect_udp_payload(&[0x12, 0x34, 0x01, 0x00, 0x00, 0x01]),
            Err(DissectError::NotQuic(_))
        ));
        // NTP-ish (first byte 0x23: short form but no fixed bit... 0x23
        // has 0x40 clear).
        assert!(matches!(
            dissect_udp_payload(&[0x23; 48]),
            Err(DissectError::NotQuic(_))
        ));
    }

    #[test]
    fn truncated_quic_rejected() {
        let wire = client_initial();
        assert!(matches!(
            dissect_udp_payload(&wire[..20]),
            Err(DissectError::Truncated(_))
        ));
    }

    #[test]
    fn unknown_version_rejected_as_bad_version() {
        // A structurally valid Initial whose version is garbage:
        // long+fixed bits, version 0xdeadbeef, empty DCID/SCID, empty
        // token, Length = 32, then 32 payload bytes.
        let mut wire = vec![0xc0, 0xde, 0xad, 0xbe, 0xef, 0x00, 0x00, 0x00, 0x20];
        wire.extend_from_slice(&[0u8; 32]);
        assert_eq!(
            dissect_udp_payload(&wire),
            Err(DissectError::BadVersion(0xdead_beef))
        );
    }

    #[test]
    fn oversized_cid_rejected_as_bad_cid() {
        // Long header, known version, then a DCID length of 0xff.
        let mut wire = vec![0xc0];
        wire.extend_from_slice(&Version::V1.to_wire().to_be_bytes());
        wire.push(0xff);
        wire.extend_from_slice(&[0u8; 64]);
        assert_eq!(dissect_udp_payload(&wire), Err(DissectError::BadCid(0xff)));
    }

    #[test]
    fn kind_labels() {
        assert_eq!(MessageKind::Initial.label(), "Initial");
        assert_eq!(
            MessageKind::VersionNegotiation.label(),
            "VersionNegotiation"
        );
        assert_eq!(MessageKind::OneRtt.label(), "1-RTT");
    }
}
