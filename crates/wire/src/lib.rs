//! # quicsand-wire
//!
//! RFC 9000 QUIC wire-format codec used throughout the QUICsand
//! reproduction.
//!
//! The crate implements the subset of QUIC v1 (and the pre-standard drafts
//! observed by the paper: `draft-29` and Facebook's `mvfst-draft-27`) that
//! is visible to a passive observer and that is exercised by the paper's
//! active experiments:
//!
//! * [`varint`] — RFC 9000 §16 variable-length integer encoding.
//! * [`cid`] — connection identifiers (0–20 bytes).
//! * [`version`] — the QUIC version registry, including the
//!   version-negotiation reserved pattern.
//! * [`header`] — long and short packet headers.
//! * [`packet`] — complete packets: Initial, 0-RTT, Handshake, Retry,
//!   Version Negotiation and 1-RTT.
//! * [`frame`] — the frame types needed for handshakes and floods
//!   (PADDING, PING, ACK, CRYPTO, CONNECTION_CLOSE, NEW_CONNECTION_ID,
//!   HANDSHAKE_DONE).
//! * [`tls`] — a structural TLS 1.3 handshake-message model (ClientHello,
//!   ServerHello, EncryptedExtensions, Certificate, Finished) sufficient to
//!   reproduce message sizes and the dissector's "Initial without Client
//!   Hello ⇒ backscatter" heuristic from §6 of the paper.
//! * [`siphash`] — SipHash-2-4, the keyed primitive backing the toy AEAD
//!   and the retry integrity tag (substitution for AES-128-GCM, see
//!   DESIGN.md).
//! * [`crypto`] — toy initial-secret derivation and packet protection
//!   mirroring the *structure* of RFC 9001 (keys derived from the client's
//!   destination connection ID) without real cryptography.
//! * [`token`] / [`retry`] — stateless retry tokens and the retry
//!   integrity tag used by the RETRY resource-exhaustion defence the paper
//!   benchmarks in Table 1.
//! * [`pktnum`] — packet-number truncation and reconstruction
//!   (RFC 9000 §A).
//!
//! Everything round-trips: `decode(encode(x)) == x` is enforced by
//! property tests in every module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cid;
pub mod crypto;
pub mod error;
pub mod frame;
pub mod header;
pub mod packet;
pub mod pktnum;
pub mod retry;
pub mod siphash;
pub mod tls;
pub mod token;
pub mod varint;
pub mod version;

pub use cid::ConnectionId;
pub use error::WireError;
pub use frame::Frame;
pub use header::{LongHeader, LongPacketType, ShortHeader};
pub use packet::{Packet, PacketPayload};
pub use version::Version;

/// The UDP port QUIC (HTTP/3) servers listen on and the paper keys its
/// telescope classification on (§4.1).
pub const QUIC_PORT: u16 = 443;

/// Minimum UDP payload size a client must use for Initial packets
/// (RFC 9000 §14.1). Servers enforce this to bound amplification.
pub const MIN_INITIAL_SIZE: usize = 1200;

/// Maximum amplification factor a server may send to an unverified client
/// address (RFC 9000 §8.1): three times the data received.
pub const ANTI_AMPLIFICATION_FACTOR: usize = 3;
