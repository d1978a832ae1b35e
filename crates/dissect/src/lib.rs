//! # quicsand-dissect
//!
//! Telescope-side traffic classification and QUIC payload dissection —
//! the reproduction of the paper's measurement method (§4.1):
//!
//! 1. **Port-based pre-filter** ([`classify`]): UDP packets with source
//!    *or* destination port 443 are QUIC candidates. Destination 443 ⇒
//!    request (scan); source 443 ⇒ response (backscatter). The two sets
//!    are disjoint by construction.
//! 2. **Payload dissection** ([`quic`]): a Wireshark-dissector stand-in
//!    with one structural walk over the UDP payload's (coalesced) QUIC
//!    packets and two extractions over it, chosen by the caller's type
//!    ([`Extraction`]). [`dissect_udp_payload`] extracts versions,
//!    connection IDs and message types and — like Wireshark — derives
//!    Initial keys from the destination connection ID to detect whether
//!    an Initial carries an unencrypted TLS Client Hello (the §6
//!    backscatter-validity heuristic); the batch figures read all of it,
//!    and their extraction opens only a response's Initials, the
//!    backscatter that heuristic reads (a request's verdict is `None`).
//!    [`check_udp_payload`] returns only the [`MessageKinds`] bitset,
//!    with no trial decryption and no allocation: what the live detector
//!    needs. Both accept and reject exactly the same payloads.
//! 3. **Aggregation** ([`stats`]): message-type mixes, SCID counting and
//!    RETRY presence, feeding Figs. 9 and the §6 discussion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod metrics;
pub mod quic;
pub mod stats;

pub use classify::{classify_record, Classification, Direction};
pub use metrics::DissectMetrics;
pub use quic::{
    check_udp_payload, dissect_udp_payload, DissectError, DissectedPacket, Extraction, MessageKind,
    MessageKinds, MessageMeta,
};
pub use stats::MessageMixStats;
