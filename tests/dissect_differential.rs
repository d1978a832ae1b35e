//! Differential test: the in-place dissector against a reference
//! composed from the owned wire API.
//!
//! `dissect_udp_payload` walks a datagram through borrowed views, derives
//! only the client key, decrypts into a reused buffer and never builds a
//! `Vec<Frame>`. The reference below is the dissector as it was before
//! that — `parse_datagram` → version check → `InitialSecrets::derive` →
//! `ParsedPacket::open` → `peek_handshake_type` — kept here, in owned
//! types, as the statement of what the verdict *is*. The two must agree
//! on the `Ok` value and on the `DissectError`, for every payload the
//! generators, the adversarial corpus and the fault injector produce,
//! and for every truncation and bit flip of the two packet shapes the
//! telescope sees most.
//!
//! Over the same payloads, `check_udp_payload` — the live path's
//! extraction, the same walk without the trial decryption — must return
//! exactly the dissection's message kinds, and exactly its
//! `DissectError` when it rejects. The batch path's extraction must
//! return the dissection itself for a response, and for a request the
//! dissection with every Initial left unopened (verdict `None`), with
//! the same `DissectError`.

use corpus::adversarial_corpus;
use quicsand_dissect::{
    check_udp_payload, classify_record, dissect_udp_payload, Classification, Direction,
    DissectError, DissectedPacket, Extraction, MessageKind, MessageMeta,
};
use quicsand_faults::{FaultPlan, FaultProfile};
use quicsand_net::PacketRecord;
use quicsand_traffic::{Scenario, ScenarioConfig, ScenarioKind};
use quicsand_wire::crypto::InitialSecrets;
use quicsand_wire::header::LongPacketType;
use quicsand_wire::packet::{parse_datagram, ParsedHeader};
use quicsand_wire::tls::{peek_handshake_type, HandshakeType};
use quicsand_wire::{Frame, Version, WireError};

#[path = "common/corpus.rs"]
mod corpus;

fn classify_wire_error(e: WireError) -> DissectError {
    match e {
        WireError::UnexpectedEnd { .. } | WireError::LengthOutOfBounds { .. } => {
            DissectError::Truncated(e)
        }
        WireError::UnsupportedVersion(v) => DissectError::BadVersion(v),
        WireError::CidTooLong(n) => DissectError::BadCid(n),
        other => DissectError::NotQuic(other),
    }
}

/// The reference verdict, from owned packets and owned frames.
fn reference_dissect(payload: &[u8]) -> Result<DissectedPacket, DissectError> {
    if payload.is_empty() {
        return Err(DissectError::Empty);
    }
    let parsed = parse_datagram(payload, 8).map_err(classify_wire_error)?;
    let mut messages = Vec::new();
    for (packet, aad) in &parsed {
        let header = &packet.header;
        let (kind, has_client_hello) = match header {
            ParsedHeader::Long {
                ty, version, dcid, ..
            } => {
                if let Version::Unknown(v) = version {
                    return Err(DissectError::BadVersion(*v));
                }
                let kind = match ty {
                    LongPacketType::Initial => MessageKind::Initial,
                    LongPacketType::ZeroRtt => MessageKind::ZeroRtt,
                    LongPacketType::Handshake => MessageKind::Handshake,
                    LongPacketType::Retry => MessageKind::Retry,
                };
                let opened = kind == MessageKind::Initial
                    && packet
                        .open(InitialSecrets::derive(*version, dcid).client, None, aad)
                        .is_ok_and(|(_, frames)| {
                            frames.iter().any(|f| {
                                matches!(f, Frame::Crypto { data, .. }
                                    if peek_handshake_type(data) == Ok(HandshakeType::ClientHello))
                            })
                        });
                (kind, Some(opened))
            }
            ParsedHeader::Retry { version, .. } => {
                if let Version::Unknown(v) = version {
                    return Err(DissectError::BadVersion(*v));
                }
                (MessageKind::Retry, Some(false))
            }
            ParsedHeader::VersionNegotiation { .. } => {
                (MessageKind::VersionNegotiation, Some(false))
            }
            ParsedHeader::Short { .. } => (MessageKind::OneRtt, Some(false)),
        };
        messages.push(MessageMeta {
            kind,
            version: header.version().map(Version::to_wire),
            scid: header.scid(),
            dcid: header.dcid(),
            has_client_hello,
            wire_len: packet.wire_len,
        });
    }
    Ok(DissectedPacket { messages })
}

/// `dissected` with every Initial's verdict set to `None`: what the
/// batch extraction keeps of a request, whose Initials it leaves sealed.
fn unopened(mut dissected: DissectedPacket) -> DissectedPacket {
    for m in &mut dissected.messages {
        if m.kind == MessageKind::Initial {
            m.has_client_hello = None;
        }
    }
    dissected
}

#[track_caller]
fn assert_same_verdict(what: &str, payload: &[u8]) {
    let got = dissect_udp_payload(payload);
    let want = reference_dissect(payload);
    assert_eq!(
        got,
        want,
        "{what}: verdicts differ on a {}-byte payload",
        payload.len()
    );
    assert_eq!(
        DissectedPacket::extract(payload, Direction::Response),
        got,
        "{what}: the response extraction and the dissection differ on a {}-byte payload",
        payload.len()
    );
    assert_eq!(
        DissectedPacket::extract(payload, Direction::Request),
        got.clone().map(unopened),
        "{what}: the request extraction is not the unopened dissection on a {}-byte payload",
        payload.len()
    );
    assert_eq!(
        check_udp_payload(payload),
        got.map(|d| d.kinds()),
        "{what}: the check and the dissection differ on a {}-byte payload",
        payload.len()
    );
}

/// The UDP/443 payloads of a record stream, in capture order.
fn quic_payloads(records: &[PacketRecord]) -> impl Iterator<Item = &[u8]> {
    records
        .iter()
        .filter(|r| matches!(classify_record(r), Classification::QuicCandidate(_)))
        .filter_map(|r| r.udp_payload().map(|p| p.as_slice()))
}

/// Checks every UDP/443 payload of `records`.
fn assert_stream_agrees(what: &str, records: &[PacketRecord]) {
    let mut checked = 0;
    for payload in quic_payloads(records) {
        assert_same_verdict(what, payload);
        checked += 1;
    }
    assert!(checked > 0, "{what}: no UDP/443 payloads to compare");
}

#[test]
fn corpus_verdicts_equal_the_reference() {
    for entry in adversarial_corpus() {
        assert_same_verdict(entry.name, &entry.payload);
    }
}

#[test]
fn scenario_payloads_equal_the_reference() {
    let config = ScenarioConfig::test();
    assert_stream_agrees("baseline", &Scenario::generate(&config).records);
    for kind in ScenarioKind::all() {
        assert_stream_agrees(kind.label(), &kind.generate(&config).records);
    }
}

#[test]
fn faulted_payloads_equal_the_reference() {
    let records = Scenario::generate(&ScenarioConfig::test()).records;
    let faulted = FaultPlan::new(FaultProfile::aggressive(), 0xD1FF).apply_all(&records);
    assert_stream_agrees("aggressive faults", &faulted);
}

/// Every strict prefix and every single-bit flip of the two shapes that
/// make up the telescope's QUIC traffic: a padded client Initial that
/// opens to a Client Hello, and a coalesced Initial + Handshake
/// backscatter datagram that does not open.
#[test]
fn truncations_and_bit_flips_equal_the_reference() {
    let records = Scenario::generate(&ScenarioConfig::test()).records;
    let find = |what: &str, shape: fn(&DissectedPacket) -> bool| {
        quic_payloads(&records)
            .find(|p| dissect_udp_payload(p).is_ok_and(|d| shape(&d)))
            .unwrap_or_else(|| panic!("scenario carries {what}"))
            .to_vec()
    };
    let client_initial = find("a padded client initial", |d| {
        d.messages.len() == 1 && d.messages[0].has_client_hello == Some(true)
    });
    assert!(client_initial.len() >= quicsand_wire::MIN_INITIAL_SIZE);
    let backscatter = find("a coalesced backscatter datagram", |d| {
        let kinds: Vec<_> = d.messages.iter().map(|m| m.kind).collect();
        kinds == [MessageKind::Initial, MessageKind::Handshake]
            && d.messages[0].has_client_hello == Some(false)
    });

    for (what, wire) in [
        ("client initial", client_initial),
        ("backscatter", backscatter),
    ] {
        for cut in 0..wire.len() {
            assert_same_verdict(&format!("{what} cut at {cut}"), &wire[..cut]);
        }
        let mut flipped = wire.clone();
        for bit in 0..wire.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_same_verdict(&format!("{what} with bit {bit} flipped"), &flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
