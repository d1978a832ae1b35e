//! The shared adversarial dissection corpus.
//!
//! Hand-crafted hostile payloads of the kind a darknet actually receives
//! — truncations at every field boundary, oversized CID lengths,
//! reserved-bit violations, bogus versions — each annotated with the
//! *typed error* (or success) it must dissect to. The corpus backs three
//! suites: the dissector's own typed-error conformance test, the
//! differential test that holds `check_udp_payload` to
//! `dissect_udp_payload`, and the capture round-trip test that writes
//! every entry to a capture, reads it back and dissects each payload as
//! a view into the reader's arena. Include it with
//! `#[path = "common/corpus.rs"] mod corpus;`.

use bytes::Bytes;
use quicsand_dissect::{DissectError, DissectedPacket, MessageKind};
use quicsand_wire::crypto::{seal, InitialSecrets, TAG_LEN};
use quicsand_wire::header::{LongHeader, LongPacketType};
use quicsand_wire::tls::{cipher_suite, ClientHello};
use quicsand_wire::varint::write_varint;
use quicsand_wire::{ConnectionId, Frame, Version};

/// What a corpus entry must dissect to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusExpect {
    /// Must parse successfully.
    Ok,
    /// Must parse successfully as one Initial with exactly this Client
    /// Hello verdict.
    ClientHello(bool),
    /// Must be rejected as an empty payload.
    Empty,
    /// Must be rejected as truncated.
    Truncated,
    /// Must be rejected with exactly this unknown version.
    BadVersion(u32),
    /// Must be rejected with exactly this oversized CID length.
    BadCid(usize),
    /// Must be rejected as structurally non-QUIC.
    NotQuic,
    /// Must be rejected, kind unconstrained (structurally ambiguous
    /// inputs where the exact classification is an implementation
    /// detail — but success would be a bug).
    AnyErr,
}

/// One adversarial payload with its expected dissection outcome.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Human-readable description of the malformation.
    pub name: &'static str,
    /// The hostile UDP payload.
    pub payload: Vec<u8>,
    /// The outcome `quicsand_dissect::dissect_udp_payload` must produce.
    #[allow(dead_code)] // the differential suite compares, not expects
    pub expect: CorpusExpect,
}

/// A structurally valid, hand-crafted Initial: long form + fixed bit,
/// version 1, empty CIDs, empty token, 5-byte protected payload.
fn minimal_initial() -> Vec<u8> {
    vec![
        0xc0, // long | fixed | type=Initial | pn_len=1
        0x00, 0x00, 0x00, 0x01, // version 1
        0x00, // dcid len
        0x00, // scid len
        0x00, // token length (varint)
        0x05, // length (varint)
        0x01, 0x02, 0x03, 0x04, 0x05, // pn + protected payload
    ]
}

/// An Initial with both connection IDs at the 20-byte maximum.
fn max_cid_initial(cut_dcid_short: bool) -> Vec<u8> {
    let mut wire = vec![0xc0, 0x00, 0x00, 0x00, 0x01];
    wire.push(20);
    wire.extend_from_slice(&[0x5A; 20][..if cut_dcid_short { 19 } else { 20 }]);
    if cut_dcid_short {
        return wire; // ends inside the DCID
    }
    wire.push(20);
    wire.extend_from_slice(&[0xA5; 20]);
    wire.extend_from_slice(&[0x00, 0x01, 0x09]); // token len, length, pn
    wire
}

/// A structurally valid Retry: version 1, empty CIDs, 3-byte token,
/// 16-byte integrity tag.
fn minimal_retry(tag_bytes: usize) -> Vec<u8> {
    let mut wire = vec![0xf0, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00];
    wire.extend_from_slice(b"tok");
    wire.extend_from_slice(&vec![0xEE; tag_bytes]);
    wire
}

/// A client Initial whose tag verifies under the key any observer
/// derives from its DCID, around an arbitrary `plaintext` — anyone can
/// craft these, so what follows a valid tag is still hostile input.
fn sealed_client_initial(plaintext: &[u8]) -> Vec<u8> {
    let dcid = ConnectionId::from_u64(0x00c0_ffee);
    let mut wire = Vec::new();
    LongHeader {
        ty: LongPacketType::Initial,
        version: Version::V1,
        dcid,
        scid: ConnectionId::EMPTY,
    }
    .encode(&mut wire, 1)
    .expect("pn_len 1 is legal");
    wire.push(0x00); // token length
    write_varint(&mut wire, (1 + plaintext.len() + TAG_LEN) as u64).expect("fits a varint");
    let key = InitialSecrets::client_key(Version::V1, &dcid);
    let sealed = seal(key, 0, &wire, plaintext);
    wire.push(0x00); // packet number 0
    wire.extend_from_slice(&sealed);
    wire
}

/// A CRYPTO frame at offset 0 carrying a TLS Client Hello.
fn client_hello_frame() -> Vec<u8> {
    let hello = ClientHello {
        random: [1u8; 32],
        cipher_suites: vec![cipher_suite::AES_128_GCM_SHA256],
        server_name: Some("example.org".into()),
        alpn: vec!["h3".into()],
        key_share: Bytes::from_static(&[2u8; 32]),
    };
    let mut frame = Vec::new();
    Frame::Crypto {
        offset: 0,
        data: Bytes::from(hello.encode()),
    }
    .encode(&mut frame)
    .expect("crypto frame encodes");
    frame
}

/// The full adversarial corpus (45 entries).
pub fn adversarial_corpus() -> Vec<CorpusEntry> {
    use CorpusExpect as E;
    let entry = |name, payload, expect| CorpusEntry {
        name,
        payload,
        expect,
    };
    vec![
        // --- degenerate inputs ------------------------------------
        entry("empty payload", vec![], E::Empty),
        entry("single zero byte", vec![0x00], E::NotQuic),
        entry("all zeros", vec![0u8; 64], E::NotQuic),
        entry(
            "dns-ish payload, fixed bit unset",
            vec![0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00],
            E::NotQuic,
        ),
        entry(
            "ascii shebang garbage",
            b"#!garbage shell script".to_vec(),
            E::NotQuic,
        ),
        // --- short-header edge cases ------------------------------
        entry("short form, no dcid", vec![0x40], E::Truncated),
        entry(
            "short form, dcid cut at 3 of 8 bytes",
            vec![0x40, 0x01, 0x02, 0x03],
            E::Truncated,
        ),
        entry(
            "short form, dcid but no packet number",
            vec![0x40, 1, 2, 3, 4, 5, 6, 7, 8],
            E::AnyErr,
        ),
        entry(
            "plausible 1-RTT packet",
            vec![0x43, 1, 2, 3, 4, 5, 6, 7, 8, 0xAA, 0xBB, 0xCC, 0xDD],
            E::Ok,
        ),
        // --- long-header reserved-bit violations ------------------
        entry(
            "long form, fixed bit clear, version 1",
            vec![0x80, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00],
            E::NotQuic,
        ),
        // --- long-header truncations at every field boundary ------
        entry("long form, version missing", vec![0xc0], E::Truncated),
        entry(
            "long form, version cut at 3 of 4 bytes",
            vec![0xc0, 0x00, 0x00, 0x00],
            E::Truncated,
        ),
        entry(
            "long form, dcid length byte missing",
            vec![0xc0, 0x00, 0x00, 0x00, 0x01],
            E::Truncated,
        ),
        entry(
            "dcid declares 8, carries 4",
            vec![0xc0, 0x00, 0x00, 0x00, 0x01, 0x08, 1, 2, 3, 4],
            E::Truncated,
        ),
        entry(
            "scid length byte missing",
            vec![0xc0, 0x00, 0x00, 0x00, 0x01, 0x00],
            E::Truncated,
        ),
        entry(
            "initial token varint declares 16383, carries none",
            vec![0xc0, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x7f, 0xff],
            E::Truncated,
        ),
        entry(
            "initial length field missing",
            vec![0xc0, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00],
            E::Truncated,
        ),
        entry(
            "length declares 0x30, carries 2",
            vec![
                0xc0, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x30, 0xAA, 0xBB,
            ],
            E::Truncated,
        ),
        entry(
            // The Retry token is not self-describing, so a cut is only
            // detectable once fewer than 16 tag bytes remain.
            "retry with 15 bytes where the 16-byte tag belongs",
            vec![
                0xf0, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, // header, empty cids
                0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, // 15 of 16
                0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE,
            ],
            E::Truncated,
        ),
        entry(
            "max-cid initial cut inside the dcid",
            max_cid_initial(true),
            E::Truncated,
        ),
        // --- version-field hostility ------------------------------
        entry(
            "unknown version 0xdeadbeef",
            {
                let mut wire = minimal_initial();
                wire[1..5].copy_from_slice(&0xdeadbeef_u32.to_be_bytes());
                wire
            },
            E::BadVersion(0xdeadbeef),
        ),
        entry(
            // Structural parsing runs before version semantics: the
            // 0xFF DCID-length byte is rejected before the unknown
            // version 0xffffffff is even considered.
            "all-ones packet (oversized cid wins over bad version)",
            vec![0xFF; 1200],
            E::BadCid(255),
        ),
        entry(
            "grease version 0x1a2a3a4a accepted",
            {
                let mut wire = minimal_initial();
                wire[1..5].copy_from_slice(&0x1a2a3a4a_u32.to_be_bytes());
                wire
            },
            E::Ok,
        ),
        // --- CID length hostility ---------------------------------
        entry(
            "dcid length 21 (one past the RFC max)",
            vec![0xc0, 0x00, 0x00, 0x00, 0x01, 0x15],
            E::BadCid(21),
        ),
        entry(
            "dcid length 255",
            vec![0xc0, 0x00, 0x00, 0x00, 0x01, 0xFF],
            E::BadCid(255),
        ),
        entry(
            "scid length 21 after a valid empty dcid",
            vec![0xc0, 0x00, 0x00, 0x00, 0x01, 0x00, 0x15],
            E::BadCid(21),
        ),
        entry(
            "both cids at the 20-byte maximum",
            max_cid_initial(false),
            E::Ok,
        ),
        // --- inconsistent length fields ---------------------------
        entry(
            "length zero but pn_len one",
            vec![0xc0, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00],
            E::NotQuic,
        ),
        // --- version negotiation ----------------------------------
        entry(
            "version negotiation with one offered version",
            vec![0x80, 0, 0, 0, 0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01],
            E::Ok,
        ),
        entry(
            "version negotiation with a partial version entry",
            vec![0x80, 0, 0, 0, 0, 0x00, 0x00, 0x00, 0x01],
            E::AnyErr,
        ),
        // --- positive controls ------------------------------------
        entry("minimal valid initial", minimal_initial(), E::Ok),
        entry("minimal valid retry", minimal_retry(16), E::Ok),
        entry(
            "valid initial coalesced with a truncated second packet",
            {
                let mut wire = minimal_initial();
                wire.push(0xc0);
                wire
            },
            E::AnyErr,
        ),
        // --- post-2021 version drift ------------------------------
        entry(
            "v2 initial accepted",
            {
                let mut wire = minimal_initial();
                wire[1..5].copy_from_slice(&0x6b3343cf_u32.to_be_bytes());
                wire
            },
            E::Ok,
        ),
        entry(
            "v2 initial with migration-grade 8-byte scid",
            vec![
                0xc0, 0x6b, 0x33, 0x43, 0xcf, // long | fixed, version 2
                0x00, // dcid len
                0x08, 1, 2, 3, 4, 5, 6, 7, 8,    // scid: the migration key
                0x00, // token length
                0x05, // length
                0x01, 0x02, 0x03, 0x04, 0x05, // pn + protected payload
            ],
            E::Ok,
        ),
        entry(
            "v2 retry accepted",
            {
                let mut wire = minimal_retry(16);
                wire[1..5].copy_from_slice(&0x6b3343cf_u32.to_be_bytes());
                wire
            },
            E::Ok,
        ),
        entry(
            "version negotiation offering v1 and v2",
            vec![
                0x80, 0, 0, 0, 0, 0x00, 0x00, // vn header, empty cids
                0x00, 0x00, 0x00, 0x01, // v1
                0x6b, 0x33, 0x43, 0xcf, // v2
            ],
            E::Ok,
        ),
        entry(
            "unregistered draft-31 version quarantined",
            {
                let mut wire = minimal_initial();
                wire[1..5].copy_from_slice(&0xff00001f_u32.to_be_bytes());
                wire
            },
            E::BadVersion(0xff00001f),
        ),
        // --- retry token-size variants ----------------------------
        entry(
            "retry with empty token",
            {
                let mut wire = vec![0xf0, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00];
                wire.extend_from_slice(&[0xEE; 16]);
                wire
            },
            E::Ok,
        ),
        entry(
            "retry with 128-byte amplification token",
            {
                let mut wire = vec![0xf0, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00];
                wire.extend_from_slice(&[0x7A; 128]);
                wire.extend_from_slice(&[0xEE; 16]);
                wire
            },
            E::Ok,
        ),
        // --- valid tag, hostile plaintext -------------------------
        entry(
            "opened initial, plaintext is padding only",
            sealed_client_initial(&[0u8; 40]),
            E::ClientHello(false),
        ),
        entry(
            "opened initial, plaintext is a lone padding byte",
            sealed_client_initial(&[0x00]),
            E::ClientHello(false),
        ),
        entry(
            "opened initial, padding before the client hello",
            sealed_client_initial(&[vec![0u8; 11], client_hello_frame()].concat()),
            E::ClientHello(true),
        ),
        entry(
            "opened initial, padding run ends exactly at the buffer end",
            sealed_client_initial(&[client_hello_frame(), vec![0u8; 13]].concat()),
            E::ClientHello(true),
        ),
        entry(
            // Every frame must decode: a Client Hello in front of a
            // frame type outside the subset is not a Client Hello.
            "opened initial, client hello then an unknown frame type",
            sealed_client_initial(&[client_hello_frame(), vec![0x30, 0x01]].concat()),
            E::ClientHello(false),
        ),
    ]
}

/// Asserts that `result` matches `expect`, with `name` in the failure
/// message. Shared by every suite that replays the corpus.
#[allow(dead_code)] // every suite but the differential one
pub fn assert_expected(
    name: &str,
    expect: CorpusExpect,
    result: &Result<DissectedPacket, DissectError>,
) {
    match expect {
        CorpusExpect::Ok => assert!(result.is_ok(), "{name}: expected Ok, got {result:?}"),
        CorpusExpect::ClientHello(verdict) => assert!(
            matches!(result, Ok(d) if matches!(d.messages.as_slice(),
                [m] if m.kind == MessageKind::Initial && m.has_client_hello == verdict)),
            "{name}: expected one Initial with has_client_hello == {verdict}, got {result:?}"
        ),
        CorpusExpect::Empty => assert!(
            matches!(result, Err(DissectError::Empty)),
            "{name}: expected Empty, got {result:?}"
        ),
        CorpusExpect::Truncated => assert!(
            matches!(result, Err(DissectError::Truncated(_))),
            "{name}: expected Truncated, got {result:?}"
        ),
        CorpusExpect::BadVersion(v) => assert!(
            matches!(result, Err(DissectError::BadVersion(got)) if *got == v),
            "{name}: expected BadVersion({v:#x}), got {result:?}"
        ),
        CorpusExpect::BadCid(n) => assert!(
            matches!(result, Err(DissectError::BadCid(got)) if *got == n),
            "{name}: expected BadCid({n}), got {result:?}"
        ),
        CorpusExpect::NotQuic => assert!(
            matches!(result, Err(DissectError::NotQuic(_))),
            "{name}: expected NotQuic, got {result:?}"
        ),
        CorpusExpect::AnyErr => assert!(result.is_err(), "{name}: expected an error, got Ok"),
    }
}
