//! Fuzz-style adversarial corpus for the dissector and header parser.
//!
//! The corpus itself lives in `tests/common/corpus.rs` — each entry is
//! a hand-crafted hostile payload of the kind a darknet actually
//! receives, and each must produce the *right typed error*: never a
//! panic, never a false success, and never a coarser error than the
//! malformation deserves (the quarantine taxonomy depends on the
//! distinction). The same corpus is replayed through the capture layer
//! by `tests/capture_roundtrip.rs`.

use corpus::{adversarial_corpus, assert_expected};
use quicsand_dissect::dissect_udp_payload;
use quicsand_wire::header::{LongHeader, ShortHeader};
use quicsand_wire::WireError;

#[path = "common/corpus.rs"]
mod corpus;

#[test]
fn adversarial_corpus_gets_the_right_typed_error() {
    for entry in adversarial_corpus() {
        let result = dissect_udp_payload(&entry.payload);
        assert_expected(entry.name, entry.expect, &result);
    }
}

/// Every strict prefix of a valid Initial must fail to dissect — a
/// datagram is either complete or rejected, never partially accepted.
#[test]
fn every_prefix_of_a_valid_initial_is_rejected() {
    let wire = adversarial_corpus()
        .into_iter()
        .find(|e| e.name == "minimal valid initial")
        .expect("corpus carries the minimal initial")
        .payload;
    assert!(dissect_udp_payload(&wire).is_ok(), "full packet must parse");
    for cut in 1..wire.len() {
        let result = dissect_udp_payload(&wire[..cut]);
        assert!(
            result.is_err(),
            "prefix of {cut}/{} bytes must not dissect, got {result:?}",
            wire.len()
        );
    }
}

/// The post-2021 corpus entries carry semantics beyond pass/fail: the
/// v2 frames must announce the v2 wire version, the Retry variants
/// must register as retries whatever their token size, the VN entry
/// must read as version 0, and the migration-grade Initial must yield
/// the CID key the migration linker folds sessions on.
#[test]
fn post_2021_entries_expose_their_semantics() {
    let corpus = adversarial_corpus();
    let find = |name: &str| {
        &corpus
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("corpus carries {name:?}"))
            .payload
    };

    const V2_WIRE: u32 = 0x6b3343cf;
    let v2_initial = dissect_udp_payload(find("v2 initial accepted")).unwrap();
    assert_eq!(v2_initial.version(), Some(V2_WIRE));
    assert!(!v2_initial.has_retry());

    let v2_retry = dissect_udp_payload(find("v2 retry accepted")).unwrap();
    assert_eq!(v2_retry.version(), Some(V2_WIRE));
    assert!(v2_retry.has_retry());

    for name in [
        "retry with empty token",
        "retry with 128-byte amplification token",
    ] {
        let d = dissect_udp_payload(find(name)).unwrap();
        assert!(d.has_retry(), "{name} registers as a retry");
    }

    let vn = dissect_udp_payload(find("version negotiation offering v1 and v2")).unwrap();
    assert_eq!(vn.version(), Some(0), "vn announces version 0");

    let keyed = dissect_udp_payload(find("v2 initial with migration-grade 8-byte scid")).unwrap();
    let key = keyed.client_cid_key().expect("non-empty scid yields a key");
    // Same scid bytes -> same key, independent of the rest of the frame.
    let again = dissect_udp_payload(find("v2 initial with migration-grade 8-byte scid")).unwrap();
    assert_eq!(again.client_cid_key(), Some(key));
    // A different scid yields a different key.
    let other = dissect_udp_payload(find("minimal valid initial")).unwrap();
    assert_ne!(other.client_cid_key(), Some(key));
}

/// The same boundary discipline at the header layer: typed `WireError`s
/// for the canonical malformations.
#[test]
fn header_layer_corpus() {
    // Short form offered to the long-header decoder.
    let mut slice: &[u8] = &[0x40, 0, 0, 0, 1, 0, 0];
    assert!(matches!(
        LongHeader::decode(&mut slice),
        Err(WireError::InvalidValue { .. })
    ));

    // Fixed bit clear on a non-negotiation version.
    let mut slice: &[u8] = &[0x80, 0, 0, 0, 1, 0, 0];
    assert_eq!(
        LongHeader::decode(&mut slice),
        Err(WireError::FixedBitUnset)
    );

    // Oversized CID length at the header layer.
    let mut slice: &[u8] = &[0xc0, 0, 0, 0, 1, 21];
    assert_eq!(
        LongHeader::decode(&mut slice),
        Err(WireError::CidTooLong(21))
    );

    // Truncation inside the version field.
    let mut slice: &[u8] = &[0xc0, 0, 0];
    assert!(matches!(
        LongHeader::decode(&mut slice),
        Err(WireError::UnexpectedEnd { .. })
    ));

    // Short header truncated inside the DCID.
    let mut slice: &[u8] = &[0x40, 1, 2];
    assert!(matches!(
        ShortHeader::decode(&mut slice, 8),
        Err(WireError::UnexpectedEnd { .. })
    ));

    // Short header with an out-of-range expected DCID length.
    let mut slice: &[u8] = &[0x40; 40];
    assert_eq!(
        ShortHeader::decode(&mut slice, 21),
        Err(WireError::CidTooLong(21))
    );

    // Long-header decoder never accepts any strict prefix of a valid
    // maximum-CID header.
    let full = adversarial_corpus()
        .into_iter()
        .find(|e| e.name == "both cids at the 20-byte maximum")
        .expect("corpus carries the max-CID initial")
        .payload;
    let header_len = 1 + 4 + 1 + 20 + 1 + 20;
    for cut in 0..header_len {
        let mut slice = &full[..cut];
        assert!(
            LongHeader::decode(&mut slice).is_err(),
            "header prefix of {cut} bytes must not decode"
        );
    }
}

#[test]
fn corpus_entries_have_unique_names() {
    let corpus = adversarial_corpus();
    assert_eq!(corpus.len(), 45);
    let mut names: Vec<_> = corpus.iter().map(|e| e.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), corpus.len(), "entry names must be unique");
}
