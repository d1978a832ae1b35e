//! The checkpoint reader against damaged checkpoints.
//!
//! A checkpoint is read back from a file an operator can truncate, a
//! disk can flip a bit of, and a newer or older build can have written.
//! Whatever the text, [`parse_checkpoint`] returns a typed error or a
//! snapshot whose restored engine reconciles its own metrics — never a
//! panic, never a stack overflow. The texts are real checkpoints — the
//! golden schema-v2 file, its bare `engine` object (which is the v1
//! form) and a churned detector's — damaged the ways files get damaged.
//!
//! A restored engine must also build its forensic slices: a checkpoint
//! whose closed-flood arrays disagree is refused, not sliced past.
//!
//! Damage that changes no meaning (a duplicate *behind* the entry it
//! repeats, top-level entries in another order, an unknown field) must
//! also change no result.

use proptest::prelude::*;
use quicsand_live::{
    parse_checkpoint, LiveConfig, LiveEngine, MultiSnapshot, CHECKPOINT_SCHEMA_VERSION,
};
use quicsand_telescope::GuardConfig;
use quicsand_traffic::{Scenario, ScenarioConfig};
use serde::Value;
use serde_json::MAX_DEPTH;
use std::sync::OnceLock;

#[path = "common/churn_checkpoint.rs"]
mod churn_checkpoint;

/// The three real checkpoints, as text.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let golden = include_str!("golden/checkpoint-v2.json").trim_end();
        let engine = golden
            .split_once("\"engine\":")
            .and_then(|(_, rest)| rest.rsplit_once(",\"cursors\":"))
            .expect("the golden is {version, engine, cursors}")
            .0;
        vec![
            golden.to_string(),
            engine.to_string(),
            churn_checkpoint::churn_checkpoint(300, 128),
        ]
    })
}

/// The contract: an error with a message, or a snapshot that restores
/// into an engine whose counters reconcile and whose forensic slices
/// (`live --forensics-out`) can be built.
fn read(text: &str) -> Result<MultiSnapshot, String> {
    let snapshot = parse_checkpoint(text)?;
    let mut engine = LiveEngine::restore(&snapshot.engine);
    if let Err(errors) = engine.verify_metrics() {
        panic!("a checkpoint that parsed restores unreconciled: {errors:?}");
    }
    engine.alert_slices();
    Ok(snapshot)
}

/// A one-shard engine run to the end of the test scenario, and its
/// schema-v2 checkpoint: most of its QUIC alerts share their victim with
/// a closed common flood, so their slices carry common floods.
fn scenario_run() -> (LiveEngine, String) {
    let records = Scenario::generate(&ScenarioConfig::test()).records;
    let mut engine = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 1);
    for chunk in records.chunks(4096) {
        engine.offer_chunk(chunk);
    }
    engine.finish();
    let snapshot = MultiSnapshot {
        version: CHECKPOINT_SCHEMA_VERSION,
        engine: engine.snapshot(),
        cursors: vec![records.len() as u64],
    };
    let text = serde_json::to_string(&snapshot).expect("snapshot serializes");
    (engine, text)
}

/// The value at `path` of a tree of maps and sequences.
fn at<'t>(tree: &'t mut Value, path: &[&str]) -> &'t mut Value {
    path.iter().fold(tree, |node, step| match node {
        Value::Map(entries) => {
            let entry = entries.iter_mut().find(|(key, _)| key == step);
            &mut entry.expect("the path exists").1
        }
        Value::Seq(items) => &mut items[step.parse::<usize>().expect("an index")],
        _ => panic!("no container at {step}"),
    })
}

/// A closed common flood is written as three arrays of one entry each.
/// A checkpoint that lists fewer profiles or evidence rings than floods
/// is no checkpoint a detector writes: it is refused by name, before a
/// restored engine can lose floods or slice past the short array.
#[test]
fn closed_common_floods_listed_unevenly_are_refused() {
    let (engine, whole) = scenario_run();
    let slices = engine.alert_slices();
    assert!(slices.iter().any(|slice| !slice.commons.is_empty()));
    let snapshot = read(&whole).expect("as written");
    let restored = LiveEngine::restore(&snapshot.engine);
    assert_eq!(restored.alert_slices(), slices);

    let floods = engine.closed_common().len();
    assert!(floods > 0);
    for field in ["common_profiles", "common_evidence"] {
        let mut damaged = tree(&whole);
        *at(&mut damaged, &["engine", "shards", "0", "detector", field]) = Value::Seq(Vec::new());
        let error = read(&text(&damaged)).expect_err(field);
        assert_eq!(
            error,
            format!(
                "checkpoint field `{field}` lists 0 entry(ies), \
                 but `closed_common` lists {floods} closed flood(s)"
            )
        );
    }
}

fn tree(text: &str) -> Value {
    serde_json::from_str(text).expect("the corpus is JSON")
}

fn text(tree: &Value) -> String {
    serde_json::to_string(tree).expect("a tree serializes")
}

/// The one object of a checkpoint that is a map and not a struct: its
/// keys are minutes, a later duplicate replaces an earlier one and there
/// is no such thing as an unknown field.
const MAP_FIELD: &str = "minute_counts";

/// The `n`-th struct of `tree` in document order (`n` counts down as
/// they go by): its entries, and how many containers it sits inside.
fn nth_struct<'t>(
    tree: &'t mut Value,
    n: &mut usize,
    depth: usize,
    is_struct: bool,
) -> Option<(&'t mut Vec<(String, Value)>, usize)> {
    match tree {
        Value::Map(entries) => {
            if is_struct && *n == 0 {
                return Some((entries, depth));
            }
            *n -= usize::from(is_struct);
            entries
                .iter_mut()
                .find_map(|(key, inner)| nth_struct(inner, n, depth + 1, key != MAP_FIELD))
        }
        Value::Seq(items) => items
            .iter_mut()
            .find_map(|inner| nth_struct(inner, n, depth + 1, true)),
        _ => None,
    }
}

/// Runs `edit` on the entries and depth of one struct of `tree`: the
/// top level for `pick == 0`, any of them otherwise.
fn edit_struct(tree: &mut Value, pick: usize, edit: impl FnOnce(&mut Vec<(String, Value)>, usize)) {
    // Counting down from `usize::MAX` finds none and counts them all.
    let mut left = usize::MAX;
    nth_struct(tree, &mut left, 0, true);
    let mut n = pick % (usize::MAX - left);
    let (entries, depth) = nth_struct(tree, &mut n, 0, true).expect("counted");
    edit(entries, depth);
}

/// An open victim's evidence ring longer than the `evidence_capacity`
/// beside it is no ring a detector writes: restored, it has only its
/// first slots overwritten and closes with its packets out of order.
#[test]
fn a_ring_longer_than_its_capacity_is_refused() {
    for golden in [
        include_str!("golden/checkpoint-v2.json"),
        include_str!("golden/checkpoint-v2-full-rings.json"),
    ] {
        let golden = golden.trim_end();
        read(golden).expect("as written");
        let shrunk = golden.replacen("\"evidence_capacity\":16", "\"evidence_capacity\":4", 1);
        assert_ne!(shrunk, golden);
        let error = read(&shrunk).expect_err("a 16-packet ring at capacity 4");
        assert_eq!(
            error,
            "checkpoint field `evidence` of common victim 198.51.100.1 holds 16 packet(s), \
             more than `evidence_capacity` 4"
        );
    }
}

/// `depth` arrays around a `0`.
fn nest(depth: usize) -> Value {
    (0..depth).fold(Value::U64(0), |inner, _| Value::Seq(vec![inner]))
}

proptest! {
    #[test]
    fn a_truncated_checkpoint_is_an_error(which in 0usize..3, at in any::<usize>()) {
        let whole = &corpus()[which];
        let cut = &whole.as_bytes()[..at % whole.len()];
        // Every proper prefix of one JSON object is incomplete.
        let cut = std::str::from_utf8(cut).expect("the corpus is ASCII");
        let error = read(cut).expect_err("a proper prefix");
        prop_assert!(error.starts_with("checkpoint is not JSON: "), "{}", error);
    }

    #[test]
    fn a_flipped_bit_is_an_error_or_a_sound_snapshot(
        which in 0usize..3,
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = corpus()[which].clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        // Text that is no longer UTF-8 never reaches the parser: the
        // CLI's `read_to_string` refuses it.
        if let Ok(text) = String::from_utf8(bytes) {
            if let Err(error) = read(&text) {
                prop_assert!(!error.is_empty());
            }
        }
    }

    #[test]
    fn a_bumped_or_retyped_version_is_refused_by_name(which in 0usize..3, claim in 0usize..12) {
        const CLAIMS: [(&str, &str); 12] = [
            ("0", "unsupported checkpoint schema v0"),
            ("3", "unsupported checkpoint schema v3"),
            ("18446744073709551615", "unsupported checkpoint schema v18446744073709551615"),
            ("18446744073709551616", "checkpoint is not JSON"),
            ("-2", "`version` must be an integer, got i64"),
            ("2.0", "`version` must be an integer, got f64"),
            ("\"2\"", "`version` must be an integer, got string"),
            ("null", "`version` must be an integer, got null"),
            ("true", "`version` must be an integer, got bool"),
            ("[2]", "`version` must be an integer, got sequence"),
            ("{\"v\":2}", "`version` must be an integer, got map"),
            ("2e", "checkpoint is not JSON"),
        ];
        let (claim, message) = CLAIMS[claim];
        let original = &corpus()[which];
        let claimed = match original.strip_prefix("{\"version\":2,") {
            Some(rest) => format!("{{\"version\":{claim},{rest}"),
            // The v1 form: any `version` at all is a claim to be v2-shaped.
            None => format!("{{\"version\":{claim},{}", &original[1..]),
        };
        let error = read(&claimed).expect_err(claim);
        prop_assert!(error.contains(message), "{}: {}", claim, error);
    }

    #[test]
    fn a_duplicated_key_resolves_to_its_first_occurrence(
        which in 0usize..3,
        pick in any::<usize>(),
        entry in any::<usize>(),
        behind in any::<bool>(),
    ) {
        let original = read(&corpus()[which]).expect("the corpus parses");
        let mut damaged = tree(&corpus()[which]);
        let mut spoiled = damaged.clone();
        edit_struct(&mut damaged, pick, |entries, _| {
            let (key, value) = entries[entry % entries.len()].clone();
            if behind {
                // Ignored, whatever it holds.
                entries.push((key, Value::Seq(vec![Value::Null])));
            } else {
                entries.insert(0, (key, value));
            }
        });
        prop_assert_eq!(read(&text(&damaged)), Ok(original));
        // In front, it is the one that is read: no field of a checkpoint
        // is a sequence holding `null`.
        edit_struct(&mut spoiled, pick, |entries, _| {
            let key = entries[entry % entries.len()].0.clone();
            entries.insert(0, (key, Value::Seq(vec![Value::Null])));
        });
        let error = read(&text(&spoiled)).expect_err("a field of the wrong type");
        prop_assert!(error.contains("checkpoint"), "{}", error);
    }

    #[test]
    fn top_level_keys_read_in_any_order(which in 0usize..3, turn in 1usize..4) {
        let original = read(&corpus()[which]).expect("the corpus parses");
        let mut reordered = tree(&corpus()[which]);
        edit_struct(&mut reordered, 0, |entries, _| {
            let turn = turn % entries.len();
            entries.rotate_left(turn);
        });
        prop_assert_eq!(read(&text(&reordered)), Ok(original));
    }

    #[test]
    fn an_unknown_field_is_read_past_down_to_the_nesting_bound(
        which in 0usize..3,
        pick in any::<usize>(),
    ) {
        let original = read(&corpus()[which]).expect("the corpus parses");
        let mut shallow = tree(&corpus()[which]);
        let mut at_the_bound = shallow.clone();
        let mut beyond = shallow.clone();
        edit_struct(&mut shallow, pick, |entries, _| {
            entries.insert(0, ("not a field".into(), nest(8)));
        });
        // The map itself is `depth + 1` containers deep.
        edit_struct(&mut at_the_bound, pick, |entries, depth| {
            entries.push(("not a field".into(), nest(MAX_DEPTH - depth - 1)));
        });
        edit_struct(&mut beyond, pick, |entries, depth| {
            entries.push(("not a field".into(), nest(MAX_DEPTH - depth)));
        });
        prop_assert_eq!(read(&text(&shallow)), Ok(original.clone()));
        prop_assert_eq!(read(&text(&at_the_bound)), Ok(original));
        let error = read(&text(&beyond)).expect_err("one level too many");
        prop_assert!(error.contains("nesting deeper than 128"), "{}", error);
        let error = read(&text(&nest(MAX_DEPTH + 1))).expect_err("no checkpoint at all");
        prop_assert!(error.contains("nesting deeper than 128"), "{}", error);
    }
}
