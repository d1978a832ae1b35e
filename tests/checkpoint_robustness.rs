//! The checkpoint reader against damaged checkpoints.
//!
//! A checkpoint is read back from a file an operator can truncate, a
//! disk can flip a bit of, and a newer or older build can have written.
//! Whatever the text, [`parse_checkpoint`] returns a typed error or a
//! snapshot whose restored engine reconciles its own metrics and renders
//! every forensic slice — never a panic, never a stack overflow. The
//! texts are real checkpoints — the golden schema-v3 file and a churned
//! detector's — damaged the ways files get damaged.
//!
//! Every arrival profile a checkpoint carries, open or closed, is checked
//! as a window builds it, not repaired: a profile out of minute order, a
//! cell with no packet, with `first` after `last` or outside its minute,
//! or an open window whose `max_minute` is not its busiest cell is
//! refused by name.
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

const GOLDEN: &str = include_str!("golden/checkpoint-v3.json");

/// The two real checkpoints, as text.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        vec![
            GOLDEN.trim_end().to_string(),
            churn_checkpoint::churn_checkpoint(300, 128),
        ]
    })
}

/// The contract: an error with a message, or a snapshot that restores
/// into an engine whose counters reconcile and whose forensic slices
/// (`live --forensics-out`) can be built and rendered.
fn read(text: &str) -> Result<MultiSnapshot, String> {
    let snapshot = parse_checkpoint(text)?;
    let mut engine = LiveEngine::restore(&snapshot.engine);
    if let Err(errors) = engine.verify_metrics() {
        panic!("a checkpoint that parsed restores unreconciled: {errors:?}");
    }
    for slice in engine.alert_slices() {
        slice.to_qlog().expect("a restored slice renders");
    }
    Ok(snapshot)
}

/// A one-shard engine run to the end of the test scenario, and its
/// checkpoint: most of its QUIC alerts share their victim with a closed
/// common flood, so their slices carry common floods.
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
fn at<'t, S: AsRef<str>>(tree: &'t mut Value, path: &[S]) -> &'t mut Value {
    path.iter().fold(tree, |node, step| {
        let step = step.as_ref();
        match node {
            Value::Map(entries) => {
                let entry = entries.iter_mut().find(|(key, _)| key == step);
                &mut entry.expect("the path exists").1
            }
            Value::Seq(items) => &mut items[step.parse::<usize>().expect("an index")],
            _ => panic!("no container at {step}"),
        }
    })
}

fn tree(text: &str) -> Value {
    serde_json::from_str(text).expect("the corpus is JSON")
}

fn text(tree: &Value) -> String {
    serde_json::to_string(tree).expect("a tree serializes")
}

fn u64_at<S: AsRef<str>>(tree: &mut Value, path: &[S]) -> u64 {
    match at(tree, path) {
        Value::U64(n) => *n,
        other => panic!(
            "{:?} holds {other:?}",
            path.iter().map(AsRef::as_ref).collect::<Vec<_>>()
        ),
    }
}

/// The path of closed flood `index` of shard 0 (`channel` is
/// `closed_quic` or `closed_common`), then `rest`.
fn flood(channel: &str, index: usize, rest: &[&str]) -> Vec<String> {
    let head = ["engine", "shards", "0", "detector", channel];
    let mut path: Vec<String> = head.iter().map(|step| step.to_string()).collect();
    path.push(index.to_string());
    path.extend(rest.iter().map(|step| step.to_string()));
    path
}

/// How a refused profile of closed flood `index` is named.
fn closed_profile(whole: &str, channel: &str, index: usize) -> String {
    let mut tree = tree(whole);
    let Value::Str(victim) = at(&mut tree, &flood(channel, index, &["attack", "victim"])).clone()
    else {
        panic!("a victim is an address")
    };
    let end = u64_at(&mut tree, &flood(channel, index, &["attack", "end"]));
    let protocol = if channel == "closed_quic" {
        "QUIC"
    } else {
        "TCP/ICMP"
    };
    format!("checkpoint profile of the {protocol} flood closed on {victim} at {end}")
}

/// A restored engine's slices are what `live --forensics-out` writes,
/// so each must render: a closed flood's cell with `first` after `last`
/// would underflow the replay's `last - first`. A detector never writes
/// one, and a checkpoint that carries one is refused by name.
#[test]
fn a_closed_profile_a_window_cannot_build_is_refused() {
    let (engine, whole) = scenario_run();
    let slices = engine.alert_slices();
    assert!(slices.iter().any(|slice| !slice.commons.is_empty()));
    let snapshot = read(&whole).expect("as written");
    let restored = LiveEngine::restore(&snapshot.engine);
    assert_eq!(restored.alert_slices(), slices);

    // The first closed QUIC flood with a cell of at least two packets,
    // and the first closed common flood over at least two minutes.
    let mut pristine = tree(&whole);
    let (quic, cell) = (0..engine.closed_quic().len())
        .find_map(|i| {
            let cells = at(&mut pristine, &flood("closed_quic", i, &["profile"])).as_seq()?;
            let busy = cells
                .iter()
                .position(|cell| matches!(cell.get("count"), Some(Value::U64(n)) if *n > 1));
            busy.map(|cell| (i, cell.to_string()))
        })
        .expect("a closed QUIC flood with a busy minute");
    let common = (0..engine.closed_common().len())
        .find(|&i| {
            let cells = at(&mut pristine, &flood("closed_common", i, &["profile"])).as_seq();
            cells.is_some_and(|cells| cells.len() >= 2)
        })
        .expect("a closed common flood over two minutes");
    let busy = |field: &str| flood("closed_quic", quic, &["profile", &cell, field]);
    let minute = u64_at(&mut pristine, &busy("minute"));
    let (first, last) = (
        u64_at(&mut pristine, &busy("first")),
        u64_at(&mut pristine, &busy("last")),
    );
    assert!(first < last, "a busy cell spans time");

    // `first` after `last`: what the replay's `last - first` underflows on.
    let mut damaged = tree(&whole);
    *at(&mut damaged, &busy("first")) = Value::U64(last);
    *at(&mut damaged, &busy("last")) = Value::U64(first);
    assert_eq!(
        read(&text(&damaged)).expect_err("first after last"),
        format!(
            "{}: cell of minute {minute} has `first` {last} after `last` {first}",
            closed_profile(&whole, "closed_quic", quic)
        )
    );

    // Arrivals outside the cell's minute.
    let mut damaged = tree(&whole);
    *at(&mut damaged, &busy("minute")) = Value::U64(minute + 1);
    assert_eq!(
        read(&text(&damaged)).expect_err("a cell outside its minute"),
        format!(
            "{}: cell of minute {} holds arrivals outside it ({first}..={last})",
            closed_profile(&whole, "closed_quic", quic),
            minute + 1
        )
    );

    // Out of minute order: a common flood's first two cells swapped.
    let mut damaged = tree(&whole);
    let Value::Seq(cells) = at(&mut damaged, &flood("closed_common", common, &["profile"])) else {
        panic!("a profile is a sequence")
    };
    cells.swap(0, 1);
    let minutes: Vec<Option<&Value>> = cells.iter().map(|cell| cell.get("minute")).collect();
    let [Some(Value::U64(later)), Some(Value::U64(earlier)), ..] = minutes[..] else {
        panic!("cells have minutes")
    };
    let (later, earlier) = (*later, *earlier);
    assert_eq!(
        read(&text(&damaged)).expect_err("out of order"),
        format!(
            "{}: cell of minute {earlier} follows minute {later}",
            closed_profile(&whole, "closed_common", common)
        )
    );

    // A cell that counts no packet.
    let mut damaged = tree(&whole);
    let count = flood("closed_common", common, &["profile", "0", "count"]);
    *at(&mut damaged, &count) = Value::U64(0);
    let minute = u64_at(
        &mut damaged,
        &flood("closed_common", common, &["profile", "0", "minute"]),
    );
    assert_eq!(
        read(&text(&damaged)).expect_err("an empty cell"),
        format!(
            "{}: cell of minute {minute} counts no packet",
            closed_profile(&whole, "closed_common", common)
        )
    );
}

/// An open window joins its next packet by binary search over its cells
/// and measures its rate by `max_minute`: both are checked, on the
/// golden's open flood (victim 198.51.100.1, minutes 8, 9 and 10).
#[test]
fn an_open_window_a_detector_cannot_hold_is_refused() {
    let golden = GOLDEN.trim_end();
    read(golden).expect("as written");
    let victim = ["engine", "shards", "0", "detector", "common", "states", "0"];
    let window = [&victim[..], &["window"]].concat();
    let profile = [&window[..], &["profile"]].concat();
    let mut pristine = tree(golden);
    assert_eq!(
        at(&mut pristine, &[&victim[..], &["src"]].concat()),
        &Value::Str("198.51.100.1".into())
    );
    let busiest = u64_at(&mut pristine, &[&window[..], &["max_minute"]].concat());

    let mut damaged = tree(golden);
    *at(&mut damaged, &[&window[..], &["max_minute"]].concat()) = Value::U64(busiest - 1);
    assert_eq!(
        read(&text(&damaged)).expect_err("a stale max_minute"),
        format!(
            "checkpoint field `max_minute` of common victim 198.51.100.1 is {}, \
             but its busiest minute counts {busiest}",
            busiest - 1
        )
    );

    // The same minute twice: a binary search would find either.
    let mut damaged = tree(golden);
    *at(&mut damaged, &[&profile[..], &["1", "minute"]].concat()) = Value::U64(8);
    assert_eq!(
        read(&text(&damaged)).expect_err("a minute twice"),
        "checkpoint profile of common victim 198.51.100.1: cell of minute 8 follows minute 8"
    );
}

/// An open victim's evidence ring longer than the `evidence_capacity`
/// beside it is no ring a detector writes: restored, it has only its
/// first slots overwritten and closes with its packets out of order.
#[test]
fn a_ring_longer_than_its_capacity_is_refused() {
    let golden = GOLDEN.trim_end();
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

/// A claim to another schema is refused by that name, before the engine
/// is read where `version` comes first (so a v2-shaped engine is never
/// blamed field by field), and after it where it comes last.
#[test]
fn another_schema_is_refused_before_its_engine_is_read() {
    let refused = |claim: u64| {
        format!("invalid checkpoint: unsupported checkpoint schema v{claim} (this build reads v3)")
    };
    for claim in [1, 2, 4] {
        let hollow = format!(r#"{{"version":{claim},"engine":{{"not":"an engine"}},"cursors":7}}"#);
        assert_eq!(read(&hollow), Err(refused(claim)));
        let mut last = tree(GOLDEN.trim_end());
        *at(&mut last, &["version"]) = Value::U64(claim);
        if let Value::Map(entries) = &mut last {
            entries.rotate_left(1);
        }
        assert_eq!(read(&text(&last)), Err(refused(claim)));
    }
}

/// `depth` arrays around a `0`.
fn nest(depth: usize) -> Value {
    (0..depth).fold(Value::U64(0), |inner, _| Value::Seq(vec![inner]))
}

/// The `n`-th map of `tree` in document order (`n` counts down as they
/// go by): its entries, and how many containers it sits inside.
fn nth_struct<'t>(
    tree: &'t mut Value,
    n: &mut usize,
    depth: usize,
) -> Option<(&'t mut Vec<(String, Value)>, usize)> {
    match tree {
        Value::Map(entries) => {
            if *n == 0 {
                return Some((entries, depth));
            }
            *n -= 1;
            entries
                .iter_mut()
                .find_map(|(_, inner)| nth_struct(inner, n, depth + 1))
        }
        Value::Seq(items) => items
            .iter_mut()
            .find_map(|inner| nth_struct(inner, n, depth + 1)),
        _ => None,
    }
}

/// Runs `edit` on the entries and depth of one struct of `tree`: the
/// top level for `pick == 0`, any of them otherwise.
fn edit_struct(tree: &mut Value, pick: usize, edit: impl FnOnce(&mut Vec<(String, Value)>, usize)) {
    // Counting down from `usize::MAX` finds none and counts them all.
    let mut left = usize::MAX;
    nth_struct(tree, &mut left, 0);
    let mut n = pick % (usize::MAX - left);
    let (entries, depth) = nth_struct(tree, &mut n, 0).expect("counted");
    edit(entries, depth);
}

proptest! {
    #[test]
    fn a_truncated_checkpoint_is_an_error(which in 0usize..2, at in any::<usize>()) {
        let whole = &corpus()[which];
        let cut = &whole.as_bytes()[..at % whole.len()];
        // Every proper prefix of one JSON object is incomplete.
        let cut = std::str::from_utf8(cut).expect("the corpus is ASCII");
        let error = read(cut).expect_err("a proper prefix");
        prop_assert!(error.starts_with("checkpoint is not JSON: "), "{}", error);
    }

    #[test]
    fn a_flipped_bit_is_an_error_or_a_sound_snapshot(
        which in 0usize..2,
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
    fn a_bumped_or_retyped_version_is_refused_by_name(which in 0usize..2, claim in 0usize..14) {
        const CLAIMS: [(&str, &str); 14] = [
            ("0", "unsupported checkpoint schema v0"),
            ("1", "unsupported checkpoint schema v1"),
            ("2", "unsupported checkpoint schema v2"),
            ("4", "unsupported checkpoint schema v4"),
            ("18446744073709551615", "unsupported checkpoint schema v18446744073709551615"),
            ("18446744073709551616", "checkpoint is not JSON"),
            ("-2", "`version` must be an integer, got i64"),
            ("3.0", "`version` must be an integer, got f64"),
            ("\"3\"", "`version` must be an integer, got string"),
            ("null", "`version` must be an integer, got null"),
            ("true", "`version` must be an integer, got bool"),
            ("[3]", "`version` must be an integer, got sequence"),
            ("{\"v\":3}", "`version` must be an integer, got map"),
            ("3e", "checkpoint is not JSON"),
        ];
        let (claim, message) = CLAIMS[claim];
        let rest = corpus()[which]
            .strip_prefix("{\"version\":3,")
            .expect("every writer puts `version` first");
        let error = read(&format!("{{\"version\":{claim},{rest}")).expect_err(claim);
        prop_assert!(error.contains(message), "{}: {}", claim, error);
    }

    #[test]
    fn a_duplicated_key_resolves_to_its_first_occurrence(
        which in 0usize..2,
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
    fn top_level_keys_read_in_any_order(which in 0usize..2, turn in 1usize..4) {
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
        which in 0usize..2,
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
