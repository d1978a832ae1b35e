//! Allocation pin for the checkpoint cycle.
//!
//! A checkpoint is the one place an attacker-sized input (one tracked
//! victim per spoofed source) meets the JSON layer, so what the layer
//! allocates per victim is what a `--checkpoint-every` cycle costs. This
//! binary counts heap allocations (it owns the process's global
//! allocator, hence its own file) and pins both directions directly
//! instead of through a timing threshold:
//!
//! * reading a checkpoint into its typed snapshot costs less than half
//!   of what parsing the text into a bare `serde::Value` costs — the
//!   typed read pulls from the text, there is no tree and no `String`
//!   per key on the way;
//! * writing one allocates less than once per victim and guard entry —
//!   the text is appended in place, there is no tree and no `String`
//!   per number or per field name;
//! * and what is written is byte for byte what was read.

use quicsand_live::parse_checkpoint;
use serde::Value;

#[path = "common/churn_checkpoint.rs"]
mod churn_checkpoint;
#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use churn_checkpoint::churn_checkpoint;
use counting_alloc::allocations_during;

/// The summed length of every array stored under `key`, at any depth.
fn members(value: &Value, key: &str) -> u64 {
    match value {
        Value::Map(entries) => entries
            .iter()
            .map(|(name, inner)| match inner.as_seq() {
                Some(items) if name == key => items.len() as u64,
                _ => members(inner, key),
            })
            .sum(),
        Value::Seq(items) => items.iter().map(|inner| members(inner, key)).sum(),
        _ => 0,
    }
}

/// The three pins, on one checkpoint text; returns its victim count.
fn check_cycle(text: &str) -> u64 {
    let (tree, tree_allocations) =
        allocations_during(|| serde_json::from_str::<Value>(text).expect("checkpoint is JSON"));
    let victims = members(&tree, "states");
    let guards = members(&tree, "guards");
    drop(tree);

    let (snapshot, typed_allocations) = allocations_during(|| parse_checkpoint(text));
    let snapshot = snapshot.expect("checkpoint parses");
    assert!(
        typed_allocations * 2 <= tree_allocations,
        "reading the typed snapshot allocated {typed_allocations} times, \
         more than half the {tree_allocations} of parsing the text into a bare tree"
    );

    let (written, write_allocations) = allocations_during(|| serde_json::to_string(&snapshot));
    let written = written.expect("snapshot serializes");
    assert!(
        write_allocations < victims + guards + 64,
        "writing {victims} victim(s) and {guards} guard entries allocated {write_allocations} times"
    );
    assert!(
        written == text,
        "the text written differs from the text read"
    );
    victims
}

#[test]
fn the_golden_checkpoint_moves_in_and_streams_out() {
    let golden = include_str!("golden/checkpoint-v4.json");
    assert!(check_cycle(golden.trim_end()) > 0);
}

#[test]
fn a_churned_checkpoint_moves_in_and_streams_out() {
    let text = churn_checkpoint(3_000, 2_048);
    assert!(check_cycle(&text) >= 2_000);
}
