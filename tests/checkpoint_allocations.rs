//! Allocation pin for the checkpoint cycle.
//!
//! A checkpoint is the one place an attacker-sized input (one tracked
//! victim per spoofed source) meets the JSON layer, so what the layer
//! allocates per victim is what a `--checkpoint-every` cycle costs. This
//! binary counts heap allocations (it owns the process's global
//! allocator, hence its own file) and pins both directions directly
//! instead of through a timing threshold:
//!
//! * reading a checkpoint into its typed snapshot costs about what
//!   parsing the text into a bare `serde::Value` costs — the typed
//!   conversion *moves* out of the tree, it does not copy subtrees;
//! * writing one allocates less than once per victim and guard entry —
//!   the text is appended in place, there is no tree and no `String`
//!   per number or per field name;
//! * and what is written is byte for byte what was read.

use quicsand_live::{parse_checkpoint, LiveConfig, LiveEngine, MultiSnapshot};
use quicsand_net::{PacketRecord, TcpFlags, Timestamp};
use quicsand_telescope::GuardConfig;
use serde::Value;
use std::net::Ipv4Addr;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
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
        typed_allocations * 4 <= tree_allocations * 5,
        "reading the typed snapshot allocated {typed_allocations} times, \
         more than 1.25x the {tree_allocations} of parsing the text into a bare tree"
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
    let golden = include_str!("golden/checkpoint-v2.json");
    assert!(check_cycle(golden.trim_end()) > 0);
}

#[test]
fn a_churned_checkpoint_moves_in_and_streams_out() {
    // The `victim_churn` shape in small: more spoofed sources than the
    // LRU holds, a handful of SYN-ACKs each, so the checkpoint is all
    // per-victim state and guard entries.
    const SOURCES: u32 = 3_000;
    const PACKETS_PER_SOURCE: u64 = 6;
    let config = LiveConfig {
        max_victims: 2_048,
        ..LiveConfig::default()
    };
    let mut records = Vec::new();
    for source in 0..SOURCES {
        let src = Ipv4Addr::from(0x0B00_0000 | source.wrapping_mul(0x9E_37_79) & 0x00FF_FFFF);
        for packet in 0..PACKETS_PER_SOURCE {
            records.push(PacketRecord::tcp(
                Timestamp::from_micros(u64::from(source) * 50_000 + packet * 7_000_000),
                src,
                Ipv4Addr::new(10, 0, (source >> 8) as u8, source as u8),
                443,
                50_000,
                TcpFlags::SYN_ACK,
            ));
        }
    }
    records.sort_by_key(|r| (r.ts, r.src));
    let mut engine = LiveEngine::new(config, GuardConfig::default(), 1);
    for chunk in records.chunks(4096) {
        engine.offer_chunk(chunk);
    }
    let snapshot = MultiSnapshot {
        version: quicsand_live::CHECKPOINT_SCHEMA_VERSION,
        engine: engine.snapshot(),
        cursors: vec![records.len() as u64],
    };
    let text = serde_json::to_string(&snapshot).expect("snapshot serializes");
    assert!(check_cycle(&text) >= 2_000);
}
