//! Checkpoint format golden.
//!
//! `tests/golden/checkpoint-v4.json` is the schema-v4 checkpoint the
//! detector writes at a fixed record of a fixed trace, and the current
//! code must write it byte for byte. Schema v4 writes each fact of the
//! engine's state once: an open victim is its arrival profile (an array
//! of minute cells in minute order) and its evidence ring oldest first,
//! and its window's bounds, count and busiest minute and its alert phase
//! are rebuilt from the profile on restore; a closed common flood is one
//! record; the guard thresholds are written once, for every shard.
//!
//! The trace is small and hand-built to put every shape the format can
//! take into the snapshot: a capped channel (`max_victims: 4`) that has
//! already evicted, a flood spanning several minute slots, a tolerated
//! late packet absorbed into the previous minute's existing slot, one
//! that opens a slot *earlier* than any the victim had, and closed
//! alerts (evicted and not) with their profiles and evidence rings.
//!
//! An evidence ring fills only once its session is within
//! `evidence_capacity` packets of the base thresholds' packet floor, so
//! the two one-packet victims (198.51.100.113 and .114) hold
//! `"evidence":[]`. A ring that holds such early packets is still a ring
//! a detector can resume: it has them overwritten before any close could
//! emit them. The test builds that "full rings" form from the golden and
//! holds it to the same replay.
//!
//! Re-bless only for an intentional change to what is written; a change
//! of shape needs a schema version bump:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test checkpoint_golden
//! ```

use quicsand_live::{
    parse_checkpoint, LiveEngine, LiveEvent, LiveEventKind, MultiSnapshot, MultiSourceLive,
    CHECKPOINT_SCHEMA_VERSION,
};
use quicsand_net::multi::{memory_factory, SourceFactory, SourceSet, SourceSetConfig};
use quicsand_net::PacketRecord;
use serde::Value;
use std::path::PathBuf;

#[path = "common/golden_trace.rs"]
mod golden_trace;
use golden_trace::{config, trace, CHUNK, CHUNKS_BEFORE_CHECKPOINT};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn feed(records: &[PacketRecord]) -> Vec<Box<dyn SourceFactory>> {
    vec![Box::new(memory_factory(records.to_vec()))]
}

fn fresh(records: &[PacketRecord]) -> MultiSourceLive {
    let (config, guard) = config();
    let set = SourceSet::spawn(feed(records), &SourceSetConfig::default());
    MultiSourceLive::new(config, guard, 1, set)
}

fn drain(live: &mut MultiSourceLive) -> Vec<LiveEvent> {
    let mut events = Vec::new();
    while let Some(chunk) = live.pump(CHUNK) {
        events.extend(chunk);
    }
    events.extend(live.finish());
    events
}

#[test]
fn checkpoint_bytes_and_resume_match_the_golden() {
    let records = trace();

    let mut straight = fresh(&records);
    let straight_events = drain(&mut straight);
    let straight_stats = straight.live_stats();

    let mut live = fresh(&records);
    let mut events = Vec::new();
    for _ in 0..CHUNKS_BEFORE_CHECKPOINT {
        events.extend(live.pump(CHUNK).expect("trace outlasts the checkpoint"));
    }
    let at_checkpoint = live.live_stats();
    let mut rendered = serde_json::to_string(&live.snapshot()).expect("snapshot serializes");
    rendered.push('\n');

    let path = golden_path("checkpoint-v4.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write checkpoint golden");
    }
    let golden = std::fs::read_to_string(&path).expect(
        "tests/golden/checkpoint-v4.json (UPDATE_GOLDEN=1 cargo test --test checkpoint_golden)",
    );

    // The trace really exercises what the golden is there to pin.
    assert!(at_checkpoint.evictions > 0, "{at_checkpoint:?}");
    assert_eq!(at_checkpoint.peak_tracked, 4, "{at_checkpoint:?}");
    assert!(at_checkpoint.opened >= 2, "{at_checkpoint:?}");
    assert!(
        straight_events
            .iter()
            .any(|e| e.kind == LiveEventKind::Closed && e.evicted),
        "an open alert is evicted"
    );
    assert!(straight_stats.evictions > at_checkpoint.evictions);

    assert!(
        rendered == golden,
        "checkpoint at record {} is not byte-identical to {} ({} vs {} bytes)",
        CHUNK * CHUNKS_BEFORE_CHECKPOINT,
        path.display(),
        rendered.len(),
        golden.len()
    );

    // Resume from the *file*, not from the snapshot in memory, and from
    // its full-rings form.
    let full_rings = with_full_rings(golden.trim_end());
    for (name, text) in [
        ("checkpoint-v4.json", golden.trim_end()),
        ("full rings", &full_rings),
    ] {
        let parsed = parse_checkpoint(text).expect(name);
        assert_eq!(parsed.version, 4);
        let mut restored =
            MultiSourceLive::restore(&parsed, feed(&records), &SourceSetConfig::default())
                .expect(name);
        assert_eq!(restored.snapshot(), parsed, "{name}: restore is lossless");
        let mut resumed = events.clone();
        resumed.extend(drain(&mut restored));
        assert_eq!(resumed, straight_events, "{name}: resumed run diverged");
        assert_eq!(restored.live_stats(), straight_stats, "{name}");
        restored
            .verify_metrics()
            .unwrap_or_else(|errors| panic!("{name}: restored run unreconciled: {errors:?}"));
    }
}

/// Schema v4 writes an open victim as its profile and ring alone and
/// rebuilds its window and alert phase: a run that goes through a
/// written, parsed and restored checkpoint every 97 records (open,
/// escalated and quiet victims, mid-flood and mid-eviction) emits the
/// uninterrupted run's event log.
#[test]
fn a_checkpoint_every_97_records_resumes_to_the_uninterrupted_log() {
    const EVERY: usize = 97;
    let records = trace();
    let (config, guard) = config();
    let mut straight = LiveEngine::new(config, guard, 1);
    let mut want = Vec::new();
    for part in records.chunks(EVERY) {
        want.extend(straight.offer_chunk(part));
    }
    want.extend(straight.finish());
    let stats = straight.live_stats();
    assert!(stats.escalated > 0 && stats.evictions > 0, "{stats:?}");

    let mut engine = LiveEngine::new(config, guard, 1);
    let mut got = Vec::new();
    for part in records.chunks(EVERY) {
        got.extend(engine.offer_chunk(part));
        let snapshot = MultiSnapshot {
            version: CHECKPOINT_SCHEMA_VERSION,
            engine: engine.snapshot(),
            cursors: vec![engine.offered()],
        };
        let text = serde_json::to_string(&snapshot).expect("snapshot serializes");
        let parsed = parse_checkpoint(&text).expect("a written checkpoint parses");
        engine = LiveEngine::restore(&parsed.engine);
        assert_eq!(engine.snapshot(), snapshot.engine, "restore is lossless");
    }
    got.extend(engine.finish());
    assert_eq!(got, want);
    assert_eq!(engine.live_stats(), stats);
    engine.verify_metrics().expect("the resumed run reconciles");
}

/// The checkpoint as a detector that recorded evidence from a session's
/// first packet would have written it: each one-packet victim's ring
/// holds that packet.
fn with_full_rings(golden: &str) -> String {
    fn field<'t>(entries: &'t mut [(String, Value)], name: &str) -> &'t mut Value {
        let entry = entries.iter_mut().find(|(key, _)| key == name);
        &mut entry.unwrap_or_else(|| panic!("a field `{name}`")).1
    }
    fn fill(node: &mut Value, filled: &mut usize) {
        match node {
            Value::Map(entries)
                if ["src", "profile"]
                    .iter()
                    .all(|name| entries.iter().any(|(key, _)| key == name)) =>
            {
                let Value::Seq(profile) = field(entries, "profile") else {
                    panic!("a profile is a sequence")
                };
                let [Value::Map(cell)] = &mut profile[..] else {
                    return;
                };
                if *field(cell, "count") != Value::U64(1) {
                    return;
                }
                let start = field(cell, "first").clone();
                let packet = Value::Map(vec![
                    ("ts".into(), start),
                    ("dst".into(), Value::Str("10.0.0.7".into())),
                    ("bytes".into(), Value::U64(40)),
                ]);
                *field(entries, "evidence") = Value::Seq(vec![packet]);
                *filled += 1;
            }
            Value::Map(entries) => entries
                .iter_mut()
                .for_each(|(_, inner)| fill(inner, filled)),
            Value::Seq(items) => items.iter_mut().for_each(|inner| fill(inner, filled)),
            _ => {}
        }
    }
    let mut tree: Value = serde_json::from_str(golden).expect("the golden is JSON");
    let mut filled = 0;
    fill(&mut tree, &mut filled);
    assert_eq!(filled, 2, "the golden holds two one-packet victims");
    serde_json::to_string(&tree).expect("a tree serializes")
}
