//! Event-stream determinism and the forensic replay contract.
//!
//! The typed event stream is a *product* of the run, so it obeys the
//! same online ≡ offline discipline as the alerts themselves: the
//! record-tied subsequence is byte-identical at any shard count, the
//! alert lifecycle agrees on everything the paper counts (attack
//! measures, per-victim order, the converged multi-vector verdict),
//! and the whole stream survives a mid-run JSON checkpoint/restore
//! byte for byte. And every closed QUIC alert's exported qlog slice
//! must be self-contained — feeding it back through a fresh detector
//! reproduces the same attack and multi-vector verdict.

use quicsand_events::{Event, EventMeta};
use quicsand_live::{parse_slice_qlog, replay_slice, LiveConfig, LiveEngine, LiveSnapshot};
use quicsand_net::PacketRecord;
use quicsand_sessions::SessionConfig;
use quicsand_telescope::GuardConfig;
use quicsand_traffic::{Scenario, ScenarioConfig};

/// A collected event stream: every `(meta, event)` in delivery order.
type Events = Vec<(EventMeta, Event)>;

/// The deterministic fig06-style scenario trace (capture order).
fn scenario_records() -> Vec<PacketRecord> {
    Scenario::generate(&ScenarioConfig::test()).records
}

/// Live configuration mirroring the batch pipeline's skew convention.
fn live_config(guard: &GuardConfig) -> LiveConfig {
    LiveConfig {
        session: SessionConfig {
            skew_tolerance: guard.reorder_tolerance,
            ..SessionConfig::default()
        },
        ..LiveConfig::default()
    }
}

/// Streams the trace through a fresh engine, collecting every typed
/// event in merged (record-index) order.
fn collect_events(
    records: &[PacketRecord],
    guard: GuardConfig,
    config: LiveConfig,
    shards: usize,
    chunk: usize,
) -> Events {
    let mut engine = LiveEngine::new(config, guard, shards);
    let mut subscriber = Events::new();
    for part in records.chunks(chunk) {
        let _ = engine.offer_chunk_with(part, &mut subscriber);
    }
    let _ = engine.finish_with(&mut subscriber);
    subscriber
}

/// Counts events in a collection whose qlog name matches `name`.
fn count(events: &Events, name: &str) -> usize {
    events.iter().filter(|(_, e)| e.name() == name).count()
}

/// The lifecycle subsequence (events with no record index), in
/// stream order.
fn lifecycle(events: &Events) -> Vec<Event> {
    events
        .iter()
        .filter(|(meta, _)| meta.record_index.is_none())
        .map(|(_, e)| e.clone())
        .collect()
}

/// The record-tied subsequence (events with a record index), in
/// stream order.
fn record_tied(events: &Events) -> Events {
    events
        .iter()
        .filter(|(meta, _)| meta.record_index.is_some())
        .cloned()
        .collect()
}

/// The attack-core of a close: every field except the
/// verdict-so-far (`class` / `overlap_share` / `gap_secs`), which is
/// legitimately sweep-cadence-dependent and converges via
/// reclassification.
fn close_core(e: &quicsand_events::AlertClosed) -> String {
    format!(
        "{} {} at={:?} start={:?} packets={} max_pps={:?} evicted={}",
        e.victim, e.protocol, e.at, e.start, e.packet_count, e.max_pps, e.evicted
    )
}

/// Asserts the honest lifecycle contract between two runs of the same
/// trace at different sweep cadences (shard count or chunk size):
/// open/escalate payloads match payload for payload, every close
/// agrees on its attack-core, the open/escalate/close skeleton
/// unfolds per `(victim, protocol)` in the same order, and the final
/// multi-vector verdict per `(victim, protocol)` converges to the
/// same answer. Only the verdict-so-far carried *on* a close — and
/// the reclassify traffic that converges it — may differ, because
/// idle sweeps ride each shard's local watermark and can close an
/// alert before or after a correlated flood lands.
fn assert_lifecycle_equivalent(run: &[Event], baseline: &[Event], label: &str) {
    let payload_multiset = |events: &[Event]| {
        let mut all: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                Event::AlertOpened(e) => Some(format!("{e:?}")),
                Event::AlertEscalated(e) => Some(format!("{e:?}")),
                _ => None,
            })
            .collect();
        all.sort();
        all
    };
    assert_eq!(
        payload_multiset(run),
        payload_multiset(baseline),
        "open/escalate payloads diverged at {label}"
    );

    let close_multiset = |events: &[Event]| {
        let mut all: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                Event::AlertClosed(e) => Some(close_core(e)),
                _ => None,
            })
            .collect();
        all.sort();
        all
    };
    assert_eq!(
        close_multiset(run),
        close_multiset(baseline),
        "close attack-cores diverged at {label}"
    );

    // The open/escalate/close skeleton per (victim, protocol), in
    // stream order, reclassifies excluded.
    let per_victim = |events: &[Event]| {
        let mut by_victim: std::collections::BTreeMap<_, Vec<String>> =
            std::collections::BTreeMap::new();
        for event in events {
            let (key, step) = match event {
                Event::AlertOpened(e) => ((e.victim, e.protocol.clone()), format!("{e:?}")),
                Event::AlertEscalated(e) => ((e.victim, e.protocol.clone()), format!("{e:?}")),
                Event::AlertClosed(e) => ((e.victim, e.protocol.clone()), close_core(e)),
                _ => continue,
            };
            by_victim.entry(key).or_default().push(step);
        }
        by_victim
    };
    assert_eq!(
        per_victim(run),
        per_victim(baseline),
        "per-victim lifecycle order diverged at {label}"
    );

    // The verdict each (victim, protocol) settles on — the last
    // close-or-reclassify in stream order — must converge.
    let final_verdict = |events: &[Event]| {
        let mut verdicts: std::collections::BTreeMap<_, String> = std::collections::BTreeMap::new();
        for event in events {
            let (key, verdict) = match event {
                Event::AlertClosed(e) => (
                    (e.victim, e.protocol.clone()),
                    format!("{:?} {:?} {:?}", e.class, e.overlap_share, e.gap_secs),
                ),
                Event::AlertReclassified(e) => (
                    (e.victim, e.protocol.clone()),
                    format!("{:?} {:?} {:?}", e.class, e.overlap_share, e.gap_secs),
                ),
                _ => continue,
            };
            verdicts.insert(key, verdict);
        }
        verdicts
    };
    assert_eq!(
        final_verdict(run),
        final_verdict(baseline),
        "converged verdicts diverged at {label}"
    );
}

/// Shard count is pure parallelism for everything the paper counts:
/// the record-tied subsequence is byte-identical (merged by absolute
/// record index), and the alert lifecycle satisfies
/// `assert_lifecycle_equivalent` — same opens/escalates, same close
/// attack-cores, same per-victim order, same converged verdicts.
#[test]
fn event_stream_is_shard_invariant_in_payload_and_per_victim_order() {
    let mut records = scenario_records();
    records.truncate(40_000);
    let guard = GuardConfig::default();
    let config = live_config(&guard);

    let baseline = collect_events(&records, guard, config, 1, 1024);
    // The live path emits dissect rejections and the full alert
    // lifecycle (session open/widen/expire events are an analyze-path
    // product); all of them must be present for the test to bite.
    assert!(
        count(&baseline, "quicsand:alert_opened") > 0
            && count(&baseline, "quicsand:alert_closed") > 0
            && count(&baseline, "quicsand:alert_reclassified") > 0
            && count(&baseline, "quicsand:wire_rejected") > 0,
        "trace must exercise the wire and alert lifecycles for the \
         test to mean anything"
    );

    let baseline_records = record_tied(&baseline);
    let baseline_lifecycle = lifecycle(&baseline);

    for shards in [2usize, 8] {
        let run = collect_events(&records, guard, config, shards, 1024);
        assert_eq!(
            record_tied(&run),
            baseline_records,
            "record-tied stream diverged at shards={shards}"
        );
        assert_lifecycle_equivalent(
            &lifecycle(&run),
            &baseline_lifecycle,
            &format!("shards={shards}"),
        );
    }
}

/// Chunk size moves sweep cadence exactly like shard count does
/// (idle sweeps run at chunk boundaries): the record-tied
/// subsequence is byte-identical at any chunk size, and the
/// lifecycle satisfies the same equivalence contract.
#[test]
fn record_and_lifecycle_projections_are_chunk_invariant() {
    let mut records = scenario_records();
    records.truncate(40_000);
    let guard = GuardConfig::default();
    let config = live_config(&guard);

    let baseline = collect_events(&records, guard, config, 2, 1024);
    let baseline_records = record_tied(&baseline);
    let baseline_lifecycle = lifecycle(&baseline);
    assert!(!baseline_records.is_empty() && !baseline_lifecycle.is_empty());
    for chunk in [7usize, 4096, usize::MAX] {
        let run = collect_events(&records, guard, config, 2, chunk);
        assert_eq!(
            record_tied(&run),
            baseline_records,
            "record-tied events diverged at chunk={chunk}"
        );
        assert_lifecycle_equivalent(
            &lifecycle(&run),
            &baseline_lifecycle,
            &format!("chunk={chunk}"),
        );
    }
}

#[test]
fn event_stream_survives_mid_run_checkpoint_restore() {
    let mut records = scenario_records();
    records.truncate(40_000);
    let guard = GuardConfig::default();
    let config = live_config(&guard);

    let straight = collect_events(&records, guard, config, 2, 1024);

    // Same stream, but the engine is serialized to JSON, dropped, and
    // rebuilt from the parsed snapshot every 15k records. Record
    // indices are absolute (the restored engine resumes its offered
    // count), so the merged event order must not move.
    let mut engine = LiveEngine::new(config, guard, 2);
    let mut subscriber = Events::new();
    let mut since = 0usize;
    for part in records.chunks(1024) {
        let _ = engine.offer_chunk_with(part, &mut subscriber);
        since += part.len();
        if since >= 15_000 {
            since = 0;
            let json = serde_json::to_string(&engine.snapshot()).expect("snapshot serializes");
            let parsed: LiveSnapshot = serde_json::from_str(&json).expect("snapshot parses");
            engine = LiveEngine::restore(&parsed);
        }
    }
    let _ = engine.finish_with(&mut subscriber);

    assert_eq!(
        subscriber, straight,
        "event stream diverged across checkpoint/restore"
    );
    // Each close fires exactly once even though the detector's open
    // alerts crossed a restore boundary.
    let closes = subscriber
        .iter()
        .filter(|(_, e)| matches!(e, Event::AlertClosed(_)))
        .count();
    assert_eq!(closes, count(&straight, "quicsand:alert_closed"));
}

/// The replay contract: every closed QUIC alert in the trace exports
/// as a qlog slice that round-trips (bytes → parse → replay) back to
/// the same attack and `classify_multivector` verdict.
#[test]
fn every_closed_alert_replays_from_its_exported_slice() {
    let mut records = scenario_records();
    records.truncate(60_000);
    let guard = GuardConfig::default();
    let config = live_config(&guard);
    let mut engine = LiveEngine::new(config, guard, 2);
    for part in records.chunks(4096) {
        let _ = engine.offer_chunk(part);
    }
    let _ = engine.finish();

    let slices = engine.alert_slices();
    assert!(
        !slices.is_empty(),
        "trace must close at least one QUIC alert"
    );
    for slice in &slices {
        let bytes = slice
            .to_qlog()
            .unwrap_or_else(|e| panic!("slice #{} export failed: {e}", slice.alert_index));
        let (parsed, packets) = parse_slice_qlog(&bytes)
            .unwrap_or_else(|e| panic!("slice #{} parse failed: {e}", slice.alert_index));
        assert_eq!(&parsed, slice, "slice #{} round trip", slice.alert_index);
        let outcome = replay_slice(&parsed, &packets).unwrap_or_else(|e| {
            panic!(
                "replay contract violated for slice #{} (victim {}): {e}",
                slice.alert_index, slice.victim
            )
        });
        assert_eq!(outcome.class, slice.class, "slice #{}", slice.alert_index);
        assert_eq!(
            outcome.overlap_share, slice.overlap_share,
            "slice #{}",
            slice.alert_index
        );
        assert_eq!(
            outcome.gap_secs, slice.gap_secs,
            "slice #{}",
            slice.alert_index
        );
    }
}
