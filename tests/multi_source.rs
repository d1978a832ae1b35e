//! Multi-source ≡ single-merged-source: feeding the live engine from N
//! concurrent feeds through the [`SourceSet`] multiplexer must be
//! indistinguishable from feeding it the event-time merge of those
//! feeds directly — identical events, identical closed alerts, and a
//! byte-identical stable metrics exposition — at any source count, any
//! shard count, and any chunk size. The contract must survive seeded
//! mid-stream source failures (reconnect-with-resume), a schema-v4
//! checkpoint/restore taken while a feed is flaky, and sources that are
//! empty or hit EOF instantly.

use flaky::{FlakyFactory, FlakyPlan};
use quicsand_live::{
    parse_checkpoint, LiveConfig, LiveEngine, LiveEvent, MultiSourceLive, CHECKPOINT_SCHEMA_VERSION,
};
use quicsand_net::multi::{
    capture_file_factory, memory_factory, merge_records, SourceFactory, SourceSet, SourceSetConfig,
};
use quicsand_net::{PacketRecord, TcpFlags, Timestamp};
use quicsand_telescope::GuardConfig;
use quicsand_traffic::{Scenario, ScenarioConfig};
use std::net::Ipv4Addr;

#[path = "common/flaky.rs"]
mod flaky;

/// A prefix of the deterministic scenario trace: long enough to close
/// floods on both channels, short enough to keep the matrix fast.
fn scenario_records() -> Vec<PacketRecord> {
    let mut records = Scenario::generate(&ScenarioConfig::test()).records;
    records.truncate(40_000);
    records
}

/// Round-robin split of a capture-order trace into `n` feeds. Each
/// part inherits the trace's timestamp order, so the event-time merge
/// reconstructs the original interleaving exactly.
fn splits(records: &[PacketRecord], n: usize) -> Vec<Vec<PacketRecord>> {
    let mut parts = vec![Vec::new(); n];
    for (i, record) in records.iter().enumerate() {
        parts[i % n].push(record.clone());
    }
    parts
}

fn factories(parts: &[Vec<PacketRecord>]) -> Vec<Box<dyn SourceFactory>> {
    parts
        .iter()
        .map(|p| Box::new(memory_factory(p.clone())) as Box<dyn SourceFactory>)
        .collect()
}

/// The reference: a plain engine over the pre-merged trace.
fn reference_run(
    merged: &[PacketRecord],
    shards: usize,
    chunk: usize,
) -> (Vec<LiveEvent>, LiveEngine) {
    let mut engine = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), shards);
    let mut events = Vec::new();
    for part in merged.chunks(chunk) {
        events.extend(engine.offer_chunk(part));
    }
    events.extend(engine.finish());
    (events, engine)
}

/// The system under test: the same engine behind the multiplexer.
fn multi_run(
    factories: Vec<Box<dyn SourceFactory>>,
    config: &SourceSetConfig,
    shards: usize,
    chunk: usize,
) -> (Vec<LiveEvent>, MultiSourceLive) {
    let set = SourceSet::spawn(factories, config);
    let mut live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), shards, set);
    let mut events = Vec::new();
    while let Some(batch) = live.pump(chunk) {
        events.extend(batch);
    }
    events.extend(live.finish());
    (events, live)
}

/// Full-strength equivalence assertion between a multi-source run and
/// its single-merged-source reference.
fn assert_equivalent(
    (multi_events, live): &mut (Vec<LiveEvent>, MultiSourceLive),
    (want_events, reference): &mut (Vec<LiveEvent>, LiveEngine),
    context: &str,
) {
    assert_eq!(multi_events, want_events, "event log diverged: {context}");
    assert_eq!(
        live.engine().closed_quic(),
        reference.closed_quic(),
        "closed QUIC alerts diverged: {context}"
    );
    assert_eq!(
        live.engine().closed_common(),
        reference.closed_common(),
        "closed TCP/ICMP alerts diverged: {context}"
    );
    assert_eq!(
        live.live_stats(),
        reference.live_stats(),
        "detector stats diverged: {context}"
    );
    assert_eq!(
        live.ingest_stats(),
        reference.ingest_stats(),
        "ingest stats diverged: {context}"
    );
    // Per-source series are Volatile by design, so the stable
    // exposition must not betray how the trace was split into feeds.
    assert_eq!(
        live.engine().registry().render_prometheus(true),
        reference.registry().render_prometheus(true),
        "stable Prometheus exposition diverged: {context}"
    );
    live.verify_metrics()
        .unwrap_or_else(|e| panic!("reconciliation failed ({context}): {}", e.join("; ")));
    reference.verify_metrics().unwrap_or_else(|e| {
        panic!(
            "reference reconciliation failed ({context}): {}",
            e.join("; ")
        )
    });
}

#[test]
fn multi_source_equals_single_merged_source_across_the_matrix() {
    let records = scenario_records();
    // Chunk sizes rotate through the matrix so every source count and
    // every shard count is exercised at more than one chunk size
    // without cubing the combination count.
    let chunks = [1usize, 257, 4096];
    let mut combo = 0usize;
    for sources in [1usize, 2, 4] {
        let parts = splits(&records, sources);
        let merged = merge_records(&parts);
        assert_eq!(merged.len(), records.len(), "split conserves records");
        for shards in [1usize, 2, 8] {
            let chunk = chunks[combo % chunks.len()];
            combo += 1;
            let context = format!("sources={sources} shards={shards} chunk={chunk}");
            let mut want = reference_run(&merged, shards, chunk);
            assert!(
                !want.1.closed_quic().is_empty() && !want.1.closed_common().is_empty(),
                "trace must close alerts on both channels ({context})"
            );
            let mut got = multi_run(
                factories(&parts),
                &SourceSetConfig::default(),
                shards,
                chunk,
            );
            assert_equivalent(&mut got, &mut want, &context);
            let delivered: u64 = got.1.source_stats().iter().map(|s| s.delivered).sum();
            assert_eq!(delivered, records.len() as u64, "conservation: {context}");
        }
    }
}

#[test]
fn seeded_source_failures_are_invisible_end_to_end() {
    let records = scenario_records();
    let parts = splits(&records, 3);
    let merged = merge_records(&parts);
    let plan = FlakyPlan::new(0xC0FFEE, 5, parts[1].len() as u64);
    assert_eq!(plan.points().len(), 5, "plan fits inside the feed");

    let mut want = reference_run(&merged, 2, 1024);
    let flaky: Vec<Box<dyn SourceFactory>> = vec![
        Box::new(memory_factory(parts[0].clone())),
        Box::new(FlakyFactory::new(
            memory_factory(parts[1].clone()),
            plan.clone(),
        )),
        Box::new(memory_factory(parts[2].clone())),
    ];
    let mut got = multi_run(flaky, &SourceSetConfig::default(), 2, 1024);
    assert_equivalent(&mut got, &mut want, "3 sources, 5 seeded failures");

    let stats = got.1.source_stats();
    assert_eq!(stats[1].reconnects, 5, "every planned failure fired");
    assert_eq!(stats[1].drops, 5, "each failure dropped one record read");
    assert!(stats[1].eof && !stats[1].dead, "the flaky feed recovered");
    assert_eq!(stats[0].reconnects + stats[2].reconnects, 0);
}

#[test]
fn checkpoint_restore_across_a_source_failure_is_lossless() {
    let records = scenario_records();
    let parts = splits(&records, 2);
    let merged = merge_records(&parts);
    let plan = FlakyPlan::new(11, 3, parts[0].len() as u64);
    // A restored FlakyFactory replays its schedule from open #0 while
    // the multiplexer fast-forwards to the cursor, so the skip phase
    // may burn several failures without delivering progress; the
    // reconnect budget must cover the whole plan.
    let config = SourceSetConfig {
        max_reconnects: (plan.points().len() as u32).max(8),
        ..SourceSetConfig::default()
    };
    let make_flaky = |plan: &FlakyPlan| -> Vec<Box<dyn SourceFactory>> {
        vec![
            Box::new(FlakyFactory::new(
                memory_factory(parts[0].clone()),
                plan.clone(),
            )),
            Box::new(memory_factory(parts[1].clone())),
        ]
    };

    // Phase 1: pump a prefix through a flaky set, checkpoint mid-run.
    let set = SourceSet::spawn(make_flaky(&plan), &config);
    let mut live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), 2, set);
    let mut events = Vec::new();
    for _ in 0..12 {
        events.extend(live.pump(1024).expect("prefix fits the trace"));
    }
    let json = serde_json::to_string(&live.snapshot()).expect("checkpoint serializes");
    drop(live);

    // Phase 2: restore from the JSON with fresh (still flaky)
    // factories and run to completion.
    let snapshot = parse_checkpoint(&json).expect("the checkpoint parses");
    assert_eq!(snapshot.version, CHECKPOINT_SCHEMA_VERSION);
    assert_eq!(snapshot.cursors.len(), 2);
    assert_eq!(
        snapshot.cursors.iter().sum::<u64>(),
        snapshot.engine.offered,
        "checkpoint itself conserves records"
    );
    let mut restored =
        MultiSourceLive::restore(&snapshot, make_flaky(&plan), &config).expect("restore");
    while let Some(batch) = restored.pump(1024) {
        events.extend(batch);
    }
    events.extend(restored.finish());
    restored
        .verify_metrics()
        .unwrap_or_else(|e| panic!("restored run fails reconciliation: {}", e.join("; ")));

    // The spliced run equals an uninterrupted, failure-free reference.
    let (want_events, mut reference) = reference_run(&merged, 2, 1024);
    assert_eq!(events, want_events, "events diverged across the restore");
    assert_eq!(restored.engine().closed_quic(), reference.closed_quic());
    assert_eq!(restored.engine().closed_common(), reference.closed_common());
    assert_eq!(
        restored.engine().registry().render_prometheus(true),
        reference.registry().render_prometheus(true),
        "stable exposition diverged across the restore"
    );
    reference.verify_metrics().expect("reference reconciles");
}

#[test]
fn empty_and_instantly_eof_sources_are_tolerated() {
    let records = scenario_records();
    let merged = records.clone();

    let dir = std::env::temp_dir().join("quicsand-multi-source-test");
    std::fs::create_dir_all(&dir).unwrap();
    let empty_file = dir.join("empty.qscp");
    std::fs::write(&empty_file, b"").unwrap();

    let mut want = reference_run(&merged, 2, 2048);
    let feeds: Vec<Box<dyn SourceFactory>> = vec![
        Box::new(memory_factory(records.clone())),
        Box::new(memory_factory(Vec::new())),
        Box::new(capture_file_factory(empty_file.clone())),
    ];
    let mut got = multi_run(feeds, &SourceSetConfig::default(), 2, 2048);
    assert_equivalent(&mut got, &mut want, "1 live feed + 2 empty feeds");

    let stats = got.1.source_stats();
    assert_eq!(stats[0].delivered, records.len() as u64);
    for (i, empty) in stats.iter().enumerate().skip(1) {
        assert_eq!(empty.delivered, 0, "source {i} delivered nothing");
        assert!(empty.eof, "source {i} reached EOF");
        assert!(!empty.dead, "source {i} was drained, not abandoned");
    }
    std::fs::remove_file(&empty_file).ok();
}

/// One SYN-ACK at `ts` µs from a source numbered by `ts`: a feed for
/// the flaky-source fixture's own tests.
fn tcp_record(ts: u64) -> PacketRecord {
    PacketRecord::tcp(
        Timestamp::from_micros(ts),
        Ipv4Addr::new(10, 1, (ts >> 8) as u8, ts as u8),
        Ipv4Addr::new(192, 0, 2, 9),
        443,
        6000,
        TcpFlags::SYN_ACK,
    )
}

#[test]
fn plan_is_seeded_sorted_and_strictly_increasing() {
    let plan = FlakyPlan::new(42, 5, 10_000);
    assert_eq!(plan, FlakyPlan::new(42, 5, 10_000));
    assert_ne!(plan, FlakyPlan::new(43, 5, 10_000));
    assert_eq!(plan.points().len(), 5);
    assert!(plan.points().windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn flaky_source_dies_at_the_planned_position_then_stays_dead() {
    let records: Vec<_> = (0..100).map(tcp_record).collect();
    let plan = FlakyPlan {
        points: vec![7, 30],
    };
    let mut factory = FlakyFactory::new(memory_factory(records), plan);
    let mut session = factory.open().unwrap();
    for _ in 0..7 {
        assert!(matches!(session.next_record(), Some(Ok(_))));
    }
    for _ in 0..3 {
        let error = session.next_record().unwrap().unwrap_err();
        assert!(error.to_string().contains("injected source failure"));
    }
    // The next session dies strictly later: guaranteed progress.
    let mut session = factory.open().unwrap();
    for _ in 0..30 {
        assert!(matches!(session.next_record(), Some(Ok(_))));
    }
    assert!(matches!(session.next_record(), Some(Err(_))));
    // Past the plan, sessions run clean to EOF.
    let mut session = factory.open().unwrap();
    let mut n = 0;
    while let Some(r) = session.next_record() {
        r.unwrap();
        n += 1;
    }
    assert_eq!(n, 100);
    assert_eq!(factory.opens(), 3);
}

#[test]
fn a_chunked_pull_hands_over_the_records_then_the_failure() {
    let records: Vec<_> = (0..100).map(tcp_record).collect();
    let plan = FlakyPlan { points: vec![7] };
    let mut session = FlakyFactory::new(memory_factory(records.clone()), plan)
        .open()
        .unwrap();
    assert_eq!(session.pull_chunk(64).unwrap(), records[..7]);
    for _ in 0..2 {
        assert!(session.pull_chunk(64).is_err(), "the failure is not an end");
    }
}

#[test]
fn flaky_feed_delivers_the_unbroken_sequence_through_a_source_set() {
    let all: Vec<_> = (0..400).map(tcp_record).collect();
    let splits = vec![
        all.iter().step_by(2).cloned().collect::<Vec<_>>(),
        all.iter().skip(1).step_by(2).cloned().collect::<Vec<_>>(),
    ];
    let reference = merge_records(&splits);
    let plan = FlakyPlan::new(7, 4, splits[0].len() as u64);
    assert!(!plan.points().is_empty());
    let factories: Vec<Box<dyn SourceFactory>> = vec![
        Box::new(FlakyFactory::new(memory_factory(splits[0].clone()), plan)),
        Box::new(memory_factory(splits[1].clone())),
    ];
    let mut set = SourceSet::spawn(factories, &SourceSetConfig::default());
    let mut merged = Vec::new();
    while let Some(r) = set.next_merged() {
        merged.push(r);
    }
    assert_eq!(merged, reference, "failures are invisible to the merge");
    let stats = set.stats();
    assert_eq!(stats[0].reconnects, 4);
    assert_eq!(stats[0].drops, 4);
    assert!(stats[0].eof && !stats[0].dead);
    assert_eq!(stats[1].reconnects, 0);
}
