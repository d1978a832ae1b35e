//! Online ≡ offline: on any finite trace the live engine's closed
//! alerts must equal the batch pipeline's `detect_attacks` +
//! `classify_multivector` output for the same thresholds — at any shard
//! count, any chunk size, and across a JSON snapshot/restore
//! checkpoint. The only sanctioned divergence is memory-pressure
//! eviction, which is exercised (and bounded) separately below.

mod common;

use common::{batch_reference, Verdict};
use quicsand_live::{LiveConfig, LiveEngine, LiveEvent, LiveEventKind, LiveSnapshot};
use quicsand_net::{PacketRecord, TcpFlags, Timestamp};
use quicsand_obs::{Histogram, MetricsRegistry};
use quicsand_sessions::{Attack, DosMetrics, SessionConfig};
use quicsand_telescope::GuardConfig;
use quicsand_traffic::{Scenario, ScenarioConfig};
use std::net::Ipv4Addr;

/// The deterministic fig06-style scenario trace (capture order).
fn scenario_records() -> Vec<PacketRecord> {
    Scenario::generate(&ScenarioConfig::test()).records
}

/// The live configuration under test, mirroring the batch pipeline's
/// convention that sessionization tolerates exactly the reordering the
/// ingest guard admits.
fn live_config(guard: &GuardConfig) -> LiveConfig {
    LiveConfig {
        session: SessionConfig {
            skew_tolerance: guard.reorder_tolerance,
            ..SessionConfig::default()
        },
        ..LiveConfig::default()
    }
}

/// Streams the trace through a fresh engine in `chunk`-sized batches.
fn live_run(
    records: &[PacketRecord],
    guard: GuardConfig,
    config: LiveConfig,
    shards: usize,
    chunk: usize,
) -> (Vec<LiveEvent>, LiveEngine) {
    let mut engine = LiveEngine::new(config, guard, shards);
    let mut events = Vec::new();
    for part in records.chunks(chunk) {
        events.extend(engine.offer_chunk(part));
    }
    events.extend(engine.finish());
    (events, engine)
}

/// Asserts the engine's final state against the batch reference:
/// closed attack sets exactly equal, verdict triples (class, overlap
/// share, gap) bitwise equal element by element.
fn assert_matches_batch(
    engine: &LiveEngine,
    batch_quic: &[Attack],
    batch_common: &[Attack],
    batch_verdicts: &[Verdict],
    context: &str,
) {
    let closed = engine.closed_quic();
    let live_quic: Vec<Attack> = closed.iter().map(|c| c.attack.clone()).collect();
    assert_eq!(live_quic, batch_quic, "QUIC attacks diverged: {context}");
    assert_eq!(
        engine.closed_common(),
        batch_common,
        "common attacks diverged: {context}"
    );
    let live_verdicts: Vec<_> = closed.iter().map(|c| c.verdict()).collect();
    assert_eq!(
        live_verdicts, batch_verdicts,
        "multi-vector verdicts diverged: {context}"
    );
}

#[test]
fn closed_alerts_equal_batch_detection_at_any_chunk_and_shard_count() {
    let mut records = scenario_records();
    // A prefix is itself a finite trace; it keeps the 12-combination
    // matrix fast while still closing floods on both channels.
    records.truncate(60_000);
    let guard = GuardConfig::default();
    let config = live_config(&guard);
    let (batch_quic, batch_common, batch_verdicts) = batch_reference(&records, guard, &config);
    assert!(
        !batch_quic.is_empty() && !batch_common.is_empty(),
        "trace must contain attacks on both channels for the test to mean anything \
         ({} quic, {} common)",
        batch_quic.len(),
        batch_common.len()
    );

    for shards in [1usize, 2, 8] {
        for chunk in [1usize, 7, 1024, usize::MAX] {
            let (_, engine) = live_run(&records, guard, config, shards, chunk);
            assert_eq!(
                engine.live_stats().evictions,
                0,
                "default cap must not evict"
            );
            assert_matches_batch(
                &engine,
                &batch_quic,
                &batch_common,
                &batch_verdicts,
                &format!("shards={shards} chunk={chunk}"),
            );
        }
    }
}

#[test]
fn full_scenario_trace_matches_batch() {
    let records = scenario_records();
    let guard = GuardConfig::default();
    let config = live_config(&guard);
    let (batch_quic, batch_common, batch_verdicts) = batch_reference(&records, guard, &config);
    let (events, engine) = live_run(&records, guard, config, 4, 4096);
    assert_matches_batch(
        &engine,
        &batch_quic,
        &batch_common,
        &batch_verdicts,
        "full trace, shards=4 chunk=4096",
    );
    // Every batch attack surfaced as a Closed event, and lifecycle
    // ordering held per victim (no Closed before its Opened).
    let closes = events
        .iter()
        .filter(|e| e.kind == LiveEventKind::Closed)
        .count();
    assert_eq!(closes, batch_quic.len() + batch_common.len());
    let opens = events
        .iter()
        .filter(|e| e.kind == LiveEventKind::Opened)
        .count();
    assert_eq!(opens, closes, "every alert that opened also closed");
}

#[test]
fn json_checkpoint_resume_emits_identical_alerts() {
    let mut records = scenario_records();
    records.truncate(40_000);
    let guard = GuardConfig::default();
    let config = live_config(&guard);

    let (straight_events, straight) = live_run(&records, guard, config, 2, 1024);

    // Same stream, but the engine is serialized to JSON, dropped, and
    // rebuilt from the parsed snapshot every 15k records.
    let mut engine = LiveEngine::new(config, guard, 2);
    let mut events = Vec::new();
    let mut since = 0usize;
    for part in records.chunks(1024) {
        events.extend(engine.offer_chunk(part));
        since += part.len();
        if since >= 15_000 {
            since = 0;
            let snapshot = engine.snapshot();
            let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
            let parsed: LiveSnapshot = serde_json::from_str(&json).expect("snapshot parses");
            assert_eq!(parsed, snapshot, "JSON round trip is lossless");
            engine = LiveEngine::restore(&parsed);
        }
    }
    events.extend(engine.finish());

    assert_eq!(
        events, straight_events,
        "event log diverged across checkpoints"
    );
    assert_eq!(engine.closed_quic(), straight.closed_quic());
    assert_eq!(engine.closed_common(), straight.closed_common());
    assert_eq!(engine.live_stats(), straight.live_stats());
    assert_eq!(engine.ingest_stats(), straight.ingest_stats());
}

/// Asserts a live/batch histogram pair agrees on its full distribution
/// state: observation count, sum, and every bucket count.
fn assert_hist_eq(live: &Histogram, batch: &Histogram, name: &str, context: &str) {
    assert_eq!(
        live.count(),
        batch.count(),
        "{name} count diverged: {context}"
    );
    assert_eq!(live.sum(), batch.sum(), "{name} sum diverged: {context}");
    assert_eq!(
        live.bucket_counts(),
        batch.bucket_counts(),
        "{name} buckets diverged: {context}"
    );
}

/// Asserts the engine's exported metrics equal the batch reference's:
/// the closed-alert counter matches the batch attack count, and every
/// `DosMetrics` series (counters and histograms, both protocol labels)
/// is identical to a registry fed the batch detection output. Also
/// re-checks the engine's own reconciliation invariant first, so a
/// divergence here is live-vs-batch, not counter drift.
fn assert_metrics_match_batch(
    engine: &mut LiveEngine,
    batch_quic: &[Attack],
    batch_common: &[Attack],
    context: &str,
) {
    engine.verify_metrics().unwrap_or_else(|errors| {
        panic!(
            "metrics reconciliation failed ({context}): {}",
            errors.join("; ")
        )
    });
    let expected_closed = (batch_quic.len() + batch_common.len()) as u64;
    assert_eq!(
        engine.metrics().closed.get(),
        expected_closed,
        "closed-alert counter diverged from batch attack count: {context}"
    );

    let registry = MetricsRegistry::new();
    let reference = DosMetrics::register(&registry);
    reference.observe_attacks(batch_quic);
    reference.observe_attacks(batch_common);
    let live = &engine.metrics().dos;
    assert_eq!(
        live.attacks_quic.get(),
        reference.attacks_quic.get(),
        "quic attack counter diverged: {context}"
    );
    assert_eq!(
        live.attacks_common.get(),
        reference.attacks_common.get(),
        "common attack counter diverged: {context}"
    );
    assert_hist_eq(
        &live.duration_quic,
        &reference.duration_quic,
        "attack_duration{protocol=quic}",
        context,
    );
    assert_hist_eq(
        &live.duration_common,
        &reference.duration_common,
        "attack_duration{protocol=tcp_icmp}",
        context,
    );
    assert_hist_eq(
        &live.packets_quic,
        &reference.packets_quic,
        "attack_packets{protocol=quic}",
        context,
    );
    assert_hist_eq(
        &live.packets_common,
        &reference.packets_common,
        "attack_packets{protocol=tcp_icmp}",
        context,
    );
}

/// Live and batch share the `quicsand_detect_attacks_total` /
/// `quicsand_attack_*` metric families, so their exported values must
/// be *identical* for the same trace — counter for counter, bucket for
/// bucket — at any shard count, and equally after the engine has been
/// serialized, dropped, and rebuilt from JSON checkpoints mid-stream
/// (restore re-seeds its fresh registry from the snapshot's closed
/// sets, so stable metrics land exactly where an uninterrupted run's
/// would).
#[test]
fn live_metrics_equal_batch_metrics_including_across_checkpoints() {
    let mut records = scenario_records();
    records.truncate(60_000);
    let guard = GuardConfig::default();
    let config = live_config(&guard);
    let (batch_quic, batch_common, _) = batch_reference(&records, guard, &config);
    assert!(
        !batch_quic.is_empty() && !batch_common.is_empty(),
        "trace must close attacks on both channels"
    );

    for shards in [1usize, 2] {
        let (_, mut engine) = live_run(&records, guard, config, shards, 1024);
        assert_metrics_match_batch(
            &mut engine,
            &batch_quic,
            &batch_common,
            &format!("straight run, shards={shards}"),
        );
    }

    // Same stream with a JSON checkpoint/restore cycle every 15k
    // records, mirroring the `quicsand live --checkpoint-every` flow: a
    // restored engine counts from zero, so it is given the run's totals.
    let mut engine = LiveEngine::new(config, guard, 2);
    let mut since = 0usize;
    let (mut cycles, mut bytes, mut spent) = (0u64, 0u64, std::time::Duration::ZERO);
    for part in records.chunks(1024) {
        let _ = engine.offer_chunk(part);
        since += part.len();
        if since >= 15_000 {
            since = 0;
            let started = std::time::Instant::now();
            let json = serde_json::to_string(&engine.snapshot()).expect("snapshot serializes");
            let parsed: LiveSnapshot = serde_json::from_str(&json).expect("snapshot parses");
            engine = LiveEngine::restore(&parsed);
            cycles += 1;
            bytes += json.len() as u64;
            spent += started.elapsed();
            engine.record_checkpoint(cycles, bytes, spent);
        }
    }
    let _ = engine.finish();
    assert!(cycles >= 3, "checkpoint cadence fired {cycles} time(s)");
    let metrics = engine.metrics();
    assert_eq!(metrics.checkpoints_total.get(), cycles);
    assert_eq!(metrics.checkpoint_bytes_total.get(), bytes);
    assert!(
        metrics.checkpoint_micros_total.get() > 0,
        "a checkpoint cycle was counted without its cost"
    );
    assert_metrics_match_batch(
        &mut engine,
        &batch_quic,
        &batch_common,
        "checkpoint/restore every 15k records",
    );
}

#[test]
fn victim_cap_bounds_memory_and_counts_evictions() {
    // 40 victims flooding simultaneously against a 6-victim cap: the
    // engine must stay bounded, keep counting, and flag every forced
    // close as an eviction.
    let cap = 6usize;
    let victims: Vec<Ipv4Addr> = (0..40).map(|i| Ipv4Addr::new(198, 51, 100, i)).collect();
    let mut records = Vec::new();
    for tick in 0..240u64 {
        for (i, v) in victims.iter().enumerate() {
            records.push(PacketRecord::tcp(
                Timestamp::from_micros(tick * 1_000_000 + i as u64),
                *v,
                Ipv4Addr::new(10, 0, 0, 9),
                443,
                50_000,
                TcpFlags::SYN_ACK,
            ));
        }
    }
    let guard = GuardConfig::default();
    let config = LiveConfig {
        max_victims: cap,
        ..live_config(&guard)
    };
    let (events, engine) = live_run(&records, guard, config, 1, 2048);

    let stats = engine.live_stats();
    assert!(stats.evictions > 0, "cap never triggered: {stats:?}");
    assert!(
        stats.peak_tracked <= cap,
        "victim cap violated: peak {} > {}",
        stats.peak_tracked,
        cap
    );
    // An eviction only surfaces as an event when the victim had an open
    // alert (below-threshold victims vanish silently, exactly as their
    // sessions would in batch detection) — so the flagged closes are a
    // subset of the counted evictions, and nothing but closes may carry
    // the flag.
    assert!(events
        .iter()
        .all(|e| !e.evicted || e.kind == LiveEventKind::Closed));
    let evicted_closes = events.iter().filter(|e| e.evicted).count() as u64;
    assert!(
        evicted_closes <= stats.evictions,
        "{evicted_closes} flagged closes > {} evictions",
        stats.evictions
    );
}
