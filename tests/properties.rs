//! Cross-crate property tests: invariants that must hold for *any*
//! input, not just the synthesized scenarios.

use bytes::Bytes;
use proptest::prelude::*;
use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_faults::{FaultPlan, FaultProfile};
use quicsand_net::{Duration, IcmpKind, PacketRecord, TcpFlags, Timestamp};
use quicsand_obs::MetricsRegistry;
use quicsand_sessions::dos::{detect_attacks, AttackProtocol, DosThresholds};
use quicsand_sessions::session::{sessionize, timeout_sweep, SessionConfig, Sessionizer};
use quicsand_telescope::{
    ingest_parallel_with, shard_of, IngestMetrics, IngestStats, TelescopePipeline,
};
use quicsand_traffic::scenarios::ScannerFlow;
use quicsand_traffic::streaming::{Flow, FlowMerge, Pool, VictimFlow};
use quicsand_traffic::{EvolvingScanConfig, StreamConfig};
use quicsand_wire::crypto::InitialSecrets;
use quicsand_wire::packet::{parse_datagram, Packet, PacketPayload};
use quicsand_wire::{ConnectionId, Frame, Version};
use std::net::Ipv4Addr;

#[path = "common/flaky.rs"]
mod flaky;

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 77, 0, last)
}

/// The ingest accounting identity: every offered record lands in
/// exactly one bucket — a QUIC observation, the TCP/ICMP baseline, an
/// out-of-scope UDP class, or one quarantine counter.
fn assert_conservation(stats: &IngestStats) {
    assert_eq!(
        stats.total,
        stats.quic_valid
            + stats.tcp
            + stats.icmp
            + stats.other_udp
            + stats.ambiguous
            + stats.quarantine.total(),
        "records must be conserved across classification buckets: {stats:?}"
    );
}

/// Drives ≥10k records from a generated scenario through the fault
/// injector and then through 1-, 2- and 8-shard ingest. The per-kind
/// quarantine counters must equal the clean run's counters plus the
/// injector's own per-kind oracle — *exactly*, at every shard count —
/// and all shard counts must agree on every product.
#[test]
fn fault_quarantine_oracle_is_exact_across_shard_counts() {
    let scenario = quicsand_traffic::Scenario::generate(&quicsand_traffic::ScenarioConfig::test());
    let clean: Vec<PacketRecord> = scenario.records.iter().take(20_000).cloned().collect();
    assert!(clean.len() >= 10_000, "need a meaningful record volume");

    let profile = FaultProfile::standard();
    let guard = profile.guard;
    let mut plan = FaultPlan::new(profile, 0xFA57);
    let faulted = plan.apply_all(&clean);
    let summary = *plan.summary();
    assert!(summary.total_injected() > 0, "profile must inject faults");

    let (_, _, clean_stats) = ingest_parallel_with(&clean, 1, guard);
    assert_conservation(&clean_stats);

    let mut expected = clean_stats.quarantine;
    expected.merge(&summary.expected_quarantine());

    let single = ingest_parallel_with(&faulted, 1, guard);
    for threads in [1usize, 2, 8] {
        let (observations, baseline, stats) = ingest_parallel_with(&faulted, threads, guard);
        assert_conservation(&stats);
        assert_eq!(
            stats.quarantine, expected,
            "per-kind quarantine must equal clean + injected oracle at {threads} shard(s)"
        );
        assert_eq!(
            stats.total, summary.emitted_records,
            "every emitted record must be offered"
        );
        assert_eq!(
            observations, single.0,
            "observations differ at {threads} shards"
        );
        assert_eq!(baseline, single.1, "baseline differs at {threads} shards");
        assert_eq!(stats, single.2, "stats differ at {threads} shards");
    }
}

/// The metric⇄stats reconciliation invariant over a faulted ≥20k-record
/// stream: the merged `IngestStats` keep their dissect-reject identity
/// and publish to the same exposition, byte for byte, at 1, 2 and 8
/// shards; through the full pipeline `verify_metrics` holds and the
/// *stable* metric subset is byte-identical across shard counts.
#[test]
fn metrics_reconcile_with_stats_across_shard_counts() {
    let mut scenario =
        quicsand_traffic::Scenario::generate(&quicsand_traffic::ScenarioConfig::test());
    let clean: Vec<PacketRecord> = scenario.records.iter().take(20_000).cloned().collect();
    let profile = FaultProfile::standard();
    let guard = profile.guard;
    let mut plan = FaultPlan::new(profile, 0xFA57);
    let faulted = plan.apply_all(&clean);
    assert!(plan.summary().total_injected() > 0, "profile must inject");

    // (a) Ingest layer: the merged stats must count every dissector
    // reject under its kind at every shard count, and a fresh registry
    // they are published to must render the same exposition byte for
    // byte across shard counts.
    let mut rendered: Option<String> = None;
    for threads in [1usize, 2, 8] {
        let (_, _, stats) = ingest_parallel_with(&faulted, threads, guard);
        stats
            .require_dissect_rejects_counted()
            .unwrap_or_else(|e| panic!("{threads} shard(s): {e}"));
        let registry = MetricsRegistry::new();
        let metrics = IngestMetrics::register(&registry);
        metrics.publish(&stats);
        assert_eq!(metrics.records_total.get(), stats.total);
        let text = registry.render_prometheus(false);
        match &rendered {
            None => rendered = Some(text),
            Some(reference) => assert_eq!(
                &text, reference,
                "ingest exposition differs at {threads} shard(s)"
            ),
        }
    }

    // (b) Whole pipeline on the faulted capture: `verify_metrics` holds
    // at every thread count and the stable metric
    // subset — counters and attack histograms, not walltimes — is
    // byte-identical at any thread count.
    scenario.records = faulted;
    let run = |threads: usize| {
        Analysis::run(
            &scenario,
            &AnalysisConfig {
                threads,
                guard,
                ..AnalysisConfig::default()
            },
        )
    };
    let reference = run(1);
    reference.verify_metrics().expect("1-thread reconciliation");
    let stable = reference.registry.render_prometheus(true);
    assert!(stable.contains("quicsand_ingest_quarantined_total"));
    for threads in [2usize, 8] {
        let analysis = run(threads);
        analysis
            .verify_metrics()
            .unwrap_or_else(|e| panic!("{threads} thread(s): {e:?}"));
        assert_eq!(
            analysis.registry.render_prometheus(true),
            stable,
            "stable metrics differ at {threads} thread(s)"
        );
    }
}

proptest! {
    /// Any frame sequence we can encode, the telescope can decode —
    /// through full packet protection.
    #[test]
    fn prop_protected_frames_roundtrip(
        dcid_seed in any::<u64>(),
        pn in 0u64..100_000,
        crypto in proptest::collection::vec(any::<u8>(), 0..256),
        pings in 0usize..4,
        padding in 0usize..64,
    ) {
        let mut frames = vec![Frame::Crypto { offset: 0, data: Bytes::from(crypto) }];
        for _ in 0..pings {
            frames.push(Frame::Ping);
        }
        if padding > 0 {
            frames.push(Frame::Padding { len: padding });
        }
        let dcid = ConnectionId::from_u64(dcid_seed);
        let keys = InitialSecrets::derive(Version::V1, &dcid);
        let wire = Packet::Handshake {
            version: Version::V1,
            dcid,
            scid: ConnectionId::from_u64(dcid_seed ^ 1),
            packet_number: pn,
            payload: PacketPayload::new(frames.clone()),
        }
        .encode(Some(keys.server))
        .unwrap();
        let parsed = parse_datagram(&wire, 8).unwrap();
        let (packet, aad) = &parsed[0];
        let (got_pn, got_frames) = packet.open(keys.server, pn.checked_sub(1), aad).unwrap();
        prop_assert_eq!(got_pn, pn);
        prop_assert_eq!(got_frames, frames);
    }

    /// The dissector and the server must never panic on arbitrary
    /// bytes — the telescope's survival property.
    #[test]
    fn prop_no_panic_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..1500)) {
        let _ = quicsand_dissect::dissect_udp_payload(&data);
        let mut server = quicsand_server::model::QuicServerSim::new(
            quicsand_server::model::ServerConfig::default(),
            1,
        );
        let _ = server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000, &data);
        let mut client = quicsand_server::client::QuicClient::new(1);
        let _ = client.initial_datagram();
        let _ = client.handle_datagram(&data);
    }

    /// Sessionization is a partition: every packet lands in exactly one
    /// session, sessions of one source never overlap in time, and no
    /// intra-session gap exceeds the timeout.
    #[test]
    fn prop_sessions_partition_the_stream(
        raw in proptest::collection::vec((0u64..50_000, 0u8..8), 1..400),
        timeout_secs in 10u64..1_000,
    ) {
        let mut packets: Vec<(Timestamp, Ipv4Addr)> = raw
            .into_iter()
            .map(|(s, src)| (Timestamp::from_secs(s), ip(src)))
            .collect();
        packets.sort_by_key(|(ts, _)| *ts);
        let timeout = Duration::from_secs(timeout_secs);
        let sessions = sessionize(packets.iter().copied(), SessionConfig { timeout, skew_tolerance: Duration::ZERO });
        let total: u64 = sessions.iter().map(|s| s.packet_count).sum();
        prop_assert_eq!(total, packets.len() as u64);
        // Per-source sessions are disjoint and separated by > timeout.
        let mut by_src: std::collections::HashMap<Ipv4Addr, Vec<(Timestamp, Timestamp)>> =
            std::collections::HashMap::new();
        for s in &sessions {
            by_src.entry(s.src).or_default().push((s.start, s.end));
        }
        for intervals in by_src.values_mut() {
            intervals.sort();
            for w in intervals.windows(2) {
                prop_assert!(w[1].0.saturating_since(w[0].1) > timeout);
            }
        }
    }

    /// The fast timeout sweep agrees with brute-force sessionization at
    /// every timeout value — also when packets arrive with timestamps
    /// lagging up to the skew tolerance behind their arrival order.
    #[test]
    fn prop_sweep_equals_bruteforce(
        raw in proptest::collection::vec((0u64..20_000, 0u8..5, 0u64..=300), 1..150),
    ) {
        let skew_tolerance = Duration::from_secs(300);
        let mut arrivals = raw;
        arrivals.sort_by_key(|(arrival, _, _)| *arrival);
        let packets: Vec<(Timestamp, Ipv4Addr)> = arrivals
            .into_iter()
            .map(|(arrival, src, lag)| (Timestamp::from_secs(arrival.saturating_sub(lag)), ip(src)))
            .collect();
        let timeouts: Vec<Duration> =
            [30u64, 120, 600, 3_600].iter().map(|s| Duration::from_secs(*s)).collect();
        let sweep = timeout_sweep(packets.iter().copied(), &timeouts);
        for (timeout, count) in sweep.counts {
            let direct =
                sessionize(packets.iter().copied(), SessionConfig { timeout, skew_tolerance }).len() as u64;
            prop_assert_eq!(count, direct, "timeout {}", timeout);
        }
    }

    /// Sharding a stream by `hash(src) % N` and sessionizing each shard
    /// independently yields exactly the single-shard sessions, for any
    /// stream, timeout and shard count — the parallel pipeline's
    /// correctness argument as a law.
    #[test]
    fn prop_sharded_sessionize_equals_sequential(
        raw in proptest::collection::vec((0u64..50_000, 0u8..8), 1..400),
        timeout_secs in 10u64..1_000,
        shards in 1usize..9,
    ) {
        let mut packets: Vec<(Timestamp, Ipv4Addr)> = raw
            .into_iter()
            .map(|(s, src)| (Timestamp::from_secs(s), ip(src)))
            .collect();
        packets.sort_by_key(|(ts, _)| *ts);
        let config = SessionConfig { timeout: Duration::from_secs(timeout_secs), skew_tolerance: Duration::ZERO };
        let mut expected = sessionize(packets.iter().copied(), config);
        expected.sort_by_key(|s| (s.start, s.src));
        let mut sharded = Vec::new();
        for shard in 0..shards {
            let stream = packets
                .iter()
                .copied()
                .filter(|(_, src)| shard_of(*src, shards) == shard);
            sharded.extend(sessionize(stream, config));
        }
        sharded.sort_by_key(|s| (s.start, s.src));
        prop_assert_eq!(sharded, expected);
    }

    /// Interleaving watermark expiry and `drain` with the offers never
    /// loses, duplicates or reshapes sessions: packets are conserved
    /// and the final session set equals one-shot sessionization.
    #[test]
    fn prop_expire_drain_finish_conserve_packets(
        raw in proptest::collection::vec((0u64..50_000, 0u8..8), 1..400),
        timeout_secs in 10u64..1_000,
        drain_every in 1usize..50,
    ) {
        let mut packets: Vec<(Timestamp, Ipv4Addr)> = raw
            .into_iter()
            .map(|(s, src)| (Timestamp::from_secs(s), ip(src)))
            .collect();
        packets.sort_by_key(|(ts, _)| *ts);
        let config = SessionConfig { timeout: Duration::from_secs(timeout_secs), skew_tolerance: Duration::ZERO };
        let mut sessionizer = Sessionizer::new(config);
        let mut collected = Vec::new();
        for (i, (ts, src)) in packets.iter().enumerate() {
            sessionizer.offer(*ts, *src);
            if (i + 1) % drain_every == 0 {
                collected.extend(sessionizer.drain());
            }
        }
        collected.extend(sessionizer.finish());
        let total: u64 = collected.iter().map(|s| s.packet_count).sum();
        prop_assert_eq!(total, packets.len() as u64);
        let mut expected = sessionize(packets.iter().copied(), config);
        expected.sort_by_key(|s| (s.start, s.src));
        collected.sort_by_key(|s| (s.start, s.src));
        prop_assert_eq!(collected, expected);
    }

    /// Every record offered to the pipeline — however arbitrary its
    /// transport, ports, payload and timestamp — lands in exactly one
    /// classification bucket, and nothing panics. Survival and
    /// conservation as one law.
    #[test]
    fn prop_ingest_conserves_arbitrary_records(
        raw in proptest::collection::vec(
            (0u64..100_000, 0u8..6, 0u8..3, any::<u16>(), any::<u16>(),
             proptest::collection::vec(any::<u8>(), 0..64)),
            1..200,
        ),
    ) {
        let records: Vec<PacketRecord> = raw
            .into_iter()
            .map(|(micros, src, kind, sport, dport, payload)| {
                let ts = Timestamp::from_micros(micros);
                let (src, dst) = (ip(src), Ipv4Addr::new(128, 0, 0, 1));
                match kind {
                    0 => PacketRecord::udp(ts, src, dst, sport, dport, Bytes::from(payload)),
                    1 => PacketRecord::tcp(ts, src, dst, sport, dport, TcpFlags::SYN_ACK),
                    _ => PacketRecord::icmp(ts, src, dst, IcmpKind::EchoRequest),
                }
            })
            .collect();
        let mut pipeline = TelescopePipeline::new();
        pipeline.ingest_all(&records);
        let (_, _, stats) = pipeline.finish();
        prop_assert_eq!(stats.total, records.len() as u64);
        prop_assert_eq!(
            stats.total,
            stats.quic_valid + stats.tcp + stats.icmp + stats.other_udp
                + stats.ambiguous + stats.quarantine.total()
        );
    }

    /// The fault injector and the hardened pipeline survive *any*
    /// byte-mutated record stream: injection never panics, and the
    /// faulted stream still satisfies conservation at every shard
    /// count — even when the base stream violates the injector's
    /// time-ordering assumption.
    #[test]
    fn prop_faulted_arbitrary_streams_never_panic(
        raw in proptest::collection::vec(
            (0u64..100_000, 0u8..4, proptest::collection::vec(any::<u8>(), 0..48)),
            1..120,
        ),
        seed in any::<u64>(),
    ) {
        let records: Vec<PacketRecord> = raw
            .into_iter()
            .map(|(micros, src, payload)| {
                PacketRecord::udp(
                    Timestamp::from_micros(micros),
                    ip(src),
                    Ipv4Addr::new(128, 0, 0, 1),
                    40_000,
                    443,
                    Bytes::from(payload),
                )
            })
            .collect();
        let profile = FaultProfile::aggressive();
        let guard = profile.guard;
        let mut plan = FaultPlan::new(profile, seed);
        let faulted = plan.apply_all(&records);
        prop_assert_eq!(faulted.len() as u64, plan.summary().emitted_records);
        for threads in [1usize, 2] {
            let (_, _, stats) = ingest_parallel_with(&faulted, threads, guard);
            prop_assert_eq!(stats.total, faulted.len() as u64);
            prop_assert_eq!(
                stats.total,
                stats.quic_valid + stats.tcp + stats.icmp + stats.other_udp
                    + stats.ambiguous + stats.quarantine.total()
            );
        }
    }

    /// Stricter thresholds never detect more attacks (the Fig. 10
    /// monotonicity, as a law over arbitrary session populations).
    #[test]
    fn prop_threshold_monotonicity(
        raw in proptest::collection::vec((0u64..5_000, 0u8..4), 10..300),
        w1 in 0.1f64..1.0,
        w2 in 1.0f64..10.0,
    ) {
        let mut packets: Vec<(Timestamp, Ipv4Addr)> = raw
            .into_iter()
            .map(|(s, src)| (Timestamp::from_secs(s), ip(src)))
            .collect();
        packets.sort_by_key(|(ts, _)| *ts);
        let sessions = sessionize(packets.into_iter(), SessionConfig::default());
        let relaxed = detect_attacks(&sessions, AttackProtocol::Quic, &DosThresholds::weighted(w1));
        let strict = detect_attacks(&sessions, AttackProtocol::Quic, &DosThresholds::weighted(w2));
        prop_assert!(strict.len() <= relaxed.len());
        // And every strict detection is also a relaxed detection.
        for attack in &strict {
            prop_assert!(relaxed.iter().any(|a| a.victim == attack.victim && a.start == attack.start));
        }
    }
}

proptest! {
    /// The multiplexer's bounded queues: at 1, 2, and 8 sources with
    /// adversarial per-source volumes and a tiny capacity, the
    /// producer-side queue never grows past `queue_capacity`, the merge
    /// never deadlocks (the test completes), every record is conserved,
    /// and the merged output is globally time-ordered.
    #[test]
    fn prop_source_queues_are_bounded_and_conserve_records(
        raw in proptest::collection::vec((0u64..500_000, 0usize..8), 0..800),
        capacity in 1usize..24,
        source_sel in 0usize..3,
        paced in any::<bool>(),
    ) {
        use quicsand_net::multi::{memory_factory, SourceFactory, SourceSet, SourceSetConfig};

        let sources = [1usize, 2, 8][source_sel];
        let mut parts = vec![Vec::new(); sources];
        for (ts, slot) in raw {
            parts[slot % sources].push(PacketRecord::tcp(
                Timestamp::from_micros(ts),
                ip((ts % 250) as u8),
                ip(251),
                443,
                50_000,
                TcpFlags::SYN_ACK,
            ));
        }
        let total: usize = parts.iter().map(Vec::len).sum();
        for part in &mut parts {
            part.sort_by_key(|r| r.ts);
        }
        let factories: Vec<Box<dyn SourceFactory>> = parts
            .iter()
            .map(|p| Box::new(memory_factory(p.clone())) as Box<dyn SourceFactory>)
            .collect();
        let config = SourceSetConfig {
            queue_capacity: capacity,
            // Fast enough to never stall the test, real enough to
            // exercise the pacing branch.
            rate_limit: paced.then_some(2_000_000),
            ..SourceSetConfig::default()
        };

        let mut set = SourceSet::spawn(factories, &config);
        let mut merged = Vec::with_capacity(total);
        while let Some(record) = set.next_merged() {
            merged.push(record);
        }

        // Conservation: every produced record came out of the merge.
        prop_assert_eq!(merged.len(), total);
        prop_assert_eq!(set.delivered_total(), total as u64);
        // Global event-time order across all interleavings.
        prop_assert!(merged.windows(2).all(|w| w[0].ts <= w[1].ts));
        for (index, stats) in set.stats().iter().enumerate() {
            prop_assert_eq!(stats.delivered, parts[index].len() as u64);
            prop_assert!(stats.eof, "source {} must reach EOF", index);
            prop_assert!(!stats.dead, "source {} must not be abandoned", index);
            // The backpressure bound: producers block at capacity.
            prop_assert!(
                stats.queue_peak <= capacity,
                "source {} peak {} exceeds capacity {}",
                index, stats.queue_peak, capacity
            );
            prop_assert_eq!(stats.queue_depth, 0, "drained queues are empty");
        }
    }
}

proptest! {
    /// The batched run-merge contract: whatever the batch boundaries
    /// (sizes {1, 2, 7, 4096}), however tiny the queues, with a seeded
    /// flaky feed reconnect-resuming mid-stream, and across a
    /// checkpoint/restore taken mid-batch (the consumer cut at an
    /// arbitrary point, almost never a batch boundary), the multiplexer
    /// delivers exactly `merge_records` — record for record.
    #[test]
    fn prop_batched_run_merge_equals_merge_records_across_restore(
        raw in proptest::collection::vec((0u64..200_000, 0usize..3), 0..600),
        batch_sel in 0usize..4,
        capacity in 1usize..16,
        seed in any::<u64>(),
        cut in 0.0f64..1.0,
    ) {
        use flaky::{FlakyFactory, FlakyPlan};
        use quicsand_net::multi::{
            memory_factory, merge_records, SourceFactory, SourceSet, SourceSetConfig,
        };
        use quicsand_net::StreamSource;

        let batch = [1usize, 2, 7, 4096][batch_sel];
        let sources = 3usize;
        let mut parts = vec![Vec::new(); sources];
        for (ts, slot) in raw {
            parts[slot % sources].push(PacketRecord::tcp(
                Timestamp::from_micros(ts),
                ip((ts % 250) as u8),
                ip(251),
                443,
                50_000,
                TcpFlags::SYN_ACK,
            ));
        }
        for part in &mut parts {
            part.sort_by_key(|r| r.ts);
        }
        let expected = merge_records(&parts);
        let plan = FlakyPlan::new(seed, 3, parts[1].len() as u64);
        let config = SourceSetConfig {
            queue_capacity: capacity,
            batch_records: batch,
            // A restored flaky feed replays its schedule from open #0
            // and may burn failures during the resume skip; the budget
            // must cover the whole plan.
            max_reconnects: plan.points().len() as u32 + 8,
            ..SourceSetConfig::default()
        };
        let make_factories = || -> Vec<Box<dyn SourceFactory>> {
            vec![
                Box::new(memory_factory(parts[0].clone())),
                Box::new(FlakyFactory::new(
                    memory_factory(parts[1].clone()),
                    plan.clone(),
                )),
                Box::new(memory_factory(parts[2].clone())),
            ]
        };

        // Phase 1: pull an arbitrary prefix — lands mid-batch for any
        // batch size > 1 — then checkpoint the cursors and tear down.
        let prefix = (cut * expected.len() as f64) as usize;
        let mut set = SourceSet::spawn(make_factories(), &config);
        let mut merged = set.pull_chunk(prefix).expect("merge never errors");
        prop_assert_eq!(merged.len(), prefix.min(expected.len()));
        let cursors = set.cursors();
        prop_assert_eq!(cursors.iter().sum::<u64>(), merged.len() as u64);
        drop(set);

        // Phase 2: resume from the cursors with fresh factories (the
        // flaky feed starts its schedule over) and drain to the end.
        let mut restored = SourceSet::resume(make_factories(), &config, &cursors);
        while let Some(record) = restored.next_merged() {
            merged.push(record);
        }

        prop_assert_eq!(&merged, &expected, "batch={} capacity={}", batch, capacity);
        let stats = restored.stats();
        prop_assert!(stats.iter().all(|s| s.eof && !s.dead), "{:?}", stats);
        prop_assert!(
            stats.iter().all(|s| s.queue_peak <= capacity),
            "batched transfer must respect the record capacity: {:?}",
            stats
        );
    }
}

/// The flow-merge pool contract, for any model: the stream is a pure
/// function of its pool, time-sorted, exactly `records` long with every
/// shard's budget summing to that, never holds more merge entries than
/// members, reads the same through `StreamSource::pull_chunk` as through
/// `Iterator`, and its `shard(n, i)` restrictions partition it exactly.
fn check_pool_contract<F: Flow>(
    pool: Pool<F::Model>,
    records: u64,
    members: u32,
    shards: u32,
) -> Result<Vec<PacketRecord>, TestCaseError>
where
    F::Model: Copy,
{
    use quicsand_net::StreamSource;
    let full: Vec<PacketRecord> = FlowMerge::<F>::new(&pool).collect();
    prop_assert_eq!(&FlowMerge::<F>::new(&pool).collect::<Vec<_>>(), &full);
    prop_assert_eq!(full.len() as u64, records, "budget honored exactly");
    prop_assert_eq!(pool.shard_records(), records);
    prop_assert!(full.windows(2).all(|w| w[0].ts <= w[1].ts), "time-sorted");

    let mut stream = FlowMerge::<F>::new(&pool);
    let mut pulled = Vec::new();
    loop {
        prop_assert!(stream.merge_width() <= members as usize);
        let chunk = stream.pull_chunk(97).expect("a generator never fails");
        if chunk.is_empty() {
            break;
        }
        pulled.extend(chunk);
    }
    prop_assert_eq!(stream.remaining(), 0);
    prop_assert_eq!(&pulled, &full, "streaming face equals iterator face");

    // Per-member timestamps strictly increase and members have distinct
    // sources, so (ts, src) identifies a record.
    let key = |r: &PacketRecord| (r.ts, r.src);
    let mut union = Vec::new();
    let mut budgets = 0;
    for index in 0..shards {
        let shard = pool.shard(shards, index);
        budgets += shard.shard_records();
        let part: Vec<PacketRecord> = FlowMerge::<F>::new(&shard).collect();
        prop_assert_eq!(part.len() as u64, shard.shard_records());
        prop_assert!(part.windows(2).all(|w| w[0].ts <= w[1].ts), "shard sorted");
        union.extend(part);
    }
    prop_assert_eq!(budgets, records, "shard budgets conserve the total");
    let mut sorted = full.clone();
    union.sort_by_key(key);
    sorted.sort_by_key(key);
    prop_assert_eq!(union, sorted, "shards partition the stream exactly");
    Ok(full)
}

proptest! {
    /// Both lazy trace models — SYN-ACK flood victims and evolving
    /// scanners — hold the shared pool contract for any pool shape.
    #[test]
    fn prop_flow_merge_streams_hold_the_pool_contract(
        seed in any::<u64>(),
        records in 0u64..3_000,
        members in 1u32..24,
        shards in 1u32..6,
    ) {
        let victims = StreamConfig::new(seed, records, members);
        check_pool_contract::<VictimFlow>(victims, records, members, shards)?;
        let telescope = quicsand_net::ip::telescope_prefix();
        let scans = EvolvingScanConfig::new(seed, records, members, telescope, 86_400 * 7);
        let probes = check_pool_contract::<ScannerFlow>(scans, records, members, shards)?;
        prop_assert!(probes.iter().all(|r| telescope.contains(r.dst)), "dst in telescope");
    }
}
