//! The sharded live engine: guard/quarantine ingest feeding per-shard
//! detectors, with deterministic event merge and checkpoint/restore.
//!
//! Each chunk runs through [`quicsand_telescope::parallel`] — the one
//! `hash(src) % N` scatter / admit / gather path the batch frontend
//! uses — so every per-source computation (the ingest guard,
//! sessionization, threshold detection, *and* per-victim multi-vector
//! correlation, since victim = source on both channels) sees exactly
//! the packets it would see single-sharded. Events are tagged with the
//! original record index and gathered (a stable merge), so the emitted
//! event log is identical at any chunk size, and the closed alert set
//! is identical at any shard count.

use crate::alert::{LiveEvent, LiveEventKind};
use crate::detector::{ClassifiedAttack, DetectorSnapshot, LiveConfig, LiveDetector, LiveStats};
use crate::forensics::AlertSlice;
use crate::metrics::LiveMetrics;
use quicsand_dissect::{Direction, MessageKinds};
use quicsand_events::{
    AlertClosed, AlertEscalated, AlertOpened, AlertReclassified, Event, EventMeta, NoopSubscriber,
    Subscriber,
};
use quicsand_net::PacketRecord;
use quicsand_obs::MetricsRegistry;
use quicsand_sessions::dos::Attack;
use quicsand_telescope::parallel::{admit_each, gather, scatter, ShardRecords};
use quicsand_telescope::{
    Admitted, GuardConfig, IngestMetrics, IngestStats, PipelineSnapshot, StageMetrics,
    TelescopePipeline,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shard's chunk output: record-index-tagged events plus the wall
/// time its admit and detect phases took.
type ShardChunk = (Vec<(usize, LiveEvent)>, Duration, Duration);

/// Admitted records the detector is handed at a time: the admit loop
/// fills a buffer this long and the detector drains it, so a chunk of
/// any length costs one buffer of fixed size.
const OFFER_BATCH: usize = 1024;

/// One shard: its slice of the ingest guard plus its detector.
#[derive(Debug)]
struct Shard {
    pipeline: TelescopePipeline,
    detector: LiveDetector,
}

/// One shard's state in a [`LiveSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardSnapshot {
    pipeline: PipelineSnapshot,
    detector: DetectorSnapshot,
}

/// Serializable checkpoint of the whole engine. Restoring it and
/// replaying the remaining stream yields the exact same events the
/// original engine would have emitted (wall-clock telemetry excepted).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveSnapshot {
    /// Detector configuration in effect.
    pub config: LiveConfig,
    /// Ingest guard thresholds in effect, for every shard's pipeline.
    pub guard: GuardConfig,
    /// Records offered before the checkpoint.
    pub offered: u64,
    shards: Vec<ShardSnapshot>,
}

impl LiveSnapshot {
    /// Shard count the checkpoint was taken at (restore keeps it).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Each shard's detector checkpoint, in shard order.
    pub(crate) fn detectors(&self) -> impl Iterator<Item = &DetectorSnapshot> {
        self.shards.iter().map(|shard| &shard.detector)
    }

    /// Each shard's ingest counters, in shard order.
    pub(crate) fn ingest_stats(&self) -> impl Iterator<Item = &IngestStats> {
        self.shards.iter().map(|shard| &shard.pipeline.stats)
    }
}

/// The streaming flood-detection engine.
#[derive(Debug)]
pub struct LiveEngine {
    config: LiveConfig,
    guard: GuardConfig,
    shards: Vec<Shard>,
    offered: u64,
    /// Per-engine metrics registry (never process-global: restore gets
    /// a fresh one re-seeded from the snapshot, tests stay hermetic).
    registry: Arc<MetricsRegistry>,
    metrics: LiveMetrics,
    ingest_metrics: IngestMetrics,
    stages: StageMetrics,
}

impl LiveEngine {
    /// Creates an engine with `shards` parallel detector shards.
    pub fn new(config: LiveConfig, guard: GuardConfig, shards: usize) -> Self {
        let shards = (0..shards.max(1))
            .map(|_| Shard {
                pipeline: TelescopePipeline::with_guard(guard),
                detector: LiveDetector::new(config),
            })
            .collect();
        Self::assemble(config, guard, 0, shards)
    }

    /// An engine over `shards`, with `offered` records behind it and a
    /// fresh registry.
    fn assemble(config: LiveConfig, guard: GuardConfig, offered: u64, shards: Vec<Shard>) -> Self {
        let registry = MetricsRegistry::new();
        let metrics = LiveMetrics::register(&registry);
        let ingest_metrics = IngestMetrics::register(&registry);
        let stages = StageMetrics::register(&registry);
        stages.threads.set(shards.len() as u64);
        LiveEngine {
            config,
            guard,
            shards,
            offered,
            registry,
            metrics,
            ingest_metrics,
            stages,
        }
    }

    /// Offers one record.
    pub fn offer(&mut self, record: &PacketRecord) -> Vec<LiveEvent> {
        self.offer_chunk(std::slice::from_ref(record))
    }

    /// Offers a chunk of records in capture order. Chunking is pure
    /// batching: splitting the stream differently never changes the
    /// emitted events, only the parallel hand-off granularity.
    pub fn offer_chunk(&mut self, records: &[PacketRecord]) -> Vec<LiveEvent> {
        self.offer_chunk_with(records, &mut NoopSubscriber)
    }

    /// [`LiveEngine::offer_chunk`] with typed event emission.
    ///
    /// When the subscriber is enabled, each shard collects its
    /// record-tied events (wire rejections, Retry / Version Negotiation
    /// sightings) into a `Vec<(EventMeta, Event)>` tagged with the
    /// record's absolute stream index; [`gather`] merges the buffers by
    /// that index and hands them to `subscriber`, so the delivered
    /// stream is identical at any shard count and chunk size. Alert
    /// lifecycle events are then derived from the chunk's (already
    /// deterministic) [`LiveEvent`] output. The collector type is chosen
    /// here, once per chunk: with a disabled subscriber the shards run
    /// on [`NoopSubscriber`], whose emission path monomorphizes away.
    pub fn offer_chunk_with<S: Subscriber>(
        &mut self,
        records: &[PacketRecord],
        subscriber: &mut S,
    ) -> Vec<LiveEvent> {
        if records.is_empty() {
            return Vec::new();
        }
        let events = if subscriber.enabled() {
            let (events, collectors) = self.scatter_chunk::<Vec<(EventMeta, Event)>>(records);
            let record_tied = collectors
                .into_iter()
                .flatten()
                .map(|(meta, event)| (meta.record_index, (meta, event)))
                .collect();
            for (meta, event) in gather(record_tied) {
                subscriber.on(meta, event);
            }
            emit_alert_events(&events, subscriber);
            events
        } else {
            self.scatter_chunk::<NoopSubscriber>(records).0
        };
        self.observe_closed(&events);
        self.sync_metrics();
        events
    }

    /// One chunk through every shard ([`scatter`]: one shard inline, N
    /// on scoped workers), each with a fresh `C` for its record-tied
    /// events. Returns the chunk's [`LiveEvent`]s in capture order and
    /// the shards' collectors.
    fn scatter_chunk<C: Subscriber + Default + Send>(
        &mut self,
        records: &[PacketRecord],
    ) -> (Vec<LiveEvent>, Vec<C>) {
        let base = self.offered;
        self.offered += records.len() as u64;
        let results = scatter(records, &mut self.shards, |shard, part| {
            let mut collector = C::default();
            (
                shard_chunk(shard, records, part, base, &mut collector),
                collector,
            )
        });
        // Detector offers are the live "sessionize" stage (incremental
        // session upkeep + threshold checks).
        let times = results
            .iter()
            .map(|((_, ingest, detect), _)| (*ingest, *detect));
        self.stages.record_chunk(times);
        let mut tagged: Vec<(usize, LiveEvent)> = Vec::new();
        let mut collectors = Vec::with_capacity(results.len());
        for ((events, _, _), collector) in results {
            tagged.extend(events);
            collectors.push(collector);
        }
        // A record can emit several events; `gather` is stable, so they
        // stay in emission order.
        (gather(tagged), collectors)
    }

    /// Ends the stream: closes every open session on every shard and
    /// returns the trailing events, merged into a deterministic
    /// `(at, victim)` order that is independent of the shard count.
    pub fn finish(&mut self) -> Vec<LiveEvent> {
        self.finish_with(&mut NoopSubscriber)
    }

    /// [`LiveEngine::finish`] with typed event emission for the
    /// trailing alert lifecycle events.
    pub fn finish_with<S: Subscriber>(&mut self, subscriber: &mut S) -> Vec<LiveEvent> {
        let flush_start = Instant::now();
        let mut events: Vec<LiveEvent> = Vec::new();
        for shard in &mut self.shards {
            events.extend(shard.detector.finish());
        }
        // One victim lives in exactly one shard, so ties on
        // `(at, victim)` come from the same shard and the stable sort
        // preserves their emission order.
        events.sort_by_key(|e| (e.at, e.victim));
        self.stages.record_detect(flush_start.elapsed());
        let peak = self.live_stats().peak_tracked;
        self.stages.peak_open_sessions.set(peak as u64);
        if subscriber.enabled() {
            emit_alert_events(&events, subscriber);
        }
        self.observe_closed(&events);
        self.sync_metrics();
        events
    }

    /// Records closed alerts' attack distributions (the live side of
    /// the shared `quicsand_detect_*`/`quicsand_attack_*` families).
    fn observe_closed(&self, events: &[LiveEvent]) {
        for event in events {
            if event.kind == LiveEventKind::Closed {
                if let Some(attack) = &event.attack {
                    self.metrics.dos.observe_attack(attack);
                }
            }
        }
    }

    /// Publishes the current stats readings: every counter catches up
    /// to its field. Called at every chunk boundary (and by
    /// restore/finish), so exported counters equal
    /// [`LiveEngine::ingest_stats`]/[`LiveEngine::live_stats`] whenever
    /// the engine is at rest.
    pub fn sync_metrics(&self) {
        self.ingest_metrics.publish(&self.ingest_stats());
        self.metrics.publish(&self.live_stats());
        self.metrics.tracked.set(self.tracked() as u64);
    }

    /// Publishes the current readings, then checks the identities
    /// between quantities the engine counts independently of each other:
    /// every dissector reject is counted under its kind, and every
    /// closed alert was observed into the attack distributions. Returns
    /// the mismatches on failure.
    pub fn verify_metrics(&mut self) -> Result<(), Vec<String>> {
        self.sync_metrics();
        let mut errors = Vec::new();
        if let Err(e) = self.ingest_stats().require_dissect_rejects_counted() {
            errors.push(e);
        }
        let dos = &self.metrics.dos;
        let observed = dos.attacks_quic.get() + dos.attacks_common.get();
        let closed = self.live_stats().closed;
        if observed != closed {
            errors.push(format!(
                "attack observations {observed} != closed alerts {closed}"
            ));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Counts `count` written checkpoints: `bytes` serialized bytes and
    /// `elapsed` wall time between them. A restored engine counts from
    /// zero, so a process that carries on from one passes its run's
    /// totals once after each restore.
    pub fn record_checkpoint(&self, count: u64, bytes: u64, elapsed: Duration) {
        self.metrics.checkpoints_total.add(count);
        self.metrics.checkpoint_bytes_total.add(bytes);
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.metrics.checkpoint_micros_total.add(micros);
    }

    /// The engine's metrics registry, for exposition.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The live metric handles (counters reconcile at sync points).
    pub fn metrics(&self) -> &LiveMetrics {
        &self.metrics
    }

    /// The run's stage wall times. A restored engine's series start at
    /// zero; a process that carries on from one adds the earlier
    /// engine's in with [`StageMetrics::carry`].
    pub fn stages(&self) -> &StageMetrics {
        &self.stages
    }

    /// Checkpoints the engine (guard state, open victims, closed-attack
    /// sets, counters). Shard states are captured independently, so the
    /// snapshot is only restorable at the same shard count — which
    /// [`LiveEngine::restore`] enforces by construction.
    pub fn snapshot(&self) -> LiveSnapshot {
        LiveSnapshot {
            config: self.config,
            guard: self.guard,
            offered: self.offered,
            shards: self
                .shards
                .iter()
                .map(|shard| ShardSnapshot {
                    pipeline: shard.pipeline.snapshot(),
                    detector: shard.detector.snapshot(),
                })
                .collect(),
        }
    }

    /// Rebuilds an engine from a checkpoint. The restored engine emits
    /// the exact same events for the rest of the stream as the
    /// snapshotted one would have (its stage wall times start at zero).
    ///
    /// Infallible, so it trusts its argument: a snapshot read from
    /// outside the program goes through [`crate::parse_checkpoint`]
    /// first, which rejects one with no shards (an engine that would
    /// accept records and process none), with a ring longer than
    /// `evidence_capacity` (a detector that would close with its
    /// evidence out of order), with an arrival profile no window builds
    /// (one that would mis-join a packet, or panic rendering a slice) or
    /// with counters that contradict each other (an engine that would
    /// fail its own [`LiveEngine::verify_metrics`]).
    pub fn restore(snapshot: &LiveSnapshot) -> Self {
        let shards = snapshot
            .shards
            .iter()
            .map(|shard| Shard {
                pipeline: TelescopePipeline::restore(snapshot.guard, &shard.pipeline),
                detector: LiveDetector::restore(snapshot.config, &shard.detector),
            })
            .collect();
        let engine = Self::assemble(snapshot.config, snapshot.guard, snapshot.offered, shards);
        // Re-seed the fresh registry from the restored state: counters
        // from the snapshot's stats (the first publish into a fresh
        // registry carries them whole), attack distributions by
        // re-observing the closed sets the snapshot carries — bucket
        // counts are pure functions of the attack set, so a
        // checkpoint/restore cycle leaves every stable metric exactly
        // where an uninterrupted run would.
        for shard in &engine.shards {
            for classified in shard.detector.closed_quic() {
                engine.metrics.dos.observe_attack(&classified.attack);
            }
            for flood in shard.detector.closed_common() {
                engine.metrics.dos.observe_attack(&flood.attack);
            }
        }
        engine.sync_metrics();
        engine
    }

    /// Merged ingest counters across shards.
    pub fn ingest_stats(&self) -> IngestStats {
        let mut stats = IngestStats::default();
        for shard in &self.shards {
            stats.merge(shard.pipeline.stats());
        }
        stats
    }

    /// Merged detector counters across shards.
    pub fn live_stats(&self) -> LiveStats {
        let mut stats = LiveStats::default();
        for shard in &self.shards {
            stats.merge(&shard.detector.stats());
        }
        stats
    }

    /// Victims currently tracked across all shards and channels.
    pub fn tracked(&self) -> usize {
        self.shards.iter().map(|s| s.detector.tracked()).sum()
    }

    /// Records offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Closed QUIC attacks with their current verdicts, merged across
    /// shards into deterministic `(start, victim)` order.
    pub fn closed_quic(&self) -> Vec<ClassifiedAttack> {
        let mut attacks: Vec<ClassifiedAttack> = self
            .shards
            .iter()
            .flat_map(|s| s.detector.closed_quic().iter().cloned())
            .collect();
        attacks.sort_by_key(|c| (c.attack.start, c.attack.victim));
        attacks
    }

    /// Closed TCP/ICMP attacks, merged across shards into
    /// deterministic `(start, victim)` order.
    pub fn closed_common(&self) -> Vec<Attack> {
        let mut attacks: Vec<Attack> = self
            .shards
            .iter()
            .flat_map(|s| s.detector.closed_common().iter().map(|f| f.attack.clone()))
            .collect();
        attacks.sort_by_key(|a| (a.start, a.victim));
        attacks
    }

    /// Forensic slices for every closed QUIC alert, merged across
    /// shards into deterministic `(start, victim)` order and
    /// re-indexed to that order.
    pub fn alert_slices(&self) -> Vec<AlertSlice> {
        let mut slices: Vec<AlertSlice> = self
            .shards
            .iter()
            .flat_map(|s| s.detector.alert_slices())
            .collect();
        slices.sort_by_key(|s| (s.quic.attack.start, s.victim));
        for (index, slice) in slices.iter_mut().enumerate() {
            slice.alert_index = index;
        }
        slices
    }

    /// The detector configuration in effect.
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }
}

/// Processes one shard's slice of a chunk: admit through the ingest
/// guard (timed as ingest), handing the detector every [`OFFER_BATCH`]
/// admitted records in turn (timed as the live "sessionize+detect"
/// stage). The split is observational only — pipeline and detector are
/// independent state machines and the detector sees the admitted records
/// in order, so where the batches fall cannot change any decision.
fn shard_chunk<S: Subscriber>(
    shard: &mut Shard,
    records: &[PacketRecord],
    part: ShardRecords<'_>,
    base: u64,
    subscriber: &mut S,
) -> ShardChunk {
    let start = Instant::now();
    let Shard { pipeline, detector } = shard;
    // The detector needs only which records were admitted, and on which
    // channel: an admitted product repeats its record's `ts`/`src`/`dst`,
    // so a QUIC payload is checked, not dissected, and nothing of the
    // product is kept (`true`: QUIC backscatter — the response source is
    // the flood victim; requests are scan traffic, not flood evidence).
    let mut offers: Vec<(usize, bool)> = Vec::with_capacity(part.len().min(OFFER_BATCH));
    let mut events: Vec<(usize, LiveEvent)> = Vec::new();
    let mut detect_time = Duration::ZERO;
    admit_each(
        pipeline,
        part,
        base,
        subscriber,
        |index, product: Admitted<MessageKinds>, _, _| {
            let quic = match product {
                Admitted::Quic(obs) if obs.direction == Direction::Response => true,
                Admitted::Baseline(_) => false,
                Admitted::Quic(_) | Admitted::Dropped => return,
            };
            offers.push((index, quic));
            if offers.len() == OFFER_BATCH {
                detect_time += detect(detector, records, &mut offers, &mut events);
            }
        },
    );
    detect_time += detect(detector, records, &mut offers, &mut events);
    (
        events,
        start.elapsed().saturating_sub(detect_time),
        detect_time,
    )
}

/// Drains `offers` into the detector, tagging what it emits with the
/// record index; returns the wall time it took.
fn detect(
    detector: &mut LiveDetector,
    records: &[PacketRecord],
    offers: &mut Vec<(usize, bool)>,
    events: &mut Vec<(usize, LiveEvent)>,
) -> Duration {
    let start = Instant::now();
    for (index, quic) in offers.drain(..) {
        let record = &records[index];
        let bytes = record.wire_size() as u64;
        let emitted = if quic {
            detector.offer_response(record.ts, record.src, record.dst, bytes)
        } else {
            detector.offer_baseline(record.ts, record.src, record.dst, bytes)
        };
        events.extend(emitted.into_iter().map(|event| (index, event)));
    }
    start.elapsed()
}

/// Translates the merged, deterministic [`LiveEvent`] stream into the
/// typed alert lifecycle events. Lifecycle events are not tied to one
/// record (a close can be triggered by a watermark sweep landing on a
/// different victim's packet), so they carry [`EventMeta::lifecycle`]
/// and ride *after* the chunk's record-tied events — a position that is
/// itself deterministic because the [`LiveEvent`] stream is.
fn emit_alert_events<S: Subscriber>(events: &[LiveEvent], subscriber: &mut S) {
    for event in events {
        let (at, victim) = (event.at, event.victim);
        let protocol = event.protocol.label().to_string();
        let typed = match event.kind {
            LiveEventKind::Opened => Event::AlertOpened(AlertOpened {
                at,
                victim,
                protocol,
            }),
            LiveEventKind::Escalated => Event::AlertEscalated(AlertEscalated {
                at,
                victim,
                protocol,
            }),
            LiveEventKind::Closed => {
                let attack = event.attack.as_ref().expect("Closed events carry attacks");
                Event::AlertClosed(AlertClosed {
                    at,
                    victim,
                    protocol,
                    start: attack.start,
                    packet_count: attack.packet_count,
                    max_pps: attack.max_pps,
                    class: event.class.map(|c| c.label().to_string()),
                    overlap_share: event.overlap_share,
                    gap_secs: event.gap_secs,
                    evicted: event.evicted,
                })
            }
            LiveEventKind::Reclassified => Event::AlertReclassified(AlertReclassified {
                at,
                victim,
                protocol,
                class: event.class.map(|c| c.label().to_string()),
                overlap_share: event.overlap_share,
                gap_secs: event.gap_secs,
            }),
        };
        subscriber.on(EventMeta::lifecycle(), typed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::LiveEventKind;
    use quicsand_net::{TcpFlags, Timestamp};
    use quicsand_telescope::Stage;
    use std::net::Ipv4Addr;

    fn victim(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, last)
    }

    /// A TCP SYN-ACK backscatter record (baseline channel).
    fn syn_ack(ts_micros: u64, src: Ipv4Addr) -> PacketRecord {
        PacketRecord::tcp(
            Timestamp::from_micros(ts_micros),
            src,
            Ipv4Addr::new(10, 0, 0, 7),
            443,
            50_000,
            TcpFlags::SYN_ACK,
        )
    }

    /// A multi-victim flood trace: `victims` interleaved at 2 pps each
    /// for `secs` seconds.
    fn trace(victims: &[Ipv4Addr], secs: u64) -> Vec<PacketRecord> {
        let mut records = Vec::new();
        for tick in 0..(secs * 2) {
            for (v, addr) in victims.iter().enumerate() {
                records.push(syn_ack(tick * 500_000 + v as u64, *addr));
            }
        }
        records
    }

    #[test]
    fn shard_count_does_not_change_closed_alerts() {
        let records = trace(&[victim(1), victim(2), victim(3), victim(4)], 120);
        let run = |shards: usize| {
            let mut engine = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), shards);
            let mut events = Vec::new();
            for chunk in records.chunks(17) {
                events.extend(engine.offer_chunk(chunk));
            }
            events.extend(engine.finish());
            (events, engine.closed_common(), engine.live_stats())
        };
        let (one_events, one_closed, one_stats) = run(1);
        assert_eq!(one_closed.len(), 4);
        for shards in [2, 3, 8] {
            let (_, closed, stats) = run(shards);
            assert_eq!(closed, one_closed, "{shards} shards");
            assert_eq!(stats.opened, one_stats.opened);
            assert_eq!(stats.closed, one_stats.closed);
        }
        let opens = one_events
            .iter()
            .filter(|e| e.kind == LiveEventKind::Opened)
            .count();
        assert_eq!(opens, 4);
    }

    #[test]
    fn chunk_size_does_not_change_the_event_log() {
        let records = trace(&[victim(5), victim(6)], 90);
        let run = |chunk: usize| {
            let mut engine = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 2);
            let mut events = Vec::new();
            for part in records.chunks(chunk) {
                events.extend(engine.offer_chunk(part));
            }
            events.extend(engine.finish());
            events
        };
        let baseline = run(usize::MAX);
        for chunk in [1, 7, 64] {
            assert_eq!(run(chunk), baseline, "chunk {chunk}");
        }
    }

    #[test]
    fn evidence_ring_capacity_is_plumbed_and_survives_restore() {
        let records = trace(&[victim(9), victim(10)], 120);
        let config = LiveConfig {
            evidence_capacity: 5,
            ..LiveConfig::default()
        };
        let mut engine = LiveEngine::new(config, GuardConfig::default(), 2);
        // Feed half the trace so alerts are open with populated rings,
        // then checkpoint mid-alert.
        let half = records.len() / 2;
        let mut straight = engine.offer_chunk(&records[..half]);
        let snapshot = engine.snapshot();
        let mut restored = LiveEngine::restore(&snapshot);
        assert_eq!(
            restored.snapshot(),
            snapshot,
            "restore preserves the evidence rings bit for bit"
        );

        // The restored engine continues exactly like the original.
        let mut resumed = straight.clone();
        resumed.extend(restored.offer_chunk(&records[half..]));
        resumed.extend(restored.finish());
        straight.extend(engine.offer_chunk(&records[half..]));
        straight.extend(engine.finish());
        assert_eq!(resumed, straight);

        // Closed alerts carry exactly the configured ring: the 5 most
        // recent packets, ending at the attack's last packet.
        let closed: Vec<_> = straight
            .iter()
            .filter(|e| e.kind == LiveEventKind::Closed)
            .collect();
        assert!(!closed.is_empty());
        for event in closed {
            assert_eq!(event.evidence.len(), 5, "ring capped at --evidence-ring");
            let attack = event.attack.as_ref().expect("closed events carry attacks");
            assert_eq!(
                event.evidence.last().expect("non-empty ring").ts,
                attack.end
            );
            assert!(event.evidence.windows(2).all(|w| w[0].ts <= w[1].ts));
        }
    }

    #[test]
    fn quarantined_records_never_reach_the_detector() {
        let mut engine = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 1);
        let record = syn_ack(1_000_000, victim(7));
        engine.offer(&record);
        engine.offer(&record); // byte-identical duplicate → quarantined
        assert_eq!(engine.ingest_stats().quarantine.duplicate, 1);
        assert_eq!(engine.live_stats().events_in, 1);
        assert_eq!(engine.offered(), 2);
    }

    #[test]
    fn snapshot_restore_mid_stream_is_invisible() {
        let records = trace(&[victim(8), victim(9)], 120);
        let half = records.len() / 2;

        let mut straight = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 2);
        let mut straight_events = straight.offer_chunk(&records);
        straight_events.extend(straight.finish());

        let mut first = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 2);
        let mut resumed_events = first.offer_chunk(&records[..half]);
        let snapshot = first.snapshot();
        let mut second = LiveEngine::restore(&snapshot);
        assert_eq!(second.snapshot(), snapshot, "restore is lossless");
        resumed_events.extend(second.offer_chunk(&records[half..]));
        resumed_events.extend(second.finish());

        assert_eq!(resumed_events, straight_events);
        assert_eq!(second.closed_common(), straight.closed_common());
        assert_eq!(second.live_stats(), straight.live_stats());
        assert_eq!(second.ingest_stats(), straight.ingest_stats());
    }

    #[test]
    fn each_chunk_is_one_ingest_and_one_sessionize_observation() {
        let records = trace(&[victim(11), victim(12), victim(13)], 30);
        for shards in [1, 2] {
            let mut engine = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), shards);
            let mut chunks = 0;
            for chunk in records.chunks(16) {
                engine.offer_chunk(chunk);
                chunks += 1;
            }
            engine.finish();
            let stages = engine.stages();
            assert_eq!(stages.threads.get(), shards as u64);
            for (stage, count) in [
                (Stage::Ingest, chunks),
                (Stage::Sanitize, 0),
                (Stage::Sessionize, chunks),
                (Stage::Detect, 1),
            ] {
                let observed = stages.walltime(stage).count();
                assert_eq!(observed, count, "{stage:?} at {shards} shard(s)");
            }
        }
    }

    #[test]
    fn empty_chunk_is_a_no_op() {
        let mut engine = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 4);
        assert!(engine.offer_chunk(&[]).is_empty());
        assert_eq!(engine.offered(), 0);
        assert!(engine.finish().is_empty());
    }
}
