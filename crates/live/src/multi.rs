//! Multi-source front end for the live engine: a [`SourceSet`] pumped
//! into a [`LiveEngine`], with per-source metrics and a checkpoint that
//! snapshots every feed's resume cursor.
//!
//! The engine itself is unchanged — it still consumes plain record
//! chunks — so every engine-level invariant (shard-count and chunk-size
//! independence, snapshot/restore losslessness) carries over verbatim.
//! What this layer adds on top:
//!
//! * one [`SourceSetMetrics`] bundle per feed on the engine's registry
//!   (volatile: feed layout is deployment shape, not trace content),
//! * the conservation invariant `sum(source cursors) == records
//!   offered`, checked by [`MultiSourceLive::verify_metrics`], and
//! * [`MultiSnapshot`] — checkpoint schema v3. Because the merge holds
//!   exactly one head per source, its future output is a pure function
//!   of the per-source remaining suffixes; restoring the engine state
//!   and re-opening every feed past its cursor therefore reproduces the
//!   exact continuation, even when the original run had reconnects in
//!   flight.

use crate::alert::LiveEvent;
use crate::detector::{LiveConfig, LiveStats};
use crate::engine::{LiveEngine, LiveSnapshot};
use crate::metrics::SourceSetMetrics;
use quicsand_net::multi::{SourceFactory, SourceSet, SourceSetConfig, SourceStats};
use quicsand_net::StreamSource;
use quicsand_telescope::{GuardConfig, IngestStats};
use serde::{Access, Deserialize, Deserializer, Kind, Scalar, Serialize};

/// Current checkpoint schema version ([`MultiSnapshot::version`]), the
/// only one [`parse_checkpoint`] reads.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 3;

/// Checkpoint schema v3: the engine snapshot plus one resume cursor
/// (absolute records consumed) per source.
///
/// Read, it refuses any `version` but [`CHECKPOINT_SCHEMA_VERSION`] by
/// name, and where `version` comes first, as it is written, before the
/// engine is read.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MultiSnapshot {
    /// Schema version; see [`CHECKPOINT_SCHEMA_VERSION`].
    pub version: u32,
    /// The engine's own lossless snapshot.
    pub engine: LiveSnapshot,
    /// Records consumed per source at checkpoint time.
    pub cursors: Vec<u64>,
}

impl<'de> Deserialize<'de> for MultiSnapshot {
    /// The fields in any order, the first of a repeated one read and
    /// the rest read past, like a derived struct.
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let missing = |field: &str| {
            serde::Error::custom(format!("missing field `{field}` in struct MultiSnapshot"))
        };
        let mut entries = d.map("map for struct MultiSnapshot")?;
        let (mut version, mut engine, mut cursors) = (None, None, None);
        while let Some(key) = entries.key()? {
            match key {
                "version" if version.is_none() => {
                    let Version(claimed) = entries.value()?;
                    if claimed != u64::from(CHECKPOINT_SCHEMA_VERSION) {
                        return Err(serde::Error::custom(format!(
                            "unsupported checkpoint schema v{claimed} \
                             (this build reads v{CHECKPOINT_SCHEMA_VERSION})"
                        ))
                        .into());
                    }
                    version = Some(CHECKPOINT_SCHEMA_VERSION);
                }
                "engine" if engine.is_none() => engine = Some(entries.value()?),
                "cursors" if cursors.is_none() => cursors = Some(entries.value()?),
                _ => entries.skip()?,
            }
        }
        Ok(MultiSnapshot {
            version: version.ok_or_else(|| missing("version"))?,
            engine: engine.ok_or_else(|| missing("engine"))?,
            cursors: cursors.ok_or_else(|| missing("cursors"))?,
        })
    }
}

/// A checkpoint's `version`, which must be an integer.
struct Version(u64);

impl<'de> Deserialize<'de> for Version {
    fn deserialize<D: Deserializer<'de>>(mut d: D) -> Result<Self, D::Error> {
        let got = match d.peek()? {
            Kind::Seq => "sequence",
            Kind::Map => "map",
            _ => match d.scalar("version")? {
                Scalar::U64(n) => return Ok(Version(n)),
                other => other.kind(),
            },
        };
        Err(serde::Error::custom(format!("`version` must be an integer, got {got}")).into())
    }
}

/// Parses a schema-v3 checkpoint in one typed read, then checks what
/// the types cannot: a restored engine built from what it returns
/// reconciles, closes in order and renders its slices.
///
/// A text that is not JSON is `checkpoint is not JSON: …`; one that is
/// JSON but no v3 checkpoint is `invalid checkpoint: …`, naming the
/// version it claims or the field that does not fit.
pub fn parse_checkpoint(json: &str) -> Result<MultiSnapshot, String> {
    let snapshot: MultiSnapshot = serde_json::from_str(json).map_err(|e| {
        // Only a refused text is read again, to tell damaged JSON from
        // a checkpoint of the wrong shape.
        match serde_json::from_str::<()>(json) {
            Err(syntax) => format!("checkpoint is not JSON: {syntax}"),
            Ok(()) => format!("invalid checkpoint: {}", e.message()),
        }
    })?;
    require_shards(&snapshot.engine)?;
    for stats in snapshot.engine.ingest_stats() {
        stats.require_dissect_rejects_counted()?;
    }
    for detector in snapshot.engine.detectors() {
        detector.require_sound_rings(snapshot.engine.config.evidence_capacity)?;
        detector.require_sound_profiles()?;
        detector.require_closed_listed()?;
    }
    Ok(snapshot)
}

/// An engine restored from zero shards would accept every record,
/// process none and still reconcile its (all-zero) counters: reject it.
fn require_shards(engine: &LiveSnapshot) -> Result<(), String> {
    if engine.shards() == 0 {
        return Err("checkpoint field `shards` is empty: an engine has at least one shard".into());
    }
    Ok(())
}

/// A [`LiveEngine`] fed by a [`SourceSet`], keeping the per-source
/// metric bundles in sync at every chunk boundary.
#[derive(Debug)]
pub struct MultiSourceLive {
    engine: LiveEngine,
    set: SourceSet,
    source_metrics: SourceSetMetrics,
    exhausted: bool,
}

impl MultiSourceLive {
    /// Builds a fresh engine over `set`.
    pub fn new(config: LiveConfig, guard: GuardConfig, shards: usize, set: SourceSet) -> Self {
        Self::attach(LiveEngine::new(config, guard, shards), set)
    }

    /// Couples an engine (fresh or restored) to a source set and
    /// registers the per-source families on its registry. The first
    /// publish carries the set's resume cursors whole, so counters cover
    /// the full run even after a restore.
    fn attach(engine: LiveEngine, set: SourceSet) -> Self {
        let source_metrics = SourceSetMetrics::register(engine.registry(), set.len());
        let live = MultiSourceLive {
            engine,
            set,
            source_metrics,
            exhausted: false,
        };
        live.sync_sources();
        live
    }

    /// Rebuilds engine and sources from a checkpoint: the engine via
    /// its own restore, each feed re-opened and fast-forwarded past its
    /// cursor. Replaying the rest of the stream emits exactly the
    /// events the snapshotted run would have.
    pub fn restore(
        snapshot: &MultiSnapshot,
        factories: Vec<Box<dyn SourceFactory>>,
        config: &SourceSetConfig,
    ) -> Result<MultiSourceLive, String> {
        let cursors = &snapshot.cursors;
        if cursors.len() != factories.len() {
            return Err(format!(
                "checkpoint has {} source cursor(s), cannot resume {} feeds",
                cursors.len(),
                factories.len()
            ));
        }
        require_shards(&snapshot.engine)?;
        let engine = LiveEngine::restore(&snapshot.engine);
        let set = SourceSet::resume(factories, config, cursors);
        Ok(Self::attach(engine, set))
    }

    /// Publishes a fresh reading of every feed's stats.
    fn sync_sources(&self) {
        self.source_metrics.publish(&self.set.stats());
    }

    /// Pulls up to `chunk` merged records and offers them to the
    /// engine. `None` once every source is exhausted (the engine still
    /// needs [`MultiSourceLive::finish`]).
    pub fn pump(&mut self, chunk: usize) -> Option<Vec<LiveEvent>> {
        self.pump_with(chunk, &mut quicsand_events::NoopSubscriber)
    }

    /// [`MultiSourceLive::pump`], additionally forwarding the typed
    /// event stream (wire rejections, Retry/VN observations, alert
    /// lifecycle) to `subscriber`. Delegates to
    /// [`LiveEngine::offer_chunk_with`], so the stream is deterministic
    /// at any shard count.
    pub fn pump_with<S: quicsand_events::Subscriber>(
        &mut self,
        chunk: usize,
        subscriber: &mut S,
    ) -> Option<Vec<LiveEvent>> {
        if self.exhausted {
            return None;
        }
        let records = self
            .set
            .pull_chunk(chunk.max(1))
            .expect("the merged stream handles source errors internally");
        if records.is_empty() {
            self.exhausted = true;
            self.sync_sources();
            return None;
        }
        let events = self.engine.offer_chunk_with(&records, subscriber);
        self.sync_sources();
        Some(events)
    }

    /// Ends the stream: flushes every open session and returns the
    /// trailing events.
    pub fn finish(&mut self) -> Vec<LiveEvent> {
        self.finish_with(&mut quicsand_events::NoopSubscriber)
    }

    /// [`MultiSourceLive::finish`], forwarding the trailing alert
    /// lifecycle events to `subscriber`.
    pub fn finish_with<S: quicsand_events::Subscriber>(
        &mut self,
        subscriber: &mut S,
    ) -> Vec<LiveEvent> {
        let events = self.engine.finish_with(subscriber);
        self.sync_sources();
        events
    }

    /// Takes a schema-v3 checkpoint of engine and source cursors.
    pub fn snapshot(&self) -> MultiSnapshot {
        MultiSnapshot {
            version: CHECKPOINT_SCHEMA_VERSION,
            engine: self.engine.snapshot(),
            cursors: self.set.cursors(),
        }
    }

    /// The engine's [`LiveEngine::verify_metrics`], after publishing a
    /// fresh per-source reading, plus record conservation across the
    /// feeds: `sum(delivered) == offered`.
    pub fn verify_metrics(&mut self) -> Result<(), Vec<String>> {
        let mut errors = self.engine.verify_metrics().err().unwrap_or_default();
        self.sync_sources();
        let delivered = self.set.delivered_total();
        if delivered != self.engine.offered() {
            errors.push(format!(
                "records not conserved: sources delivered {delivered} != engine offered {}",
                self.engine.offered()
            ));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// The underlying engine (alerts, stats, registry).
    pub fn engine(&self) -> &LiveEngine {
        &self.engine
    }

    /// Records offered to the engine so far.
    pub fn offered(&self) -> u64 {
        self.engine.offered()
    }

    /// Merged detector counters (delegates to the engine).
    pub fn live_stats(&self) -> LiveStats {
        self.engine.live_stats()
    }

    /// Merged ingest counters (delegates to the engine).
    pub fn ingest_stats(&self) -> IngestStats {
        self.engine.ingest_stats()
    }

    /// Per-source telemetry at the last reading.
    pub fn source_stats(&self) -> Vec<SourceStats> {
        self.set.stats()
    }

    /// Number of feeds in the set.
    pub fn sources(&self) -> usize {
        self.set.len()
    }

    /// Per-source vantage labels (delegates to the set). The qlog
    /// export records these in the trace's vantage-point metadata.
    pub fn labels(&self) -> &[String] {
        self.set.labels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_net::multi::{memory_factory, merge_records};
    use quicsand_net::{PacketRecord, TcpFlags, Timestamp};
    use std::net::Ipv4Addr;

    fn syn_ack(ts_micros: u64, last: u8) -> PacketRecord {
        PacketRecord::tcp(
            Timestamp::from_micros(ts_micros),
            Ipv4Addr::new(198, 51, 100, last),
            Ipv4Addr::new(10, 0, 0, 7),
            443,
            50_000,
            TcpFlags::SYN_ACK,
        )
    }

    fn trace(victims: u8, secs: u64) -> Vec<PacketRecord> {
        let mut records = Vec::new();
        for tick in 0..(secs * 2) {
            for v in 0..victims {
                records.push(syn_ack(tick * 500_000 + v as u64, v + 1));
            }
        }
        records
    }

    fn splits(records: &[PacketRecord], n: usize) -> Vec<Vec<PacketRecord>> {
        let mut parts = vec![Vec::new(); n];
        for (i, r) in records.iter().enumerate() {
            parts[i % n].push(r.clone());
        }
        parts
    }

    fn factories(parts: &[Vec<PacketRecord>]) -> Vec<Box<dyn SourceFactory>> {
        parts
            .iter()
            .map(|p| Box::new(memory_factory(p.clone())) as Box<dyn SourceFactory>)
            .collect()
    }

    #[test]
    fn pump_matches_a_single_engine_over_the_merged_trace() {
        let records = trace(3, 120);
        let parts = splits(&records, 2);
        let merged = merge_records(&parts);

        let mut reference = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 1);
        let mut want = Vec::new();
        for chunk in merged.chunks(512) {
            want.extend(reference.offer_chunk(chunk));
        }
        want.extend(reference.finish());

        let set = SourceSet::spawn(factories(&parts), &SourceSetConfig::default());
        let mut live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), 1, set);
        let mut got = Vec::new();
        while let Some(events) = live.pump(512) {
            got.extend(events);
        }
        got.extend(live.finish());

        assert_eq!(got, want);
        assert_eq!(live.engine().closed_common(), reference.closed_common());
        live.verify_metrics().expect("reconciles");
    }

    #[test]
    fn v2_checkpoint_round_trips_and_resumes() {
        let records = trace(2, 120);
        let parts = splits(&records, 2);

        let set = SourceSet::spawn(factories(&parts), &SourceSetConfig::default());
        let mut live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), 2, set);
        let mut before = Vec::new();
        for _ in 0..3 {
            before.extend(live.pump(64).expect("stream not done"));
        }
        let snapshot = live.snapshot();
        let encoded = serde_json::to_string(&snapshot).unwrap();
        let decoded = parse_checkpoint(&encoded).expect("the checkpoint parses");
        assert_eq!(decoded, snapshot);

        let mut restored =
            MultiSourceLive::restore(&decoded, factories(&parts), &SourceSetConfig::default())
                .expect("restore");
        assert_eq!(restored.snapshot(), snapshot, "restore is lossless");
        let mut after = Vec::new();
        while let Some(events) = restored.pump(64) {
            after.extend(events);
        }
        after.extend(restored.finish());
        restored.verify_metrics().expect("restored run reconciles");

        // The uninterrupted run emits exactly before ++ after.
        let mut straight = Vec::new();
        let set = SourceSet::spawn(factories(&parts), &SourceSetConfig::default());
        let mut live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), 2, set);
        while let Some(events) = live.pump(64) {
            straight.extend(events);
        }
        straight.extend(live.finish());
        let mut resumed = before;
        resumed.extend(after);
        assert_eq!(resumed, straight);
    }

    #[test]
    fn unknown_future_schema_is_rejected() {
        let records = trace(1, 30);
        let set = SourceSet::spawn(factories(&splits(&records, 1)), &SourceSetConfig::default());
        let live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), 1, set);
        let mut snapshot = live.snapshot();
        snapshot.version = CHECKPOINT_SCHEMA_VERSION + 1;
        let encoded = serde_json::to_string(&snapshot).unwrap();
        let error = parse_checkpoint(&encoded).expect_err("v4 rejected");
        assert_eq!(
            error,
            "invalid checkpoint: unsupported checkpoint schema v4 (this build reads v3)"
        );
    }

    #[test]
    fn a_damaged_field_is_blamed_on_the_schema_the_file_claims() {
        // Drop `offered` from the engine of an otherwise valid checkpoint.
        fn without_offered(mut value: serde::Value) -> serde::Value {
            if let serde::Value::Map(entries) = &mut value {
                entries.retain(|(key, _)| key != "offered");
                for (key, inner) in entries.iter_mut() {
                    if key == "engine" {
                        *inner = without_offered(std::mem::replace(inner, serde::Value::Null));
                    }
                }
            }
            value
        }
        let mut engine = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 1);
        engine.offer_chunk(&[syn_ack(1_000_000, 1)]);
        let snapshot = MultiSnapshot {
            version: CHECKPOINT_SCHEMA_VERSION,
            engine: engine.snapshot(),
            cursors: vec![1],
        };
        let missing = "missing field `offered` in struct LiveSnapshot";

        let damaged = without_offered(serde::to_value(&snapshot).unwrap());
        let error =
            parse_checkpoint(&serde_json::to_string(&damaged).unwrap()).expect_err("damaged");
        assert_eq!(error, format!("invalid checkpoint: {missing}"));

        let error = parse_checkpoint(r#"{"version":"2"}"#).expect_err("version is a string");
        assert!(error.contains("`version` must be an integer"), "{error}");
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let error = parse_checkpoint(&open.repeat(1_000_000 / open.len()))
                .expect_err("a megabyte of open brackets");
            assert!(error.contains("nesting deeper than 128"), "{error}");
        }
    }

    #[test]
    fn zero_shard_checkpoints_are_rejected() {
        // Strip the shard list out of an otherwise valid checkpoint.
        fn without_shards(mut value: serde::Value) -> serde::Value {
            if let serde::Value::Map(entries) = &mut value {
                for (key, inner) in entries.iter_mut() {
                    match key.as_str() {
                        "shards" => *inner = serde::Value::Seq(Vec::new()),
                        "engine" => *inner = without_shards(inner.clone()),
                        _ => {}
                    }
                }
            }
            value
        }
        let records = trace(1, 30);
        let parts = splits(&records, 1);
        let set = SourceSet::spawn(factories(&parts), &SourceSetConfig::default());
        let live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), 2, set);
        let snapshot = live.snapshot();

        let hollow = without_shards(serde::to_value(&snapshot).unwrap());
        let error = parse_checkpoint(&serde_json::to_string(&hollow).unwrap())
            .expect_err("zero shards rejected");
        assert!(error.contains("`shards`"), "{error}");

        // A snapshot deserialized around `parse_checkpoint` is stopped
        // at restore.
        let hollow: MultiSnapshot = serde::from_value(hollow).unwrap();
        assert_eq!(hollow.engine.shards(), 0);
        let error =
            MultiSourceLive::restore(&hollow, factories(&parts), &SourceSetConfig::default())
                .expect_err("zero shards rejected");
        assert!(error.contains("`shards`"), "{error}");
    }

    #[test]
    fn counters_a_running_engine_cannot_hold_are_rejected() {
        // Found by `tests/checkpoint_robustness.rs`: one flipped bit in a
        // digit (`0` -> `2`, `1` -> `3`) leaves valid JSON of the right
        // types, and the engine restored from it failed its own
        // `verify_metrics` ("dissect total 2 != quic_false_positives 0",
        // "attack observations 1 != closed alerts 3").
        let mut engine = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 1);
        engine.offer_chunk(&[syn_ack(1_000_000, 1)]);
        let snapshot = MultiSnapshot {
            version: CHECKPOINT_SCHEMA_VERSION,
            engine: engine.snapshot(),
            cursors: vec![1],
        };
        let sound = serde_json::to_string(&snapshot).unwrap();
        parse_checkpoint(&sound).expect("as written");
        for (field, damaged, blamed) in [
            (
                "\"not_quic\":0",
                "\"not_quic\":2",
                "`quic_false_positives` is 0",
            ),
            (
                "\"quic_false_positives\":0",
                "\"quic_false_positives\":2",
                "`quic_false_positives` is 2",
            ),
            ("\"closed\":0", "\"closed\":2", "`closed` counts 2 alert(s)"),
        ] {
            assert!(sound.contains(field), "{field}");
            let error = parse_checkpoint(&sound.replacen(field, damaged, 1)).expect_err(damaged);
            assert!(error.contains(blamed), "{damaged}: {error}");
        }
    }

    #[test]
    fn cursor_count_mismatch_is_rejected() {
        let records = trace(1, 30);
        let parts = splits(&records, 2);
        let set = SourceSet::spawn(factories(&parts), &SourceSetConfig::default());
        let live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), 1, set);
        let snapshot = live.snapshot();
        let one: Vec<Box<dyn SourceFactory>> = vec![Box::new(memory_factory(parts[0].clone()))];
        MultiSourceLive::restore(&snapshot, one, &SourceSetConfig::default())
            .expect_err("2 cursors cannot resume 1 feed");
    }
}
