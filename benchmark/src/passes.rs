//! The untraced end-to-end passes and the correctness checks they feed.
//!
//! Both passes start from the capture bytes held in memory, exactly as
//! `quicsand analyze` and `quicsand live` start from a capture file, and
//! stop the clock after `verify_metrics`. One client, closed loop: the
//! next chunk is offered when the previous one returns.

use crate::workloads::Context;
use bytes::Bytes;
use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_events::{NoopSubscriber, Subscriber};
use quicsand_live::{LiveEngine, LiveEventKind, LiveSnapshot, LiveStats};
use quicsand_net::zerocopy::DEFAULT_BATCH;
use quicsand_net::{Timestamp, ZeroCopyCaptureReader};
use quicsand_sessions::dos::{Attack, AttackProtocol};
use quicsand_telescope::IngestStats;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Correctness checks counted as operations: attempted and failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `message` is only built when it fails.
    pub fn check(&mut self, holds: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(message());
            }
        }
    }

    /// Failed over attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The fields on which a live closed alert must equal a batch attack.
pub type AttackKey = (u64, Ipv4Addr, bool, u64, u64);

fn attack_key(attack: &Attack) -> AttackKey {
    (
        attack.start.as_micros(),
        attack.victim,
        attack.protocol == AttackProtocol::Quic,
        attack.end.as_micros(),
        attack.packet_count,
    )
}

/// The comparison keys of `attacks`, sorted.
pub fn sorted_keys<'a>(attacks: impl Iterator<Item = &'a Attack>) -> Vec<AttackKey> {
    let mut keys: Vec<AttackKey> = attacks.map(attack_key).collect();
    keys.sort_unstable();
    keys
}

/// What one batch pass produced.
#[derive(Debug)]
pub struct AnalyzeOutcome {
    /// Capture bytes to verified analysis, seconds.
    pub wall_s: f64,
    /// Detected attacks, both protocols, sorted.
    pub attacks: Vec<AttackKey>,
    /// Ingest counters.
    pub ingest: IngestStats,
}

/// Capture bytes → `read_to_end` → `Analysis::run` → `verify_metrics`.
pub fn analyze_pass(
    ctx: &mut Context,
    capture: &Bytes,
    threads: usize,
    checks: &mut Checks,
) -> AnalyzeOutcome {
    let config = AnalysisConfig {
        threads,
        guard: ctx.guard,
        ..AnalysisConfig::default()
    };
    crate::host::cold_heap();
    let start = Instant::now();
    let decoded = ZeroCopyCaptureReader::from_bytes(capture.clone())
        .and_then(|mut reader| reader.read_to_end());
    ctx.shell.records = decoded.unwrap_or_default();
    let analysis = Analysis::run(&ctx.shell, &config);
    let verified = analysis.verify_metrics();
    let wall_s = start.elapsed().as_secs_f64();

    checks.check(verified.is_ok(), || {
        format!("analyze verify_metrics: {:?}", verified.as_ref().err())
    });
    let outcome = AnalyzeOutcome {
        wall_s,
        attacks: sorted_keys(analysis.quic_attacks.iter().chain(&analysis.common_attacks)),
        ingest: analysis.ingest.clone(),
    };
    // Free the decoded records here, not inside the next pass's clock.
    ctx.shell.records = Vec::new();
    outcome
}

/// One checkpoint cycle at the half-way mark, split by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointTimes {
    /// `LiveEngine::snapshot`.
    pub snapshot_ms: f64,
    /// `serde_json::to_string`.
    pub serialize_ms: f64,
    /// `serde_json::from_str`.
    pub parse_ms: f64,
    /// `LiveEngine::restore`.
    pub restore_ms: f64,
    /// Serialized size.
    pub bytes: u64,
}

impl CheckpointTimes {
    /// The whole cycle: what `--checkpoint-every` costs per checkpoint.
    pub fn total_ms(&self) -> f64 {
        self.snapshot_ms + self.serialize_ms + self.parse_ms + self.restore_ms
    }
}

/// An alert opening: the input to time-to-detect.
pub type OpenedAlert = (Ipv4Addr, AttackProtocol, Timestamp);

/// What one live pass produced.
#[derive(Debug)]
pub struct LiveOutcome {
    /// Capture bytes to verified, finished engine, seconds; the
    /// checkpoint cycle and the resume replay are clocked out.
    pub wall_s: f64,
    /// The checkpoint cycle (the fastest of its repetitions).
    pub checkpoint: CheckpointTimes,
    /// Wall milliseconds of every `offer_chunk` call.
    pub chunk_ms: Vec<f64>,
    /// Every `Opened` event.
    pub opened: Vec<OpenedAlert>,
    /// Closed attacks, both protocols, sorted.
    pub closed: Vec<AttackKey>,
    /// Ingest counters.
    pub ingest: IngestStats,
    /// Detector counters.
    pub stats: LiveStats,
    /// The engine restored from the half-way checkpoint then fed the
    /// second half closed the same attacks (`None`: not replayed).
    pub resume_equal: Option<bool>,
    /// Series on the engine's metrics registry and the time to render
    /// them as Prometheus text.
    pub registry_series: usize,
    /// See `registry_series`.
    pub render_ms: f64,
}

/// How a live pass is run.
#[derive(Debug, Clone, Copy)]
pub struct LiveOptions {
    /// Detector shards.
    pub shards: usize,
    /// Checkpoint cycles at the half-way mark; the fastest is reported.
    pub checkpoint_reps: u32,
    /// Also replay the second half through the restored engine and
    /// compare what it closed.
    pub check_resume: bool,
}

fn closed_keys(engine: &LiveEngine) -> Vec<AttackKey> {
    let quic = engine.closed_quic();
    let common = engine.closed_common();
    sorted_keys(quic.iter().map(|c| &c.attack).chain(&common))
}

fn checkpoint_cycle(engine: &LiveEngine, reps: u32) -> (CheckpointTimes, Option<LiveEngine>) {
    let mut fastest = CheckpointTimes::default();
    let mut restored = None;
    for rep in 0..reps {
        // Each cycle on a trimmed heap, like each pass: otherwise the
        // later cycles of a sample run on what the earlier ones freed,
        // and the fastest one depends on how many there were (on
        // synack_stream a cycle is 42 ms cold and 21 ms warm).
        crate::host::cold_heap();
        let t0 = Instant::now();
        let snapshot = engine.snapshot();
        let t1 = Instant::now();
        let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
        let t2 = Instant::now();
        let parsed: LiveSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        let t3 = Instant::now();
        restored = Some(LiveEngine::restore(&parsed));
        let t4 = Instant::now();
        let times = CheckpointTimes {
            snapshot_ms: (t1 - t0).as_secs_f64() * 1e3,
            serialize_ms: (t2 - t1).as_secs_f64() * 1e3,
            parse_ms: (t3 - t2).as_secs_f64() * 1e3,
            restore_ms: (t4 - t3).as_secs_f64() * 1e3,
            bytes: json.len() as u64,
        };
        if rep == 0 || times.total_ms() < fastest.total_ms() {
            fastest = times;
        }
    }
    (fastest, restored)
}

/// Capture bytes → `read_batch(4096)` → `LiveEngine::offer_chunk` …
/// `finish` → `verify_metrics`.
pub fn live_pass(
    ctx: &Context,
    capture: &Bytes,
    total_records: u64,
    options: LiveOptions,
    checks: &mut Checks,
) -> LiveOutcome {
    live_pass_with(
        ctx,
        capture,
        total_records,
        options,
        checks,
        &mut NoopSubscriber,
    )
}

/// [`live_pass`] with a typed-event subscriber attached.
pub fn live_pass_with<S: Subscriber>(
    ctx: &Context,
    capture: &Bytes,
    total_records: u64,
    options: LiveOptions,
    checks: &mut Checks,
    subscriber: &mut S,
) -> LiveOutcome {
    let mut chunk_ms = Vec::with_capacity(total_records as usize / DEFAULT_BATCH + 2);
    let mut opened = Vec::new();
    let mut checkpoint = CheckpointTimes::default();
    let mut resumed: Option<LiveEngine> = None;
    let mut checkpointed = options.checkpoint_reps == 0;
    let mut paused_s = 0.0f64;
    let mut decode_ok = true;

    crate::host::cold_heap();
    let start = Instant::now();
    let mut engine = LiveEngine::new(ctx.live, ctx.guard, options.shards);
    let mut reader = ZeroCopyCaptureReader::from_bytes(capture.clone()).ok();
    while let Some(source) = reader.as_mut() {
        let batch = match source.read_batch(DEFAULT_BATCH) {
            Ok(batch) if !batch.is_empty() => batch,
            Ok(_) => break,
            Err(_) => {
                decode_ok = false;
                break;
            }
        };
        let chunk_start = Instant::now();
        let emitted = engine.offer_chunk_with(batch.records(), subscriber);
        chunk_ms.push(chunk_start.elapsed().as_secs_f64() * 1e3);
        opened.extend(
            emitted
                .iter()
                .filter(|e| e.kind == LiveEventKind::Opened)
                .map(|e| (e.victim, e.protocol, e.at)),
        );
        if let Some(shadow) = resumed.as_mut() {
            let pause = Instant::now();
            shadow.offer_chunk(batch.records());
            paused_s += pause.elapsed().as_secs_f64();
        }
        if !checkpointed && engine.offered() * 2 >= total_records {
            checkpointed = true;
            let pause = Instant::now();
            let (times, restored) = checkpoint_cycle(&engine, options.checkpoint_reps);
            checkpoint = times;
            if options.check_resume {
                resumed = restored;
            }
            paused_s += pause.elapsed().as_secs_f64();
        }
    }
    let tail = engine.finish_with(subscriber);
    let verified = engine.verify_metrics();
    let wall_s = start.elapsed().as_secs_f64() - paused_s;

    opened.extend(
        tail.iter()
            .filter(|e| e.kind == LiveEventKind::Opened)
            .map(|e| (e.victim, e.protocol, e.at)),
    );
    checks.check(decode_ok && reader.is_some(), || {
        "live pass: capture failed to decode".to_string()
    });
    checks.check(verified.is_ok(), || {
        format!("live verify_metrics: {:?}", verified.as_ref().err())
    });
    checks.check(engine.offered() == total_records, || {
        format!(
            "live pass offered {} of {total_records} records",
            engine.offered()
        )
    });
    let closed = closed_keys(&engine);
    let resume_equal = resumed.map(|mut resumed| {
        resumed.finish();
        closed_keys(&resumed) == closed
    });
    let render_start = Instant::now();
    let rendered = engine.registry().render_prometheus(false);
    let render_ms = render_start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(rendered);
    LiveOutcome {
        wall_s,
        checkpoint,
        chunk_ms,
        opened,
        closed,
        ingest: engine.ingest_stats(),
        stats: engine.live_stats(),
        resume_equal,
        registry_series: engine.registry().len(),
        render_ms,
    }
}
