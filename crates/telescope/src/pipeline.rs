//! Capture ingestion: port filter, payload dissection, false-positive
//! rejection.
//!
//! Reproduces the paper's two-stage classification (§4.1): the
//! port-based pre-filter selects UDP/443 candidates; the payload
//! dissector (Wireshark stand-in) validates them. Non-QUIC payloads on
//! port 443 are counted and dropped, TCP/ICMP records pass through to
//! the common-protocols baseline.

use quicsand_dissect::{
    classify_record, Classification, Direction, DissectError, DissectedPacket, Extraction,
    MessageKind,
};
use quicsand_events::{
    Event, EventMeta, NoopSubscriber, RetryObserved, Subscriber, VersionNegotiationObserved,
    WireRejected,
};
use quicsand_net::{Duration, PacketRecord, Timestamp, Transport};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::net::Ipv4Addr;

/// One validated QUIC packet observation, carrying what the admit
/// caller chose to extract from its payload ([`Extraction`]): the full
/// [`DissectedPacket`] unless the caller names another type.
#[derive(Debug, Clone, PartialEq)]
pub struct QuicObservation<D = DissectedPacket> {
    /// Capture time.
    pub ts: Timestamp,
    /// Source address (scanner for requests, victim for responses).
    pub src: Ipv4Addr,
    /// Telescope address the packet hit.
    pub dst: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Request (to 443) or response (from 443).
    pub direction: Direction,
    /// The dissected QUIC messages (or, for a caller that extracts
    /// less, only what it extracted).
    pub dissected: D,
}

/// Outcome of streaming one record through
/// [`TelescopePipeline::admit`]: the validated product is handed to
/// the caller instead of being buffered, so an unbounded stream can be
/// processed in constant memory (modulo per-source guard state).
/// `D` is what a QUIC payload's dissection extracts, as in
/// [`QuicObservation`]; `'r` is the borrow of the admitted record.
#[derive(Debug, Clone, PartialEq)]
pub enum Admitted<'r, D = DissectedPacket> {
    /// A validated QUIC packet (request or response).
    Quic(QuicObservation<D>),
    /// A TCP/ICMP record passed through to the common-protocols
    /// baseline: the caller's own record, not a copy — a caller that
    /// keeps it past the slice clones it.
    Baseline(&'r PacketRecord),
    /// Quarantined or out of scope; the reason is counted in
    /// [`IngestStats`].
    Dropped,
}

/// *Why* the ingest pipeline quarantined a record.
///
/// Real IBR contains truncated captures, garbage version fields,
/// replayed and reordered records; the pipeline classifies each
/// rejection so operators (and the fault-injection test harness) can
/// assert *which* defense caught a malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The payload ended before a structurally complete QUIC packet.
    Truncated,
    /// A long header announced a version outside the registry.
    BadVersion(u32),
    /// A connection ID length field exceeded the 20-byte maximum.
    BadCid(usize),
    /// A UDP/443 payload that is structurally not QUIC at all.
    NotQuic,
    /// A zero-length UDP/443 payload.
    EmptyPayload,
    /// Byte-identical to the previous record from the same source.
    Duplicate,
    /// Timestamp moved backwards past the reorder tolerance but within
    /// the clock-skew horizon: late delivery, not a broken clock.
    Reordered {
        /// How far behind the source's watermark the record arrived.
        backwards: Duration,
    },
    /// Timestamp moved backwards past the skew horizon: a clock reset
    /// or forged timestamps; admitting it would corrupt sessionization.
    ClockSkew {
        /// How far behind the source's watermark the record arrived.
        backwards: Duration,
    },
    /// Classification disagreed with the transport (e.g. a QUIC
    /// candidate without a UDP payload — forged capture metadata).
    TransportMismatch,
}

impl IngestError {
    /// Stable label used in reports and CLI summaries.
    pub fn label(&self) -> &'static str {
        match self {
            IngestError::Truncated => "truncated",
            IngestError::BadVersion(_) => "bad-version",
            IngestError::BadCid(_) => "bad-cid",
            IngestError::NotQuic => "not-quic",
            IngestError::EmptyPayload => "empty-payload",
            IngestError::Duplicate => "duplicate",
            IngestError::Reordered { .. } => "reordered",
            IngestError::ClockSkew { .. } => "clock-skew",
            IngestError::TransportMismatch => "transport-mismatch",
        }
    }

    /// Classifies a dissector rejection into the ingest taxonomy.
    pub fn from_dissect(error: &DissectError) -> Self {
        match error {
            DissectError::Empty => IngestError::EmptyPayload,
            DissectError::Truncated(_) => IngestError::Truncated,
            DissectError::BadVersion(v) => IngestError::BadVersion(*v),
            DissectError::BadCid(n) => IngestError::BadCid(*n),
            DissectError::NotQuic(_) => IngestError::NotQuic,
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::BadVersion(v) => write!(f, "bad-version({v:#010x})"),
            IngestError::BadCid(n) => write!(f, "bad-cid({n})"),
            IngestError::Reordered { backwards } => write!(f, "reordered(-{backwards})"),
            IngestError::ClockSkew { backwards } => write!(f, "clock-skew(-{backwards})"),
            other => f.write_str(other.label()),
        }
    }
}

impl std::error::Error for IngestError {}

/// Per-kind quarantine counters (replaces the old `malformed` scalar).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineStats {
    /// Payloads cut short of a complete QUIC packet.
    pub truncated: u64,
    /// Unknown long-header versions.
    pub bad_version: u64,
    /// Connection ID length fields above the maximum.
    pub bad_cid: u64,
    /// Structurally non-QUIC UDP/443 payloads.
    pub not_quic: u64,
    /// Zero-length UDP/443 payloads.
    pub empty_payload: u64,
    /// Per-source byte-identical duplicates.
    pub duplicate: u64,
    /// Backwards timestamps beyond the reorder tolerance.
    pub reordered: u64,
    /// Backwards timestamps beyond the skew horizon.
    pub clock_skew: u64,
    /// Classification/transport disagreements.
    pub transport_mismatch: u64,
}

impl QuarantineStats {
    /// Counts one quarantined record.
    pub fn record(&mut self, error: &IngestError) {
        match error {
            IngestError::Truncated => self.truncated += 1,
            IngestError::BadVersion(_) => self.bad_version += 1,
            IngestError::BadCid(_) => self.bad_cid += 1,
            IngestError::NotQuic => self.not_quic += 1,
            IngestError::EmptyPayload => self.empty_payload += 1,
            IngestError::Duplicate => self.duplicate += 1,
            IngestError::Reordered { .. } => self.reordered += 1,
            IngestError::ClockSkew { .. } => self.clock_skew += 1,
            IngestError::TransportMismatch => self.transport_mismatch += 1,
        }
    }

    /// Total quarantined records across all kinds.
    pub fn total(&self) -> u64 {
        let QuarantineStats {
            truncated,
            bad_version,
            bad_cid,
            not_quic,
            empty_payload,
            duplicate,
            reordered,
            clock_skew,
            transport_mismatch,
        } = *self;
        truncated
            + bad_version
            + bad_cid
            + not_quic
            + empty_payload
            + duplicate
            + reordered
            + clock_skew
            + transport_mismatch
    }

    /// `(label, count)` rows in taxonomy order, for reports and CLI.
    pub fn as_table(&self) -> [(&'static str, u64); 9] {
        [
            ("truncated", self.truncated),
            ("bad-version", self.bad_version),
            ("bad-cid", self.bad_cid),
            ("not-quic", self.not_quic),
            ("empty-payload", self.empty_payload),
            ("duplicate", self.duplicate),
            ("reordered", self.reordered),
            ("clock-skew", self.clock_skew),
            ("transport-mismatch", self.transport_mismatch),
        ]
    }

    /// Field-wise sum.
    pub fn merge(&mut self, other: &QuarantineStats) {
        self.truncated += other.truncated;
        self.bad_version += other.bad_version;
        self.bad_cid += other.bad_cid;
        self.not_quic += other.not_quic;
        self.empty_payload += other.empty_payload;
        self.duplicate += other.duplicate;
        self.reordered += other.reordered;
        self.clock_skew += other.clock_skew;
        self.transport_mismatch += other.transport_mismatch;
    }
}

/// Ingest counters (the telescope's bookkeeping).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Total records offered.
    pub total: u64,
    /// UDP/443 candidates admitted by the port filter.
    pub quic_candidates: u64,
    /// Candidates validated by the dissector.
    pub quic_valid: u64,
    /// Candidates the dissector rejected (port-filter false positives).
    pub quic_false_positives: u64,
    /// TCP records (common-protocol baseline).
    pub tcp: u64,
    /// ICMP records (baseline).
    pub icmp: u64,
    /// UDP records on other ports (out of scope).
    pub other_udp: u64,
    /// Packets with both ports 443 (the paper observed none).
    pub ambiguous: u64,
    /// Per-kind quarantine counters: every record the pipeline dropped
    /// rather than classified, broken down by *why*.
    pub quarantine: QuarantineStats,
}

impl IngestStats {
    /// Rejects counters read from outside the program that a running
    /// pipeline cannot hold: every dissector reject is counted once as a
    /// false positive and once under its kind. The checkpoint reader
    /// rejects a snapshot that breaks this, and the batch and live
    /// `verify_metrics` hold their merged stats to it.
    pub fn require_dissect_rejects_counted(&self) -> Result<(), String> {
        let q = &self.quarantine;
        let by_kind = [
            q.empty_payload,
            q.truncated,
            q.bad_version,
            q.bad_cid,
            q.not_quic,
        ]
        .into_iter()
        .map(u128::from)
        .sum::<u128>();
        if by_kind != u128::from(self.quic_false_positives) {
            return Err(format!(
                "checkpoint field `quic_false_positives` is {}, \
                 but its dissector reject counters add up to {by_kind}",
                self.quic_false_positives
            ));
        }
        Ok(())
    }

    /// Merges another shard's counters into this one (field-wise sum).
    pub fn merge(&mut self, other: &IngestStats) {
        self.total += other.total;
        self.quic_candidates += other.quic_candidates;
        self.quic_valid += other.quic_valid;
        self.quic_false_positives += other.quic_false_positives;
        self.tcp += other.tcp;
        self.icmp += other.icmp;
        self.other_udp += other.other_udp;
        self.ambiguous += other.ambiguous;
        self.quarantine.merge(&other.quarantine);
    }
}

/// Pre-classification guard thresholds: how the pipeline treats
/// per-source timestamp regressions and duplicates before any protocol
/// work happens.
///
/// All state is **per source**, so the guard makes identical decisions
/// whether a capture is ingested sequentially or sharded by
/// `hash(src) % N` — a source's records never span shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Quarantine a record byte-identical to the previous record from
    /// the same source (replayed frames).
    pub dedup: bool,
    /// Backwards timestamp slack tolerated as in-network reordering.
    pub reorder_tolerance: Duration,
    /// Backwards jump beyond which a timestamp is treated as clock
    /// skew rather than reordering.
    pub skew_horizon: Duration,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            dedup: true,
            reorder_tolerance: Duration::from_secs(2),
            skew_horizon: Duration::from_secs(600),
        }
    }
}

/// Per-source guard state: high-water timestamp and last record hash.
#[derive(Debug, Clone, Copy)]
struct SourceGuard {
    max_ts: Timestamp,
    last_hash: u64,
}

/// One source's guard state in a [`PipelineSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardEntry {
    /// The source address.
    pub src: Ipv4Addr,
    /// High-water timestamp seen from this source.
    pub max_ts: Timestamp,
    /// [`record_hash`] fingerprint of the last record from this source.
    pub last_hash: u64,
}

/// Serializable checkpoint of the pipeline's streaming state: per-source
/// guard watermarks/duplicate hashes plus the ingest counters.
///
/// The accumulated batch products (`quic_observations`,
/// `baseline_records`) are deliberately *not* part of the snapshot — the
/// snapshot exists for the streaming path ([`TelescopePipeline::admit`]),
/// where records are handed to the caller instead of buffered and those
/// vectors stay empty. Entries are sorted by source so identical state
/// always serializes identically. The guard thresholds are not part of
/// it: the owner of the pipelines holds them once, for all of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineSnapshot {
    /// Per-source guard state, sorted by source address.
    pub guards: Vec<GuardEntry>,
    /// Ingest counters at checkpoint time.
    pub stats: IngestStats,
}

/// Wall-clock telemetry for the pipeline stages, surfaced by
/// `quicsand analyze --verbose` / `quicsand live --verbose`.
///
/// Timings vary run to run, so this struct is deliberately *not* part
/// of the deterministic analysis products (reports never include it).
/// The batch path fills `sanitize_ms`; the live path runs detection
/// incrementally and fills `sessionize_ms`/`detect_ms` with the
/// detector-offer and final-flush times instead.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Worker threads (batch) or shards (live) actually used.
    pub threads: usize,
    /// Records ingested.
    pub records: u64,
    /// Ingest stage (guard + classify + dissect) wall time, ms. In the
    /// parallel path this is the slowest shard (critical path), each
    /// shard's time summed over every slice it was offered. In batch
    /// mode it includes sanitizing and sessionizing every packet that
    /// can be as it is admitted, which happens inside the admit loop.
    pub ingest_ms: f64,
    /// Sanitize stage wall time, ms. In batch mode: the end-of-stream
    /// pass over the packets of education sources that stayed below the
    /// research thresholds. Zero in live mode.
    pub sanitize_ms: f64,
    /// Sessionization wall time, ms. In batch mode: the end-of-stream
    /// flush of every sessionizer — the offers are in `ingest_ms` and
    /// `sanitize_ms`. In live mode: time spent in incremental detector
    /// offers (sessionize + threshold checks).
    pub sessionize_ms: f64,
    /// DoS inference + multi-vector correlation wall time, ms. In live
    /// mode: the end-of-stream flush (expiry + final correlation).
    pub detect_ms: f64,
    /// Sum of the sessionizers'/detectors' open-state high-water marks —
    /// an upper bound on simultaneously held per-source state, the
    /// quantity the watermark expiry (batch) or LRU cap (live) bounds.
    pub peak_open_sessions: usize,
    /// Records the ingest guard + dissector quarantined, all kinds
    /// summed (the per-kind breakdown lives in
    /// [`IngestStats::quarantine`]).
    pub quarantined: u64,
}

impl PipelineStats {
    /// Ingest throughput in records per second.
    pub fn ingest_records_per_sec(&self) -> f64 {
        if self.ingest_ms <= 0.0 {
            0.0
        } else {
            self.records as f64 / (self.ingest_ms / 1_000.0)
        }
    }

    /// Merges another shard's timings: per-stage maxima (the critical
    /// path under parallel execution) and summed peak open state.
    pub fn max_stage(&mut self, other: &PipelineStats) {
        self.ingest_ms = self.ingest_ms.max(other.ingest_ms);
        self.sanitize_ms = self.sanitize_ms.max(other.sanitize_ms);
        self.sessionize_ms = self.sessionize_ms.max(other.sessionize_ms);
        self.detect_ms = self.detect_ms.max(other.detect_ms);
        self.peak_open_sessions += other.peak_open_sessions;
    }

    /// One-line per-stage walltime summary (the `--verbose` line). In
    /// batch mode `ingest` contains the TCP/ICMP channel's sessionization
    /// and `sessionize` covers the two QUIC channels only (see the
    /// fields).
    pub fn stage_summary(&self) -> String {
        format!(
            "stages: ingest {:.1}ms / sanitize {:.1}ms / sessionize {:.1}ms / detect {:.1}ms",
            self.ingest_ms, self.sanitize_ms, self.sessionize_ms, self.detect_ms
        )
    }
}

/// Multiply-fold constants for [`record_hash`] (the two 64-bit primes
/// popularized by wyhash; any pair of odd constants with good bit
/// dispersion would do).
const HASH_C1: u64 = 0xa076_1d64_78bd_642f;
const HASH_C2: u64 = 0xe703_7ed1_a0b4_28db;

/// Folds two words through a 64×64→128-bit multiply, the core mixing
/// step of the record fingerprint.
#[inline]
fn hash_mix(a: u64, b: u64) -> u64 {
    let r = u128::from(a ^ HASH_C1) * u128::from(b ^ HASH_C2);
    (r >> 64) as u64 ^ r as u64
}

/// Build-hasher for the per-source guard map: one folded multiply over
/// the address bytes instead of the std SipHash, since the map is probed
/// once per ingested record. The map is keyed by attacker-chosen source
/// addresses, so the multiply starts from a secret drawn once per map
/// from std's [`RandomState`]: without it, a spoofer could pick addresses
/// that share a bucket chain (HashDoS). The secret never reaches a
/// snapshot, which lists guards sorted by source.
#[derive(Clone, Copy, Debug)]
struct SourceMapHasherBuilder(u64);

impl Default for SourceMapHasherBuilder {
    fn default() -> Self {
        SourceMapHasherBuilder(RandomState::new().hash_one(0u64))
    }
}

/// Hasher state for [`SourceMapHasherBuilder`].
#[derive(Clone)]
struct SourceMapHasher(u64);

impl std::hash::Hasher for SourceMapHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut lane = 0u64;
        for (i, &b) in bytes.iter().enumerate() {
            lane |= u64::from(b) << (8 * (i & 7));
        }
        self.0 = hash_mix(self.0 ^ bytes.len() as u64, lane);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::hash::BuildHasher for SourceMapHasherBuilder {
    type Hasher = SourceMapHasher;
    fn build_hasher(&self) -> SourceMapHasher {
        SourceMapHasher(self.0)
    }
}

/// Platform-independent fingerprint of a record (timestamp, addresses,
/// transport and payload). Used for per-source duplicate detection; two
/// records collide only if byte-identical (up to hash collisions, which
/// only ever *under*-count duplicates of faults the injector
/// deliberately made byte-identical).
///
/// The mixing function is a wyhash-style folded multiply over 8-byte
/// little-endian lanes rather than byte-at-a-time FNV-1a: this hash runs
/// once per record on the ingest hot path, where FNV's one multiply per
/// *byte* was the single largest cost. A UDP payload goes through four
/// independent lanes per 32-byte block, folded at the end, so a
/// 1200-byte Initial is 38 overlapping rounds of multiplies instead of a
/// chain of 150. The value is an internal fingerprint only — it feeds
/// dedup decisions and checkpoint round-trips, never golden artifacts —
/// so the function can change as long as it stays deterministic across
/// platforms. It last changed with the four-lane payload fold: a
/// checkpoint written by an older build resumes correctly, but its stored
/// `last_hash` values no longer match, so one duplicate per source can
/// slip through at the seam.
#[inline]
pub fn record_hash(record: &PacketRecord) -> u64 {
    // Fixed-layout prefix: timestamp, addresses, transport tag + ports
    // packed into two words.
    let ts = record.ts.as_micros();
    let src = u64::from(u32::from_be_bytes(record.src.octets()));
    let dst = u64::from(u32::from_be_bytes(record.dst.octets()));
    let mut hash = hash_mix(ts, src << 32 | dst);
    match &record.transport {
        Transport::Udp {
            src_port,
            dst_port,
            payload,
        } => {
            hash = hash_mix(
                hash,
                0x11 << 32 | u64::from(*src_port) << 16 | u64::from(*dst_port),
            );
            let bytes = payload.as_ref();
            // 32-byte blocks go through four independent lanes, so the
            // multiplies of one block overlap instead of queueing behind
            // each other; the lanes start apart and are folded in order.
            let mut lanes = [hash, !hash, hash.rotate_left(21), hash.rotate_left(42)];
            let mut blocks = bytes.chunks_exact(32);
            for block in &mut blocks {
                for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                    *lane = hash_mix(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
                }
            }
            hash = hash_mix(hash_mix(lanes[0], lanes[1]), hash_mix(lanes[2], lanes[3]));
            let mut chunks = blocks.remainder().chunks_exact(8);
            for chunk in &mut chunks {
                let lane = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                hash = hash_mix(hash, lane);
            }
            let mut last = 0u64;
            for (i, &b) in chunks.remainder().iter().enumerate() {
                last |= u64::from(b) << (8 * i);
            }
            // Mix the length so prefixes of zero bytes don't collide.
            hash = hash_mix(hash ^ bytes.len() as u64, last);
        }
        Transport::Tcp {
            src_port,
            dst_port,
            flags,
        } => {
            let bits = u64::from(
                u8::from(flags.syn)
                    | u8::from(flags.ack) << 1
                    | u8::from(flags.rst) << 2
                    | u8::from(flags.fin) << 3,
            );
            hash = hash_mix(
                hash,
                0x06 << 40 | bits << 32 | u64::from(*src_port) << 16 | u64::from(*dst_port),
            );
        }
        Transport::Icmp { kind } => {
            let code = match kind {
                quicsand_net::IcmpKind::EchoRequest => 8u64,
                quicsand_net::IcmpKind::EchoReply => 0,
                quicsand_net::IcmpKind::DestUnreachable => 3,
                quicsand_net::IcmpKind::TtlExceeded => 11,
            };
            hash = hash_mix(hash, 0x01 << 40 | code << 32);
        }
    }
    hash
}

/// The telescope pipeline. Feed records in capture order; collect
/// QUIC observations and pass-through baseline records.
#[derive(Debug, Default)]
pub struct TelescopePipeline {
    guard: GuardConfig,
    guards: HashMap<Ipv4Addr, SourceGuard, SourceMapHasherBuilder>,
    stats: IngestStats,
    quic: Vec<QuicObservation>,
    baseline: Vec<PacketRecord>,
}

impl TelescopePipeline {
    /// Creates an empty pipeline with the default [`GuardConfig`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty pipeline with explicit guard thresholds.
    pub fn with_guard(guard: GuardConfig) -> Self {
        TelescopePipeline {
            guard,
            ..Self::default()
        }
    }

    /// Creates a pipeline resuming from a streaming checkpoint under the
    /// `guard` thresholds it was taken with: guard state and counters are
    /// restored, batch buffers start empty (see [`PipelineSnapshot`]). A
    /// restored pipeline makes the exact same admit/quarantine decisions
    /// on the remaining stream as the original would have.
    pub fn restore(guard: GuardConfig, snapshot: &PipelineSnapshot) -> Self {
        TelescopePipeline {
            guard,
            guards: snapshot
                .guards
                .iter()
                .map(|e| {
                    (
                        e.src,
                        SourceGuard {
                            max_ts: e.max_ts,
                            last_hash: e.last_hash,
                        },
                    )
                })
                .collect(),
            stats: snapshot.stats.clone(),
            quic: Vec::new(),
            baseline: Vec::new(),
        }
    }

    /// Checkpoints the streaming state (per-source guard watermarks,
    /// counters). See [`PipelineSnapshot`] for what is and
    /// is not captured.
    pub fn snapshot(&self) -> PipelineSnapshot {
        let mut guards: Vec<GuardEntry> = self
            .guards
            .iter()
            .map(|(src, g)| GuardEntry {
                src: *src,
                max_ts: g.max_ts,
                last_hash: g.last_hash,
            })
            .collect();
        guards.sort_unstable_by_key(|e| e.src);
        PipelineSnapshot {
            guards,
            stats: self.stats.clone(),
        }
    }

    /// Ingests one record.
    pub fn ingest(&mut self, record: &PacketRecord) {
        self.ingest_classified(record, classify_record(record));
    }

    /// Streams one record through the guard + classifier and hands the
    /// admitted product back to the caller instead of buffering it —
    /// the live engine's entry point, sharing every guard/quarantine
    /// decision with the batch path. Counters advance identically to
    /// [`ingest`](Self::ingest); only the destination of the admitted
    /// record differs.
    pub fn admit<'r>(&mut self, record: &'r PacketRecord) -> Admitted<'r> {
        self.admit_with(record, &EventMeta::lifecycle(), &mut NoopSubscriber)
    }

    /// Runs the pre-classification guard: duplicate suppression and
    /// per-source backwards-timestamp checks. Guard state advances
    /// *unconditionally* (even for quarantined records), so the
    /// decision sequence for a source depends only on that source's
    /// record stream — the invariant behind N-shard ≡ 1-shard.
    ///
    /// `#[inline]` (with [`record_hash`]): every sharded caller reaches
    /// this through the generic `admit_with`, which is instantiated in
    /// *their* crate — without the hint the guard is an out-of-line
    /// cross-crate call per record there, inlined only in this crate's
    /// own `admit`.
    #[inline]
    fn guard_check(&mut self, record: &PacketRecord) -> Result<(), IngestError> {
        let hash = record_hash(record);
        match self.guards.entry(record.src) {
            Entry::Vacant(slot) => {
                slot.insert(SourceGuard {
                    max_ts: record.ts,
                    last_hash: hash,
                });
                Ok(())
            }
            Entry::Occupied(mut slot) => {
                let state = slot.get_mut();
                let duplicate = self.guard.dedup && state.last_hash == hash;
                let backwards = state.max_ts.saturating_since(record.ts);
                if record.ts > state.max_ts {
                    state.max_ts = record.ts;
                }
                state.last_hash = hash;
                if duplicate {
                    Err(IngestError::Duplicate)
                } else if backwards.as_micros() > self.guard.skew_horizon.as_micros() {
                    Err(IngestError::ClockSkew { backwards })
                } else if backwards.as_micros() > self.guard.reorder_tolerance.as_micros() {
                    Err(IngestError::Reordered { backwards })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Ingests one record under an externally supplied classification.
    ///
    /// This is the panic-free buffering wrapper of
    /// [`admit_classified_with`](Self::admit_classified_with): guard
    /// rejections (duplicates, backwards timestamps) and dissection
    /// failures are counted per kind in [`IngestStats::quarantine`] and
    /// dropped rather than crashing the whole run.
    pub fn ingest_classified(&mut self, record: &PacketRecord, classification: Classification) {
        let admitted = self.admit_classified_with(
            record,
            classification,
            &EventMeta::lifecycle(),
            &mut NoopSubscriber,
        );
        match admitted {
            Admitted::Quic(obs) => self.quic.push(obs),
            Admitted::Baseline(record) => self.baseline.push(record.clone()),
            Admitted::Dropped => {}
        }
    }

    /// [`admit`](Self::admit) with typed-event emission and the
    /// extraction `D` of the caller's choosing: quarantine decisions
    /// surface as `wire_rejected`, dissected Retry / Version Negotiation
    /// packets as their observation events. With [`NoopSubscriber`] and
    /// [`DissectedPacket`] this monomorphizes to exactly
    /// [`admit`](Self::admit) — the subscriber-free hot path carries no
    /// event code.
    pub fn admit_with<'r, D: Extraction, S: Subscriber>(
        &mut self,
        record: &'r PacketRecord,
        meta: &EventMeta,
        subscriber: &mut S,
    ) -> Admitted<'r, D> {
        self.admit_classified_with(record, classify_record(record), meta, subscriber)
    }

    /// The shared core behind [`admit_with`] and
    /// [`ingest_classified`]: guard → classification → dissection, with
    /// every quarantine and Retry/VN sighting mirrored to `subscriber`.
    ///
    /// A QUIC candidate's payload becomes a `D` ([`Extraction`]): every
    /// extraction accepts and rejects the same payloads, so the counters,
    /// the quarantine decisions and the emitted events are the same
    /// whatever `D` the caller picks — only what the admitted product
    /// carries differs.
    ///
    /// [`admit_with`]: Self::admit_with
    /// [`ingest_classified`]: Self::ingest_classified
    pub fn admit_classified_with<'r, D: Extraction, S: Subscriber>(
        &mut self,
        record: &'r PacketRecord,
        classification: Classification,
        meta: &EventMeta,
        subscriber: &mut S,
    ) -> Admitted<'r, D> {
        self.stats.total += 1;
        match self.admit_step(record, classification, meta, subscriber) {
            Ok(admitted) => admitted,
            Err(error) => {
                self.stats.quarantine.record(&error);
                if subscriber.enabled() {
                    let event = WireRejected {
                        at: record.ts,
                        reason: error.label().to_string(),
                    };
                    subscriber.on(*meta, Event::WireRejected(event));
                }
                Admitted::Dropped
            }
        }
    }

    /// One record through guard → classification → dissection; a
    /// quarantine decision is the `Err`, recorded and announced by the
    /// caller in one place.
    #[inline]
    fn admit_step<'r, D: Extraction, S: Subscriber>(
        &mut self,
        record: &'r PacketRecord,
        classification: Classification,
        meta: &EventMeta,
        subscriber: &mut S,
    ) -> Result<Admitted<'r, D>, IngestError> {
        self.guard_check(record)?;
        match classification {
            Classification::QuicCandidate(direction) => {
                self.stats.quic_candidates += 1;
                let (Some(payload), Some(src_port), Some(dst_port)) = (
                    record.udp_payload(),
                    record.transport.src_port(),
                    record.transport.dst_port(),
                ) else {
                    // Classification disagrees with the transport:
                    // degrade gracefully instead of panicking.
                    return Err(IngestError::TransportMismatch);
                };
                let dissected = D::extract(payload).map_err(|error| {
                    // Every dissector rejection remains a port-filter
                    // false positive (the paper's §4.1 scalar); the
                    // quarantine taxonomy is the finer breakdown.
                    self.stats.quic_false_positives += 1;
                    IngestError::from_dissect(&error)
                })?;
                self.stats.quic_valid += 1;
                if subscriber.enabled() {
                    let kinds = dissected.kinds();
                    let (at, src, dst) = (record.ts, record.src, record.dst);
                    if kinds.contains(MessageKind::Retry) {
                        let event = RetryObserved { at, src, dst };
                        subscriber.on(*meta, Event::RetryObserved(event));
                    }
                    if kinds.contains(MessageKind::VersionNegotiation) {
                        let event = VersionNegotiationObserved { at, src, dst };
                        subscriber.on(*meta, Event::VersionNegotiationObserved(event));
                    }
                }
                Ok(Admitted::Quic(QuicObservation {
                    ts: record.ts,
                    src: record.src,
                    dst: record.dst,
                    src_port,
                    dst_port,
                    direction,
                    dissected,
                }))
            }
            Classification::Tcp => {
                self.stats.tcp += 1;
                Ok(Admitted::Baseline(record))
            }
            Classification::Icmp => {
                self.stats.icmp += 1;
                Ok(Admitted::Baseline(record))
            }
            Classification::OtherUdp => {
                self.stats.other_udp += 1;
                Ok(Admitted::Dropped)
            }
            Classification::AmbiguousBothPorts => {
                self.stats.ambiguous += 1;
                Ok(Admitted::Dropped)
            }
        }
    }

    /// Ingests a whole capture.
    pub fn ingest_all<'a, I: IntoIterator<Item = &'a PacketRecord>>(&mut self, records: I) {
        for record in records {
            self.ingest(record);
        }
    }

    /// The counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// The validated QUIC observations, in capture order.
    pub fn quic_observations(&self) -> &[QuicObservation] {
        &self.quic
    }

    /// TCP/ICMP baseline records, in capture order.
    pub fn baseline_records(&self) -> &[PacketRecord] {
        &self.baseline
    }

    /// Consumes the pipeline, returning observations and baseline.
    pub fn finish(self) -> (Vec<QuicObservation>, Vec<PacketRecord>, IngestStats) {
        (self.quic, self.baseline, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use quicsand_net::{IcmpKind, TcpFlags};
    use quicsand_traffic::research::research_probe_payload;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, last)
    }

    fn quic_record(ts: u64) -> PacketRecord {
        PacketRecord::udp(
            Timestamp::from_secs(ts),
            ip(1),
            ip(2),
            40_000,
            443,
            research_probe_payload(ts),
        )
    }

    #[test]
    fn valid_quic_admitted() {
        let mut p = TelescopePipeline::new();
        p.ingest(&quic_record(1));
        assert_eq!(p.stats().quic_candidates, 1);
        assert_eq!(p.stats().quic_valid, 1);
        assert_eq!(p.stats().quic_false_positives, 0);
        let obs = &p.quic_observations()[0];
        assert_eq!(obs.direction, Direction::Request);
        assert_eq!(obs.dst_port, 443);
        assert!(!obs.dissected.messages.is_empty());
    }

    #[test]
    fn garbage_on_443_counted_as_false_positive() {
        let mut p = TelescopePipeline::new();
        p.ingest(&PacketRecord::udp(
            Timestamp::from_secs(1),
            ip(1),
            ip(2),
            40_000,
            443,
            Bytes::from_static(&[0x12, 0x34, 0x00]),
        ));
        assert_eq!(p.stats().quic_candidates, 1);
        assert_eq!(p.stats().quic_valid, 0);
        assert_eq!(p.stats().quic_false_positives, 1);
        assert!(p.quic_observations().is_empty());
    }

    #[test]
    fn baseline_passthrough() {
        let mut p = TelescopePipeline::new();
        p.ingest(&PacketRecord::tcp(
            Timestamp::from_secs(1),
            ip(1),
            ip(2),
            443,
            5000,
            TcpFlags::SYN_ACK,
        ));
        p.ingest(&PacketRecord::icmp(
            Timestamp::from_secs(2),
            ip(1),
            ip(2),
            IcmpKind::EchoReply,
        ));
        assert_eq!(p.stats().tcp, 1);
        assert_eq!(p.stats().icmp, 1);
        assert_eq!(p.baseline_records().len(), 2);
        assert!(p.quic_observations().is_empty());
    }

    #[test]
    fn other_udp_dropped() {
        let mut p = TelescopePipeline::new();
        p.ingest(&PacketRecord::udp(
            Timestamp::from_secs(1),
            ip(1),
            ip(2),
            53,
            53,
            Bytes::from_static(b"dns"),
        ));
        assert_eq!(p.stats().other_udp, 1);
        assert_eq!(p.stats().quic_candidates, 0);
    }

    #[test]
    fn ingest_all_and_finish() {
        let mut p = TelescopePipeline::new();
        let records = vec![quic_record(1), quic_record(2)];
        p.ingest_all(&records);
        let (quic, baseline, stats) = p.finish();
        assert_eq!(quic.len(), 2);
        assert!(baseline.is_empty());
        assert_eq!(stats.total, 2);
    }

    #[test]
    fn batched_ingest_is_equivalent_to_record_at_a_time() {
        let records = vec![quic_record(1), quic_record(2), quic_record(3)];
        let mut streamed = TelescopePipeline::new();
        streamed.ingest_all(&records);
        let mut batched = TelescopePipeline::new();
        for batch in records.chunks(2) {
            batched.ingest_all(batch);
        }
        assert_eq!(batched.stats(), streamed.stats());
        assert_eq!(batched.finish().0, streamed.finish().0);
    }

    #[test]
    fn forged_quic_classification_on_non_udp_record_is_quarantined_not_panic() {
        // A corrupt capture can mislabel a record: here an ICMP record
        // arrives with a QUIC-candidate classification. The pipeline
        // must quarantine it as a transport mismatch and keep going —
        // the seed version panicked on `udp_payload().expect(..)`.
        let mut p = TelescopePipeline::new();
        let icmp = PacketRecord::icmp(Timestamp::from_secs(1), ip(1), ip(2), IcmpKind::EchoReply);
        p.ingest_classified(&icmp, Classification::QuicCandidate(Direction::Request));
        assert_eq!(p.stats().total, 1);
        assert_eq!(p.stats().quic_candidates, 1);
        assert_eq!(p.stats().quarantine.transport_mismatch, 1);
        assert_eq!(p.stats().quarantine.total(), 1);
        assert_eq!(p.stats().quic_valid, 0);
        assert_eq!(p.stats().quic_false_positives, 0);
        assert!(p.quic_observations().is_empty());

        // A well-formed record afterwards is still processed normally.
        p.ingest(&quic_record(2));
        assert_eq!(p.stats().quic_valid, 1);
        assert_eq!(p.quic_observations().len(), 1);
    }

    #[test]
    fn ingest_stats_merge_sums_fields() {
        let mut a = IngestStats {
            total: 3,
            quic_candidates: 2,
            quic_valid: 1,
            quic_false_positives: 1,
            tcp: 1,
            ..IngestStats::default()
        };
        let b = IngestStats {
            total: 4,
            icmp: 2,
            other_udp: 1,
            ambiguous: 1,
            quarantine: QuarantineStats {
                truncated: 1,
                duplicate: 2,
                ..QuarantineStats::default()
            },
            ..IngestStats::default()
        };
        a.merge(&b);
        assert_eq!(a.total, 7);
        assert_eq!(a.quic_candidates, 2);
        assert_eq!(a.icmp, 2);
        assert_eq!(a.quarantine.truncated, 1);
        assert_eq!(a.quarantine.duplicate, 2);
        assert_eq!(a.quarantine.total(), 3);
    }

    #[test]
    fn duplicate_record_quarantined_per_source() {
        let mut p = TelescopePipeline::new();
        let record = quic_record(1);
        p.ingest(&record);
        p.ingest(&record); // byte-identical replay
        assert_eq!(p.stats().quarantine.duplicate, 1);
        assert_eq!(p.stats().quic_valid, 1);
        // A different source sending the same bytes is NOT a duplicate.
        let mut other = record.clone();
        other.src = ip(77);
        p.ingest(&other);
        assert_eq!(p.stats().quarantine.duplicate, 1);
        assert_eq!(p.stats().quic_valid, 2);
    }

    #[test]
    fn dedup_can_be_disabled() {
        let mut p = TelescopePipeline::with_guard(GuardConfig {
            dedup: false,
            ..GuardConfig::default()
        });
        let record = quic_record(1);
        p.ingest(&record);
        p.ingest(&record);
        assert_eq!(p.stats().quarantine.duplicate, 0);
        assert_eq!(p.stats().quic_valid, 2);
    }

    #[test]
    fn backwards_timestamps_reordered_vs_clock_skew() {
        let guard = GuardConfig::default();
        let mut p = TelescopePipeline::new();
        p.ingest(&quic_record(1_000));
        // Within tolerance: admitted.
        p.ingest(&quic_record(999));
        assert_eq!(p.stats().quarantine.total(), 0);
        assert_eq!(p.stats().quic_valid, 2);
        // Past tolerance, within horizon: reordered.
        p.ingest(&quic_record(1_000 - guard.reorder_tolerance.as_secs() - 1));
        assert_eq!(p.stats().quarantine.reordered, 1);
        // Past the horizon: clock skew.
        p.ingest(&quic_record(1_000 - guard.skew_horizon.as_secs() - 1));
        assert_eq!(p.stats().quarantine.clock_skew, 1);
        // The watermark did not move backwards: a fresh in-order record
        // is still admitted.
        p.ingest(&quic_record(1_001));
        assert_eq!(p.stats().quic_valid, 3);
        assert_eq!(p.stats().quarantine.total(), 2);
    }

    #[test]
    fn quarantined_dissect_failures_count_as_false_positives_too() {
        let mut p = TelescopePipeline::new();
        // Empty UDP/443 payload.
        p.ingest(&PacketRecord::udp(
            Timestamp::from_secs(1),
            ip(1),
            ip(2),
            40_000,
            443,
            Bytes::new(),
        ));
        assert_eq!(p.stats().quarantine.empty_payload, 1);
        assert_eq!(p.stats().quic_false_positives, 1);
    }

    #[test]
    fn ingest_error_labels_are_stable() {
        assert_eq!(IngestError::Truncated.label(), "truncated");
        assert_eq!(IngestError::BadVersion(7).label(), "bad-version");
        assert_eq!(IngestError::TransportMismatch.label(), "transport-mismatch");
        let table = QuarantineStats::default().as_table();
        assert_eq!(table.len(), 9);
        assert_eq!(table[0].0, "truncated");
        assert_eq!(format!("{}", IngestError::BadCid(21)), "bad-cid(21)");
    }

    #[test]
    fn guard_map_hash_is_keyed_per_pipeline_and_snapshots_do_not_show_it() {
        let (mut a, mut b) = (TelescopePipeline::new(), TelescopePipeline::new());
        let src = Ipv4Addr::new(198, 51, 100, 7);
        assert_ne!(
            a.guards.hasher().hash_one(src),
            b.guards.hasher().hash_one(src)
        );
        // The same records into both maps, bucketed differently: the
        // snapshots serialize to the same bytes, guards sorted by source.
        for i in 0..1_000u32 {
            let record = PacketRecord::tcp(
                Timestamp::from_secs(u64::from(i)),
                Ipv4Addr::from(0x0b00_0000 | i.wrapping_mul(0x9E_37_79) & 0x00FF_FFFF),
                ip(2),
                443,
                5_000,
                TcpFlags::SYN_ACK,
            );
            a.ingest(&record);
            b.ingest(&record);
        }
        let snapshot = a.snapshot();
        assert!(snapshot.guards.windows(2).all(|w| w[0].src < w[1].src));
        assert_eq!(
            serde_json::to_string(&snapshot).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap()
        );
    }

    #[test]
    fn record_hash_distinguishes_fields() {
        let a = quic_record(1);
        assert_eq!(record_hash(&a), record_hash(&a.clone()));
        assert_ne!(record_hash(&a), record_hash(&quic_record(2)));
        let mut b = a.clone();
        b.dst = ip(200);
        assert_ne!(record_hash(&a), record_hash(&b));
    }

    #[test]
    fn response_direction_detected() {
        let mut p = TelescopePipeline::new();
        // A response: source port 443. Use a server-style payload.
        let mut builder = quicsand_traffic::backscatter::BackscatterBuilder::new(
            quicsand_intel::Provider::Google,
            quicsand_wire::Version::Draft29.to_wire(),
            7,
        );
        let response = builder.respond();
        p.ingest(&PacketRecord::udp(
            Timestamp::from_secs(1),
            ip(9),
            ip(2),
            443,
            5555,
            response.datagrams[0].clone(),
        ));
        let obs = &p.quic_observations()[0];
        assert_eq!(obs.direction, Direction::Response);
        assert!(!obs.dissected.messages[0].has_client_hello);
    }
}
