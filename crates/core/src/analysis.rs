//! The end-to-end measurement pipeline (§4 + §5.1/§5.2 mechanics).
//!
//! The pipeline is a streaming fold: an [`AnalysisDriver`] takes the
//! capture as any sequence of record slices ([`AnalysisDriver::offer`])
//! and [`AnalysisDriver::finish`] turns what it kept into an
//! [`Analysis`]. State persists between slices, records do not:
//!
//! 1. **Ingest** — port filter + dissection ([`quicsand_telescope`]),
//!    inside `offer`. An admitted TCP/ICMP record goes straight from the
//!    admit loop into its shard's baseline sessionizer and is gone; an
//!    admitted QUIC observation goes on to stages 2–3 in the same loop.
//! 2. **Sanitize** — behavioural research-scanner detection corroborated
//!    with the AS database; research traffic is split off (Fig. 2). Only
//!    a source in an education network can be flagged, and the AS
//!    database is there from the start, so any other source's packets
//!    are sanitized traffic from its first one. An education source's
//!    packets are held until it crosses both thresholds — a research
//!    scanner from then on, its packets counted and dropped — or the
//!    stream ends below them, when `finish` sanitizes what it held.
//! 3. **Sessionize** — QUIC requests and responses separately, 5-minute
//!    timeout (Fig. 4 default), as each sanitized packet arrives; every
//!    response session carries an [`AttackTally`] the packet is folded
//!    into, kept only if the session closes as an attack. The TCP/ICMP
//!    channel was already sessionized in stage 1.
//! 4. **Infer DoS** — Moore et al. thresholds on response sessions
//!    (QUIC) and on TCP/ICMP baseline sessions, applied by each
//!    sessionizer as a session closes: it keeps the [`Attack`] the
//!    session qualified as ([`DosThresholds::attack`], the mapping
//!    `detect_attacks` uses too), and `finish` merges what was kept.
//! 5. **Correlate** — multi-vector classification of QUIC floods
//!    against common floods.
//!
//! Stages 1–3 run per source shard through
//! [`quicsand_telescope::parallel`] (`scatter` each slice over
//! `config.threads` persistent shards, `admit_each` inside a shard);
//! stages 4–5 run once on the merged products. What a run holds is
//! per-source, per-session and per-attack state plus one `(ts, src)`
//! arrival per sanitized QUIC packet (Fig. 4's input), never the packets
//! themselves — bar those of education sources still below the research
//! thresholds. How the capture is cut into slices changes no product:
//! [`Analysis::run`] is the driver fed one slice, the CLI feeds it
//! `read_batch` chunks.
//!
//! Every intermediate product is a public field so experiments (and
//! downstream users) can compute whatever the paper did not.

use crate::metrics::AnalysisMetrics;
use quicsand_dissect::stats::VictimResourceStats;
use quicsand_dissect::{Direction, MessageKinds, MessageMixStats};
use quicsand_events::{Event, EventMeta, NoopSubscriber, SessionMigrated, Subscriber};
use quicsand_intel::{AsDatabase, NetworkType};
use quicsand_net::{Duration, PacketRecord, Timestamp};
use quicsand_obs::MetricsRegistry;
use quicsand_sessions::dos::{Attack, AttackProtocol, DosThresholds};
use quicsand_sessions::multivector::{classify_multivector_with, MultiVectorReport, VectorSignals};
use quicsand_sessions::session::{
    link_migrations, MigrationLink, Session, SessionConfig, Sessionizer, SessionizerCounters, Tally,
};
use quicsand_telescope::parallel::{admit_each, scatter, ShardRecords};
pub use quicsand_telescope::PipelineStats;
use quicsand_telescope::{
    Admitted, GuardConfig, HourlySeries, IngestStats, QuicObservation, TelescopePipeline,
};
use quicsand_traffic::Scenario;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// Default worker count: one shard per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pipeline parameters (the paper's §4.1 choices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Sessionization timeout (paper: 5 minutes, the Fig. 4 knee).
    pub session_timeout: Duration,
    /// DoS thresholds (paper: Moore et al. defaults).
    pub thresholds: DosThresholds,
    /// Behavioural research-scanner detection: minimum request packets.
    pub research_min_packets: u64,
    /// Behavioural research-scanner detection: minimum unique targets.
    pub research_min_dsts: u64,
    /// Worker threads for the sharded ingest→sessionize stages.
    /// `1` runs the one shard inline on the caller's thread; any value
    /// produces byte-identical analysis products (the shard merge is
    /// deterministic), so this only affects wall-clock time.
    pub threads: usize,
    /// Pre-classification ingest guard: duplicate suppression and
    /// backwards-timestamp quarantine thresholds. Per-source, so the
    /// guard's decisions are also thread-count-invariant.
    pub guard: GuardConfig,
}

impl AnalysisConfig {
    fn session(&self) -> SessionConfig {
        SessionConfig {
            timeout: self.session_timeout,
            // Late packets admitted by the ingest guard lag at most its
            // reorder tolerance behind the watermark; the sessionizer's
            // deferred expiry must cover exactly that.
            skew_tolerance: self.guard.reorder_tolerance,
        }
    }
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            session_timeout: Duration::from_mins(5),
            thresholds: DosThresholds::moore(),
            research_min_packets: 500,
            research_min_dsts: 400,
            threads: default_threads(),
            guard: GuardConfig::default(),
        }
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1_000.0
}

/// Deterministic session order at any thread count: `(start, src)` is
/// unique per sessionizer (one source has at most one session starting
/// at a given instant).
fn sort_sessions(sessions: &mut [Session]) {
    sessions.sort_by_key(|s| (s.start, s.src));
}

/// What the analysis keeps of one QUIC flood's backscatter: the Fig. 9
/// resource proxies, the §6 message mix and the versions announced.
/// Every open response session carries one, each of its packets folded
/// in as it arrives; it is kept only if the session closes as an attack.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttackTally {
    /// Packets, spoofed client addresses and ports, server SCIDs.
    pub resources: VictimResourceStats,
    /// Messages per kind and Initials carrying a Client Hello.
    pub messages: MessageMixStats,
    /// Datagrams per QUIC version (a datagram's first long-header
    /// version), in first-seen order.
    pub versions: Vec<(u32, u64)>,
}

impl AttackTally {
    /// Folds one backscatter datagram in. Allocates only when the
    /// session sees a client address, port, SCID or version it had not
    /// seen before, never per packet.
    pub fn add(&mut self, obs: &QuicObservation) {
        self.resources.add(&obs.dissected, obs.dst, obs.dst_port);
        self.messages.add(&obs.dissected);
        if let Some(version) = obs.dissected.version() {
            match self.versions.iter_mut().find(|(v, _)| *v == version) {
                Some((_, count)) => *count += 1,
                None => self.versions.push((version, 1)),
            }
        }
    }
}

/// All pipeline products.
#[derive(Debug)]
pub struct Analysis {
    /// Ingest counters.
    pub ingest: IngestStats,
    /// Identified research scanner sources.
    pub research_sources: HashSet<Ipv4Addr>,
    /// Hourly packet counts: research scanners (Fig. 2).
    pub research_hourly: HourlySeries,
    /// Hourly packet counts: sanitized requests (Fig. 3).
    pub request_hourly: HourlySeries,
    /// Hourly packet counts: sanitized responses (Fig. 3).
    pub response_hourly: HourlySeries,
    /// Research packet total (before sanitization).
    pub research_packets: u64,
    /// Sanitized request packets.
    pub request_packets: u64,
    /// Sanitized response packets.
    pub response_packets: u64,
    /// Sanitized responses whose long headers all carry a zero-length
    /// DCID — the §5.2 backscatter validity check (Fig. 9).
    pub empty_dcid_responses: u64,
    /// Sources of sanitized responses that carried a Retry.
    pub retry_victims: HashSet<Ipv4Addr>,
    /// `(ts, src)` of every sanitized packet, requests and responses,
    /// sorted: the Fig. 4 timeout sweep's input.
    pub arrivals: Vec<(Timestamp, Ipv4Addr)>,
    /// Request sessions (after CID-keyed migration linking: a flow that
    /// changed source address mid-session is one session here).
    pub request_sessions: Vec<Session>,
    /// Mid-flow address changes re-joined by the migration link pass.
    pub migrations: Vec<MigrationLink>,
    /// Response sessions.
    pub response_sessions: Vec<Session>,
    /// Detected QUIC floods.
    pub quic_attacks: Vec<Attack>,
    /// What each QUIC flood's packets added up to, index-aligned with
    /// [`Analysis::quic_attacks`].
    pub attack_tallies: Vec<AttackTally>,
    /// TCP/ICMP baseline sessions.
    pub common_sessions: Vec<Session>,
    /// Detected TCP/ICMP floods.
    pub common_attacks: Vec<Attack>,
    /// Multi-vector correlation.
    pub multivector: MultiVectorReport,
    /// Wall-clock/memory telemetry (non-deterministic; not part of any
    /// report).
    pub stats: PipelineStats,
    /// The configuration used.
    pub config: AnalysisConfig,
    /// The per-run metric registry every counter below is registered
    /// on; render it with
    /// [`render_prometheus`](quicsand_obs::MetricsRegistry::render_prometheus)
    /// or [`render_json`](quicsand_obs::MetricsRegistry::render_json).
    pub registry: Arc<MetricsRegistry>,
    /// Handles to the published metric families (published from the
    /// products above; [`Analysis::verify_metrics`] checks the
    /// identities between independently counted ones).
    pub metrics: AnalysisMetrics,
}

/// The sanitized QUIC traffic of a shard, counted packet by packet.
#[derive(Default)]
struct Sanitized {
    request_hourly: HourlySeries,
    response_hourly: HourlySeries,
    request_packets: u64,
    response_packets: u64,
    empty_dcid_responses: u64,
    retry_victims: HashSet<Ipv4Addr>,
    /// In admit order; sorted once, after the shards merge.
    arrivals: Vec<(Timestamp, Ipv4Addr)>,
}

impl Sanitized {
    /// Counts one sanitized packet and hands it to its channel's
    /// sessionizer.
    fn fold(&mut self, obs: &QuicObservation, channels: &mut Channels) {
        self.arrivals.push((obs.ts, obs.src));
        match obs.direction {
            Direction::Request => {
                self.request_hourly.add(obs.ts);
                self.request_packets += 1;
                let key = obs.dissected.client_cid_key();
                channels.requests.offer_keyed(obs.ts, obs.src, key);
            }
            Direction::Response => {
                self.response_hourly.add(obs.ts);
                self.response_packets += 1;
                self.empty_dcid_responses += u64::from(obs.dissected.all_dcids_empty());
                if obs.dissected.has_retry() {
                    self.retry_victims.insert(obs.src);
                }
                let tally = |tally: &mut AttackTally| tally.add(obs);
                channels.responses.offer_tallied(obs.ts, obs.src, tally);
            }
        }
    }

    /// Adds another shard's counts.
    fn absorb(&mut self, other: Sanitized) {
        self.request_hourly.merge(&other.request_hourly);
        self.response_hourly.merge(&other.response_hourly);
        self.request_packets += other.request_packets;
        self.response_packets += other.response_packets;
        self.empty_dcid_responses += other.empty_dcid_responses;
        self.retry_victims.extend(other.retry_victims);
        self.arrivals.extend(other.arrivals);
    }
}

/// The two sanitized QUIC channels' sessionizers: requests keyed by the
/// client's connection ID, responses tallied per attack.
struct Channels {
    requests: Sessionizer,
    responses: Sessionizer<AttackTally>,
}

impl Channels {
    fn new(config: &AnalysisConfig) -> Self {
        Channels {
            requests: Sessionizer::new(config.session()),
            responses: Sessionizer::tallying(
                config.session(),
                config.thresholds,
                AttackProtocol::Quic,
            ),
        }
    }
}

/// What a shard knows of a QUIC source's origin, resolved from the AS
/// database once, at the source's first packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Outside every education network: never a research scanner.
    Other,
    /// An education network still below the research thresholds: its
    /// packets wait in [`QuicFold::candidates`].
    Candidate,
    /// A research scanner.
    Research,
}

/// An education source the research filter could still flag.
#[derive(Default)]
struct Candidate {
    /// Distinct destinations, counted up to `research_min_dsts + 1`.
    dsts: HashSet<Ipv4Addr>,
    /// Every packet so far, with its stream position.
    packets: Vec<(u64, QuicObservation)>,
}

/// The research scanners of a shard and their traffic (Fig. 2).
#[derive(Default)]
struct Research {
    sources: HashSet<Ipv4Addr>,
    hourly: HourlySeries,
    packets: u64,
}

impl Research {
    fn count(&mut self, ts: Timestamp) {
        self.hourly.add(ts);
        self.packets += 1;
    }

    /// Adds another shard's.
    fn absorb(&mut self, other: Research) {
        self.sources.extend(other.sources);
        self.hourly.merge(&other.hourly);
        self.packets += other.packets;
    }
}

/// Stages 2–3 of one shard's QUIC traffic, folded in the admit loop.
struct QuicFold {
    origins: HashMap<Ipv4Addr, Origin>,
    candidates: HashMap<Ipv4Addr, Candidate>,
    research: Research,
    sanitized: Sanitized,
    channels: Channels,
}

impl QuicFold {
    fn new(config: &AnalysisConfig) -> Self {
        QuicFold {
            origins: HashMap::new(),
            candidates: HashMap::new(),
            research: Research::default(),
            sanitized: Sanitized::default(),
            channels: Channels::new(config),
        }
    }

    /// Sanitizes, sessionizes and tallies one admitted observation, or
    /// holds it while its source could still turn out a research
    /// scanner. `position` is its place in the stream.
    fn admit(
        &mut self,
        position: u64,
        obs: QuicObservation,
        asdb: &AsDatabase,
        config: &AnalysisConfig,
    ) {
        let origin =
            *self
                .origins
                .entry(obs.src)
                .or_insert_with(|| match asdb.network_type(obs.src) {
                    NetworkType::Education => Origin::Candidate,
                    _ => Origin::Other,
                });
        match origin {
            Origin::Other => self.sanitized.fold(&obs, &mut self.channels),
            Origin::Research => self.research.count(obs.ts),
            Origin::Candidate => self.hold(position, obs, config),
        }
    }

    /// Holds a candidate's packet. The moment the source has sent more
    /// than `research_min_packets` packets to more than
    /// `research_min_dsts` destinations it is a research scanner for
    /// good — both measures only grow — and what it held is counted as
    /// research traffic and dropped.
    fn hold(&mut self, position: u64, obs: QuicObservation, config: &AnalysisConfig) {
        let src = obs.src;
        let candidate = self.candidates.entry(src).or_default();
        if candidate.dsts.len() as u64 <= config.research_min_dsts {
            candidate.dsts.insert(obs.dst);
        }
        candidate.packets.push((position, obs));
        if candidate.packets.len() as u64 > config.research_min_packets
            && candidate.dsts.len() as u64 > config.research_min_dsts
        {
            let held = self.candidates.remove(&src).expect("held above").packets;
            for (_, obs) in &held {
                self.research.count(obs.ts);
            }
            self.research.sources.insert(src);
            self.origins.insert(src, Origin::Research);
        }
    }
}

/// Stages 1–3 of one shard — or, after [`ShardProducts::absorb`], of
/// several.
struct ShardProducts {
    ingest: IngestStats,
    research: Research,
    sanitized: Sanitized,
    request_sessions: Vec<Session>,
    response_sessions: Vec<Session>,
    attack_tallies: Vec<Tally<AttackTally>>,
    common_sessions: Vec<Session>,
    common_attacks: Vec<Attack>,
    /// Stage walltimes: one shard's, or the slowest shard's per stage.
    stats: PipelineStats,
    /// Sessionizer lifecycle counters, summed over every sessionizer
    /// (read *before* `finish()`, which consumes the sessionizer).
    session_counters: SessionizerCounters,
    /// Sessions still open when the end-of-run flush ran (the flush
    /// closes them; `SessionMetrics::add_final` accounts for that).
    sessions_open_at_flush: u64,
}

impl ShardProducts {
    /// Folds another shard in: counters and series are commutative
    /// sums, lists concatenate (the caller orders them afterwards).
    fn absorb(mut self, shard: ShardProducts) -> ShardProducts {
        self.ingest.merge(&shard.ingest);
        self.research.absorb(shard.research);
        self.sanitized.absorb(shard.sanitized);
        self.request_sessions.extend(shard.request_sessions);
        self.response_sessions.extend(shard.response_sessions);
        self.attack_tallies.extend(shard.attack_tallies);
        self.common_sessions.extend(shard.common_sessions);
        self.common_attacks.extend(shard.common_attacks);
        self.stats.max_stage(&shard.stats);
        self.session_counters.merge(&shard.session_counters);
        self.sessions_open_at_flush += shard.sessions_open_at_flush;
        self
    }
}

/// One source shard's state, alive from the first
/// [`AnalysisDriver::offer`] to [`AnalysisDriver::finish`].
///
/// Guard state lives inside the shard's pipeline; because shards
/// partition records *by source*, the guard, the research detection and
/// the sessionizers each see exactly the per-source record sequence an
/// unsharded, unsliced run sees.
struct Shard {
    pipeline: TelescopePipeline,
    /// The TCP/ICMP baseline channel, fed from inside the admit loop;
    /// it keeps the attacks its sessions close as.
    common: Sessionizer,
    /// The QUIC channels, fed from inside the admit loop.
    quic: QuicFold,
    /// Admit-loop wall time, summed over every `offer`.
    ingest_ms: f64,
}

impl Shard {
    /// Stages 1–3 over this shard's part of one offered slice. `base` is
    /// the stream position of the slice's first record.
    fn admit(
        &mut self,
        part: ShardRecords<'_>,
        base: u64,
        asdb: &AsDatabase,
        config: &AnalysisConfig,
    ) {
        let start = Instant::now();
        let (common, quic) = (&mut self.common, &mut self.quic);
        admit_each(
            &mut self.pipeline,
            part,
            base,
            &mut NoopSubscriber,
            |index, product, _, _| match product {
                Admitted::Quic(obs) => quic.admit(base + index as u64, obs, asdb, config),
                Admitted::Baseline(record) => common.offer(record.ts, record.src),
                Admitted::Dropped => {}
            },
        );
        self.ingest_ms += ms(start);
    }

    /// Ends the shard's stream: sanitizes what its education sources
    /// below the research thresholds still hold, then closes every
    /// session.
    fn finish(self, config: &AnalysisConfig) -> ShardProducts {
        let mut stats = PipelineStats {
            ingest_ms: self.ingest_ms,
            ..PipelineStats::default()
        };
        let (_, _, ingest) = self.pipeline.finish();
        let QuicFold {
            candidates,
            research,
            mut sanitized,
            channels,
            ..
        } = self.quic;

        // 2. Sanitize the held packets, in stream order, through a
        // sessionizer pair of their own. Sessions are per source, and
        // these sources sent nothing else, so the sessions are the ones
        // a single pair would have built — for the reason sharding by
        // source is exact.
        let sanitize_start = Instant::now();
        let mut held: Vec<(u64, QuicObservation)> = candidates
            .into_values()
            .flat_map(|candidate| candidate.packets)
            .collect();
        held.sort_unstable_by_key(|(position, _)| *position);
        let mut late = Channels::new(config);
        for (_, obs) in held {
            sanitized.fold(&obs, &mut late);
        }
        stats.sanitize_ms = ms(sanitize_start);

        // 3. Close this shard's sessions.
        let sessionize_start = Instant::now();
        let mut lifecycle = Lifecycle::default();
        for pair in [&channels, &late] {
            lifecycle.add(&pair.requests);
            lifecycle.add(&pair.responses);
        }
        lifecycle.add(&self.common);
        let mut request_sessions = channels.requests.finish();
        request_sessions.extend(late.requests.finish());
        let (mut response_sessions, mut attack_tallies) = channels.responses.finish_tallied();
        let (late_sessions, late_tallies) = late.responses.finish_tallied();
        response_sessions.extend(late_sessions);
        attack_tallies.extend(late_tallies);
        let (common_sessions, common_attacks) = self.common.finish_tallied();
        stats.sessionize_ms = ms(sessionize_start);
        stats.peak_open_sessions = lifecycle.peak_open;

        ShardProducts {
            ingest,
            research,
            sanitized,
            request_sessions,
            response_sessions,
            attack_tallies,
            common_sessions,
            common_attacks: common_attacks.into_iter().map(|kept| kept.attack).collect(),
            stats,
            session_counters: lifecycle.counters,
            sessions_open_at_flush: lifecycle.open,
        }
    }
}

/// Lifecycle counters, still-open sessions and open-session peaks,
/// summed over sessionizers — read before `finish()` consumes them.
#[derive(Default)]
struct Lifecycle {
    counters: SessionizerCounters,
    open: u64,
    peak_open: usize,
}

impl Lifecycle {
    fn add<T: Default>(&mut self, sessionizer: &Sessionizer<T>) {
        self.counters.merge(&sessionizer.counters());
        self.open += sessionizer.open_count() as u64;
        self.peak_open += sessionizer.peak_open_count();
    }
}

/// The batch pipeline as a streaming fold over record slices: per-shard
/// state persists from one [`offer`](Self::offer) to the next, the
/// records do not. [`finish`](Self::finish) yields the [`Analysis`].
///
/// Stages 1–3 are sharded by `hash(src) % config.threads` (one shard
/// runs inline, more on scoped worker threads); the merge is
/// deterministic, so every analysis product is byte-identical at any
/// thread count and however the capture is cut into slices (only
/// [`Analysis::stats`] differs).
pub struct AnalysisDriver<'a> {
    asdb: &'a AsDatabase,
    config: AnalysisConfig,
    shards: Vec<Shard>,
    /// Records offered so far: the stream position of the next slice's
    /// first record.
    offered: u64,
}

impl<'a> AnalysisDriver<'a> {
    /// An empty run: `config.threads` shards, nothing offered. `asdb`
    /// tells which sources are in education networks, the only ones a
    /// research scanner is accepted from.
    pub fn new(asdb: &'a AsDatabase, config: &AnalysisConfig) -> Self {
        let shards = (0..config.threads.max(1))
            .map(|_| Shard {
                pipeline: TelescopePipeline::with_guard(config.guard),
                common: Sessionizer::tallying(
                    config.session(),
                    config.thresholds,
                    AttackProtocol::TcpIcmp,
                ),
                quic: QuicFold::new(config),
                ingest_ms: 0.0,
            })
            .collect();
        AnalysisDriver {
            asdb,
            config: *config,
            shards,
            offered: 0,
        }
    }

    /// Ingests the next slice of the capture (stages 1–3 on every
    /// shard).
    pub fn offer(&mut self, records: &[PacketRecord]) {
        let base = self.offered;
        self.offered += records.len() as u64;
        let (asdb, config) = (self.asdb, &self.config);
        scatter(records, &mut self.shards, |shard, part| {
            shard.admit(part, base, asdb, config)
        });
    }

    /// Ends the stream: each shard's end of stages 2–3 (each on its own
    /// worker), then the merge and stages 4–5.
    pub fn finish(self) -> Analysis {
        let (config, threads) = (self.config, self.shards.len());
        // An empty slice makes `scatter` the bare fan-out; each slot is
        // visited once and gives its shard up by value.
        let mut slots: Vec<Option<Shard>> = self.shards.into_iter().map(Some).collect();
        let shards = scatter(&[], &mut slots, |slot, _| {
            let shard = slot.take().expect("scatter visits each shard once");
            shard.finish(&config)
        });
        // One `PipelineStats` per shard so the stage-walltime histograms
        // get one observation per shard per run, however many slices
        // were offered.
        let shard_stats: Vec<PipelineStats> = shards.iter().map(|s| s.stats.clone()).collect();
        let mut front = shards
            .into_iter()
            .reduce(ShardProducts::absorb)
            .expect("scatter returns one result per shard, and there is at least one");
        // `(ts, src)` pairs that compare equal are equal: no tie to break.
        front.sanitized.arrivals.sort_unstable();

        // Deterministic session order regardless of close order or
        // shard interleaving.
        sort_sessions(&mut front.request_sessions);
        sort_sessions(&mut front.response_sessions);
        sort_sessions(&mut front.common_sessions);
        front
            .attack_tallies
            .sort_by_key(|t| (t.attack.start, t.attack.victim));
        front.common_attacks.sort_by_key(|a| (a.start, a.victim));
        let (ingest, mut stats) = (front.ingest, front.stats);

        // 3b. CID-keyed migration linking on the merged request
        // sessions. Running after the cross-shard merge keeps the pass
        // shard-invariant even though a migrating flow's addresses can
        // land in different shards.
        let migrations = link_migrations(&mut front.request_sessions, config.session_timeout);

        // 4. DoS inference: each sessionizer kept the attacks its
        // sessions closed as, in `(start, victim)` order now.
        let detect_start = Instant::now();
        let (quic_attacks, attack_tallies): (Vec<Attack>, Vec<AttackTally>) = front
            .attack_tallies
            .into_iter()
            .map(|kept| (kept.attack, kept.tally))
            .unzip();

        // 5. Multi-vector correlation, fed the packet-level vector
        // evidence: Retry backscatter per victim and the endpoints of
        // every migration link.
        let mut signals = VectorSignals::empty();
        for victim in &front.sanitized.retry_victims {
            signals.record_retry(*victim);
        }
        for link in &migrations {
            signals.record_migration(link.from);
            signals.record_migration(link.to);
        }
        let multivector = classify_multivector_with(&quic_attacks, &front.common_attacks, &signals);
        stats.detect_ms = ms(detect_start);
        stats.threads = threads;
        stats.records = ingest.total;
        stats.quarantined = ingest.quarantine.total();

        // Publish everything into a fresh per-run registry at this
        // single-threaded tail: counters catch up to the merged stats,
        // so they equal them by construction at any thread count.
        let registry = MetricsRegistry::new();
        let metrics = AnalysisMetrics::register(&registry);
        metrics.ingest.publish(&ingest);
        metrics
            .sessions
            .add_final(front.session_counters, front.sessions_open_at_flush);
        metrics.sessions.migrated_total.add(migrations.len() as u64);
        metrics.dos.observe_attacks(&quic_attacks);
        metrics.dos.observe_attacks(&front.common_attacks);
        for shard in &shard_stats {
            metrics.stages.observe_frontend(shard);
        }
        metrics.stages.observe_detect(stats.detect_ms);
        metrics.stages.set_totals(&stats);

        let (research, sanitized) = (front.research, front.sanitized);
        Analysis {
            ingest,
            research_sources: research.sources,
            research_hourly: research.hourly,
            request_hourly: sanitized.request_hourly,
            response_hourly: sanitized.response_hourly,
            research_packets: research.packets,
            request_packets: sanitized.request_packets,
            response_packets: sanitized.response_packets,
            empty_dcid_responses: sanitized.empty_dcid_responses,
            retry_victims: sanitized.retry_victims,
            arrivals: sanitized.arrivals,
            request_sessions: front.request_sessions,
            migrations,
            response_sessions: front.response_sessions,
            quic_attacks,
            attack_tallies,
            common_sessions: front.common_sessions,
            common_attacks: front.common_attacks,
            multivector,
            stats,
            config,
            registry,
            metrics,
        }
    }
}

/// The forensic event re-pass ([`Analysis::event_replay`]), fed the
/// capture again in any slicing once the analysis is there: a fresh
/// guard+dissect pipeline replays the capture record by record (each
/// event tagged with its stream position), and the admitted
/// flood-relevant streams drive event-emitting sessionizers. It reads
/// only a QUIC record's direction and message kinds, so payloads are
/// checked ([`MessageKinds`]), not dissected again. Research
/// scanners are excluded using the already computed
/// [`Analysis::research_sources`], so the sessions traced here are
/// exactly the `response_sessions` / `common_sessions` the detector
/// consumed. Single-threaded by construction — never the sharded
/// workers — so the stream is byte-identical at every `config.threads`.
pub struct EventReplay<'a> {
    analysis: &'a Analysis,
    pipeline: TelescopePipeline,
    responses: Sessionizer,
    commons: Sessionizer,
    offered: u64,
}

impl EventReplay<'_> {
    /// Replays the next slice of the capture the analysis was run on.
    pub fn offer<S: Subscriber>(&mut self, records: &[PacketRecord], subscriber: &mut S) {
        let base = self.offered;
        self.offered += records.len() as u64;
        let (analysis, responses, commons) =
            (self.analysis, &mut self.responses, &mut self.commons);
        admit_each(
            &mut self.pipeline,
            ShardRecords::whole(records),
            base,
            subscriber,
            |_, product: Admitted<MessageKinds>, meta, subscriber| match product {
                Admitted::Quic(obs) => {
                    if obs.direction == Direction::Response
                        && !analysis.research_sources.contains(&obs.src)
                    {
                        responses.offer_keyed_with(obs.ts, obs.src, None, "quic", meta, subscriber);
                    }
                }
                Admitted::Baseline(rec) => {
                    commons.offer_keyed_with(rec.ts, rec.src, None, "tcp_icmp", meta, subscriber);
                }
                Admitted::Dropped => {}
            },
        );
    }

    /// Ends the replay: flushes the still-open sessions, then mirrors
    /// each migration link — a deterministic post-pass product of the
    /// batch run (the request channel is not re-sessionized here) — as a
    /// typed lifecycle event.
    pub fn finish<S: Subscriber>(self, subscriber: &mut S) {
        let meta = EventMeta::lifecycle();
        self.responses.finish_with("quic", &meta, subscriber);
        self.commons.finish_with("tcp_icmp", &meta, subscriber);
        for link in &self.analysis.migrations {
            let event = SessionMigrated {
                at: link.at,
                from: link.from,
                to: link.to,
                channel: "quic_request".to_string(),
                cid_key: link.cid_key,
                gap: link.gap,
            };
            subscriber.on(meta, Event::SessionMigrated(event));
        }
    }
}

impl Analysis {
    /// Runs the complete pipeline on a scenario: an [`AnalysisDriver`]
    /// fed the whole capture as one slice.
    pub fn run(scenario: &Scenario, config: &AnalysisConfig) -> Analysis {
        let mut driver = AnalysisDriver::new(&scenario.world.asdb, config);
        driver.offer(&scenario.records);
        driver.finish()
    }

    /// Starts the forensic event re-pass over the capture this analysis
    /// was run on: the run mirrored as a typed event stream — per-record
    /// wire rejections and Retry/VN sightings plus the session lifecycle
    /// of the flood-relevant channels (`quic` responses and the
    /// `tcp_icmp` baseline).
    pub fn event_replay(&self) -> EventReplay<'_> {
        EventReplay {
            analysis: self,
            pipeline: TelescopePipeline::with_guard(self.config.guard),
            responses: Sessionizer::new(self.config.session()),
            commons: Sessionizer::new(self.config.session()),
            offered: 0,
        }
    }

    /// Checks the identities between quantities the run counts
    /// independently of each other: every dissector reject in
    /// [`Analysis::ingest`] is counted under its kind, and the
    /// sessionizers' lifecycle counters match the session lists. Every
    /// other series is published straight from the product it mirrors.
    /// Returns the mismatch list on failure. Holds at any thread count.
    pub fn verify_metrics(&self) -> Result<(), Vec<String>> {
        let mut errors: Vec<String> = self
            .ingest
            .require_dissect_rejects_counted()
            .err()
            .into_iter()
            .collect();
        // Each migration link folded two closed sessions into one, so
        // the sessionizer lifecycle counters exceed the final session
        // count by exactly the migration count.
        let listed = (self.request_sessions.len()
            + self.response_sessions.len()
            + self.common_sessions.len()
            + self.migrations.len()) as u64;
        let sessions = &self.metrics.sessions;
        for (name, counter) in [
            ("sessions_opened", &sessions.opened_total),
            ("sessions_closed", &sessions.closed_total),
        ] {
            if counter.get() != listed {
                errors.push(format!(
                    "{name}: counter {} != listed sessions + migrations {listed}",
                    counter.get()
                ));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Distinct flood victims.
    pub fn victims(&self) -> HashSet<Ipv4Addr> {
        self.quic_attacks.iter().map(|a| a.victim).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_sessions::dos::detect_attacks;
    use quicsand_traffic::ScenarioConfig;
    use std::sync::OnceLock;

    /// The test scenario is expensive enough to share across tests.
    fn analysis() -> &'static (Scenario, Analysis) {
        static CELL: OnceLock<(Scenario, Analysis)> = OnceLock::new();
        CELL.get_or_init(|| {
            let scenario = Scenario::generate(&ScenarioConfig::test());
            let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
            (scenario, analysis)
        })
    }

    #[test]
    fn research_scanners_identified_exactly() {
        let (scenario, a) = analysis();
        let expected: HashSet<Ipv4Addr> = scenario
            .world
            .research_scanners()
            .iter()
            .map(|s| s.addr)
            .collect();
        assert_eq!(a.research_sources, expected);
        // All research packets (and only those) split off.
        assert_eq!(a.research_packets, scenario.truth.research_packets);
    }

    #[test]
    fn sanitized_directions_match_truth() {
        let (scenario, a) = analysis();
        // Garbage packets fail dissection, so sanitized counts equal
        // truth counts exactly.
        assert_eq!(a.request_packets, scenario.truth.request_packets);
        assert_eq!(a.response_packets, scenario.truth.response_packets);
        assert_eq!(
            a.arrivals.len() as u64,
            a.request_packets + a.response_packets
        );
        assert!(a.arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            a.ingest.quic_false_positives,
            scenario.truth.garbage_packets
        );
    }

    #[test]
    fn detected_attacks_match_planted_victims() {
        let (scenario, a) = analysis();
        assert!(!a.quic_attacks.is_empty());
        let planted: HashSet<Ipv4Addr> = scenario.truth.plan.victims.iter().copied().collect();
        for attack in &a.quic_attacks {
            assert!(
                planted.contains(&attack.victim),
                "detected victim {} was not planted",
                attack.victim
            );
        }
        // Detection recall: most planted attacks qualify.
        let detected = a.quic_attacks.len() as f64;
        let planted_count = scenario.truth.plan.quic.len() as f64;
        assert!(
            detected / planted_count > 0.6,
            "recall {detected}/{planted_count}"
        );
    }

    #[test]
    fn attack_windows_align_with_plan() {
        let (scenario, a) = analysis();
        // Every detected attack must be coverable by a planted window
        // (within the session timeout of slack).
        for attack in &a.quic_attacks {
            let matched = scenario.truth.plan.quic.iter().any(|p| {
                p.victim == attack.victim
                    && attack.start.as_secs() + 30 >= p.start_secs
                    && attack.end.as_secs() <= p.start_secs + p.duration_secs + 330
            });
            assert!(
                matched,
                "attack on {} at {} unmatched",
                attack.victim, attack.start
            );
        }
    }

    #[test]
    fn common_attacks_detected() {
        let (_, a) = analysis();
        assert!(!a.common_attacks.is_empty());
        assert!(!a.common_sessions.is_empty());
        // Durations of common floods exceed QUIC floods in the median
        // (Fig. 7 shape) — allow slack at the tiny test scale.
        let median = |attacks: &[Attack]| {
            let mut d: Vec<u64> = attacks.iter().map(|x| x.duration().as_secs()).collect();
            d.sort_unstable();
            d[d.len() / 2]
        };
        assert!(median(&a.common_attacks) > median(&a.quic_attacks));
    }

    #[test]
    fn multivector_report_covers_all_attacks() {
        let (_, a) = analysis();
        assert_eq!(a.multivector.attacks.len(), a.quic_attacks.len());
        let total: usize = a.multivector.class_counts.values().sum();
        assert_eq!(total, a.quic_attacks.len());
    }

    #[test]
    fn kept_attacks_equal_a_threshold_pass_over_the_sessions() {
        let (_, a) = analysis();
        let thresholds = &a.config.thresholds;
        let quic = detect_attacks(&a.response_sessions, AttackProtocol::Quic, thresholds);
        let common = detect_attacks(&a.common_sessions, AttackProtocol::TcpIcmp, thresholds);
        assert!(!quic.is_empty() && !common.is_empty());
        assert_eq!(a.quic_attacks, quic);
        assert_eq!(a.common_attacks, common);
        assert_eq!(a.attack_tallies.len(), quic.len());
    }

    #[test]
    fn attack_tallies_are_scoped() {
        let (_, a) = analysis();
        assert_eq!(a.attack_tallies.len(), a.quic_attacks.len());
        for (attack, tally) in a.quic_attacks.iter().zip(&a.attack_tallies) {
            assert_eq!(tally.resources.packets, attack.packet_count);
            let versioned: u64 = tally.versions.iter().map(|(_, n)| n).sum();
            assert!(versioned > 0 && versioned <= attack.packet_count);
            assert!(tally.messages.total >= attack.packet_count);
        }
    }

    #[test]
    fn thread_count_does_not_change_any_product() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let run_with = |threads: usize| {
            Analysis::run(
                &scenario,
                &AnalysisConfig {
                    threads,
                    ..AnalysisConfig::default()
                },
            )
        };
        let sequential = run_with(1);
        sequential
            .verify_metrics()
            .expect("sequential metrics reconcile");
        for threads in [2usize, 3, 8] {
            let parallel = run_with(threads);
            parallel
                .verify_metrics()
                .unwrap_or_else(|e| panic!("{threads}-thread metrics diverged: {e:?}"));
            assert_eq!(parallel.ingest, sequential.ingest, "{threads} threads");
            assert_eq!(parallel.research_sources, sequential.research_sources);
            assert_eq!(parallel.research_hourly, sequential.research_hourly);
            assert_eq!(parallel.request_hourly, sequential.request_hourly);
            assert_eq!(parallel.response_hourly, sequential.response_hourly);
            assert_eq!(parallel.research_packets, sequential.research_packets);
            assert_eq!(parallel.request_packets, sequential.request_packets);
            assert_eq!(parallel.response_packets, sequential.response_packets);
            assert_eq!(
                parallel.empty_dcid_responses,
                sequential.empty_dcid_responses
            );
            assert_eq!(parallel.retry_victims, sequential.retry_victims);
            assert_eq!(parallel.arrivals, sequential.arrivals);
            assert_eq!(parallel.attack_tallies, sequential.attack_tallies);
            assert_eq!(parallel.request_sessions, sequential.request_sessions);
            assert_eq!(parallel.response_sessions, sequential.response_sessions);
            assert_eq!(parallel.common_sessions, sequential.common_sessions);
            assert_eq!(parallel.quic_attacks, sequential.quic_attacks);
            assert_eq!(parallel.common_attacks, sequential.common_attacks);
            assert_eq!(
                parallel.multivector.class_counts,
                sequential.multivector.class_counts
            );
            assert_eq!(parallel.stats.threads, threads);
        }
    }

    /// ~6 300 records, small enough to offer one at a time on eight
    /// shards: a QUIC flood with a concurrent TCP flood on the same
    /// victim, an ICMP flood, a research scanner and a commercial one,
    /// background SYN-ACKs whose sessions open and close all along the
    /// timeline (so every slice boundary cuts through open sessions),
    /// every 11th record doubled and one timestamp far in the past.
    fn sliced_capture() -> Vec<PacketRecord> {
        use quicsand_intel::Provider;
        use quicsand_net::{IcmpKind, TcpFlags, Timestamp};
        use quicsand_traffic::backscatter::BackscatterBuilder;
        use quicsand_traffic::research::research_probe_payload;
        use quicsand_wire::Version;

        let at = |millis: u64| Timestamp::from_micros(millis * 1_000);
        let sink = |i: u64| Ipv4Addr::new(128, (i >> 8) as u8, i as u8, 9);
        let victim = Ipv4Addr::new(142, 250, 0, 1);
        let mut backscatter = BackscatterBuilder::new(Provider::Google, Version::V1.to_wire(), 5);
        let mut records = Vec::new();
        for i in 0..300 {
            let payload = backscatter.respond().datagrams[0].clone();
            let ts = at(100_000 + i * 500);
            records.push(PacketRecord::udp(ts, victim, sink(i), 443, 40_000, payload));
        }
        for i in 0..400 {
            let ts = at(120_000 + i * 250);
            records.push(PacketRecord::tcp(
                ts,
                victim,
                sink(i),
                443,
                50_000,
                TcpFlags::SYN_ACK,
            ));
        }
        for i in 0..200 {
            let src = Ipv4Addr::new(203, 0, 113, 7);
            let ts = at(600_000 + i * 500);
            records.push(PacketRecord::icmp(ts, src, sink(i), IcmpKind::EchoReply));
        }
        for (src, probes) in [
            (Ipv4Addr::new(138, 246, 253, 13), 120),
            (Ipv4Addr::new(10, 9, 8, 7), 60),
        ] {
            for i in 0..probes {
                let ts = at(50_000 + i * 9_000);
                let payload = research_probe_payload(i);
                records.push(PacketRecord::udp(ts, src, sink(i), 40_000, 443, payload));
            }
        }
        for source in 0..235u64 {
            let src = Ipv4Addr::from(0x0B00_0000 + source as u32 * 13);
            for packet in 0..20 {
                // Two ten-packet sessions, 400 s apart.
                let ts = at(source * 4_000 + (packet / 10) * 400_000 + packet * 1_500);
                records.push(PacketRecord::tcp(
                    ts,
                    src,
                    sink(packet),
                    443,
                    50_000,
                    TcpFlags::SYN_ACK,
                ));
            }
        }
        records.sort_by_key(|r| r.ts);
        for i in (0..records.len()).step_by(11).rev() {
            records.insert(i, records[i].clone());
        }
        let late = records
            .iter()
            .rposition(|r| r.src == victim)
            .expect("the victim sent records");
        records[late].ts = Timestamp::EPOCH;
        assert!(records.len() > 4096 + 1000, "{} records", records.len());
        records
    }

    #[test]
    fn slicing_the_capture_does_not_change_any_product() {
        let records = sliced_capture();
        let world = quicsand_intel::SyntheticInternet::build(&Default::default());
        let run = |threads: usize, chunk: usize| {
            let config = AnalysisConfig {
                threads,
                research_min_packets: 50,
                research_min_dsts: 40,
                ..AnalysisConfig::default()
            };
            let mut driver = AnalysisDriver::new(&world.asdb, &config);
            for slice in records.chunks(chunk) {
                driver.offer(slice);
            }
            let analysis = driver.finish();
            analysis
                .verify_metrics()
                .unwrap_or_else(|e| panic!("{threads} shards, slices of {chunk}: {e:?}"));
            analysis
        };
        let whole = run(1, usize::MAX);
        assert_eq!(
            whole.research_sources,
            HashSet::from([Ipv4Addr::new(138, 246, 253, 13)])
        );
        assert_eq!(whole.quic_attacks.len(), 1);
        assert_eq!(whole.common_attacks.len(), 2);
        assert_eq!(whole.multivector.class_counts.get("concurrent"), Some(&1));
        assert!(whole.ingest.quarantine.duplicate > 500);
        assert!(whole.ingest.quarantine.total() > whole.ingest.quarantine.duplicate);
        assert!(whole.common_sessions.len() > 2 * 235);
        let stable = whole.registry.render_prometheus(true);

        for threads in [1usize, 2, 3, 8] {
            for chunk in [usize::MAX, 1, 7, 4096] {
                let sliced = run(threads, chunk);
                let at = format!("{threads} shards, slices of {chunk}");
                assert_eq!(sliced.ingest, whole.ingest, "{at}");
                assert_eq!(sliced.research_sources, whole.research_sources, "{at}");
                assert_eq!(sliced.research_hourly, whole.research_hourly, "{at}");
                assert_eq!(sliced.request_hourly, whole.request_hourly, "{at}");
                assert_eq!(sliced.response_hourly, whole.response_hourly, "{at}");
                assert_eq!(sliced.research_packets, whole.research_packets, "{at}");
                assert_eq!(sliced.request_packets, whole.request_packets, "{at}");
                assert_eq!(sliced.response_packets, whole.response_packets, "{at}");
                assert_eq!(
                    sliced.empty_dcid_responses, whole.empty_dcid_responses,
                    "{at}"
                );
                assert_eq!(sliced.retry_victims, whole.retry_victims, "{at}");
                assert_eq!(sliced.arrivals, whole.arrivals, "{at}");
                assert_eq!(sliced.attack_tallies, whole.attack_tallies, "{at}");
                assert_eq!(sliced.request_sessions, whole.request_sessions, "{at}");
                assert_eq!(sliced.response_sessions, whole.response_sessions, "{at}");
                assert_eq!(sliced.common_sessions, whole.common_sessions, "{at}");
                assert_eq!(sliced.quic_attacks, whole.quic_attacks, "{at}");
                assert_eq!(sliced.common_attacks, whole.common_attacks, "{at}");
                assert_eq!(sliced.multivector, whole.multivector, "{at}");
                assert_eq!(sliced.registry.render_prometheus(true), stable, "{at}");
                assert_eq!(sliced.stats.threads, threads);
                // Stage walltimes: one observation per shard per run,
                // however many slices the shard admitted.
                let stages = &sliced.metrics.stages;
                assert_eq!(stages.ingest_walltime.count(), threads as u64, "{at}");
                assert_eq!(stages.sessionize_walltime.count(), threads as u64, "{at}");
                assert_eq!(stages.detect_walltime.count(), 1, "{at}");
            }
        }
    }

    /// ~2 900 records around the research thresholds of 50 packets to
    /// 40 destinations: an education scanner that crosses both halfway
    /// through its sweep, an education source that ends one packet and
    /// one destination short of them (ten probes, then a QUIC flood of
    /// its own), a source outside any education network far above both,
    /// and a Google victim whose QUIC flood (Retry packets in it)
    /// interleaves with its TCP flood and an ICMP flood.
    fn threshold_capture() -> Vec<PacketRecord> {
        use quicsand_intel::Provider;
        use quicsand_net::{IcmpKind, TcpFlags};
        use quicsand_traffic::backscatter::BackscatterBuilder;
        use quicsand_traffic::research::research_probe_payload;
        use quicsand_wire::packet::Packet;
        use quicsand_wire::{ConnectionId, Version};

        let at = |millis: u64| Timestamp::from_micros(millis * 1_000);
        let sink = |i: u64| Ipv4Addr::new(128, (i >> 8) as u8, i as u8, 3);
        let mut records = Vec::new();
        let probes = |records: &mut Vec<PacketRecord>, src, count, from, step, dsts| {
            for i in 0..count {
                let payload = research_probe_payload(i);
                let ts = at(from + i * step);
                let dst = sink(i % dsts);
                records.push(PacketRecord::udp(ts, src, dst, 40_000, 443, payload));
            }
        };
        // Crosses 50 packets and 40 destinations with its 51st probe.
        probes(
            &mut records,
            Ipv4Addr::new(138, 246, 253, 13),
            120,
            50_000,
            9_000,
            120,
        );
        // Never anything but education traffic is research.
        probes(
            &mut records,
            Ipv4Addr::new(10, 9, 8, 7),
            90,
            70_000,
            7_000,
            90,
        );
        // 10 probes and 40 responses to 40 destinations: 50 packets.
        let near = Ipv4Addr::new(137, 226, 224, 77);
        probes(&mut records, near, 10, 200_000, 3_000, 10);
        let mut backscatter = BackscatterBuilder::new(Provider::Other, Version::V1.to_wire(), 9);
        for i in 0..40 {
            let payload = backscatter.respond().datagrams[0].clone();
            let ts = at(300_000 + i * 1_600);
            records.push(PacketRecord::udp(ts, near, sink(i), 443, 40_000, payload));
        }

        let victim = Ipv4Addr::new(142, 250, 0, 1);
        let mut backscatter = BackscatterBuilder::new(Provider::Google, Version::V1.to_wire(), 5);
        for i in 0..400 {
            let payload = if i % 97 == 13 {
                let retry = Packet::Retry {
                    version: Version::V1,
                    dcid: ConnectionId::from_u64(i),
                    scid: ConnectionId::from_u64(i + 1),
                    token: bytes::Bytes::from(vec![7u8; 32]),
                    original_dcid: ConnectionId::from_u64(i + 2),
                };
                bytes::Bytes::from(retry.encode(None).expect("retry encodes"))
            } else {
                backscatter.respond().datagrams[(i % 2) as usize].clone()
            };
            let ts = at(100_000 + i * 400);
            records.push(PacketRecord::udp(ts, victim, sink(i), 443, 40_000, payload));
            let ts = at(100_200 + i * 400);
            let flags = TcpFlags::SYN_ACK;
            records.push(PacketRecord::tcp(ts, victim, sink(i), 443, 50_000, flags));
        }
        for i in 0..200 {
            let src = Ipv4Addr::new(203, 0, 113, 7);
            let ts = at(600_000 + i * 500);
            records.push(PacketRecord::icmp(ts, src, sink(i), IcmpKind::EchoReply));
        }
        for source in 0..60u32 {
            let src = Ipv4Addr::from(0x3C00_0000 + source * 7);
            for packet in 0..25u64 {
                let payload = backscatter.respond().datagrams[0].clone();
                let ts = at(u64::from(source) * 9_000 + packet * 40_000);
                records.push(PacketRecord::udp(
                    ts,
                    src,
                    sink(packet),
                    443,
                    40_000,
                    payload,
                ));
            }
        }
        records.sort_by_key(|r| r.ts);
        records
    }

    /// The QUIC products of the design the admit-loop fold replaced:
    /// every admitted observation kept to the end, research detection
    /// over all of them, one sessionizer per channel in capture order,
    /// and each attack's tally gathered from the responses of its victim
    /// within its window.
    #[derive(Debug, PartialEq)]
    struct Buffered {
        research_sources: HashSet<Ipv4Addr>,
        research_hourly: HourlySeries,
        request_hourly: HourlySeries,
        response_hourly: HourlySeries,
        research_packets: u64,
        request_packets: u64,
        response_packets: u64,
        empty_dcid_responses: u64,
        retry_victims: HashSet<Ipv4Addr>,
        arrivals: Vec<(Timestamp, Ipv4Addr)>,
        request_sessions: Vec<Session>,
        migrations: Vec<MigrationLink>,
        response_sessions: Vec<Session>,
        quic_attacks: Vec<Attack>,
        attack_tallies: Vec<AttackTally>,
    }

    impl Buffered {
        fn of(analysis: Analysis) -> Self {
            Buffered {
                research_sources: analysis.research_sources,
                research_hourly: analysis.research_hourly,
                request_hourly: analysis.request_hourly,
                response_hourly: analysis.response_hourly,
                research_packets: analysis.research_packets,
                request_packets: analysis.request_packets,
                response_packets: analysis.response_packets,
                empty_dcid_responses: analysis.empty_dcid_responses,
                retry_victims: analysis.retry_victims,
                arrivals: analysis.arrivals,
                request_sessions: analysis.request_sessions,
                migrations: analysis.migrations,
                response_sessions: analysis.response_sessions,
                quic_attacks: analysis.quic_attacks,
                attack_tallies: analysis.attack_tallies,
            }
        }

        fn reference(records: &[PacketRecord], asdb: &AsDatabase, config: &AnalysisConfig) -> Self {
            use quicsand_telescope::ResearchFilter;
            let mut pipeline = TelescopePipeline::with_guard(config.guard);
            for record in records {
                pipeline.ingest(record);
            }
            let (observations, _, _) = pipeline.finish();
            let filter = ResearchFilter::detect_with_asdb(
                &observations,
                asdb,
                config.research_min_packets,
                config.research_min_dsts,
            );
            let (research, sanitized): (Vec<_>, Vec<_>) = observations
                .into_iter()
                .partition(|obs| filter.is_research(obs.src));
            let (requests, responses): (Vec<_>, Vec<_>) = sanitized
                .into_iter()
                .partition(|obs| obs.direction == Direction::Request);
            let hourly = |observations: &[QuicObservation]| {
                let mut series = HourlySeries::new();
                observations.iter().for_each(|obs| series.add(obs.ts));
                series
            };

            let mut request_sessionizer = Sessionizer::new(config.session());
            for obs in &requests {
                let key = obs.dissected.client_cid_key();
                request_sessionizer.offer_keyed(obs.ts, obs.src, key);
            }
            let mut request_sessions = request_sessionizer.finish();
            let migrations = link_migrations(&mut request_sessions, config.session_timeout);
            let mut response_sessionizer = Sessionizer::new(config.session());
            for obs in &responses {
                response_sessionizer.offer(obs.ts, obs.src);
            }
            let response_sessions = response_sessionizer.finish();
            let quic_attacks =
                detect_attacks(&response_sessions, AttackProtocol::Quic, &config.thresholds);
            let attack_tallies = quic_attacks
                .iter()
                .map(|attack| {
                    let mut tally = AttackTally::default();
                    responses
                        .iter()
                        .filter(|o| o.src == attack.victim)
                        .filter(|o| o.ts >= attack.start && o.ts <= attack.end)
                        .for_each(|obs| tally.add(obs));
                    tally
                })
                .collect();
            let mut arrivals: Vec<(Timestamp, Ipv4Addr)> = requests
                .iter()
                .chain(&responses)
                .map(|obs| (obs.ts, obs.src))
                .collect();
            // Fig. 4 sorted by time alone; its sweep reads the same
            // stream in either order.
            arrivals.sort();

            Buffered {
                research_sources: filter.sources().clone(),
                research_hourly: hourly(&research),
                request_hourly: hourly(&requests),
                response_hourly: hourly(&responses),
                research_packets: research.len() as u64,
                request_packets: requests.len() as u64,
                response_packets: responses.len() as u64,
                empty_dcid_responses: responses
                    .iter()
                    .filter(|obs| obs.dissected.all_dcids_empty())
                    .count() as u64,
                retry_victims: responses
                    .iter()
                    .filter(|obs| obs.dissected.has_retry())
                    .map(|obs| obs.src)
                    .collect(),
                arrivals,
                request_sessions,
                migrations,
                response_sessions,
                quic_attacks,
                attack_tallies,
            }
        }
    }

    #[test]
    fn folding_at_admit_matches_the_buffered_design() {
        let records = threshold_capture();
        let world = quicsand_intel::SyntheticInternet::build(&Default::default());
        let config = |threads: usize| AnalysisConfig {
            threads,
            research_min_packets: 50,
            research_min_dsts: 40,
            ..AnalysisConfig::default()
        };
        let reference = Buffered::reference(&records, &world.asdb, &config(1));
        assert_eq!(
            reference.research_sources,
            HashSet::from([Ipv4Addr::new(138, 246, 253, 13)])
        );
        let near = Ipv4Addr::new(137, 226, 224, 77);
        let victim = Ipv4Addr::new(142, 250, 0, 1);
        let victims: Vec<Ipv4Addr> = reference.quic_attacks.iter().map(|a| a.victim).collect();
        assert!(
            victims.contains(&near) && victims.contains(&victim),
            "{victims:?}"
        );
        assert_eq!(reference.retry_victims, HashSet::from([victim]));
        assert!(reference.empty_dcid_responses < reference.response_packets);

        for threads in [1usize, 2, 3, 8] {
            for chunk in [usize::MAX, 1, 7, 4096] {
                let mut driver = AnalysisDriver::new(&world.asdb, &config(threads));
                for slice in records.chunks(chunk) {
                    driver.offer(slice);
                }
                let analysis = driver.finish();
                let at = format!("{threads} shards, slices of {chunk}");
                analysis
                    .verify_metrics()
                    .unwrap_or_else(|e| panic!("{at}: {e:?}"));
                assert_eq!(analysis.common_attacks.len(), 2, "{at}");
                assert_eq!(Buffered::of(analysis), reference, "{at}");
            }
        }
    }

    #[test]
    fn event_repass_mirrors_sessions_and_ignores_thread_count() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let run = |threads: usize| {
            let mut events: Vec<(EventMeta, Event)> = Vec::new();
            let analysis = Analysis::run(
                &scenario,
                &AnalysisConfig {
                    threads,
                    ..AnalysisConfig::default()
                },
            );
            let mut replay = analysis.event_replay();
            replay.offer(&scenario.records, &mut events);
            replay.finish(&mut events);
            (analysis, events)
        };
        let (sequential, events) = run(1);
        let closed = |channel: &str| {
            events
                .iter()
                .filter(|(_, e)| matches!(e, Event::SessionClosed(c) if c.channel == channel))
                .count()
        };
        assert_eq!(
            closed("quic"),
            sequential.response_sessions.len(),
            "one close event per detected response session"
        );
        assert_eq!(closed("tcp_icmp"), sequential.common_sessions.len());
        let rejected = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::WireRejected(_)))
            .count() as u64;
        assert_eq!(rejected, sequential.ingest.quarantine.total());

        let (_, parallel_events) = run(4);
        assert_eq!(
            events, parallel_events,
            "the forensic re-pass is single-threaded by construction"
        );

        let mut sliced_events = Vec::new();
        let mut replay = sequential.event_replay();
        for slice in scenario.records.chunks(4096) {
            replay.offer(slice, &mut sliced_events);
        }
        replay.finish(&mut sliced_events);
        assert_eq!(
            events, sliced_events,
            "slicing the re-pass changes no event"
        );
    }

    #[test]
    fn pipeline_stats_are_populated() {
        let (_, a) = analysis();
        assert_eq!(a.stats.records, a.ingest.total);
        assert!(a.stats.peak_open_sessions > 0);
        assert!(a.stats.ingest_records_per_sec() > 0.0);
    }

    #[test]
    fn metrics_reconcile_and_export() {
        let (_, a) = analysis();
        a.verify_metrics().expect("metrics reconcile with products");
        // The registry renders both formats and the stable subset is
        // non-empty (counters mirror the ingest stats).
        let prom = a.registry.render_prometheus(true);
        assert!(prom.contains("quicsand_ingest_records_total"));
        let json = a.registry.render_json(false);
        assert!(json.contains("quicsand_detect_attacks_total"));
        assert_eq!(
            a.metrics.ingest.records_total.get(),
            a.ingest.total,
            "counter == stats field"
        );
    }

    #[test]
    fn no_retry_in_the_wild() {
        let (_, a) = analysis();
        assert!(a.retry_victims.is_empty());
    }
}
