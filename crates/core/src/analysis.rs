//! The end-to-end measurement pipeline (§4 + §5.1/§5.2 mechanics).
//!
//! The pipeline is a streaming fold: an [`AnalysisDriver`] takes the
//! capture as any sequence of record slices ([`AnalysisDriver::offer`])
//! and [`AnalysisDriver::finish`] turns what it kept into an
//! [`Analysis`]. State persists between slices, records do not:
//!
//! 1. **Ingest** — port filter + dissection ([`quicsand_telescope`]),
//!    inside `offer`. An admitted TCP/ICMP record goes straight from the
//!    admit loop into its shard's baseline sessionizer and is gone; only
//!    the admitted QUIC observations are kept, because the next stage
//!    needs all of them at once.
//! 2. **Sanitize** — behavioural research-scanner detection corroborated
//!    with the AS database; research traffic is split off (Fig. 2).
//! 3. **Sessionize** — QUIC requests and responses separately, 5-minute
//!    timeout (Fig. 4 default); the TCP/ICMP channel was already
//!    sessionized in stage 1.
//! 4. **Infer DoS** — Moore et al. thresholds on response sessions
//!    (QUIC) and on TCP/ICMP baseline sessions.
//! 5. **Correlate** — multi-vector classification of QUIC floods
//!    against common floods.
//!
//! Stages 1–3 run per source shard through
//! [`quicsand_telescope::parallel`] (`scatter` each slice over
//! `config.threads` persistent shards, `admit_each` inside a shard,
//! `gather` the observations back into capture order by stream
//! position); stages 4–5 run once on the merged products. How the
//! capture is cut into slices changes no product: [`Analysis::run`] is
//! the driver fed one slice, the CLI feeds it `read_batch` chunks.
//!
//! Every intermediate product is a public field so experiments (and
//! downstream users) can compute whatever the paper did not.

use crate::metrics::AnalysisMetrics;
use quicsand_dissect::{Direction, MessageKinds};
use quicsand_events::{EventMeta, NoopSubscriber, SessionMigrated, Subscriber};
use quicsand_intel::AsDatabase;
use quicsand_net::{Duration, PacketRecord};
use quicsand_obs::MetricsRegistry;
use quicsand_sessions::dos::{detect_attacks, Attack, AttackProtocol, DosThresholds};
use quicsand_sessions::multivector::{classify_multivector_with, MultiVectorReport, VectorSignals};
use quicsand_sessions::session::{
    link_migrations, MigrationLink, Session, SessionConfig, Sessionizer, SessionizerCounters,
};
use quicsand_telescope::parallel::{admit_each, gather, scatter, ShardRecords};
pub use quicsand_telescope::PipelineStats;
use quicsand_telescope::{
    Admitted, GuardConfig, HourlySeries, IngestStats, QuicObservation, ResearchFilter,
    TelescopePipeline,
};
use quicsand_traffic::Scenario;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
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

/// Reads the lifecycle counters and still-open counts of the three
/// channel sessionizers — must run *before* `finish()` consumes them.
fn session_tally(sessionizers: [&Sessionizer; 3]) -> (SessionizerCounters, u64) {
    let mut counters = SessionizerCounters::default();
    let mut open = 0u64;
    for sessionizer in sessionizers {
        counters.merge(&sessionizer.counters());
        open += sessionizer.open_count() as u64;
    }
    (counters, open)
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
    /// Sanitized request observations.
    pub requests: Vec<QuicObservation>,
    /// Sanitized response observations.
    pub responses: Vec<QuicObservation>,
    /// Request sessions (after CID-keyed migration linking: a flow that
    /// changed source address mid-session is one session here).
    pub request_sessions: Vec<Session>,
    /// Mid-flow address changes re-joined by the migration link pass.
    pub migrations: Vec<MigrationLink>,
    /// Response sessions.
    pub response_sessions: Vec<Session>,
    /// Detected QUIC floods.
    pub quic_attacks: Vec<Attack>,
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

/// Stages 1–3 of one shard — or, after [`ShardProducts::absorb`], of
/// several. `requests` / `responses` carry stream positions so
/// [`gather`] can restore exact capture order.
struct ShardProducts {
    ingest: IngestStats,
    research_sources: HashSet<Ipv4Addr>,
    research_hourly: HourlySeries,
    request_hourly: HourlySeries,
    response_hourly: HourlySeries,
    research_packets: u64,
    requests: Vec<(u64, QuicObservation)>,
    responses: Vec<(u64, QuicObservation)>,
    request_sessions: Vec<Session>,
    response_sessions: Vec<Session>,
    common_sessions: Vec<Session>,
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
        self.research_sources.extend(shard.research_sources);
        self.research_hourly.merge(&shard.research_hourly);
        self.request_hourly.merge(&shard.request_hourly);
        self.response_hourly.merge(&shard.response_hourly);
        self.research_packets += shard.research_packets;
        self.requests.extend(shard.requests);
        self.responses.extend(shard.responses);
        self.request_sessions.extend(shard.request_sessions);
        self.response_sessions.extend(shard.response_sessions);
        self.common_sessions.extend(shard.common_sessions);
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
    /// The TCP/ICMP baseline channel, fed from inside the admit loop.
    common: Sessionizer,
    /// Every admitted QUIC observation with its stream position — the
    /// one per-record product kept: research detection needs a source's
    /// whole history before any of its packets can be sessionized.
    quic: Vec<(u64, QuicObservation)>,
    /// Admit-loop wall time, summed over every `offer`.
    ingest_ms: f64,
}

impl Shard {
    /// Stage 1 over this shard's part of one offered slice. `base` is
    /// the stream position of the slice's first record.
    fn admit(&mut self, part: ShardRecords<'_>, base: u64) {
        let start = Instant::now();
        admit_each(
            &mut self.pipeline,
            part,
            base,
            &mut NoopSubscriber,
            |index, product, _, _| match product {
                Admitted::Quic(obs) => self.quic.push((base + index as u64, obs)),
                Admitted::Baseline(record) => self.common.offer(record.ts, record.src),
                Admitted::Dropped => {}
            },
        );
        self.ingest_ms += ms(start);
    }

    /// Stages 2–3 over what the shard kept, once the stream has ended.
    fn finish(self, asdb: &AsDatabase, config: &AnalysisConfig) -> ShardProducts {
        let mut stats = PipelineStats {
            ingest_ms: self.ingest_ms,
            ..PipelineStats::default()
        };
        let (_, _, ingest) = self.pipeline.finish();

        // 2. Sanitize: behavioural detection corroborated by PeeringDB.
        // Research detection is a per-source aggregation, and sources
        // never span shards, so the per-shard result is the global
        // result restricted to this shard.
        let sanitize_start = Instant::now();
        let filter = ResearchFilter::detect_with_asdb(
            self.quic.iter().map(|(_, obs)| obs),
            asdb,
            config.research_min_packets,
            config.research_min_dsts,
        );
        let research_sources = filter.sources().clone();

        let mut research_hourly = HourlySeries::new();
        let mut request_hourly = HourlySeries::new();
        let mut response_hourly = HourlySeries::new();
        let mut research_packets = 0u64;
        let mut requests = Vec::new();
        let mut responses = Vec::new();
        for (position, obs) in self.quic {
            if filter.is_research(obs.src) {
                research_packets += 1;
                research_hourly.add(obs.ts);
                continue;
            }
            match obs.direction {
                Direction::Request => {
                    request_hourly.add(obs.ts);
                    requests.push((position, obs));
                }
                Direction::Response => {
                    response_hourly.add(obs.ts);
                    responses.push((position, obs));
                }
            }
        }
        stats.sanitize_ms = ms(sanitize_start);

        // 3. Sessionize this shard's two QUIC channels.
        let sessionize_start = Instant::now();
        let mut request_sessionizer = Sessionizer::new(config.session());
        for (_, obs) in &requests {
            request_sessionizer.offer_keyed(obs.ts, obs.src, obs.dissected.client_cid_key());
        }
        let mut response_sessionizer = Sessionizer::new(config.session());
        for (_, obs) in &responses {
            response_sessionizer.offer(obs.ts, obs.src);
        }
        stats.peak_open_sessions = request_sessionizer.peak_open_count()
            + response_sessionizer.peak_open_count()
            + self.common.peak_open_count();
        let (session_counters, sessions_open_at_flush) =
            session_tally([&request_sessionizer, &response_sessionizer, &self.common]);
        let request_sessions = request_sessionizer.finish();
        let response_sessions = response_sessionizer.finish();
        let common_sessions = self.common.finish();
        stats.sessionize_ms = ms(sessionize_start);

        ShardProducts {
            ingest,
            research_sources,
            research_hourly,
            request_hourly,
            response_hourly,
            research_packets,
            requests,
            responses,
            request_sessions,
            response_sessions,
            common_sessions,
            stats,
            session_counters,
            sessions_open_at_flush,
        }
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
    /// corroborates research-scanner candidates at `finish`.
    pub fn new(asdb: &'a AsDatabase, config: &AnalysisConfig) -> Self {
        let shards = (0..config.threads.max(1))
            .map(|_| Shard {
                pipeline: TelescopePipeline::with_guard(config.guard),
                common: Sessionizer::new(config.session()),
                quic: Vec::new(),
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

    /// Ingests the next slice of the capture (stage 1 on every shard).
    pub fn offer(&mut self, records: &[PacketRecord]) {
        let base = self.offered;
        self.offered += records.len() as u64;
        scatter(records, &mut self.shards, |shard, part| {
            shard.admit(part, base)
        });
    }

    /// Ends the stream: stages 2–3 per shard (each on its own worker),
    /// then the merge and stages 4–5.
    pub fn finish(self) -> Analysis {
        let (asdb, config, threads) = (self.asdb, self.config, self.shards.len());
        // An empty slice makes `scatter` the bare fan-out; each slot is
        // visited once and gives its shard up by value.
        let mut slots: Vec<Option<Shard>> = self.shards.into_iter().map(Some).collect();
        let shards = scatter(&[], &mut slots, |slot, _| {
            let shard = slot.take().expect("scatter visits each shard once");
            shard.finish(asdb, &config)
        });
        // One `PipelineStats` per shard so the stage-walltime histograms
        // get one observation per shard per run, however many slices
        // were offered.
        let shard_stats: Vec<PipelineStats> = shards.iter().map(|s| s.stats.clone()).collect();
        let mut front = shards
            .into_iter()
            .reduce(ShardProducts::absorb)
            .expect("scatter returns one result per shard, and there is at least one");
        let requests = gather(front.requests);
        let responses = gather(front.responses);

        // Deterministic session order regardless of close order or
        // shard interleaving.
        sort_sessions(&mut front.request_sessions);
        sort_sessions(&mut front.response_sessions);
        sort_sessions(&mut front.common_sessions);
        let (ingest, mut stats) = (front.ingest, front.stats);

        // 3b. CID-keyed migration linking on the merged request
        // sessions. Running after the cross-shard merge keeps the pass
        // shard-invariant even though a migrating flow's addresses can
        // land in different shards.
        let migrations = link_migrations(&mut front.request_sessions, config.session_timeout);

        // 4. DoS inference.
        let detect_start = Instant::now();
        let quic_attacks = detect_attacks(
            &front.response_sessions,
            AttackProtocol::Quic,
            &config.thresholds,
        );
        let common_attacks = detect_attacks(
            &front.common_sessions,
            AttackProtocol::TcpIcmp,
            &config.thresholds,
        );

        // 5. Multi-vector correlation, fed the packet-level vector
        // evidence: Retry backscatter per victim and the endpoints of
        // every migration link.
        let mut signals = VectorSignals::empty();
        for obs in &responses {
            if obs.dissected.has_retry() {
                signals.record_retry(obs.src);
            }
        }
        for link in &migrations {
            signals.record_migration(link.from);
            signals.record_migration(link.to);
        }
        let multivector = classify_multivector_with(&quic_attacks, &common_attacks, &signals);
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
        metrics.dos.observe_attacks(&common_attacks);
        for shard in &shard_stats {
            metrics.stages.observe_frontend(shard);
        }
        metrics.stages.observe_detect(stats.detect_ms);
        metrics.stages.set_totals(&stats);

        Analysis {
            ingest,
            research_sources: front.research_sources,
            research_hourly: front.research_hourly,
            request_hourly: front.request_hourly,
            response_hourly: front.response_hourly,
            research_packets: front.research_packets,
            requests,
            responses,
            request_sessions: front.request_sessions,
            migrations,
            response_sessions: front.response_sessions,
            quic_attacks,
            common_sessions: front.common_sessions,
            common_attacks,
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
            subscriber.on_session_migrated(
                &meta,
                &SessionMigrated {
                    at: link.at,
                    from: link.from,
                    to: link.to,
                    channel: "quic_request".to_string(),
                    cid_key: link.cid_key,
                    gap: link.gap,
                },
            );
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

    /// The response observations attributable to one attack (victim +
    /// time window).
    pub fn attack_observations<'a>(&'a self, attack: &Attack) -> Vec<&'a QuicObservation> {
        self.responses
            .iter()
            .filter(|o| o.src == attack.victim && o.ts >= attack.start && o.ts <= attack.end)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(a.requests.len() as u64, scenario.truth.request_packets);
        assert_eq!(a.responses.len() as u64, scenario.truth.response_packets);
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
    fn attack_observations_are_scoped() {
        let (_, a) = analysis();
        let attack = &a.quic_attacks[0];
        let obs = a.attack_observations(attack);
        assert!(!obs.is_empty());
        assert_eq!(obs.len() as u64, attack.packet_count);
        for o in obs {
            assert_eq!(o.src, attack.victim);
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
            assert_eq!(parallel.requests, sequential.requests);
            assert_eq!(parallel.responses, sequential.responses);
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
                assert_eq!(sliced.requests, whole.requests, "{at}");
                assert_eq!(sliced.responses, whole.responses, "{at}");
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

    #[test]
    fn event_repass_mirrors_sessions_and_ignores_thread_count() {
        use quicsand_events::{Event, VecSubscriber};
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let run = |threads: usize| {
            let mut events = VecSubscriber::new();
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
                .events
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
            .events
            .iter()
            .filter(|(_, e)| matches!(e, Event::WireRejected(_)))
            .count() as u64;
        assert_eq!(rejected, sequential.ingest.quarantine.total());

        let (_, parallel_events) = run(4);
        assert_eq!(
            events, parallel_events,
            "the forensic re-pass is single-threaded by construction"
        );

        let mut sliced_events = VecSubscriber::new();
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
        assert!(a.responses.iter().all(|o| !o.dissected.has_retry()));
    }
}
