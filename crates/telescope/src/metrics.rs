//! Metric bundles for the ingest pipeline and its stage timings.
//!
//! Counters mirror [`IngestStats`] field for field. The pipeline keeps
//! its plain (non-atomic) stats structs on the hot path, and callers
//! hand a reading to [`IngestMetrics::publish`] at deterministic
//! barriers (shard merge in batch mode, chunk end in live mode), which
//! makes every counter catch up to its field. Per-record overhead stays
//! at zero, and `counter == stats field` holds by construction at every
//! export point, at any shard count.

use crate::pipeline::{IngestStats, QuarantineStats};
use quicsand_dissect::DissectMetrics;
use quicsand_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, Stability, STAGE_WALLTIME_MICROS_BUCKETS,
};
use std::time::Duration;

/// Counter bundle mirroring [`IngestStats`] (and, nested, the
/// quarantine taxonomy and per-dissect-kind rejections).
#[derive(Debug, Clone)]
pub struct IngestMetrics {
    /// `quicsand_ingest_records_total` == [`IngestStats::total`].
    pub records_total: Counter,
    /// `{class="quic_candidate"}` == [`IngestStats::quic_candidates`].
    pub quic_candidates: Counter,
    /// `{class="quic_valid"}` == [`IngestStats::quic_valid`].
    pub quic_valid: Counter,
    /// `{class="quic_false_positive"}` == [`IngestStats::quic_false_positives`].
    pub quic_false_positives: Counter,
    /// `{class="tcp"}` == [`IngestStats::tcp`].
    pub tcp: Counter,
    /// `{class="icmp"}` == [`IngestStats::icmp`].
    pub icmp: Counter,
    /// `{class="other_udp"}` == [`IngestStats::other_udp`].
    pub other_udp: Counter,
    /// `{class="ambiguous"}` == [`IngestStats::ambiguous`].
    pub ambiguous: Counter,
    /// `quicsand_ingest_quarantined_total{kind="..."}`, one counter per
    /// [`QuarantineStats`] field, in [`QuarantineStats::as_table`] order
    /// and under its kind labels.
    pub quarantined: [Counter; 9],
    /// Per-[`quicsand_dissect::DissectError`]-kind rejection counters —
    /// the dissector-originated subset of the quarantine taxonomy.
    pub dissect: DissectMetrics,
}

impl IngestMetrics {
    /// Registers the full ingest counter family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        const CLASS_NAME: &str = "quicsand_ingest_classified_total";
        const CLASS_HELP: &str = "Records classified by the ingest pipeline, by class";
        const KIND_NAME: &str = "quicsand_ingest_quarantined_total";
        const KIND_HELP: &str = "Records the ingest guard or dissector quarantined, by kind";
        let class = |c: &'static str| {
            registry.counter_with(CLASS_NAME, CLASS_HELP, Stability::Stable, &[("class", c)])
        };
        IngestMetrics {
            records_total: registry.counter(
                "quicsand_ingest_records_total",
                "Records offered to the ingest pipeline",
                Stability::Stable,
            ),
            quic_candidates: class("quic_candidate"),
            quic_valid: class("quic_valid"),
            quic_false_positives: class("quic_false_positive"),
            tcp: class("tcp"),
            icmp: class("icmp"),
            other_udp: class("other_udp"),
            ambiguous: class("ambiguous"),
            quarantined: QuarantineStats::default().as_table().map(|(kind, _)| {
                registry.counter_with(KIND_NAME, KIND_HELP, Stability::Stable, &[("kind", kind)])
            }),
            dissect: DissectMetrics::register(registry),
        }
    }

    /// Publishes a reading of the (monotone) stats: every counter
    /// catches up to its field, so publishing the same reading twice
    /// changes nothing.
    ///
    /// # Panics
    /// When a field is below its counter: the stats went backwards.
    pub fn publish(&self, stats: &IngestStats) {
        let q = &stats.quarantine;
        let d = &self.dissect;
        let fields = [
            (&self.records_total, stats.total, "total"),
            (
                &self.quic_candidates,
                stats.quic_candidates,
                "quic_candidates",
            ),
            (&self.quic_valid, stats.quic_valid, "quic_valid"),
            (
                &self.quic_false_positives,
                stats.quic_false_positives,
                "quic_false_positives",
            ),
            (&self.tcp, stats.tcp, "tcp"),
            (&self.icmp, stats.icmp, "icmp"),
            (&self.other_udp, stats.other_udp, "other_udp"),
            (&self.ambiguous, stats.ambiguous, "ambiguous"),
            // The dissector-originated quarantine kinds feed the per-kind
            // dissect counters one-to-one.
            (&d.empty, q.empty_payload, "dissect empty"),
            (&d.truncated, q.truncated, "dissect truncated"),
            (&d.bad_version, q.bad_version, "dissect bad_version"),
            (&d.bad_cid, q.bad_cid, "dissect bad_cid"),
            (&d.not_quic, q.not_quic, "dissect not_quic"),
        ];
        let kinds = self.quarantined.iter().zip(q.as_table());
        let kinds = kinds.map(|(counter, (kind, value))| (counter, value, kind));
        for (counter, value, what) in fields.into_iter().chain(kinds) {
            counter.catch_up(value, what);
        }
    }
}

/// A pipeline stage: ingest (guard + classify + dissect; in batch mode
/// it also sanitizes and sessionizes every packet it can as the packet
/// is admitted), sanitize, sessionize and detect. The discriminant
/// indexes [`StageMetrics`]' series, in the order the `stages:` line
/// lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Batch: a shard's admit loop. Live: a chunk's admit loop.
    Ingest,
    /// Batch: a shard's end-of-stream pass over the packets of
    /// education sources that stayed below the research thresholds.
    /// Never observed in live mode.
    Sanitize,
    /// Batch: a shard's end-of-stream flush of every sessionizer, the
    /// QUIC channels' and the TCP/ICMP channel's (the offers are in
    /// `ingest` and `sanitize`). Live: a chunk's detector offers
    /// (session upkeep + threshold checks).
    Sessionize,
    /// Batch: DoS inference + multi-vector correlation on the merged
    /// products. Live: the end-of-stream flush.
    Detect,
}

/// The `stage` label of each [`Stage`], in discriminant order.
const LABELS: [&str; 4] = ["ingest", "sanitize", "sessionize", "detect"];

/// The one record of the pipeline's stage wall times: the batch shards
/// and the live chunks hand it their durations where each timer stops,
/// and the CLI's `pipeline:` and `stages:` lines are read back from it.
///
/// Each stage has a walltime histogram — one observation per shard per
/// run in batch mode, however many slices the run was offered in, one
/// per chunk in live mode, one per run for `detect` — and a whole-run
/// total gauge. The shards of a batch run or of a live chunk run in
/// parallel, so the slowest one is the critical path: a batch total is
/// the slowest shard's, a live total the sum of each chunk's slowest
/// shard. All `Volatile`: timings vary run to run, and the peak-session
/// sum depends on the shard count.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// `quicsand_stage_walltime_micros{stage=...}`, by [`Stage`].
    walltime: [Histogram; 4],
    /// `quicsand_stage_total_micros{stage=...}`, by [`Stage`].
    totals: [Gauge; 4],
    /// `quicsand_pipeline_threads` — worker threads / shards used.
    pub threads: Gauge,
    /// `quicsand_pipeline_peak_open_sessions` — the sum of the
    /// sessionizers'/detectors' open-state high-water marks, an upper
    /// bound on simultaneously held per-source state.
    pub peak_open_sessions: Gauge,
}

impl StageMetrics {
    /// Registers the stage-timing family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        const HIST_NAME: &str = "quicsand_stage_walltime_micros";
        const HIST_HELP: &str =
            "Per-shard (batch) or per-chunk (live) stage wall time, microseconds; \
             batch ingest includes sanitization and sessionization, \
             batch sanitize and sessionize are the end-of-run passes";
        let hist = |stage: &'static str| {
            registry.histogram_with(
                HIST_NAME,
                HIST_HELP,
                Stability::Volatile,
                STAGE_WALLTIME_MICROS_BUCKETS,
                &[("stage", stage)],
            )
        };
        const TOTAL_NAME: &str = "quicsand_stage_total_micros";
        const TOTAL_HELP: &str = "Whole-run stage wall time, microseconds; \
             batch ingest includes sanitization and sessionization, \
             batch sanitize and sessionize are the end-of-run passes";
        let total = |stage: &'static str| {
            registry.gauge_with(
                TOTAL_NAME,
                TOTAL_HELP,
                Stability::Volatile,
                &[("stage", stage)],
            )
        };
        StageMetrics {
            walltime: LABELS.map(hist),
            totals: LABELS.map(total),
            threads: registry.gauge(
                "quicsand_pipeline_threads",
                "Worker threads (batch) or shards (live) used",
                Stability::Volatile,
            ),
            peak_open_sessions: registry.gauge(
                "quicsand_pipeline_peak_open_sessions",
                "Sum of per-sessionizer/per-detector open-state high-water marks",
                Stability::Volatile,
            ),
        }
    }

    /// A stage's walltime histogram.
    pub fn walltime(&self, stage: Stage) -> &Histogram {
        &self.walltime[stage as usize]
    }

    /// A stage's whole-run total, microseconds.
    pub fn total_micros(&self, stage: Stage) -> u64 {
        self.totals[stage as usize].get()
    }

    /// Records one batch shard's run as the shard finishes: one
    /// ingest, sanitize and sessionize observation each, every total
    /// raised to the slowest shard's.
    pub fn record_shard(&self, ingest: Duration, sanitize: Duration, sessionize: Duration) {
        let shard = [
            (Stage::Ingest, ingest),
            (Stage::Sanitize, sanitize),
            (Stage::Sessionize, sessionize),
        ];
        for (stage, elapsed) in shard {
            let us = micros(elapsed);
            self.walltime[stage as usize].observe(us);
            self.totals[stage as usize].raise(us);
        }
    }

    /// Records one live chunk from its shards' `(ingest, sessionize)`
    /// times: one observation of the slowest shard per stage, added to
    /// the run's totals.
    pub fn record_chunk(&self, shards: impl IntoIterator<Item = (Duration, Duration)>) {
        let (mut ingest, mut sessionize) = (Duration::ZERO, Duration::ZERO);
        for (shard_ingest, shard_sessionize) in shards {
            ingest = ingest.max(shard_ingest);
            sessionize = sessionize.max(shard_sessionize);
        }
        self.add(Stage::Ingest, ingest);
        self.add(Stage::Sessionize, sessionize);
    }

    /// Records the detect stage, which runs once, after the shards.
    pub fn record_detect(&self, elapsed: Duration) {
        self.add(Stage::Detect, elapsed);
    }

    fn add(&self, stage: Stage, elapsed: Duration) {
        let us = micros(elapsed);
        self.walltime[stage as usize].observe(us);
        self.totals[stage as usize].add(us);
    }

    /// Carries an earlier live engine's series into this one, for a run
    /// that goes on from a restored engine: every observation and every
    /// total so far is added in, so the series cover the whole run.
    pub fn carry(&self, earlier: &StageMetrics) {
        for (histogram, old) in self.walltime.iter().zip(&earlier.walltime) {
            histogram.absorb(old);
        }
        for (total, old) in self.totals.iter().zip(&earlier.totals) {
            total.add(old.get());
        }
    }

    /// Ingest throughput: `records` over the ingest total, per second.
    pub fn ingest_rate(&self, records: u64) -> f64 {
        match self.total_micros(Stage::Ingest) {
            0 => 0.0,
            micros => records as f64 * 1e6 / micros as f64,
        }
    }

    /// The `stages: ingest …ms / sanitize …ms / sessionize …ms / detect
    /// …ms` line of `--verbose`, from the totals.
    pub fn summary(&self) -> String {
        let stages: Vec<String> = LABELS
            .iter()
            .zip(&self.totals)
            .map(|(stage, total)| format!("{stage} {:.1}ms", total.get() as f64 / 1e3))
            .collect();
        format!("stages: {}", stages.join(" / "))
    }
}

/// A wall time in whole microseconds, the unit of every stage series.
fn micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::IngestError;

    fn faked_stats() -> IngestStats {
        let mut stats = IngestStats {
            total: 100,
            quic_candidates: 40,
            quic_valid: 30,
            quic_false_positives: 10,
            tcp: 30,
            icmp: 10,
            other_udp: 5,
            ambiguous: 0,
            quarantine: QuarantineStats::default(),
        };
        stats.quarantine.record(&IngestError::Truncated);
        stats.quarantine.record(&IngestError::EmptyPayload);
        stats.quarantine.record(&IngestError::Duplicate);
        stats.quarantine.truncated += 4;
        stats.quarantine.not_quic += 4;
        // 10 false positives == truncated 5 + empty 1 + not_quic 4.
        stats
    }

    /// An earlier reading of the same stream as [`faked_stats`].
    fn mid_stats() -> IngestStats {
        IngestStats {
            total: 50,
            tcp: 20,
            quarantine: QuarantineStats {
                duplicate: 1,
                ..QuarantineStats::default()
            },
            ..IngestStats::default()
        }
    }

    #[test]
    fn publish_sets_every_series_to_its_field() {
        let registry = MetricsRegistry::new();
        let metrics = IngestMetrics::register(&registry);
        let stats = faked_stats();
        metrics.publish(&stats);
        assert_eq!(metrics.records_total.get(), stats.total);
        assert_eq!(metrics.quic_false_positives.get(), 10);
        let kinds = metrics.quarantined.iter().map(Counter::get);
        assert!(kinds.eq(stats.quarantine.as_table().map(|(_, field)| field)));
        let d = &metrics.dissect;
        assert_eq!(
            [d.empty.get(), d.truncated.get(), d.not_quic.get()],
            [1, 5, 4]
        );
        let text = registry.render_prometheus(true);
        for series in [
            "quicsand_ingest_classified_total{class=\"icmp\"} 10",
            "quicsand_ingest_quarantined_total{kind=\"duplicate\"} 1",
            "quicsand_dissect_rejected_total{kind=\"truncated\"} 5",
        ] {
            assert!(text.contains(series), "{series}:\n{text}");
        }
    }

    #[test]
    fn republishing_the_same_stats_changes_no_series() {
        let registry = MetricsRegistry::new();
        let metrics = IngestMetrics::register(&registry);
        metrics.publish(&mid_stats());
        metrics.publish(&faked_stats());
        let once = registry.render_prometheus(false);
        metrics.publish(&faked_stats());
        assert_eq!(registry.render_prometheus(false), once);
        assert_eq!(metrics.records_total.get(), 100);
    }

    #[test]
    #[should_panic(expected = "monotone stats regressed: total 50 < 100")]
    fn a_regressed_reading_panics() {
        let metrics = IngestMetrics::register(&MetricsRegistry::new());
        metrics.publish(&faked_stats());
        metrics.publish(&mid_stats());
    }

    #[test]
    fn stage_metrics_convert_ms_to_micros() {
        let stages = StageMetrics::register(&MetricsRegistry::new());
        let us = Duration::from_micros;
        // Two batch shards: one observation each, every total the
        // slowest shard's.
        stages.record_shard(us(1_500), Duration::ZERO, us(250));
        stages.record_shard(us(900), us(40), us(600));
        stages.record_detect(Duration::from_millis(3));
        assert_eq!(stages.walltime(Stage::Ingest).count(), 2);
        assert_eq!(stages.walltime(Stage::Ingest).sum(), 2_400);
        assert_eq!(stages.walltime(Stage::Detect).count(), 1);
        let all = [
            Stage::Ingest,
            Stage::Sanitize,
            Stage::Sessionize,
            Stage::Detect,
        ];
        assert_eq!(all.map(|s| stages.total_micros(s)), [1_500, 40, 600, 3_000]);
        assert_eq!(
            stages.summary(),
            "stages: ingest 1.5ms / sanitize 0.0ms / sessionize 0.6ms / detect 3.0ms"
        );
        assert_eq!(stages.ingest_rate(3_000), 2_000_000.0);
    }

    #[test]
    fn a_chunk_records_its_slowest_shard_and_a_carry_adds_the_earlier_run() {
        let us = Duration::from_micros;
        let earlier = StageMetrics::register(&MetricsRegistry::new());
        earlier.record_chunk([(us(300), us(100)), (us(200), us(400))]);
        let later = StageMetrics::register(&MetricsRegistry::new());
        later.record_chunk([(us(50), us(60))]);
        later.carry(&earlier);
        for stage in [Stage::Ingest, Stage::Sessionize] {
            assert_eq!(later.walltime(stage).count(), 2);
            assert_eq!(later.walltime(stage).bucket_counts().iter().sum::<u64>(), 2);
        }
        assert_eq!(later.walltime(Stage::Sanitize).count(), 0);
        assert_eq!(later.total_micros(Stage::Ingest), 350);
        assert_eq!(later.walltime(Stage::Sessionize).sum(), 460);
        assert_eq!(later.total_micros(Stage::Sessionize), 460);
    }
}
