//! Metric bundles for the ingest pipeline and its stage timings.
//!
//! Counters mirror [`IngestStats`] field for field. The pipeline keeps
//! its plain (non-atomic) stats structs on the hot path, and callers
//! hand a reading to [`IngestMetrics::publish`] at deterministic
//! barriers (shard merge in batch mode, chunk end in live mode), which
//! makes every counter catch up to its field. Per-record overhead stays
//! at zero, and `counter == stats field` holds by construction at every
//! export point, at any shard count.

use crate::pipeline::{IngestStats, PipelineStats, QuarantineStats};
use quicsand_dissect::DissectMetrics;
use quicsand_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, Stability, STAGE_WALLTIME_MICROS_BUCKETS,
};

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

/// Stage-timing metrics over [`PipelineStats`]: walltime histograms
/// (one observation per shard per run in batch mode — however many
/// slices the run was offered in — and per chunk in live mode)
/// plus end-of-run total gauges. All `Volatile` except the peak-session
/// high-water mark, which is a pure function of the trace.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// `quicsand_stage_walltime_micros{stage="ingest"}`.
    pub ingest_walltime: Histogram,
    /// `{stage="sanitize"}` — zero observations in live mode.
    pub sanitize_walltime: Histogram,
    /// `{stage="sessionize"}`.
    pub sessionize_walltime: Histogram,
    /// `{stage="detect"}`.
    pub detect_walltime: Histogram,
    /// `quicsand_stage_total_micros{stage=...}` gauges, same order as
    /// the histograms.
    pub totals: [Gauge; 4],
    /// `quicsand_pipeline_threads` — worker threads / shards used.
    pub threads: Gauge,
    /// `quicsand_pipeline_peak_open_sessions` ==
    /// [`PipelineStats::peak_open_sessions`].
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
            ingest_walltime: hist("ingest"),
            sanitize_walltime: hist("sanitize"),
            sessionize_walltime: hist("sessionize"),
            detect_walltime: hist("detect"),
            totals: [
                total("ingest"),
                total("sanitize"),
                total("sessionize"),
                total("detect"),
            ],
            threads: registry.gauge(
                "quicsand_pipeline_threads",
                "Worker threads (batch) or shards (live) used",
                Stability::Volatile,
            ),
            // Volatile: per-shard peaks are summed, so the value depends
            // on the shard count, not only on the trace.
            peak_open_sessions: registry.gauge(
                "quicsand_pipeline_peak_open_sessions",
                "Sum of per-sessionizer/per-detector open-state high-water marks",
                Stability::Volatile,
            ),
        }
    }

    /// Records one shard's frontend stage walltimes
    /// (ingest/sanitize/sessionize) into the distribution histograms —
    /// detection runs once after the merge and is observed separately
    /// via [`StageMetrics::observe_detect`]. Zero-length stages still
    /// count — a too-fast-to-measure stage is an observation, not a gap.
    pub fn observe_frontend(&self, stats: &PipelineStats) {
        self.ingest_walltime.observe(ms_to_micros(stats.ingest_ms));
        self.sanitize_walltime
            .observe(ms_to_micros(stats.sanitize_ms));
        self.sessionize_walltime
            .observe(ms_to_micros(stats.sessionize_ms));
    }

    /// Records a detect-stage walltime (milliseconds) on its own.
    pub fn observe_detect(&self, detect_ms: f64) {
        self.detect_walltime.observe(ms_to_micros(detect_ms));
    }

    /// Publishes end-of-run totals (gauges are last-write-wins, so this
    /// is safe to call repeatedly as a run progresses).
    pub fn set_totals(&self, stats: &PipelineStats) {
        let values = [
            stats.ingest_ms,
            stats.sanitize_ms,
            stats.sessionize_ms,
            stats.detect_ms,
        ];
        for (gauge, ms) in self.totals.iter().zip(values) {
            gauge.set(ms_to_micros(ms));
        }
        self.threads.set(stats.threads as u64);
        self.peak_open_sessions.set(stats.peak_open_sessions as u64);
    }
}

fn ms_to_micros(ms: f64) -> u64 {
    (ms * 1_000.0).round().max(0.0) as u64
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
        let registry = MetricsRegistry::new();
        let stages = StageMetrics::register(&registry);
        let stats = PipelineStats {
            threads: 2,
            records: 10,
            ingest_ms: 1.5,
            sanitize_ms: 0.0,
            sessionize_ms: 0.25,
            detect_ms: 3.0,
            peak_open_sessions: 7,
            quarantined: 0,
        };
        stages.observe_frontend(&stats);
        stages.observe_detect(stats.detect_ms);
        stages.set_totals(&stats);
        assert_eq!(stages.ingest_walltime.sum(), 1_500);
        assert_eq!(stages.totals[3].get(), 3_000);
        assert_eq!(stages.peak_open_sessions.get(), 7);
        assert_eq!(stages.threads.get(), 2);
        assert_eq!(stages.sanitize_walltime.count(), 1);
    }
}
