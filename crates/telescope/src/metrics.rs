//! Metric bundles for the ingest pipeline and its stage timings.
//!
//! Counters mirror [`IngestStats`]/[`QuarantineStats`] field for field.
//! The pipeline keeps its plain (non-atomic) stats structs on the hot
//! path and callers publish *deltas* into these shared handles at
//! deterministic barriers — shard merge in batch mode, chunk end in
//! live mode. That keeps per-record overhead at zero while making the
//! reconciliation invariant (`counter == stats field`, exactly, at any
//! shard count) hold by construction at every export point.

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
    /// Per-kind quarantine counters, one per [`QuarantineStats`] field.
    pub quarantined: QuarantineMetrics,
    /// Per-[`quicsand_dissect::DissectError`]-kind rejection counters —
    /// the dissector-originated subset of the quarantine taxonomy.
    pub dissect: DissectMetrics,
}

/// One counter per [`QuarantineStats`] field, registered under
/// `quicsand_ingest_quarantined_total{kind="..."}` with the same kind
/// labels `QuarantineStats::as_table` prints.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // field meanings documented on QuarantineStats
pub struct QuarantineMetrics {
    pub truncated: Counter,
    pub bad_version: Counter,
    pub bad_cid: Counter,
    pub not_quic: Counter,
    pub empty_payload: Counter,
    pub duplicate: Counter,
    pub reordered: Counter,
    pub clock_skew: Counter,
    pub transport_mismatch: Counter,
}

impl QuarantineMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        const NAME: &str = "quicsand_ingest_quarantined_total";
        const HELP: &str = "Records the ingest guard or dissector quarantined, by kind";
        let kind =
            |k: &'static str| registry.counter_with(NAME, HELP, Stability::Stable, &[("kind", k)]);
        QuarantineMetrics {
            truncated: kind("truncated"),
            bad_version: kind("bad-version"),
            bad_cid: kind("bad-cid"),
            not_quic: kind("not-quic"),
            empty_payload: kind("empty-payload"),
            duplicate: kind("duplicate"),
            reordered: kind("reordered"),
            clock_skew: kind("clock-skew"),
            transport_mismatch: kind("transport-mismatch"),
        }
    }

    /// `(counter, stats field)` pairs in `as_table` order.
    fn pairs<'a>(&'a self, stats: &'a QuarantineStats) -> [(&'a Counter, u64); 9] {
        [
            (&self.truncated, stats.truncated),
            (&self.bad_version, stats.bad_version),
            (&self.bad_cid, stats.bad_cid),
            (&self.not_quic, stats.not_quic),
            (&self.empty_payload, stats.empty_payload),
            (&self.duplicate, stats.duplicate),
            (&self.reordered, stats.reordered),
            (&self.clock_skew, stats.clock_skew),
            (&self.transport_mismatch, stats.transport_mismatch),
        ]
    }
}

impl IngestMetrics {
    /// Registers the full ingest counter family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        const CLASS_NAME: &str = "quicsand_ingest_classified_total";
        const CLASS_HELP: &str = "Records classified by the ingest pipeline, by class";
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
            quarantined: QuarantineMetrics::register(registry),
            dissect: DissectMetrics::register(registry),
        }
    }

    /// Publishes the difference `now - prev` into the counters. `prev`
    /// must be an earlier reading of the same monotone stats (panics on
    /// regression — that would mean the stats themselves went
    /// backwards).
    pub fn add_delta(&self, prev: &IngestStats, now: &IngestStats) {
        self.records_total
            .add(delta(prev.total, now.total, "total"));
        self.quic_candidates.add(delta(
            prev.quic_candidates,
            now.quic_candidates,
            "quic_candidates",
        ));
        self.quic_valid
            .add(delta(prev.quic_valid, now.quic_valid, "quic_valid"));
        self.quic_false_positives.add(delta(
            prev.quic_false_positives,
            now.quic_false_positives,
            "quic_false_positives",
        ));
        self.tcp.add(delta(prev.tcp, now.tcp, "tcp"));
        self.icmp.add(delta(prev.icmp, now.icmp, "icmp"));
        self.other_udp
            .add(delta(prev.other_udp, now.other_udp, "other_udp"));
        self.ambiguous
            .add(delta(prev.ambiguous, now.ambiguous, "ambiguous"));
        let prev_q = &prev.quarantine;
        let now_q = &now.quarantine;
        for ((counter, prev_v), (_, now_v)) in self
            .quarantined
            .pairs(prev_q)
            .iter()
            .zip(self.quarantined.pairs(now_q).iter())
        {
            counter.add(delta(*prev_v, *now_v, "quarantine kind"));
        }
        // The dissector-originated quarantine kinds feed the per-kind
        // dissect counters one-to-one.
        self.dissect
            .empty
            .add(delta(prev_q.empty_payload, now_q.empty_payload, "empty"));
        self.dissect
            .truncated
            .add(delta(prev_q.truncated, now_q.truncated, "truncated"));
        self.dissect
            .bad_version
            .add(delta(prev_q.bad_version, now_q.bad_version, "bad_version"));
        self.dissect
            .bad_cid
            .add(delta(prev_q.bad_cid, now_q.bad_cid, "bad_cid"));
        self.dissect
            .not_quic
            .add(delta(prev_q.not_quic, now_q.not_quic, "not_quic"));
    }

    /// Publishes a full stats struct (delta from zero).
    pub fn add_stats(&self, stats: &IngestStats) {
        self.add_delta(&IngestStats::default(), stats);
    }

    /// The reconciliation invariant: every counter equals its stats
    /// field exactly. Returns the list of mismatches on failure.
    pub fn verify(&self, stats: &IngestStats) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        let mut check = |name: &str, counter: &Counter, field: u64| {
            if counter.get() != field {
                errors.push(format!(
                    "{name}: counter {} != stats {field}",
                    counter.get()
                ));
            }
        };
        check("total", &self.records_total, stats.total);
        check(
            "quic_candidates",
            &self.quic_candidates,
            stats.quic_candidates,
        );
        check("quic_valid", &self.quic_valid, stats.quic_valid);
        check(
            "quic_false_positives",
            &self.quic_false_positives,
            stats.quic_false_positives,
        );
        check("tcp", &self.tcp, stats.tcp);
        check("icmp", &self.icmp, stats.icmp);
        check("other_udp", &self.other_udp, stats.other_udp);
        check("ambiguous", &self.ambiguous, stats.ambiguous);
        for ((counter, field), (label, _)) in self
            .quarantined
            .pairs(&stats.quarantine)
            .iter()
            .zip(stats.quarantine.as_table().iter())
        {
            check(&format!("quarantine[{label}]"), counter, *field);
        }
        let q = &stats.quarantine;
        check("dissect[empty]", &self.dissect.empty, q.empty_payload);
        check("dissect[truncated]", &self.dissect.truncated, q.truncated);
        check(
            "dissect[bad_version]",
            &self.dissect.bad_version,
            q.bad_version,
        );
        check("dissect[bad_cid]", &self.dissect.bad_cid, q.bad_cid);
        check("dissect[not_quic]", &self.dissect.not_quic, q.not_quic);
        if self.dissect.total() != stats.quic_false_positives {
            errors.push(format!(
                "dissect total {} != quic_false_positives {}",
                self.dissect.total(),
                stats.quic_false_positives
            ));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
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

/// Stage label values, in [`StageMetrics::totals`] order.
pub const STAGE_LABELS: [&str; 4] = ["ingest", "sanitize", "sessionize", "detect"];

impl StageMetrics {
    /// Registers the stage-timing family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        const HIST_NAME: &str = "quicsand_stage_walltime_micros";
        const HIST_HELP: &str =
            "Per-shard (batch) or per-chunk (live) stage wall time, microseconds; \
             batch ingest includes TCP/ICMP sessionization, batch sessionize is the QUIC channels";
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
             batch ingest includes TCP/ICMP sessionization, batch sessionize is the QUIC channels";
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

fn delta(prev: u64, now: u64, what: &str) -> u64 {
    now.checked_sub(prev)
        .unwrap_or_else(|| panic!("monotone stats regressed: {what} {now} < {prev}"))
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

    #[test]
    fn add_stats_then_verify_round_trips() {
        let registry = MetricsRegistry::new();
        let metrics = IngestMetrics::register(&registry);
        let stats = faked_stats();
        metrics.add_stats(&stats);
        metrics.verify(&stats).expect("counters reconcile");
    }

    #[test]
    fn delta_publishing_accumulates_exactly() {
        let registry = MetricsRegistry::new();
        let metrics = IngestMetrics::register(&registry);
        let mut cursor = IngestStats::default();
        let stats = faked_stats();
        // Publish in two installments through an intermediate reading.
        let mid = IngestStats {
            total: 50,
            tcp: 20,
            quarantine: QuarantineStats {
                duplicate: 1,
                ..QuarantineStats::default()
            },
            ..IngestStats::default()
        };
        metrics.add_delta(&cursor, &mid);
        cursor = mid;
        metrics.add_delta(&cursor, &stats);
        metrics.verify(&stats).expect("two-step delta reconciles");
    }

    #[test]
    fn verify_catches_divergence() {
        let registry = MetricsRegistry::new();
        let metrics = IngestMetrics::register(&registry);
        let stats = faked_stats();
        metrics.add_stats(&stats);
        metrics.records_total.inc(); // sabotage
        let errors = metrics.verify(&stats).unwrap_err();
        assert!(errors.iter().any(|e| e.starts_with("total")), "{errors:?}");
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
