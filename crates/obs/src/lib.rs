//! quicsand-obs: a lock-free metrics layer for the QUICsand pipeline.
//!
//! The registry hands out cheap, cloneable handles (`Counter`, `Gauge`,
//! `Histogram`) backed by relaxed atomics; registration takes a lock
//! once at setup, after which every increment/observation is lock-free.
//! Handles are shared across shards by cloning, so totals are exact at
//! any shard count — the reconciliation invariant the rest of the
//! workspace builds on is that every exported counter equals the
//! corresponding `IngestStats`/`QuarantineStats`/`PipelineStats`/
//! `LiveStats` field, bit for bit.
//!
//! Two expositions are supported:
//! - Prometheus text format ([`MetricsRegistry::render_prometheus`])
//! - a canonical, deterministically-ordered JSON dump
//!   ([`MetricsRegistry::render_json`])
//!
//! Metrics carry a [`Stability`] class: `Stable` metrics are pure
//! functions of the input trace (safe to golden-snapshot), `Volatile`
//! metrics depend on wall clock or machine configuration (stage
//! walltimes, thread counts) and are excluded from snapshot-grade
//! exports.

mod events;
mod export;
mod process;
mod registry;
mod source;

pub use events::EventsMetrics;
pub use process::{peak_rss_bytes, publish_peak_rss};
pub use registry::{
    Counter, Gauge, Histogram, MetricKind, MetricsRegistry, Sample, Stability,
    ATTACK_DURATION_MICROS_BUCKETS, ATTACK_PACKETS_BUCKETS, STAGE_WALLTIME_MICROS_BUCKETS,
};
pub use source::{source_label, SourceFeedMetrics, SourceSample, SourceSetMetrics};

pub const METRICS_JSON_SCHEMA: &str = "quicsand.metrics/v1";
