//! Metric bundle for the live engine: alert lifecycle, memory-cap
//! evictions, and checkpoint volume.
//!
//! Counters mirror [`LiveStats`](crate::LiveStats) field for field: the
//! engine hands the merged reading to [`LiveMetrics::publish`] at chunk
//! boundaries, which makes each counter catch up to its field, so they
//! agree by construction at any shard count. Attack distributions reuse
//! the batch [`DosMetrics`] family — same names, buckets, and units —
//! which is what makes live histogram totals directly comparable with a
//! batch `analyze` over the same trace.

use crate::detector::LiveStats;
use quicsand_obs::{Counter, Gauge, MetricsRegistry, Stability};
use quicsand_sessions::DosMetrics;

/// Live-engine counters (one bundle per engine, shared across shards).
#[derive(Debug, Clone)]
pub struct LiveMetrics {
    /// `quicsand_live_events_total` == [`LiveStats::events_in`].
    pub events_total: Counter,
    /// `quicsand_live_alerts_total{phase="opened"}`.
    pub opened: Counter,
    /// `{phase="escalated"}`.
    pub escalated: Counter,
    /// `{phase="closed"}`.
    pub closed: Counter,
    /// `{phase="reclassified"}`.
    pub reclassified: Counter,
    /// `quicsand_live_evictions_total` == [`LiveStats::evictions`].
    pub evictions: Counter,
    /// `quicsand_live_peak_tracked` == [`LiveStats::peak_tracked`]
    /// (volatile: per-shard peaks are summed, so the value depends on
    /// the shard count, not only on the trace).
    pub peak_tracked: Gauge,
    /// `quicsand_live_tracked` — victims tracked at the last sync
    /// (volatile: a point-in-time reading).
    pub tracked: Gauge,
    /// `quicsand_live_checkpoints_total` — checkpoints written
    /// (volatile: depends on the operator's checkpoint cadence).
    pub checkpoints_total: Counter,
    /// `quicsand_live_checkpoint_bytes_total` — serialized checkpoint
    /// bytes written (volatile, same reason).
    pub checkpoint_bytes_total: Counter,
    /// `quicsand_live_checkpoint_micros_total` — wall time spent cycling
    /// checkpoints (volatile: wall clock). Over `checkpoints_total` it is
    /// the mean cost of one checkpoint.
    pub checkpoint_micros_total: Counter,
    /// Closed-attack distributions, shared family with batch detection.
    pub dos: DosMetrics,
}

impl LiveMetrics {
    /// Registers the live family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        const ALERTS: &str = "quicsand_live_alerts_total";
        const ALERTS_HELP: &str = "Alert lifecycle transitions, by phase";
        let phase = |p: &'static str| {
            registry.counter_with(ALERTS, ALERTS_HELP, Stability::Stable, &[("phase", p)])
        };
        LiveMetrics {
            events_total: registry.counter(
                "quicsand_live_events_total",
                "Packets offered to the live detector (post-ingest-guard)",
                Stability::Stable,
            ),
            opened: phase("opened"),
            escalated: phase("escalated"),
            closed: phase("closed"),
            reclassified: phase("reclassified"),
            evictions: registry.counter(
                "quicsand_live_evictions_total",
                "Victims evicted under the per-channel memory cap",
                Stability::Stable,
            ),
            peak_tracked: registry.gauge(
                "quicsand_live_peak_tracked",
                "High-water mark of simultaneously tracked victims",
                Stability::Volatile,
            ),
            tracked: registry.gauge(
                "quicsand_live_tracked",
                "Victims tracked at the last sync point",
                Stability::Volatile,
            ),
            checkpoints_total: registry.counter(
                "quicsand_live_checkpoints_total",
                "Engine checkpoints written",
                Stability::Volatile,
            ),
            checkpoint_bytes_total: registry.counter(
                "quicsand_live_checkpoint_bytes_total",
                "Serialized checkpoint bytes written",
                Stability::Volatile,
            ),
            checkpoint_micros_total: registry.counter(
                "quicsand_live_checkpoint_micros_total",
                "Wall microseconds spent writing and verifying checkpoints",
                Stability::Volatile,
            ),
            dos: DosMetrics::register(registry),
        }
    }

    /// Publishes a reading of the merged detector stats: counters catch
    /// up to their fields (panicking if one went backwards), the peak
    /// gauge takes its field.
    pub fn publish(&self, stats: &LiveStats) {
        for (counter, value, what) in [
            (&self.events_total, stats.events_in, "events_in"),
            (&self.opened, stats.opened, "opened"),
            (&self.escalated, stats.escalated, "escalated"),
            (&self.closed, stats.closed, "closed"),
            (&self.reclassified, stats.reclassified, "reclassified"),
            (&self.evictions, stats.evictions, "evictions"),
        ] {
            counter.catch_up(value, what);
        }
        self.peak_tracked.set(stats.peak_tracked as u64);
    }
}
