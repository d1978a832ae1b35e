//! Metric bundle for the live engine: alert lifecycle, memory-cap
//! evictions, and checkpoint volume.
//!
//! Counters mirror [`LiveStats`](crate::LiveStats) field for field and
//! are published as deltas at chunk boundaries by the engine, so they
//! reconcile exactly at any shard count. Attack distributions reuse the
//! batch [`DosMetrics`] family — same names, buckets, and units — which
//! is what makes live histogram totals directly comparable with a batch
//! `analyze` over the same trace.

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

    /// Publishes the difference `now - prev` of two readings of the
    /// merged detector stats (panics if a monotone field regressed).
    pub fn add_delta(&self, prev: &LiveStats, now: &LiveStats) {
        self.events_total
            .add(delta(prev.events_in, now.events_in, "events_in"));
        self.opened.add(delta(prev.opened, now.opened, "opened"));
        self.escalated
            .add(delta(prev.escalated, now.escalated, "escalated"));
        self.closed.add(delta(prev.closed, now.closed, "closed"));
        self.reclassified
            .add(delta(prev.reclassified, now.reclassified, "reclassified"));
        self.evictions
            .add(delta(prev.evictions, now.evictions, "evictions"));
        self.peak_tracked.set(now.peak_tracked as u64);
    }

    /// The reconciliation invariant: every counter equals its
    /// [`LiveStats`] field exactly (valid at sync points).
    pub fn verify(&self, stats: &LiveStats) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        let mut check = |name: &str, counter: u64, field: u64| {
            if counter != field {
                errors.push(format!("{name}: counter {counter} != stats {field}"));
            }
        };
        check("events_in", self.events_total.get(), stats.events_in);
        check("opened", self.opened.get(), stats.opened);
        check("escalated", self.escalated.get(), stats.escalated);
        check("closed", self.closed.get(), stats.closed);
        check("reclassified", self.reclassified.get(), stats.reclassified);
        check("evictions", self.evictions.get(), stats.evictions);
        check(
            "peak_tracked",
            self.peak_tracked.get(),
            stats.peak_tracked as u64,
        );
        let observed = self.dos.attacks_quic.get() + self.dos.attacks_common.get();
        if observed != stats.closed {
            errors.push(format!(
                "attack observations {observed} != closed alerts {}",
                stats.closed
            ));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

fn delta(prev: u64, now: u64, what: &str) -> u64 {
    now.checked_sub(prev)
        .unwrap_or_else(|| panic!("monotone live stats regressed: {what} {now} < {prev}"))
}
