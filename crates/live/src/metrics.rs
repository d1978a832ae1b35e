//! Metric bundles for the live engine: alert lifecycle, memory-cap
//! evictions, and checkpoint volume; and one per feed of a multi-source
//! run.
//!
//! Counters mirror [`LiveStats`](crate::LiveStats) field for field: the
//! engine hands the merged reading to [`LiveMetrics::publish`] at chunk
//! boundaries, which makes each counter catch up to its field, so they
//! agree by construction at any shard count. Attack distributions reuse
//! the batch [`DosMetrics`] family — same names, buckets, and units —
//! which is what makes live histogram totals directly comparable with a
//! batch `analyze` over the same trace.
//!
//! Every feed of a source set gets a labeled family
//! (`quicsand_source_*{source="i"}`): delivered-record / reconnect /
//! drop counters plus queue depth and peak gauges, and the set itself
//! exports a `quicsand_sources` count. All of these are
//! [`Stability::Volatile`]: how a trace is split across feeds is a
//! property of the deployment, not of the logical trace, so the
//! *stable* exposition stays byte-identical at any source count. The
//! owner hands each [`SourceStats`] reading to
//! [`SourceSetMetrics::publish`] at its sync barriers, with the same
//! catch-up rule.

use crate::detector::LiveStats;
use quicsand_net::multi::SourceStats;
use quicsand_obs::{Counter, Gauge, MetricsRegistry, Stability};
use quicsand_sessions::DosMetrics;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

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

/// Interned `source="<index>"` label values (metric labels are
/// `&'static str`). Small indices come from a static table; larger ones
/// are leaked once and cached, so repeated registration never re-leaks.
pub fn source_label(index: usize) -> &'static str {
    static SMALL: [&str; 16] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
    ];
    if let Some(label) = SMALL.get(index) {
        return label;
    }
    static EXTRA: OnceLock<Mutex<BTreeMap<usize, &'static str>>> = OnceLock::new();
    let mut cache = EXTRA
        .get_or_init(Default::default)
        .lock()
        .expect("label cache lock");
    cache
        .entry(index)
        .or_insert_with(|| Box::leak(index.to_string().into_boxed_str()))
}

/// One feed's labeled handles.
#[derive(Debug, Clone)]
pub struct SourceFeedMetrics {
    /// `quicsand_source_records_total{source=...}` ==
    /// [`SourceStats::delivered`].
    pub records: Counter,
    /// `quicsand_source_batches_total{source=...}` — batched hand-offs
    /// through the queue; `records_total / batches_total` is the
    /// realized amortization factor.
    pub batches: Counter,
    /// `quicsand_source_reconnects_total{source=...}`.
    pub reconnects: Counter,
    /// `quicsand_source_drops_total{source=...}`.
    pub drops: Counter,
    /// `quicsand_source_queue_depth{source=...}` — buffered records at
    /// the last sync.
    pub queue_depth: Gauge,
    /// `quicsand_source_queue_peak{source=...}` — high-water queue
    /// occupancy.
    pub queue_peak: Gauge,
}

impl SourceFeedMetrics {
    fn register(registry: &MetricsRegistry, index: usize) -> Self {
        let labels: &[(&'static str, &'static str)] = &[("source", source_label(index))];
        SourceFeedMetrics {
            records: registry.counter_with(
                "quicsand_source_records_total",
                "Records delivered by this feed into the merged stream",
                Stability::Volatile,
                labels,
            ),
            batches: registry.counter_with(
                "quicsand_source_batches_total",
                "Record batches pushed through the feed's bounded queue",
                Stability::Volatile,
                labels,
            ),
            reconnects: registry.counter_with(
                "quicsand_source_reconnects_total",
                "Reconnect attempts after a feed failure",
                Stability::Volatile,
                labels,
            ),
            drops: registry.counter_with(
                "quicsand_source_drops_total",
                "Failed feed sessions skipped over (corrupt record or open error)",
                Stability::Volatile,
                labels,
            ),
            queue_depth: registry.gauge_with(
                "quicsand_source_queue_depth",
                "Records buffered in the feed's bounded queue at the last sync",
                Stability::Volatile,
                labels,
            ),
            queue_peak: registry.gauge_with(
                "quicsand_source_queue_peak",
                "High-water occupancy of the feed's bounded queue",
                Stability::Volatile,
                labels,
            ),
        }
    }
}

/// The whole set's bundle: one [`SourceFeedMetrics`] per feed plus the
/// feed-count gauge.
#[derive(Debug, Clone)]
pub struct SourceSetMetrics {
    /// Per-feed handles, indexed like the source set.
    pub feeds: Vec<SourceFeedMetrics>,
    /// `quicsand_sources` — feeds in the set.
    pub sources: Gauge,
}

impl SourceSetMetrics {
    /// Registers the per-source families for `count` feeds.
    pub fn register(registry: &MetricsRegistry, count: usize) -> Self {
        let sources = registry.gauge(
            "quicsand_sources",
            "Feeds in the ingestion source set",
            Stability::Volatile,
        );
        sources.set(count as u64);
        SourceSetMetrics {
            feeds: (0..count)
                .map(|index| SourceFeedMetrics::register(registry, index))
                .collect(),
            sources,
        }
    }

    /// Publishes one reading per feed: counters catch up to their
    /// fields, gauges take theirs.
    ///
    /// # Panics
    /// When the slice disagrees with the registered feed count, or a
    /// counted field went backwards since the last publish.
    pub fn publish(&self, stats: &[SourceStats]) {
        assert_eq!(stats.len(), self.feeds.len(), "one reading per feed");
        for (feed, stats) in self.feeds.iter().zip(stats) {
            feed.records.catch_up(stats.delivered, "delivered");
            feed.batches.catch_up(stats.batches, "batches");
            feed.reconnects.catch_up(stats.reconnects, "reconnects");
            feed.drops.catch_up(stats.drops, "drops");
            feed.queue_depth.set(stats.queue_depth as u64);
            feed.queue_peak.set(stats.queue_peak as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_interned_and_stable() {
        assert_eq!(source_label(0), "0");
        assert_eq!(source_label(15), "15");
        let big = source_label(123);
        assert_eq!(big, "123");
        // Cached: the same pointer comes back, no re-leak.
        assert!(std::ptr::eq(big, source_label(123)));
    }

    /// Every series of `metrics` per feed, as the stats fields they
    /// publish (the fields no series publishes stay at their default).
    fn series(metrics: &SourceSetMetrics) -> Vec<SourceStats> {
        metrics
            .feeds
            .iter()
            .map(|feed| SourceStats {
                delivered: feed.records.get(),
                batches: feed.batches.get(),
                reconnects: feed.reconnects.get(),
                drops: feed.drops.get(),
                queue_depth: feed.queue_depth.get() as usize,
                queue_peak: feed.queue_peak.get() as usize,
                ..SourceStats::default()
            })
            .collect()
    }

    #[test]
    fn republishing_a_reading_changes_no_series() {
        let registry = MetricsRegistry::new();
        let metrics = SourceSetMetrics::register(&registry, 2);
        let mid = [
            SourceStats {
                delivered: 10,
                batches: 2,
                reconnects: 1,
                drops: 1,
                queue_depth: 3,
                queue_peak: 5,
                ..SourceStats::default()
            },
            SourceStats {
                delivered: 4,
                batches: 1,
                ..SourceStats::default()
            },
        ];
        metrics.publish(&mid);
        assert_eq!(series(&metrics), mid);
        let rendered = registry.render_prometheus(false);
        metrics.publish(&mid);
        assert_eq!(registry.render_prometheus(false), rendered);
        let end = [
            SourceStats {
                delivered: 25,
                batches: 4,
                reconnects: 2,
                drops: 2,
                queue_depth: 0,
                queue_peak: 7,
                ..SourceStats::default()
            },
            SourceStats {
                delivered: 9,
                batches: 3,
                queue_peak: 2,
                ..SourceStats::default()
            },
        ];
        metrics.publish(&end);
        assert_eq!(series(&metrics), end);
    }

    #[test]
    fn per_source_series_are_volatile_only() {
        let registry = MetricsRegistry::new();
        let metrics = SourceSetMetrics::register(&registry, 3);
        let reading = SourceStats {
            delivered: 5,
            queue_peak: 2,
            ..SourceStats::default()
        };
        metrics.publish(&vec![reading; 3]);
        let stable = registry.render_prometheus(true);
        assert!(
            !stable.contains("quicsand_source") && !stable.contains("quicsand_sources"),
            "per-source series leaked into the stable exposition:\n{stable}"
        );
        let full = registry.render_prometheus(false);
        for family in [
            "quicsand_source_records_total",
            "quicsand_source_batches_total",
            "quicsand_source_reconnects_total",
            "quicsand_source_drops_total",
            "quicsand_source_queue_depth",
            "quicsand_source_queue_peak",
            "quicsand_sources",
        ] {
            assert!(full.contains(family), "missing {family}:\n{full}");
        }
    }
}
