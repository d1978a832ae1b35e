//! The registry proper: registration (locked, setup-time) and handle
//! types (lock-free, hot-path).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Whether a metric is a pure function of the input trace.
///
/// `Stable` metrics are deterministic for a given trace and
/// configuration — counters over records, sessions, alerts. They are
/// safe to golden-snapshot. `Volatile` metrics depend on wall clock or
/// machine shape (stage walltimes, thread counts, checkpoint sizes
/// driven by CLI cadence) and are excluded from snapshot-grade exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    Stable,
    Volatile,
}

impl Stability {
    pub fn label(self) -> &'static str {
        match self {
            Stability::Stable => "stable",
            Stability::Volatile => "volatile",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Monotone counter. `Clone` shares the same underlying atomic, so a
/// handle cloned into N shards still sums into one exact total.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn detached() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Publishes `value`, the latest reading of the monotone stats field
    /// `what` this counter mirrors, by adding what the counter lacks of
    /// it. The counter is its own cursor: publishing a reading twice
    /// changes nothing. Meant for one publisher at a time (a barrier,
    /// not the hot path).
    ///
    /// # Panics
    /// When `value` is below the counter: the field went backwards.
    pub fn catch_up(&self, value: u64, what: &str) {
        let published = self.get();
        let lacking = value
            .checked_sub(published)
            .unwrap_or_else(|| panic!("monotone stats regressed: {what} {value} < {published}"));
        self.add(lacking);
    }
}

/// Last-write-wins (or accumulating) gauge over `u64`.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn detached() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, v: u64) {
        if v != 0 {
            self.0.fetch_add(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram over `u64` observations (integral units —
/// microseconds, packets — so counts and sums reconcile exactly).
///
/// Buckets are upper-inclusive (`v <= bound`) with an implicit `+Inf`
/// overflow bucket; stored counts are per-bucket (non-cumulative) and
/// rendered cumulatively for Prometheus.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1 (overflow)
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub fn detached(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        let inner = &*self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts: one entry per finite bound
    /// plus the trailing overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    pub fn bounds(&self) -> &[u64] {
        &self.0.bounds
    }
}

/// Stage-walltime buckets (microseconds): 25 µs … 60 s, roughly
/// 1.5–2.5× steps. Stage walltimes at current speeds cluster in the
/// 50 µs – 100 ms band; decade-wide buckets there put p50 and p99 in
/// the same bucket, so both reported the same interpolated value.
pub const STAGE_WALLTIME_MICROS_BUCKETS: &[u64] = &[
    25, 50, 100, 150, 250, 400, 650, 1_000, 1_500, 2_500, 4_000, 6_500, 10_000, 15_000, 25_000,
    40_000, 65_000, 100_000, 150_000, 250_000, 400_000, 650_000, 1_000_000, 1_500_000, 2_500_000,
    4_000_000, 6_500_000, 10_000_000, 15_000_000, 30_000_000, 60_000_000,
];

/// Attack-duration buckets (microseconds): 1 s … 1 h. The paper's
/// flood duration CDF (fig. 11) spans seconds to hours.
pub const ATTACK_DURATION_MICROS_BUCKETS: &[u64] = &[
    1_000_000,
    5_000_000,
    15_000_000,
    60_000_000,
    300_000_000,
    900_000_000,
    1_800_000_000,
    3_600_000_000,
];

/// Attack-size buckets (packets): the Moore-threshold floor is 25.
pub const ATTACK_PACKETS_BUCKETS: &[u64] = &[
    25, 50, 100, 250, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000,
];

#[derive(Clone)]
enum Value {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Clone)]
pub(crate) struct Entry {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) stability: Stability,
    pub(crate) labels: Vec<(&'static str, &'static str)>,
    value: Value,
}

impl Entry {
    pub(crate) fn kind(&self) -> MetricKind {
        match self.value {
            Value::Counter(_) => MetricKind::Counter,
            Value::Gauge(_) => MetricKind::Gauge,
            Value::Histogram(_) => MetricKind::Histogram,
        }
    }

    pub(crate) fn sample(&self) -> Sample {
        match &self.value {
            Value::Counter(c) => Sample::Counter(c.get()),
            Value::Gauge(g) => Sample::Gauge(g.get()),
            Value::Histogram(h) => Sample::Histogram {
                count: h.count(),
                sum: h.sum(),
                bounds: h.bounds().to_vec(),
                buckets: h.bucket_counts(),
            },
        }
    }
}

/// A point-in-time reading of one metric, for tests and tooling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sample {
    Counter(u64),
    Gauge(u64),
    Histogram {
        count: u64,
        sum: u64,
        bounds: Vec<u64>,
        /// Per-bucket counts, overflow last (non-cumulative).
        buckets: Vec<u64>,
    },
}

impl Sample {
    /// The scalar value for counters/gauges, the observation count for
    /// histograms.
    pub fn value(&self) -> u64 {
        match self {
            Sample::Counter(v) | Sample::Gauge(v) => *v,
            Sample::Histogram { count, .. } => *count,
        }
    }
}

/// Registry of metric families. Registration locks; handles don't.
///
/// One registry per pipeline run (batch analysis or live engine), never
/// a process-global — that is what makes N-shard totals exact and tests
/// hermetic.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        f.debug_struct("MetricsRegistry")
            .field("metrics", &entries.len())
            .finish()
    }
}

impl MetricsRegistry {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn register(&self, entry: Entry) {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        for existing in entries.iter() {
            if existing.name == entry.name {
                assert_eq!(
                    existing.kind(),
                    entry.kind(),
                    "metric {} re-registered with a different kind",
                    entry.name
                );
                assert!(
                    existing.labels != entry.labels,
                    "metric {} registered twice with identical labels {:?}",
                    entry.name,
                    entry.labels
                );
            }
        }
        entries.push(entry);
    }

    pub fn counter(&self, name: &'static str, help: &'static str, stability: Stability) -> Counter {
        self.counter_with(name, help, stability, &[])
    }

    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        stability: Stability,
        labels: &[(&'static str, &'static str)],
    ) -> Counter {
        let handle = Counter::detached();
        self.register(Entry {
            name,
            help,
            stability,
            labels: sorted_labels(labels),
            value: Value::Counter(handle.clone()),
        });
        handle
    }

    pub fn gauge(&self, name: &'static str, help: &'static str, stability: Stability) -> Gauge {
        self.gauge_with(name, help, stability, &[])
    }

    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        stability: Stability,
        labels: &[(&'static str, &'static str)],
    ) -> Gauge {
        let handle = Gauge::detached();
        self.register(Entry {
            name,
            help,
            stability,
            labels: sorted_labels(labels),
            value: Value::Gauge(handle.clone()),
        });
        handle
    }

    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        stability: Stability,
        bounds: &[u64],
    ) -> Histogram {
        self.histogram_with(name, help, stability, bounds, &[])
    }

    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        stability: Stability,
        bounds: &[u64],
        labels: &[(&'static str, &'static str)],
    ) -> Histogram {
        let handle = Histogram::detached(bounds);
        self.register(Entry {
            name,
            help,
            stability,
            labels: sorted_labels(labels),
            value: Value::Histogram(handle.clone()),
        });
        handle
    }

    /// Point-in-time reading of one metric by name + exact label set.
    pub fn sample(&self, name: &str, labels: &[(&str, &str)]) -> Option<Sample> {
        let mut want: Vec<(&str, &str)> = labels.to_vec();
        want.sort_unstable();
        let entries = self.entries.lock().expect("metrics registry poisoned");
        entries
            .iter()
            .find(|e| {
                e.name == name
                    && e.labels.len() == want.len()
                    && e.labels
                        .iter()
                        .zip(want.iter())
                        .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
            })
            .map(Entry::sample)
    }

    /// Sorted snapshot of all entries (optionally stable-only), used by
    /// both expositions so their ordering is identical.
    pub(crate) fn snapshot_entries(&self, stable_only: bool) -> Vec<Entry> {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut out: Vec<Entry> = entries
            .iter()
            .filter(|e| !stable_only || e.stability == Stability::Stable)
            .cloned()
            .collect();
        out.sort_by(|a, b| a.name.cmp(b.name).then_with(|| a.labels.cmp(&b.labels)));
        out
    }

    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("metrics registry poisoned")
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn sorted_labels(labels: &[(&'static str, &'static str)]) -> Vec<(&'static str, &'static str)> {
    let mut out = labels.to_vec();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_total() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("t_total", "help", Stability::Stable);
        let clone = c.clone();
        c.add(3);
        clone.inc();
        assert_eq!(c.get(), 4);
        assert_eq!(registry.sample("t_total", &[]), Some(Sample::Counter(4)));
    }

    #[test]
    fn catch_up_adds_only_what_the_counter_lacks() {
        let c = Counter::detached();
        c.catch_up(5, "field");
        c.catch_up(5, "field");
        assert_eq!(c.get(), 5, "a reading published twice counts once");
        c.catch_up(9, "field");
        assert_eq!(c.get(), 9);
    }

    #[test]
    #[should_panic(expected = "monotone stats regressed: field 3 < 9")]
    fn catch_up_panics_when_the_field_went_backwards() {
        let c = Counter::detached();
        c.catch_up(9, "field");
        c.catch_up(3, "field");
    }

    #[test]
    fn gauge_add_accumulates() {
        let g = Gauge::detached();
        g.set(5);
        g.add(2);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let h = Histogram::detached(&[10, 100, 1000]);
        for v in [1, 5, 50, 500, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5556);
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
    }

    #[test]
    fn labeled_metrics_are_distinct() {
        let registry = MetricsRegistry::new();
        let a = registry.counter_with("k_total", "h", Stability::Stable, &[("kind", "a")]);
        let b = registry.counter_with("k_total", "h", Stability::Stable, &[("kind", "b")]);
        a.add(1);
        b.add(2);
        assert_eq!(
            registry.sample("k_total", &[("kind", "a")]),
            Some(Sample::Counter(1))
        );
        assert_eq!(
            registry.sample("k_total", &[("kind", "b")]),
            Some(Sample::Counter(2))
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let registry = MetricsRegistry::new();
        let _a = registry.counter("dup_total", "h", Stability::Stable);
        let _b = registry.counter("dup_total", "h", Stability::Stable);
    }

    #[test]
    fn stable_only_snapshot_filters_volatile() {
        let registry = MetricsRegistry::new();
        let _s = registry.counter("s_total", "h", Stability::Stable);
        let _v = registry.gauge("v_now", "h", Stability::Volatile);
        assert_eq!(registry.snapshot_entries(true).len(), 1);
        assert_eq!(registry.snapshot_entries(false).len(), 2);
    }
}
