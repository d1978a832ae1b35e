//! The metric names and units this benchmark reports. `BENCHMARK.json`
//! declares the same names with their direction and bound; the self-test
//! keeps the two lists equal.

/// Which order statistic of a metric's samples is its reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The median: set-up time, exact metrics, every per-layer metric.
    Median,
    /// The fastest pass of a rate. Other tenants of a shared host only
    /// ever add time, for tens of seconds at a stretch, so a run's
    /// median pass moves with the host while its fastest pass stays
    /// put: over repeated runs of one input on this host the fastest
    /// pass spread about half as wide as the median (see the README).
    Highest,
    /// The fastest pass of a duration.
    Lowest,
}

/// End-to-end metrics, reported per workload with tracing off.
pub const END_TO_END: &[(&str, &str, Pick)] = &[
    ("setup_s", "s", Pick::Median),
    ("analyze_rps", "records/s", Pick::Highest),
    ("live_rps", "records/s", Pick::Highest),
    ("checkpoint_ms", "ms", Pick::Lowest),
    ("peak_rss_mb", "MiB", Pick::Median),
    ("flood_recall", "share", Pick::Median),
    ("flood_precision", "share", Pick::Median),
    ("time_to_detect_s", "s", Pick::Median),
];

/// Per-layer metrics, reported per workload from the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.decode.busy_s", "s"),
    ("net.decode.records", "count"),
    ("net.decode.bytes", "bytes"),
    ("net.decode.ns_per_record", "ns"),
    ("dissect.classify.busy_s", "s"),
    ("dissect.classify.ns_per_record", "ns"),
    ("dissect.classify.quic_candidates", "count"),
    ("dissect.quic.busy_s", "s"),
    ("dissect.quic.attempts", "count"),
    ("dissect.quic.ok", "count"),
    ("dissect.quic.useful_share", "share"),
    ("dissect.quic.ns_per_attempt", "ns"),
    ("telescope.admit.busy_s", "s"),
    ("telescope.admit.self_s", "s"),
    ("telescope.admit.admitted", "count"),
    ("telescope.admit.quarantined", "count"),
    ("telescope.admit.guard_sources", "count"),
    ("telescope.admit.ns_per_record", "ns"),
    ("telescope.sanitize.busy_s", "s"),
    ("telescope.sanitize.research_sources", "count"),
    ("telescope.partition.busy_s", "s"),
    ("telescope.partition.skew", "ratio"),
    ("telescope.merge.busy_s", "s"),
    ("sessions.sessionize.busy_s", "s"),
    ("sessions.sessionize.offers", "count"),
    ("sessions.sessionize.sessions", "count"),
    ("sessions.sessionize.peak_open", "count"),
    ("sessions.sessionize.ns_per_offer", "ns"),
    ("sessions.detect.busy_s", "s"),
    ("sessions.detect.attacks", "count"),
    ("sessions.detect.useful_share", "share"),
    ("sessions.multivector.busy_s", "s"),
    ("live.detector.busy_s", "s"),
    ("live.detector.offers", "count"),
    ("live.detector.events", "count"),
    ("live.detector.evictions", "count"),
    ("live.detector.peak_tracked", "count"),
    ("live.detector.ns_per_offer", "ns"),
    ("live.engine.wall_s", "s"),
    ("live.engine.overhead_s", "s"),
    ("live.engine.chunks", "count"),
    ("live.engine.chunk_p50_ms", "ms"),
    ("live.engine.chunk_p99_ms", "ms"),
    ("live.engine.sharded_rps", "records/s"),
    ("live.engine.sharded_speedup", "ratio"),
    ("live.engine.sharded_cpu_ns_per_record", "ns"),
    ("live.snapshot.snapshot_ms", "ms"),
    ("live.snapshot.serialize_ms", "ms"),
    ("live.snapshot.parse_ms", "ms"),
    ("live.snapshot.restore_ms", "ms"),
    ("live.snapshot.bytes", "bytes"),
    ("net.multi.merge_rps", "records/s"),
    ("net.multi.queue_peak", "count"),
    ("net.multi.batches", "count"),
    ("live.multi.rps", "records/s"),
    ("live.multi.fanin_ratio", "ratio"),
    ("events.qlog.events", "count"),
    ("events.qlog.bytes", "bytes"),
    ("events.qlog.overhead_share", "share"),
    ("obs.export.render_ms", "ms"),
    ("obs.export.series", "count"),
    ("core.analysis.wall_s", "s"),
    ("core.analysis.residue_share", "share"),
    ("core.analysis.threads2_rps", "records/s"),
    ("core.analysis.threads2_speedup", "ratio"),
    ("host.jitter_share", "share"),
    ("host.cores", "count"),
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> &'static str {
    let end_to_end = END_TO_END.iter().map(|(metric, unit, _)| (metric, unit));
    let per_layer = PER_LAYER.iter().map(|(metric, unit)| (metric, unit));
    end_to_end
        .chain(per_layer)
        .find(|(metric, _)| **metric == name)
        .map_or("", |(_, unit)| unit)
}

/// The order statistic a declared metric reports.
pub fn pick_of(name: &str) -> Pick {
    END_TO_END
        .iter()
        .find(|(metric, _, _)| *metric == name)
        .map_or(Pick::Median, |(_, _, pick)| *pick)
}
