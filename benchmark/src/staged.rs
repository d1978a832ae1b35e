//! The traced, staged passes: the same work as the end-to-end passes,
//! driven layer by layer through public functions with a span around
//! each call group.
//!
//! `dissect_udp_payload` runs twice here — once on its own so its cost is
//! a span, once inside `admit_classified`, which calls it privately — so
//! `telescope.admit.self_s` is `busy_s` minus `dissect.quic.busy_s`, and
//! the stand-alone dissect span is left out of the layer sum that
//! `core.analysis.residue_share` compares with the untraced wall.

use crate::passes::{sorted_keys, AttackKey, Checks};
use crate::trace::Tracer;
use crate::workloads::Context;
use bytes::Bytes;
use quicsand_dissect::{classify_record, dissect_udp_payload, Classification, Direction};
use quicsand_live::LiveDetector;
use quicsand_net::zerocopy::DEFAULT_BATCH;
use quicsand_net::{PacketRecord, ZeroCopyCaptureReader};
use quicsand_sessions::dos::{detect_attacks, AttackProtocol, DosThresholds};
use quicsand_sessions::multivector::{classify_multivector_with, VectorSignals};
use quicsand_sessions::session::{link_migrations, Session, SessionConfig, Sessionizer};
use quicsand_telescope::parallel::{ingest_shard_with, merge_shards, partition_by_source};
use quicsand_telescope::{Admitted, HourlySeries, ResearchFilter, TelescopePipeline};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Per-layer values of one staged pass, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Nanoseconds per item; 0 when nothing was counted (the span then only
/// timed a loop that found no work).
fn ns_per(seconds: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        seconds * 1e9 / count as f64
    }
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// The batch pipeline, staged. Returns the layer values and the attacks
/// it detected, which must equal the untraced pass's.
pub fn staged_analyze(
    ctx: &Context,
    capture: &Bytes,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (Layers, Vec<AttackKey>) {
    crate::host::cold_heap();
    let from = tracer.len();
    let root = tracer.enter("core.analysis", "staged_analyze");

    let records: Vec<PacketRecord> = tracer.span("net.decode", "read_to_end", || {
        let records = ZeroCopyCaptureReader::from_bytes(capture.clone())
            .and_then(|mut reader| reader.read_to_end())
            .unwrap_or_default();
        let n = records.len() as u64;
        (records, n)
    });
    let total = records.len() as u64;

    let classes: Vec<Classification> = tracer.span("dissect.classify", "classify_record", || {
        (records.iter().map(classify_record).collect(), total)
    });
    let candidates = classes
        .iter()
        .filter(|c| matches!(c, Classification::QuicCandidate(_)))
        .count() as u64;

    let (attempts, dissect_ok) = tracer.span("dissect.quic", "dissect_udp_payload", || {
        let mut attempts = 0u64;
        let mut ok = 0u64;
        for (record, class) in records.iter().zip(&classes) {
            if let (Classification::QuicCandidate(_), Some(payload)) = (class, record.udp_payload())
            {
                attempts += 1;
                ok += u64::from(black_box(dissect_udp_payload(payload)).is_ok());
            }
        }
        ((attempts, ok), attempts)
    });

    let mut pipeline = TelescopePipeline::with_guard(ctx.guard);
    tracer.span("telescope.admit", "ingest_classified", || {
        for (record, class) in records.iter().zip(&classes) {
            pipeline.ingest_classified(record, *class);
        }
        ((), total)
    });
    let guard_sources = pipeline.snapshot().guards.len() as u64;
    let (observations, baseline, ingest) = pipeline.finish();
    let admitted = (observations.len() + baseline.len()) as u64;

    let analysis = quicsand_core::AnalysisConfig::default();
    let observed = observations.len() as u64;
    let (filter, requests, responses) =
        tracer.span("telescope.sanitize", "research_filter", || {
            let filter = ResearchFilter::detect_with_asdb(
                &observations,
                &ctx.shell.world.asdb,
                analysis.research_min_packets,
                analysis.research_min_dsts,
            );
            let mut hourly = [
                HourlySeries::new(),
                HourlySeries::new(),
                HourlySeries::new(),
            ];
            let mut requests = Vec::new();
            let mut responses = Vec::new();
            for obs in observations {
                if filter.is_research(obs.src) {
                    hourly[0].add(obs.ts);
                    continue;
                }
                match obs.direction {
                    Direction::Request => {
                        hourly[1].add(obs.ts);
                        requests.push(obs);
                    }
                    Direction::Response => {
                        hourly[2].add(obs.ts);
                        responses.push(obs);
                    }
                }
            }
            black_box(&hourly);
            ((filter, requests, responses), observed)
        });

    let session_config = SessionConfig {
        timeout: analysis.session_timeout,
        skew_tolerance: ctx.guard.reorder_tolerance,
    };
    let offers = (requests.len() + responses.len() + baseline.len()) as u64;
    let (mut request_sessions, response_sessions, common_sessions, peak_open) =
        tracer.span("sessions.sessionize", "sessionizers", || {
            let mut request = Sessionizer::new(session_config);
            for obs in &requests {
                request.offer_keyed(obs.ts, obs.src, obs.dissected.client_cid_key());
            }
            let mut response = Sessionizer::new(session_config);
            for obs in &responses {
                response.offer(obs.ts, obs.src);
            }
            let mut common = Sessionizer::new(session_config);
            for record in &baseline {
                common.offer(record.ts, record.src);
            }
            let peak =
                request.peak_open_count() + response.peak_open_count() + common.peak_open_count();
            let sort = |mut sessions: Vec<Session>| {
                sessions.sort_by_key(|s| (s.start, s.src));
                sessions
            };
            (
                (
                    sort(request.finish()),
                    sort(response.finish()),
                    sort(common.finish()),
                    peak,
                ),
                offers,
            )
        });
    let sessions =
        (request_sessions.len() + response_sessions.len() + common_sessions.len()) as u64;

    let migrations = tracer.span("sessions.multivector", "link_migrations", || {
        let n = request_sessions.len() as u64;
        (
            link_migrations(&mut request_sessions, analysis.session_timeout),
            n,
        )
    });

    let thresholds = DosThresholds::moore();
    let (quic_attacks, common_attacks) = tracer.span("sessions.detect", "detect_attacks", || {
        (
            (
                detect_attacks(&response_sessions, AttackProtocol::Quic, &thresholds),
                detect_attacks(&common_sessions, AttackProtocol::TcpIcmp, &thresholds),
            ),
            (response_sessions.len() + common_sessions.len()) as u64,
        )
    });
    let attacks = (quic_attacks.len() + common_attacks.len()) as u64;

    tracer.span("sessions.multivector", "classify_multivector_with", || {
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
        let report = classify_multivector_with(&quic_attacks, &common_attacks, &signals);
        black_box(report);
        ((), quic_attacks.len() as u64)
    });
    let staged_s = tracer.exit(root, total);

    // Two-way partition, as `threads: 2` runs it, and the cross-shard
    // record merge that only `ingest_parallel` ends in; the shard
    // ingests in between are not part of either layer.
    let buckets = tracer.span("telescope.partition", "partition_by_source", || {
        (partition_by_source(&records, 2), total)
    });
    let largest = buckets.iter().map(Vec::len).max().unwrap_or(0) as f64;
    let skew = largest / (total.max(1) as f64 / buckets.len() as f64);
    let shards: Vec<_> = buckets
        .iter()
        .map(|indices| ingest_shard_with(&records, indices, ctx.guard))
        .collect();
    let merged = tracer.span("telescope.merge", "merge_shards", || {
        let merged = merge_shards(shards);
        let n = (merged.0.len() + merged.1.len()) as u64;
        (merged, n)
    });
    checks.check(merged.2 == ingest, || {
        "2-shard ingest counters differ from 1-shard".to_string()
    });
    checks.check(total == ingest.total, || {
        format!("staged ingest saw {} of {total} records", ingest.total)
    });

    let busy = |layer: &str| tracer.busy_s(layer, from);
    let decode_s = busy("net.decode");
    let dissect_s = busy("dissect.quic");
    let admit_s = busy("telescope.admit");
    let sessionize_s = busy("sessions.sessionize");
    let detect_s = busy("sessions.detect");
    let layer_sum = decode_s
        + busy("dissect.classify")
        + admit_s
        + busy("telescope.sanitize")
        + sessionize_s
        + detect_s
        + busy("sessions.multivector");
    let layers = Layers::from([
        ("net.decode.busy_s", decode_s),
        ("net.decode.records", total as f64),
        ("net.decode.bytes", capture.len() as f64),
        ("net.decode.ns_per_record", ns_per(decode_s, total)),
        ("dissect.classify.busy_s", busy("dissect.classify")),
        (
            "dissect.classify.ns_per_record",
            ns_per(busy("dissect.classify"), total),
        ),
        ("dissect.classify.quic_candidates", candidates as f64),
        ("dissect.quic.busy_s", dissect_s),
        ("dissect.quic.attempts", attempts as f64),
        ("dissect.quic.ok", dissect_ok as f64),
        ("dissect.quic.useful_share", share(dissect_ok, attempts)),
        ("dissect.quic.ns_per_attempt", ns_per(dissect_s, attempts)),
        ("telescope.admit.busy_s", admit_s),
        ("telescope.admit.self_s", (admit_s - dissect_s).max(0.0)),
        ("telescope.admit.admitted", admitted as f64),
        (
            "telescope.admit.quarantined",
            ingest.quarantine.total() as f64,
        ),
        ("telescope.admit.guard_sources", guard_sources as f64),
        ("telescope.admit.ns_per_record", ns_per(admit_s, total)),
        ("telescope.sanitize.busy_s", busy("telescope.sanitize")),
        (
            "telescope.sanitize.research_sources",
            filter.sources().len() as f64,
        ),
        ("telescope.partition.busy_s", busy("telescope.partition")),
        ("telescope.partition.skew", skew),
        ("telescope.merge.busy_s", busy("telescope.merge")),
        ("sessions.sessionize.busy_s", sessionize_s),
        ("sessions.sessionize.offers", offers as f64),
        ("sessions.sessionize.sessions", sessions as f64),
        ("sessions.sessionize.peak_open", peak_open as f64),
        (
            "sessions.sessionize.ns_per_offer",
            ns_per(sessionize_s, offers),
        ),
        ("sessions.detect.busy_s", detect_s),
        ("sessions.detect.attacks", attacks as f64),
        ("sessions.detect.useful_share", share(attacks, sessions)),
        ("sessions.multivector.busy_s", busy("sessions.multivector")),
        ("staged.analyze.layer_sum_s", layer_sum),
        ("staged.analyze.wall_s", staged_s),
    ]);
    let keys = sorted_keys(quic_attacks.iter().chain(&common_attacks));
    (layers, keys)
}

/// The live pipeline, staged: per 4096-record chunk, decode, then admit
/// through one `TelescopePipeline`, then offer the admitted products to
/// one `LiveDetector` — what a 1-shard `LiveEngine` does inside
/// `offer_chunk`, minus its own scaffolding.
pub fn staged_live(
    ctx: &Context,
    capture: &Bytes,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Layers {
    crate::host::cold_heap();
    let from = tracer.len();
    let root = tracer.enter("live.engine", "staged_live");
    let mut pipeline = TelescopePipeline::with_guard(ctx.guard);
    let mut detector = LiveDetector::new(ctx.live);
    let mut reader = ZeroCopyCaptureReader::from_bytes(capture.clone()).ok();
    let mut events = 0u64;
    let mut total = 0u64;
    while let Some(source) = reader.as_mut() {
        let batch = tracer.span("net.decode", "read_batch", || {
            let batch = source.read_batch(DEFAULT_BATCH).ok();
            let n = batch.as_ref().map_or(0, |b| b.len() as u64);
            (batch, n)
        });
        let Some(batch) = batch.filter(|b| !b.is_empty()) else {
            break;
        };
        let records = batch.records();
        total += records.len() as u64;
        let admitted: Vec<Admitted> = tracer.span("telescope.admit", "admit", || {
            (
                records.iter().map(|r| pipeline.admit(r)).collect(),
                records.len() as u64,
            )
        });
        events += tracer.span("live.detector", "offer", || {
            let mut emitted = 0u64;
            let mut offers = 0u64;
            for (record, product) in records.iter().zip(admitted) {
                let bytes = record.wire_size() as u64;
                emitted += match product {
                    Admitted::Quic(obs) if obs.direction == Direction::Response => {
                        offers += 1;
                        detector
                            .offer_response(obs.ts, obs.src, obs.dst, bytes)
                            .len() as u64
                    }
                    Admitted::Baseline(rec) => {
                        offers += 1;
                        detector
                            .offer_baseline(rec.ts, rec.src, rec.dst, bytes)
                            .len() as u64
                    }
                    Admitted::Quic(_) | Admitted::Dropped => 0,
                };
            }
            (emitted, offers)
        });
    }
    events += tracer.span("live.detector", "finish", || {
        let tail = detector.finish();
        (tail.len() as u64, tail.len() as u64)
    });
    let staged_s = tracer.exit(root, total);
    checks.check(pipeline.stats().total == total, || {
        "staged live pass lost records".to_string()
    });

    let stats = detector.stats();
    let detector_s = tracer.busy_s("live.detector", from);
    Layers::from([
        ("live.detector.busy_s", detector_s),
        ("live.detector.offers", stats.events_in as f64),
        ("live.detector.events", events as f64),
        ("live.detector.evictions", stats.evictions as f64),
        ("live.detector.peak_tracked", stats.peak_tracked as f64),
        (
            "live.detector.ns_per_offer",
            ns_per(detector_s, stats.events_in),
        ),
        ("staged.live.decode_s", tracer.busy_s("net.decode", from)),
        (
            "staged.live.admit_s",
            tracer.busy_s("telescope.admit", from),
        ),
        ("staged.live.wall_s", staged_s),
    ])
}
