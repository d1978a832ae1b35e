//! The run: set up every workload's input, then interleaved rounds —
//! one round runs every workload's passes once — so that host drift
//! lands on all workloads alike.

use crate::host::{self, HostFingerprint};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::passes::{
    analyze_pass, live_pass, live_pass_with, AttackKey, Checks, LiveOptions, LiveOutcome,
};
use crate::quality::{score, Quality};
use crate::report::{
    ChecksReport, Fingerprint, Fingerprints, InputReport, MetricReport, Results, WorkloadReport,
};
use crate::staged::{staged_analyze, staged_live, Layers};
use crate::stats::percentile;
use crate::trace::{Span, Tracer};
use crate::workloads::{fnv1a64, generate, Context, Input, Size, Workload, DEFAULT_SEED};
use bytes::Bytes;
use quicsand_events::qlog::QlogWriter;
use quicsand_live::MultiSourceLive;
use quicsand_net::multi::{DynSource, SourceFactory, SourceSet, SourceSetConfig};
use quicsand_net::zerocopy::DEFAULT_BATCH;
use quicsand_net::{PacketRecord, StreamSource, ZeroCopyCaptureReader};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workloads, in round order.
    pub workloads: Vec<Workload>,
    /// Workload seed.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// Measuring time per workload and mode, seconds.
    pub seconds: f64,
    /// Make the untraced run (end-to-end metrics).
    pub end_to_end: bool,
    /// Make the traced run (per-layer metrics).
    pub traced: bool,
    /// Repository root (for the pinned fingerprints).
    pub root: PathBuf,
}

/// Rounds and repetitions at a size.
struct Shape {
    /// Set-ups per run: at least `setup_reps`, then more (up to
    /// `MAX_SETUP_REPS`) until they have taken `setup_fill_s` together,
    /// so a 70 ms set-up is not a median of five.
    setup_reps: usize,
    setup_fill_s: f64,
    warmup_rounds: usize,
    min_timed_rounds: usize,
    min_traced_rounds: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            setup_reps: 5,
            setup_fill_s: 1.5,
            warmup_rounds: 1,
            min_timed_rounds: 10,
            min_traced_rounds: 3,
        },
        Size::Quick => Shape {
            setup_reps: 1,
            setup_fill_s: 0.0,
            warmup_rounds: 0,
            min_timed_rounds: 1,
            min_traced_rounds: 1,
        },
    }
}

/// No run sets its workload up more often than this.
const MAX_SETUP_REPS: usize = 15;

/// Checkpoint cycles per round fill this much time.
const CHECKPOINT_BUDGET_MS: f64 = 100.0;

/// A checkpoint cycle at least this long is cycled in
/// `LARGE_CHECKPOINT_ROUNDS` only.
const LARGE_CHECKPOINT_MS: f64 = 500.0;

/// The timed rounds in which a seconds-long checkpoint is cycled.
const LARGE_CHECKPOINT_ROUNDS: [usize; 3] = [0, 3, 6];

/// One workload's state across the rounds.
struct Bench {
    workload: Workload,
    ctx: Context,
    input: Input,
    digest: u64,
    fingerprint: &'static str,
    checks: Checks,
    setup_s: Vec<f64>,
    analyze_s: Vec<f64>,
    live_s: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    peak_rss_mb: Option<f64>,
    quality: Option<Quality>,
    checkpoint_reps: u32,
    checkpoint_every_round: bool,
    layers: BTreeMap<&'static str, Vec<f64>>,
    chunk_ms: Vec<f64>,
    tracer: Tracer,
    feeds: Option<[Bytes; 2]>,
}

/// What a run produced: the report plus each workload's spans.
pub struct Outcome {
    /// `results.json` content.
    pub results: Results,
    /// Spans per workload name (traced run only).
    pub traces: BTreeMap<String, Vec<Span>>,
}

fn hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

impl Bench {
    /// Sets the workload up several times (the median is `setup_s`),
    /// keeps the last input, and checks its fingerprint.
    fn prepare(workload: Workload, plan: &Plan, pinned: Option<&Fingerprints>) -> Bench {
        let mut checks = Checks::default();
        let mut setup_s = Vec::new();
        let mut built: Option<(Context, Input, u64)> = None;
        let shape = shape(plan.size);
        while setup_s.len() < shape.setup_reps
            || (setup_s.len() < MAX_SETUP_REPS && setup_s.iter().sum::<f64>() < shape.setup_fill_s)
        {
            // One input resident at a time.
            let previous = built.take().map(|(_, _, digest)| digest);
            let start = Instant::now();
            let ctx = Context::new(workload, plan.seed, plan.size);
            let input = generate(workload, &ctx, plan.seed, plan.size);
            setup_s.push(start.elapsed().as_secs_f64());
            let digest = fnv1a64(&input.capture);
            if let Some(previous) = previous {
                checks.check(previous == digest, || {
                    format!(
                        "{}: the same seed gave two different inputs",
                        workload.name()
                    )
                });
            }
            built = Some((ctx, input, digest));
        }
        let (ctx, input, digest) = built.expect("at least one set-up");
        let fingerprint = if plan.seed != DEFAULT_SEED {
            "unpinned"
        } else {
            let expected = pinned
                .and_then(|p| p.inputs.get(plan.size.label()))
                .and_then(|inputs| inputs.get(workload.name()));
            let matches = expected
                .is_some_and(|pin| pin.records == input.records && pin.fnv1a64 == hex(digest));
            checks.check(matches, || {
                format!(
                    "{}: input {} records {} differs from the pinned {:?}",
                    workload.name(),
                    input.records,
                    hex(digest),
                    expected
                )
            });
            if matches {
                "pinned"
            } else {
                "mismatch"
            }
        };
        Bench {
            workload,
            ctx,
            input,
            digest,
            fingerprint,
            checks,
            setup_s,
            analyze_s: Vec::new(),
            live_s: Vec::new(),
            checkpoint_ms: Vec::new(),
            peak_rss_mb: None,
            quality: None,
            checkpoint_reps: 1,
            checkpoint_every_round: true,
            layers: BTreeMap::new(),
            chunk_ms: Vec::new(),
            tracer: Tracer::new(workload.name()),
            feeds: None,
        }
    }

    fn name(&self) -> &'static str {
        self.workload.name()
    }

    /// Checks that hold for every pair of passes over this input.
    fn check_pair(&mut self, batch: &[AttackKey], ingest_total: u64, live: &LiveOutcome) {
        let name = self.name();
        let records = self.input.records;
        self.checks.check(ingest_total == records, || {
            format!("{name}: analyze ingested {ingest_total} of {records} records")
        });
        self.checks.check(live.closed == batch, || {
            format!(
                "{name}: live closed {} attacks, batch detected {}, or their fields differ",
                live.closed.len(),
                batch.len()
            )
        });
    }

    /// The first, untimed round: every check, including the expensive
    /// ones, plus detection quality and the checkpoint calibration.
    fn verify_round(&mut self) {
        let name = self.name();
        let batch = analyze_pass(&mut self.ctx, &self.input.capture, 1, &mut self.checks);
        let live = live_pass(
            &self.ctx,
            &self.input.capture,
            self.input.records,
            LiveOptions {
                shards: 1,
                checkpoint_reps: 1,
                check_resume: true,
            },
            &mut self.checks,
        );
        self.check_pair(&batch.attacks, batch.ingest.total, &live);
        self.checks.check(live.resume_equal == Some(true), || {
            format!("{name}: the engine restored at the half-way checkpoint closed other attacks")
        });
        self.checks.check(live.ingest == batch.ingest, || {
            format!("{name}: live and batch ingest counters differ")
        });
        let candidates = batch.ingest.quic_candidates;
        match self.workload {
            Workload::SynackStream | Workload::VictimChurn => {
                self.checks.check(candidates == 0, || {
                    format!("{name}: {candidates} QUIC candidates in a TCP-only workload")
                });
            }
            Workload::QuicHeavy => {
                let share = candidates as f64 / batch.ingest.total.max(1) as f64;
                self.checks.check(share >= 0.9, || {
                    format!("{name}: only {share:.3} of records are QUIC candidates")
                });
            }
            Workload::TelescopeMix | Workload::HostileMix => {}
        }
        if self.workload == Workload::VictimChurn {
            let stats = live.stats;
            let cap = self.ctx.live.max_victims;
            self.checks
                .check(stats.evictions > 0, || format!("{name}: no LRU evictions"));
            self.checks.check(stats.peak_tracked <= cap, || {
                format!("{name}: tracked {} victims, cap {cap}", stats.peak_tracked)
            });
        }
        if let Some(faults) = self.input.faults {
            // The clean stream under the faults has nothing the pipeline
            // rejects, so the injector's oracle is the whole table.
            let expected = faults.expected_quarantine();
            for (pass, got) in [("analyze", &batch.ingest), ("live", &live.ingest)] {
                self.checks.check(got.quarantine == expected, || {
                    format!(
                        "{name}: {pass} quarantine {:?} != fault oracle {:?}",
                        got.quarantine.as_table(),
                        expected.as_table()
                    )
                });
            }
            self.checks
                .check(faults.emitted_records == self.input.records, || {
                    format!(
                        "{name}: injector emitted {} records",
                        faults.emitted_records
                    )
                });
        }
        self.quality = Some(score(&self.input.planted, &live.closed, &live.opened));
        // A small snapshot is cycled for ~100 ms in every round, so the
        // fastest cycle is picked from a hundred or so; a large one
        // (victim_churn: seconds) is cycled once in three rounds only,
        // so the rest of the run goes to passes. The line between the
        // two is far from both (tens of milliseconds against seconds):
        // a calibrating cycle that a busy host stretches must not move a
        // workload across it, which would leave it three samples.
        let cycle_ms = live.checkpoint.total_ms().max(1e-3);
        self.checkpoint_every_round = cycle_ms < LARGE_CHECKPOINT_MS;
        self.checkpoint_reps = if self.checkpoint_every_round {
            ((CHECKPOINT_BUDGET_MS / cycle_ms).ceil() as u32).clamp(2, 64)
        } else {
            1
        };
        eprintln!(
            "[benchmark] {name}: checkpoint cycle {cycle_ms:.1} ms, {} per round, {}",
            self.checkpoint_reps,
            if self.checkpoint_every_round {
                "every round".to_string()
            } else {
                format!("rounds {LARGE_CHECKPOINT_ROUNDS:?}")
            }
        );
    }

    /// One untraced round: a batch pass and a live pass. `round` is the
    /// timed round's index; warm-up rounds pass `None` and record nothing.
    fn timed_round(&mut self, round: Option<usize>) {
        let checkpoint = round.is_some_and(|round| {
            self.checkpoint_every_round || LARGE_CHECKPOINT_ROUNDS.contains(&round)
        });
        let batch = analyze_pass(&mut self.ctx, &self.input.capture, 1, &mut self.checks);
        let live = live_pass(
            &self.ctx,
            &self.input.capture,
            self.input.records,
            LiveOptions {
                shards: 1,
                checkpoint_reps: if checkpoint { self.checkpoint_reps } else { 0 },
                check_resume: false,
            },
            &mut self.checks,
        );
        self.check_pair(&batch.attacks, batch.ingest.total, &live);
        if round.is_some() {
            self.analyze_s.push(batch.wall_s);
            self.live_s.push(live.wall_s);
        }
        if checkpoint {
            self.checkpoint_ms.push(live.checkpoint.total_ms());
        }
    }

    /// Peak resident set of a child process that receives the capture
    /// bytes on its standard input and makes one batch and one live pass.
    fn measure_rss(&mut self, plan: &Plan) {
        let name = self.name();
        let measured = rss_of_child(self.workload, plan, &self.input.capture);
        self.checks.check(measured.is_ok(), || {
            format!("{name}: memory child failed: {:?}", measured.as_ref().err())
        });
        self.peak_rss_mb = measured.ok();
    }

    /// One traced round: the untraced references, the staged passes and
    /// the single-layer measurements.
    fn traced_round(&mut self) {
        let name = self.name();
        let records = self.input.records;
        let capture = self.input.capture.clone();
        let mut round = Layers::new();

        // Untraced references, measured in this same round.
        let batch = analyze_pass(&mut self.ctx, &capture, 1, &mut self.checks);
        let live = live_pass(
            &self.ctx,
            &capture,
            records,
            LiveOptions {
                shards: 1,
                checkpoint_reps: 1,
                check_resume: false,
            },
            &mut self.checks,
        );
        self.check_pair(&batch.attacks, batch.ingest.total, &live);

        let (staged, staged_attacks) =
            staged_analyze(&self.ctx, &capture, &mut self.tracer, &mut self.checks);
        self.checks.check(staged_attacks == batch.attacks, || {
            format!("{name}: the staged batch pass detected other attacks than Analysis::run")
        });
        let staged_sum = staged["staged.analyze.layer_sum_s"];
        round.extend(staged);
        round.insert("core.analysis.wall_s", batch.wall_s);
        round.insert(
            "core.analysis.residue_share",
            (staged_sum - batch.wall_s).abs() / batch.wall_s,
        );

        let staged = staged_live(&self.ctx, &capture, &mut self.tracer, &mut self.checks);
        let staged_live_sum = staged["staged.live.decode_s"]
            + staged["staged.live.admit_s"]
            + staged["live.detector.busy_s"];
        round.extend(staged);
        round.insert("live.engine.wall_s", live.wall_s);
        round.insert("live.engine.overhead_s", live.wall_s - staged_live_sum);
        round.insert("live.engine.chunks", live.chunk_ms.len() as f64);
        self.chunk_ms.extend(&live.chunk_ms);
        round.insert("live.snapshot.snapshot_ms", live.checkpoint.snapshot_ms);
        round.insert("live.snapshot.serialize_ms", live.checkpoint.serialize_ms);
        round.insert("live.snapshot.parse_ms", live.checkpoint.parse_ms);
        round.insert("live.snapshot.restore_ms", live.checkpoint.restore_ms);
        round.insert("live.snapshot.bytes", live.checkpoint.bytes as f64);
        round.insert("obs.export.render_ms", live.render_ms);
        round.insert("obs.export.series", live.registry_series as f64);

        // Two threads / two shards: not end-to-end metrics on a 2-core
        // host, where they move 15-50 % between identical sets.
        let threads2 = analyze_pass(&mut self.ctx, &capture, 2, &mut self.checks);
        self.checks.check(threads2.attacks == batch.attacks, || {
            format!("{name}: threads=2 detected other attacks than threads=1")
        });
        round.insert(
            "core.analysis.threads2_rps",
            records as f64 / threads2.wall_s,
        );
        round.insert(
            "core.analysis.threads2_speedup",
            batch.wall_s / threads2.wall_s,
        );

        let cpu_before = host::cpu_seconds();
        let sharded = live_pass(
            &self.ctx,
            &capture,
            records,
            LiveOptions {
                shards: 2,
                checkpoint_reps: 0,
                check_resume: false,
            },
            &mut self.checks,
        );
        let cpu_s = match (cpu_before, host::cpu_seconds()) {
            (Some(before), Some(after)) => after - before,
            _ => 0.0,
        };
        self.checks.check(sharded.closed == live.closed, || {
            format!("{name}: 2 shards closed other attacks than 1 shard")
        });
        round.insert("live.engine.sharded_rps", records as f64 / sharded.wall_s);
        round.insert("live.engine.sharded_speedup", live.wall_s / sharded.wall_s);
        round.insert(
            "live.engine.sharded_cpu_ns_per_record",
            cpu_s * 1e9 / records.max(1) as f64,
        );

        // Two feeds: merge alone, then merge feeding one shard.
        let feeds = self
            .feeds
            .get_or_insert_with(|| split_feeds(&capture))
            .clone();
        let start = Instant::now();
        let mut set = SourceSet::spawn(feed_factories(&feeds), &SourceSetConfig::default());
        let mut merged = 0u64;
        while let Ok(chunk) = set.pull_chunk(DEFAULT_BATCH) {
            if chunk.is_empty() {
                break;
            }
            merged += chunk.len() as u64;
            std::hint::black_box(&chunk);
        }
        let merge_s = start.elapsed().as_secs_f64();
        let stats = set.stats();
        drop(set);
        self.checks.check(merged == records, || {
            format!("{name}: the 2-feed merge delivered {merged} of {records} records")
        });
        round.insert("net.multi.merge_rps", records as f64 / merge_s);
        round.insert(
            "net.multi.queue_peak",
            stats.iter().map(|s| s.queue_peak).max().unwrap_or(0) as f64,
        );
        round.insert(
            "net.multi.batches",
            stats.iter().map(|s| s.batches).sum::<u64>() as f64,
        );

        let start = Instant::now();
        let set = SourceSet::spawn(feed_factories(&feeds), &SourceSetConfig::default());
        let mut multi = MultiSourceLive::new(self.ctx.live, self.ctx.guard, 1, set);
        while multi.pump(DEFAULT_BATCH).is_some() {}
        multi.finish();
        let verified = multi.verify_metrics();
        let multi_s = start.elapsed().as_secs_f64();
        self.checks.check(verified.is_ok(), || {
            format!(
                "{name}: multi-source verify_metrics: {:?}",
                verified.as_ref().err()
            )
        });
        self.checks.check(multi.offered() == records, || {
            format!(
                "{name}: multi-source offered {} of {records}",
                multi.offered()
            )
        });
        drop(multi);
        round.insert("live.multi.rps", records as f64 / multi_s);
        round.insert("live.multi.fanin_ratio", live.wall_s / multi_s);

        // The typed-event stream on, against the same pass with it off.
        let (mut qlog, _buffer) =
            QlogWriter::to_buffer("benchmark", &[name.to_string()]).expect("in-memory qlog");
        let logged = live_pass_with(
            &self.ctx,
            &capture,
            records,
            LiveOptions {
                shards: 1,
                checkpoint_reps: 0,
                check_resume: false,
            },
            &mut self.checks,
            &mut qlog,
        );
        round.insert("events.qlog.events", qlog.events_written() as f64);
        round.insert("events.qlog.bytes", qlog.bytes_written() as f64);
        round.insert(
            "events.qlog.overhead_share",
            (logged.wall_s - live.wall_s) / live.wall_s,
        );

        for (metric, value) in round {
            self.layers.entry(metric).or_default().push(value);
        }
    }

    fn report(&self, plan: &Plan, jitter_share: f64) -> WorkloadReport {
        let records = self.input.records as f64;
        let mut end_to_end = BTreeMap::new();
        if plan.end_to_end {
            let quality = self
                .quality
                .expect("the verifying round scores detection quality");
            let rate =
                |seconds: &[f64]| -> Vec<f64> { seconds.iter().map(|s| records / s).collect() };
            let samples: [(&str, Vec<f64>); 8] = [
                ("setup_s", self.setup_s.clone()),
                ("analyze_rps", rate(&self.analyze_s)),
                ("live_rps", rate(&self.live_s)),
                ("checkpoint_ms", self.checkpoint_ms.clone()),
                ("peak_rss_mb", self.peak_rss_mb.into_iter().collect()),
                ("flood_recall", vec![quality.recall]),
                ("flood_precision", vec![quality.precision]),
                ("time_to_detect_s", vec![quality.time_to_detect_s]),
            ];
            debug_assert!(samples
                .iter()
                .map(|(n, _)| *n)
                .eq(END_TO_END.iter().map(|(n, _, _)| *n)));
            for (metric, values) in samples {
                end_to_end.insert(metric.to_string(), MetricReport::of(metric, &values));
            }
        }
        let mut per_layer = BTreeMap::new();
        if plan.traced {
            for (metric, _) in PER_LAYER {
                let report = match *metric {
                    "live.engine.chunk_p50_ms" => {
                        MetricReport::of(metric, &[percentile(&self.chunk_ms, 50.0)])
                    }
                    "live.engine.chunk_p99_ms" => {
                        MetricReport::of(metric, &[percentile(&self.chunk_ms, 99.0)])
                    }
                    "host.jitter_share" => MetricReport::of(metric, &[jitter_share]),
                    "host.cores" => MetricReport::of(metric, &[host::cores() as f64]),
                    _ => MetricReport::of(
                        metric,
                        self.layers.get(metric).map_or(&[][..], Vec::as_slice),
                    ),
                };
                per_layer.insert(metric.to_string(), report);
            }
        }
        WorkloadReport {
            input: InputReport {
                records: self.input.records,
                input_mb: self.input.capture.len() as f64 / (1024.0 * 1024.0),
                fnv1a64: hex(self.digest),
                fingerprint: self.fingerprint.to_string(),
                planted_floods: self.input.planted.len() as u64,
            },
            checks: ChecksReport {
                attempted: self.checks.attempted,
                failed: self.checks.failed,
                failed_share: self.checks.failed_share(),
                failures: self.checks.failures.clone(),
            },
            end_to_end,
            per_layer,
        }
    }
}

/// Round-robin halves of a capture, re-encoded: the two feeds of the
/// multi-source measurements.
fn split_feeds(capture: &Bytes) -> [Bytes; 2] {
    let records = ZeroCopyCaptureReader::from_bytes(capture.clone())
        .and_then(|mut reader| reader.read_to_end())
        .unwrap_or_default();
    let mut halves: [Vec<PacketRecord>; 2] = [Vec::new(), Vec::new()];
    for (index, record) in records.into_iter().enumerate() {
        halves[index % 2].push(record);
    }
    halves.map(|half| {
        Bytes::from(quicsand_net::capture::to_bytes(&half).expect("in-memory capture write"))
    })
}

fn feed_factories(feeds: &[Bytes; 2]) -> Vec<Box<dyn SourceFactory>> {
    feeds
        .iter()
        .cloned()
        .map(|feed| {
            Box::new(move || {
                ZeroCopyCaptureReader::from_bytes(feed.clone())
                    .map(|reader| Box::new(reader) as DynSource)
            }) as Box<dyn SourceFactory>
        })
        .collect()
}

fn rss_of_child(workload: Workload, plan: &Plan, capture: &Bytes) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["rss-child", "--workload", workload.name()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--size", plan.size.label()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    // The child reads everything before it writes anything, so writing
    // then reading cannot deadlock.
    let sent = child
        .stdin
        .take()
        .ok_or("no child stdin".to_string())
        .and_then(|mut stdin| {
            stdin
                .write_all(&(capture.len() as u64).to_le_bytes())
                .and_then(|()| stdin.write_all(capture))
                .map_err(|e| e.to_string())
        });
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    sent?;
    if !output.status.success() {
        return Err(format!("memory child exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let kb: f64 = text
        .trim()
        .parse()
        .map_err(|_| format!("memory child printed {text:?}"))?;
    Ok(kb / 1024.0)
}

/// The `rss-child` subcommand: read the capture from standard input,
/// make one batch and one live pass, print this process's `VmHWM` (KiB).
pub fn rss_child(workload: Workload, seed: u64, size: Size) -> Result<(), String> {
    let mut stdin = std::io::stdin().lock();
    let mut length = [0u8; 8];
    stdin.read_exact(&mut length).map_err(|e| e.to_string())?;
    let mut capture = vec![0u8; u64::from_le_bytes(length) as usize];
    stdin.read_exact(&mut capture).map_err(|e| e.to_string())?;
    let capture = Bytes::from(capture);
    let mut ctx = Context::new(workload, seed, size);
    let mut checks = Checks::default();
    let batch = analyze_pass(&mut ctx, &capture, 1, &mut checks);
    let live = live_pass(
        &ctx,
        &capture,
        batch.ingest.total,
        LiveOptions {
            shards: 1,
            checkpoint_reps: 0,
            check_resume: false,
        },
        &mut checks,
    );
    if checks.failed > 0 || live.closed != batch.attacks {
        return Err(format!(
            "memory child: checks failed: {:?}",
            checks.failures
        ));
    }
    let kb = host::vm_hwm_kb().ok_or("no VmHWM in /proc/self/status")?;
    println!("{kb}");
    Ok(())
}

/// Generates every workload's input once and returns its fingerprint:
/// what `benchmark fingerprint` pins for the default seed.
pub fn fingerprints(seed: u64) -> Fingerprints {
    let mut inputs = BTreeMap::new();
    for size in [Size::Full, Size::Quick] {
        let per_workload = Workload::ALL
            .into_iter()
            .map(|workload| {
                let ctx = Context::new(workload, seed, size);
                let input = generate(workload, &ctx, seed, size);
                let fingerprint = Fingerprint {
                    records: input.records,
                    fnv1a64: hex(fnv1a64(&input.capture)),
                };
                (workload.name().to_string(), fingerprint)
            })
            .collect();
        inputs.insert(size.label().to_string(), per_workload);
    }
    Fingerprints { seed, inputs }
}

/// Executes a plan.
pub fn execute(plan: &Plan) -> Outcome {
    let shape = shape(plan.size);
    let pinned = Fingerprints::load(&plan.root).ok();
    let mut benches: Vec<Bench> = plan
        .workloads
        .iter()
        .map(|&workload| {
            eprintln!("[benchmark] setting up {}", workload.name());
            Bench::prepare(workload, plan, pinned.as_ref())
        })
        .collect();
    let budget_s = plan.seconds * benches.len() as f64;
    let mut jitter_ms = Vec::new();

    if plan.end_to_end {
        for bench in &mut benches {
            bench.measure_rss(plan);
            bench.verify_round();
        }
        for _ in 0..shape.warmup_rounds {
            for bench in &mut benches {
                bench.timed_round(None);
            }
        }
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < shape.min_timed_rounds || start.elapsed().as_secs_f64() < budget_s {
            jitter_ms.push(host::jitter_probe_ms());
            for bench in &mut benches {
                bench.timed_round(Some(rounds));
            }
            rounds += 1;
        }
        eprintln!(
            "[benchmark] {rounds} timed rounds in {:.1} s",
            start.elapsed().as_secs_f64()
        );
    }
    if plan.traced {
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < shape.min_traced_rounds || start.elapsed().as_secs_f64() < budget_s {
            jitter_ms.push(host::jitter_probe_ms());
            for bench in &mut benches {
                bench.traced_round();
            }
            rounds += 1;
        }
        eprintln!(
            "[benchmark] {rounds} traced rounds in {:.1} s",
            start.elapsed().as_secs_f64()
        );
    }

    let jitter_share = host::jitter_share(&jitter_ms);
    let workloads = benches
        .iter()
        .map(|bench| (bench.name().to_string(), bench.report(plan, jitter_share)))
        .collect();
    let traces = benches
        .into_iter()
        .filter(|_| plan.traced)
        .map(|bench| (bench.name().to_string(), bench.tracer.into_spans()))
        .collect();
    Outcome {
        results: Results {
            schema: 1,
            seed: plan.seed,
            size: plan.size.label().to_string(),
            host: HostFingerprint::read(&plan.root),
            jitter_share,
            noisy: jitter_share > host::NOISY_JITTER,
            workloads,
        },
        traces,
    }
}

/// Writes `results.json` and one `trace-<workload>.json` per traced
/// workload into `dir`.
pub fn write_outputs(outcome: &Outcome, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: String, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let results = serde_json::to_string_pretty(&outcome.results).map_err(|e| e.to_string())?;
    write("results.json".to_string(), results)?;
    for (workload, spans) in &outcome.traces {
        let spans = serde_json::to_string(spans).map_err(|e| e.to_string())?;
        write(format!("trace-{workload}.json"), spans)?;
    }
    Ok(())
}
