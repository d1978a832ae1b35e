//! `quicsand` — command-line front end for the QUICsand reproduction.
//!
//! ```text
//! quicsand generate --out capture.qscp [--scale test|demo|paper] [--seed N]
//! quicsand analyze <capture.qscp> [--threads N] [--verbose]
//! quicsand live <capture.qscp> [--shards N] [--checkpoint-every N] [--alert-format text|json]
//! quicsand replay --pps 1000 [--requests 300001] [--workers 4] [--retry|--adaptive 0.5]
//! quicsand experiments [--scale test|demo|paper]
//! ```

use quicsand_core::{Analysis, AnalysisConfig, AnalysisDriver};
use quicsand_events::qlog::QlogWriter;
use quicsand_events::Subscriber;
use quicsand_faults::{FaultPlan, FaultProfile};
use quicsand_net::capture::CaptureWriter;
use quicsand_net::zerocopy::BULK_BATCH;
use quicsand_net::{PacketRecord, ZeroCopyCaptureReader};
use quicsand_obs::{publish_peak_rss, EventsMetrics};
use quicsand_sessions::multivector::MultiVectorClass;
use quicsand_sessions::Cdf;
use quicsand_traffic::{Scenario, ScenarioConfig, ScenarioKind};
use std::io::BufWriter;
use std::process::ExitCode;

type Command = fn(&[String]) -> Result<(), String>;

/// Every subcommand with the flags it defines: those followed by a value,
/// then the bare switches. Anything else that looks like a flag is
/// rejected before the command runs, so a typo (`--thread 1`) fails
/// instead of silently running with the default.
const COMMANDS: &[(&str, Command, &[&str], &[&str])] = &[
    (
        "generate",
        cmd_generate,
        &["--out", "--scale", "--seed", "--scenario"],
        &[],
    ),
    (
        "analyze",
        cmd_analyze,
        &[
            "--threads",
            "--fault-profile",
            "--fault-seed",
            "--metrics-out",
            "--events-out",
            "--scale",
            "--seed",
        ],
        &["--verbose"],
    ),
    (
        "metrics",
        cmd_metrics,
        &[
            "--format",
            "--threads",
            "--fault-profile",
            "--fault-seed",
            "--scale",
            "--seed",
        ],
        &["--stable-only"],
    ),
    (
        "live",
        cmd_live,
        &[
            "--input",
            "--window",
            "--weight",
            "--escalate",
            "--shards",
            "--chunk",
            "--source-rate",
            "--source-queue",
            "--source-batch",
            "--max-victims",
            "--evidence-ring",
            "--checkpoint-every",
            "--alert-format",
            "--metrics-out",
            "--events-out",
        ],
        &["--verbose"],
    ),
    (
        "replay",
        cmd_replay,
        &["--pps", "--requests", "--workers", "--adaptive"],
        &["--retry"],
    ),
    ("export", cmd_export, &["--pcap"], &[]),
    (
        "forensics",
        cmd_forensics,
        &[
            "--out",
            "--window",
            "--weight",
            "--shards",
            "--chunk",
            "--evidence-ring",
        ],
        &["--replay"],
    ),
    (
        "experiments",
        cmd_experiments,
        &["--scale", "--seed", "--threads"],
        &[],
    ),
];

/// Whether `flag` is followed by a value. A flag name means the same in
/// every command that has it, so the lookup needs no command.
fn takes_value(flag: &str) -> bool {
    COMMANDS
        .iter()
        .any(|(_, _, valued, _)| valued.contains(&flag))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let rest = &args[1..];
    let result = match COMMANDS.iter().find(|(name, ..)| name == command) {
        None => Err(format!("unknown command `{command}`\n{USAGE}")),
        Some((_, run, valued, switches)) => match rest.iter().find(|a| {
            a.starts_with("--") && !valued.contains(&a.as_str()) && !switches.contains(&a.as_str())
        }) {
            Some(flag) => Err(format!("unknown flag `{flag}` for `{command}`")),
            None => run(rest),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
quicsand — QUIC scan & DoS-flood measurement toolkit (IMC'21 reproduction)

USAGE:
    quicsand generate --out <file.qscp> [--scale test|demo|paper] [--seed N]
                      [--scenario migration-abuse|evolving-scanners|
                                  version-drift|retry-amplification]
        Generate a synthetic telescope capture and write it to disk.
        --scenario layers a post-2021 workload variant on top of the
        baseline: connection-migration abuse (stable-CID flows that
        switch source address mid-session), evolving aggressive
        scanners (cadence and coverage grow week over week), version
        drift (draft retirement -> v1 -> v2 with Version Negotiation
        backscatter), or Retry amplification (victims answer spoofed
        Initials with varied-token Retry packets).

    quicsand analyze <file.qscp> [--threads N] [--verbose]
                     [--fault-profile none|standard|aggressive] [--fault-seed N]
                     [--metrics-out <file>] [--events-out <file.qlog>]
                     [--scale test|demo|paper] [--seed N]
        Run the sessionization + DoS-inference pipeline on a capture.
        --scale and --seed name the `generate` preset the capture came
        from, so AS/provider lookups see the same synthetic Internet
        (default: test preset, its own seed).
        --threads shards ingest+sessionization by source across N
        workers (default: all cores); results are identical at any N.
        --verbose adds a per-stage walltime breakdown.
        --fault-profile injects a seeded adversarial fault mix
        (truncation, corrupt versions, duplicates, clock skew, ...)
        into the record stream before ingest, to exercise the
        quarantine path; --fault-seed varies the mix (default 0xF4017).
        --metrics-out writes the full metrics registry (counters,
        gauges, histograms — including volatile walltimes) as
        canonical JSON after verifying it reconciles with the
        pipeline's stats.
        --events-out mirrors the run as a typed event stream in qlog
        0.4 JSON-SEQ (RFC 7464) — wire rejections, Retry/VN
        sightings, session lifecycle — via a single-threaded forensic
        re-pass, so the stream is identical at any --threads. An
        unwritable path fails before the pipeline runs.

    quicsand metrics <file.qscp> [--format prometheus|json] [--threads N]
                     [--fault-profile ...] [--fault-seed N] [--stable-only]
                     [--scale test|demo|paper] [--seed N]
        Run the same pipeline and print only the metrics registry to
        stdout — Prometheus text exposition by default, canonical JSON
        with --format json. --stable-only drops volatile series
        (walltimes, thread counts), leaving exactly the
        trace-deterministic subset.

    quicsand live [file.qscp] [--input <file.qscp>]... [--window MINS]
                  [--weight W] [--escalate W] [--shards N] [--chunk N]
                  [--source-rate N] [--source-queue N] [--source-batch N]
                  [--max-victims N] [--evidence-ring N]
                  [--checkpoint-every N] [--alert-format text|json]
                  [--metrics-out <file>] [--events-out <file.qlog>]
                  [--verbose]
        Stream one or more captures through the live flood-detection
        engine and print alert lifecycle events (OPEN / ESCALATE /
        CLOSE / RECLASSIFY) as they fire. Each --input adds a feed;
        feeds run concurrently behind bounded queues and are merged in
        event-time order, so alerts are identical to a single merged
        capture at any source count. An empty feed is drained and
        counted, not fatal; a feed that fails mid-run reconnects and
        resumes. --window sets the sessionization timeout; --weight
        scales the Moore thresholds; --escalate sets the escalation
        tier multiplier; --shards runs per-source detector shards
        (alerts are identical at any N); --source-rate paces each feed
        (records/s); --source-queue bounds each feed's queue (records);
        --source-batch sets the per-feed transfer batch target
        (records; batches never change the merged order);
        --max-victims caps tracked victims per channel (LRU eviction);
        --checkpoint-every N snapshots engine + per-source cursors
        every N records (schema v2; v1 engine-only checkpoints still
        restore), round-trips through JSON, and resumes every feed
        from the restored copy — proving the checkpoint is lossless
        mid-run. --metrics-out writes the engine's metrics registry as
        canonical JSON after the run (stable series survive
        checkpoint/restore unchanged). --evidence-ring N keeps the
        last N packets of every alert that closes as replayable
        forensics (default 16). --events-out writes the
        typed event stream (wire rejections, Retry/VN sightings,
        alert lifecycle) as qlog 0.4 JSON-SEQ with one vantage entry
        per feed; record-tied events are identical at any --shards
        and every event's timestamp comes from the trace, and an
        unwritable path fails before any feed is opened.

    quicsand replay --pps <rate> [--requests N] [--workers N]
                    [--retry | --adaptive <occupancy>]
        Flood the local QUIC server model (Table 1 style) and report
        service availability.

    quicsand export <file.qscp> --pcap <file.pcap>
        Convert a capture to classic libpcap (raw-IP linktype) for
        inspection in Wireshark.

    quicsand forensics <file.qscp> [--out <dir>] [--replay]
                       [--window MINS] [--weight W] [--shards N]
                       [--chunk N] [--evidence-ring N]
        Run the live engine over a capture and export every closed
        QUIC alert as a self-contained replayable qlog slice
        (alert-<i>.qlog under --out, default `forensics/`): config,
        per-minute arrival profile, evidence ring, and the correlated
        common-channel floods. --replay feeds each exported slice
        back through a fresh detector and fails unless it reproduces
        the identical closed alert and multi-vector verdict.

    quicsand forensics check <file.qlog>
        Validate a qlog file's RFC 7464 JSON-SEQ framing and header,
        and print a record/event summary.

    quicsand experiments [--scale test|demo|paper] [--seed N] [--threads N]
        Regenerate every paper table/figure and print the reports.";

/// The value following the occurrence of `name` at `args[i]`: an error
/// when it is missing or looks like another flag (`--out --scale` used
/// to happily write a file named `--scale`).
fn value_after<'a>(args: &'a [String], i: usize, name: &str) -> Result<&'a str, String> {
    debug_assert!(takes_value(name), "{name} is not a valued flag in COMMANDS");
    match args.get(i + 1) {
        Some(value) if value.starts_with("--") => Err(format!(
            "flag {name} expects a value, but got the flag `{value}`"
        )),
        Some(value) => Ok(value.as_str()),
        None => Err(format!("flag {name} is missing its value")),
    }
}

/// Looks up the value following `name`: `Ok(None)` when the flag is
/// absent, an error when it is present without a usable value.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    args.iter()
        .position(|a| a == name)
        .map(|i| value_after(args, i, name))
        .transpose()
}

/// Collects every value of a repeatable flag (`--input a --input b`),
/// with the same flag-shaped-value rejection as [`flag_value`].
fn flag_values<'a>(args: &'a [String], name: &str) -> Result<Vec<&'a str>, String> {
    args.iter()
        .enumerate()
        .filter(|(_, arg)| *arg == name)
        .map(|(i, _)| value_after(args, i, name))
        .collect()
}

/// Parses the value of `name` when the flag is given, rejecting one that
/// does not parse as `T` or lies below `min` with
/// ``invalid {name} `{value}`{hint}``.
fn flag_parsed<T: std::str::FromStr + PartialOrd>(
    args: &[String],
    name: &str,
    min: Option<T>,
    hint: &str,
) -> Result<Option<T>, String> {
    flag_value(args, name)?
        .map(|v| {
            v.parse::<T>()
                .ok()
                .filter(|n| min.as_ref().is_none_or(|min| n >= min))
                .ok_or_else(|| format!("invalid {name} `{v}`{hint}"))
        })
        .transpose()
}

/// The hint shared by the count-valued flags.
const AT_LEAST_ONE: &str = " (want an integer >= 1)";

/// Parses a threshold weight (`--weight`, `--escalate`), `default` when
/// the flag is absent. The detection thresholds are multiplied by it, so
/// only a finite weight above zero means anything: NaN or infinity would
/// let no session qualify, zero or less every one.
fn weight_flag(args: &[String], name: &str, default: f64) -> Result<f64, String> {
    flag_value(args, name)?.map_or(Ok(default), |v| {
        v.parse::<f64>()
            .ok()
            .filter(|w| w.is_finite() && *w > 0.0)
            .ok_or_else(|| format!("invalid {name} `{v}` (want a finite number > 0)"))
    })
}

fn has_flag(args: &[String], name: &str) -> bool {
    debug_assert!(!takes_value(name), "{name} is a valued flag in COMMANDS");
    args.iter().any(|a| a == name)
}

/// Builds the `AnalysisConfig`, honouring `--threads N`.
fn analysis_config(args: &[String]) -> Result<AnalysisConfig, String> {
    let mut config = AnalysisConfig::default();
    if let Some(threads) = flag_parsed(args, "--threads", Some(1), AT_LEAST_ONE)? {
        config.threads = threads;
    }
    Ok(config)
}

/// Builds a [`FaultPlan`] from `--fault-profile` / `--fault-seed`.
///
/// `Ok(None)` when no profile is requested; `--fault-seed` without a
/// profile is rejected rather than silently ignored.
fn fault_plan(args: &[String]) -> Result<Option<FaultPlan>, String> {
    let profile = flag_value(args, "--fault-profile")?;
    let seed = flag_value(args, "--fault-seed")?;
    let Some(profile) = profile else {
        if seed.is_some() {
            return Err("--fault-seed requires --fault-profile".into());
        }
        return Ok(None);
    };
    let profile: FaultProfile = profile.parse()?;
    let seed: u64 = flag_parsed(args, "--fault-seed", None, " (want a u64)")?.unwrap_or(0xF4017);
    Ok(Some(FaultPlan::new(profile, seed)))
}

fn scale_config(args: &[String]) -> Result<ScenarioConfig, String> {
    let mut config = match flag_value(args, "--scale")?.unwrap_or("test") {
        "test" => ScenarioConfig::test(),
        "demo" => ScenarioConfig::demo(),
        "paper" => ScenarioConfig::paper_month(),
        other => return Err(format!("unknown scale `{other}`")),
    };
    if let Some(seed) = flag_value(args, "--seed")? {
        config.seed = seed.parse().map_err(|_| format!("invalid seed `{seed}`"))?;
    }
    Ok(config)
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let out = flag_value(args, "--out")?.ok_or("generate requires --out <file>")?;
    let config = scale_config(args)?;
    let kind = flag_value(args, "--scenario")?
        .map(|s| s.parse::<ScenarioKind>().map_err(|e| e.to_string()))
        .transpose()?;
    match kind {
        Some(kind) => eprintln!(
            "generating {kind} scenario (seed {:#x}, {} days)...",
            config.seed, config.days
        ),
        None => eprintln!(
            "generating scenario (seed {:#x}, {} days)...",
            config.seed, config.days
        ),
    }
    let scenario = match kind {
        Some(kind) => kind.generate(&config),
        None => Scenario::generate(&config),
    };
    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut writer =
        CaptureWriter::new(BufWriter::new(file)).map_err(|e| format!("write header: {e}"))?;
    for record in &scenario.records {
        writer
            .write(record)
            .map_err(|e| format!("write record: {e}"))?;
    }
    writer.finish().map_err(|e| format!("flush: {e}"))?;
    println!(
        "wrote {} records to {out} ({} QUIC floods planted against {} victims)",
        scenario.records.len(),
        scenario.truth.plan.quic.len(),
        scenario.truth.plan.victims.len()
    );
    Ok(())
}

/// First positional argument: not a flag, and not the value of a flag
/// that takes one (a switch such as `--verbose` has none to skip).
fn positional(args: &[String]) -> Option<&String> {
    args.iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && (*i == 0 || !takes_value(&args[*i - 1])))
        .map(|(_, a)| a)
}

/// Streams the rest of `reader` to `sink` in slices of `batch` records —
/// through `plan`, record by record, when fault injection was asked for
/// — and returns how many records were read. Nothing outlives its slice.
fn stream_capture(
    mut reader: ZeroCopyCaptureReader,
    batch: usize,
    mut plan: Option<&mut FaultPlan>,
    mut sink: impl FnMut(&[PacketRecord]),
) -> Result<u64, String> {
    let mut faulted = Vec::new();
    loop {
        let decoded = reader
            .read_batch(batch)
            .map_err(|e| format!("read records: {e}"))?;
        if decoded.is_empty() {
            return Ok(reader.records_read());
        }
        match plan.as_deref_mut() {
            None => sink(decoded.records()),
            Some(plan) => {
                faulted.clear();
                for record in decoded.records() {
                    plan.corrupt_into(record, &mut faulted);
                }
                sink(&faulted);
            }
        }
    }
}

/// Streams the capture at the positional path through the batch
/// pipeline in [`BULK_BATCH`]-record slices, applying any requested
/// fault plan on the way, and verifies that the exported metrics
/// reconcile with the pipeline stats — shared by `analyze` and
/// `metrics`. Progress goes to stderr so stdout stays clean for the
/// caller's own output. An enabled `subscriber` (`--events-out`) gets
/// the forensic event re-pass, from a second reader over the same
/// arena; a disabled one skips it entirely.
fn run_pipeline<S: Subscriber>(
    args: &[String],
    command: &str,
    subscriber: &mut S,
) -> Result<Analysis, String> {
    // Validate flags before touching the filesystem.
    let mut analysis_cfg = analysis_config(args)?;
    let mut plan = fault_plan(args)?;
    if let Some(plan) = &plan {
        // The injector computes jitter/reorder deltas against the same
        // guard thresholds the pipeline will enforce.
        analysis_cfg.guard = plan.profile().guard;
    }
    let path = positional(args).ok_or(format!("{command} requires a capture path"))?;
    let config = scale_config(args)?;
    // Zero-copy load: the capture is pulled into one arena and decoded
    // in place, so UDP payloads are views rather than per-record copies.
    let reader = ZeroCopyCaptureReader::from_path(path).map_err(|e| format!("read {path}: {e}"))?;
    // The world is rebuilt deterministically; AS/provider lookups for a
    // *foreign* capture will classify unknown sources as `other`.
    let world = quicsand_intel::SyntheticInternet::build(&quicsand_intel::TopologyConfig {
        seed: config.seed,
        servers_per_provider: (config.victim_pool * 2).max(48),
        ..quicsand_intel::TopologyConfig::default()
    });

    eprintln!("streaming {path} through the pipeline...");
    let mut driver = AnalysisDriver::new(&world.asdb, &analysis_cfg);
    let records = stream_capture(reader.clone(), BULK_BATCH, plan.as_mut(), |slice| {
        driver.offer(slice)
    })?;
    let analysis = driver.finish();
    eprintln!("analyzed {records} records");
    if let Some(summary) = plan.as_ref().map(FaultPlan::summary) {
        let breakdown: Vec<String> = summary
            .as_table()
            .iter()
            .filter(|(_, count)| *count > 0)
            .map(|(label, count)| format!("{label} {count}"))
            .collect();
        eprintln!(
            "fault injection: {} -> {} records, {} fault(s): {}",
            summary.input_records,
            summary.emitted_records,
            summary.total_injected(),
            if breakdown.is_empty() {
                "none".into()
            } else {
                breakdown.join(", ")
            }
        );
    }
    if subscriber.enabled() {
        // A plan is a pure function of (profile, seed) and its input, so
        // a fresh one hands the re-pass the very stream the run saw.
        let mut replan = plan.map(|plan| FaultPlan::new(*plan.profile(), plan.seed()));
        let mut replay = analysis.event_replay();
        stream_capture(reader, BULK_BATCH, replan.as_mut(), |slice| {
            replay.offer(slice, subscriber)
        })?;
        replay.finish(subscriber);
    }
    // Hard invariant: every exported counter equals the corresponding
    // stats field, at any thread count. A mismatch is a bug, not noise.
    analysis
        .verify_metrics()
        .map_err(|e| format!("metrics reconciliation failed: {}", e.join("; ")))?;
    Ok(analysis)
}

/// Writes the full (volatile included) canonical-JSON metrics dump when
/// `--metrics-out <file>` was given.
fn write_metrics_out(
    args: &[String],
    registry: &quicsand_obs::MetricsRegistry,
) -> Result<(), String> {
    if let Some(out) = flag_value(args, "--metrics-out")? {
        std::fs::write(out, registry.render_json(false))
            .map_err(|e| format!("write {out}: {e}"))?;
        eprintln!("metrics written to {out}");
    }
    Ok(())
}

/// Opens the qlog writer when `--events-out <path>` was given —
/// creating the file (and failing on an unwritable path) before any
/// heavy work starts. `None` keeps the zero-cost disabled path.
fn events_out_writer(
    args: &[String],
    title: &str,
    vantage: &[String],
) -> Result<Option<QlogWriter>, String> {
    flag_value(args, "--events-out")?
        .map(|path| QlogWriter::create(path, title, vantage))
        .transpose()
}

/// Finishes an open qlog writer: flushes, publishes the event/byte
/// totals on `registry`, and reports the write on stderr.
fn finish_events_out(
    args: &[String],
    sink: Option<QlogWriter>,
    registry: &quicsand_obs::MetricsRegistry,
) -> Result<(), String> {
    let Some(writer) = sink else {
        return Ok(());
    };
    let (events, bytes) = writer.finish()?;
    EventsMetrics::register(registry).add_totals(events, bytes);
    // The flag was present, so the path parses; unwrap via expect.
    let path = flag_value(args, "--events-out")?.expect("writer implies the flag");
    eprintln!("events: {events} event(s), {bytes} bytes -> {path}");
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let vantage: Vec<String> = positional(args).cloned().into_iter().collect();
    let mut sink = events_out_writer(args, "quicsand analyze", &vantage)?;
    let analysis = match run_pipeline(args, "analyze", &mut sink) {
        Ok(analysis) => analysis,
        Err(error) => {
            // A qlog has no trailer: the header-only file of a failed
            // run would read as a finished run without events.
            drop(sink);
            if let Some(path) = flag_value(args, "--events-out")? {
                if std::fs::symlink_metadata(path).is_ok_and(|meta| meta.is_file()) {
                    std::fs::remove_file(path).ok();
                }
            }
            return Err(error);
        }
    };
    finish_events_out(args, sink, &analysis.registry)?;
    let peak_rss = publish_peak_rss(&analysis.registry);
    write_metrics_out(args, &analysis.registry)?;

    let stats = &analysis.ingest;
    println!(
        "ingest: {} records, {} valid QUIC, {} false positives, {} TCP, {} ICMP, {} quarantined",
        stats.total,
        stats.quic_valid,
        stats.quic_false_positives,
        stats.tcp,
        stats.icmp,
        stats.quarantine.total()
    );
    if stats.quarantine.total() > 0 {
        let breakdown: Vec<String> = stats
            .quarantine
            .as_table()
            .iter()
            .filter(|(_, count)| *count > 0)
            .map(|(label, count)| format!("{label} {count}"))
            .collect();
        println!("quarantine: {}", breakdown.join(", "));
    }
    let pipeline = &analysis.stats;
    println!(
        "pipeline: {} thread(s), {:.0} records/s ingest; peak open sessions {}",
        pipeline.threads,
        pipeline.ingest_records_per_sec(),
        pipeline.peak_open_sessions
    );
    if has_flag(args, "--verbose") {
        // Keep the `pipeline:` prefix: walltime lines are excluded from
        // cross-thread determinism comparisons by that prefix.
        println!(
            "pipeline: {}{}",
            pipeline.stage_summary(),
            peak_rss_suffix(peak_rss)
        );
    }
    println!(
        "sanitized: {} requests / {} responses after removing {} research packets from {} scanner(s)",
        analysis.requests.len(),
        analysis.responses.len(),
        analysis.research_packets,
        analysis.research_sources.len()
    );
    println!(
        "sessions: {} request, {} response, {} TCP/ICMP",
        analysis.request_sessions.len(),
        analysis.response_sessions.len(),
        analysis.common_sessions.len()
    );
    let durations = Cdf::new(
        analysis
            .quic_attacks
            .iter()
            .map(|a| a.duration().as_secs_f64())
            .collect(),
    );
    println!(
        "QUIC floods: {} against {} victims (median {:.0}s, median {:.2} max pps)",
        analysis.quic_attacks.len(),
        analysis.victims().len(),
        durations.median().unwrap_or(0.0),
        Cdf::new(analysis.quic_attacks.iter().map(|a| a.max_pps).collect())
            .median()
            .unwrap_or(0.0)
    );
    println!(
        "multi-vector: {:.0}% concurrent / {:.0}% sequential / {:.0}% isolated (of {} QUIC floods)",
        analysis.multivector.share(MultiVectorClass::Concurrent) * 100.0,
        analysis.multivector.share(MultiVectorClass::Sequential) * 100.0,
        analysis.multivector.share(MultiVectorClass::Isolated) * 100.0,
        analysis.quic_attacks.len()
    );
    Ok(())
}

/// The `; peak RSS X MiB` tail of a `--verbose` stage line; empty where
/// the platform reports no peak RSS.
fn peak_rss_suffix(peak_rss: Option<u64>) -> String {
    peak_rss.map_or(String::new(), |bytes| {
        format!("; peak RSS {:.1} MiB", bytes as f64 / 1_048_576.0)
    })
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let stable_only = has_flag(args, "--stable-only");
    let format = flag_value(args, "--format")?.unwrap_or("prometheus");
    let analysis = run_pipeline(args, "metrics", &mut quicsand_events::NoopSubscriber)?;
    publish_peak_rss(&analysis.registry);
    let rendered = match format {
        "prometheus" => analysis.registry.render_prometheus(stable_only),
        "json" => analysis.registry.render_json(stable_only),
        other => return Err(format!("unknown --format `{other}` (want prometheus|json)")),
    };
    print!("{rendered}");
    Ok(())
}

fn cmd_live(args: &[String]) -> Result<(), String> {
    use quicsand_live::{parse_checkpoint, LiveConfig, MultiSourceLive};
    use quicsand_net::multi::{capture_file_factory, SourceFactory, SourceSet, SourceSetConfig};
    use quicsand_net::Duration;
    use quicsand_sessions::dos::DosThresholds;
    use quicsand_sessions::multivector::MultiVectorClass;
    use quicsand_sessions::SessionConfig;
    use quicsand_telescope::GuardConfig;
    use std::time::Instant;

    // Feeds: the optional positional capture plus any number of
    // repeatable --input captures, merged in event-time order.
    let mut inputs: Vec<String> = Vec::new();
    if let Some(path) = positional(args) {
        inputs.push(path.clone());
    }
    inputs.extend(flag_values(args, "--input")?.into_iter().map(String::from));
    if inputs.is_empty() {
        return Err("live requires a capture path (positional or --input <file>)".into());
    }
    let window: u64 = flag_parsed(args, "--window", None, " (minutes)")?.unwrap_or(5);
    let weight = weight_flag(args, "--weight", 1.0)?;
    let escalate = weight_flag(args, "--escalate", LiveConfig::default().escalation_weight)?;
    let shards: usize = flag_parsed(args, "--shards", None, "")?.unwrap_or(1);
    let chunk: usize = flag_parsed(args, "--chunk", Some(1), AT_LEAST_ONE)?.unwrap_or(1024);
    let max_victims: usize = flag_parsed(args, "--max-victims", Some(1), "")?
        .unwrap_or(LiveConfig::default().max_victims);
    let evidence_ring: usize = flag_parsed(args, "--evidence-ring", Some(1), AT_LEAST_ONE)?
        .unwrap_or(LiveConfig::default().evidence_capacity);
    let checkpoint_every: Option<u64> = flag_parsed(args, "--checkpoint-every", Some(1), "")?;
    let source_queue: usize = flag_parsed(args, "--source-queue", Some(1), AT_LEAST_ONE)?
        .unwrap_or(SourceSetConfig::default().queue_capacity);
    let source_batch: usize = flag_parsed(args, "--source-batch", Some(1), AT_LEAST_ONE)?
        .unwrap_or(SourceSetConfig::default().batch_records);
    let source_rate: Option<u64> =
        flag_parsed(args, "--source-rate", Some(1), " (want records/s >= 1)")?;
    let json = match flag_value(args, "--alert-format")?.unwrap_or("text") {
        "text" => false,
        "json" => true,
        other => return Err(format!("unknown --alert-format `{other}` (want text|json)")),
    };
    let verbose = has_flag(args, "--verbose");

    let guard = GuardConfig::default();
    let config = LiveConfig {
        thresholds: DosThresholds::moore().scaled(weight),
        // Match the batch pipeline's convention: sessionization
        // tolerates exactly the reordering the ingest guard admits.
        session: SessionConfig {
            timeout: Duration::from_mins(window),
            skew_tolerance: guard.reorder_tolerance,
        },
        escalation_weight: escalate,
        max_victims,
        evidence_capacity: evidence_ring,
    };
    // The qlog sink (when requested) is created first: an unwritable
    // --events-out path must fail before any feed is opened. The
    // vantage metadata carries one label per feed.
    let mut sink = events_out_writer(args, "quicsand live", &inputs)?;
    // A bad path or corrupt header is still a hard, immediate error —
    // only *mid-run* source failures are tolerated (reconnect/abandon).
    // An empty capture opens as an instantly-EOF feed, not an error.
    for path in &inputs {
        capture_file_factory(path.clone())
            .open()
            .map_err(|e| format!("read {path}: {e}"))?;
    }
    let set_config = SourceSetConfig {
        queue_capacity: source_queue,
        batch_records: source_batch,
        rate_limit: source_rate,
        ..SourceSetConfig::default()
    };
    let make_factories = || -> Vec<Box<dyn SourceFactory>> {
        inputs
            .iter()
            .map(|path| Box::new(capture_file_factory(path.clone())) as Box<dyn SourceFactory>)
            .collect()
    };
    let mut live = MultiSourceLive::new(
        config,
        guard,
        shards,
        SourceSet::spawn(make_factories(), &set_config),
    );

    let emit = |event: &quicsand_live::LiveEvent| {
        if json {
            println!("{}", event.render_json());
        } else {
            println!("{}", event.render_text());
        }
    };

    let mut offered_at_checkpoint: u64 = 0;
    let mut checkpoints: u64 = 0;
    let mut checkpoint_bytes: u64 = 0;
    let mut checkpoint_time = std::time::Duration::ZERO;
    while let Some(events) = live.pump_with(chunk, &mut sink) {
        for event in events {
            emit(&event);
        }
        let due =
            checkpoint_every.is_some_and(|every| live.offered() - offered_at_checkpoint >= every);
        if due {
            // Self-verifying checkpoint: serialize the v2 snapshot
            // (engine + per-source cursors), parse it back, restore a
            // fresh engine *and* fresh feeds resumed past the cursors,
            // prove the round trip is lossless, and continue from the
            // restored copy — the rest of the run exercises the
            // multi-source resume path.
            let started = Instant::now();
            let snapshot = live.snapshot();
            let encoded =
                serde_json::to_string(&snapshot).map_err(|e| format!("checkpoint encode: {e}"))?;
            let encoded_at = Instant::now();
            let decoded = parse_checkpoint(&encoded)?;
            let restored = MultiSourceLive::restore(&decoded, make_factories(), &set_config)?;
            let restored_at = Instant::now();
            if restored.snapshot() != snapshot {
                return Err(format!(
                    "checkpoint self-verification failed after {} records",
                    live.offered()
                ));
            }
            let verified_at = Instant::now();
            live = restored;
            checkpoints += 1;
            checkpoint_bytes += encoded.len() as u64;
            checkpoint_time += verified_at - started;
            // restore() rebuilds the registry from the snapshot, which
            // carries no checkpoint telemetry — re-seed the cumulative
            // totals so the exported counters cover the whole run, not
            // just the stretch since the last resume.
            live.engine()
                .record_checkpoint(checkpoints, checkpoint_bytes, checkpoint_time);
            offered_at_checkpoint = live.offered();
            if verbose {
                let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
                eprintln!(
                    "checkpoint {} verified at {} records ({} bytes, {} source cursor(s)) \
                     in {:.1} ms: encode {:.1} / parse+restore {:.1} / verify {:.1}",
                    checkpoints,
                    live.offered(),
                    encoded.len(),
                    snapshot.cursors.len(),
                    ms(started, verified_at),
                    ms(started, encoded_at),
                    ms(encoded_at, restored_at),
                    ms(restored_at, verified_at),
                );
            }
        }
    }
    for event in live.finish_with(&mut sink) {
        emit(&event);
    }
    finish_events_out(args, sink, live.engine().registry())?;
    // Hard invariant: live counters reconcile with the merged detector
    // stats at this (finished) sync point — including the per-source
    // counters and the cursor/offered conservation check.
    live.verify_metrics()
        .map_err(|e| format!("live metrics reconciliation failed: {}", e.join("; ")))?;
    let peak_rss = publish_peak_rss(live.engine().registry());
    write_metrics_out(args, live.engine().registry())?;

    let stats = live.live_stats();
    let ingest = live.ingest_stats();
    println!(
        "live: {} records in, {} opened / {} escalated / {} closed / {} reclassified, \
         {} eviction(s), {} quarantined",
        live.offered(),
        stats.opened,
        stats.escalated,
        stats.closed,
        stats.reclassified,
        stats.evictions,
        ingest.quarantine.total()
    );
    let quic = live.engine().closed_quic();
    let class_count = |class: MultiVectorClass| quic.iter().filter(|c| c.class() == class).count();
    println!(
        "live: {} QUIC flood(s) ({} concurrent / {} sequential / {} isolated), \
         {} TCP/ICMP flood(s), {} checkpoint(s) verified",
        quic.len(),
        class_count(MultiVectorClass::Concurrent),
        class_count(MultiVectorClass::Sequential),
        class_count(MultiVectorClass::Isolated),
        live.engine().closed_common().len(),
        checkpoints
    );
    let sources = live.source_stats();
    println!(
        "sources: {} feed(s), {} record(s) merged, {} reconnect(s), {} abandoned, {} empty",
        sources.len(),
        live.offered(),
        sources.iter().map(|s| s.reconnects).sum::<u64>(),
        sources.iter().filter(|s| s.dead).count(),
        sources.iter().filter(|s| s.eof && s.delivered == 0).count()
    );
    if verbose {
        let pipeline = live.engine().pipeline_stats();
        println!(
            "live: {} shard(s), {:.0} records/s ingest; {}; peak tracked victims {}{}",
            shards.max(1),
            pipeline.ingest_records_per_sec(),
            pipeline.stage_summary(),
            stats.peak_tracked,
            peak_rss_suffix(peak_rss)
        );
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    use quicsand_server::model::{RetryPolicy, ServerConfig};
    use quicsand_server::replay::{replay_flood, ReplayConfig};

    let pps: u64 =
        flag_parsed(args, "--pps", Some(1), AT_LEAST_ONE)?.ok_or("replay requires --pps <rate>")?;
    let requests: u64 =
        flag_parsed(args, "--requests", Some(1), AT_LEAST_ONE)?.unwrap_or(pps * 300 + 1);
    let workers: usize = flag_parsed(args, "--workers", Some(1), AT_LEAST_ONE)?.unwrap_or(4);
    let retry_policy = if let Some(threshold) = flag_value(args, "--adaptive")? {
        RetryPolicy::Adaptive {
            occupancy_threshold: threshold.parse().map_err(|_| "invalid --adaptive")?,
        }
    } else if has_flag(args, "--retry") {
        RetryPolicy::Always
    } else {
        RetryPolicy::Off
    };

    eprintln!("replaying {requests} Initials at {pps} pps against {workers} worker(s)...");
    let outcome = replay_flood(
        &ReplayConfig {
            pps,
            total_requests: requests,
            server: ServerConfig {
                workers,
                retry_policy,
                ..ServerConfig::default()
            },
        },
        42,
    );
    println!(
        "requests {}  responses {}  answered {}  availability {}%  extra-rtt {}",
        outcome.requests,
        outcome.responses,
        outcome.answered,
        outcome.availability_percent(),
        if outcome.extra_rtt { "yes" } else { "no" }
    );
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let input = positional(args).ok_or("export requires a capture path")?;
    let output = flag_value(args, "--pcap")?.ok_or("export requires --pcap <file>")?;
    let reader =
        ZeroCopyCaptureReader::from_path(input).map_err(|e| format!("read {input}: {e}"))?;
    let out = std::fs::File::create(output).map_err(|e| format!("create {output}: {e}"))?;
    let mut writer = quicsand_net::pcap::PcapWriter::new(BufWriter::new(out))
        .map_err(|e| format!("write pcap header: {e}"))?;
    for record in reader {
        let record = record.map_err(|e| format!("read record: {e}"))?;
        writer
            .write(&record)
            .map_err(|e| format!("write packet: {e}"))?;
    }
    let written = writer.written();
    writer.finish().map_err(|e| format!("flush: {e}"))?;
    println!("wrote {written} packets to {output} (libpcap, raw-IP linktype)");
    Ok(())
}

fn cmd_forensics(args: &[String]) -> Result<(), String> {
    use quicsand_events::qlog::validate_qlog;
    use quicsand_live::{parse_slice_qlog, replay_slice, LiveConfig, LiveEngine};
    use quicsand_net::Duration;
    use quicsand_sessions::dos::DosThresholds;
    use quicsand_sessions::SessionConfig;
    use quicsand_telescope::GuardConfig;

    // `forensics check <file.qlog>`: framing/header validation only.
    if args.first().map(String::as_str) == Some("check") {
        let path = positional(&args[1..]).ok_or("forensics check requires a qlog path")?;
        let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        let summary = validate_qlog(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: valid qlog JSON-SEQ ({} record(s), {} event(s))",
            summary.records, summary.events
        );
        return Ok(());
    }

    let path = positional(args).ok_or("forensics requires a capture path")?;
    let out_dir = flag_value(args, "--out")?
        .unwrap_or("forensics")
        .to_string();
    let replay = has_flag(args, "--replay");
    let window: u64 = flag_parsed(args, "--window", None, " (minutes)")?.unwrap_or(5);
    let weight = weight_flag(args, "--weight", 1.0)?;
    let shards: usize = flag_parsed(args, "--shards", None, "")?.unwrap_or(1);
    let chunk: usize = flag_parsed(args, "--chunk", Some(1), AT_LEAST_ONE)?.unwrap_or(1024);
    let evidence_ring: usize = flag_parsed(args, "--evidence-ring", Some(1), AT_LEAST_ONE)?
        .unwrap_or(LiveConfig::default().evidence_capacity);

    let guard = GuardConfig::default();
    let config = LiveConfig {
        thresholds: DosThresholds::moore().scaled(weight),
        session: SessionConfig {
            timeout: Duration::from_mins(window),
            skew_tolerance: guard.reorder_tolerance,
        },
        evidence_capacity: evidence_ring,
        ..LiveConfig::default()
    };
    let reader = ZeroCopyCaptureReader::from_path(path).map_err(|e| format!("read {path}: {e}"))?;
    eprintln!("streaming {path} through the live engine...");
    let mut engine = LiveEngine::new(config, guard, shards);
    let records = stream_capture(reader, chunk, None, |slice| {
        engine.offer_chunk(slice);
    })?;
    engine.finish();
    eprintln!("analyzed {records} records");

    let slices = engine.alert_slices();
    if slices.is_empty() {
        println!("no closed QUIC alerts in {path}; nothing to export");
        return Ok(());
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    let mut replayed = 0usize;
    for slice in &slices {
        let bytes = slice.to_qlog()?;
        let file = format!("{out_dir}/alert-{}.qlog", slice.alert_index);
        std::fs::write(&file, &bytes).map_err(|e| format!("write {file}: {e}"))?;
        if replay {
            // The replay contract: the exported slice alone must
            // reproduce the identical closed alert and verdict in a
            // fresh detector. `replay_slice` errors on any divergence.
            let (parsed, packets) = parse_slice_qlog(&bytes).map_err(|e| format!("{file}: {e}"))?;
            replay_slice(&parsed, &packets)
                .map_err(|e| format!("{file}: replay contract violated: {e}"))?;
            replayed += 1;
        }
        println!(
            "wrote {file} (victim {}, {} packet(s), {} common flood(s), class {})",
            slice.victim,
            slice.quic.attack.packet_count,
            slice.commons.len(),
            slice.class.label()
        );
    }
    println!(
        "forensics: {} alert slice(s) exported to {out_dir}{}",
        slices.len(),
        if replay {
            format!(", {replayed} replay(s) verified")
        } else {
            String::new()
        }
    );
    Ok(())
}

fn cmd_experiments(args: &[String]) -> Result<(), String> {
    use quicsand_core::experiments as exp;
    let config = scale_config(args)?;
    eprintln!("generating scenario (seed {:#x})...", config.seed);
    let scenario = Scenario::generate(&config);
    let analysis = Analysis::run(&scenario, &analysis_config(args)?);
    let reports = vec![
        exp::fig02::run(&scenario, &analysis),
        exp::fig03::run(&scenario, &analysis),
        exp::fig04::run(&analysis),
        exp::fig05::run(&scenario, &analysis),
        exp::fig06::run(&analysis),
        exp::fig07::run(&analysis),
        exp::fig08::run(&analysis),
        exp::fig09::run(&scenario, &analysis),
        exp::fig10::run(&scenario, &analysis),
        exp::fig11::run(&analysis),
        exp::fig12::run(&analysis),
        exp::fig13::run(&analysis),
        exp::msgmix::run(&analysis),
        exp::sec3_amplification::run(),
    ];
    for report in reports {
        println!("{}", report.render());
    }
    Ok(())
}
