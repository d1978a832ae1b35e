//! `quicsand` — command-line front end for the QUICsand reproduction.
//!
//! ```text
//! quicsand generate --out capture.qscp [--scale test|demo|paper] [--seed N]
//! quicsand analyze <capture.qscp> [--threads N] [--verbose]
//! quicsand live <capture.qscp> [--shards N] [--checkpoint-every N] [--forensics-out <dir>]
//! quicsand replay --pps 1000 [--requests 300001] [--workers 4] [--retry|--adaptive 0.5]
//! quicsand experiments [--scale test|demo|paper] [--out <dir>] [<id>...]
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
type Flags = &'static [&'static str];

/// Every subcommand with how many positional arguments it takes, then
/// the flags it defines: those followed by a value, then the bare
/// switches. Anything else that looks like a flag, and any positional
/// past the command's count, is rejected before the command runs, so a
/// typo (`--thread 1`) or a stray word fails instead of silently running
/// with the default.
const COMMANDS: &[(&str, Command, usize, Flags, Flags)] = &[
    (
        "generate",
        cmd_generate,
        0,
        &["--out", "--scale", "--seed", "--scenario"],
        &[],
    ),
    (
        "analyze",
        cmd_analyze,
        1,
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
        1,
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
        1,
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
            "--forensics-out",
        ],
        &["--verbose", "--replay"],
    ),
    (
        "replay",
        cmd_replay,
        0,
        &["--pps", "--requests", "--workers", "--adaptive"],
        &["--retry"],
    ),
    ("export", cmd_export, 1, &["--pcap"], &[]),
    ("forensics", cmd_forensics, 2, &[], &[]),
    (
        "experiments",
        cmd_experiments,
        usize::MAX,
        &["--scale", "--seed", "--threads", "--out"],
        &[],
    ),
];

/// Whether `flag` is followed by a value. A flag name means the same in
/// every command that has it, so the lookup needs no command.
fn takes_value(flag: &str) -> bool {
    COMMANDS
        .iter()
        .any(|(_, _, _, valued, _)| valued.contains(&flag))
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
        Some((_, run, arity, valued, switches)) => {
            let unknown = rest.iter().find(|a| {
                a.starts_with("--")
                    && !valued.contains(&a.as_str())
                    && !switches.contains(&a.as_str())
            });
            match (unknown, positionals(rest).nth(*arity)) {
                (Some(flag), _) => Err(format!("unknown flag `{flag}` for `{command}`")),
                (None, Some(extra)) => Err(format!(
                    "unexpected argument `{extra}` for `{command}`{}",
                    if valued.contains(&"--input") {
                        " (add each further feed with --input <file>)"
                    } else {
                        ""
                    }
                )),
                (None, None) => run(rest),
            }
        }
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
        --seed takes decimal or 0x-prefixed hex (the form seeds are
        printed in), as every seed flag does.
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
                  [--forensics-out <dir> [--replay]] [--verbose]
        Stream one or more captures through the live flood-detection
        engine and print alert lifecycle events (OPEN / ESCALATE /
        CLOSE / RECLASSIFY) as they fire. Each --input adds a feed;
        feeds run concurrently behind bounded queues and are merged in
        event-time order, so alerts are identical to a single merged
        capture at any source count. An empty feed is drained and
        counted, not fatal; a feed that fails mid-run reconnects and
        resumes. A feed abandoned after its reconnects (a capture cut
        mid-record) fails the run after the summary, and the run
        leaves no output file: no --metrics-out, no --forensics-out,
        and the --events-out file removed. --window sets the
        sessionization timeout in minutes (>= 1); --weight scales the
        Moore thresholds; --escalate sets the escalation tier
        multiplier; --shards runs per-source detector shards (alerts
        are identical at any N); --source-rate paces each feed
        (records/s); --source-queue bounds each feed's queue (records);
        --source-batch sets the per-feed transfer batch target
        (records; batches never change the merged order);
        --max-victims caps tracked victims per channel (LRU eviction);
        --checkpoint-every N snapshots engine + per-source cursors
        every N records (schema v4, the only one read back),
        round-trips through JSON, and resumes every feed from the
        restored copy — proving the checkpoint is lossless mid-run. --metrics-out writes the engine's metrics registry as
        canonical JSON after the run (stable series survive
        checkpoint/restore unchanged). --evidence-ring N keeps the
        last N packets of every alert that closes as replayable
        forensics (default 16). --events-out writes the
        typed event stream (wire rejections, Retry/VN sightings,
        alert lifecycle) as qlog 0.4 JSON-SEQ with one vantage entry
        per feed; record-tied events are identical at any --shards
        and every event's timestamp comes from the trace, and an
        unwritable path fails before any feed is opened.
        --forensics-out exports every closed QUIC alert as a
        self-contained replayable qlog slice, <dir>/alert-<i>.qlog:
        config, per-minute arrival profile, evidence ring, and the
        correlated common-channel floods. --replay feeds each exported
        slice back through a fresh detector and fails unless it
        reproduces the identical closed alert and multi-vector verdict.

    quicsand replay --pps <rate> [--requests N] [--workers N]
                    [--retry | --adaptive <occupancy>]
        Flood the local QUIC server model (Table 1 style) and report
        service availability. --retry always answers with a Retry;
        --adaptive only once a worker's connection table is at least
        <occupancy> full (a fraction in [0, 1]).

    quicsand export <file.qscp> --pcap <file.pcap>
        Convert a capture to classic libpcap (raw-IP linktype) for
        inspection in Wireshark.

    quicsand forensics check <file.qlog>
        Validate a qlog file's RFC 7464 JSON-SEQ framing and header,
        and print a record/event summary; it reads the event streams
        of `analyze` and `live` and the alert slices of `live` alike.

    quicsand experiments [--scale test|demo|paper] [--seed N] [--threads N]
                         [--out <dir>] [<id>...]
        Regenerate every paper table/figure and print the reports, in
        catalog order: fig02 ... fig13, msgmix, tab01,
        sec3_amplification, adaptive_retry, mitigation. Named ids run
        only those (still in catalog order); tab01 and the three after
        it need no scenario, so a selection of them generates none.
        Table 1 replays 2 % of the paper's request counts at --scale
        test and all of them otherwise. --out writes the findings of
        the run to <dir>/EXPERIMENTS.md and the SVGs of the selected
        figures to <dir>/figures/, from the same scenario.";

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
/// does not parse as `T` or that `valid` refuses with
/// ``invalid {name} `{value}` (want {want})``.
fn flag_parsed<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    valid: fn(&T) -> bool,
    want: &str,
) -> Result<Option<T>, String> {
    flag_value(args, name)?
        .map(|v| {
            v.parse::<T>()
                .ok()
                .filter(valid)
                .ok_or_else(|| format!("invalid {name} `{v}` (want {want})"))
        })
        .transpose()
}

/// Parses a count flag: an integer of at least one.
fn count_flag<T: std::str::FromStr + PartialOrd + From<u8>>(
    args: &[String],
    name: &str,
) -> Result<Option<T>, String> {
    flag_parsed(args, name, |n| *n >= T::from(1), "an integer >= 1")
}

/// Parses a threshold weight (`--weight`, `--escalate`), `default` when
/// the flag is absent. The detection thresholds are multiplied by it, so
/// only a finite weight above zero means anything: NaN or infinity would
/// let no session qualify, zero or less every one.
fn weight_flag(args: &[String], name: &str, default: f64) -> Result<f64, String> {
    let valid = |w: &f64| w.is_finite() && *w > 0.0;
    Ok(flag_parsed(args, name, valid, "a finite number > 0")?.unwrap_or(default))
}

fn has_flag(args: &[String], name: &str) -> bool {
    debug_assert!(!takes_value(name), "{name} is a valued flag in COMMANDS");
    args.iter().any(|a| a == name)
}

/// Builds the `AnalysisConfig`, honouring `--threads N`.
fn analysis_config(args: &[String]) -> Result<AnalysisConfig, String> {
    let mut config = AnalysisConfig::default();
    if let Some(threads) = count_flag(args, "--threads")? {
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
    let seed = seed_flag(args, "--fault-seed")?;
    let Some(profile) = profile else {
        if seed.is_some() {
            return Err("--fault-seed requires --fault-profile".into());
        }
        return Ok(None);
    };
    let profile: FaultProfile = profile.parse()?;
    Ok(Some(FaultPlan::new(profile, seed.unwrap_or(0xF4017))))
}

/// Parses a seed flag, written in decimal or as the `0x…` hex the CLI
/// prints seeds in.
fn seed_flag(args: &[String], name: &str) -> Result<Option<u64>, String> {
    flag_value(args, name)?
        .map(|v| {
            match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            }
            .map_err(|_| format!("invalid {name} `{v}` (want a u64, decimal or 0x hex)"))
        })
        .transpose()
}

/// The `--scale` preset's name (default `test`) and its scenario, with
/// `--seed` applied.
fn scale_config(args: &[String]) -> Result<(&str, ScenarioConfig), String> {
    let scale = flag_value(args, "--scale")?.unwrap_or("test");
    let mut config = match scale {
        "test" => ScenarioConfig::test(),
        "demo" => ScenarioConfig::demo(),
        "paper" => ScenarioConfig::paper_month(),
        other => return Err(format!("unknown scale `{other}`")),
    };
    if let Some(seed) = seed_flag(args, "--seed")? {
        config.seed = seed;
    }
    Ok((scale, config))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let out = flag_value(args, "--out")?.ok_or("generate requires --out <file>")?;
    let (_, config) = scale_config(args)?;
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

/// The positional arguments: neither flags nor the value of a flag that
/// takes one (a switch such as `--verbose` has none to skip).
fn positionals(args: &[String]) -> impl Iterator<Item = &String> {
    args.iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && (*i == 0 || !takes_value(&args[*i - 1])))
        .map(|(_, a)| a)
}

/// The first positional argument.
fn positional(args: &[String]) -> Option<&String> {
    positionals(args).next()
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
    let (_, config) = scale_config(args)?;
    // Zero-copy load: the capture is pulled into one arena and decoded
    // in place, so UDP payloads are views rather than per-record copies.
    let reader = ZeroCopyCaptureReader::from_path(path).map_err(|e| format!("read {path}: {e}"))?;
    // The world is rebuilt deterministically; AS/provider lookups for a
    // *foreign* capture will classify unknown sources as `other`.
    let world = config.world();

    eprintln!("streaming {path} through the pipeline...");
    let mut driver = AnalysisDriver::new(&world.asdb, &analysis_cfg);
    let records = stream_capture(reader.clone(), BULK_BATCH, plan.as_mut(), |slice| {
        driver.offer(slice)
    })?;
    let analysis = driver.finish();
    eprintln!("analyzed {records} records");
    if let Some(summary) = plan.as_ref().map(FaultPlan::summary) {
        let breakdown = nonzero_rows(&summary.as_table());
        eprintln!(
            "fault injection: {} -> {} records, {} fault(s): {}",
            summary.input_records,
            summary.emitted_records,
            summary.total_injected(),
            if breakdown.is_empty() {
                "none"
            } else {
                &breakdown
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

/// `label count` for every non-zero row of a counter table, comma-joined.
fn nonzero_rows(table: &[(&str, u64)]) -> String {
    let rows: Vec<String> = table
        .iter()
        .filter(|(_, count)| *count > 0)
        .map(|(label, count)| format!("{label} {count}"))
        .collect();
    rows.join(", ")
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

/// An output file that only a finished run may leave behind. A qlog or
/// a pcap has no trailer, so the file of a run that fails (header only,
/// or cut short) would read as a finished one: dropped before
/// [`OutputGuard::keep`], the guard removes it. This is the one cleanup
/// of a failed `analyze`, `live` or `export`.
struct OutputGuard<'a>(Option<&'a str>);

impl OutputGuard<'_> {
    /// The run finished: the file stays.
    fn keep(mut self) {
        self.0 = None;
    }
}

impl Drop for OutputGuard<'_> {
    fn drop(&mut self) {
        // Only a regular file: a path such as /dev/null stays.
        if let Some(path) = self
            .0
            .filter(|path| std::fs::symlink_metadata(path).is_ok_and(|meta| meta.is_file()))
        {
            std::fs::remove_file(path).ok();
        }
    }
}

/// The `--events-out` qlog of a run; `writer` is `None` without the
/// flag, the zero-cost disabled path. The writer is declared first, so
/// a failed run closes it before its guard removes the file.
struct EventsOut<'a> {
    writer: Option<QlogWriter>,
    file: OutputGuard<'a>,
}

impl<'a> EventsOut<'a> {
    /// Creates the file when `--events-out <path>` was given, failing on
    /// an unwritable path before any heavy work starts.
    fn create(args: &'a [String], title: &str, vantage: &[String]) -> Result<Self, String> {
        let path = flag_value(args, "--events-out")?;
        let writer = path
            .map(|path| QlogWriter::create(path, title, vantage))
            .transpose()?;
        Ok(EventsOut {
            writer,
            file: OutputGuard(path),
        })
    }

    /// Flushes the file, publishes the event/byte totals on `registry`,
    /// and reports the write on stderr.
    fn finish(self, registry: &quicsand_obs::MetricsRegistry) -> Result<(), String> {
        let EventsOut { writer, file } = self;
        let (Some(writer), Some(path)) = (writer, file.0) else {
            return Ok(());
        };
        let (events, bytes) = writer.finish()?;
        file.keep();
        EventsMetrics::register(registry).add_totals(events, bytes);
        eprintln!("events: {events} event(s), {bytes} bytes -> {path}");
        Ok(())
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let vantage: Vec<String> = positional(args).cloned().into_iter().collect();
    let mut events = EventsOut::create(args, "quicsand analyze", &vantage)?;
    let analysis = run_pipeline(args, "analyze", &mut events.writer)?;
    events.finish(&analysis.registry)?;
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
        println!("quarantine: {}", nonzero_rows(&stats.quarantine.as_table()));
    }
    let stages = &analysis.metrics.stages;
    println!(
        "pipeline: {} thread(s), {:.0} records/s ingest; peak open sessions {}",
        stages.threads.get(),
        stages.ingest_rate(stats.total),
        stages.peak_open_sessions.get()
    );
    if has_flag(args, "--verbose") {
        // Keep the `pipeline:` prefix: walltime lines are excluded from
        // cross-thread determinism comparisons by that prefix.
        println!(
            "pipeline: {}{}",
            stages.summary(),
            peak_rss_suffix(peak_rss)
        );
    }
    println!(
        "sanitized: {} requests / {} responses after removing {} research packets from {} scanner(s)",
        analysis.request_packets,
        analysis.response_packets,
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
    // Minutes, counted by the trace clock in u64 microseconds.
    let valid = |mins: &u64| *mins >= 1 && mins.checked_mul(60_000_000).is_some();
    let want = "minutes >= 1 whose microseconds fit in a u64";
    let window: u64 = flag_parsed(args, "--window", valid, want)?.unwrap_or(5);
    let weight = weight_flag(args, "--weight", 1.0)?;
    let escalate = weight_flag(args, "--escalate", LiveConfig::default().escalation_weight)?;
    let shards: usize = count_flag(args, "--shards")?.unwrap_or(1);
    let chunk: usize = count_flag(args, "--chunk")?.unwrap_or(1024);
    let max_victims: usize =
        count_flag(args, "--max-victims")?.unwrap_or(LiveConfig::default().max_victims);
    let evidence_ring: usize =
        count_flag(args, "--evidence-ring")?.unwrap_or(LiveConfig::default().evidence_capacity);
    let checkpoint_every: Option<u64> = count_flag(args, "--checkpoint-every")?;
    let source_queue: usize =
        count_flag(args, "--source-queue")?.unwrap_or(SourceSetConfig::default().queue_capacity);
    let source_batch: usize =
        count_flag(args, "--source-batch")?.unwrap_or(SourceSetConfig::default().batch_records);
    let source_rate: Option<u64> =
        flag_parsed(args, "--source-rate", |r| *r >= 1, "records/s >= 1")?;
    let json = match flag_value(args, "--alert-format")?.unwrap_or("text") {
        "text" => false,
        "json" => true,
        other => return Err(format!("unknown --alert-format `{other}` (want text|json)")),
    };
    let forensics_out = flag_value(args, "--forensics-out")?;
    let replay = has_flag(args, "--replay");
    if replay && forensics_out.is_none() {
        return Err("--replay requires --forensics-out <dir>".into());
    }
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
    let mut events_out = EventsOut::create(args, "quicsand live", &inputs)?;
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
    while let Some(events) = live.pump_with(chunk, &mut events_out.writer) {
        for event in events {
            emit(&event);
        }
        let due =
            checkpoint_every.is_some_and(|every| live.offered() - offered_at_checkpoint >= every);
        if due {
            // Self-verifying checkpoint: serialize the v4 snapshot
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
            let earlier = std::mem::replace(&mut live, restored);
            checkpoints += 1;
            checkpoint_bytes += encoded.len() as u64;
            checkpoint_time += verified_at - started;
            // restore() rebuilds the registry from the snapshot, which
            // carries no wall-clock telemetry — re-seed the cumulative
            // checkpoint totals and carry the stage series over, so the
            // exported series cover the whole run, not just the stretch
            // since the last resume.
            live.engine()
                .record_checkpoint(checkpoints, checkpoint_bytes, checkpoint_time);
            live.engine().stages().carry(earlier.engine().stages());
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
    for event in live.finish_with(&mut events_out.writer) {
        emit(&event);
    }
    let peak_rss = publish_peak_rss(live.engine().registry());

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
        let stages = live.engine().stages();
        println!(
            "live: {} shard(s), {:.0} records/s ingest; {}; peak tracked victims {}{}",
            stages.threads.get(),
            stages.ingest_rate(live.offered()),
            stages.summary(),
            stats.peak_tracked,
            peak_rss_suffix(peak_rss)
        );
    }
    // An abandoned feed delivered only part of its capture: the lines
    // above report what was read, but the run fails like a cut capture
    // in `analyze`, and `events_out` removes its file on the way out.
    if let Some((path, source)) = inputs.iter().zip(&sources).find(|(_, s)| s.dead) {
        return Err(format!(
            "read records: feed {path} abandoned after {} reconnect(s)",
            source.reconnects
        ));
    }
    events_out.finish(live.engine().registry())?;
    // Hard invariant: live counters reconcile with the merged detector
    // stats at this (finished) sync point — including the per-source
    // counters and the cursor/offered conservation check.
    live.verify_metrics()
        .map_err(|e| format!("live metrics reconciliation failed: {}", e.join("; ")))?;
    if let Some(dir) = forensics_out {
        write_alert_slices(&live.engine().alert_slices(), dir, replay)?;
    }
    write_metrics_out(args, live.engine().registry())
}

/// Writes every closed QUIC alert as a self-contained qlog slice,
/// `<dir>/alert-<i>.qlog`. With `replay`, each written slice alone must
/// reproduce the identical closed alert and multi-vector verdict in a
/// fresh detector.
fn write_alert_slices(
    slices: &[quicsand_live::AlertSlice],
    dir: &str,
    replay: bool,
) -> Result<(), String> {
    use quicsand_live::{parse_slice_qlog, replay_slice};

    if slices.is_empty() {
        println!("forensics: no closed QUIC alerts; nothing to export to {dir}");
        return Ok(());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    for slice in slices {
        let bytes = slice.to_qlog()?;
        let file = format!("{dir}/alert-{}.qlog", slice.alert_index);
        std::fs::write(&file, &bytes).map_err(|e| format!("write {file}: {e}"))?;
        if replay {
            // `replay_slice` errors on any divergence.
            let (parsed, packets) = parse_slice_qlog(&bytes).map_err(|e| format!("{file}: {e}"))?;
            replay_slice(&parsed, &packets)
                .map_err(|e| format!("{file}: replay contract violated: {e}"))?;
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
        "forensics: {} alert slice(s) exported to {dir}{}",
        slices.len(),
        if replay {
            format!(", {} replay(s) verified", slices.len())
        } else {
            String::new()
        }
    );
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    use quicsand_server::model::{RetryPolicy, ServerConfig};
    use quicsand_server::replay::{replay_flood, ReplayConfig};

    let pps: u64 = count_flag(args, "--pps")?.ok_or("replay requires --pps <rate>")?;
    let requests: u64 = count_flag(args, "--requests")?.unwrap_or(pps * 300 + 1);
    let workers: usize = count_flag(args, "--workers")?.unwrap_or(4);
    let in_unit = |x: &f64| (0.0..=1.0).contains(x);
    let adaptive = flag_parsed(args, "--adaptive", in_unit, "an occupancy in [0, 1]")?;
    let retry_policy = match (adaptive, has_flag(args, "--retry")) {
        (Some(_), true) => return Err("--adaptive and --retry are exclusive".into()),
        (Some(occupancy_threshold), false) => RetryPolicy::Adaptive {
            occupancy_threshold,
        },
        (None, true) => RetryPolicy::Always,
        (None, false) => RetryPolicy::Off,
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
    // Declared before the writer, so it is dropped after it.
    let file = OutputGuard(Some(output));
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
    file.keep();
    println!("wrote {written} packets to {output} (libpcap, raw-IP linktype)");
    Ok(())
}

fn cmd_forensics(args: &[String]) -> Result<(), String> {
    use quicsand_events::qlog::validate_qlog;

    // Framing/header validation only; slices come from `live`.
    let path = match args {
        [check, path] if check == "check" => path,
        _ => {
            return Err("forensics takes `check <file.qlog>`; \
                 alert slices are exported by `live --forensics-out <dir>`"
                .into())
        }
    };
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let summary = validate_qlog(&bytes).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid qlog JSON-SEQ ({} record(s), {} event(s))",
        summary.records, summary.events
    );
    Ok(())
}

fn cmd_experiments(args: &[String]) -> Result<(), String> {
    use quicsand_core::experiments::{select, Runner};
    use quicsand_core::plot::render_svg;

    let (scale, config) = scale_config(args)?;
    let analysis_cfg = analysis_config(args)?;
    let out = flag_value(args, "--out")?;
    let ids: Vec<&String> = positionals(args).collect();
    let entries = select(&ids)?;
    // Table 1's saturation mechanics need the paper's full run lengths
    // (the 60 s state hold bites only once the table fills), so only the
    // test preset scales its replays down.
    let tab01_factor = if scale == "test" { 0.02 } else { 1.0 };

    // Generated on the first entry that needs it, and never for a
    // selection of standalone entries.
    let mut data: Option<(Scenario, Analysis)> = None;
    let mut reports = Vec::with_capacity(entries.len());
    let mut plots = Vec::new();
    for entry in &entries {
        let report = match entry.runner {
            Runner::Scenario(run) => {
                let (scenario, analysis) = data.get_or_insert_with(|| {
                    eprintln!(
                        "generating scenario (scale {scale}, seed {:#x})...",
                        config.seed
                    );
                    let scenario = Scenario::generate(&config);
                    let analysis = Analysis::run(&scenario, &analysis_cfg);
                    (scenario, analysis)
                });
                let (report, drawn) = run(scenario, analysis);
                plots.extend(drawn);
                report
            }
            Runner::Standalone(run) => run(tab01_factor),
        };
        println!("{}", report.render());
        reports.push(report);
    }

    let Some(dir) = out else { return Ok(()) };
    let path = format!("{dir}/EXPERIMENTS.md");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    std::fs::write(&path, experiments_markdown(&reports, scale, config.seed))
        .map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("wrote {path}");
    let figures_dir = format!("{dir}/figures");
    if !plots.is_empty() {
        std::fs::create_dir_all(&figures_dir).map_err(|e| format!("create {figures_dir}: {e}"))?;
    }
    for (stem, spec) in &plots {
        let path = format!("{figures_dir}/{stem}.svg");
        std::fs::write(&path, render_svg(spec)).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// EXPERIMENTS.md: every report's findings as one paper-vs-measured
/// table, then every report's notes.
fn experiments_markdown(reports: &[quicsand_core::Report], scale: &str, seed: u64) -> String {
    use quicsand_core::experiments::CATALOG;
    use std::fmt::Write as _;

    let mut md = String::new();
    let _ = writeln!(md, "# Experiments: paper vs measured\n");
    let _ = writeln!(
        md,
        "Generated by `quicsand experiments` at scale `{scale}` (seed {seed:#x})."
    );
    let _ = writeln!(
        md,
        "Regenerate with `cargo run --release -- experiments --scale {scale} --seed {seed:#x} --out .`.\n"
    );
    let _ = writeln!(
        md,
        "Absolute event counts at non-`paper` scales are intentionally smaller; \
         distribution *shapes* (orderings, knees, medians ratios, shares) are \
         the reproduction targets. Sub-sampled components are noted per \
         experiment.\n"
    );
    let _ = writeln!(md, "| experiment | metric | paper | measured |");
    let _ = writeln!(md, "|---|---|---|---|");
    for report in reports {
        md.push_str(&report.findings_markdown());
    }
    let _ = writeln!(md, "\n## Notes\n");
    for report in reports {
        for note in &report.notes {
            let _ = writeln!(md, "- **{}**: {}", report.id, note);
        }
    }
    let ids: Vec<&str> = CATALOG.iter().map(|entry| entry.id).collect();
    let _ = writeln!(
        md,
        "\nPer-experiment regeneration: `cargo run --release -- experiments --scale {scale} <{}>`; \
         the SVG figures are written beside this file, under `figures/`.",
        ids.join("|")
    );
    md
}
