//! The repository's benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run [--quick] [--seed <n>] [--seconds <s>] [--out <dir>]
//! benchmark compare <A.json> <B.json>
//! benchmark fingerprint [--write]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs: one
//! workload, end-to-end metrics (`--trace 0`) or per-layer metrics
//! (`--trace 1`), one JSON object as the last line of standard output.
//! `run` makes both runs over every workload with interleaved rounds and
//! writes `benchmark/out/results.json` plus one trace file per workload.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod host;
mod metrics;
mod passes;
mod quality;
mod report;
mod run;
mod staged;
mod stats;
mod trace;
mod workloads;

use report::{Fingerprints, Results};
use run::{Outcome, Plan};
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Size, Workload, DEFAULT_SEED};

/// Measuring time per workload and mode when `--seconds` is not given:
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// The value following `flag`, if the flag is present.
fn flag<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|arg| arg == flag) {
        None => Ok(None),
        Some(at) => args
            .get(at + 1)
            .map(|value| Some(value.as_str()))
            .ok_or(format!("{flag} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name)? {
        None => Ok(default),
        Some(text) => text.parse().map_err(|_| format!("invalid {name} `{text}`")),
    }
}

fn workload_arg(args: &[String]) -> Result<Workload, String> {
    let name = flag(args, "--workload")?.ok_or("--workload is required")?;
    Workload::parse(name).ok_or(format!("unknown workload `{name}`"))
}

/// The driver form: one workload, one mode, one JSON line.
fn single(args: &[String]) -> Result<bool, String> {
    let traced = match flag(args, "--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("invalid --trace `{other}`")),
    };
    let root = report::repo_root()?;
    let plan = Plan {
        workloads: vec![workload_arg(args)?],
        seed: parsed(args, "--seed", DEFAULT_SEED)?,
        size: Size::Full,
        seconds: parsed(args, "--seconds", DEFAULT_SECONDS)?,
        end_to_end: !traced,
        traced,
        root: root.clone(),
    };
    let outcome = run::execute(&plan);
    if traced {
        run::write_outputs(&outcome, &root.join("benchmark").join("out"))?;
    }
    let (name, report) = outcome
        .results
        .workloads
        .iter()
        .next()
        .ok_or("no workload ran")?;
    eprintln!(
        "[benchmark] {name}: jitter {:.3}{}",
        outcome.results.jitter_share,
        if outcome.results.noisy { " NOISY" } else { "" }
    );
    for failure in &report.checks.failures {
        eprintln!("[benchmark] FAILED: {failure}");
    }
    let metrics = if traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let metrics = metrics
        .iter()
        .map(|(metric, m)| {
            let entry = Value::Map(vec![
                ("value".to_string(), Value::F64(m.value)),
                ("unit".to_string(), Value::Str(m.unit.clone())),
            ]);
            (metric.clone(), entry)
        })
        .collect();
    let line = Value::Map(vec![
        (
            "correct".to_string(),
            Value::Bool(report.checks.failed == 0),
        ),
        ("attempted".to_string(), Value::U64(report.checks.attempted)),
        ("failed".to_string(), Value::U64(report.checks.failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(report.checks.failed == 0)
}

/// `benchmark run`: every workload, both runs, interleaved rounds.
fn run_all(args: &[String]) -> Result<bool, String> {
    let quick = args.iter().any(|arg| arg == "--quick");
    let root = report::repo_root()?;
    let plan = Plan {
        workloads: Workload::ALL.to_vec(),
        seed: parsed(args, "--seed", DEFAULT_SEED)?,
        size: if quick { Size::Quick } else { Size::Full },
        seconds: parsed(args, "--seconds", if quick { 0.0 } else { DEFAULT_SECONDS })?,
        end_to_end: true,
        traced: true,
        root: root.clone(),
    };
    let out = flag(args, "--out")?
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("benchmark").join("out"));
    let outcome: Outcome = run::execute(&plan);
    run::write_outputs(&outcome, &out)?;
    outcome.results.print();
    println!("\nwrote {}", out.join("results.json").display());
    Ok(outcome
        .results
        .workloads
        .values()
        .all(|w| w.checks.failed == 0))
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare <A.json> <B.json>".to_string());
    };
    let declared = report::declared_end_to_end(&report::repo_root()?)?;
    let worse = report::compare(&Results::load(a)?, &Results::load(b)?, &declared);
    Ok(!worse)
}

/// Prints the default seed's input fingerprints; `--write` pins them.
fn fingerprint(args: &[String]) -> Result<bool, String> {
    let text = serde_json::to_string_pretty(&run::fingerprints(DEFAULT_SEED))
        .map_err(|e| e.to_string())?;
    if args.iter().any(|arg| arg == "--write") {
        let path = Fingerprints::path(&report::repo_root()?);
        std::fs::write(&path, format!("{text}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    } else {
        println!("{text}");
    }
    Ok(true)
}

fn rss_child(args: &[String]) -> Result<bool, String> {
    let size = flag(args, "--size")?
        .and_then(Size::parse)
        .ok_or("--size full|quick")?;
    run::rss_child(
        workload_arg(args)?,
        parsed(args, "--seed", DEFAULT_SEED)?,
        size,
    )?;
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("fingerprint") => fingerprint(&args[1..]),
        Some("rss-child") => rss_child(&args[1..]),
        Some(first) if first.starts_with("--") => single(&args),
        _ => Err(
            "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
             benchmark run [--quick] [--seed <n>] [--seconds <s>] [--out <dir>]\n       \
             benchmark compare <A.json> <B.json>\n       \
             benchmark fingerprint [--write]"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
