//! Golden-figure regression tests.
//!
//! Every paper artifact in the experiment catalog is regenerated from a
//! fixed seed and compared byte-for-byte against a checked-in JSON
//! snapshot under `tests/golden/` — all but `adaptive_retry` (~9 s in
//! release) and `mitigation` (~0.7 s), which are left out to hold the
//! Tier-1 wall time — and every plot a runner returns against its SVG,
//! `tests/golden/<stem>.svg`. Reports carry no wall-clock timings,
//! so the snapshots are stable across machines; any drift means an
//! intentional algorithm change (re-bless) or an accidental regression
//! (fix it).
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use quicsand_core::experiments::{Runner, CATALOG};
use quicsand_core::plot::render_svg;
use quicsand_core::{Analysis, AnalysisConfig, Report};
use quicsand_traffic::{Scenario, ScenarioConfig};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares one report against its snapshot, or re-blesses it when
/// `UPDATE_GOLDEN` is set. Returns a drift description instead of
/// panicking so the caller can report *all* drifted artifacts at once.
fn check(report: &Report) -> Result<(), String> {
    let path = golden_dir().join(format!("{}.json", report.id));
    let mut rendered = report.to_json().expect("report serializes");
    rendered.push('\n');
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &rendered).expect("write snapshot");
        return Ok(());
    }
    let expected = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: missing snapshot {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test golden`",
            report.id,
            path.display()
        )
    })?;
    if rendered != expected {
        // Point at the first differing line to keep failures readable.
        let diff_line = rendered
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("first diff at line {}: got `{a}`, want `{b}`", i + 1))
            .unwrap_or_else(|| "reports differ in length".to_string());
        return Err(format!(
            "{}: drift against {} — {diff_line}\n  \
             (re-bless with `UPDATE_GOLDEN=1 cargo test --test golden` if intentional)",
            report.id,
            path.display()
        ));
    }
    Ok(())
}

/// Every scenario-derived artifact of the catalog, regenerated at the
/// fixed test seed, must match its checked-in snapshot, and each of its
/// plots its SVG — inline on one shard and through the cross-shard merge
/// on two threads, against the same files.
#[test]
fn figures_match_golden_snapshots() {
    let config = ScenarioConfig::test();
    let scenario = Scenario::generate(&config);
    let mut drifted = Vec::new();
    for threads in [1, 2] {
        let analysis = Analysis::run(
            &scenario,
            &AnalysisConfig {
                threads,
                ..AnalysisConfig::default()
            },
        );
        for entry in CATALOG {
            let Runner::Scenario(run) = entry.runner else {
                continue;
            };
            let (report, plots) = run(&scenario, &analysis);
            let svgs = plots
                .iter()
                .map(|(stem, spec)| check_text(&format!("{stem}.svg"), &render_svg(spec)));
            drifted.extend(
                std::iter::once(check(&report))
                    .chain(svgs)
                    .filter_map(Result::err)
                    .map(|drift| format!("threads={threads}: {drift}")),
            );
        }
    }
    assert!(
        drifted.is_empty(),
        "golden drift in {} artifact(s):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

/// Compares raw rendered text against a named snapshot file, with the
/// same `UPDATE_GOLDEN=1` re-bless flow as the report snapshots.
fn check_text(name: &str, rendered: &str) -> Result<(), String> {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, rendered).expect("write snapshot");
        return Ok(());
    }
    let expected = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{name}: missing snapshot {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test golden`",
            path.display()
        )
    })?;
    if rendered != expected {
        let diff_line = rendered
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("first diff at line {}: got `{a}`, want `{b}`", i + 1))
            .unwrap_or_else(|| "snapshots differ in length".to_string());
        return Err(format!(
            "{name}: drift against {} — {diff_line}\n  \
             (re-bless with `UPDATE_GOLDEN=1 cargo test --test golden` if intentional)",
            path.display()
        ));
    }
    Ok(())
}

/// The *stable* metric exposition (Prometheus text and canonical JSON)
/// for the seeded end-to-end scenario must match its checked-in
/// snapshots byte for byte. Volatile series (walltimes, thread counts,
/// peaks, checkpoint volume) are excluded — everything in these files
/// is a pure function of the trace, so drift means a behavior change
/// in classification, sessionization or detection.
#[test]
fn metrics_exposition_matches_golden_snapshots() {
    let scenario = Scenario::generate(&ScenarioConfig::test());
    let analysis = Analysis::run(
        &scenario,
        &AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        },
    );
    analysis.verify_metrics().expect("metrics reconcile");

    let drifted: Vec<String> = [
        check_text("metrics.prom", &analysis.registry.render_prometheus(true)).err(),
        check_text("metrics.json", &analysis.registry.render_json(true)).err(),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(
        drifted.is_empty(),
        "metrics golden drift:\n{}",
        drifted.join("\n")
    );
}

/// The typed event stream for a deterministic scenario prefix,
/// serialized as qlog 0.4 JSON-SEQ, must match its checked-in snapshot
/// byte for byte. Event times come from packet timestamps (never the
/// wall clock) and the stream is shard-invariant by construction, so
/// any drift is a real change to what the pipeline emits — to event
/// taxonomy, ordering, or serialization.
#[test]
fn events_qlog_matches_golden_snapshot() {
    use quicsand_events::qlog::QlogWriter;
    use quicsand_live::{LiveConfig, LiveEngine};
    use quicsand_sessions::SessionConfig;
    use quicsand_telescope::GuardConfig;

    let mut records = Scenario::generate(&ScenarioConfig::test()).records;
    records.truncate(20_000);
    let guard = GuardConfig::default();
    let config = LiveConfig {
        session: SessionConfig {
            skew_tolerance: guard.reorder_tolerance,
            ..SessionConfig::default()
        },
        ..LiveConfig::default()
    };

    let (mut writer, buffer) =
        QlogWriter::to_buffer("quicsand events golden", &["scenario-test".to_string()])
            .expect("buffer-backed qlog writer");
    let mut engine = LiveEngine::new(config, guard, 2);
    for part in records.chunks(1024) {
        let _ = engine.offer_chunk_with(part, &mut writer);
    }
    let _ = engine.finish_with(&mut writer);
    let (events, _) = writer.finish().expect("finish qlog");
    assert!(events > 0, "golden trace must emit events");

    let rendered = String::from_utf8(buffer.contents()).expect("qlog is UTF-8");
    if let Err(drift) = check_text("events.qlog", &rendered) {
        panic!("{drift}");
    }
}

/// The catalog's standalone artifacts skipped here, with the reason.
const SLOW: [&str; 2] = [
    // ~9 s in release: a retry-policy sweep across flood rates.
    "adaptive_retry",
    // ~0.7 s in release: two filters against two flood source models.
    "mitigation",
];

/// Runs the catalog's standalone entry `id` at Table 1's golden request
/// factor, 0.01.
fn standalone(id: &str) -> Report {
    let entry = CATALOG
        .iter()
        .find(|entry| entry.id == id)
        .expect("catalog id");
    match entry.runner {
        Runner::Standalone(run) => run(0.01),
        Runner::Scenario(_) => panic!("{id} needs the scenario"),
    }
}

/// Table 1 (server resiliency replay) at the standard sub-sampled
/// scale must match its snapshot: the replay model is seeded, so any
/// drift is a behavior change in the server model, not noise.
#[test]
fn tab01_matches_golden_snapshot() {
    if let Err(drift) = check(&standalone("tab01")) {
        panic!("{drift}");
    }
}

/// Every other standalone artifact of the catalog but the [`SLOW`] ones
/// must match its snapshot too; each is seeded or closed-form.
#[test]
fn standalone_artifacts_match_golden_snapshots() {
    let drifted: Vec<String> = CATALOG
        .iter()
        .filter(|entry| matches!(entry.runner, Runner::Standalone(_)))
        .filter(|entry| entry.id != "tab01" && !SLOW.contains(&entry.id))
        .filter_map(|entry| check(&standalone(entry.id)).err())
        .collect();
    assert!(drifted.is_empty(), "golden drift:\n{}", drifted.join("\n"));
}
