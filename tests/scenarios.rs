//! Scenario conformance suite for the post-2021 workload tier.
//!
//! Each [`ScenarioKind`] — migration abuse, evolving scanners, version
//! drift, Retry amplification — is held to the same contract as the
//! baseline scenario:
//!
//! * a **golden pin**: a compact per-scenario summary (ground-truth
//!   component counts, detected attacks, migration links, multi-vector
//!   kind counts) snapshotted under `tests/golden/` with the usual
//!   `UPDATE_GOLDEN=1` re-bless flow;
//! * **live ≡ batch**: the live engine's closed alerts equal the batch
//!   reference at {1, 2, 8} shards with rotating chunk sizes, and
//!   across a mid-run JSON checkpoint/restore;
//! * **generator invariants**: seed determinism, time-sortedness and
//!   count conservation for every kind across a ladder of seeds (the
//!   lazy evolving-scan stream's pool contract is a property in
//!   `tests/properties.rs`, run over both flow-merge models);
//! * the **classifier contract**: `classify_multivector_with` emits
//!   `VectorKind::MigrationAbuse` on the migration workload and
//!   `VectorKind::RetryAmplification` on the Retry workload.

mod common;

use common::batch_reference;
use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_events::qlog::QlogWriter;
use quicsand_live::{LiveConfig, LiveEngine, LiveSnapshot};
use quicsand_sessions::{Attack, SessionConfig};
use quicsand_telescope::GuardConfig;
use quicsand_traffic::{Scenario, ScenarioConfig, ScenarioKind};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Same snapshot discipline as `tests/golden.rs`: byte-for-byte
/// comparison, `UPDATE_GOLDEN=1` to re-bless.
fn check_text(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, rendered).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: missing snapshot {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test scenarios`",
            path.display()
        )
    });
    if rendered != expected {
        let diff_line = rendered
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("first diff at line {}: got `{a}`, want `{b}`", i + 1))
            .unwrap_or_else(|| "snapshots differ in length".to_string());
        panic!(
            "{name}: drift against {} — {diff_line}\n  \
             (re-bless with `UPDATE_GOLDEN=1 cargo test --test scenarios` if intentional)",
            path.display()
        );
    }
}

/// The pinned per-scenario summary: everything in it is a pure
/// function of the seeded trace.
fn summary(kind: ScenarioKind, scenario: &Scenario, analysis: &Analysis) -> String {
    let mut kinds: Vec<(&String, &usize)> = analysis.multivector.kind_counts.iter().collect();
    kinds.sort();
    let kind_counts = if kinds.is_empty() {
        "{}".to_string()
    } else {
        let body = kinds
            .iter()
            .map(|(k, v)| format!("    \"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(",\n");
        format!("{{\n{body}\n  }}")
    };
    format!(
        "{{\n  \"scenario\": \"{kind}\",\n  \"records\": {},\n  \
         \"research_packets\": {},\n  \"request_packets\": {},\n  \
         \"response_packets\": {},\n  \"common_packets\": {},\n  \
         \"garbage_packets\": {},\n  \"quic_attacks\": {},\n  \
         \"common_attacks\": {},\n  \"request_sessions\": {},\n  \
         \"migrations\": {},\n  \"kind_counts\": {kind_counts}\n}}\n",
        scenario.records.len(),
        scenario.truth.research_packets,
        scenario.truth.request_packets,
        scenario.truth.response_packets,
        scenario.truth.common_packets,
        scenario.truth.garbage_packets,
        analysis.quic_attacks.len(),
        analysis.common_attacks.len(),
        analysis.request_sessions.len(),
        analysis.migrations.len(),
    )
}

fn analyzed(kind: ScenarioKind) -> (Scenario, Analysis) {
    let scenario = kind.generate(&ScenarioConfig::test());
    let analysis = Analysis::run(
        &scenario,
        &AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        },
    );
    analysis.verify_metrics().expect("metrics reconcile");
    (scenario, analysis)
}

// ---------------------------------------------------------------------
// Golden pins + classifier contract, one test per kind
// ---------------------------------------------------------------------

#[test]
fn migration_abuse_matches_golden_and_tags_victims() {
    let (scenario, analysis) = analyzed(ScenarioKind::MigrationAbuse);
    assert!(
        !analysis.migrations.is_empty(),
        "migration linker must fold the abusive flows"
    );
    // Every link joins two distinct addresses under one CID key.
    for link in &analysis.migrations {
        assert_ne!(link.from, link.to);
    }
    assert!(
        analysis
            .multivector
            .kind_counts
            .contains_key("migration-abuse"),
        "classifier must tag migrated-onto victims: {:?}",
        analysis.multivector.kind_counts
    );
    check_text(
        "scenario-migration-abuse.json",
        &summary(ScenarioKind::MigrationAbuse, &scenario, &analysis),
    );
}

#[test]
fn retry_amplification_matches_golden_and_tags_victims() {
    let (scenario, analysis) = analyzed(ScenarioKind::RetryAmplification);
    assert!(
        analysis
            .multivector
            .kind_counts
            .contains_key("retry-amplification"),
        "classifier must tag Retry-storm victims: {:?}",
        analysis.multivector.kind_counts
    );
    check_text(
        "scenario-retry-amplification.json",
        &summary(ScenarioKind::RetryAmplification, &scenario, &analysis),
    );
}

#[test]
fn version_drift_matches_golden() {
    let (scenario, analysis) = analyzed(ScenarioKind::VersionDrift);
    assert!(
        !analysis.request_sessions.is_empty(),
        "phased scans must sessionize"
    );
    check_text(
        "scenario-version-drift.json",
        &summary(ScenarioKind::VersionDrift, &scenario, &analysis),
    );
}

#[test]
fn evolving_scanners_matches_golden() {
    let (scenario, analysis) = analyzed(ScenarioKind::EvolvingScanners);
    assert!(
        !analysis.request_sessions.is_empty(),
        "evolving scan pool must sessionize"
    );
    check_text(
        "scenario-evolving-scanners.json",
        &summary(ScenarioKind::EvolvingScanners, &scenario, &analysis),
    );
}

// ---------------------------------------------------------------------
// Live ≡ batch equivalence per scenario kind
// ---------------------------------------------------------------------

fn live_config(guard: &GuardConfig) -> LiveConfig {
    LiveConfig {
        session: SessionConfig {
            skew_tolerance: guard.reorder_tolerance,
            ..SessionConfig::default()
        },
        ..LiveConfig::default()
    }
}

fn assert_engine_matches(engine: &LiveEngine, quic: &[Attack], common: &[Attack], context: &str) {
    let live_quic: Vec<Attack> = engine
        .closed_quic()
        .iter()
        .map(|c| c.attack.clone())
        .collect();
    assert_eq!(live_quic, quic, "QUIC attacks diverged: {context}");
    assert_eq!(
        engine.closed_common(),
        common,
        "common attacks diverged: {context}"
    );
}

#[test]
fn every_scenario_kind_is_live_batch_equivalent() {
    for kind in ScenarioKind::all() {
        let mut records = kind.generate(&ScenarioConfig::test()).records;
        // A prefix is itself a finite trace; it keeps the matrix fast
        // while still closing alerts.
        records.truncate(60_000);
        let guard = GuardConfig::default();
        let config = live_config(&guard);
        let (batch_quic, batch_common, _) = batch_reference(&records, guard, &config);
        assert!(
            !batch_quic.is_empty(),
            "{kind}: trace must close QUIC alerts for parity to mean anything"
        );

        // Rotating chunk sizes across the shard ladder.
        for (shards, chunk) in [(1usize, 997usize), (2, 4_096), (8, 64)] {
            let mut engine = LiveEngine::new(config, guard, shards);
            for part in records.chunks(chunk) {
                let _ = engine.offer_chunk(part);
            }
            let _ = engine.finish();
            assert_engine_matches(
                &engine,
                &batch_quic,
                &batch_common,
                &format!("{kind} shards={shards} chunk={chunk}"),
            );
        }

        // Same stream with a JSON checkpoint/restore mid-run.
        let mut engine = LiveEngine::new(config, guard, 2);
        let mut since = 0usize;
        for part in records.chunks(1_024) {
            let _ = engine.offer_chunk(part);
            since += part.len();
            if since >= 20_000 {
                since = 0;
                let snapshot = engine.snapshot();
                let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
                let parsed: LiveSnapshot = serde_json::from_str(&json).expect("snapshot parses");
                engine = LiveEngine::restore(&parsed);
            }
        }
        let _ = engine.finish();
        assert_engine_matches(
            &engine,
            &batch_quic,
            &batch_common,
            &format!("{kind} across checkpoint/restore"),
        );
    }
}

// ---------------------------------------------------------------------
// Migration events reach the qlog stream
// ---------------------------------------------------------------------

#[test]
fn migration_events_reach_the_qlog_stream() {
    let scenario = ScenarioKind::MigrationAbuse.generate(&ScenarioConfig::test());
    let (mut writer, buffer) =
        QlogWriter::to_buffer("scenario conformance", &["migration-abuse".to_string()])
            .expect("buffer-backed qlog writer");
    let analysis = Analysis::run(
        &scenario,
        &AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        },
    );
    let mut replay = analysis.event_replay();
    replay.offer(&scenario.records, &mut writer);
    replay.finish(&mut writer);
    let (events, _) = writer.finish().expect("finish qlog");
    assert!(events > 0, "scenario must emit events");

    let text = String::from_utf8(buffer.contents()).expect("qlog is utf-8");
    let migrated: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("quicsand:session_migrated"))
        .collect();
    assert_eq!(
        migrated.len(),
        analysis.migrations.len(),
        "one qlog event per migration link"
    );
    assert!(!migrated.is_empty(), "migration events present");
    // Pin the migration slice of the stream (JSON-SEQ framing intact).
    let mut slice = migrated.join("\n");
    slice.push('\n');
    check_text("scenario-migration-events.qlog", &slice);
}

// ---------------------------------------------------------------------
// Generator invariants
// ---------------------------------------------------------------------

/// A scenario small enough to regenerate for every seed of a ladder.
fn tiny_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        days: 1,
        request_sessions: 40,
        quic_attacks: 12,
        victim_pool: 8,
        common_attacks: 16,
        misconfig_sessions: 30,
        garbage_udp443_packets: 10,
        ..ScenarioConfig::test()
    }
}

/// Every scenario kind stays seed-deterministic, time-sorted and
/// count-conserving across a ladder of off-golden seeds (full
/// generation is too heavy for the 64-case proptest budget, so the
/// seeds are pinned but deliberately unrelated to the golden seed).
#[test]
fn scenario_kinds_hold_invariants_across_seeds() {
    for seed in [1u64, 0x5eed_cafe, 0xffff_ffff_0000_0001] {
        let config = tiny_config(seed);
        for kind in ScenarioKind::all() {
            let s = kind.generate(&config);
            assert!(!s.records.is_empty(), "{kind}@{seed:#x}: non-empty");
            assert!(
                s.records.windows(2).all(|w| w[0].ts <= w[1].ts),
                "{kind}@{seed:#x}: time-sorted"
            );
            let total = s.truth.research_packets
                + s.truth.request_packets
                + s.truth.response_packets
                + s.truth.common_packets
                + s.truth.garbage_packets;
            assert_eq!(
                total,
                s.records.len() as u64,
                "{kind}@{seed:#x}: counts add up"
            );
            assert!(
                s.records.iter().all(|r| s.world.telescope.contains(r.dst)),
                "{kind}@{seed:#x}: dst in telescope"
            );
            let again = kind.generate(&config);
            assert_eq!(
                s.records.len(),
                again.records.len(),
                "{kind}@{seed:#x}: deterministic"
            );
            assert_eq!(
                s.truth, again.truth,
                "{kind}@{seed:#x}: truth deterministic"
            );
        }
    }
}
