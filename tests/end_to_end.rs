//! Cross-crate end-to-end test: scenario generation → telescope
//! pipeline → sessionization → DoS inference → multi-vector
//! correlation → every experiment runner.

use quicsand_core::experiments::{Runner, CATALOG};
use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_sessions::multivector::MultiVectorClass;
use quicsand_traffic::{Scenario, ScenarioConfig};
use std::sync::OnceLock;

fn fixtures() -> &'static (Scenario, Analysis) {
    static CELL: OnceLock<(Scenario, Analysis)> = OnceLock::new();
    CELL.get_or_init(|| {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        (scenario, analysis)
    })
}

/// Every catalog entry returns a report under its own id, except the two
/// slowest standalone ones: `adaptive_retry` (~9 s in release) and
/// `mitigation` (~0.7 s), skipped to hold the Tier-1 wall time.
#[test]
fn every_experiment_produces_a_report() {
    const SLOW: [&str; 2] = ["adaptive_retry", "mitigation"];
    let (scenario, analysis) = fixtures();
    let reports: Vec<_> = CATALOG
        .iter()
        .filter(|entry| !SLOW.contains(&entry.id))
        .map(|entry| {
            let report = match entry.runner {
                Runner::Scenario(run) => run(scenario, analysis).0,
                Runner::Standalone(run) => run(0.01),
            };
            assert_eq!(report.id, entry.id, "a report carries its catalog id");
            report
        })
        .collect();
    for report in &reports {
        assert!(!report.findings.is_empty(), "{} has findings", report.id);
        let text = report.render();
        assert!(text.contains(&report.id));
        // JSON serialization works for downstream tooling.
        let json = report.to_json().unwrap();
        assert!(json.contains(&report.id));
    }
    let ids: std::collections::HashSet<_> = CATALOG.iter().map(|entry| entry.id).collect();
    assert_eq!(ids.len(), CATALOG.len(), "catalog ids are distinct");
    assert_eq!(reports.len() + SLOW.len(), CATALOG.len());
}

#[test]
fn headline_findings_reproduce() {
    let (_, analysis) = fixtures();
    // Four floods per hour territory (test preset plants ~60 over 2 days
    // => ~1.2/h; the invariant checked here is detection, not rate).
    assert!(analysis.quic_attacks.len() >= 40);
    // Multi-vector ordering: concurrent > sequential > isolated.
    let c = analysis.multivector.share(MultiVectorClass::Concurrent);
    let s = analysis.multivector.share(MultiVectorClass::Sequential);
    let i = analysis.multivector.share(MultiVectorClass::Isolated);
    assert!(c > s && s > i, "shares {c:.2}/{s:.2}/{i:.2}");
    // QUIC floods shorter than common floods in the median.
    let median = |attacks: &[quicsand_sessions::Attack]| {
        let mut d: Vec<f64> = attacks.iter().map(|a| a.duration().as_secs_f64()).collect();
        d.sort_by(|x, y| x.partial_cmp(y).unwrap());
        d[d.len() / 2]
    };
    assert!(median(&analysis.common_attacks) > median(&analysis.quic_attacks));
}

#[test]
fn planted_and_detected_agree_on_victim_set() {
    let (scenario, analysis) = fixtures();
    let planted: std::collections::HashSet<_> =
        scenario.truth.plan.victims.iter().copied().collect();
    let detected = analysis.victims();
    assert!(detected.is_subset(&planted));
    // Most planted victims are rediscovered.
    assert!(
        detected.len() as f64 >= 0.6 * planted.len() as f64,
        "{} of {} victims detected",
        detected.len(),
        planted.len()
    );
}

#[test]
fn ingest_accounts_for_every_record() {
    let (scenario, analysis) = fixtures();
    let s = &analysis.ingest;
    assert_eq!(s.total, scenario.records.len() as u64);
    assert_eq!(
        s.quic_candidates + s.tcp + s.icmp + s.other_udp + s.ambiguous,
        s.total
    );
    assert_eq!(s.quic_valid + s.quic_false_positives, s.quic_candidates);
    assert_eq!(s.ambiguous, 0, "no packet has both ports 443 (§4.1)");
}

#[test]
fn analysis_is_deterministic() {
    let (scenario, analysis) = fixtures();
    let again = Analysis::run(scenario, &AnalysisConfig::default());
    assert_eq!(again.quic_attacks, analysis.quic_attacks);
    assert_eq!(again.common_attacks.len(), analysis.common_attacks.len());
    assert_eq!(
        again.multivector.class_counts,
        analysis.multivector.class_counts
    );
}
