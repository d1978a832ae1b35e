//! §6 — validity of the attack patterns: message-type mix of DoS
//! backscatter and the absence of RETRY.
//!
//! The paper: DoS-suspect QUIC events consist of ~31 % Initial and
//! ~57 % Handshake messages; the Initials carry no unencrypted Client
//! Hello (they are encrypted Server Hello replies); not a single RETRY
//! was captured.

use crate::analysis::Analysis;
use crate::report::{fmt_percent, Report};
use quicsand_dissect::{MessageKind, MessageMixStats};

/// Runs the experiment.
pub fn run(analysis: &Analysis) -> Report {
    let mut report = Report::new(
        "msgmix",
        "Message-type mix of DoS backscatter and RETRY deployment (§6)",
    )
    .with_columns(["message type", "count", "share"]);

    // Restrict to packets belonging to detected attacks, as §6 does
    // ("Captured QUIC events that are suspect to DoS").
    let mut stats = MessageMixStats::new();
    for tally in &analysis.attack_tallies {
        stats.merge(&tally.messages);
    }

    for kind in [
        MessageKind::Initial,
        MessageKind::Handshake,
        MessageKind::OneRtt,
        MessageKind::ZeroRtt,
        MessageKind::Retry,
        MessageKind::VersionNegotiation,
    ] {
        report.push_row([
            kind.label().to_string(),
            stats.count(kind).to_string(),
            fmt_percent(stats.share(kind)),
        ]);
    }

    report.push_finding(
        "Initial share of DoS backscatter",
        "31%",
        &fmt_percent(stats.share(MessageKind::Initial)),
    );
    report.push_finding(
        "Handshake share of DoS backscatter",
        "57%",
        &fmt_percent(stats.share(MessageKind::Handshake)),
    );
    report.push_finding(
        "Initials carrying an unencrypted Client Hello",
        "none (encrypted Server Hello replies)",
        &stats.initials_with_client_hello.to_string(),
    );
    report.push_finding(
        "RETRY messages captured",
        "0 (defence not deployed)",
        &stats.count(MessageKind::Retry).to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use quicsand_traffic::{Scenario, ScenarioConfig};

    #[test]
    fn mix_matches_paper_shape() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let report = run(&analysis);
        let pct = |i: usize| -> f64 {
            report.findings[i]
                .measured
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        let initial = pct(0);
        let handshake = pct(1);
        assert!((22.0..=40.0).contains(&initial), "initial {initial}%");
        assert!((48.0..=72.0).contains(&handshake), "handshake {handshake}%");
        assert!(handshake > initial * 1.5, "handshake ≈ 2x initial");
        assert_eq!(report.findings[2].measured, "0", "no visible client hellos");
        assert_eq!(report.findings[3].measured, "0", "no RETRY in the wild");
    }
}
