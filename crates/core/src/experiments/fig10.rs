//! Fig. 10 (Appendix B) — threshold-weight sweep.
//!
//! All three Moore et al. thresholds are scaled by a weight `w`; the
//! paper shows many low-volume events are excluded for w ≤ 0.3, that
//! attacks persist even at w = 10, and that the share of attacks
//! hitting well-known content infrastructure stays high for every `w`.

use super::Plot;
use crate::analysis::Analysis;
use crate::plot::PlotSpec;
use crate::report::{fmt_percent, Report};
use quicsand_sessions::dos::{detect_attacks, AttackProtocol, DosThresholds};
use quicsand_traffic::Scenario;

/// The weights swept (paper x-axis, log-spaced 0.1–10).
pub const WEIGHTS: [f64; 9] = [0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0];

/// Runs the experiment; plots attacks and content share against `w`.
pub fn run(scenario: &Scenario, analysis: &Analysis) -> (Report, Vec<Plot>) {
    let mut report = Report::new(
        "fig10",
        "DoS threshold weight sweep: detected attacks and content-provider share",
    )
    .with_columns(["weight", "attacks", "content provider share"]);

    let mut at_default = 0usize;
    let mut at_strictest = 0usize;
    let (mut counts, mut shares) = (Vec::new(), Vec::new());
    for w in WEIGHTS {
        let thresholds = DosThresholds::weighted(w);
        let attacks = detect_attacks(
            &analysis.response_sessions,
            AttackProtocol::Quic,
            &thresholds,
        );
        let known = attacks
            .iter()
            .filter(|a| scenario.world.servers.is_known_server(a.victim))
            .count();
        let share = known as f64 / attacks.len().max(1) as f64;
        if w == 1.0 {
            at_default = attacks.len();
        }
        if w == 10.0 {
            at_strictest = attacks.len();
        }
        report.push_row([
            format!("{w:.1}"),
            attacks.len().to_string(),
            fmt_percent(share),
        ]);
        counts.push((w, attacks.len() as f64));
        shares.push((w, share));
    }

    report.push_finding(
        "attacks at default thresholds (w=1)",
        "2905",
        &at_default.to_string(),
    );
    report.push_finding(
        "attacks remain at w=10",
        "5 (non-zero)",
        &at_strictest.to_string(),
    );
    report.push_note(
        "the exact w=10 count tracks the extreme tail of the intensity          distribution; the reproduced claim is that a handful of floods          survive even a 10x-strict configuration",
    );
    // Weights with zero detections carry no share information.
    let stays_high = counts
        .iter()
        .zip(&shares)
        .filter(|((_, n), _)| *n > 0.0)
        .all(|(_, (_, share))| *share > 0.7);
    report.push_finding(
        "content-infrastructure share stays high across w",
        "yes",
        if stays_high { "yes" } else { "no" },
    );
    let plot = PlotSpec::line(
        "DoS threshold weight sweep",
        "threshold weight w",
        "detected attacks / content share",
    )
    .with_log_x()
    .with_series("attacks", counts)
    .with_series("content share", shares);
    (report, vec![("fig10_threshold_sweep", plot)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use quicsand_traffic::ScenarioConfig;

    #[test]
    fn sweep_is_monotone_and_survives_strictest() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let (report, _) = run(&scenario, &analysis);
        let counts: Vec<u64> = report.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "stricter thresholds must not find more");
        }
        // Relaxed thresholds sweep in the misconfig noise.
        assert!(counts[0] > counts[4], "w=0.1 must exceed w=1");
        assert_eq!(report.findings[2].measured, "yes");
    }
}
