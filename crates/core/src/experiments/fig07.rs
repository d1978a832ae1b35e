//! Fig. 7 — CDFs of flood durations and intensities, QUIC vs TCP/ICMP.
//!
//! The paper: QUIC floods are shorter (median 255 s vs 1 499 s) but the
//! median intensity is ~1 max pps for both; the telescope's 1/512 share
//! extrapolates to 512 × max pps Internet-wide.

use super::Plot;
use crate::analysis::Analysis;
use crate::plot::PlotSpec;
use crate::report::{fmt_f64, Report};
use quicsand_sessions::dos::GLOBAL_RATE_FACTOR;
use quicsand_sessions::Cdf;

/// Runs the experiment; plots the duration (a) and intensity (b) CDFs.
pub fn run(analysis: &Analysis) -> (Report, Vec<Plot>) {
    let mut report = Report::new(
        "fig07",
        "Flood durations (a) and intensities (b): QUIC vs TCP/ICMP (CDF quantiles)",
    )
    .with_columns([
        "quantile",
        "QUIC duration [s]",
        "TCP/ICMP duration [s]",
        "QUIC max pps",
        "TCP/ICMP max pps",
    ]);

    let quic_durations = Cdf::new(
        analysis
            .quic_attacks
            .iter()
            .map(|a| a.duration().as_secs_f64())
            .collect(),
    );
    let common_durations = Cdf::new(
        analysis
            .common_attacks
            .iter()
            .map(|a| a.duration().as_secs_f64())
            .collect(),
    );
    let quic_pps = Cdf::new(analysis.quic_attacks.iter().map(|a| a.max_pps).collect());
    let common_pps = Cdf::new(analysis.common_attacks.iter().map(|a| a.max_pps).collect());

    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99] {
        report.push_row([
            format!("{q:.2}"),
            fmt_f64(quic_durations.quantile(q).unwrap_or(0.0)),
            fmt_f64(common_durations.quantile(q).unwrap_or(0.0)),
            fmt_f64(quic_pps.quantile(q).unwrap_or(0.0)),
            fmt_f64(common_pps.quantile(q).unwrap_or(0.0)),
        ]);
    }

    let quic_median = quic_durations.median().unwrap_or(0.0);
    let common_median = common_durations.median().unwrap_or(0.0);
    report.push_finding(
        "median QUIC flood duration",
        "255 s",
        &format!("{} s", fmt_f64(quic_median)),
    );
    report.push_finding(
        "median TCP/ICMP flood duration",
        "1499 s",
        &format!("{} s", fmt_f64(common_median)),
    );
    report.push_finding(
        "QUIC floods shorter than TCP/ICMP",
        "yes (~5.9x)",
        &format!("yes ({}x)", fmt_f64(common_median / quic_median.max(1e-9))),
    );
    report.push_finding(
        "median QUIC intensity (max pps)",
        "~1",
        &fmt_f64(quic_pps.median().unwrap_or(0.0)),
    );
    report.push_finding(
        "median TCP/ICMP intensity (max pps)",
        "~1",
        &fmt_f64(common_pps.median().unwrap_or(0.0)),
    );
    report.push_finding(
        "estimated global rate at median (512x)",
        "~512 pps",
        &format!(
            "{} pps",
            fmt_f64(quic_pps.median().unwrap_or(0.0) * GLOBAL_RATE_FACTOR)
        ),
    );
    report.push_finding(
        "TCP/ICMP attacks detected",
        "282k (full population)",
        &analysis.common_attacks.len().to_string(),
    );
    report.push_note(
        "TCP/ICMP population generated as a documented sub-sample; distribution shapes preserved",
    );
    let durations = PlotSpec::step("Flood durations (CDF)", "duration [s]", "CDF")
        .with_log_x()
        .with_series("QUIC", quic_durations.points())
        .with_series("TCP/ICMP", common_durations.points());
    let intensities = PlotSpec::step("Flood intensities (CDF)", "max pps", "CDF")
        .with_log_x()
        .with_series("QUIC", quic_pps.points())
        .with_series("TCP/ICMP", common_pps.points());
    (
        report,
        vec![
            ("fig07a_durations", durations),
            ("fig07b_intensities", intensities),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use quicsand_traffic::{Scenario, ScenarioConfig};

    #[test]
    fn quic_shorter_but_similar_intensity() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let (report, _) = run(&analysis);
        let quic_median: f64 = report.findings[0]
            .measured
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let common_median: f64 = report.findings[1]
            .measured
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            common_median > 2.0 * quic_median,
            "QUIC {quic_median}s vs common {common_median}s"
        );
        // Medians of intensity within the same order of magnitude, near 1.
        let quic_pps: f64 = report.findings[3].measured.parse().unwrap();
        let common_pps: f64 = report.findings[4].measured.parse().unwrap();
        assert!((0.3..=3.0).contains(&quic_pps), "quic pps {quic_pps}");
        assert!((0.3..=3.0).contains(&common_pps), "common pps {common_pps}");
    }
}
