//! Fig. 12 (Appendix C) — time overlap of concurrent attacks.
//!
//! The paper: three quarters of concurrent QUIC attacks run completely
//! in parallel to a TCP/ICMP attack (overlap share 100 %); the mean
//! overlap is 95 % of the QUIC attack's duration.

use super::Plot;
use crate::analysis::Analysis;
use crate::plot::PlotSpec;
use crate::report::{fmt_percent, Report};
use quicsand_sessions::Cdf;

/// Runs the experiment; plots the CDF its rows list.
pub fn run(analysis: &Analysis) -> (Report, Vec<Plot>) {
    let mut report = Report::new("fig12", "CDF of overlap share for concurrent QUIC attacks")
        .with_columns(["overlap share", "CDF"]);

    let shares = analysis.multivector.overlap_shares();
    let cdf = Cdf::new(shares.clone());
    let points = cdf.points();
    for (x, y) in &points {
        report.push_row([format!("{x:.3}"), format!("{y:.4}")]);
    }

    let full = shares.iter().filter(|s| **s >= 0.999).count();
    report.push_finding(
        "concurrent attacks fully overlapped (100%)",
        "~75%",
        &fmt_percent(full as f64 / shares.len().max(1) as f64),
    );
    let mean = if shares.is_empty() {
        0.0
    } else {
        shares.iter().sum::<f64>() / shares.len() as f64
    };
    report.push_finding("mean overlap share", "95%", &fmt_percent(mean));
    let plot = PlotSpec::step(
        "Overlap of concurrent QUIC attacks (CDF)",
        "overlap share of attack time",
        "CDF",
    )
    .with_series("concurrent attacks", points);
    (report, vec![("fig12_overlap", plot)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use quicsand_traffic::{Scenario, ScenarioConfig};

    #[test]
    fn most_concurrent_attacks_fully_overlap() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let (report, _) = run(&analysis);
        let full: f64 = report.findings[0]
            .measured
            .trim_end_matches('%')
            .parse()
            .unwrap();
        let mean: f64 = report.findings[1]
            .measured
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(full > 50.0, "fully-overlapped share {full}%");
        assert!(mean > 80.0, "mean overlap {mean}%");
    }
}
