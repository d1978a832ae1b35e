//! Fig. 6 — CDF of attacks per QUIC flood victim.
//!
//! The paper: 2 905 attacks over 394 victims, more than half of the
//! victims attacked only once, heavy tail (last 5 data points
//! highlighted).

use super::Plot;
use crate::analysis::Analysis;
use crate::plot::PlotSpec;
use crate::report::{fmt_percent, Report};
use quicsand_sessions::dos::attacks_per_victim;
use quicsand_sessions::Cdf;

/// Runs the experiment; plots the CDF its rows list.
pub fn run(analysis: &Analysis) -> (Report, Vec<Plot>) {
    let mut report = Report::new("fig06", "CDF of number of attacks per QUIC flood victim")
        .with_columns(["attacks per victim", "CDF"]);

    let counts = attacks_per_victim(&analysis.quic_attacks);
    let samples: Vec<f64> = counts.values().map(|&c| c as f64).collect();
    let cdf = Cdf::new(samples);
    let points = cdf.points();
    for (x, y) in &points {
        report.push_row([format!("{x:.0}"), format!("{y:.4}")]);
    }

    report.push_finding(
        "total QUIC attacks",
        "2905",
        &analysis.quic_attacks.len().to_string(),
    );
    report.push_finding("unique victims", "394", &counts.len().to_string());
    report.push_finding(
        "victims attacked exactly once",
        ">50%",
        &fmt_percent(cdf.fraction_at_or_below(1.0)),
    );

    // The highlighted tail: the 5 most-attacked victims.
    let mut tail: Vec<u64> = counts.values().copied().collect();
    tail.sort_unstable_by(|a, b| b.cmp(a));
    let top5: Vec<String> = tail.iter().take(5).map(u64::to_string).collect();
    report.push_finding(
        "5 most-attacked victims (attack counts)",
        "long tail",
        &top5.join(", "),
    );
    let plot = PlotSpec::step(
        "Attacks per QUIC flood victim (CDF)",
        "attacks per victim",
        "CDF",
    )
    .with_log_x()
    .with_series("victims", points);
    (report, vec![("fig06_victim_cdf", plot)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use quicsand_traffic::{Scenario, ScenarioConfig};

    #[test]
    fn half_of_victims_attacked_once_with_heavy_tail() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let (report, _) = run(&analysis);
        let once: f64 = report.findings[2]
            .measured
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(once > 35.0, "single-attack victims {once}%");
        let top: u64 = report.findings[3]
            .measured
            .split(", ")
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(top >= 3, "heavy tail, top victim has {top}");
        // CDF rows end at 1.0.
        let last: f64 = report.rows.last().unwrap()[1].parse().unwrap();
        assert!((last - 1.0).abs() < 1e-9);
    }
}
