//! Fig. 8 — multi-vector attacks: concurrent / sequential / isolated
//! shares.
//!
//! The paper: 51 % of QUIC floods overlap in time with TCP/ICMP floods,
//! 40 % hit a victim that was also attacked at another time, only 9 %
//! are unrelated to any common flood.

use super::Plot;
use crate::analysis::Analysis;
use crate::plot::PlotSpec;
use crate::report::{fmt_percent, Report};
use quicsand_sessions::multivector::MultiVectorClass;

/// Runs the experiment; plots the class shares.
pub fn run(analysis: &Analysis) -> (Report, Vec<Plot>) {
    let mut report = Report::new(
        "fig08",
        "Multi-vector attacks: QUIC floods relative to TCP/ICMP floods",
    )
    .with_columns(["class", "QUIC attacks", "share"]);

    let classes = [
        MultiVectorClass::Concurrent,
        MultiVectorClass::Sequential,
        MultiVectorClass::Isolated,
    ];
    let total = analysis.multivector.attacks.len().max(1);
    let mut shares = Vec::with_capacity(classes.len());
    for (i, class) in classes.iter().enumerate() {
        let count = analysis
            .multivector
            .class_counts
            .get(class.label())
            .copied()
            .unwrap_or(0);
        let share = count as f64 / total as f64;
        report.push_row([
            class.label().to_string(),
            count.to_string(),
            fmt_percent(share),
        ]);
        shares.push((i as f64, share));
    }

    for ((metric, paper), (_, share)) in [
        ("concurrent with TCP/ICMP floods", "51%"),
        ("sequential to TCP/ICMP floods", "40%"),
        ("isolated QUIC floods", "9%"),
    ]
    .into_iter()
    .zip(&shares)
    {
        report.push_finding(metric, paper, &fmt_percent(*share));
    }
    let gaps = analysis.multivector.gap_seconds();
    if !gaps.is_empty() {
        let mean_hours = gaps.iter().sum::<f64>() / gaps.len() as f64 / 3_600.0;
        report.push_finding(
            "mean gap of sequential attacks",
            "36 h",
            &format!("{mean_hours:.1} h"),
        );
    }
    let plot = PlotSpec::bar(
        "Multi-vector attacks: QUIC floods vs TCP/ICMP floods",
        "class",
        "share of QUIC floods",
    )
    .with_categories(classes.iter().map(|c| c.label()))
    .with_series("QUIC floods", shares);
    (report, vec![("fig08_multivector", plot)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use quicsand_traffic::{Scenario, ScenarioConfig};

    #[test]
    fn shares_follow_paper_ordering() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let (report, _) = run(&analysis);
        let pct = |i: usize| -> f64 {
            report.findings[i]
                .measured
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        let (concurrent, sequential, isolated) = (pct(0), pct(1), pct(2));
        assert!(
            concurrent > sequential && sequential > isolated,
            "{concurrent} / {sequential} / {isolated}"
        );
        // Around half concurrent (generous band at test scale).
        assert!(
            (30.0..=70.0).contains(&concurrent),
            "concurrent {concurrent}%"
        );
        assert!(isolated < 25.0, "isolated {isolated}%");
        assert!((concurrent + sequential + isolated - 100.0).abs() < 0.2);
    }
}
