//! Fig. 2 — QUIC traffic at the telescope: research scanners dominate.
//!
//! The paper: "98.5% of QUIC packets are generated by research projects
//! from two universities". The hourly series shows periodic full-sweep
//! spikes from TUM/RWTH dwarfing everything else.

use super::Plot;
use crate::analysis::Analysis;
use crate::plot::PlotSpec;
use crate::report::{fmt_percent, Report};
use quicsand_traffic::Scenario;

/// Runs the experiment; plots the hourly series.
pub fn run(scenario: &Scenario, analysis: &Analysis) -> (Report, Vec<Plot>) {
    let mut report = Report::new(
        "fig02",
        "QUIC traffic at the telescope: research scanners vs other sources (packets/hour)",
    )
    .with_columns(["hour", "research", "other"]);

    let hours = u64::from(scenario.config.days) * 24;
    let other_total = analysis.request_packets + analysis.response_packets;
    let (mut research_series, mut other_series) = (Vec::new(), Vec::new());
    for hour in 0..hours {
        let research = analysis.research_hourly.get(hour);
        let other = analysis.request_hourly.get(hour) + analysis.response_hourly.get(hour);
        report.push_row([hour.to_string(), research.to_string(), other.to_string()]);
        research_series.push((hour as f64, research as f64));
        other_series.push((hour as f64, other as f64));
    }

    // The generated research component is sub-sampled; rescale for the
    // share comparison (documented in DESIGN.md §5).
    let factor = scenario.config.research_subsample_factor();
    let rescaled_research = analysis.research_packets as f64 * factor;
    let share = rescaled_research / (rescaled_research + other_total as f64);
    report.push_finding(
        "research scanner share of QUIC IBR",
        "98.5%",
        &fmt_percent(share),
    );
    report.push_finding(
        "research projects identified",
        "2 (TUM, RWTH)",
        &analysis.research_sources.len().to_string(),
    );
    report.push_note(&format!(
        "research component generated at 1/{factor:.0} sub-sampling; share rescaled accordingly"
    ));
    let plot = PlotSpec::line(
        "QUIC packets at the telescope (research scanner bias)",
        "hour",
        "packets/hour",
    )
    .with_series("research", research_series)
    .with_series("other", other_series);
    (report, vec![("fig02_research_bias", plot)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use quicsand_traffic::ScenarioConfig;

    #[test]
    fn research_dominates_after_rescaling() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let (report, _) = run(&scenario, &analysis);
        assert_eq!(report.rows.len(), 48); // 2 days
        let share: f64 = report.findings[0]
            .measured
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(share > 90.0, "research share {share}%");
        assert_eq!(report.findings[1].measured, "2");
    }
}
