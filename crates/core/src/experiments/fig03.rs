//! Fig. 3 — sanitized QUIC packets by type: requests are diurnal,
//! responses erratic.
//!
//! The paper: 15 % requests / 85 % responses; requests peak at 6:00 and
//! 18:00 UTC; responses spike erratically (flood backscatter).

use super::Plot;
use crate::analysis::Analysis;
use crate::plot::PlotSpec;
use crate::report::{fmt_f64, fmt_percent, Report};
use quicsand_traffic::Scenario;

/// Runs the experiment; plots the hourly series.
pub fn run(scenario: &Scenario, analysis: &Analysis) -> (Report, Vec<Plot>) {
    let mut report = Report::new(
        "fig03",
        "Sanitized QUIC packets by type (per hour), with hour-of-day request profile",
    )
    .with_columns(["hour", "requests", "responses"]);

    let hours = u64::from(scenario.config.days) * 24;
    let (mut request_series, mut response_series) = (Vec::new(), Vec::new());
    for hour in 0..hours {
        let requests = analysis.request_hourly.get(hour);
        let responses = analysis.response_hourly.get(hour);
        report.push_row([
            hour.to_string(),
            requests.to_string(),
            responses.to_string(),
        ]);
        request_series.push((hour as f64, requests as f64));
        response_series.push((hour as f64, responses as f64));
    }

    let requests = analysis.request_packets as f64;
    let responses = analysis.response_packets as f64;
    let total = requests + responses;
    report.push_finding(
        "request share of sanitized packets",
        "15%",
        &fmt_percent(requests / total),
    );
    report.push_finding(
        "response share of sanitized packets",
        "85%",
        &fmt_percent(responses / total),
    );

    // Diurnal peaks: the two highest hours of the request profile at
    // least 6 hours apart (the profile is 12h-periodic, so adjacent
    // noisy hours must not masquerade as the second peak).
    let profile = analysis.request_hourly.hour_of_day_profile(hours);
    let mut ranked: Vec<(usize, f64)> = profile.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
    let first = ranked[0].0;
    let second = ranked[1..]
        .iter()
        .find(|(h, _)| {
            let d = (*h as i64 - first as i64).rem_euclid(24);
            d.min(24 - d) >= 6
        })
        .map_or(ranked[1].0, |(h, _)| *h);
    let mut peaks = [first, second];
    peaks.sort_unstable();
    report.push_finding(
        "request activity peaks (UTC hours)",
        "06:00 and 18:00",
        &format!("{:02}:00 and {:02}:00", peaks[0], peaks[1]),
    );

    // Stability contrast: coefficient of variation.
    let request_cv = analysis.request_hourly.coefficient_of_variation(hours);
    let response_cv = analysis.response_hourly.coefficient_of_variation(hours);
    report.push_finding(
        "hourly variability (CV) requests vs responses",
        "stable vs erratic",
        &format!("{} vs {}", fmt_f64(request_cv), fmt_f64(response_cv)),
    );
    report.push_note(
        "the measured request share sits below the paper's 15%: our flood          backscatter distribution is mean-heavier than the paper's average          response session implies (a consequence of matching the Fig. 7          duration/intensity tails); the qualitative claims — diurnal          requests, erratic responses, responses dominating — all hold",
    );
    let plot = PlotSpec::line("Sanitized QUIC packets by type", "hour", "packets/hour")
        .with_series("requests", request_series)
        .with_series("responses", response_series);
    (report, vec![("fig03_diurnal", plot)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use quicsand_traffic::ScenarioConfig;

    #[test]
    fn responses_dominate_and_are_more_erratic() {
        // The CV contrast needs enough request volume that shot noise
        // does not dominate the request series: at the default test
        // scale (150 sessions over 48 h, many empty hours) both CVs
        // land near 1.05 and the comparison is a coin flip. With 2 000
        // sessions the diurnal request series settles to CV ≈ 0.5
        // while flood backscatter stays at CV ≈ 1.05.
        let mut config = ScenarioConfig::test();
        config.request_sessions = 2_000;
        let scenario = Scenario::generate(&config);
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let (report, _) = run(&scenario, &analysis);
        let response_share: f64 = report.findings[1]
            .measured
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(response_share > 50.0, "response share {response_share}%");
        // CV finding: responses more variable than requests.
        let cvs: Vec<f64> = report.findings[3]
            .measured
            .split(" vs ")
            .map(|s| s.parse().unwrap())
            .collect();
        assert!(
            cvs[1] > cvs[0],
            "request CV {} vs response CV {}",
            cvs[0],
            cvs[1]
        );
    }

    #[test]
    fn diurnal_peaks_near_paper_hours() {
        // Peaks need volume; use a request-heavy scenario.
        let mut config = ScenarioConfig::test();
        config.request_sessions = 2_000;
        config.quic_attacks = 10;
        config.common_attacks = 10;
        config.misconfig_sessions = 20;
        let scenario = Scenario::generate(&config);
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let (report, _) = run(&scenario, &analysis);
        let measured = &report.findings[2].measured;
        // Accept ±1 hour around each paper peak.
        let hours: Vec<i64> = measured
            .split(" and ")
            .map(|s| s[..2].parse().unwrap())
            .collect();
        assert!(
            (hours[0] - 6).abs() <= 1 && (hours[1] - 18).abs() <= 1,
            "peaks {measured}"
        );
    }
}
