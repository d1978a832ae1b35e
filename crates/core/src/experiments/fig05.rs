//! Fig. 5 — source network types of sessions.
//!
//! The paper: request sessions originate predominantly from eyeball
//! networks; response sessions are received almost exclusively from
//! content networks.

use super::Plot;
use crate::analysis::Analysis;
use crate::plot::PlotSpec;
use crate::report::{fmt_percent, Report};
use quicsand_intel::NetworkType;
use quicsand_sessions::session::Session;
use quicsand_traffic::Scenario;

fn type_shares(sessions: &[Session], scenario: &Scenario) -> Vec<(NetworkType, f64)> {
    let mut counts = std::collections::HashMap::new();
    for s in sessions {
        *counts
            .entry(scenario.world.asdb.network_type(s.src))
            .or_insert(0u64) += 1;
    }
    let total = sessions.len().max(1) as f64;
    NetworkType::ALL
        .iter()
        .map(|ty| (*ty, counts.get(ty).copied().unwrap_or(0) as f64 / total))
        .collect()
}

/// Runs the experiment; plots the network-type shares.
pub fn run(scenario: &Scenario, analysis: &Analysis) -> (Report, Vec<Plot>) {
    let mut report = Report::new(
        "fig05",
        "Source network types of sessions (PeeringDB mapping)",
    )
    .with_columns(["network type", "request sessions", "response sessions"]);

    let request_shares = type_shares(&analysis.request_sessions, scenario);
    let response_shares = type_shares(&analysis.response_sessions, scenario);
    let (mut request_bars, mut response_bars) = (Vec::new(), Vec::new());
    for (i, ((ty, req), (_, resp))) in request_shares.iter().zip(&response_shares).enumerate() {
        report.push_row([
            ty.label().to_string(),
            fmt_percent(*req),
            fmt_percent(*resp),
        ]);
        request_bars.push((i as f64, *req));
        response_bars.push((i as f64, *resp));
    }

    let eyeball_req = request_shares
        .iter()
        .find(|(t, _)| *t == NetworkType::Eyeball)
        .map_or(0.0, |(_, s)| *s);
    let content_resp = response_shares
        .iter()
        .find(|(t, _)| *t == NetworkType::Content)
        .map_or(0.0, |(_, s)| *s);
    report.push_finding(
        "request sessions from eyeball networks",
        "predominant",
        &fmt_percent(eyeball_req),
    );
    report.push_finding(
        "response sessions from content networks",
        "almost exclusive",
        &fmt_percent(content_resp),
    );

    // §5.2 corroborations on the same session sets.
    let request_sources: std::collections::HashSet<_> =
        analysis.request_sessions.iter().map(|s| s.src).collect();
    let summary = scenario.world.greynoise.summarize(request_sources.iter());
    report.push_finding(
        "benign request sources (GreyNoise)",
        "none",
        &summary.benign.to_string(),
    );
    report.push_finding(
        "tagged request sources (Mirai/EB/bruteforce)",
        "2.3%",
        &fmt_percent(summary.tagged_share()),
    );

    // Country mix of request sessions.
    let mut by_country = std::collections::HashMap::new();
    for s in &analysis.request_sessions {
        if let Some(c) = scenario.world.asdb.country(s.src) {
            *by_country.entry(c).or_insert(0u64) += 1;
        }
    }
    let total = analysis.request_sessions.len().max(1) as f64;
    let share = |c: &str| by_country.get(c).copied().unwrap_or(0) as f64 / total;
    report.push_finding(
        "top request origin countries",
        "BD 34%, US 27%, DZ 8%",
        &format!(
            "BD {}, US {}, DZ {}",
            fmt_percent(share("BD")),
            fmt_percent(share("US")),
            fmt_percent(share("DZ"))
        ),
    );
    let plot = PlotSpec::bar(
        "Source network types of sessions",
        "network type",
        "share of sessions",
    )
    .with_categories(NetworkType::ALL.iter().map(|t| t.label()))
    .with_series("requests", request_bars)
    .with_series("responses", response_bars);
    (report, vec![("fig05_network_types", plot)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use quicsand_traffic::ScenarioConfig;

    #[test]
    fn network_types_match_paper_pattern() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let (report, _) = run(&scenario, &analysis);
        let pct = |s: &str| -> f64 { s.trim_end_matches('%').parse().unwrap() };
        assert!(pct(&report.findings[0].measured) > 80.0, "eyeball requests");
        assert!(
            pct(&report.findings[1].measured) > 80.0,
            "content responses"
        );
        assert_eq!(report.findings[2].measured, "0", "no benign sources");
    }

    #[test]
    fn country_mix_reported() {
        let mut config = ScenarioConfig::test();
        config.request_sessions = 1_000;
        let scenario = Scenario::generate(&config);
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let (report, _) = run(&scenario, &analysis);
        let countries = &report.findings[4].measured;
        // BD must lead with roughly a third.
        let bd: f64 = countries
            .split("BD ")
            .nth(1)
            .unwrap()
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((25.0..=45.0).contains(&bd), "BD share {bd}");
    }
}
