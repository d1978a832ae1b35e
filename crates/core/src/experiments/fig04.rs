//! Fig. 4 — influence of the session timeout on the number of sessions.
//!
//! The paper sweeps 1–60 minutes, observes a significant reduction up
//! to ~5 minutes and picks that knee; the `timeout = ∞` floor is one
//! session per source.

use super::Plot;
use crate::analysis::Analysis;
use crate::plot::PlotSpec;
use crate::report::Report;
use quicsand_net::Duration;
use quicsand_sessions::session::timeout_sweep;

/// Runs the experiment; plots the sweep over its `timeout = ∞` floor.
pub fn run(analysis: &Analysis) -> (Report, Vec<Plot>) {
    let mut report = Report::new(
        "fig04",
        "Number of sessions vs session timeout (sanitized QUIC traffic)",
    )
    .with_columns(["timeout_min", "sessions"]);

    // Requests and responses as one time-ordered stream, as the paper
    // sessionizes the whole sanitized trace.
    let timeouts: Vec<Duration> = (1..=60).map(Duration::from_mins).collect();
    let sweep = timeout_sweep(analysis.arrivals.iter().copied(), &timeouts);
    let mut points = Vec::with_capacity(sweep.counts.len());
    for (timeout, count) in &sweep.counts {
        let minutes = timeout.as_secs() / 60;
        report.push_row([minutes.to_string(), count.to_string()]);
        points.push((minutes as f64, *count as f64));
    }

    // 2 % per-minute marginal reduction: the "significant reduction"
    // criterion the paper applies visually.
    let knee = sweep.knee(0.02);
    report.push_finding(
        "knee point (selected timeout)",
        "~5 minutes",
        &knee.map_or("none".to_string(), |k| {
            format!("{} minutes", k.as_secs() / 60)
        }),
    );
    report.push_finding(
        "sessions at timeout = infinity (floor)",
        "(lower bound)",
        &sweep.infinity_floor.to_string(),
    );
    let first = sweep.counts.first().map_or(0, |(_, c)| *c);
    let at_five = sweep
        .counts
        .iter()
        .find(|(t, _)| t.as_secs() == 300)
        .map_or(0, |(_, c)| *c);
    report.push_finding(
        "session reduction from 1 min to 5 min",
        "significant",
        &format!("{first} -> {at_five}"),
    );
    let floor = sweep.infinity_floor as f64;
    let plot = PlotSpec::line(
        "Sessions vs inactivity timeout",
        "timeout [min]",
        "sessions",
    )
    .with_series("sessions", points)
    .with_series("timeout = inf", vec![(1.0, floor), (60.0, floor)]);
    (report, vec![("fig04_timeout_knee", plot)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use quicsand_traffic::{Scenario, ScenarioConfig};

    #[test]
    fn sweep_decreases_and_knee_is_early() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let (report, _) = run(&analysis);
        assert_eq!(report.rows.len(), 60);
        let counts: Vec<u64> = report.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "session counts must be non-increasing");
        }
        // The knee must sit in the single-digit minutes like the paper.
        let knee: u64 = report.findings[0]
            .measured
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((1..=10).contains(&knee), "knee at {knee} minutes");
    }
}
