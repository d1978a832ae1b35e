//! Table 1 — local server tests: flood volume vs service availability,
//! with and without RETRY.
//!
//! Reproduces the paper's 9 rows. [`run`] scales the request counts by a
//! factor (the mechanism — state-table exhaustion at a 60 s hold and the
//! stateless RETRY bypass — is rate-driven, not count-driven); a factor
//! of 1 replays the exact paper counts.

use crate::report::Report;
use quicsand_server::model::ServerConfig;
use quicsand_server::replay::{paper_table_rows, replay_flood, ReplayConfig, ReplayOutcome};

/// Paper availability per row, for the findings comparison.
const PAPER_AVAILABILITY: [u64; 9] = [100, 68, 7, 100, 26, 26, 100, 100, 100];

/// Runs one row.
pub fn run_row(pps: u64, retry: bool, workers: usize, requests: u64, seed: u64) -> ReplayOutcome {
    let server = ServerConfig {
        workers,
        ..ServerConfig::default()
    }
    .with_retry(retry);
    replay_flood(
        &ReplayConfig {
            pps,
            total_requests: requests,
            server,
        },
        seed,
    )
}

/// Runs the table with the paper's request counts scaled by `scale`
/// (at least 1 000 per row); the rates (pps) are the paper's.
pub fn run(scale: f64) -> Report {
    let mut report = Report::new(
        "tab01",
        "Local QUIC server under Initial floods: service availability (Table 1)",
    )
    .with_columns([
        "volume [pps]",
        "retry",
        "workers",
        "client req",
        "server resp",
        "available",
        "extra RTT",
    ]);

    for (i, (pps, retry, workers, paper_requests)) in paper_table_rows().into_iter().enumerate() {
        let requests = ((paper_requests as f64 * scale) as u64).max(1_000);
        let outcome = run_row(pps, retry, workers, requests, 42 + i as u64);
        report.push_row([
            pps.to_string(),
            if retry { "yes" } else { "no" }.to_string(),
            workers.to_string(),
            outcome.requests.to_string(),
            outcome.responses.to_string(),
            format!("{}%", outcome.availability_percent()),
            if outcome.extra_rtt { "yes" } else { "no" }.to_string(),
        ]);
        report.push_finding(
            &format!(
                "availability at {pps} pps, {workers} workers{}",
                if retry { ", RETRY" } else { "" }
            ),
            &format!("{}%", PAPER_AVAILABILITY[i]),
            &format!("{}%", outcome.availability_percent()),
        );
    }
    if (scale - 1.0).abs() > 1e-9 {
        report.push_note(&format!(
            "request counts scaled by {scale} relative to the paper's replay; rates (pps) are unscaled"
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_table_reproduces_the_shape() {
        let report = run(0.05);
        assert_eq!(report.rows.len(), 9);
        let avail = |i: usize| -> u64 { report.rows[i][5].trim_end_matches('%').parse().unwrap() };
        // Row 0: 10 pps / 4 workers -> fine.
        assert_eq!(avail(0), 100);
        // Row 2: 1000 pps / 4 workers -> collapse below row 1.
        assert!(avail(2) < avail(1));
        assert!(avail(2) <= 35, "row 2 availability {}", avail(2));
        // Row 3: 128 workers restore availability at 1000 pps.
        assert!(avail(3) >= 95);
        // Rows 6-8: RETRY -> 100 % everywhere, extra RTT.
        for i in 6..9 {
            assert_eq!(avail(i), 100, "retry row {i}");
            assert_eq!(report.rows[i][6], "yes");
        }
        // Non-retry rows have no extra RTT.
        assert_eq!(report.rows[0][6], "no");
    }

    #[test]
    fn findings_cover_all_rows() {
        let report = run(0.02);
        assert_eq!(report.findings.len(), 9);
        assert!(report.notes[0].contains("scaled"));
    }
}
