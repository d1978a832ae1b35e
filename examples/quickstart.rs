//! Quickstart: generate a synthetic telescope capture, run the full
//! QUICsand pipeline and print the paper's headline findings.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_sessions::multivector::MultiVectorClass;
use quicsand_sessions::Cdf;
use quicsand_traffic::{Scenario, ScenarioConfig};

fn main() {
    // A small but complete scenario: every traffic component of the
    // April-2021 telescope month, at a scale that runs in seconds.
    let mut config = ScenarioConfig::test();
    config.days = 4;
    config.quic_attacks = 160;
    config.victim_pool = 40;
    config.common_attacks = 200;
    println!("Generating {}-day telescope capture...", config.days);
    let scenario = Scenario::generate(&config);
    println!(
        "  {} packets captured by the /9 telescope ({})",
        scenario.records.len(),
        scenario.world.telescope
    );

    println!("Running the measurement pipeline...");
    let analysis = Analysis::run(&scenario, &AnalysisConfig::default());

    println!("\n--- Findings ---");
    println!(
        "Research scanners identified: {} source(s), {} packets removed",
        analysis.research_sources.len(),
        analysis.research_packets
    );
    println!(
        "Sanitized traffic: {} requests / {} responses ({} request sessions, {} response sessions)",
        analysis.request_packets,
        analysis.response_packets,
        analysis.request_sessions.len(),
        analysis.response_sessions.len()
    );

    let durations = Cdf::new(
        analysis
            .quic_attacks
            .iter()
            .map(|a| a.duration().as_secs_f64())
            .collect(),
    );
    let intensities = Cdf::new(analysis.quic_attacks.iter().map(|a| a.max_pps).collect());
    println!(
        "QUIC floods detected: {} against {} victims (median duration {:.0} s, median intensity {:.2} max pps)",
        analysis.quic_attacks.len(),
        analysis.victims().len(),
        durations.median().unwrap_or(0.0),
        intensities.median().unwrap_or(0.0)
    );
    println!(
        "Estimated Internet-wide rate at the median: {:.0} pps (telescope sees 1/512 of IPv4)",
        intensities.median().unwrap_or(0.0) * 512.0
    );
    println!(
        "Multi-vector structure: {:.0}% concurrent, {:.0}% sequential, {:.0}% isolated",
        analysis.multivector.share(MultiVectorClass::Concurrent) * 100.0,
        analysis.multivector.share(MultiVectorClass::Sequential) * 100.0,
        analysis.multivector.share(MultiVectorClass::Isolated) * 100.0
    );
    println!(
        "Victims whose backscatter carried a RETRY: {} (defence not deployed)",
        analysis.retry_victims.len()
    );

    println!("\nReproduce every figure/table with:");
    println!("  cargo run --release -- experiments --scale demo");
}
