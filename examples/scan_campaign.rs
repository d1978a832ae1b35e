//! Scan-campaign forensics: who probes UDP/443, when, and from where.
//!
//! Reproduces the paper's scanning-side analyses on a synthetic month:
//! the research-scanner bias (Fig. 2), the diurnal request pattern
//! (Fig. 3), the eyeball origins (Fig. 5) and the GreyNoise correlation
//! (§5.2).
//!
//! ```text
//! cargo run --release --example scan_campaign
//! ```

use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_intel::NetworkType;
use quicsand_traffic::{Scenario, ScenarioConfig};
use std::collections::HashMap;

fn main() {
    let mut config = ScenarioConfig::test();
    config.days = 7;
    config.request_sessions = 3_000;
    config.quic_attacks = 40;
    let scenario = Scenario::generate(&config);
    let analysis = Analysis::run(&scenario, &AnalysisConfig::default());

    println!("=== The scanning ecosystem at the telescope ===\n");

    // 1. Research bias.
    let factor = config.research_subsample_factor();
    let research_full = analysis.research_packets as f64 * factor;
    let other = (analysis.request_packets + analysis.response_packets) as f64;
    println!("Research scanners (full-sweep equivalents): {research_full:.0} packets");
    println!("All other QUIC traffic:                     {other:.0} packets");
    println!(
        "Research share: {:.1}% (paper: 98.5%)\n",
        100.0 * research_full / (research_full + other)
    );
    for src in &analysis.research_sources {
        let info = scenario.world.asdb.lookup(*src).expect("mapped scanner");
        println!(
            "  research source {src} — AS{} {} ({})",
            info.asn, info.name, info.country
        );
    }

    // 2. Diurnal pattern of the sanitized requests.
    println!("\nRequest activity by hour of day (mean packets/hour):");
    let profile = analysis
        .request_hourly
        .hour_of_day_profile(u64::from(config.days) * 24);
    let max = profile.iter().fold(0.0f64, |a, &b| a.max(b)).max(1.0);
    for (hour, value) in profile.iter().enumerate() {
        let bar = "#".repeat((value / max * 40.0).round() as usize);
        println!("  {hour:02}:00 {value:>8.1} {bar}");
    }

    // 3. Origins.
    let mut types: HashMap<NetworkType, usize> = HashMap::new();
    let mut countries: HashMap<&str, usize> = HashMap::new();
    for session in &analysis.request_sessions {
        *types
            .entry(scenario.world.asdb.network_type(session.src))
            .or_default() += 1;
        if let Some(c) = scenario.world.asdb.country(session.src) {
            *countries.entry(c).or_default() += 1;
        }
    }
    println!("\nRequest-session source network types:");
    for ty in NetworkType::ALL {
        let count = types.get(&ty).copied().unwrap_or(0);
        if count > 0 {
            println!(
                "  {:<12} {:>6} ({:.1}%)",
                ty.label(),
                count,
                100.0 * count as f64 / analysis.request_sessions.len() as f64
            );
        }
    }
    let mut ranked: Vec<_> = countries.into_iter().collect();
    ranked.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    println!("\nTop origin countries (paper: BD 34%, US 27%, DZ 8%):");
    for (country, count) in ranked.iter().take(5) {
        println!(
            "  {country}: {:.1}%",
            100.0 * *count as f64 / analysis.request_sessions.len() as f64
        );
    }

    // 4. GreyNoise correlation.
    let sources: std::collections::HashSet<_> =
        analysis.request_sessions.iter().map(|s| s.src).collect();
    let summary = scenario.world.greynoise.summarize(sources.iter());
    println!(
        "\nGreyNoise view of {} request sources: {} benign, {} tagged ({:.1}%, paper: 2.3%)",
        summary.total,
        summary.benign,
        summary.tagged,
        summary.tagged_share() * 100.0
    );
}
