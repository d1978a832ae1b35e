//! DoS forensics: the flood analyses of §5.2 on one synthetic month.
//!
//! Detects QUIC floods with the Moore et al. thresholds, compares them
//! with TCP/ICMP floods, correlates multi-vector events and prints a
//! showcase victim timeline (Figs. 6–8, 11).
//!
//! ```text
//! cargo run --release --example dos_forensics
//! ```

use quicsand_core::experiments::{select, Runner};
use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_sessions::dos::attacks_per_victim;
use quicsand_sessions::multivector::MultiVectorClass;
use quicsand_sessions::Cdf;
use quicsand_traffic::{Scenario, ScenarioConfig};

fn main() {
    let mut config = ScenarioConfig::test();
    config.days = 10;
    config.quic_attacks = 400;
    config.victim_pool = 80;
    config.common_attacks = 400;
    println!("Generating a {}-day attack-heavy scenario...", config.days);
    let scenario = Scenario::generate(&config);
    let analysis = Analysis::run(&scenario, &AnalysisConfig::default());

    println!("\n=== QUIC flood census ===");
    println!(
        "{} QUIC floods against {} victims ({:.1} floods/hour; paper: ~4/hour)",
        analysis.quic_attacks.len(),
        analysis.victims().len(),
        analysis.quic_attacks.len() as f64 / (f64::from(config.days) * 24.0)
    );
    let counts = attacks_per_victim(&analysis.quic_attacks);
    let once = counts.values().filter(|&&c| c == 1).count();
    println!(
        "{:.0}% of victims attacked exactly once (paper: >50%)",
        100.0 * once as f64 / counts.len() as f64
    );
    let known = analysis
        .victims()
        .iter()
        .filter(|v| scenario.world.servers.is_known_server(**v))
        .count();
    println!(
        "{:.0}% of victims are known QUIC servers (paper: 98% of attacks)",
        100.0 * known as f64 / counts.len() as f64
    );

    println!("\n=== QUIC vs TCP/ICMP floods ===");
    let quic_d = Cdf::new(
        analysis
            .quic_attacks
            .iter()
            .map(|a| a.duration().as_secs_f64())
            .collect(),
    );
    let common_d = Cdf::new(
        analysis
            .common_attacks
            .iter()
            .map(|a| a.duration().as_secs_f64())
            .collect(),
    );
    println!(
        "median duration: QUIC {:.0} s vs TCP/ICMP {:.0} s (paper: 255 s vs 1499 s)",
        quic_d.median().unwrap_or(0.0),
        common_d.median().unwrap_or(0.0)
    );
    let quic_i = Cdf::new(analysis.quic_attacks.iter().map(|a| a.max_pps).collect());
    let common_i = Cdf::new(analysis.common_attacks.iter().map(|a| a.max_pps).collect());
    println!(
        "median intensity: QUIC {:.2} vs TCP/ICMP {:.2} max pps (paper: ~1 for both)",
        quic_i.median().unwrap_or(0.0),
        common_i.median().unwrap_or(0.0)
    );

    println!("\n=== Multi-vector structure ===");
    for class in [
        MultiVectorClass::Concurrent,
        MultiVectorClass::Sequential,
        MultiVectorClass::Isolated,
    ] {
        println!(
            "  {:<11} {:.1}%",
            class.label(),
            analysis.multivector.share(class) * 100.0
        );
    }
    let overlaps = analysis.multivector.overlap_shares();
    if !overlaps.is_empty() {
        let full = overlaps.iter().filter(|s| **s >= 0.999).count();
        println!(
            "  {:.0}% of concurrent floods overlap their common flood completely (paper: ~75%)",
            100.0 * full as f64 / overlaps.len() as f64
        );
    }

    println!("\n=== Showcase victim timeline (Fig. 11) ===");
    if let Runner::Scenario(run) = select(&["fig11"]).expect("catalog id")[0].runner {
        // Fig. 11 is a table: its runner returns no plots.
        let (report, _plots) = run(&scenario, &analysis);
        println!("{}", report.render());
    }
}
