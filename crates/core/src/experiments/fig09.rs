//! Fig. 9 — per-provider attack properties: packets, spoofed client
//! IPs, client ports, server SCIDs.
//!
//! The paper: >83 % of attacks target Google (58 %) and Facebook
//! (25 %); spoofed client addresses are few, port randomization drives
//! SCID allocation; Google reacts with more SCIDs despite fewer packets
//! (higher per-packet state load); versions are mvfst-draft-27 (95 %)
//! for Facebook and draft-29 (78 %) for Google.

use crate::analysis::Analysis;
use crate::report::{fmt_f64, fmt_percent, Report};
use quicsand_intel::Provider;
use quicsand_traffic::Scenario;
use quicsand_wire::Version;
use std::collections::HashMap;

/// Per-attack resource measurements, tagged by provider.
#[derive(Debug)]
pub struct AttackResources {
    /// The provider of the victim.
    pub provider: Provider,
    /// Backscatter packets.
    pub packets: u64,
    /// Unique spoofed client addresses.
    pub client_ips: usize,
    /// Unique client ports.
    pub client_ports: usize,
    /// Unique server SCIDs (allocated contexts).
    pub scids: usize,
    /// The dominant QUIC version observed.
    pub version: Option<u32>,
}

/// The version with the highest count; of several, the lowest version
/// number — so the pick does not depend on the order counts come in.
fn dominant(counts: impl IntoIterator<Item = (u32, u64)>) -> Option<(u32, u64)> {
    counts
        .into_iter()
        .max_by(|(v1, c1), (v2, c2)| c1.cmp(c2).then(v2.cmp(v1)))
}

/// Computes per-attack resources for all detected QUIC attacks.
pub fn attack_resources(scenario: &Scenario, analysis: &Analysis) -> Vec<AttackResources> {
    analysis
        .quic_attacks
        .iter()
        .zip(&analysis.attack_tallies)
        .map(|(attack, tally)| {
            let stats = &tally.resources;
            let provider = scenario
                .world
                .servers
                .provider(attack.victim)
                .unwrap_or(Provider::Other);
            let version = dominant(tally.versions.iter().copied()).map(|(v, _)| v);
            AttackResources {
                provider,
                packets: stats.packets,
                client_ips: stats.client_ips.len(),
                client_ports: stats.client_ports.len(),
                scids: stats.scids.len(),
                version,
            }
        })
        .collect()
}

fn median_u64(values: &mut [u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[values.len() / 2]
}

/// Runs the experiment.
pub fn run(scenario: &Scenario, analysis: &Analysis) -> Report {
    let mut report = Report::new(
        "fig09",
        "Attack properties per content provider (medians per attack)",
    )
    .with_columns([
        "provider",
        "attacks",
        "share",
        "med packets",
        "med client IPs",
        "med ports",
        "med SCIDs",
        "SCIDs/packet",
        "dominant version",
    ]);

    let resources = attack_resources(scenario, analysis);
    let total = resources.len().max(1) as f64;
    let mut provider_rows: Vec<(Provider, Vec<&AttackResources>)> = Provider::ALL
        .iter()
        .map(|p| (*p, resources.iter().filter(|r| r.provider == *p).collect()))
        .collect();
    provider_rows.retain(|(_, rs)| !rs.is_empty());

    for (provider, rs) in &provider_rows {
        let mut packets: Vec<u64> = rs.iter().map(|r| r.packets).collect();
        let mut ips: Vec<u64> = rs.iter().map(|r| r.client_ips as u64).collect();
        let mut ports: Vec<u64> = rs.iter().map(|r| r.client_ports as u64).collect();
        let mut scids: Vec<u64> = rs.iter().map(|r| r.scids as u64).collect();
        let scids_per_packet: f64 = rs
            .iter()
            .map(|r| r.scids as f64 / r.packets.max(1) as f64)
            .sum::<f64>()
            / rs.len() as f64;
        let mut version_counts: HashMap<u32, u64> = HashMap::new();
        for r in rs.iter().filter_map(|r| r.version) {
            *version_counts.entry(r).or_default() += 1;
        }
        let dominant = dominant(version_counts).map_or("-".to_string(), |(v, c)| {
            format!(
                "{} ({})",
                Version::from_wire(v).label(),
                fmt_percent(c as f64 / rs.len() as f64)
            )
        });
        report.push_row([
            provider.label().to_string(),
            rs.len().to_string(),
            fmt_percent(rs.len() as f64 / total),
            median_u64(&mut packets).to_string(),
            median_u64(&mut ips).to_string(),
            median_u64(&mut ports).to_string(),
            median_u64(&mut scids).to_string(),
            fmt_f64(scids_per_packet),
            dominant,
        ]);
    }

    let share = |p: Provider| resources.iter().filter(|r| r.provider == p).count() as f64 / total;
    report.push_finding(
        "attacks targeting Google",
        "58%",
        &fmt_percent(share(Provider::Google)),
    );
    report.push_finding(
        "attacks targeting Facebook",
        "25%",
        &fmt_percent(share(Provider::Facebook)),
    );
    report.push_finding(
        "top-2 providers combined",
        ">83%",
        &fmt_percent(share(Provider::Google) + share(Provider::Facebook)),
    );

    // Ports drive SCIDs; IPs stay low.
    let mut all_ips: Vec<u64> = resources.iter().map(|r| r.client_ips as u64).collect();
    let mut all_ports: Vec<u64> = resources.iter().map(|r| r.client_ports as u64).collect();
    report.push_finding(
        "median spoofed client IPs per attack",
        "relatively low",
        &median_u64(&mut all_ips).to_string(),
    );
    report.push_finding(
        "median client ports per attack",
        "driving factor for SCIDs",
        &median_u64(&mut all_ports).to_string(),
    );

    // Google's per-packet SCID load vs Facebook's.
    let mean_load = |p: Provider| {
        let rs: Vec<&AttackResources> = resources.iter().filter(|r| r.provider == p).collect();
        if rs.is_empty() {
            0.0
        } else {
            rs.iter()
                .map(|r| r.scids as f64 / r.packets.max(1) as f64)
                .sum::<f64>()
                / rs.len() as f64
        }
    };
    report.push_finding(
        "SCIDs per packet: Google vs Facebook",
        "Google higher (more server load)",
        &format!(
            "{} vs {}",
            fmt_f64(mean_load(Provider::Google)),
            fmt_f64(mean_load(Provider::Facebook))
        ),
    );

    // The §5.2 validity check: backscatter DCIDs have length zero.
    let valid_dcids = analysis.empty_dcid_responses as f64;
    report.push_finding(
        "backscatter with zero-length DCIDs",
        "all (validity check)",
        &fmt_percent(valid_dcids / analysis.response_packets.max(1) as f64),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use quicsand_traffic::ScenarioConfig;

    #[test]
    fn a_tied_dominant_version_is_the_lower_one() {
        let (draft29, v1) = (Version::Draft29.to_wire(), Version::V1.to_wire());
        assert!(draft29 > v1);
        for counts in [[(draft29, 3), (v1, 3)], [(v1, 3), (draft29, 3)]] {
            assert_eq!(dominant(counts), Some((v1, 3)), "{counts:?}");
        }
        assert_eq!(dominant([(v1, 2), (draft29, 3)]), Some((draft29, 3)));
        assert_eq!(dominant([]), None);
    }

    #[test]
    fn provider_shares_and_scid_load() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let report = run(&scenario, &analysis);
        let pct = |i: usize| -> f64 {
            report.findings[i]
                .measured
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        assert!(pct(0) > 35.0, "google share {}", pct(0));
        assert!(pct(2) > 60.0, "top2 share {}", pct(2));
        // SCID load: Google > Facebook (finding 5).
        let loads: Vec<f64> = report.findings[5]
            .measured
            .split(" vs ")
            .map(|s| s.parse().unwrap())
            .collect();
        assert!(
            loads[0] > loads[1],
            "google {} vs fb {}",
            loads[0],
            loads[1]
        );
        // All backscatter carries empty DCIDs (finding 6).
        assert_eq!(report.findings[6].measured, "100.0%");
    }

    #[test]
    fn ports_exceed_ips() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let report = run(&scenario, &analysis);
        let ips: u64 = report.findings[3].measured.parse().unwrap();
        let ports: u64 = report.findings[4].measured.parse().unwrap();
        assert!(
            ports > ips * 3,
            "port randomization must dominate: {ports} ports vs {ips} ips"
        );
        assert!(ips <= 24, "spoofed IP pools are small");
    }

    #[test]
    fn facebook_dominated_by_mvfst() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
        let report = run(&scenario, &analysis);
        let fb_row = report
            .rows
            .iter()
            .find(|r| r[0] == "Facebook")
            .expect("facebook attacks present");
        assert!(
            fb_row[8].contains("mvfst-draft-27"),
            "facebook version {}",
            fb_row[8]
        );
    }
}
