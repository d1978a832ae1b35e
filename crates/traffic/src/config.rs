//! Scenario configuration and presets.
//!
//! All counts are *generated* counts; where the paper's absolute volume
//! is impractical to materialize (92 M research packets, 282 k common
//! floods), a preset generates a documented sub-sample and records the
//! factor so analyses can rescale shares (see `research_subsample_factor`
//! and `common_attack_subsample_factor`). Distribution *shapes* are never
//! sub-sampled.

use quicsand_intel::{SyntheticInternet, TopologyConfig};
use serde::{Deserialize, Serialize};

/// Complete scenario configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Measurement duration in days (paper: 30).
    pub days: u32,

    // --- Research scanners (Fig. 2) ---
    /// Full-IPv4 scans per research project over the period. The paper's
    /// 92 M research packets over two projects correspond to ~11 full
    /// sweeps of the telescope's 2^23 addresses.
    pub research_scans_per_project: u32,
    /// Telescope packets generated per scan. Full fidelity is 2^23; the
    /// paper preset sub-samples and records the factor.
    pub research_packets_per_scan: u64,
    /// Duration of one full sweep, in hours (zmap-style scans take
    /// hours).
    pub research_scan_duration_hours: u64,

    // --- Malicious request scans (Fig. 3, Fig. 5, GreyNoise) ---
    /// Request sessions over the period (paper: 18 k).
    pub request_sessions: u64,
    /// Mean packets per request session (paper: 11).
    pub request_session_mean_packets: f64,
    /// Share of request sources carrying GreyNoise tags (paper: 2.3 %).
    pub tagged_source_share: f64,

    // --- QUIC floods (Figs. 6–9) ---
    /// QUIC flood attacks over the period (paper: 2 905 ⇒ ~4/hour).
    pub quic_attacks: u64,
    /// Unique victims (paper: 394).
    pub victim_pool: usize,
    /// Median flood duration in seconds (paper: 255).
    pub quic_duration_median_secs: f64,
    /// Log-normal shape of flood durations.
    pub quic_duration_sigma: f64,
    /// Median Internet-wide probe rate of a flood, in probes/s. Each
    /// probe elicits ~2.4 backscatter datagrams, and 1/512 of probes use
    /// spoofed addresses inside the telescope, so 210 probes/s yields
    /// the paper's ~1 max pps at the telescope.
    pub quic_global_pps_median: f64,
    /// Log-normal shape of probe rates.
    pub quic_global_pps_sigma: f64,
    /// Share of victims attacked exactly once (paper Fig. 6: >50 %).
    pub single_attack_victim_share: f64,

    // --- Common (TCP/ICMP) floods (Fig. 7 baseline) ---
    /// Background common-protocol attacks to generate. The paper finds
    /// 282 k; the preset generates a statistically representative
    /// sample and records the factor.
    pub common_attacks: u64,
    /// Median common flood duration in seconds (paper: 1 499).
    pub common_duration_median_secs: f64,
    /// Log-normal shape of common flood durations.
    pub common_duration_sigma: f64,
    /// Median Internet-wide packet rate of common floods (packets/s).
    pub common_global_pps_median: f64,
    /// Log-normal shape.
    pub common_global_pps_sigma: f64,

    // --- Multi-vector structure (Fig. 8, 11–13) ---
    /// Share of QUIC attacks concurrent with a common flood (paper:
    /// 0.51).
    pub concurrent_share: f64,
    /// Share of QUIC attacks sequential to a common flood (paper:
    /// 0.40). The rest is isolated (0.09).
    pub sequential_share: f64,
    /// Probability that a concurrent common flood fully covers the QUIC
    /// flood (Fig. 12: three quarters overlap 100 %).
    pub full_overlap_share: f64,
    /// Median gap of sequential attacks, in hours (Fig. 13: 82 % > 1 h,
    /// mean 36 h).
    pub sequential_gap_median_hours: f64,
    /// Log-normal shape of sequential gaps.
    pub sequential_gap_sigma: f64,

    // --- Misconfiguration noise (Appendix B) ---
    /// Low-volume response sessions (paper: ~23 k — the 89 % of
    /// response sessions the thresholds exclude).
    pub misconfig_sessions: u64,
    /// Mean packets per misconfig session (paper median: 11).
    pub misconfig_mean_packets: f64,

    // --- Pre-filter false positives ---
    /// Non-QUIC UDP/443 packets (malformed payloads) to sprinkle in,
    /// exercising the dissector's false-positive rejection.
    pub garbage_udp443_packets: u64,
}

impl ScenarioConfig {
    /// Tiny scenario for unit/integration tests: seconds to generate,
    /// still exercising every component.
    pub fn test() -> Self {
        ScenarioConfig {
            seed: 0xBADC_0FFE,
            days: 2,
            research_scans_per_project: 2,
            research_packets_per_scan: 2_000,
            research_scan_duration_hours: 5,
            request_sessions: 150,
            request_session_mean_packets: 11.0,
            tagged_source_share: 0.023,
            quic_attacks: 60,
            victim_pool: 24,
            quic_duration_median_secs: 255.0,
            quic_duration_sigma: 1.0,
            quic_global_pps_median: 210.0,
            quic_global_pps_sigma: 0.7,
            single_attack_victim_share: 0.55,
            common_attacks: 80,
            common_duration_median_secs: 1_499.0,
            common_duration_sigma: 1.0,
            common_global_pps_median: 460.0,
            common_global_pps_sigma: 0.7,
            concurrent_share: 0.51,
            sequential_share: 0.40,
            full_overlap_share: 0.75,
            sequential_gap_median_hours: 8.0,
            sequential_gap_sigma: 1.4,
            misconfig_sessions: 200,
            misconfig_mean_packets: 11.0,
            garbage_udp443_packets: 50,
        }
    }

    /// The April-2021 reproduction preset: 30 days, the paper's event
    /// counts for everything attack-related, documented sub-samples for
    /// the two bulk components.
    pub fn paper_month() -> Self {
        ScenarioConfig {
            seed: 0x2021_0401,
            days: 30,
            research_scans_per_project: 6,      // ~11 sweeps combined
            research_packets_per_scan: 100_000, // 2^23 full fidelity, factor ~84
            research_scan_duration_hours: 10,
            request_sessions: 18_000, // full paper fidelity
            request_session_mean_packets: 11.0,
            tagged_source_share: 0.023,
            quic_attacks: 2_905, // exact paper count
            victim_pool: 394,    // exact paper count
            quic_duration_median_secs: 255.0,
            quic_duration_sigma: 1.0,
            quic_global_pps_median: 210.0,
            quic_global_pps_sigma: 0.8,
            single_attack_victim_share: 0.55,
            common_attacks: 6_000, // 282 k in the paper, factor 47
            common_duration_median_secs: 1_499.0,
            common_duration_sigma: 1.2,
            common_global_pps_median: 460.0,
            common_global_pps_sigma: 0.8,
            concurrent_share: 0.51,
            sequential_share: 0.40,
            full_overlap_share: 0.75,
            sequential_gap_median_hours: 20.0,
            sequential_gap_sigma: 1.7,
            misconfig_sessions: 23_000, // full paper fidelity
            misconfig_mean_packets: 11.0,
            garbage_udp443_packets: 2_000,
        }
    }

    /// The demo preset: 30 days like the paper, event counts reduced ~4x,
    /// distribution parameters identical.
    pub fn demo() -> Self {
        ScenarioConfig {
            research_packets_per_scan: 25_000,
            request_sessions: 5_000,
            quic_attacks: 800,
            victim_pool: 110,
            common_attacks: 2_400,
            misconfig_sessions: 2_000,
            garbage_udp443_packets: 500,
            ..Self::paper_month()
        }
    }

    /// The sub-sampling factor of the research component relative to
    /// full fidelity (2^23 packets per sweep). Fig. 2 rescales research
    /// counts by this factor when reporting shares.
    pub fn research_subsample_factor(&self) -> f64 {
        (1u64 << 23) as f64 / self.research_packets_per_scan as f64
    }

    /// The sub-sampling factor of common attacks relative to the
    /// paper's 282 k.
    pub fn common_attack_subsample_factor(&self) -> f64 {
        282_000.0 / self.common_attacks as f64
    }

    /// Total measurement duration in seconds.
    pub fn duration_secs(&self) -> u64 {
        u64::from(self.days) * 86_400
    }

    /// Validates internal consistency; panics on nonsensical configs
    /// (these are programming errors in experiment setups).
    pub fn validate(&self) {
        assert!(self.days > 0, "scenario needs at least one day");
        assert!(
            self.concurrent_share + self.sequential_share <= 1.0,
            "multi-vector shares exceed 1"
        );
        assert!(self.victim_pool > 0, "need at least one victim");
        assert!(
            (0.0..=1.0).contains(&self.tagged_source_share),
            "tagged share must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.full_overlap_share),
            "full-overlap share must be a probability"
        );
    }

    /// The synthetic Internet a scenario of this configuration is
    /// generated in, as it stands before generation populates GreyNoise.
    /// [`Scenario::generate`](crate::Scenario::generate) builds on it, and
    /// an analysis of a capture rebuilds it to look sources up.
    pub fn world(&self) -> SyntheticInternet {
        SyntheticInternet::build(&TopologyConfig {
            seed: self.seed,
            // The victim pool must fit inside the provider server
            // registry with slack for provider-mix sampling.
            servers_per_provider: (self.victim_pool * 2).max(48),
            ..TopologyConfig::default()
        })
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self::test()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ScenarioConfig::test().validate();
        ScenarioConfig::paper_month().validate();
    }

    #[test]
    fn demo_config_is_valid_and_month_long() {
        let c = ScenarioConfig::demo();
        c.validate();
        assert_eq!(c.days, 30);
        assert_eq!(c.quic_duration_median_secs, 255.0);
    }

    #[test]
    fn paper_month_matches_paper_counts() {
        let c = ScenarioConfig::paper_month();
        assert_eq!(c.days, 30);
        assert_eq!(c.quic_attacks, 2_905);
        assert_eq!(c.victim_pool, 394);
        assert_eq!(c.quic_duration_median_secs, 255.0);
        assert_eq!(c.common_duration_median_secs, 1_499.0);
        assert!((c.concurrent_share - 0.51).abs() < 1e-12);
        assert!((c.sequential_share - 0.40).abs() < 1e-12);
        assert_eq!(c.duration_secs(), 30 * 86_400);
    }

    #[test]
    fn subsample_factors() {
        let c = ScenarioConfig::paper_month();
        assert!((c.research_subsample_factor() - 83.886_08).abs() < 0.001);
        assert!((c.common_attack_subsample_factor() - 47.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "multi-vector shares")]
    fn invalid_shares_rejected() {
        let mut c = ScenarioConfig::test();
        c.concurrent_share = 0.7;
        c.sequential_share = 0.5;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn zero_days_rejected() {
        let mut c = ScenarioConfig::test();
        c.days = 0;
        c.validate();
    }

    #[test]
    fn default_is_test_preset() {
        assert_eq!(ScenarioConfig::default(), ScenarioConfig::test());
    }
}
