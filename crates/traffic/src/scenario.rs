//! Scenario orchestration: the full synthetic telescope month.
//!
//! [`Scenario::generate`] builds the world, runs every traffic
//! component, sorts the combined capture by time and returns it together
//! with the ground truth (the attack plan and the per-component record
//! counts) so analyses can be validated against what was actually
//! planted.

use crate::config::ScenarioConfig;
use crate::{floods, misconfig, research, scanners};
use bytes::Bytes;
use quicsand_intel::SyntheticInternet;
use quicsand_net::rng::substream;
use quicsand_net::{PacketRecord, Timestamp};
use quicsand_wire::QUIC_PORT;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What was planted, for validating the analyses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// The attack plan.
    pub plan: floods::AttackPlan,
    /// Records generated by research scanners.
    pub research_packets: u64,
    /// Records generated by malicious request scans.
    pub request_packets: u64,
    /// Records generated by QUIC floods + misconfig noise.
    pub response_packets: u64,
    /// TCP/ICMP flood records.
    pub common_packets: u64,
    /// Malformed UDP/443 packets (dissector false-positive feed).
    pub garbage_packets: u64,
}

/// A generated scenario: the world and the time-sorted capture.
#[derive(Debug)]
pub struct Scenario {
    /// The synthetic Internet (AS database, GreyNoise, server
    /// registry) after generation — GreyNoise is populated by the
    /// generators.
    pub world: SyntheticInternet,
    /// The telescope capture, sorted by timestamp.
    pub records: Vec<PacketRecord>,
    /// Ground truth.
    pub truth: GroundTruth,
    /// The configuration that produced this scenario.
    pub config: ScenarioConfig,
}

impl Scenario {
    /// Generates the scenario for `config`.
    pub fn generate(config: &ScenarioConfig) -> Scenario {
        config.validate();
        let mut world = config.world();
        let mut records = Vec::new();

        research::generate(&mut world, config, &mut records);
        let research_packets = records.len() as u64;

        scanners::generate(&mut world, config, &mut records);
        let request_packets = records.len() as u64 - research_packets;

        let plan = floods::plan(&world, config);
        let before_floods = records.len() as u64;
        for (i, attack) in plan.quic.iter().enumerate() {
            floods::generate_quic_attack(
                attack,
                config.seed ^ (0x9_0000_0000 + i as u64),
                &mut records,
            );
        }
        let quic_flood_packets = records.len() as u64 - before_floods;

        let before_common = records.len() as u64;
        for (i, attack) in plan.common.iter().enumerate() {
            floods::generate_common_attack(
                attack,
                config.seed ^ (0xA_0000_0000 + i as u64),
                &world.telescope,
                &mut records,
            );
        }
        let common_packets = records.len() as u64 - before_common;

        let before_misconfig = records.len() as u64;
        misconfig::generate(&world, config, &mut records);
        let misconfig_packets = records.len() as u64 - before_misconfig;

        let garbage_packets = generate_garbage(&world, config, &mut records);

        // The telescope delivers packets in capture order.
        records.sort_by_key(|r| r.ts);

        Scenario {
            world,
            records,
            truth: GroundTruth {
                plan,
                research_packets,
                request_packets,
                response_packets: quic_flood_packets + misconfig_packets,
                common_packets,
                garbage_packets,
            },
            config: config.clone(),
        }
    }
}

/// Sprinkles malformed UDP/443 packets (DNS-oid/NTP-oid payloads that
/// the port filter admits but the dissector must reject).
fn generate_garbage(
    world: &SyntheticInternet,
    config: &ScenarioConfig,
    out: &mut Vec<PacketRecord>,
) -> u64 {
    let mut rng = substream(config.seed, "garbage");
    for _ in 0..config.garbage_udp443_packets {
        let ts = Timestamp::from_secs(rng.gen_range(0..config.duration_secs()));
        // First byte with neither a sane long header nor fixed bit.
        let mut payload = vec![0u8; rng.gen_range(4..64)];
        rng.fill(&mut payload[..]);
        payload[0] &= 0x3f; // clear form + fixed bits -> guaranteed malformed
        let (src, _) = world.sample_eyeball_source(&mut rng);
        let to_port_443 = rng.gen_bool(0.5);
        let (src_port, dst_port) = if to_port_443 {
            (rng.gen_range(1_024..65_000), QUIC_PORT)
        } else {
            (QUIC_PORT, rng.gen_range(1_024..65_000))
        };
        out.push(PacketRecord::udp(
            ts,
            src,
            world.telescope.sample(&mut rng),
            src_port,
            dst_port,
            Bytes::from(payload),
        ));
    }
    config.garbage_udp443_packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_dissect::{classify_record, Classification, Direction};

    fn scenario() -> Scenario {
        Scenario::generate(&ScenarioConfig::test())
    }

    #[test]
    fn capture_is_time_sorted() {
        let s = scenario();
        assert!(!s.records.is_empty());
        for w in s.records.windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
    }

    #[test]
    fn component_counts_add_up() {
        let s = scenario();
        let total = s.truth.research_packets
            + s.truth.request_packets
            + s.truth.response_packets
            + s.truth.common_packets
            + s.truth.garbage_packets;
        assert_eq!(total, s.records.len() as u64);
    }

    #[test]
    fn requests_and_responses_are_disjoint() {
        // §4.1: no packet has both ports set to 443.
        let s = scenario();
        for r in &s.records {
            assert_ne!(
                classify_record(r),
                Classification::AmbiguousBothPorts,
                "packet with both ports 443"
            );
        }
    }

    #[test]
    fn both_directions_present() {
        let s = scenario();
        let mut requests = 0u64;
        let mut responses = 0u64;
        for r in &s.records {
            match classify_record(r) {
                Classification::QuicCandidate(Direction::Request) => requests += 1,
                Classification::QuicCandidate(Direction::Response) => responses += 1,
                _ => {}
            }
        }
        assert!(requests > 0 && responses > 0);
    }

    #[test]
    fn all_packets_land_in_telescope() {
        let s = scenario();
        for r in &s.records {
            assert!(
                s.world.telescope.contains(r.dst),
                "captured packet to {} outside the darknet",
                r.dst
            );
        }
    }

    #[test]
    fn no_source_is_both_scanner_and_victim() {
        // §5.2: no sessions with both packet types.
        let s = scenario();
        let mut request_sources = std::collections::HashSet::new();
        let mut response_sources = std::collections::HashSet::new();
        for r in &s.records {
            match classify_record(r) {
                Classification::QuicCandidate(Direction::Request) => {
                    request_sources.insert(r.src);
                }
                Classification::QuicCandidate(Direction::Response) => {
                    response_sources.insert(r.src);
                }
                _ => {}
            }
        }
        assert!(request_sources.is_disjoint(&response_sources));
    }

    #[test]
    fn capture_roundtrips_through_format() {
        let s = scenario();
        let bytes = quicsand_net::capture::to_bytes(&s.records).unwrap();
        let back = quicsand_net::capture::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), s.records.len());
        assert_eq!(back[0], s.records[0]);
        assert_eq!(back[back.len() - 1], s.records[s.records.len() - 1]);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = scenario();
        let b = scenario();
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.records[..50], b.records[..50]);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn garbage_fails_dissection() {
        let s = scenario();
        let mut garbage_seen = 0;
        for r in &s.records {
            if let Some(payload) = r.udp_payload() {
                if payload.len() < 64 && quicsand_dissect::dissect_udp_payload(payload).is_err() {
                    garbage_seen += 1;
                }
            }
        }
        assert!(garbage_seen as u64 >= s.truth.garbage_packets / 2);
    }
}
