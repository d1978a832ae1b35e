//! Research scanner traffic (Fig. 2).
//!
//! TUM and RWTH run periodic full-IPv4 QUIC scans; each sweep delivers
//! one Initial probe to every one of the telescope's 2^23 addresses
//! ("Each Internet-wide, single-packet scan sends 2^23 ≈ 8×10^6 packets
//! to the telescope", §5.1). Probes are legitimate QUIC Initials with a
//! visible Client Hello — which is also how the pipeline (and GreyNoise)
//! can tell research probes from the opaque flood backscatter.
//!
//! The probe payload is built once per sweep and shared across records
//! (`Bytes` is reference-counted), so even a million-packet sweep is
//! cheap to materialize.

use crate::config::ScenarioConfig;
use bytes::Bytes;
use quicsand_intel::{ActorClass, ActorTag, SyntheticInternet};
use quicsand_net::rng::substream;
use quicsand_net::{Duration, PacketRecord, Timestamp};
use quicsand_wire::packet::seal_client_initial;
use quicsand_wire::tls::{cipher_suite, ClientHello};
use quicsand_wire::{ConnectionId, Version, QUIC_PORT};
use rand::Rng;

/// Builds the single-probe payload a research scanner reuses for a
/// sweep.
pub fn research_probe_payload(sweep_seed: u64) -> Bytes {
    let mut rng = substream(sweep_seed, "research-probe");
    let dcid = ConnectionId::from_u64(rng.gen());
    let scid = ConnectionId::from_u64(rng.gen());
    let hello = ClientHello {
        random: rng.gen(),
        cipher_suites: vec![cipher_suite::AES_128_GCM_SHA256],
        server_name: None, // zmap-style scans offer no SNI
        alpn: vec!["h3".to_string()],
        key_share: Bytes::from(rng.gen::<[u8; 32]>().to_vec()),
    };
    seal_client_initial(Version::V1, dcid, scid, Bytes::new(), 0, &hello)
}

/// Generates all research-scan records into `out` and registers the
/// scanners with GreyNoise (research scanners self-identify: they are
/// the only *benign*-classified actors, which is why the sanitized
/// traffic contains "no signs of benign scanners", §5.2).
pub fn generate(
    world: &mut SyntheticInternet,
    config: &ScenarioConfig,
    out: &mut Vec<PacketRecord>,
) {
    let mut rng = substream(config.seed, "research");
    let period = Duration::from_secs(
        config.duration_secs() / u64::from(config.research_scans_per_project).max(1),
    );
    for scanner in world.research_scanners().to_vec() {
        world.greynoise.observe(
            scanner.addr,
            ActorClass::Benign,
            vec![ActorTag::ResearchScanner],
        );
        for scan_index in 0..config.research_scans_per_project {
            // Projects interleave: offset each project by half a period.
            let project_offset = if scanner.org == "TUM" {
                Duration::ZERO
            } else {
                Duration::from_secs(period.as_secs() / 2)
            };
            let sweep_seed = config
                .seed
                .wrapping_add(u64::from(scan_index))
                .wrapping_mul(31)
                .wrapping_add(scanner.asn as u64);
            let payload = research_probe_payload(sweep_seed);
            let start =
                Timestamp::EPOCH + period.saturating_mul(u64::from(scan_index)) + project_offset;
            let sweep_span = Duration::from_secs(config.research_scan_duration_hours * 3_600);
            for _ in 0..config.research_packets_per_scan {
                let offset = Duration::from_micros(rng.gen_range(0..sweep_span.as_micros().max(1)));
                let ts = start + offset;
                if ts.as_secs() >= config.duration_secs() {
                    continue;
                }
                let dst = world.telescope.sample(&mut rng);
                out.push(PacketRecord::udp(
                    ts,
                    scanner.addr,
                    dst,
                    rng.gen_range(32_768..61_000),
                    QUIC_PORT,
                    payload.clone(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_dissect::{dissect_udp_payload, MessageKind};
    use quicsand_intel::TopologyConfig;
    use quicsand_wire::MIN_INITIAL_SIZE;

    fn small_world() -> SyntheticInternet {
        SyntheticInternet::build(&TopologyConfig {
            servers_per_provider: 4,
            ..TopologyConfig::default()
        })
    }

    #[test]
    fn probe_payload_is_valid_client_initial() {
        let payload = research_probe_payload(1);
        assert!(payload.len() >= MIN_INITIAL_SIZE);
        let d = dissect_udp_payload(&payload).unwrap();
        assert_eq!(d.messages[0].kind, MessageKind::Initial);
        assert_eq!(d.messages[0].has_client_hello, Some(true));
    }

    #[test]
    fn generates_expected_volume() {
        let mut world = small_world();
        let config = ScenarioConfig::test();
        let mut out = Vec::new();
        generate(&mut world, &config, &mut out);
        let expected =
            2 * u64::from(config.research_scans_per_project) * config.research_packets_per_scan;
        // A few probes may fall past the period end and be skipped.
        assert!(out.len() as u64 <= expected);
        assert!(out.len() as u64 > expected * 9 / 10, "len={}", out.len());
    }

    #[test]
    fn probes_target_telescope_on_port_443() {
        let mut world = small_world();
        let config = ScenarioConfig::test();
        let mut out = Vec::new();
        generate(&mut world, &config, &mut out);
        for record in out.iter().take(500) {
            assert!(world.telescope.contains(record.dst));
            assert_eq!(record.transport.dst_port(), Some(QUIC_PORT));
            assert_ne!(record.transport.src_port(), Some(QUIC_PORT));
        }
    }

    #[test]
    fn sources_are_the_research_scanners() {
        let mut world = small_world();
        let scanners: Vec<_> = world.research_scanners().iter().map(|s| s.addr).collect();
        let config = ScenarioConfig::test();
        let mut out = Vec::new();
        generate(&mut world, &config, &mut out);
        assert!(out.iter().all(|r| scanners.contains(&r.src)));
        // Both projects contribute.
        assert!(scanners.iter().all(|s| out.iter().any(|r| r.src == *s)));
    }

    #[test]
    fn scanners_registered_as_benign() {
        let mut world = small_world();
        let config = ScenarioConfig::test();
        let mut out = Vec::new();
        generate(&mut world, &config, &mut out);
        for scanner in world.research_scanners().to_vec() {
            assert!(world.greynoise.is_benign(scanner.addr));
        }
    }

    #[test]
    fn timestamps_within_period() {
        let mut world = small_world();
        let config = ScenarioConfig::test();
        let mut out = Vec::new();
        generate(&mut world, &config, &mut out);
        assert!(out.iter().all(|r| r.ts.as_secs() < config.duration_secs()));
    }

    #[test]
    fn payload_sharing_keeps_memory_flat() {
        // All probes of one sweep share one payload allocation.
        let payload = research_probe_payload(9);
        let clone = payload.clone();
        assert_eq!(payload.as_ptr(), clone.as_ptr());
    }
}
