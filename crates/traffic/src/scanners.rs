//! Malicious request scanning (Fig. 3 diurnal pattern, Fig. 5 eyeball
//! origins, §5.2 GreyNoise correlation).
//!
//! Request sessions originate from eyeball networks — bots probing for
//! QUIC servers. Activity follows a diurnal curve with peaks at 6:00 and
//! 18:00 UTC; sessions average 11 packets; 2.3 % of sources carry
//! known-actor tags (Mirai, Eternalblue, bruteforcers); none are benign.

use crate::config::ScenarioConfig;
use bytes::Bytes;
use quicsand_intel::{ActorClass, ActorTag, SyntheticInternet};
use quicsand_net::rng::{exponential, substream, weighted_index};
use quicsand_net::{Duration, PacketRecord, Timestamp};
use quicsand_wire::packet::seal_client_initial;
use quicsand_wire::tls::{cipher_suite, ClientHello};
use quicsand_wire::{ConnectionId, Version, QUIC_PORT};
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// Relative request activity per hour of day: peaks at 6:00 and 18:00
/// UTC (Fig. 3 insert), implemented as a 12-hour cosine.
pub fn diurnal_weight(hour_of_day: u64) -> f64 {
    let phase = (hour_of_day as f64 - 6.0) * std::f64::consts::TAU / 12.0;
    1.0 + 0.6 * phase.cos()
}

/// Samples a session start time with the diurnal profile.
fn sample_start(rng: &mut ChaCha12Rng, days: u32) -> Timestamp {
    let weights: Vec<f64> = (0..24).map(diurnal_weight).collect();
    let day = rng.gen_range(0..u64::from(days));
    let hour = weighted_index(rng, &weights) as u64;
    let second = rng.gen_range(0..3_600u64);
    Timestamp::from_secs(day * 86_400 + hour * 3_600 + second)
}

/// A scan probe: a minimal client Initial (bots are sloppier than
/// browsers — no SNI, single suite), freshly keyed per source.
fn scan_probe(rng: &mut ChaCha12Rng) -> Bytes {
    let dcid = ConnectionId::from_u64(rng.gen());
    let hello = ClientHello {
        random: rng.gen(),
        cipher_suites: vec![cipher_suite::AES_128_GCM_SHA256],
        server_name: None,
        alpn: vec!["h3".to_string()],
        key_share: Bytes::from(rng.gen::<[u8; 32]>().to_vec()),
    };
    let scid = ConnectionId::from_u64(rng.gen::<u32>() as u64);
    seal_client_initial(Version::V1, dcid, scid, Bytes::new(), 0, &hello)
}

/// Mean scan bursts (≈ sessions) per source; bots rescan, which is
/// what populates the minutes-scale inter-arrival gaps behind the
/// Fig. 4 timeout knee.
const MEAN_BURSTS_PER_SOURCE: f64 = 2.2;

/// Generates all malicious request sessions and registers the sources
/// with GreyNoise. `config.request_sessions` is the *total* expected
/// session count; sources host ~2 bursts each on average.
pub fn generate(
    world: &mut SyntheticInternet,
    config: &ScenarioConfig,
    out: &mut Vec<PacketRecord>,
) {
    let mut rng = substream(config.seed, "scanners");
    let sources = ((config.request_sessions as f64) / MEAN_BURSTS_PER_SOURCE).ceil() as u64;
    for _ in 0..sources {
        let (src, _country) = world.sample_eyeball_source(&mut rng);

        // GreyNoise view of this source: never benign; a small share
        // carries known-actor tags.
        if rng.gen_bool(config.tagged_source_share) {
            let tag = match rng.gen_range(0..3) {
                0 => ActorTag::Mirai,
                1 => ActorTag::Eternalblue,
                _ => ActorTag::Bruteforcer,
            };
            world
                .greynoise
                .observe(src, ActorClass::Malicious, vec![tag]);
        } else {
            world.greynoise.observe(src, ActorClass::Unknown, vec![]);
        }

        let bursts = 1 + quicsand_net::rng::poisson(&mut rng, MEAN_BURSTS_PER_SOURCE - 1.0);
        let payload = scan_probe(&mut rng);
        let src_port = rng.gen_range(1_024..65_000);
        let mut ts = sample_start(&mut rng, config.days);
        for _ in 0..bursts {
            // Burst shape: ~11 packets, inter-arrival well under the
            // 5-minute session timeout.
            let packets =
                1 + quicsand_net::rng::poisson(&mut rng, config.request_session_mean_packets - 1.0);
            for _ in 0..packets {
                if ts.as_secs() >= config.duration_secs() {
                    break;
                }
                let dst = world.telescope.sample(&mut rng);
                out.push(PacketRecord::udp(
                    ts,
                    src,
                    dst,
                    src_port,
                    QUIC_PORT,
                    payload.clone(),
                ));
                ts += Duration::from_secs_f64(exponential(&mut rng, 15.0));
            }
            // Re-scan gap: concentrated around ~3 minutes with a
            // modest tail — the gap population whose exhaustion puts
            // the Fig. 4 knee at ~5 minutes.
            ts += Duration::from_secs_f64(quicsand_net::rng::lognormal_by_median(
                &mut rng, 150.0, 0.7,
            ));
            if ts.as_secs() >= config.duration_secs() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_dissect::{dissect_udp_payload, MessageKind};
    use quicsand_intel::{NetworkType, TopologyConfig};

    fn small_world() -> SyntheticInternet {
        SyntheticInternet::build(&TopologyConfig {
            servers_per_provider: 4,
            ..TopologyConfig::default()
        })
    }

    fn generated() -> (SyntheticInternet, Vec<PacketRecord>, ScenarioConfig) {
        let mut world = small_world();
        let config = ScenarioConfig::test();
        let mut out = Vec::new();
        generate(&mut world, &config, &mut out);
        (world, out, config)
    }

    #[test]
    fn diurnal_peaks_at_6_and_18() {
        assert!(diurnal_weight(6) > diurnal_weight(0));
        assert!(diurnal_weight(18) > diurnal_weight(12));
        assert!((diurnal_weight(6) - diurnal_weight(18)).abs() < 1e-9);
        let trough = diurnal_weight(0).min(diurnal_weight(12));
        assert!(diurnal_weight(6) / trough > 2.0);
    }

    #[test]
    fn sources_are_eyeballs() {
        let (world, out, _) = generated();
        for record in out.iter().take(300) {
            assert_eq!(world.asdb.network_type(record.src), NetworkType::Eyeball);
        }
    }

    #[test]
    fn probes_are_valid_initials_with_client_hello() {
        let (_, out, _) = generated();
        let d = dissect_udp_payload(out[0].udp_payload().unwrap()).unwrap();
        assert_eq!(d.messages[0].kind, MessageKind::Initial);
        assert_eq!(d.messages[0].has_client_hello, Some(true));
    }

    #[test]
    fn mean_session_size_near_config() {
        let (_, out, config) = generated();
        let mean = out.len() as f64 / config.request_sessions as f64;
        assert!(
            (mean - config.request_session_mean_packets).abs() < 2.5,
            "mean packets per session {mean}"
        );
    }

    #[test]
    fn greynoise_sees_no_benign_and_some_tagged() {
        let (world, out, _) = generated();
        let sources: std::collections::HashSet<_> = out.iter().map(|r| r.src).collect();
        let summary = world.greynoise.summarize(sources.iter());
        assert_eq!(summary.benign, 0, "no benign request sources (§5.2)");
        // 150 sessions at 2.3 % tags: expect a handful, possibly zero
        // in the tiny preset — assert the share is below 10 %.
        assert!(summary.tagged_share() < 0.10);
    }

    #[test]
    fn diurnal_structure_visible_in_aggregate() {
        let mut world = small_world();
        let mut config = ScenarioConfig::test();
        config.request_sessions = 3_000;
        let mut out = Vec::new();
        generate(&mut world, &config, &mut out);
        let mut by_hour = [0u64; 24];
        for r in &out {
            by_hour[r.ts.hour_of_day() as usize] += 1;
        }
        let peak = by_hour[6] + by_hour[18];
        let trough = by_hour[0] + by_hour[12];
        assert!(
            peak as f64 > trough as f64 * 1.5,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn all_packets_request_direction() {
        let (_, out, _) = generated();
        for r in &out {
            assert_eq!(r.transport.dst_port(), Some(QUIC_PORT));
            assert_ne!(r.transport.src_port(), Some(QUIC_PORT));
        }
    }
}
