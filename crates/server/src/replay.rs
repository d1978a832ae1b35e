//! The Table 1 harness: record a client corpus, replay it at a fixed
//! rate, measure service availability.
//!
//! Mirrors the paper's method: "We record 500,000 packets using the
//! QUIC client quiche [...]. To simulate attacks, we then replay *only*
//! client Initial messages at varying packet rates towards new server
//! instances. [...] To determine how many requests were answered we
//! match the respective DCIDs and SCIDs and calculate the service
//! availability ratio."

use crate::model::{QuicServerSim, ServerConfig};
use bytes::Bytes;
use quicsand_net::{Duration, Timestamp};
use quicsand_wire::packet::seal_client_initial;
use quicsand_wire::tls::{cipher_suite, ClientHello};
use quicsand_wire::{ConnectionId, Version};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// A recorded client Initial, with its spoofed sender identity.
#[derive(Debug, Clone)]
pub struct RecordedInitial {
    /// Spoofed source address.
    pub src_ip: Ipv4Addr,
    /// Spoofed source port.
    pub src_port: u16,
    /// The Initial datagram (≥1200 bytes).
    pub datagram: Bytes,
}

/// A deterministic stream of distinct recorded Initials — the 500 k
/// quiche recording of the paper without holding 600 MB of packets in
/// memory. `InitialStream::new(seed)` always yields the same sequence.
#[derive(Debug)]
pub struct InitialStream {
    rng: ChaCha12Rng,
}

impl InitialStream {
    /// Creates the stream.
    pub fn new(seed: u64) -> Self {
        InitialStream {
            rng: ChaCha12Rng::seed_from_u64(seed),
        }
    }
}

impl Iterator for InitialStream {
    type Item = RecordedInitial;

    fn next(&mut self) -> Option<RecordedInitial> {
        Some(make_initial(&mut self.rng))
    }
}

fn make_initial(rng: &mut ChaCha12Rng) -> RecordedInitial {
    let dcid = ConnectionId::from_u64(rng.gen());
    let scid = ConnectionId::from_u64(rng.gen());
    let hello = ClientHello {
        random: rng.gen(),
        cipher_suites: vec![cipher_suite::AES_128_GCM_SHA256],
        server_name: Some("victim.example".into()),
        alpn: vec!["h3".into()],
        key_share: Bytes::from(rng.gen::<[u8; 32]>().to_vec()),
    };
    let wire = seal_client_initial(Version::V1, dcid, scid, Bytes::new(), 0, &hello);
    RecordedInitial {
        src_ip: Ipv4Addr::from(rng.gen::<u32>()),
        src_port: rng.gen_range(1_024..65_000),
        datagram: wire,
    }
}

/// Records `count` distinct client Initials (a materialized corpus;
/// prefer [`InitialStream`] for large replays).
pub fn record_corpus(count: usize, seed: u64) -> Vec<RecordedInitial> {
    InitialStream::new(seed).take(count).collect()
}

/// One Table 1 row configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Attack volume in packets per second.
    pub pps: u64,
    /// Total Initials to replay (the corpus cycles if shorter).
    pub total_requests: u64,
    /// Server configuration under test.
    pub server: ServerConfig,
}

/// One Table 1 row result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// Attack volume (pps).
    pub pps: u64,
    /// Whether RETRY was enabled.
    pub retry: bool,
    /// Worker count.
    pub workers: usize,
    /// Client requests sent.
    pub requests: u64,
    /// Server response datagrams observed.
    pub responses: u64,
    /// Requests answered (accepted handshakes, or Retry replies when
    /// RETRY is on — matching the paper's DCID/SCID matching).
    pub answered: u64,
    /// answered / requests.
    pub availability: f64,
    /// Whether served clients paid an extra round trip.
    pub extra_rtt: bool,
}

impl ReplayOutcome {
    /// Availability in percent, rounded like the paper's table.
    pub fn availability_percent(&self) -> u64 {
        (self.availability * 100.0).round() as u64
    }
}

/// Replays a deterministic recorded stream at `config.pps` against a
/// fresh server instance. `seed` fixes both the recording and the
/// server's key material.
pub fn replay_flood(config: &ReplayConfig, seed: u64) -> ReplayOutcome {
    assert!(config.pps > 0, "replay needs a positive rate");
    let mut server = QuicServerSim::new(config.server, seed);
    let interval = Duration::from_micros(1_000_000 / config.pps);
    let mut now = Timestamp::EPOCH;
    let mut responses = 0u64;
    let mut stream = InitialStream::new(seed ^ 0xC0_FF_EE);
    for _ in 0..config.total_requests {
        let packet = stream.next().expect("stream is infinite");
        responses += server
            .handle_datagram(now, packet.src_ip, packet.src_port, &packet.datagram)
            .len() as u64;
        now += interval;
    }
    let stats = server.stats();
    // Retries count as answered (the paper's DCID/SCID matching sees
    // the Retry reply); with RETRY off retries_sent is zero.
    let answered = stats.retries_sent + stats.accepted;
    ReplayOutcome {
        pps: config.pps,
        retry: config.server.retry_policy.can_retry(),
        workers: config.server.workers,
        requests: config.total_requests,
        responses,
        answered,
        availability: answered as f64 / config.total_requests as f64,
        extra_rtt: config.server.retry_policy.can_retry(),
    }
}

/// The Table 1 row set (volume, retry, workers, requests), exactly as
/// printed in the paper.
pub fn paper_table_rows() -> Vec<(u64, bool, usize, u64)> {
    vec![
        (10, false, 4, 3_001),
        (100, false, 4, 30_001),
        (1_000, false, 4, 300_001),
        (1_000, false, 128, 300_001),
        (10_000, false, 128, 500_000),
        (100_000, false, 128, 498_991),
        (1_000, true, 4, 300_001),
        (10_000, true, 4, 500_000),
        (100_000, true, 4, 500_000),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_wire::MIN_INITIAL_SIZE;

    fn server_config(workers: usize, retry: bool) -> ServerConfig {
        ServerConfig {
            workers,
            ..ServerConfig::default()
        }
        .with_retry(retry)
    }

    #[test]
    fn corpus_initials_are_distinct_and_padded() {
        let c = record_corpus(100, 1);
        assert_eq!(c.len(), 100);
        let mut seen = std::collections::HashSet::new();
        for r in &c {
            assert!(r.datagram.len() >= MIN_INITIAL_SIZE);
            assert!(seen.insert(r.datagram.clone()), "duplicate initial");
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<_> = InitialStream::new(5).take(5).map(|r| r.datagram).collect();
        let b: Vec<_> = InitialStream::new(5).take(5).map(|r| r.datagram).collect();
        assert_eq!(a, b);
        let c: Vec<_> = InitialStream::new(6).take(5).map(|r| r.datagram).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn low_rate_fully_answered() {
        // Table 1 row 1 shape: 10 pps, 4 workers -> 100 %.
        let outcome = replay_flood(
            &ReplayConfig {
                pps: 10,
                total_requests: 1_200,
                server: server_config(4, false),
            },
            1,
        );
        assert_eq!(outcome.availability_percent(), 100);
        assert_eq!(outcome.responses, outcome.requests * 4);
    }

    #[test]
    fn overload_collapses_availability() {
        // Table 1 row 3 shape: 1000 pps, 4 workers. Scaled run: 120 s
        // of attack. Steady state = 4 x 1024 slots / 60 s hold ≈ 68
        // accepted/s; the availability must collapse towards
        // (4096 + 68 x 60) / 120 000 ≈ 7 %.
        let outcome = replay_flood(
            &ReplayConfig {
                pps: 1_000,
                total_requests: 120_000,
                server: server_config(4, false),
            },
            1,
        );
        assert!(
            outcome.availability < 0.12,
            "availability {}",
            outcome.availability
        );
    }

    #[test]
    fn more_workers_restore_availability_at_1000pps() {
        // Table 1 row 4 shape: 1000 pps, 128 workers -> 100 %.
        let outcome = replay_flood(
            &ReplayConfig {
                pps: 1_000,
                total_requests: 60_000,
                server: server_config(128, false),
            },
            1,
        );
        assert!(
            outcome.availability > 0.95,
            "availability {}",
            outcome.availability
        );
    }

    #[test]
    fn retry_keeps_availability_at_any_rate() {
        for pps in [1_000u64, 10_000] {
            let outcome = replay_flood(
                &ReplayConfig {
                    pps,
                    total_requests: 20_000,
                    server: server_config(4, true),
                },
                1,
            );
            assert!(
                outcome.availability > 0.99,
                "retry at {pps} pps: availability {}",
                outcome.availability
            );
            assert!(outcome.extra_rtt);
        }
    }

    #[test]
    fn availability_is_monotone_in_rate() {
        let rates = [10u64, 100, 1_000];
        let mut last = f64::INFINITY;
        for pps in rates {
            let outcome = replay_flood(
                &ReplayConfig {
                    pps,
                    total_requests: (pps * 60).min(60_000) + 1,
                    server: server_config(4, false),
                },
                1,
            );
            assert!(
                outcome.availability <= last + 0.05,
                "availability should not improve with rate"
            );
            last = outcome.availability;
        }
    }

    #[test]
    fn paper_rows_well_formed() {
        let rows = paper_table_rows();
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0], (10, false, 4, 3_001));
        assert!(rows.iter().filter(|(_, retry, _, _)| *retry).count() == 3);
    }
}
