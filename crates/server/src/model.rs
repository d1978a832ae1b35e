//! The worker-based QUIC server resource model.
//!
//! Mechanisms reproduced from the Table 1 testbed:
//!
//! * **Connection tables** — each worker holds at most
//!   `conns_per_worker` handshake states; a state lives for
//!   `handshake_hold` (the 60 s handshake/idle lifetime) unless the
//!   handshake completes. A spoofed Initial therefore occupies a slot
//!   for the full minute — the resource-exhaustion core of the paper.
//! * **Worker CPU** — each accepted Initial costs `crypto_cost` of
//!   serialized worker time (key derivation + ServerHello + cert
//!   signing); packets arriving while the backlog is deeper than
//!   `accept_backlog` are dropped.
//! * **RETRY fast path** — when enabled, Initials without a token get a
//!   stateless Retry (cost `retry_cost`, no table entry); only Initials
//!   with a valid token proceed to the expensive path. This is why
//!   RETRY flattens every flood in Table 1 at the price of one RTT.

use bytes::Bytes;
use quicsand_net::{Duration, Timestamp};
use quicsand_wire::crypto::{handshake_key, Direction, InitialSecrets};
use quicsand_wire::packet::{parse_datagram, Packet, PacketPayload, ParsedHeader};
use quicsand_wire::siphash::SipKey;
use quicsand_wire::tls::{
    cipher_suite, peek_handshake_type, ClientHello, HandshakeType, ServerHello,
};
use quicsand_wire::token::TokenMinter;
use quicsand_wire::{ConnectionId, Frame, Version};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// When the server challenges unvalidated clients with RETRY.
///
/// The paper observes that operators leave RETRY off for latency and
/// suggests (§6) that "RETRYs could be deployed adaptively and only
/// used when high load occurs" — [`RetryPolicy::Adaptive`] implements
/// exactly that: the challenge switches on once the flow-hashed
/// worker's connection table passes an occupancy threshold, so normal
/// load pays zero extra round trips while floods hit the stateless
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RetryPolicy {
    /// Never send RETRY (the deployed reality the paper measured).
    Off,
    /// Always validate addresses first (Table 1's RETRY rows).
    Always,
    /// Validate only when the worker's connection-table occupancy is at
    /// or above this fraction (0.0..=1.0).
    Adaptive {
        /// Table-occupancy fraction that arms the challenge.
        occupancy_threshold: f64,
    },
}

impl RetryPolicy {
    /// Whether the policy can ever send a RETRY.
    pub fn can_retry(self) -> bool {
        !matches!(self, RetryPolicy::Off)
    }
}

/// Server configuration (the Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Worker processes (paper: 4 or auto=128).
    pub workers: usize,
    /// Connection-table entries per worker (paper: 1 024, "twice the
    /// default").
    pub conns_per_worker: usize,
    /// How long an unfinished handshake state is held (the 60 s
    /// handshake lifetime that turns floods into exhaustion).
    pub handshake_hold: Duration,
    /// Serialized worker CPU per accepted handshake.
    pub crypto_cost: Duration,
    /// Worker CPU for a stateless Retry.
    pub retry_cost: Duration,
    /// Accept-queue depth per worker; deeper backlogs drop.
    pub accept_backlog: usize,
    /// The RETRY defence policy.
    pub retry_policy: RetryPolicy,
}

impl ServerConfig {
    /// Convenience: the Table 1 on/off switch.
    pub fn with_retry(mut self, enabled: bool) -> Self {
        self.retry_policy = if enabled {
            RetryPolicy::Always
        } else {
            RetryPolicy::Off
        };
        self
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            conns_per_worker: 1_024,
            handshake_hold: Duration::from_secs(60),
            crypto_cost: Duration::from_micros(250),
            retry_cost: Duration::from_micros(8),
            accept_backlog: 512,
            retry_policy: RetryPolicy::Off,
        }
    }
}

/// Server-side counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Datagrams received.
    pub received: u64,
    /// Initials accepted into the connection table.
    pub accepted: u64,
    /// Retry packets sent.
    pub retries_sent: u64,
    /// Initials dropped: accept queue overflow.
    pub dropped_backlog: u64,
    /// Initials dropped: connection table full.
    pub dropped_table: u64,
    /// Initials dropped: malformed/undecryptable.
    pub dropped_malformed: u64,
    /// Initials dropped: invalid retry token.
    pub dropped_bad_token: u64,
    /// Initials admitted via a NEW_TOKEN resumption token (skipping the
    /// RETRY round trip, §6's alleviation).
    pub resumed: u64,
    /// Version Negotiation packets sent (unsupported client offers).
    pub vn_sent: u64,
    /// Initials dropped: datagram below the 1200-byte padding minimum
    /// (RFC 9000 Â§14.1 anti-amplification requirement).
    pub dropped_unpadded: u64,
    /// Initial retransmissions for live connections (no new state).
    pub duplicates: u64,
    /// Handshake flights re-sent in response to duplicate Initials
    /// (loss recovery).
    pub flight_retransmissions: u64,
    /// Response datagrams emitted.
    pub responses_sent: u64,
    /// Handshakes completed (client Finished processed).
    pub completed: u64,
}

/// A response datagram with its emission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseDatagram {
    /// When the datagram leaves the server.
    pub at: Timestamp,
    /// The UDP payload.
    pub payload: Bytes,
}

#[derive(Debug)]
struct Worker {
    busy_until: Timestamp,
    // Connection key -> expiry; scanned lazily.
    conns: HashMap<(Ipv4Addr, u16), Connection>,
}

#[derive(Debug)]
struct Connection {
    scid: ConnectionId,
    expiry: Timestamp,
    established: bool,
    hs_recv_key: SipKey,
    hs_send_key: SipKey,
    // The handshake flight (Initial+HS, HS), kept for retransmission
    // when the client's duplicate Initial signals it never arrived.
    flight: Vec<Bytes>,
}

impl Connection {
    /// The confirmation flight: HANDSHAKE_DONE plus a NEW_TOKEN the
    /// client can present on its next visit to skip a future RETRY
    /// round trip (the §6 session-resumption alleviation).
    fn confirmation(
        &self,
        minter: &TokenMinter,
        version: Version,
        now: Timestamp,
        src_ip: Ipv4Addr,
        packet_number: u64,
    ) -> ResponseDatagram {
        let token = minter.mint(now.as_secs(), u32::from(src_ip), &self.scid);
        let done = Packet::Handshake {
            version,
            dcid: ConnectionId::EMPTY,
            scid: self.scid,
            packet_number,
            payload: PacketPayload::new(vec![
                Frame::HandshakeDone,
                Frame::NewToken {
                    token: Bytes::from(token),
                },
            ]),
        };
        let payload = done
            .encode(Some(self.hs_send_key))
            .expect("handshake done encodes");
        ResponseDatagram {
            at: now,
            payload: Bytes::from(payload),
        }
    }
}

/// The simulated server.
#[derive(Debug)]
pub struct QuicServerSim {
    config: ServerConfig,
    workers: Vec<Worker>,
    minter: TokenMinter,
    resumption_minter: TokenMinter,
    stats: ServerStats,
    rng: ChaCha12Rng,
    scid_counter: u64,
    version: Version,
}

impl QuicServerSim {
    /// Creates a server.
    pub fn new(config: ServerConfig, seed: u64) -> Self {
        assert!(config.workers > 0, "server needs at least one worker");
        QuicServerSim {
            config,
            workers: (0..config.workers)
                .map(|_| Worker {
                    busy_until: Timestamp::EPOCH,
                    conns: HashMap::new(),
                })
                .collect(),
            minter: TokenMinter::new(SipKey {
                k0: seed,
                k1: seed.rotate_left(17) ^ 0x7265_7472_795f_6b31,
            }),
            // NEW_TOKEN resumption tokens live much longer than retry
            // tokens (the client presents them on a *future* visit).
            resumption_minter: TokenMinter::new(SipKey {
                k0: seed ^ 0x7265_7375_6d65,
                k1: seed.rotate_left(31) ^ 0x6e65_775f_746f_6b31,
            })
            .with_lifetime(86_400),
            stats: ServerStats::default(),
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0x5e72),
            scid_counter: seed & 0xffff,
            version: Version::V1,
        }
    }

    /// The counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Current connection-table occupancy across workers.
    pub fn open_connections(&self) -> usize {
        self.workers.iter().map(|w| w.conns.len()).sum()
    }

    /// Handles one incoming datagram from `(src_ip, src_port)` at
    /// `now`, returning the response datagrams (possibly empty).
    pub fn handle_datagram(
        &mut self,
        now: Timestamp,
        src_ip: Ipv4Addr,
        src_port: u16,
        datagram: &[u8],
    ) -> Vec<ResponseDatagram> {
        self.stats.received += 1;
        let Ok(packets) = parse_datagram(datagram, 8) else {
            self.stats.dropped_malformed += 1;
            return Vec::new();
        };
        // RFC 9000 Â§14.1: datagrams carrying Initials must be padded to
        // at least 1200 bytes; this is what bounds the 3x amplification
        // a spoofed probe can elicit.
        let carries_initial = packets.iter().any(|(p, _)| {
            matches!(
                p.header,
                ParsedHeader::Long {
                    ty: quicsand_wire::header::LongPacketType::Initial,
                    ..
                }
            )
        });
        if carries_initial && datagram.len() < quicsand_wire::MIN_INITIAL_SIZE {
            self.stats.dropped_unpadded += 1;
            return Vec::new();
        }
        let mut responses = Vec::new();
        for (packet, aad) in &packets {
            match &packet.header {
                ParsedHeader::Long {
                    ty: quicsand_wire::header::LongPacketType::Initial,
                    version,
                    dcid,
                    scid,
                    token,
                    ..
                } => {
                    responses.extend(self.handle_initial(
                        now, src_ip, src_port, *version, dcid, scid, token, packet, aad,
                    ));
                }
                ParsedHeader::Long {
                    ty: quicsand_wire::header::LongPacketType::Handshake,
                    ..
                } => {
                    responses.extend(self.handle_handshake(now, src_ip, src_port, packet, aad));
                }
                _ => {
                    // 0-RTT / Retry / VN / short packets towards the
                    // server are ignored by this model.
                }
            }
        }
        // RFC 9000 Â§8.1: never send more than 3x the bytes received
        // to an unvalidated address; trailing datagrams are shed first
        // (the keep-alives go before the handshake flight).
        let budget = datagram.len() * quicsand_wire::ANTI_AMPLIFICATION_FACTOR;
        let mut spent = 0usize;
        responses.retain(|r| {
            spent += r.payload.len();
            spent <= budget
        });
        self.stats.responses_sent += responses.len() as u64;
        responses
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_initial(
        &mut self,
        now: Timestamp,
        src_ip: Ipv4Addr,
        src_port: u16,
        version: Version,
        dcid: &ConnectionId,
        client_scid: &ConnectionId,
        token: &Bytes,
        packet: &quicsand_wire::packet::ParsedPacket,
        aad: &[u8],
    ) -> Vec<ResponseDatagram> {
        if !version.is_supported() {
            // Version Negotiation (RFC 9000 §6): stateless, before any
            // cryptography — the first leg of the paper's §2
            // "worst case 3 RTTs" handshake.
            let vn = Packet::VersionNegotiation {
                // CIDs echoed swapped, so the client can match.
                dcid: *client_scid,
                scid: *dcid,
                versions: vec![Version::V1, Version::Draft29],
            };
            self.stats.vn_sent += 1;
            return vec![ResponseDatagram {
                at: now,
                payload: Bytes::from(vn.encode(None).expect("vn encodes")),
            }];
        }

        // Decrypt the client Initial with passively derivable keys (the
        // server does exactly what the spec says: derive from the DCID).
        let initial_keys = InitialSecrets::derive(version, dcid);
        let Ok((_pn, frames)) = packet.open(initial_keys.client, None, aad) else {
            self.stats.dropped_malformed += 1;
            return Vec::new();
        };
        let Some(client_hello) = extract_client_hello(&frames) else {
            self.stats.dropped_malformed += 1;
            return Vec::new();
        };

        let worker_index = self.pick_worker(src_ip, src_port);

        // RETRY fast path: stateless, before any allocation. Adaptive
        // deployments arm the challenge only under table pressure.
        let retry_armed = match self.config.retry_policy {
            RetryPolicy::Off => false,
            RetryPolicy::Always => true,
            RetryPolicy::Adaptive {
                occupancy_threshold,
            } => {
                let worker = &mut self.workers[worker_index];
                worker.conns.retain(|_, c| c.expiry > now);
                let occupancy = worker.conns.len() as f64 / self.config.conns_per_worker as f64;
                occupancy >= occupancy_threshold
            }
        };
        if self.config.retry_policy.can_retry() && !token.is_empty() {
            // Tokens are honoured under every policy that mints them —
            // a validated client must not be re-challenged when the
            // adaptive threshold flaps. Retry tokens and NEW_TOKEN
            // resumption tokens are tried in turn.
            if self
                .minter
                .validate(token, now.as_secs(), u32::from(src_ip))
                .is_err()
            {
                match self
                    .resumption_minter
                    .validate(token, now.as_secs(), u32::from(src_ip))
                {
                    Ok(_) => self.stats.resumed += 1,
                    Err(_) => {
                        self.stats.dropped_bad_token += 1;
                        return Vec::new();
                    }
                }
            }
        } else if retry_armed {
            return self.send_retry(now, worker_index, src_ip, version, dcid, client_scid);
        }

        // CPU admission: the worker serializes crypto work; a backlog
        // deeper than the accept queue drops the packet.
        let worker = &mut self.workers[worker_index];
        let backlog_depth = worker.busy_until.saturating_since(now).as_micros()
            / self.config.crypto_cost.as_micros().max(1);
        if backlog_depth as usize > self.config.accept_backlog {
            self.stats.dropped_backlog += 1;
            return Vec::new();
        }

        // Table admission after expiring stale states.
        let expiry_floor = now;
        worker.conns.retain(|_, c| c.expiry > expiry_floor);
        if let Some(conn) = worker.conns.get(&(src_ip, src_port)) {
            // Retransmitted Initial: the client never saw our flight
            // (loss recovery) — resend it without new state. Duplicates
            // on established connections are ignored.
            self.stats.duplicates += 1;
            if conn.established {
                return Vec::new();
            }
            self.stats.flight_retransmissions += 1;
            return conn
                .flight
                .iter()
                .map(|payload| ResponseDatagram {
                    at: now,
                    payload: payload.clone(),
                })
                .collect();
        }
        if worker.conns.len() >= self.config.conns_per_worker {
            self.stats.dropped_table += 1;
            return Vec::new();
        }

        // Accept: pay crypto, allocate state, emit the first flight.
        let start = worker.busy_until.max(now);
        let done = start + self.config.crypto_cost;
        worker.busy_until = done;

        self.scid_counter += 1;
        let scid = ConnectionId::from_u64((self.scid_counter << 8) | 0x5e);
        let server_share: [u8; 32] = self.rng.gen();
        let hs_recv_key = handshake_key(
            &client_hello.key_share,
            &server_share,
            Direction::ClientToServer,
        );
        let hs_send_key = handshake_key(
            &client_hello.key_share,
            &server_share,
            Direction::ServerToClient,
        );
        self.stats.accepted += 1;

        // The §6/Table 1 first flight: Initial(SH)+Handshake coalesced,
        // a second Handshake datagram, then two keep-alive PINGs after
        // a short delay — four datagrams per request. Reply keys derive
        // from the DCID of the client's Initial (RFC 9001 §5.2 — after
        // a Retry that DCID is the server's retry SCID, and both sides
        // re-derive).
        let reply_keys = InitialSecrets::derive(version, dcid);
        let server_initial = Packet::Initial {
            version,
            dcid: *client_scid,
            scid,
            token: Bytes::new(),
            packet_number: 0,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from(
                    ServerHello {
                        random: self.rng.gen(),
                        cipher_suite: cipher_suite::AES_128_GCM_SHA256,
                        key_share: Bytes::from(server_share.to_vec()),
                    }
                    .encode(),
                ),
            }]),
        };
        let handshake_a = Packet::Handshake {
            version,
            dcid: *client_scid,
            scid,
            packet_number: 0,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from(vec![0x0b; 700]),
            }]),
        };
        let handshake_b = Packet::Handshake {
            version,
            dcid: *client_scid,
            scid,
            packet_number: 1,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: 700,
                data: Bytes::from(vec![0x0f; 300]),
            }]),
        };
        let server_key = reply_keys.key(Direction::ServerToClient);
        let mut first = server_initial
            .encode(Some(server_key))
            .expect("server initial encodes");
        first.extend(handshake_a.encode(Some(hs_send_key)).expect("hs encodes"));
        let second = handshake_b.encode(Some(hs_send_key)).expect("hs encodes");

        let first = Bytes::from(first);
        let second = Bytes::from(second);
        self.workers[worker_index].conns.insert(
            (src_ip, src_port),
            Connection {
                scid,
                expiry: done + self.config.handshake_hold,
                established: false,
                hs_recv_key,
                hs_send_key,
                flight: vec![first.clone(), second.clone()],
            },
        );
        let mut out = vec![
            ResponseDatagram {
                at: done,
                payload: first,
            },
            ResponseDatagram {
                at: done + Duration::from_micros(50),
                payload: second,
            },
        ];
        // Two keep-alive PINGs after short delays.
        for (i, delay_ms) in [200u64, 400].iter().enumerate() {
            let ping = Packet::Handshake {
                version,
                dcid: *client_scid,
                scid,
                packet_number: 2 + i as u64,
                payload: PacketPayload::new(vec![Frame::Ping]),
            };
            out.push(ResponseDatagram {
                at: done + Duration::from_millis(*delay_ms),
                payload: Bytes::from(ping.encode(Some(hs_send_key)).expect("ping encodes")),
            });
        }
        out
    }

    fn handle_handshake(
        &mut self,
        now: Timestamp,
        src_ip: Ipv4Addr,
        src_port: u16,
        packet: &quicsand_wire::packet::ParsedPacket,
        aad: &[u8],
    ) -> Vec<ResponseDatagram> {
        let worker_index = self.pick_worker(src_ip, src_port);
        let config_hold = self.config.handshake_hold;
        let version = self.version;
        let worker = &mut self.workers[worker_index];
        let Some(conn) = worker.conns.get_mut(&(src_ip, src_port)) else {
            return Vec::new();
        };
        let Ok((_pn, frames)) = packet.open(conn.hs_recv_key, None, aad) else {
            return Vec::new();
        };
        let finished = frames.iter().any(|f| {
            matches!(f, Frame::Crypto { data, .. }
                if peek_handshake_type(data) == Ok(HandshakeType::Finished))
        });
        if !finished {
            return Vec::new();
        }
        // A duplicate Finished means our HANDSHAKE_DONE was lost: confirm
        // again (idempotent, no counter bump).
        let packet_number = if conn.established {
            11
        } else {
            conn.established = true;
            conn.expiry = now + config_hold;
            self.stats.completed += 1;
            10
        };
        vec![conn.confirmation(&self.resumption_minter, version, now, src_ip, packet_number)]
    }

    fn send_retry(
        &mut self,
        now: Timestamp,
        worker_index: usize,
        src_ip: Ipv4Addr,
        version: Version,
        dcid: &ConnectionId,
        client_scid: &ConnectionId,
    ) -> Vec<ResponseDatagram> {
        let worker = &mut self.workers[worker_index];
        // Retries are nearly free but still pass the CPU; the backlog
        // check uses the retry cost so floods cannot starve it.
        let backlog_depth = worker.busy_until.saturating_since(now).as_micros()
            / self.config.retry_cost.as_micros().max(1);
        if backlog_depth as usize > self.config.accept_backlog * 64 {
            self.stats.dropped_backlog += 1;
            return Vec::new();
        }
        let start = worker.busy_until.max(now);
        worker.busy_until = start + self.config.retry_cost;

        self.scid_counter += 1;
        let new_scid = ConnectionId::from_u64((self.scid_counter << 8) | 0x77);
        let token = self.minter.mint(now.as_secs(), u32::from(src_ip), dcid);
        let retry = Packet::Retry {
            version,
            dcid: *client_scid,
            scid: new_scid,
            token: Bytes::from(token),
            original_dcid: *dcid,
        };
        self.stats.retries_sent += 1;
        vec![ResponseDatagram {
            at: worker.busy_until,
            payload: Bytes::from(retry.encode(None).expect("retry encodes")),
        }]
    }

    fn pick_worker(&self, src_ip: Ipv4Addr, src_port: u16) -> usize {
        // SO_REUSEPORT-style flow hashing.
        let h = quicsand_wire::siphash::siphash24(
            SipKey {
                k0: 0x9e37,
                k1: 0x79b9,
            },
            &[
                &u32::from(src_ip).to_le_bytes()[..],
                &src_port.to_le_bytes()[..],
            ]
            .concat(),
        );
        (h % self.workers.len() as u64) as usize
    }
}

fn extract_client_hello(frames: &[Frame]) -> Option<ClientHello> {
    frames.iter().find_map(|f| {
        if let Frame::Crypto { data, .. } = f {
            ClientHello::decode(data).ok()
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::QuicClient;
    use quicsand_wire::packet::seal_client_initial;

    fn client_initial(seed: u64, token: Bytes) -> (Bytes, ConnectionId, Bytes) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let dcid = ConnectionId::from_u64(rng.gen());
        let scid = ConnectionId::from_u64(rng.gen());
        let key_share = Bytes::from(rng.gen::<[u8; 32]>().to_vec());
        let hello = ClientHello {
            random: rng.gen(),
            cipher_suites: vec![cipher_suite::AES_128_GCM_SHA256],
            server_name: Some("victim.example".into()),
            alpn: vec!["h3".into()],
            key_share: key_share.clone(),
        };
        let wire = seal_client_initial(Version::V1, dcid, scid, token, 0, &hello);
        (wire, dcid, key_share)
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn accepted_initial_elicits_four_datagrams() {
        let mut server = QuicServerSim::new(ServerConfig::default(), 1);
        let (wire, _, _) = client_initial(1, Bytes::new());
        let responses = server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000, &wire);
        assert_eq!(responses.len(), 4, "Table 1: four datagrams per request");
        assert_eq!(server.stats().accepted, 1);
        assert_eq!(server.stats().responses_sent, 4);
        assert_eq!(server.open_connections(), 1);
        // First datagram: Initial + Handshake coalesced.
        let parsed = parse_datagram(&responses[0].payload, 8).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    /// Sends `client`'s Initial from `(ip(1), 5000)` at 1 s and feeds it
    /// the server's first flight; returns the Initial and the Finished
    /// the flight elicits.
    fn handshake_up_to_finished(
        server: &mut QuicServerSim,
        client: &mut QuicClient,
    ) -> (Bytes, Bytes) {
        let initial = client.initial_datagram();
        let flight = server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000, &initial);
        let finished = flight
            .iter()
            .find_map(|r| client.handle_datagram(&r.payload))
            .expect("the first flight elicits a Finished");
        (initial, finished)
    }

    #[test]
    fn duplicate_initial_before_establishment_resends_the_flight() {
        let mut server = QuicServerSim::new(ServerConfig::default(), 30);
        let (wire, _, _) = client_initial(30, Bytes::new());
        let first = server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000, &wire);
        let again = server.handle_datagram(Timestamp::from_secs(2), ip(1), 5000, &wire);
        let payloads = |responses: &[ResponseDatagram]| {
            responses
                .iter()
                .map(|r| r.payload.clone())
                .collect::<Vec<_>>()
        };
        // The stored flight is the Initial+Handshake and Handshake
        // datagrams, byte for byte; the keep-alive PINGs are not re-sent.
        assert_eq!(payloads(&again), payloads(&first[..2]));
        assert_eq!(server.stats().accepted, 1);
        assert_eq!(server.open_connections(), 1);
        assert_eq!(server.stats().duplicates, 1);
        assert_eq!(server.stats().flight_retransmissions, 1);
    }

    #[test]
    fn duplicate_initial_after_establishment_gets_no_response() {
        let mut server = QuicServerSim::new(ServerConfig::default(), 31);
        let mut client = QuicClient::new(31);
        let (initial, finished) = handshake_up_to_finished(&mut server, &mut client);
        let confirmation = server.handle_datagram(Timestamp::from_secs(2), ip(1), 5000, &finished);
        assert_eq!(confirmation.len(), 1);
        assert_eq!(server.stats().completed, 1);
        assert!(server
            .handle_datagram(Timestamp::from_secs(3), ip(1), 5000, &initial)
            .is_empty());
        assert_eq!(server.stats().duplicates, 1);
        assert_eq!(server.stats().flight_retransmissions, 0);
    }

    #[test]
    fn duplicate_finished_is_confirmed_again() {
        let mut server = QuicServerSim::new(ServerConfig::default(), 32);
        let mut client = QuicClient::new(32);
        let (_, finished) = handshake_up_to_finished(&mut server, &mut client);
        // The first confirmation is lost on its way to the client.
        let lost = server.handle_datagram(Timestamp::from_secs(2), ip(1), 5000, &finished);
        assert_eq!(lost.len(), 1);
        let again = server.handle_datagram(Timestamp::from_secs(3), ip(1), 5000, &finished);
        assert_eq!(again.len(), 1);
        assert_eq!(server.stats().completed, 1);
        // The re-sent confirmation alone establishes the client.
        assert!(client.handle_datagram(&again[0].payload).is_none());
        assert!(client.is_established());
        assert!(client.resumption_token().is_some());
    }

    #[test]
    fn malformed_datagram_dropped() {
        let mut server = QuicServerSim::new(ServerConfig::default(), 1);
        let responses = server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000, &[0x12, 0x13]);
        assert!(responses.is_empty());
        assert_eq!(server.stats().dropped_malformed, 1);
    }

    #[test]
    fn connection_table_fills_and_drops() {
        let config = ServerConfig {
            workers: 1,
            conns_per_worker: 10,
            crypto_cost: Duration::from_micros(1),
            accept_backlog: 1_000_000,
            ..ServerConfig::default()
        };
        let mut server = QuicServerSim::new(config, 2);
        for i in 0..15u64 {
            let (wire, _, _) = client_initial(100 + i, Bytes::new());
            server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000 + i as u16, &wire);
        }
        assert_eq!(server.stats().accepted, 10);
        assert_eq!(server.stats().dropped_table, 5);
        assert_eq!(server.open_connections(), 10);
    }

    #[test]
    fn states_expire_after_hold() {
        let config = ServerConfig {
            workers: 1,
            conns_per_worker: 10,
            handshake_hold: Duration::from_secs(60),
            crypto_cost: Duration::from_micros(1),
            accept_backlog: 1_000_000,
            ..ServerConfig::default()
        };
        let mut server = QuicServerSim::new(config, 3);
        for i in 0..10u64 {
            let (wire, _, _) = client_initial(200 + i, Bytes::new());
            server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000 + i as u16, &wire);
        }
        assert_eq!(server.stats().accepted, 10);
        // After the hold elapses, slots free up.
        let (wire, _, _) = client_initial(999, Bytes::new());
        let responses = server.handle_datagram(Timestamp::from_secs(62), ip(2), 6000, &wire);
        assert_eq!(responses.len(), 4);
        assert_eq!(server.stats().dropped_table, 0);
    }

    #[test]
    fn backlog_overflow_drops() {
        let config = ServerConfig {
            workers: 1,
            conns_per_worker: 1_000_000,
            crypto_cost: Duration::from_millis(10), // very slow crypto
            accept_backlog: 2,
            ..ServerConfig::default()
        };
        let mut server = QuicServerSim::new(config, 4);
        let t = Timestamp::from_secs(1);
        let mut dropped = 0;
        for i in 0..10u64 {
            let (wire, _, _) = client_initial(300 + i, Bytes::new());
            if server
                .handle_datagram(t, ip(1), 5000 + i as u16, &wire)
                .is_empty()
            {
                dropped += 1;
            }
        }
        assert!(
            dropped >= 6,
            "deep backlog must shed load, dropped={dropped}"
        );
        assert_eq!(server.stats().dropped_backlog, dropped);
    }

    #[test]
    fn retry_path_is_stateless() {
        let config = ServerConfig::default().with_retry(true);
        let mut server = QuicServerSim::new(config, 5);
        let (wire, _, _) = client_initial(400, Bytes::new());
        let responses = server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000, &wire);
        assert_eq!(responses.len(), 1);
        assert_eq!(server.stats().retries_sent, 1);
        assert_eq!(server.stats().accepted, 0);
        assert_eq!(
            server.open_connections(),
            0,
            "no state for unvalidated clients"
        );
        // The response is a Retry packet.
        let parsed = parse_datagram(&responses[0].payload, 8).unwrap();
        assert!(matches!(parsed[0].0.header, ParsedHeader::Retry { .. }));
    }

    #[test]
    fn valid_token_accepted_after_retry() {
        let config = ServerConfig::default().with_retry(true);
        let mut server = QuicServerSim::new(config, 6);
        let (wire, _, _) = client_initial(500, Bytes::new());
        let t = Timestamp::from_secs(1);
        let responses = server.handle_datagram(t, ip(1), 5000, &wire);
        let ParsedHeader::Retry { token, .. } = &parse_datagram(&responses[0].payload, 8).unwrap()
            [0]
        .0
        .header
        .clone() else {
            panic!("expected retry");
        };
        // Re-send the Initial with the token from the same address.
        let (wire2, _, _) = client_initial(500, token.clone());
        let responses2 = server.handle_datagram(t + Duration::from_secs(1), ip(1), 5000, &wire2);
        assert_eq!(responses2.len(), 4, "validated client gets full service");
        assert_eq!(server.stats().accepted, 1);
    }

    #[test]
    fn spoofed_token_rejected() {
        let config = ServerConfig::default().with_retry(true);
        let mut server = QuicServerSim::new(config, 7);
        let (wire, _, _) = client_initial(600, Bytes::new());
        let t = Timestamp::from_secs(1);
        let responses = server.handle_datagram(t, ip(1), 5000, &wire);
        let ParsedHeader::Retry { token, .. } = &parse_datagram(&responses[0].payload, 8).unwrap()
            [0]
        .0
        .header
        .clone() else {
            panic!("expected retry");
        };
        // A different (spoofed) source presents the token.
        let (wire2, _, _) = client_initial(600, token.clone());
        let responses2 = server.handle_datagram(t, ip(99), 5000, &wire2);
        assert!(responses2.is_empty());
        assert_eq!(server.stats().dropped_bad_token, 1);
    }

    #[test]
    fn workers_partition_load() {
        let config = ServerConfig {
            workers: 4,
            conns_per_worker: 5,
            crypto_cost: Duration::from_micros(1),
            accept_backlog: 1_000_000,
            ..ServerConfig::default()
        };
        let mut server = QuicServerSim::new(config, 8);
        for i in 0..200u64 {
            let (wire, _, _) = client_initial(700 + i, Bytes::new());
            server.handle_datagram(
                Timestamp::from_secs(1),
                ip((i % 200) as u8),
                (5000 + i) as u16,
                &wire,
            );
        }
        // Table capacity is 4 workers x 5 conns = 20 total.
        assert_eq!(server.stats().accepted, 20);
        assert_eq!(server.open_connections(), 20);
    }

    #[test]
    fn unpadded_initial_rejected() {
        // RFC 9000 Â§14.1: a bare (unpadded) Initial must be discarded -
        // otherwise a 120-byte probe could elicit a 1.5 kB flight.
        let mut server = QuicServerSim::new(ServerConfig::default(), 19);
        let dcid = ConnectionId::from_u64(5);
        let keys = InitialSecrets::derive(Version::V1, &dcid);
        let hello = ClientHello {
            random: [0; 32],
            cipher_suites: vec![cipher_suite::AES_128_GCM_SHA256],
            server_name: None,
            alpn: vec![],
            key_share: Bytes::from_static(&[1; 32]),
        };
        let wire = Packet::Initial {
            version: Version::V1,
            dcid,
            scid: ConnectionId::from_u64(6),
            token: Bytes::new(),
            packet_number: 0,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from(hello.encode()),
            }]),
        }
        .encode(Some(keys.client)) // NOT padded
        .unwrap();
        assert!(wire.len() < quicsand_wire::MIN_INITIAL_SIZE);
        let responses = server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000, &wire);
        assert!(responses.is_empty());
        assert_eq!(server.stats().dropped_unpadded, 1);
        assert_eq!(server.stats().accepted, 0);
    }

    #[test]
    fn flight_respects_amplification_budget() {
        // Every response flight to an unvalidated client stays within
        // 3x the received bytes (RFC 9000 Â§8.1).
        let mut server = QuicServerSim::new(ServerConfig::default(), 20);
        let (wire, _, _) = client_initial(77, Bytes::new());
        let responses = server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000, &wire);
        assert!(!responses.is_empty());
        let sent: usize = responses.iter().map(|r| r.payload.len()).sum();
        assert!(
            sent <= wire.len() * quicsand_wire::ANTI_AMPLIFICATION_FACTOR,
            "flight of {sent} bytes exceeds 3x{}",
            wire.len()
        );
    }

    #[test]
    fn adaptive_retry_arms_under_pressure() {
        let config = ServerConfig {
            workers: 1,
            conns_per_worker: 10,
            crypto_cost: Duration::from_micros(1),
            accept_backlog: 1_000_000,
            retry_policy: RetryPolicy::Adaptive {
                occupancy_threshold: 0.5,
            },
            ..ServerConfig::default()
        };
        let mut server = QuicServerSim::new(config, 21);
        // Below threshold (5 of 10 slots): full service, no retry.
        for i in 0..5u64 {
            let (wire, _, _) = client_initial(900 + i, Bytes::new());
            let responses =
                server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000 + i as u16, &wire);
            assert_eq!(responses.len(), 4, "unarmed: full flight");
        }
        assert_eq!(server.stats().retries_sent, 0);
        // At/above threshold: the challenge arms.
        let (wire, _, _) = client_initial(999, Bytes::new());
        let responses = server.handle_datagram(Timestamp::from_secs(1), ip(2), 6000, &wire);
        assert_eq!(responses.len(), 1, "armed: retry only");
        assert_eq!(server.stats().retries_sent, 1);
        assert_eq!(
            server.open_connections(),
            5,
            "no state for challenged client"
        );
    }

    #[test]
    fn adaptive_retry_disarms_after_expiry() {
        let config = ServerConfig {
            workers: 1,
            conns_per_worker: 4,
            crypto_cost: Duration::from_micros(1),
            accept_backlog: 1_000_000,
            handshake_hold: Duration::from_secs(60),
            retry_policy: RetryPolicy::Adaptive {
                occupancy_threshold: 0.5,
            },
            ..ServerConfig::default()
        };
        let mut server = QuicServerSim::new(config, 22);
        for i in 0..2u64 {
            let (wire, _, _) = client_initial(800 + i, Bytes::new());
            server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000 + i as u16, &wire);
        }
        // Armed now; after the hold expires the table drains and the
        // challenge disarms again.
        let (wire, _, _) = client_initial(850, Bytes::new());
        let late = server.handle_datagram(Timestamp::from_secs(120), ip(3), 7000, &wire);
        assert_eq!(late.len(), 4, "disarmed after expiry: full flight");
        assert_eq!(server.stats().retries_sent, 0);
    }

    #[test]
    fn resumption_token_skips_retry() {
        use crate::client::{run_handshake, QuicClient};
        let mut server = QuicServerSim::new(ServerConfig::default().with_retry(true), 23);
        // First visit: pays the retry round trip, earns a NEW_TOKEN.
        let mut first = QuicClient::new(31);
        run_handshake(
            &mut server,
            &mut first,
            ip(9),
            1111,
            Timestamp::from_secs(1),
        );
        assert!(first.is_established());
        assert_eq!(first.round_trips(), 2);
        let token = first
            .resumption_token()
            .expect("server issued NEW_TOKEN")
            .clone();

        // Second visit from the same address: token presented up front,
        // no retry, single round trip (§6 alleviation).
        let mut second = QuicClient::resuming(32, token);
        run_handshake(
            &mut server,
            &mut second,
            ip(9),
            2222,
            Timestamp::from_secs(10),
        );
        assert!(second.is_established());
        assert_eq!(second.round_trips(), 1, "resumption skips the extra RTT");
        assert_eq!(second.retries_seen(), 0);
        assert_eq!(server.stats().resumed, 1);
    }

    #[test]
    fn resumption_token_bound_to_address() {
        use crate::client::{run_handshake, QuicClient};
        let mut server = QuicServerSim::new(ServerConfig::default().with_retry(true), 24);
        let mut first = QuicClient::new(33);
        run_handshake(
            &mut server,
            &mut first,
            ip(9),
            1111,
            Timestamp::from_secs(1),
        );
        let token = first.resumption_token().expect("token issued").clone();
        // A different source presenting the stolen token is rejected.
        let mut thief = QuicClient::resuming(34, token);
        let wire = thief.initial_datagram();
        let responses = server.handle_datagram(Timestamp::from_secs(5), ip(77), 3333, &wire);
        assert!(responses.is_empty());
        assert_eq!(server.stats().dropped_bad_token, 1);
    }

    #[test]
    fn unsupported_version_gets_version_negotiation() {
        let mut server = QuicServerSim::new(ServerConfig::default(), 9);
        // Build an Initial with a grease version - parseable but
        // unsupported.
        let hello = ClientHello {
            random: [0; 32],
            cipher_suites: vec![cipher_suite::AES_128_GCM_SHA256],
            server_name: None,
            alpn: vec![],
            key_share: Bytes::from_static(&[1; 32]),
        };
        let wire = seal_client_initial(
            Version::Grease(0x1a2a_3a4a),
            ConnectionId::from_u64(1),
            ConnectionId::from_u64(2),
            Bytes::new(),
            0,
            &hello,
        );
        let responses = server.handle_datagram(Timestamp::from_secs(1), ip(1), 5000, &wire);
        // RFC 9000 Â§6: a stateless Version Negotiation reply, no state.
        assert_eq!(responses.len(), 1);
        assert_eq!(server.stats().vn_sent, 1);
        assert_eq!(server.open_connections(), 0);
        let parsed = parse_datagram(&responses[0].payload, 8).unwrap();
        match &parsed[0].0.header {
            ParsedHeader::VersionNegotiation {
                versions,
                dcid,
                scid,
            } => {
                assert!(versions.contains(&Version::V1));
                // CIDs echoed swapped.
                assert_eq!(*dcid, ConnectionId::from_u64(2));
                assert_eq!(*scid, ConnectionId::from_u64(1));
            }
            other => panic!("expected VN, got {other:?}"),
        }
    }
}
