//! A QUIC client state machine (quiche stand-in).
//!
//! Drives a full handshake against [`crate::model::QuicServerSim`],
//! transparently honouring RETRY: on receiving a Retry packet it
//! verifies the integrity tag, adopts the token and re-sends its
//! Initial — paying the extra round trip the paper's Table 1 records
//! in its last column.

use crate::model::QuicServerSim;
use bytes::Bytes;
use quicsand_net::Timestamp;
use quicsand_wire::crypto::{handshake_key, Direction, InitialSecrets};
use quicsand_wire::packet::{
    parse_datagram, seal_client_initial, verify_parsed_retry, Packet, PacketPayload, ParsedHeader,
};
use quicsand_wire::siphash::SipKey;
use quicsand_wire::tls::{cipher_suite, ClientHello, Finished, ServerHello};
use quicsand_wire::{ConnectionId, Frame, Version};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::net::Ipv4Addr;

/// Client handshake state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientState {
    /// Nothing sent yet.
    Idle,
    /// Initial sent, waiting for the server's first flight (or Retry).
    AwaitingServerHello,
    /// Finished sent, waiting for HANDSHAKE_DONE.
    AwaitingConfirmation,
    /// Handshake confirmed.
    Established,
}

/// The client.
#[derive(Debug)]
pub struct QuicClient {
    version: Version,
    original_dcid: ConnectionId,
    scid: ConnectionId,
    key_share: Bytes,
    state: ClientState,
    token: Bytes,
    server_scid: Option<ConnectionId>,
    hs_send_key: Option<SipKey>,
    hs_recv_key: Option<SipKey>,
    rng: ChaCha12Rng,
    round_trips: u32,
    retries_seen: u32,
    negotiations_seen: u32,
    resumption_token: Option<Bytes>,
}

impl QuicClient {
    /// Creates a client with fresh connection IDs.
    pub fn new(seed: u64) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        QuicClient {
            version: Version::V1,
            original_dcid: ConnectionId::from_u64(rng.gen()),
            scid: ConnectionId::from_u64(rng.gen()),
            key_share: Bytes::from(rng.gen::<[u8; 32]>().to_vec()),
            state: ClientState::Idle,
            token: Bytes::new(),
            server_scid: None,
            hs_send_key: None,
            hs_recv_key: None,
            rng,
            round_trips: 0,
            retries_seen: 0,
            negotiations_seen: 0,
            resumption_token: None,
        }
    }

    /// Creates a client that presents a NEW_TOKEN from a previous
    /// session in its first Initial — the §6 resumption path that
    /// skips the RETRY round trip.
    pub fn resuming(seed: u64, token: Bytes) -> Self {
        let mut client = Self::new(seed);
        client.token = token;
        client
    }

    /// Creates a client that offers a specific (possibly unsupported)
    /// QUIC version — used to exercise the version-negotiation leg of
    /// the paper's §2 "worst case 3 RTTs" handshake.
    pub fn offering_version(seed: u64, version: Version) -> Self {
        let mut client = Self::new(seed);
        client.version = version;
        client
    }

    /// Version Negotiation packets honoured so far.
    pub fn negotiations_seen(&self) -> u32 {
        self.negotiations_seen
    }

    /// The NEW_TOKEN issued by the server at handshake confirmation,
    /// for use by a future connection.
    pub fn resumption_token(&self) -> Option<&Bytes> {
        self.resumption_token.as_ref()
    }

    /// Current state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// Whether the handshake is confirmed.
    pub fn is_established(&self) -> bool {
        self.state == ClientState::Established
    }

    /// Round trips consumed so far (Initial flights sent).
    pub fn round_trips(&self) -> u32 {
        self.round_trips
    }

    /// Retry packets honoured.
    pub fn retries_seen(&self) -> u32 {
        self.retries_seen
    }

    /// Builds the (next) Initial flight.
    pub fn initial_datagram(&mut self) -> Bytes {
        // After a Retry, the Initial's DCID is the server's new SCID
        // and both sides re-derive Initial keys from it (RFC 9001
        // §5.2); the token carries the original DCID for the server's
        // address-validation bookkeeping.
        let dcid = self.server_scid.unwrap_or(self.original_dcid);
        let hello = ClientHello {
            random: self.rng.gen(),
            cipher_suites: vec![cipher_suite::AES_128_GCM_SHA256],
            server_name: Some("victim.example".into()),
            alpn: vec!["h3".into()],
            key_share: self.key_share.clone(),
        };
        let wire = seal_client_initial(
            self.version,
            dcid,
            self.scid,
            self.token.clone(),
            u64::from(self.round_trips),
            &hello,
        );
        self.state = ClientState::AwaitingServerHello;
        self.round_trips += 1;
        wire
    }

    /// Processes a server datagram; returns the client's next datagram
    /// if one is due (a re-sent Initial after Retry, or the Finished
    /// flight).
    pub fn handle_datagram(&mut self, datagram: &[u8]) -> Option<Bytes> {
        let packets = parse_datagram(datagram, 8).ok()?;
        let mut reply = None;
        for (packet, aad) in &packets {
            match &packet.header {
                ParsedHeader::VersionNegotiation { versions, .. } => {
                    // Pick the first mutually supported version and
                    // restart the handshake under it (RFC 9000 §6).
                    let Some(chosen) = versions.iter().copied().find(|v| v.is_supported()) else {
                        continue;
                    };
                    if chosen == self.version || self.negotiations_seen > 0 {
                        // Never downgrade twice (VN loops are an attack
                        // vector; a VN for a supported offer is bogus).
                        continue;
                    }
                    self.negotiations_seen += 1;
                    self.version = chosen;
                    reply = Some(self.initial_datagram());
                }
                ParsedHeader::Retry { scid, token, .. } => {
                    // Verify the integrity tag before honouring it.
                    if verify_parsed_retry(&packet.header, &self.original_dcid).is_err() {
                        continue;
                    }
                    self.retries_seen += 1;
                    self.token = token.clone();
                    self.server_scid = Some(*scid);
                    reply = Some(self.initial_datagram());
                }
                ParsedHeader::Long {
                    ty: quicsand_wire::header::LongPacketType::Initial,
                    scid,
                    ..
                } => {
                    // Keys track the DCID of our latest Initial (the
                    // retry SCID after a Retry, the original otherwise).
                    let current_dcid = self.server_scid.unwrap_or(self.original_dcid);
                    let keys = InitialSecrets::derive(self.version, &current_dcid);
                    let Ok((_pn, frames)) = packet.open(keys.server, None, aad) else {
                        continue;
                    };
                    let Some(server_hello) = extract_server_hello(&frames) else {
                        continue;
                    };
                    self.server_scid = Some(*scid);
                    self.hs_send_key = Some(handshake_key(
                        &self.key_share,
                        &server_hello.key_share,
                        Direction::ClientToServer,
                    ));
                    self.hs_recv_key = Some(handshake_key(
                        &self.key_share,
                        &server_hello.key_share,
                        Direction::ServerToClient,
                    ));
                    // Answer with the Finished flight.
                    reply = Some(self.finished_datagram());
                }
                ParsedHeader::Long {
                    ty: quicsand_wire::header::LongPacketType::Handshake,
                    ..
                } => {
                    let Some(key) = self.hs_recv_key else {
                        continue;
                    };
                    let Ok((_pn, frames)) = packet.open(key, None, aad) else {
                        continue;
                    };
                    for frame in &frames {
                        match frame {
                            Frame::HandshakeDone => {
                                self.state = ClientState::Established;
                            }
                            Frame::NewToken { token } => {
                                self.resumption_token = Some(token.clone());
                            }
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        reply
    }

    fn finished_datagram(&mut self) -> Bytes {
        let key = self.hs_send_key.expect("finished requires handshake keys");
        let finished = Finished {
            verify_data: Bytes::from(self.rng.gen::<[u8; 32]>().to_vec()),
        };
        let wire = Packet::Handshake {
            version: self.version,
            dcid: self.server_scid.unwrap_or(ConnectionId::EMPTY),
            scid: self.scid,
            packet_number: 0,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from(finished.encode()),
            }]),
        }
        .encode(Some(key))
        .expect("finished encodes");
        self.state = ClientState::AwaitingConfirmation;
        Bytes::from(wire)
    }
}

fn extract_server_hello(frames: &[Frame]) -> Option<ServerHello> {
    frames.iter().find_map(|f| {
        if let Frame::Crypto { data, .. } = f {
            ServerHello::decode(data).ok()
        } else {
            None
        }
    })
}

/// Runs a complete client↔server handshake in virtual time, returning
/// the established client. Loops message exchange until quiescence.
pub fn run_handshake(
    server: &mut QuicServerSim,
    client: &mut QuicClient,
    src_ip: Ipv4Addr,
    src_port: u16,
    start: Timestamp,
) {
    let mut to_server = vec![client.initial_datagram()];
    let mut now = start;
    let mut budget = 16; // bounded exchanges; a handshake needs ≤ 3
    while let Some(datagram) = to_server.pop() {
        budget -= 1;
        if budget == 0 {
            break;
        }
        let responses = server.handle_datagram(now, src_ip, src_port, &datagram);
        for response in responses {
            now = now.max(response.at);
            if let Some(reply) = client.handle_datagram(&response.payload) {
                to_server.push(reply);
            }
            if client.is_established() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ServerConfig;

    fn ip() -> Ipv4Addr {
        Ipv4Addr::new(10, 1, 1, 1)
    }

    #[test]
    fn one_rtt_handshake_without_retry() {
        let mut server = QuicServerSim::new(ServerConfig::default(), 1);
        let mut client = QuicClient::new(11);
        run_handshake(
            &mut server,
            &mut client,
            ip(),
            4242,
            Timestamp::from_secs(1),
        );
        assert!(client.is_established());
        assert_eq!(client.round_trips(), 1, "no retry: single initial flight");
        assert_eq!(client.retries_seen(), 0);
        assert_eq!(server.stats().completed, 1);
    }

    #[test]
    fn retry_adds_one_round_trip() {
        let mut server = QuicServerSim::new(ServerConfig::default().with_retry(true), 2);
        let mut client = QuicClient::new(12);
        run_handshake(
            &mut server,
            &mut client,
            ip(),
            4242,
            Timestamp::from_secs(1),
        );
        assert!(client.is_established());
        assert_eq!(client.retries_seen(), 1);
        assert_eq!(client.round_trips(), 2, "retry costs exactly one extra RTT");
        assert_eq!(server.stats().retries_sent, 1);
        assert_eq!(server.stats().completed, 1);
    }

    #[test]
    fn client_rejects_forged_retry() {
        let mut client = QuicClient::new(13);
        let _ = client.initial_datagram();
        // A Retry keyed on the wrong original DCID must be ignored.
        let forged = Packet::Retry {
            version: Version::V1,
            dcid: ConnectionId::from_u64(1),
            scid: ConnectionId::from_u64(2),
            token: Bytes::from_static(b"evil"),
            original_dcid: ConnectionId::from_u64(0xbad),
        }
        .encode(None)
        .unwrap();
        assert!(client.handle_datagram(&forged).is_none());
        assert_eq!(client.retries_seen(), 0);
    }

    #[test]
    fn client_ignores_garbage() {
        let mut client = QuicClient::new(14);
        let _ = client.initial_datagram();
        assert!(client.handle_datagram(&[1, 2, 3]).is_none());
        assert!(client.handle_datagram(&[]).is_none());
        assert_eq!(client.state(), ClientState::AwaitingServerHello);
    }

    #[test]
    fn established_client_survives_duplicate_flights() {
        let mut server = QuicServerSim::new(ServerConfig::default(), 3);
        let mut client = QuicClient::new(15);
        run_handshake(
            &mut server,
            &mut client,
            ip(),
            4242,
            Timestamp::from_secs(1),
        );
        assert!(client.is_established());
        // Stray duplicate from the server changes nothing.
        let responses = server.handle_datagram(
            Timestamp::from_secs(2),
            ip(),
            4242,
            &client.initial_datagram(),
        );
        let established_before = client.is_established();
        let _ = established_before;
        for r in responses {
            let _ = client.handle_datagram(&r.payload);
        }
        assert_eq!(server.stats().received, 3);
    }

    #[test]
    fn version_negotiation_adds_a_round_trip() {
        // Paper Â§2: offering an unsupported version forces version
        // negotiation before the typical handshake.
        let mut server = QuicServerSim::new(ServerConfig::default(), 6);
        let mut client = QuicClient::offering_version(20, Version::Grease(0x3a4a_5a6a));
        run_handshake(
            &mut server,
            &mut client,
            ip(),
            4242,
            Timestamp::from_secs(1),
        );
        assert!(client.is_established());
        assert_eq!(client.negotiations_seen(), 1);
        assert_eq!(client.round_trips(), 2, "VN + 1-RTT handshake");
        assert_eq!(server.stats().vn_sent, 1);
    }

    #[test]
    fn worst_case_three_round_trips() {
        // Paper Â§2: "In the worst case, the handshake requires 3 RTTs" -
        // version negotiation, then RETRY, then the typical handshake.
        let mut server = QuicServerSim::new(ServerConfig::default().with_retry(true), 7);
        let mut client = QuicClient::offering_version(21, Version::Grease(0x1a2a_3a4a));
        run_handshake(
            &mut server,
            &mut client,
            ip(),
            4242,
            Timestamp::from_secs(1),
        );
        assert!(client.is_established());
        assert_eq!(client.negotiations_seen(), 1);
        assert_eq!(client.retries_seen(), 1);
        assert_eq!(client.round_trips(), 3, "VN + RETRY + handshake");
    }

    #[test]
    fn client_ignores_bogus_vn_for_supported_offer() {
        // A VN in response to a supported version is never honoured
        // (downgrade protection, RFC 9000 Â§6.2).
        let mut client = QuicClient::new(22);
        let _ = client.initial_datagram();
        let vn = Packet::VersionNegotiation {
            dcid: ConnectionId::from_u64(1),
            scid: ConnectionId::from_u64(2),
            versions: vec![Version::V1],
        }
        .encode(None)
        .unwrap();
        assert!(client.handle_datagram(&vn).is_none());
        assert_eq!(client.negotiations_seen(), 0);
    }

    #[test]
    fn many_clients_handshake_concurrently() {
        let mut server = QuicServerSim::new(ServerConfig::default(), 4);
        let mut established = 0;
        for i in 0..50u64 {
            let mut client = QuicClient::new(100 + i);
            run_handshake(
                &mut server,
                &mut client,
                Ipv4Addr::new(10, 2, (i / 250) as u8, (i % 250) as u8),
                (1000 + i) as u16,
                Timestamp::from_secs(1),
            );
            if client.is_established() {
                established += 1;
            }
        }
        assert_eq!(established, 50);
        assert_eq!(server.stats().completed, 50);
    }
}
