//! QUIC server response synthesis: what a flood victim sends to a
//! spoofed client.
//!
//! §6 of the paper derives the backscatter signature from the server's
//! first flight: "QUIC sends multiple UDP packets in response to the
//! Initial packet: The first packet contains one Initial QUIC packet
//! carrying the Server Hello and one encrypted Handshake message
//! followed by a second datagram with a single Handshake message" —
//! plus keep-alive PINGs after a short delay (Table 1). The resulting
//! message mix is ~31 % Initial / ~57 % Handshake.
//!
//! Responses are sealed under keys derived from the *client's original
//! DCID* (as RFC 9001 mandates), which never appears in the response —
//! making server Initials opaque to the telescope, exactly the §6
//! "Initial without an unencrypted Client Hello" signature.

use bytes::Bytes;
use quicsand_intel::Provider;
use quicsand_net::rng::substream;
use quicsand_wire::crypto::{Direction, InitialSecrets};
use quicsand_wire::packet::{Packet, PacketPayload};
use quicsand_wire::tls::{cipher_suite, ServerHello};
use quicsand_wire::{ConnectionId, Frame, Version};
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// Per-provider response behaviour, driving the Fig. 9 differences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderProfile {
    /// Probability that a new probe reuses an SCID from the victim's
    /// recent pool instead of allocating a fresh one. Google allocates
    /// fresh contexts aggressively (more SCIDs despite fewer packets);
    /// mvfst pools them.
    pub scid_reuse_prob: f64,
    /// Probability of a trailing keep-alive datagram.
    pub keepalive_prob: f64,
    /// Certificate-chain bytes carried in the coalesced Handshake
    /// message.
    pub cert_chunk_len: usize,
    /// Bytes of the second (Handshake-only) datagram's CRYPTO payload.
    pub continuation_len: usize,
}

impl ProviderProfile {
    /// The profile for a provider.
    pub fn for_provider(provider: Provider) -> Self {
        match provider {
            Provider::Google => ProviderProfile {
                scid_reuse_prob: 0.0,
                keepalive_prob: 0.40,
                cert_chunk_len: 700,
                continuation_len: 400,
            },
            Provider::Facebook => ProviderProfile {
                scid_reuse_prob: 0.55,
                keepalive_prob: 0.40,
                cert_chunk_len: 900,
                continuation_len: 600,
            },
            _ => ProviderProfile {
                scid_reuse_prob: 0.25,
                keepalive_prob: 0.40,
                cert_chunk_len: 800,
                continuation_len: 500,
            },
        }
    }
}

/// The datagrams a victim emits in response to one spoofed Initial.
#[derive(Debug, Clone)]
pub struct ProbeResponse {
    /// UDP payloads, in emission order (2 or 3 datagrams).
    pub datagrams: Vec<Bytes>,
    /// The server-chosen SCID for this connection context.
    pub scid: ConnectionId,
}

/// Synthesizes victim responses for one victim server.
#[derive(Debug)]
pub struct BackscatterBuilder {
    version: Version,
    profile: ProviderProfile,
    rng: ChaCha12Rng,
    scid_counter: u64,
    scid_pool: Vec<ConnectionId>,
}

/// Maximum SCIDs kept in the reuse pool.
const SCID_POOL_CAP: usize = 64;

impl BackscatterBuilder {
    /// Creates a builder for a victim speaking `version_wire`, operated
    /// by `provider`. `victim_seed` individualizes SCID spaces across
    /// victims.
    pub fn new(provider: Provider, version_wire: u32, victim_seed: u64) -> Self {
        BackscatterBuilder {
            version: Version::from_wire(version_wire),
            profile: ProviderProfile::for_provider(provider),
            rng: substream(victim_seed, "backscatter"),
            scid_counter: victim_seed.wrapping_mul(0x1000) & 0xffff_ffff,
            scid_pool: Vec::new(),
        }
    }

    /// The victim's QUIC version.
    pub fn version(&self) -> Version {
        self.version
    }

    fn next_scid(&mut self) -> ConnectionId {
        if !self.scid_pool.is_empty() && self.rng.gen_bool(self.profile.scid_reuse_prob) {
            let i = self.rng.gen_range(0..self.scid_pool.len());
            return self.scid_pool[i];
        }
        self.scid_counter += 1;
        let scid = ConnectionId::from_u64(self.scid_counter);
        if self.scid_pool.len() < SCID_POOL_CAP {
            self.scid_pool.push(scid);
        } else {
            let i = self.rng.gen_range(0..SCID_POOL_CAP);
            self.scid_pool[i] = scid;
        }
        scid
    }

    /// Builds the response flight to one spoofed probe.
    pub fn respond(&mut self) -> ProbeResponse {
        let scid = self.next_scid();
        // Keys derive from the spoofed client's original DCID — chosen
        // by the attacker, invisible to the telescope.
        let original_dcid = ConnectionId::from_u64(self.rng.gen());
        let keys = InitialSecrets::derive(self.version, &original_dcid);
        let server_key = keys.key(Direction::ServerToClient);

        let server_hello = ServerHello {
            random: self.rng.gen(),
            cipher_suite: cipher_suite::AES_128_GCM_SHA256,
            key_share: Bytes::from(self.rng.gen::<[u8; 32]>().to_vec()),
        };

        // Datagram A: Initial (Server Hello) + coalesced Handshake
        // (start of the certificate chain).
        let initial = Packet::Initial {
            version: self.version,
            // The spoofed client offered a zero-length SCID, so the
            // server's DCID is empty — the §5.2 validity signature.
            dcid: ConnectionId::EMPTY,
            scid,
            token: Bytes::new(),
            packet_number: 0,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from(server_hello.encode()),
            }]),
        };
        let handshake_a = Packet::Handshake {
            version: self.version,
            dcid: ConnectionId::EMPTY,
            scid,
            packet_number: 0,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: 0,
                data: opaque_crypto(&mut self.rng, self.profile.cert_chunk_len),
            }]),
        };
        let mut datagram_a = initial
            .encode(Some(server_key))
            .expect("initial encoding is infallible with a key");
        datagram_a.extend(
            handshake_a
                .encode(Some(server_key))
                .expect("handshake encoding is infallible with a key"),
        );

        // Datagram B: Handshake continuation.
        let handshake_b = Packet::Handshake {
            version: self.version,
            dcid: ConnectionId::EMPTY,
            scid,
            packet_number: 1,
            payload: PacketPayload::new(vec![Frame::Crypto {
                offset: self.profile.cert_chunk_len as u64,
                data: opaque_crypto(&mut self.rng, self.profile.continuation_len),
            }]),
        };
        let datagram_b = handshake_b
            .encode(Some(server_key))
            .expect("handshake encoding is infallible with a key");

        let mut datagrams = vec![Bytes::from(datagram_a), Bytes::from(datagram_b)];

        // Optional keep-alive: a 1-RTT PING the server fires when the
        // (never-arriving) client stays silent.
        if self.rng.gen_bool(self.profile.keepalive_prob) {
            let keepalive = Packet::OneRtt {
                dcid: ConnectionId::EMPTY,
                spin: false,
                key_phase: false,
                packet_number: 2,
                payload: PacketPayload::new(vec![Frame::Ping]),
            };
            let wire = keepalive
                .encode(Some(server_key))
                .expect("one-rtt encoding is infallible with a key");
            datagrams.push(Bytes::from(wire));
        }

        ProbeResponse { datagrams, scid }
    }
}

fn opaque_crypto(rng: &mut ChaCha12Rng, len: usize) -> Bytes {
    // Opaque certificate bytes: content irrelevant, size matters.
    let mut data = vec![0u8; len];
    rng.fill(&mut data[..]);
    Bytes::from(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_dissect::{dissect_udp_payload, MessageKind};
    use std::collections::HashSet;

    fn builder(provider: Provider) -> BackscatterBuilder {
        let version = match provider {
            Provider::Facebook => Version::MvfstDraft27,
            _ => Version::Draft29,
        };
        BackscatterBuilder::new(provider, version.to_wire(), 42)
    }

    #[test]
    fn response_has_two_or_three_datagrams() {
        let mut b = builder(Provider::Google);
        for _ in 0..50 {
            let r = b.respond();
            assert!(r.datagrams.len() == 2 || r.datagrams.len() == 3);
        }
    }

    #[test]
    fn first_datagram_is_initial_plus_handshake_without_client_hello() {
        let mut b = builder(Provider::Google);
        let r = b.respond();
        let d = dissect_udp_payload(&r.datagrams[0]).unwrap();
        assert_eq!(d.messages.len(), 2);
        assert_eq!(d.messages[0].kind, MessageKind::Initial);
        assert_eq!(
            d.messages[0].has_client_hello,
            Some(false),
            "must be opaque"
        );
        assert_eq!(d.messages[1].kind, MessageKind::Handshake);
        assert!(d.all_dcids_empty(), "server replies to empty client SCID");
        assert_eq!(d.messages[0].scid, Some(r.scid));
    }

    #[test]
    fn second_datagram_is_single_handshake() {
        let mut b = builder(Provider::Facebook);
        let r = b.respond();
        let d = dissect_udp_payload(&r.datagrams[1]).unwrap();
        assert_eq!(d.messages.len(), 1);
        assert_eq!(d.messages[0].kind, MessageKind::Handshake);
        assert_eq!(d.messages[0].version, Some(Version::MvfstDraft27.to_wire()));
    }

    #[test]
    fn message_mix_approximates_paper_shares() {
        let mut b = builder(Provider::Google);
        let mut stats = quicsand_dissect::MessageMixStats::new();
        for _ in 0..2_000 {
            for datagram in b.respond().datagrams {
                stats.add(&dissect_udp_payload(&datagram).unwrap());
            }
        }
        let initial = stats.share(MessageKind::Initial);
        let handshake = stats.share(MessageKind::Handshake);
        // Paper §6: ~31 % Initial, ~57 % Handshake.
        assert!((0.25..=0.36).contains(&initial), "initial share {initial}");
        assert!(
            (0.50..=0.65).contains(&handshake),
            "handshake share {handshake}"
        );
        assert!(!stats.any_retry(), "victims never sent RETRY in the wild");
    }

    #[test]
    fn google_allocates_more_scids_than_facebook() {
        let mut google = builder(Provider::Google);
        let mut facebook = builder(Provider::Facebook);
        let n = 500;
        let google_scids: HashSet<_> = (0..n).map(|_| google.respond().scid).collect();
        let fb_scids: HashSet<_> = (0..n).map(|_| facebook.respond().scid).collect();
        assert_eq!(google_scids.len(), n, "google: fresh SCID per probe");
        assert!(
            fb_scids.len() < n * 3 / 4,
            "facebook pools SCIDs: {} of {n}",
            fb_scids.len()
        );
    }

    #[test]
    fn amplification_stays_below_rfc_limit() {
        // A server must not send more than 3× the client's bytes before
        // validation (RFC 9000 §8.1); clients pad Initials to ≥1200.
        let mut b = builder(Provider::Facebook);
        for _ in 0..100 {
            let total: usize = b.respond().datagrams.iter().map(|d| d.len()).sum();
            assert!(
                total <= 3 * quicsand_wire::MIN_INITIAL_SIZE,
                "flight of {total} bytes exceeds 3x1200"
            );
        }
    }

    #[test]
    fn versions_propagate_to_wire() {
        let mut b = BackscatterBuilder::new(Provider::Google, Version::V1.to_wire(), 7);
        assert_eq!(b.version(), Version::V1);
        let r = b.respond();
        let d = dissect_udp_payload(&r.datagrams[0]).unwrap();
        assert_eq!(d.version(), Some(Version::V1.to_wire()));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = BackscatterBuilder::new(Provider::Google, Version::Draft29.to_wire(), 9);
        let mut b = BackscatterBuilder::new(Provider::Google, Version::Draft29.to_wire(), 9);
        for _ in 0..10 {
            let ra = a.respond();
            let rb = b.respond();
            assert_eq!(ra.datagrams, rb.datagrams);
            assert_eq!(ra.scid, rb.scid);
        }
    }
}
