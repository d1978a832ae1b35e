//! Toy packet protection mirroring the *structure* of RFC 9001.
//!
//! Real QUIC protects packets with AES-128-GCM under keys derived (via
//! HKDF) from the client's first destination connection ID — which is why
//! Wireshark can decrypt Initial packets passively, a property the paper's
//! dissection methodology (§4.1) relies on. This module reproduces that
//! structure with SipHash-based primitives:
//!
//! * [`InitialSecrets::derive`] — per-connection keys from `(version,
//!   client DCID)`, so any passive observer (our dissector) can recompute
//!   the Initial keys, exactly as on the real wire;
//! * [`seal`] / [`open_into`] — authenticated encryption with a 16-byte
//!   tag over the header (AAD) and ciphertext.
//!
//! The substitution is documented in DESIGN.md §2; nothing here is
//! cryptographically secure, and nothing needs to be.

use crate::cid::ConnectionId;
use crate::error::{WireError, WireResult};
use crate::siphash::{siphash24, KeyStream, SipHasher128, SipKey};
use crate::version::Version;

/// Length of the authentication tag appended by [`seal`].
pub const TAG_LEN: usize = 16;

/// The per-version "initial salt" (RFC 9001 §5.2 uses a fixed salt per
/// version; we reduce it to a 64-bit constant mixed into key derivation).
fn initial_salt(version: Version) -> u64 {
    // Distinct constants per version so cross-version decryption fails,
    // as it does on the real wire.
    0x3871_9d2c_41a6_55e0 ^ u64::from(version.to_wire()).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Direction of a protected packet, used for key separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client-to-server.
    ClientToServer,
    /// Server-to-client.
    ServerToClient,
}

/// The pair of directional keys for the Initial packet number space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitialSecrets {
    /// Protects client-to-server Initial packets.
    pub client: SipKey,
    /// Protects server-to-client Initial packets.
    pub server: SipKey,
}

impl InitialSecrets {
    /// The derivation base key and the per-connection seed both
    /// directional keys hang off.
    fn seed(version: Version, client_dcid: &ConnectionId) -> (SipKey, u64) {
        let salt = initial_salt(version);
        let base = SipKey {
            k0: salt,
            k1: salt.rotate_left(17) ^ 0x6b65_795f_6261_7365,
        };
        (base, siphash24(base, client_dcid.as_slice()))
    }

    fn client_from(base: SipKey, seed: u64) -> SipKey {
        SipKey {
            k0: seed,
            k1: siphash24(base, &seed.to_le_bytes()),
        }
    }

    /// Derives only the client-to-server Initial key — the one key a
    /// passive observer trial-decrypts with, once per candidate Initial.
    /// Equal to `derive(..).client`.
    pub fn client_key(version: Version, client_dcid: &ConnectionId) -> SipKey {
        let (base, seed) = Self::seed(version, client_dcid);
        Self::client_from(base, seed)
    }

    /// Derives Initial keys from the client's first DCID, as any passive
    /// observer of the Initial can (RFC 9001 §5.2 structure).
    pub fn derive(version: Version, client_dcid: &ConnectionId) -> Self {
        let (base, seed) = Self::seed(version, client_dcid);
        InitialSecrets {
            client: Self::client_from(base, seed),
            server: SipKey {
                k0: seed ^ 0x7365_7276_6572_0001,
                k1: siphash24(base, &(seed ^ 1).to_le_bytes()),
            },
        }
    }

    /// The key for the given direction.
    pub fn key(&self, dir: Direction) -> SipKey {
        match dir {
            Direction::ClientToServer => self.client,
            Direction::ServerToClient => self.server,
        }
    }
}

/// Derives a handshake-space key from a shared "secret" (in the toy
/// model: both key shares hashed together).
pub fn handshake_key(client_share: &[u8], server_share: &[u8], dir: Direction) -> SipKey {
    let base = SipKey {
        k0: 0x6873_6b65_795f_7631,
        k1: match dir {
            Direction::ClientToServer => 1,
            Direction::ServerToClient => 2,
        },
    };
    let mut transcript = Vec::with_capacity(client_share.len() + server_share.len());
    transcript.extend_from_slice(client_share);
    transcript.extend_from_slice(server_share);
    let seed = siphash24(base, &transcript);
    SipKey {
        k0: seed,
        k1: seed.rotate_left(29) ^ base.k0,
    }
}

/// Seals `plaintext`: returns `ciphertext || tag` where the tag
/// authenticates `header` (the AAD), the packet number and the
/// ciphertext.
pub fn seal(key: SipKey, packet_number: u64, header: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    KeyStream::new(key, packet_number).apply(&mut out);
    let tag = compute_tag(key, packet_number, header, &out);
    out.extend_from_slice(&tag);
    out
}

/// Opens a sealed payload produced by [`seal`] into a caller-owned
/// buffer: `out` is overwritten with the plaintext and keeps its
/// capacity, so a dissector that trial-decrypts every candidate Initial
/// does so without allocating. The tag is verified over the borrowed
/// `header` and `sealed` before anything is written; on failure `out` is
/// left as it was.
///
/// # Errors
/// [`WireError::AeadFailure`] if the tag does not verify or the input is
/// shorter than a tag.
pub fn open_into(
    key: SipKey,
    packet_number: u64,
    header: &[u8],
    sealed: &[u8],
    out: &mut Vec<u8>,
) -> WireResult<()> {
    if sealed.len() < TAG_LEN {
        return Err(WireError::AeadFailure);
    }
    let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
    let expected = compute_tag(key, packet_number, header, ciphertext);
    if tag != expected {
        return Err(WireError::AeadFailure);
    }
    out.clear();
    out.extend_from_slice(ciphertext);
    KeyStream::new(key, packet_number).apply(out);
    Ok(())
}

fn compute_tag(key: SipKey, packet_number: u64, header: &[u8], ciphertext: &[u8]) -> [u8; 16] {
    // Streamed so the `pn || header || ciphertext` tag material never has
    // to be concatenated into a temporary allocation — this runs once per
    // candidate Initial on the ingest hot path.
    let mut hasher = SipHasher128::new(key);
    hasher.write(&packet_number.to_le_bytes());
    hasher.write(header);
    hasher.write(ciphertext);
    hasher.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dcid() -> ConnectionId {
        ConnectionId::new(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap()
    }

    fn open(key: SipKey, pn: u64, header: &[u8], sealed: &[u8]) -> WireResult<Vec<u8>> {
        // Stale contents must not survive into the plaintext.
        let mut out = b"stale".to_vec();
        open_into(key, pn, header, sealed, &mut out)?;
        Ok(out)
    }

    #[test]
    fn derive_is_deterministic_and_directional() {
        let a = InitialSecrets::derive(Version::V1, &dcid());
        let b = InitialSecrets::derive(Version::V1, &dcid());
        assert_eq!(a, b);
        assert_ne!(a.client, a.server);
        assert_eq!(a.key(Direction::ClientToServer), a.client);
        assert_eq!(a.key(Direction::ServerToClient), a.server);
        assert_eq!(InitialSecrets::client_key(Version::V1, &dcid()), a.client);
    }

    #[test]
    fn derive_depends_on_version_and_dcid() {
        let v1 = InitialSecrets::derive(Version::V1, &dcid());
        let d29 = InitialSecrets::derive(Version::Draft29, &dcid());
        assert_ne!(v1, d29, "different versions use different salts");
        let other = InitialSecrets::derive(Version::V1, &ConnectionId::from_u64(99));
        assert_ne!(v1, other, "different DCIDs derive different keys");
    }

    #[test]
    fn seal_open_roundtrip() {
        let keys = InitialSecrets::derive(Version::V1, &dcid());
        let header = b"long header bytes";
        let plaintext = b"crypto frame with client hello";
        let sealed = seal(keys.client, 0, header, plaintext);
        assert_eq!(sealed.len(), plaintext.len() + TAG_LEN);
        let opened = open(keys.client, 0, header, &sealed).unwrap();
        assert_eq!(opened, plaintext);
    }

    #[test]
    fn wrong_key_fails() {
        let keys = InitialSecrets::derive(Version::V1, &dcid());
        let sealed = seal(keys.client, 0, b"hdr", b"payload");
        assert_eq!(
            open(keys.server, 0, b"hdr", &sealed),
            Err(WireError::AeadFailure)
        );
    }

    #[test]
    fn wrong_packet_number_fails() {
        let keys = InitialSecrets::derive(Version::V1, &dcid());
        let sealed = seal(keys.client, 7, b"hdr", b"payload");
        assert!(open(keys.client, 8, b"hdr", &sealed).is_err());
    }

    #[test]
    fn tampered_header_fails() {
        let keys = InitialSecrets::derive(Version::V1, &dcid());
        let sealed = seal(keys.client, 0, b"hdr", b"payload");
        assert!(open(keys.client, 0, b"hdR", &sealed).is_err());
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let keys = InitialSecrets::derive(Version::V1, &dcid());
        let mut sealed = seal(keys.client, 0, b"hdr", b"payload");
        sealed[0] ^= 1;
        assert!(open(keys.client, 0, b"hdr", &sealed).is_err());
    }

    #[test]
    fn short_input_fails_cleanly() {
        let keys = InitialSecrets::derive(Version::V1, &dcid());
        assert_eq!(
            open(keys.client, 0, b"hdr", &[1, 2, 3]),
            Err(WireError::AeadFailure)
        );
        assert!(open(keys.client, 0, b"hdr", &[]).is_err());
    }

    #[test]
    fn empty_plaintext_seals() {
        let keys = InitialSecrets::derive(Version::V1, &dcid());
        let sealed = seal(keys.client, 0, b"hdr", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(open(keys.client, 0, b"hdr", &sealed).unwrap(), b"");
    }

    #[test]
    fn handshake_key_agreement() {
        // Both sides compute the same directional keys from the shares.
        let c2s_client = handshake_key(b"cshare", b"sshare", Direction::ClientToServer);
        let c2s_server = handshake_key(b"cshare", b"sshare", Direction::ClientToServer);
        assert_eq!(c2s_client, c2s_server);
        let s2c = handshake_key(b"cshare", b"sshare", Direction::ServerToClient);
        assert_ne!(c2s_client, s2c);
        let other = handshake_key(b"cshare", b"zshare", Direction::ClientToServer);
        assert_ne!(c2s_client, other);
    }

    proptest! {
        #[test]
        fn prop_seal_open_roundtrip(
            dcid_bytes in proptest::collection::vec(any::<u8>(), 0..=20),
            pn in 0u64..1_000_000,
            header in proptest::collection::vec(any::<u8>(), 0..64),
            plaintext in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let cid = ConnectionId::new(&dcid_bytes).unwrap();
            let keys = InitialSecrets::derive(Version::Draft29, &cid);
            let sealed = seal(keys.server, pn, &header, &plaintext);
            let opened = open(keys.server, pn, &header, &sealed).unwrap();
            prop_assert_eq!(opened, plaintext);
        }

        #[test]
        fn prop_bitflip_anywhere_fails(
            plaintext in proptest::collection::vec(any::<u8>(), 1..64),
            flip_bit in 0usize..8,
            pos_seed in any::<usize>(),
        ) {
            let keys = InitialSecrets::derive(Version::V1, &ConnectionId::from_u64(1));
            let mut sealed = seal(keys.client, 3, b"h", &plaintext);
            let pos = pos_seed % sealed.len();
            sealed[pos] ^= 1 << flip_bit;
            prop_assert!(open(keys.client, 3, b"h", &sealed).is_err());
        }
    }
}
