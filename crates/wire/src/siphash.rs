//! SipHash-2-4: the keyed pseudo-random function backing this crate's toy
//! packet protection and retry integrity tags.
//!
//! Real QUIC uses AES-128-GCM (RFC 9001). The QUICsand reproduction does
//! not need confidentiality against real adversaries — only the
//! *structure* of protected packets (an unforgeable-ish 16-byte tag,
//! key-dependent ciphertext, keys derived from the client's destination
//! connection ID). SipHash-2-4 with a per-connection key reproduces that
//! structure deterministically and dependency-free. See DESIGN.md §2.
//!
//! The implementation follows the reference description by Aumasson and
//! Bernstein and is validated against the official test vectors.

/// A 128-bit SipHash key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SipKey {
    /// Low 64 bits (k0).
    pub k0: u64,
    /// High 64 bits (k1).
    pub k1: u64,
}

impl SipKey {
    /// Builds a key from 16 little-endian bytes.
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        SipKey {
            k0: u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes")),
            k1: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
        }
    }

    /// Serializes the key to 16 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&self.k0.to_le_bytes());
        out[8..16].copy_from_slice(&self.k1.to_le_bytes());
        out
    }
}

#[inline]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// Computes SipHash-2-4 of `data` under `key`, returning the 64-bit tag.
pub fn siphash24(key: SipKey, data: &[u8]) -> u64 {
    let mut v = [
        key.k0 ^ 0x736f_6d65_7073_6575,
        key.k1 ^ 0x646f_7261_6e64_6f6d,
        key.k0 ^ 0x6c79_6765_6e65_7261,
        key.k1 ^ 0x7465_6462_7974_6573,
    ];

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        v[3] ^= m;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= m;
    }

    // Final block: remaining bytes plus the length in the top byte.
    let rem = chunks.remainder();
    let mut last = (data.len() as u64 & 0xff) << 56;
    for (i, &b) in rem.iter().enumerate() {
        last |= u64::from(b) << (8 * i);
    }
    v[3] ^= last;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= last;

    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// Computes a 128-bit tag by evaluating SipHash-2-4 twice with domain
/// separation. Used for the 16-byte retry integrity tag.
pub fn siphash24_128(key: SipKey, data: &[u8]) -> [u8; 16] {
    let lo = siphash24(key, data);
    let sep_key = SipKey {
        k0: key.k0 ^ 0x5151_4943_5341_4e44, // "QICSAND"
        k1: key.k1.rotate_left(1),
    };
    let hi = siphash24(sep_key, data);
    let mut out = [0u8; 16];
    out[0..8].copy_from_slice(&lo.to_le_bytes());
    out[8..16].copy_from_slice(&hi.to_le_bytes());
    out
}

/// Streaming SipHash-2-4 with the official 128-bit output extension
/// (`v1 ^= 0xee` at init, double finalization), fed incrementally.
///
/// This exists for the packet-protection hot path: the AEAD tag covers
/// `packet_number || header || ciphertext`, and an incremental state
/// hashes those parts in place instead of concatenating them into a
/// temporary allocation per packet. One compression pass replaces the
/// two full passes of [`siphash24_128`] (which is kept unchanged for the
/// retry and token tags it already protects).
pub struct SipHasher128 {
    v: [u64; 4],
    tail: u64,
    ntail: usize,
    len: usize,
}

impl SipHasher128 {
    /// Initializes the state for `key`.
    pub fn new(key: SipKey) -> Self {
        SipHasher128 {
            v: [
                key.k0 ^ 0x736f_6d65_7073_6575,
                key.k1 ^ 0x646f_7261_6e64_6f6d ^ 0xee,
                key.k0 ^ 0x6c79_6765_6e65_7261,
                key.k1 ^ 0x7465_6462_7974_6573,
            ],
            tail: 0,
            ntail: 0,
            len: 0,
        }
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        sipround(&mut self.v);
        sipround(&mut self.v);
        self.v[0] ^= m;
    }

    /// Absorbs `data`, equivalent to hashing the concatenation of every
    /// slice written so far.
    pub fn write(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len());
        let mut data = data;
        if self.ntail != 0 {
            let need = 8 - self.ntail;
            let take = need.min(data.len());
            for &b in &data[..take] {
                self.tail |= u64::from(b) << (8 * self.ntail);
                self.ntail += 1;
            }
            data = &data[take..];
            if self.ntail < 8 {
                return;
            }
            self.compress(self.tail);
            self.tail = 0;
            self.ntail = 0;
        }
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            self.compress(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        for (i, &b) in chunks.remainder().iter().enumerate() {
            self.tail |= u64::from(b) << (8 * i);
        }
        self.ntail = data.len() % 8;
    }

    /// Finalizes the state and returns the 16-byte tag.
    pub fn finish128(mut self) -> [u8; 16] {
        let last = ((self.len as u64 & 0xff) << 56) | self.tail;
        self.compress(last);
        self.v[2] ^= 0xee;
        for _ in 0..4 {
            sipround(&mut self.v);
        }
        let lo = self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3];
        self.v[1] ^= 0xdd;
        for _ in 0..4 {
            sipround(&mut self.v);
        }
        let hi = self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3];
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&lo.to_le_bytes());
        out[8..16].copy_from_slice(&hi.to_le_bytes());
        out
    }
}

/// A deterministic keystream generator built from the SipHash round
/// function in counter mode.
///
/// This is the "cipher" of the toy AEAD: the key and nonce are absorbed
/// once into a SipHash state, then each 64-bit keystream word is produced
/// by compressing the block counter into a copy of that base state
/// (`v3 ^= ctr; SipRound²; v0 ^= ctr; fold`). It is *not* secure against
/// a cryptographic adversary and exists only so protected QUIC payloads
/// in the simulation are key-dependent and look uniformly random to the
/// dissector, as on the real wire. Relative to the previous formulation
/// (a full SipHash-2-4 evaluation of `nonce || counter` per word) this
/// costs 2 rounds per 8 output bytes instead of 10, which matters on the
/// ingest hot path where every backscatter Initial is trial-decrypted.
pub struct KeyStream {
    base: [u64; 4],
    counter: u64,
    buf: [u8; 8],
    used: usize,
}

impl KeyStream {
    /// Creates a keystream for `key` and `nonce` (e.g. a packet number).
    pub fn new(key: SipKey, nonce: u64) -> Self {
        let mut v = [
            key.k0 ^ 0x736f_6d65_7073_6575,
            key.k1 ^ 0x646f_7261_6e64_6f6d,
            key.k0 ^ 0x6c79_6765_6e65_7261,
            key.k1 ^ 0x7465_6462_7974_6573,
        ];
        // Absorb the nonce like a SipHash message block.
        v[3] ^= nonce;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= nonce;
        KeyStream {
            base: v,
            counter: 0,
            buf: [0; 8],
            used: 8,
        }
    }

    /// Produces the next 64-bit keystream word (little-endian byte order
    /// when consumed through [`next_byte`](Self::next_byte)).
    #[inline]
    fn word(&mut self) -> u64 {
        let mut v = self.base;
        let ctr = self.counter;
        v[3] ^= ctr;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= ctr;
        self.counter += 1;
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }

    fn refill(&mut self) {
        self.buf = self.word().to_le_bytes();
        self.used = 0;
    }

    /// Returns the next keystream byte.
    pub fn next_byte(&mut self) -> u8 {
        if self.used == 8 {
            self.refill();
        }
        let b = self.buf[self.used];
        self.used += 1;
        b
    }

    /// XORs the keystream into `data` in place (encrypt == decrypt).
    ///
    /// Word-aligned stretches are XORed eight bytes at a time; the result
    /// is identical to calling [`next_byte`](Self::next_byte) per byte.
    pub fn apply(&mut self, data: &mut [u8]) {
        let mut i = 0;
        // Drain any partially consumed word first.
        while self.used < 8 && i < data.len() {
            data[i] ^= self.buf[self.used];
            self.used += 1;
            i += 1;
        }
        let mut chunks = data[i..].chunks_exact_mut(8);
        for chunk in &mut chunks {
            let w = u64::from_le_bytes((&*chunk).try_into().expect("8 bytes")) ^ self.word();
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        for b in chunks.into_remainder() {
            *b ^= self.next_byte();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Official SipHash-2-4 test vectors (key = 00 01 .. 0f, inputs of
    /// increasing length 00, 00 01, ...). From the reference
    /// implementation's vectors.h.
    #[test]
    fn reference_vectors() {
        let key_bytes: [u8; 16] = core::array::from_fn(|i| i as u8);
        let key = SipKey::from_bytes(&key_bytes);
        let expected: [u64; 8] = [
            0x726f_db47_dd0e_0e31,
            0x74f8_39c5_93dc_67fd,
            0x0d6c_8009_d9a9_4f5a,
            0x8567_6696_d7fb_7e2d,
            0xcf27_94e0_2771_87b7,
            0x1876_5564_cd99_a68d,
            0xcbc9_466e_58fe_e3ce,
            0xab02_00f5_8b01_d137,
        ];
        let data: Vec<u8> = (0..8).map(|i| i as u8).collect();
        for (len, want) in expected.iter().enumerate() {
            let got = siphash24(key, &data[..len]);
            assert_eq!(got, *want, "vector length {len}");
        }
    }

    #[test]
    fn key_bytes_roundtrip() {
        let key_bytes: [u8; 16] = core::array::from_fn(|i| (i * 7) as u8);
        let key = SipKey::from_bytes(&key_bytes);
        assert_eq!(key.to_bytes(), key_bytes);
    }

    #[test]
    fn different_keys_different_tags() {
        let a = SipKey { k0: 1, k1: 2 };
        let b = SipKey { k0: 1, k1: 3 };
        assert_ne!(siphash24(a, b"hello"), siphash24(b, b"hello"));
    }

    #[test]
    fn tag128_halves_are_independent() {
        let key = SipKey { k0: 42, k1: 43 };
        let tag = siphash24_128(key, b"quicsand");
        assert_ne!(&tag[0..8], &tag[8..16]);
        // Deterministic.
        assert_eq!(tag, siphash24_128(key, b"quicsand"));
        assert_ne!(tag, siphash24_128(key, b"quicsanD"));
    }

    #[test]
    fn keystream_xor_is_involutive() {
        let key = SipKey { k0: 7, k1: 9 };
        let mut data = b"attack at dawn, spoofed source".to_vec();
        let original = data.clone();
        KeyStream::new(key, 77).apply(&mut data);
        assert_ne!(data, original, "ciphertext differs from plaintext");
        KeyStream::new(key, 77).apply(&mut data);
        assert_eq!(data, original, "decrypting restores plaintext");
    }

    #[test]
    fn keystream_depends_on_nonce() {
        let key = SipKey { k0: 7, k1: 9 };
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        KeyStream::new(key, 1).apply(&mut a);
        KeyStream::new(key, 2).apply(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn streaming_128_matches_any_split() {
        let key = SipKey { k0: 11, k1: 13 };
        let data: Vec<u8> = (0..100u16).map(|i| (i * 31) as u8).collect();
        let mut reference = SipHasher128::new(key);
        reference.write(&data);
        let reference = reference.finish128();
        for cut_a in 0..data.len() {
            for cut_b in cut_a..data.len() {
                let mut h = SipHasher128::new(key);
                h.write(&data[..cut_a]);
                h.write(&data[cut_a..cut_b]);
                h.write(&data[cut_b..]);
                assert_eq!(
                    h.finish128(),
                    reference,
                    "splits at {cut_a}/{cut_b} must not change the tag"
                );
            }
        }
    }

    #[test]
    fn streaming_128_halves_are_independent() {
        let key = SipKey { k0: 42, k1: 43 };
        let mut h = SipHasher128::new(key);
        h.write(b"quicsand");
        let tag = h.finish128();
        assert_ne!(&tag[0..8], &tag[8..16]);
        let mut h2 = SipHasher128::new(key);
        h2.write(b"quicsanD");
        assert_ne!(tag, h2.finish128());
    }

    #[test]
    fn keystream_apply_matches_byte_at_a_time() {
        let key = SipKey { k0: 3, k1: 5 };
        // Apply in ragged chunks so the word-wise path has to cross
        // partially consumed buffer boundaries.
        let mut chunked = vec![0u8; 131];
        let mut ks = KeyStream::new(key, 9);
        let mut offset = 0;
        for step in [1usize, 7, 8, 3, 16, 29, 40, 27] {
            let end = (offset + step).min(chunked.len());
            ks.apply(&mut chunked[offset..end]);
            offset = end;
        }
        let mut bytewise = vec![0u8; 131];
        let mut ks = KeyStream::new(key, 9);
        for b in &mut bytewise {
            *b ^= ks.next_byte();
        }
        assert_eq!(chunked, bytewise);
    }

    #[test]
    fn keystream_is_byte_position_dependent() {
        let key = SipKey { k0: 0, k1: 0 };
        let mut ks = KeyStream::new(key, 0);
        let bytes: Vec<u8> = (0..64).map(|_| ks.next_byte()).collect();
        // 64 bytes of keystream should not all be identical.
        assert!(bytes.windows(2).any(|w| w[0] != w[1]));
    }
}
