//! IPv4 prefixes and address sampling.
//!
//! The UCSD telescope is a /9: it covers 2^23 addresses, i.e. 1/512 of
//! the IPv4 space. Randomly spoofed attack traffic therefore lands in the
//! telescope with probability exactly 1/512 — the constant the paper uses
//! to extrapolate global attack rates ("512 × max pps", §5.2).

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ipv4Prefix {
    base: u32,
    len: u8,
}

/// Errors from [`Ipv4Prefix`] construction or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// Prefix length above 32.
    LengthOutOfRange(u8),
    /// The base address has host bits set.
    HostBitsSet,
    /// Unparseable CIDR string.
    Malformed,
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::LengthOutOfRange(n) => write!(f, "prefix length {n} out of range"),
            PrefixError::HostBitsSet => write!(f, "base address has host bits set"),
            PrefixError::Malformed => write!(f, "malformed CIDR string"),
        }
    }
}

impl std::error::Error for PrefixError {}

impl Ipv4Prefix {
    /// Creates a prefix, validating that host bits are clear.
    ///
    /// # Errors
    /// [`PrefixError`] on invalid length or set host bits.
    pub fn new(base: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::LengthOutOfRange(len));
        }
        let base = u32::from(base);
        if base & !mask(len) != 0 {
            return Err(PrefixError::HostBitsSet);
        }
        Ok(Ipv4Prefix { base, len })
    }

    /// The entire IPv4 address space (`0.0.0.0/0`).
    pub const ALL: Ipv4Prefix = Ipv4Prefix { base: 0, len: 0 };

    /// The network base address.
    pub fn base(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.base)
    }

    /// The prefix length.
    #[allow(clippy::len_without_is_empty)] // CIDR length, not a container
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Number of addresses covered (2^(32-len)); saturates for /0 at
    /// 2^32 which still fits in u64.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// Whether `addr` falls inside the prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & mask(self.len) == self.base
    }

    /// The `index`-th address in the prefix (panics if out of range —
    /// this is a programming error, not a data error).
    pub fn nth(&self, index: u64) -> Ipv4Addr {
        assert!(index < self.size(), "address index out of prefix range");
        Ipv4Addr::from(self.base + index as u32)
    }

    /// Uniformly samples an address inside the prefix.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Ipv4Addr {
        self.nth(rng.gen_range(0..self.size()))
    }

    /// Splits the prefix into 2^k equal subnets.
    ///
    /// # Errors
    /// [`PrefixError::LengthOutOfRange`] if the subnets would be longer
    /// than /32.
    pub fn subnets(&self, k: u8) -> Result<Vec<Ipv4Prefix>, PrefixError> {
        let new_len = self.len + k;
        if new_len > 32 {
            return Err(PrefixError::LengthOutOfRange(new_len));
        }
        let step = 1u64 << (32 - new_len);
        Ok((0..1u64 << k)
            .map(|i| Ipv4Prefix {
                base: self.base + (i * step) as u32,
                len: new_len,
            })
            .collect())
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base(), self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(PrefixError::Malformed)?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| PrefixError::Malformed)?;
        let len: u8 = len.parse().map_err(|_| PrefixError::Malformed)?;
        Ipv4Prefix::new(addr, len)
    }
}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

/// The telescope prefix used throughout the reproduction: a /9 inside
/// documentation-friendly space. The *position* of the real UCSD /9 is
/// irrelevant to every analysis; only its size (1/512 of IPv4) matters.
pub fn telescope_prefix() -> Ipv4Prefix {
    "128.0.0.0/9".parse().expect("static prefix is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn construction_and_validation() {
        let p = Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8).unwrap();
        assert_eq!(p.len(), 8);
        assert_eq!(p.base(), Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(
            Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 1), 8),
            Err(PrefixError::HostBitsSet)
        );
        assert_eq!(
            Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 33),
            Err(PrefixError::LengthOutOfRange(33))
        );
    }

    #[test]
    fn parsing() {
        let p: Ipv4Prefix = "192.168.0.0/16".parse().unwrap();
        assert_eq!(p.to_string(), "192.168.0.0/16");
        assert!("not-a-prefix".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.1/8".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn telescope_is_one_512th() {
        let t = telescope_prefix();
        assert_eq!(t.len(), 9);
        assert_eq!(t.size(), 1 << 23);
    }

    #[test]
    fn containment() {
        let p: Ipv4Prefix = "128.0.0.0/9".parse().unwrap();
        assert!(p.contains(Ipv4Addr::new(128, 0, 0, 1)));
        assert!(p.contains(Ipv4Addr::new(128, 127, 255, 255)));
        assert!(!p.contains(Ipv4Addr::new(128, 128, 0, 0)));
        assert!(!p.contains(Ipv4Addr::new(127, 255, 255, 255)));
        assert!(Ipv4Prefix::ALL.contains(Ipv4Addr::new(1, 2, 3, 4)));
    }

    #[test]
    fn nth_and_size() {
        let p: Ipv4Prefix = "10.0.0.0/30".parse().unwrap();
        assert_eq!(p.size(), 4);
        assert_eq!(p.nth(0), Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(p.nth(3), Ipv4Addr::new(10, 0, 0, 3));
        assert_eq!(Ipv4Prefix::ALL.size(), 1u64 << 32);
    }

    #[test]
    #[should_panic(expected = "out of prefix range")]
    fn nth_out_of_range_panics() {
        let p: Ipv4Prefix = "10.0.0.0/30".parse().unwrap();
        let _ = p.nth(4);
    }

    #[test]
    fn sampling_stays_inside() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let p: Ipv4Prefix = "172.16.0.0/12".parse().unwrap();
        for _ in 0..1000 {
            assert!(p.contains(p.sample(&mut rng)));
        }
    }

    #[test]
    fn sampling_all_space_hits_telescope_at_expected_rate() {
        // Statistical check of the paper's "2 permille of any randomly
        // spoofed attack" claim: the /9 should capture ~1/512 of
        // uniform samples.
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let telescope = telescope_prefix();
        let n = 512_000;
        let hits = (0..n)
            .filter(|_| telescope.contains(Ipv4Prefix::ALL.sample(&mut rng)))
            .count();
        // Expectation 1000; allow ±20 %.
        assert!((800..=1200).contains(&hits), "hits={hits}");
    }

    #[test]
    fn subnet_split() {
        let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let subs = p.subnets(2).unwrap();
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0].to_string(), "10.0.0.0/10");
        assert_eq!(subs[3].to_string(), "10.192.0.0/10");
        // Disjoint and covering.
        let total: u64 = subs.iter().map(|s| s.size()).sum();
        assert_eq!(total, p.size());
        assert!(p.subnets(30).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip_display_parse(base in any::<u32>(), len in 0u8..=32) {
            let base = base & super::mask(len);
            let p = Ipv4Prefix::new(Ipv4Addr::from(base), len).unwrap();
            let back: Ipv4Prefix = p.to_string().parse().unwrap();
            prop_assert_eq!(p, back);
        }

        #[test]
        fn prop_contains_iff_in_range(base in any::<u32>(), len in 0u8..=24, offset in any::<u32>()) {
            let base = base & super::mask(len);
            let p = Ipv4Prefix::new(Ipv4Addr::from(base), len).unwrap();
            let addr = Ipv4Addr::from(base.wrapping_add((u64::from(offset) % p.size()) as u32));
            prop_assert!(p.contains(addr));
        }
    }
}
