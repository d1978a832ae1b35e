//! IP→AS mapping with PeeringDB-style network types.
//!
//! The paper maps each session's source to an ASN and looks the ASN up
//! in PeeringDB to obtain the network type (Fig. 5: requests come from
//! eyeballs, responses from content networks). This module provides the
//! same two operations: longest-prefix-match IP→ASN and ASN→metadata.

use quicsand_net::Ipv4Prefix;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// PeeringDB-style network classification, plus the aggregated labels
/// the paper uses in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkType {
    /// Access/eyeball networks ("Cable/DSL/ISP" in PeeringDB).
    Eyeball,
    /// Content providers and CDNs.
    Content,
    /// Transit/backbone carriers ("NSP").
    Transit,
    /// Enterprises.
    Enterprise,
    /// Educational / research networks.
    Education,
    /// Anything else or unclassified.
    Other,
}

impl NetworkType {
    /// All variants, in Fig. 5 display order.
    pub const ALL: [NetworkType; 6] = [
        NetworkType::Eyeball,
        NetworkType::Content,
        NetworkType::Transit,
        NetworkType::Enterprise,
        NetworkType::Education,
        NetworkType::Other,
    ];

    /// The label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            NetworkType::Eyeball => "eyeball",
            NetworkType::Content => "content",
            NetworkType::Transit => "transit",
            NetworkType::Enterprise => "enterprise",
            NetworkType::Education => "education",
            NetworkType::Other => "other",
        }
    }
}

impl fmt::Display for NetworkType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Metadata for one autonomous system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsInfo {
    /// The AS number.
    pub asn: u32,
    /// Organization name.
    pub name: String,
    /// PeeringDB-style network type.
    pub network_type: NetworkType,
    /// ISO-3166-style country code of the registrant.
    pub country: &'static str,
}

/// Longest-prefix-match IP→ASN database plus ASN→[`AsInfo`] registry.
///
/// The LPM side is a per-length hash map (32 levels max); lookups probe
/// from the most to the least specific length actually present. With the
/// few thousand prefixes of a scenario this is effectively O(#lengths).
#[derive(Debug, Clone, Default)]
pub struct AsDatabase {
    by_len: HashMap<u8, HashMap<u32, u32>>,
    lengths_desc: Vec<u8>,
    as_info: HashMap<u32, AsInfo>,
}

impl AsDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an AS (overwrites existing metadata for the ASN).
    pub fn register_as(&mut self, info: AsInfo) {
        self.as_info.insert(info.asn, info);
    }

    /// Announces `prefix` as originated by `asn`.
    pub fn announce(&mut self, prefix: Ipv4Prefix, asn: u32) {
        let len = prefix.len();
        self.by_len
            .entry(len)
            .or_default()
            .insert(u32::from(prefix.base()), asn);
        if !self.lengths_desc.contains(&len) {
            self.lengths_desc.push(len);
            self.lengths_desc.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    /// Longest-prefix-match lookup: the originating ASN for `addr`.
    pub fn lookup_asn(&self, addr: Ipv4Addr) -> Option<u32> {
        let addr = u32::from(addr);
        for &len in &self.lengths_desc {
            let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
            if let Some(asn) = self.by_len[&len].get(&(addr & mask)) {
                return Some(*asn);
            }
        }
        None
    }

    /// Metadata for an ASN.
    pub fn as_info(&self, asn: u32) -> Option<&AsInfo> {
        self.as_info.get(&asn)
    }

    /// Combined lookup: IP → [`AsInfo`].
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&AsInfo> {
        self.lookup_asn(addr).and_then(|asn| self.as_info(asn))
    }

    /// Network type for an address; `Other` when unknown. The paper's
    /// Fig. 5 bins unmapped sources the same way.
    pub fn network_type(&self, addr: Ipv4Addr) -> NetworkType {
        self.lookup(addr)
            .map_or(NetworkType::Other, |i| i.network_type)
    }

    /// Country for an address, if mapped.
    pub fn country(&self, addr: Ipv4Addr) -> Option<&'static str> {
        self.lookup(addr).map(|i| i.country)
    }

    /// Number of registered ASes.
    pub fn as_count(&self) -> usize {
        self.as_info.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> AsDatabase {
        let mut db = AsDatabase::new();
        db.register_as(AsInfo {
            asn: 15169,
            name: "Google LLC".into(),
            network_type: NetworkType::Content,
            country: "US",
        });
        db.register_as(AsInfo {
            asn: 17494,
            name: "BTCL Bangladesh".into(),
            network_type: NetworkType::Eyeball,
            country: "BD",
        });
        db.register_as(AsInfo {
            asn: 680,
            name: "DFN (German research)".into(),
            network_type: NetworkType::Education,
            country: "DE",
        });
        db.announce("8.8.8.0/24".parse().unwrap(), 15169);
        db.announce("8.0.0.0/8".parse().unwrap(), 680); // covering, less specific
        db.announce("103.4.0.0/16".parse().unwrap(), 17494);
        db
    }

    #[test]
    fn longest_prefix_wins() {
        let db = db();
        assert_eq!(db.lookup_asn(Ipv4Addr::new(8, 8, 8, 8)), Some(15169));
        assert_eq!(db.lookup_asn(Ipv4Addr::new(8, 9, 0, 1)), Some(680));
    }

    #[test]
    fn unknown_address_unmapped() {
        let db = db();
        assert_eq!(db.lookup_asn(Ipv4Addr::new(9, 9, 9, 9)), None);
        assert_eq!(
            db.network_type(Ipv4Addr::new(9, 9, 9, 9)),
            NetworkType::Other
        );
        assert_eq!(db.country(Ipv4Addr::new(9, 9, 9, 9)), None);
    }

    #[test]
    fn combined_lookup() {
        let db = db();
        let info = db.lookup(Ipv4Addr::new(103, 4, 200, 1)).unwrap();
        assert_eq!(info.asn, 17494);
        assert_eq!(info.network_type, NetworkType::Eyeball);
        assert_eq!(info.country, "BD");
        assert_eq!(
            db.network_type(Ipv4Addr::new(8, 8, 8, 1)),
            NetworkType::Content
        );
        assert_eq!(db.country(Ipv4Addr::new(8, 8, 8, 1)), Some("US"));
    }

    #[test]
    fn announced_but_unregistered_asn() {
        let mut db = AsDatabase::new();
        db.announce("1.0.0.0/8".parse().unwrap(), 42);
        assert_eq!(db.lookup_asn(Ipv4Addr::new(1, 2, 3, 4)), Some(42));
        assert!(db.lookup(Ipv4Addr::new(1, 2, 3, 4)).is_none());
        assert_eq!(
            db.network_type(Ipv4Addr::new(1, 2, 3, 4)),
            NetworkType::Other
        );
    }

    #[test]
    fn counts() {
        let db = db();
        assert_eq!(db.as_count(), 3);
    }

    #[test]
    fn default_route_matches_everything() {
        let mut db = AsDatabase::new();
        db.announce(Ipv4Prefix::ALL, 1);
        db.announce("10.0.0.0/8".parse().unwrap(), 2);
        assert_eq!(db.lookup_asn(Ipv4Addr::new(10, 1, 1, 1)), Some(2));
        assert_eq!(db.lookup_asn(Ipv4Addr::new(200, 1, 1, 1)), Some(1));
    }

    #[test]
    fn reannouncement_overwrites() {
        let mut db = AsDatabase::new();
        db.announce("10.0.0.0/8".parse().unwrap(), 1);
        db.announce("10.0.0.0/8".parse().unwrap(), 2);
        assert_eq!(db.lookup_asn(Ipv4Addr::new(10, 0, 0, 1)), Some(2));
    }

    #[test]
    fn network_type_labels() {
        assert_eq!(NetworkType::Eyeball.label(), "eyeball");
        assert_eq!(NetworkType::Content.to_string(), "content");
        assert_eq!(NetworkType::ALL.len(), 6);
    }
}
