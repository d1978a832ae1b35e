//! Known-QUIC-server registry (active-scan data set stand-in).
//!
//! The paper cross-references flood victims with active scans of the
//! IPv4 space (Rüth et al.) and finds 98 % of attacks target known QUIC
//! servers, 58 % of them Google and 25 % Facebook (§5.2, Fig. 9). The
//! registry stores, per server IP, the operating provider and the QUIC
//! version its deployment speaks — which determines the version observed
//! in backscatter (mvfst-draft-27 for Facebook, draft-29 for Google).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Content providers the paper distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Provider {
    /// Google (58 % of attacks).
    Google,
    /// Facebook (25 % of attacks).
    Facebook,
    /// Cloudflare.
    Cloudflare,
    /// Akamai.
    Akamai,
    /// Any other QUIC operator.
    Other,
}

impl Provider {
    /// All providers in display order.
    pub const ALL: [Provider; 5] = [
        Provider::Google,
        Provider::Facebook,
        Provider::Cloudflare,
        Provider::Akamai,
        Provider::Other,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Provider::Google => "Google",
            Provider::Facebook => "Facebook",
            Provider::Cloudflare => "Cloudflare",
            Provider::Akamai => "Akamai",
            Provider::Other => "Other",
        }
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Metadata for one known QUIC server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerInfo {
    /// The operating provider.
    pub provider: Provider,
    /// The QUIC version wire value the deployment answers with.
    pub version_wire: u32,
    /// Whether the deployment sends RETRY to unvalidated clients. The
    /// paper observed zero RETRYs in the wild (§6), so scenario defaults
    /// set this to `false` everywhere.
    pub sends_retry: bool,
}

/// Registry of QUIC servers discovered by active scanning.
#[derive(Debug, Clone, Default)]
pub struct QuicServerRegistry {
    servers: HashMap<Ipv4Addr, ServerInfo>,
}

impl QuicServerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one server.
    pub fn register(&mut self, addr: Ipv4Addr, info: ServerInfo) {
        self.servers.insert(addr, info);
    }

    /// Looks up a server.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&ServerInfo> {
        self.servers.get(&addr)
    }

    /// Whether `addr` is a known QUIC server (the 98 % check).
    pub fn is_known_server(&self, addr: Ipv4Addr) -> bool {
        self.servers.contains_key(&addr)
    }

    /// The provider operating `addr`, if known.
    pub fn provider(&self, addr: Ipv4Addr) -> Option<Provider> {
        self.lookup(addr).map(|s| s.provider)
    }

    /// Number of known servers (the paper's 2021 scans saw ~2 M).
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Iterates over all servers.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Addr, &ServerInfo)> {
        self.servers.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_wire::Version;

    fn google_info() -> ServerInfo {
        ServerInfo {
            provider: Provider::Google,
            version_wire: Version::Draft29.to_wire(),
            sends_retry: false,
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = QuicServerRegistry::new();
        assert!(reg.is_empty());
        let addr = Ipv4Addr::new(172, 217, 16, 100);
        reg.register(addr, google_info());
        assert!(reg.is_known_server(addr));
        assert_eq!(reg.provider(addr), Some(Provider::Google));
        assert_eq!(
            reg.lookup(addr).unwrap().version_wire,
            Version::Draft29.to_wire()
        );
        assert!(!reg.is_known_server(Ipv4Addr::new(1, 1, 1, 1)));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn provider_labels() {
        assert_eq!(Provider::Google.to_string(), "Google");
        assert_eq!(Provider::Facebook.label(), "Facebook");
        assert_eq!(Provider::ALL.len(), 5);
    }

    #[test]
    fn iteration() {
        let mut reg = QuicServerRegistry::new();
        reg.register(Ipv4Addr::new(1, 1, 1, 1), google_info());
        reg.register(Ipv4Addr::new(2, 2, 2, 2), google_info());
        assert_eq!(reg.iter().count(), 2);
    }
}
