//! Honeypot threat-intelligence lookup (GreyNoise stand-in).
//!
//! §5.2 of the paper correlates request-session sources with GreyNoise:
//! *no* source was classified benign, and 2.3 % carried known-actor tags
//! (Mirai, Eternalblue, bruteforcers). This module reproduces the lookup
//! interface: IP → classification + tags.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Coarse actor classification, as GreyNoise reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActorClass {
    /// Known-good scanner (search engines, research projects that
    /// register themselves, monitoring services).
    Benign,
    /// Known-bad actor.
    Malicious,
    /// Observed but unclassified.
    Unknown,
}

/// Fine-grained actor tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActorTag {
    /// Mirai-family botnet member.
    Mirai,
    /// EternalBlue exploit scanner.
    Eternalblue,
    /// Credential bruteforcer.
    Bruteforcer,
    /// Self-identified research scanner.
    ResearchScanner,
}

impl fmt::Display for ActorTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            ActorTag::Mirai => "mirai",
            ActorTag::Eternalblue => "eternalblue",
            ActorTag::Bruteforcer => "bruteforcer",
            ActorTag::ResearchScanner => "research-scanner",
        };
        write!(f, "{label}")
    }
}

/// One observed actor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActorInfo {
    /// Coarse classification.
    pub class: ActorClass,
    /// Tags attached by the platform.
    pub tags: Vec<ActorTag>,
}

/// The honeypot platform: per-IP actor intelligence.
#[derive(Debug, Clone, Default)]
pub struct GreyNoise {
    actors: HashMap<Ipv4Addr, ActorInfo>,
}

impl GreyNoise {
    /// Creates an empty platform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an observation for `addr`.
    pub fn observe(&mut self, addr: Ipv4Addr, class: ActorClass, tags: Vec<ActorTag>) {
        self.actors.insert(addr, ActorInfo { class, tags });
    }

    /// Looks up an address. `None` means the honeypots never saw it.
    pub fn classify(&self, addr: Ipv4Addr) -> Option<&ActorInfo> {
        self.actors.get(&addr)
    }

    /// Whether the address is a known benign scanner.
    pub fn is_benign(&self, addr: Ipv4Addr) -> bool {
        self.classify(addr)
            .is_some_and(|a| a.class == ActorClass::Benign)
    }

    /// Number of recorded actors.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// Whether the platform has no observations.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Summary over a set of sources, as the paper computes it: share of
    /// benign sources and share of tagged sources among `sources`.
    pub fn summarize<'a, I: IntoIterator<Item = &'a Ipv4Addr>>(
        &self,
        sources: I,
    ) -> GreyNoiseSummary {
        let mut summary = GreyNoiseSummary::default();
        for addr in sources {
            summary.total += 1;
            match self.classify(*addr) {
                Some(info) => {
                    match info.class {
                        ActorClass::Benign => summary.benign += 1,
                        ActorClass::Malicious => summary.malicious += 1,
                        ActorClass::Unknown => summary.unknown += 1,
                    }
                    if !info.tags.is_empty() {
                        summary.tagged += 1;
                    }
                }
                None => summary.unseen += 1,
            }
        }
        summary
    }
}

/// Aggregate classification over a source set.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GreyNoiseSummary {
    /// Total sources examined.
    pub total: usize,
    /// Benign sources.
    pub benign: usize,
    /// Malicious sources.
    pub malicious: usize,
    /// Seen-but-unclassified sources.
    pub unknown: usize,
    /// Sources never seen by the platform.
    pub unseen: usize,
    /// Sources carrying at least one tag.
    pub tagged: usize,
}

impl GreyNoiseSummary {
    /// Share of tagged sources (0 when the set is empty).
    pub fn tagged_share(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.tagged as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, last)
    }

    #[test]
    fn observe_and_classify() {
        let mut gn = GreyNoise::new();
        assert!(gn.is_empty());
        gn.observe(ip(1), ActorClass::Malicious, vec![ActorTag::Mirai]);
        gn.observe(ip(2), ActorClass::Benign, vec![ActorTag::ResearchScanner]);
        gn.observe(ip(3), ActorClass::Unknown, vec![]);
        assert_eq!(gn.len(), 3);
        let actor = gn.classify(ip(1)).unwrap();
        assert_eq!(actor.class, ActorClass::Malicious);
        assert_eq!(actor.tags, vec![ActorTag::Mirai]);
        assert!(gn.classify(ip(99)).is_none());
    }

    #[test]
    fn benign_and_tagged_predicates() {
        let mut gn = GreyNoise::new();
        gn.observe(ip(1), ActorClass::Malicious, vec![ActorTag::Eternalblue]);
        gn.observe(ip(2), ActorClass::Benign, vec![]);
        assert!(!gn.is_benign(ip(1)));
        assert!(gn.is_benign(ip(2)));
        assert!(!gn.is_benign(ip(50)));
    }

    #[test]
    fn summary_counts() {
        let mut gn = GreyNoise::new();
        gn.observe(ip(1), ActorClass::Malicious, vec![ActorTag::Mirai]);
        gn.observe(ip(2), ActorClass::Malicious, vec![ActorTag::Bruteforcer]);
        gn.observe(ip(3), ActorClass::Unknown, vec![]);
        let sources = [ip(1), ip(2), ip(3), ip(4), ip(5)];
        let s = gn.summarize(sources.iter());
        assert_eq!(s.total, 5);
        assert_eq!(s.malicious, 2);
        assert_eq!(s.unknown, 1);
        assert_eq!(s.unseen, 2);
        assert_eq!(s.benign, 0);
        assert_eq!(s.tagged, 2);
        assert!((s.tagged_share() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_summary() {
        let gn = GreyNoise::new();
        let s = gn.summarize(std::iter::empty());
        assert_eq!(s.total, 0);
        assert_eq!(s.tagged_share(), 0.0);
    }

    #[test]
    fn tag_display() {
        assert_eq!(ActorTag::Mirai.to_string(), "mirai");
        assert_eq!(ActorTag::Eternalblue.to_string(), "eternalblue");
        assert_eq!(ActorTag::Bruteforcer.to_string(), "bruteforcer");
        assert_eq!(ActorTag::ResearchScanner.to_string(), "research-scanner");
    }

    #[test]
    fn reobservation_overwrites() {
        let mut gn = GreyNoise::new();
        gn.observe(ip(1), ActorClass::Unknown, vec![]);
        gn.observe(ip(1), ActorClass::Malicious, vec![ActorTag::Mirai]);
        assert_eq!(gn.len(), 1);
        assert_eq!(gn.classify(ip(1)).unwrap().class, ActorClass::Malicious);
    }
}
