//! Research-scanner identification and removal (Fig. 2 sanitization).
//!
//! The paper attributes 98.5 % of QUIC IBR to two university projects
//! and removes them before all further analyses. Identification works
//! two ways, both provided here:
//!
//! * **by origin** — the scanners' source networks are known
//!   (PeeringDB: education ASes that publish scanning projects);
//! * **by behaviour** — any source delivering on the order of one
//!   packet per telescope address within the period is sweeping the
//!   whole space; normal traffic never reaches that coverage.

use crate::pipeline::QuicObservation;
use quicsand_intel::{AsDatabase, NetworkType};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// A predicate over sources marking research scanners.
#[derive(Debug, Clone, Default)]
pub struct ResearchFilter {
    sources: HashSet<Ipv4Addr>,
}

impl ResearchFilter {
    /// Builds a filter from explicitly known scanner addresses.
    pub fn by_sources<I: IntoIterator<Item = Ipv4Addr>>(sources: I) -> Self {
        ResearchFilter {
            sources: sources.into_iter().collect(),
        }
    }

    /// Behavioural detection: sources whose request packet count over
    /// the period exceeds `min_packets` *and* that touched more than
    /// `min_unique_dsts` distinct telescope addresses. Both conditions
    /// are orders of magnitude above any non-sweep source.
    pub fn detect<'a>(
        observations: impl IntoIterator<Item = &'a QuicObservation>,
        min_packets: u64,
        min_unique_dsts: u64,
    ) -> Self {
        let mut packet_counts: HashMap<Ipv4Addr, u64> = HashMap::new();
        let mut dst_counts: HashMap<Ipv4Addr, HashSet<Ipv4Addr>> = HashMap::new();
        for obs in observations {
            *packet_counts.entry(obs.src).or_default() += 1;
            dst_counts.entry(obs.src).or_default().insert(obs.dst);
        }
        let sources = packet_counts
            .into_iter()
            .filter(|(src, count)| {
                *count > min_packets && dst_counts[src].len() as u64 > min_unique_dsts
            })
            .map(|(src, _)| src)
            .collect();
        ResearchFilter { sources }
    }

    /// Detection with education-network corroboration: behavioural
    /// candidates are kept only if their origin AS is an education
    /// network — the cross-check the paper performs against PeeringDB.
    pub fn detect_with_asdb<'a>(
        observations: impl IntoIterator<Item = &'a QuicObservation>,
        asdb: &AsDatabase,
        min_packets: u64,
        min_unique_dsts: u64,
    ) -> Self {
        let behavioural = Self::detect(observations, min_packets, min_unique_dsts);
        ResearchFilter {
            sources: behavioural
                .sources
                .into_iter()
                .filter(|src| asdb.network_type(*src) == NetworkType::Education)
                .collect(),
        }
    }

    /// The identified scanner sources.
    pub fn sources(&self) -> &HashSet<Ipv4Addr> {
        &self.sources
    }

    /// Whether `src` is a research scanner.
    pub fn is_research(&self, src: Ipv4Addr) -> bool {
        self.sources.contains(&src)
    }

    /// Splits observations into (research, sanitized).
    pub fn partition<'a>(
        &self,
        observations: &'a [QuicObservation],
    ) -> (Vec<&'a QuicObservation>, Vec<&'a QuicObservation>) {
        observations
            .iter()
            .partition(|obs| self.is_research(obs.src))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_dissect::Direction;
    use quicsand_net::Timestamp;
    use quicsand_traffic::research::research_probe_payload;

    fn obs(src: Ipv4Addr, dst_last: u8, ts: u64) -> QuicObservation {
        QuicObservation {
            ts: Timestamp::from_secs(ts),
            src,
            dst: Ipv4Addr::new(128, 0, 0, dst_last),
            src_port: 40_000,
            dst_port: 443,
            direction: Direction::Request,
            dissected: quicsand_dissect::dissect_udp_payload(&research_probe_payload(1)).unwrap(),
        }
    }

    fn scanner() -> Ipv4Addr {
        Ipv4Addr::new(138, 246, 253, 13)
    }

    fn bot() -> Ipv4Addr {
        Ipv4Addr::new(60, 1, 2, 3)
    }

    fn observations() -> Vec<QuicObservation> {
        let mut v = Vec::new();
        // Scanner: 200 packets to 200 distinct addresses.
        for i in 0..200u64 {
            v.push(obs(scanner(), (i % 250) as u8, i));
        }
        // Bot: 10 packets to 3 addresses.
        for i in 0..10u64 {
            v.push(obs(bot(), (i % 3) as u8, 1_000 + i));
        }
        v
    }

    #[test]
    fn by_sources_filter() {
        let f = ResearchFilter::by_sources([scanner()]);
        assert!(f.is_research(scanner()));
        assert!(!f.is_research(bot()));
    }

    #[test]
    fn behavioural_detection_finds_sweepers_only() {
        let v = observations();
        let f = ResearchFilter::detect(&v, 100, 100);
        assert!(f.is_research(scanner()));
        assert!(!f.is_research(bot()));
        assert_eq!(f.sources().len(), 1);
    }

    #[test]
    fn high_volume_low_coverage_not_flagged() {
        // A flood victim sends many packets to FEW addresses — must not
        // be classified as a research scanner.
        let mut v = Vec::new();
        for i in 0..500u64 {
            v.push(obs(bot(), (i % 4) as u8, i));
        }
        let f = ResearchFilter::detect(&v, 100, 100);
        assert!(!f.is_research(bot()));
    }

    #[test]
    fn asdb_corroboration() {
        let v = observations();
        let mut asdb = AsDatabase::new();
        asdb.register_as(quicsand_intel::AsInfo {
            asn: 56357,
            name: "TUM".into(),
            network_type: NetworkType::Education,
            country: "DE",
        });
        asdb.announce("138.246.253.0/24".parse().unwrap(), 56357);
        let f = ResearchFilter::detect_with_asdb(&v, &asdb, 100, 100);
        assert!(f.is_research(scanner()));

        // Same behaviour from a non-education AS is rejected.
        let mut v2 = Vec::new();
        for i in 0..200u64 {
            v2.push(obs(bot(), (i % 250) as u8, i));
        }
        let f2 = ResearchFilter::detect_with_asdb(&v2, &asdb, 100, 100);
        assert!(!f2.is_research(bot()));
    }

    #[test]
    fn partition_splits_correctly() {
        let v = observations();
        let f = ResearchFilter::by_sources([scanner()]);
        let (research, sanitized) = f.partition(&v);
        assert_eq!(research.len(), 200);
        assert_eq!(sanitized.len(), 10);
        assert!(sanitized.iter().all(|o| o.src == bot()));
    }
}
