//! Aggregation over dissected QUIC traffic.
//!
//! Computes the quantities the paper reports in §6 (message-type mix of
//! DoS backscatter: 31 % Initial, 57 % Handshake; zero RETRYs) and the
//! per-victim resource proxies of Fig. 9 (unique SCIDs, client IPs and
//! ports).

use crate::quic::{DissectedPacket, MessageKind};
use quicsand_wire::ConnectionId;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Counts of QUIC message types over a traffic aggregate. Counting
/// allocates nothing: the counts sit in a fixed array indexed by kind.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageMixStats {
    /// Messages per kind, indexed by [`MessageKind::index`].
    counts: [u64; MessageKind::COUNT],
    /// Total messages.
    pub total: u64,
    /// Initials that were opened and carried a visible Client Hello
    /// (an unopened Initial, verdict `None`, is not counted).
    pub initials_with_client_hello: u64,
}

impl MessageMixStats {
    /// Creates empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one dissected datagram into the stats.
    pub fn add(&mut self, dissected: &DissectedPacket) {
        for m in &dissected.messages {
            self.counts[m.kind.index()] += 1;
            self.total += 1;
            if m.has_client_hello == Some(true) {
                self.initials_with_client_hello += 1;
            }
        }
    }

    /// Adds another aggregate's counts to these.
    pub fn merge(&mut self, other: &MessageMixStats) {
        for (count, more) in self.counts.iter_mut().zip(other.counts) {
            *count += more;
        }
        self.total += other.total;
        self.initials_with_client_hello += other.initials_with_client_hello;
    }

    /// Count for one kind.
    pub fn count(&self, kind: MessageKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Share of one kind in the total (0 when empty).
    pub fn share(&self, kind: MessageKind) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(kind) as f64 / self.total as f64
        }
    }

    /// Whether any RETRY was observed (the paper: none).
    pub fn any_retry(&self) -> bool {
        self.count(MessageKind::Retry) > 0
    }
}

/// Per-victim resource proxies for Fig. 9: packet counts and the unique
/// client addresses, client ports and server SCIDs observed in the
/// backscatter a victim emits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VictimResourceStats {
    /// Backscatter packets observed.
    pub packets: u64,
    /// Unique spoofed client addresses (the telescope's own addresses
    /// that the victim replied to).
    pub client_ips: HashSet<Ipv4Addr>,
    /// Unique client ports replied to.
    pub client_ports: HashSet<u16>,
    /// Unique server-chosen source connection IDs — each one is a
    /// connection context allocated at the victim.
    pub scids: HashSet<ConnectionId>,
}

impl VictimResourceStats {
    /// Folds one backscatter datagram into the stats.
    ///
    /// `dst` and `dst_port` are the telescope address/port the victim
    /// replied to (i.e. the spoofed client identity).
    pub fn add(&mut self, dissected: &DissectedPacket, dst: Ipv4Addr, dst_port: u16) {
        self.packets += 1;
        self.client_ips.insert(dst);
        self.client_ports.insert(dst_port);
        for scid in dissected.scids() {
            self.scids.insert(*scid);
        }
    }

    /// SCIDs per packet — the "server load" indicator of Fig. 9
    /// (Google reacts with more SCIDs despite fewer packets).
    pub fn scids_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.scids.len() as f64 / self.packets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quic::MessageMeta;

    fn dissected(kinds: &[(MessageKind, Option<bool>)]) -> DissectedPacket {
        DissectedPacket {
            messages: kinds
                .iter()
                .map(|(kind, ch)| MessageMeta {
                    kind: *kind,
                    version: Some(1),
                    scid: Some(ConnectionId::from_u64(7)),
                    dcid: ConnectionId::EMPTY,
                    has_client_hello: *ch,
                    wire_len: 100,
                })
                .collect(),
        }
    }

    #[test]
    fn mix_counts_and_shares() {
        let mut stats = MessageMixStats::new();
        stats.add(&dissected(&[
            (MessageKind::Initial, Some(false)),
            (MessageKind::Handshake, Some(false)),
        ]));
        stats.add(&dissected(&[(MessageKind::Handshake, Some(false))]));
        assert_eq!(stats.total, 3);
        assert_eq!(stats.count(MessageKind::Initial), 1);
        assert_eq!(stats.count(MessageKind::Handshake), 2);
        assert!((stats.share(MessageKind::Initial) - 1.0 / 3.0).abs() < 1e-12);
        assert!((stats.share(MessageKind::Handshake) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.share(MessageKind::Retry), 0.0);
        assert!(!stats.any_retry());
    }

    #[test]
    fn merge_adds_every_count() {
        let mut left = MessageMixStats::new();
        left.add(&dissected(&[(MessageKind::Initial, Some(true))]));
        let mut right = MessageMixStats::new();
        right.add(&dissected(&[
            (MessageKind::Initial, Some(false)),
            (MessageKind::Retry, Some(false)),
        ]));
        let mut both = MessageMixStats::new();
        both.add(&dissected(&[(MessageKind::Initial, Some(true))]));
        both.add(&dissected(&[
            (MessageKind::Initial, Some(false)),
            (MessageKind::Retry, Some(false)),
        ]));
        left.merge(&right);
        assert_eq!(left, both);
        assert_eq!(left.count(MessageKind::Initial), 2);
        assert_eq!(left.initials_with_client_hello, 1);
    }

    #[test]
    fn client_hello_counting() {
        let mut stats = MessageMixStats::new();
        stats.add(&dissected(&[(MessageKind::Initial, Some(true))]));
        stats.add(&dissected(&[(MessageKind::Initial, Some(false))]));
        stats.add(&dissected(&[(MessageKind::Initial, None)]));
        assert_eq!(stats.count(MessageKind::Initial), 3);
        assert_eq!(stats.initials_with_client_hello, 1);
    }

    #[test]
    fn retry_flag() {
        let mut stats = MessageMixStats::new();
        stats.add(&dissected(&[(MessageKind::Retry, Some(false))]));
        assert!(stats.any_retry());
    }

    #[test]
    fn empty_share_is_zero() {
        let stats = MessageMixStats::new();
        assert_eq!(stats.share(MessageKind::Initial), 0.0);
        assert_eq!(stats.total, 0);
    }

    #[test]
    fn victim_stats_accumulate_unique_resources() {
        let mut stats = VictimResourceStats::default();
        let d1 = DissectedPacket {
            messages: vec![MessageMeta {
                kind: MessageKind::Initial,
                version: Some(1),
                scid: Some(ConnectionId::from_u64(1)),
                dcid: ConnectionId::EMPTY,
                has_client_hello: Some(false),
                wire_len: 100,
            }],
        };
        let d2 = DissectedPacket {
            messages: vec![MessageMeta {
                kind: MessageKind::Handshake,
                version: Some(1),
                scid: Some(ConnectionId::from_u64(2)),
                dcid: ConnectionId::EMPTY,
                has_client_hello: Some(false),
                wire_len: 100,
            }],
        };
        stats.add(&d1, Ipv4Addr::new(128, 0, 0, 1), 1000);
        stats.add(&d1, Ipv4Addr::new(128, 0, 0, 1), 1000); // duplicate identity
        stats.add(&d2, Ipv4Addr::new(128, 0, 0, 2), 2000);
        assert_eq!(stats.packets, 3);
        assert_eq!(stats.client_ips.len(), 2);
        assert_eq!(stats.client_ports.len(), 2);
        assert_eq!(stats.scids.len(), 2);
        assert!((stats.scids_per_packet() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_victim_stats() {
        let stats = VictimResourceStats::default();
        assert_eq!(stats.scids_per_packet(), 0.0);
    }
}
