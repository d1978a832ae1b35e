//! DoS attack inference with the Moore et al. thresholds (§5.2).
//!
//! "To identify attacks, we select backscatter sessions with (i) more
//! than 25 packets, (ii) a duration longer than 60 seconds, and (iii) a
//! maximum packet rate of higher than 0.5 pps, which is calculated over
//! all 1-minute slots of the respective event."
//!
//! Appendix B scales all three thresholds by a weight `w` (relaxed
//! w < 1, stricter w > 1) and shows attacks persist even at w = 10 —
//! reproduced by [`DosThresholds::weighted`].

use crate::session::Session;
use quicsand_net::{Duration, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Internet-wide packets per packet the telescope captures: the /9
/// covers 1/512 of IPv4, so a victim's global rate is ≈ 512 × its
/// observed one (§5.2).
pub const GLOBAL_RATE_FACTOR: f64 = 512.0;

/// Attack-inference thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DosThresholds {
    /// Sessions must have *more than* this many packets.
    pub min_packets: f64,
    /// Sessions must last *longer than* this.
    pub min_duration: Duration,
    /// Sessions must exceed this max 1-minute-slot rate (pps).
    pub min_max_pps: f64,
}

impl DosThresholds {
    /// The Moore et al. defaults the paper reuses.
    pub fn moore() -> Self {
        DosThresholds {
            min_packets: 25.0,
            min_duration: Duration::from_secs(60),
            min_max_pps: 0.5,
        }
    }

    /// Scales all thresholds by weight `w` (Appendix B / Fig. 10).
    pub fn weighted(w: f64) -> Self {
        let base = Self::moore();
        DosThresholds {
            min_packets: base.min_packets * w,
            min_duration: Duration::from_secs_f64(base.min_duration.as_secs_f64() * w),
            min_max_pps: base.min_max_pps * w,
        }
    }

    /// Scales *these* thresholds by `w` — unlike [`Self::weighted`],
    /// which always scales the Moore defaults. The live engine derives
    /// its escalation tier from the operator's base thresholds this way.
    pub fn scaled(&self, w: f64) -> Self {
        DosThresholds {
            min_packets: self.min_packets * w,
            min_duration: Duration::from_secs_f64(self.min_duration.as_secs_f64() * w),
            min_max_pps: self.min_max_pps * w,
        }
    }

    /// Whether a session qualifies as an attack.
    pub fn matches(&self, session: &Session) -> bool {
        self.matches_measures(session.packet_count, session.duration(), session.max_pps())
    }

    /// The attack `session` qualifies as, if it does: the one mapping
    /// from a backscatter session to an [`Attack`].
    pub fn attack(&self, session: &Session, protocol: AttackProtocol) -> Option<Attack> {
        self.matches(session).then(|| Attack {
            victim: session.src,
            protocol,
            start: session.start,
            end: session.end,
            packet_count: session.packet_count,
            max_pps: session.max_pps(),
        })
    }

    /// [`Self::matches`] over raw measures, for callers that track the
    /// three quantities incrementally instead of holding a [`Session`]
    /// (the streaming detector). All three measures are monotone
    /// non-decreasing over a session's lifetime, so once this returns
    /// `true` for an open session it stays `true` — the property behind
    /// the live alert lifecycle's no-flap guarantee.
    pub fn matches_measures(&self, packets: u64, duration: Duration, max_pps: f64) -> bool {
        packets as f64 > self.min_packets
            && duration > self.min_duration
            && max_pps > self.min_max_pps
    }

    /// The fewest packets for which the packet clause of
    /// [`Self::matches_measures`] holds: a session with fewer never
    /// qualifies, whatever its duration and rate (26 for Moore). A lower
    /// bound, exact below 2^53 packets. The live detector uses it to
    /// skip packets no qualifying session can end with, so an
    /// under-estimate only records more evidence and an over-estimate
    /// would lose some. `u64::MAX` when no count qualifies (a NaN
    /// threshold, or one no `u64` exceeds).
    pub fn qualifying_packets(&self) -> u64 {
        match self.min_packets {
            m if m.is_nan() => u64::MAX,
            m if m < 0.0 => 0,
            // `as` saturates: a threshold past `u64::MAX` yields it.
            m => (m.floor() as u64).saturating_add(1),
        }
    }
}

impl Default for DosThresholds {
    fn default() -> Self {
        Self::moore()
    }
}

/// The protocol family of an attack, for the Fig. 7 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackProtocol {
    /// QUIC (UDP/443 backscatter).
    Quic,
    /// The "common protocols" baseline: TCP or ICMP backscatter.
    TcpIcmp,
}

impl AttackProtocol {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            AttackProtocol::Quic => "QUIC",
            AttackProtocol::TcpIcmp => "TCP/ICMP",
        }
    }
}

/// An inferred DoS attack (a qualifying backscatter session).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attack {
    /// The victim (the backscatter source).
    pub victim: Ipv4Addr,
    /// Protocol family.
    pub protocol: AttackProtocol,
    /// First backscatter packet.
    pub start: Timestamp,
    /// Last backscatter packet.
    pub end: Timestamp,
    /// Backscatter packets captured.
    pub packet_count: u64,
    /// Intensity: max pps over 1-minute slots, at the telescope.
    pub max_pps: f64,
}

impl Attack {
    /// Attack duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_since(self.start)
    }

    /// Whether two attacks (typically different protocols) on the same
    /// victim overlap in time by at least one second — the paper's
    /// concurrency criterion (§5.2 / Appendix C).
    pub fn overlaps(&self, other: &Attack) -> bool {
        self.overlap_with(other) >= Duration::from_secs(1)
    }

    /// The length of the time overlap with `other` (zero when
    /// disjoint).
    pub fn overlap_with(&self, other: &Attack) -> Duration {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        end.saturating_since(start)
    }

    /// The gap to `other` when disjoint (zero when overlapping).
    pub fn gap_to(&self, other: &Attack) -> Duration {
        if self.end < other.start {
            other.start.saturating_since(self.end)
        } else if other.end < self.start {
            self.start.saturating_since(other.end)
        } else {
            Duration::ZERO
        }
    }
}

/// Applies the thresholds to backscatter sessions, yielding attacks.
pub fn detect_attacks(
    sessions: &[Session],
    protocol: AttackProtocol,
    thresholds: &DosThresholds,
) -> Vec<Attack> {
    sessions
        .iter()
        .filter_map(|s| thresholds.attack(s, protocol))
        .collect()
}

/// Attack counts per victim — the Fig. 6 CDF input.
pub fn attacks_per_victim(attacks: &[Attack]) -> HashMap<Ipv4Addr, u64> {
    let mut counts = HashMap::new();
    for attack in attacks {
        *counts.entry(attack.victim).or_default() += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{sessionize, SessionConfig};

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, last)
    }

    /// Builds a session emitting `pps`-rate packets for `secs` seconds.
    fn flood_session(src: Ipv4Addr, pps: f64, secs: u64) -> Session {
        let interval_us = (1e6 / pps) as u64;
        let packets: Vec<_> = (0..)
            .map(|i| Timestamp::from_micros(i * interval_us))
            .take_while(|ts| ts.as_secs() < secs)
            .map(|ts| (ts, src))
            .collect();
        let mut sessions = sessionize(packets, SessionConfig::default());
        assert_eq!(sessions.len(), 1);
        sessions.pop().unwrap()
    }

    #[test]
    fn qualifying_flood_detected() {
        let session = flood_session(ip(1), 2.0, 120); // 240 pkts, 2 pps, 2 min
        let attacks = detect_attacks(&[session], AttackProtocol::Quic, &DosThresholds::moore());
        assert_eq!(attacks.len(), 1);
        let a = &attacks[0];
        assert_eq!(a.victim, ip(1));
        assert_eq!(a.protocol, AttackProtocol::Quic);
        assert!(a.max_pps > 0.5);
    }

    #[test]
    fn each_threshold_excludes_independently() {
        let thresholds = DosThresholds::moore();
        // Too few packets: 20 packets over 100 s (0.2 pps).
        let few = flood_session(ip(1), 0.2, 100);
        assert!(few.packet_count <= 25);
        assert!(!thresholds.matches(&few));
        // Too short: 100 packets in 30 s.
        let short = flood_session(ip(2), 4.0, 30);
        assert!(short.packet_count > 25);
        assert!(short.duration() <= Duration::from_secs(60));
        assert!(!thresholds.matches(&short));
        // Too slow: 0.4 pps for 150 s → 60 packets, max 24/60 = 0.4 pps.
        let slow = flood_session(ip(3), 0.4, 150);
        assert!(slow.packet_count > 25);
        assert!(slow.duration() > Duration::from_secs(60));
        assert!(slow.max_pps() <= 0.5);
        assert!(!thresholds.matches(&slow));
    }

    #[test]
    fn weighted_thresholds_scale() {
        let strict = DosThresholds::weighted(10.0);
        assert_eq!(strict.min_packets, 250.0);
        assert_eq!(strict.min_duration.as_secs(), 600);
        assert_eq!(strict.min_max_pps, 5.0);
        let relaxed = DosThresholds::weighted(0.2);
        assert_eq!(relaxed.min_packets, 5.0);
        assert_eq!(relaxed.min_duration.as_secs(), 12);
        // A mild flood passes relaxed but not strict.
        let mild = flood_session(ip(1), 1.0, 100);
        assert!(relaxed.matches(&mild));
        assert!(!strict.matches(&mild));
        // Weight 1 is the default.
        assert_eq!(DosThresholds::weighted(1.0), DosThresholds::moore());
    }

    #[test]
    fn qualifying_packets_is_where_the_packet_clause_starts_to_hold() {
        for (min_packets, want) in [
            (f64::NAN, u64::MAX),
            (-1.0, 0),
            (0.0, 1),
            (3.0, 4),
            (12.5, 13),
            (25.0, 26),
            (1e30, u64::MAX),
        ] {
            // Only the packet clause can fail.
            let thresholds = DosThresholds {
                min_packets,
                min_duration: Duration::ZERO,
                min_max_pps: 0.0,
            };
            let holds = |packets| {
                thresholds.matches_measures(packets, Duration::from_secs(1), f64::INFINITY)
            };
            let q = thresholds.qualifying_packets();
            assert_eq!(q, want, "min_packets {min_packets}");
            for packets in (0..40).chain([q.saturating_sub(1), q, u64::MAX]) {
                assert_eq!(
                    holds(packets),
                    packets >= q && q != u64::MAX,
                    "min_packets {min_packets}, {packets} packet(s)"
                );
            }
        }
        assert_eq!(DosThresholds::moore().qualifying_packets(), 26);
    }

    #[test]
    fn attacks_per_victim_counts() {
        let mk = |v: Ipv4Addr, start: u64| Attack {
            victim: v,
            protocol: AttackProtocol::Quic,
            start: Timestamp::from_secs(start),
            end: Timestamp::from_secs(start + 100),
            packet_count: 100,
            max_pps: 1.0,
        };
        let attacks = vec![mk(ip(1), 0), mk(ip(1), 1000), mk(ip(2), 0)];
        let counts = attacks_per_victim(&attacks);
        assert_eq!(counts[&ip(1)], 2);
        assert_eq!(counts[&ip(2)], 1);
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn overlap_and_gap_arithmetic() {
        let mk = |start: u64, end: u64| Attack {
            victim: ip(1),
            protocol: AttackProtocol::Quic,
            start: Timestamp::from_secs(start),
            end: Timestamp::from_secs(end),
            packet_count: 100,
            max_pps: 1.0,
        };
        let a = mk(0, 100);
        let b = mk(50, 150);
        assert!(a.overlaps(&b));
        assert_eq!(a.overlap_with(&b).as_secs(), 50);
        assert_eq!(a.gap_to(&b), Duration::ZERO);
        let c = mk(200, 300);
        assert!(!a.overlaps(&c));
        assert_eq!(a.gap_to(&c).as_secs(), 100);
        assert_eq!(c.gap_to(&a).as_secs(), 100);
        // Sub-second overlap does not count as concurrent.
        let d = mk(100, 200); // touching at exactly one instant
        assert_eq!(a.overlap_with(&d), Duration::ZERO);
        assert!(!a.overlaps(&d));
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(AttackProtocol::Quic.label(), "QUIC");
        assert_eq!(AttackProtocol::TcpIcmp.label(), "TCP/ICMP");
    }

    #[test]
    fn empty_inputs() {
        assert!(detect_attacks(&[], AttackProtocol::Quic, &DosThresholds::moore()).is_empty());
        assert!(attacks_per_victim(&[]).is_empty());
    }
}
