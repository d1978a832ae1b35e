//! Metric bundles for sessionization and DoS detection.
//!
//! [`SessionMetrics`] mirrors the [`SessionizerCounters`] lifecycle
//! counts; [`DosMetrics`] counts detected attacks and records their
//! duration/size distributions. The same `DosMetrics` family is used by
//! the batch `detect_attacks` path and the live engine's alert closes,
//! which is what makes live-vs-batch histogram totals directly
//! comparable (they share metric names, buckets, and units).

use crate::dos::{Attack, AttackProtocol};
use crate::session::SessionizerCounters;
use quicsand_obs::{
    Counter, Histogram, MetricsRegistry, Stability, ATTACK_DURATION_MICROS_BUCKETS,
    ATTACK_PACKETS_BUCKETS,
};

/// Session-lifecycle counters, one family per pipeline run (summed over
/// every sessionizer/channel/shard feeding that run).
#[derive(Debug, Clone)]
pub struct SessionMetrics {
    /// `quicsand_sessions_opened_total` — open-session inserts.
    pub opened_total: Counter,
    /// `quicsand_sessions_closed_total` — sessions closed (gap closes,
    /// idle expiries, and the end-of-run flush).
    pub closed_total: Counter,
    /// `quicsand_sessions_expired_total` — the watermark-sweep subset
    /// of the closes (volatile: a shard's watermark only advances on
    /// its own sources' packets, so the sweep/flush split depends on
    /// the shard count even though the total close count does not).
    pub expired_total: Counter,
    /// `quicsand_sessions_migrated_total` — address-split session pairs
    /// re-joined by CID-keyed migration linking; each link reduces the
    /// final session count by one, so reconciliation reads
    /// `opened == final sessions + migrated`.
    pub migrated_total: Counter,
}

impl SessionMetrics {
    /// Registers the session family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        SessionMetrics {
            opened_total: registry.counter(
                "quicsand_sessions_opened_total",
                "Open-session inserts across all sessionizers",
                Stability::Stable,
            ),
            closed_total: registry.counter(
                "quicsand_sessions_closed_total",
                "Sessions closed (gap, expiry, or end-of-run flush)",
                Stability::Stable,
            ),
            expired_total: registry.counter(
                "quicsand_sessions_expired_total",
                "Sessions closed by the idle watermark sweep",
                Stability::Volatile,
            ),
            migrated_total: registry.counter(
                "quicsand_sessions_migrated_total",
                "Address-split sessions re-joined by CID migration linking",
                Stability::Stable,
            ),
        }
    }

    /// Publishes one sessionizer's final tally: its cumulative counters
    /// plus the `open_remaining` sessions its `finish()` flush closes.
    pub fn add_final(&self, counters: SessionizerCounters, open_remaining: u64) {
        self.opened_total.add(counters.opened);
        self.closed_total.add(counters.closed + open_remaining);
        self.expired_total.add(counters.expired);
    }
}

/// DoS-detection counters and distributions, labelled by protocol
/// family.
#[derive(Debug, Clone)]
pub struct DosMetrics {
    /// `quicsand_detect_attacks_total{protocol="quic"}`.
    pub attacks_quic: Counter,
    /// `quicsand_detect_attacks_total{protocol="tcp_icmp"}`.
    pub attacks_common: Counter,
    /// `quicsand_attack_duration_micros{protocol="quic"}`.
    pub duration_quic: Histogram,
    /// `quicsand_attack_duration_micros{protocol="tcp_icmp"}`.
    pub duration_common: Histogram,
    /// `quicsand_attack_packets{protocol="quic"}`.
    pub packets_quic: Histogram,
    /// `quicsand_attack_packets{protocol="tcp_icmp"}`.
    pub packets_common: Histogram,
}

impl DosMetrics {
    /// Registers the detection family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        const ATTACKS: &str = "quicsand_detect_attacks_total";
        const ATTACKS_HELP: &str = "Inferred DoS attacks, by protocol family";
        const DURATION: &str = "quicsand_attack_duration_micros";
        const DURATION_HELP: &str = "Attack durations (last - first backscatter packet)";
        const PACKETS: &str = "quicsand_attack_packets";
        const PACKETS_HELP: &str = "Backscatter packets per attack";
        let counter = |p: &'static str| {
            registry.counter_with(ATTACKS, ATTACKS_HELP, Stability::Stable, &[("protocol", p)])
        };
        let duration = |p: &'static str| {
            registry.histogram_with(
                DURATION,
                DURATION_HELP,
                Stability::Stable,
                ATTACK_DURATION_MICROS_BUCKETS,
                &[("protocol", p)],
            )
        };
        let packets = |p: &'static str| {
            registry.histogram_with(
                PACKETS,
                PACKETS_HELP,
                Stability::Stable,
                ATTACK_PACKETS_BUCKETS,
                &[("protocol", p)],
            )
        };
        DosMetrics {
            attacks_quic: counter("quic"),
            attacks_common: counter("tcp_icmp"),
            duration_quic: duration("quic"),
            duration_common: duration("tcp_icmp"),
            packets_quic: packets("quic"),
            packets_common: packets("tcp_icmp"),
        }
    }

    /// Counts one detected attack and records its distributions.
    pub fn observe_attack(&self, attack: &Attack) {
        let duration = attack.end.saturating_since(attack.start).as_micros();
        match attack.protocol {
            AttackProtocol::Quic => {
                self.attacks_quic.inc();
                self.duration_quic.observe(duration);
                self.packets_quic.observe(attack.packet_count);
            }
            AttackProtocol::TcpIcmp => {
                self.attacks_common.inc();
                self.duration_common.observe(duration);
                self.packets_common.observe(attack.packet_count);
            }
        }
    }

    /// Records a whole detection batch.
    pub fn observe_attacks(&self, attacks: &[Attack]) {
        for attack in attacks {
            self.observe_attack(attack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_net::Timestamp;
    use std::net::Ipv4Addr;

    fn attack(protocol: AttackProtocol, secs: u64, packets: u64) -> Attack {
        Attack {
            victim: Ipv4Addr::new(203, 0, 113, 1),
            protocol,
            start: Timestamp::from_secs(100),
            end: Timestamp::from_secs(100 + secs),
            packet_count: packets,
            max_pps: 1.0,
        }
    }

    #[test]
    fn attacks_route_by_protocol() {
        let registry = MetricsRegistry::new();
        let metrics = DosMetrics::register(&registry);
        metrics.observe_attack(&attack(AttackProtocol::Quic, 90, 40));
        metrics.observe_attack(&attack(AttackProtocol::TcpIcmp, 600, 4_000));
        metrics.observe_attack(&attack(AttackProtocol::TcpIcmp, 120, 80));
        assert_eq!(metrics.attacks_quic.get(), 1);
        assert_eq!(metrics.attacks_common.get(), 2);
        assert_eq!(metrics.duration_quic.sum(), 90_000_000);
        assert_eq!(metrics.packets_common.sum(), 4_080);
        assert_eq!(metrics.packets_common.count(), 2);
    }

    #[test]
    fn session_final_tally_accounts_for_finish_flush() {
        let registry = MetricsRegistry::new();
        let metrics = SessionMetrics::register(&registry);
        let counters = SessionizerCounters {
            opened: 10,
            closed: 7,
            expired: 3,
        };
        metrics.add_final(counters, 3);
        assert_eq!(metrics.opened_total.get(), 10);
        assert_eq!(
            metrics.closed_total.get(),
            10,
            "opened == closed after flush"
        );
        assert_eq!(metrics.expired_total.get(), 3);
    }
}
