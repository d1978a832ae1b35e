//! Multi-vector attack correlation (§5.2, Appendix C).
//!
//! Each QUIC flood is classified against the TCP/ICMP floods hitting the
//! same victim:
//!
//! * **Concurrent** — overlaps a common-protocol flood by ≥1 s
//!   (51 % in the paper, Fig. 8); the *overlap share* distribution is
//!   Fig. 12 (mean 95 %, three quarters fully parallel).
//! * **Sequential** — same victim, but disjoint in time (40 %); the
//!   *gap* to the nearest common flood is Fig. 13 (82 % > 1 h, mean
//!   36 h, tail up to 28 days).
//! * **Isolated** — the victim saw no TCP/ICMP flood at all (9 %).

use crate::dos::Attack;
use quicsand_net::Duration;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Classification of one QUIC flood relative to common-protocol floods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MultiVectorClass {
    /// Overlaps a TCP/ICMP flood on the same victim by ≥1 s.
    Concurrent,
    /// Same victim attacked by TCP/ICMP, but never overlapping.
    Sequential,
    /// No TCP/ICMP flood against this victim in the whole period.
    Isolated,
}

impl MultiVectorClass {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            MultiVectorClass::Concurrent => "concurrent",
            MultiVectorClass::Sequential => "sequential",
            MultiVectorClass::Isolated => "isolated",
        }
    }
}

/// Post-2021 attack-vector annotations derived from packet-level
/// signals the time-overlap classes cannot see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum VectorKind {
    /// The victim emitted Retry backscatter during the flood — a
    /// Retry-token amplification variant.
    RetryAmplification,
    /// The victim's address appeared as the target of mid-session
    /// connection migrations — migration-abuse traffic steering.
    MigrationAbuse,
}

impl VectorKind {
    /// Stable label used in reports and metrics.
    pub fn label(self) -> &'static str {
        match self {
            VectorKind::RetryAmplification => "retry-amplification",
            VectorKind::MigrationAbuse => "migration-abuse",
        }
    }
}

/// Packet-level evidence feeding [`classify_multivector_with`].
///
/// The classifier itself only sees attack intervals; these maps carry
/// the per-address signals the dissect/sessionize stages extracted so
/// vector kinds can be attached without re-reading the capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorSignals {
    /// Retry packets observed *from* each address (response direction:
    /// the flood victim is the Retry emitter).
    pub retry_packets_by_victim: HashMap<Ipv4Addr, u64>,
    /// Mid-session migration endpoints: how many migration links
    /// involved each address (either side of the address change).
    pub migrations_by_addr: HashMap<Ipv4Addr, u64>,
}

impl VectorSignals {
    /// No evidence at all — [`classify_multivector`] semantics.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Records one Retry packet emitted by `victim`.
    pub fn record_retry(&mut self, victim: Ipv4Addr) {
        *self.retry_packets_by_victim.entry(victim).or_default() += 1;
    }

    /// Records one migration link touching `addr`.
    pub fn record_migration(&mut self, addr: Ipv4Addr) {
        *self.migrations_by_addr.entry(addr).or_default() += 1;
    }

    /// The vector kinds supported by the evidence for `victim`.
    pub fn kinds_for(&self, victim: Ipv4Addr) -> Vec<VectorKind> {
        let mut kinds = Vec::new();
        if self
            .retry_packets_by_victim
            .get(&victim)
            .copied()
            .unwrap_or(0)
            > 0
        {
            kinds.push(VectorKind::RetryAmplification);
        }
        if self.migrations_by_addr.get(&victim).copied().unwrap_or(0) > 0 {
            kinds.push(VectorKind::MigrationAbuse);
        }
        kinds
    }
}

/// Per-QUIC-flood correlation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelatedAttack {
    /// Index into the QUIC attack slice passed to
    /// [`classify_multivector`].
    pub quic_index: usize,
    /// The classification.
    pub class: MultiVectorClass,
    /// For concurrent attacks: the share of the QUIC flood's duration
    /// that overlaps common floods (0..=1), computed against the
    /// best-overlapping common flood.
    pub overlap_share: Option<f64>,
    /// For sequential attacks: the gap to the nearest common flood.
    pub gap: Option<Duration>,
    /// Vector-kind annotations (empty without packet-level evidence).
    pub kinds: Vec<VectorKind>,
}

/// Aggregated multi-vector report (Fig. 8 + Figs. 12/13 inputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiVectorReport {
    /// Per-attack results, index-aligned with the QUIC attacks.
    pub attacks: Vec<CorrelatedAttack>,
    /// Count per class.
    pub class_counts: HashMap<String, usize>,
    /// Count per vector kind (empty when classified without signals).
    pub kind_counts: HashMap<String, usize>,
}

impl MultiVectorReport {
    /// Share of a class among all QUIC attacks.
    pub fn share(&self, class: MultiVectorClass) -> f64 {
        if self.attacks.is_empty() {
            return 0.0;
        }
        self.class_counts.get(class.label()).copied().unwrap_or(0) as f64
            / self.attacks.len() as f64
    }

    /// Overlap shares of concurrent attacks (Fig. 12 samples).
    pub fn overlap_shares(&self) -> Vec<f64> {
        self.attacks
            .iter()
            .filter_map(|a| a.overlap_share)
            .collect()
    }

    /// Gaps of sequential attacks in seconds (Fig. 13 samples).
    pub fn gap_seconds(&self) -> Vec<f64> {
        self.attacks
            .iter()
            .filter_map(|a| a.gap.map(|g| g.as_secs_f64()))
            .collect()
    }
}

/// The `(class, overlap_share, gap)` verdict on one QUIC flood, given
/// its longest overlap with any common flood on the same victim
/// (`Duration::ZERO` when there is none) and the gap to the nearest one
/// (`None` when the victim saw no common flood at all). The one place
/// the §5.2 / Appendix C rule is written: the batch classifier below
/// folds a victim's whole common-flood list into the two arguments, the
/// live detector folds them in one flood at a time.
pub fn verdict(
    quic: &Attack,
    best_overlap: Duration,
    min_gap: Option<Duration>,
) -> (MultiVectorClass, Option<f64>, Option<Duration>) {
    if best_overlap >= Duration::from_secs(1) {
        let quic_duration = quic.duration().as_secs_f64().max(1.0);
        let share = (best_overlap.as_secs_f64() / quic_duration).min(1.0);
        (MultiVectorClass::Concurrent, Some(share), None)
    } else if let Some(gap) = min_gap {
        (MultiVectorClass::Sequential, None, Some(gap))
    } else {
        (MultiVectorClass::Isolated, None, None)
    }
}

/// Correlates QUIC floods with common-protocol floods (no packet-level
/// vector evidence; every `kinds` list stays empty).
pub fn classify_multivector(quic: &[Attack], common: &[Attack]) -> MultiVectorReport {
    classify_multivector_with(quic, common, &VectorSignals::empty())
}

/// Correlates QUIC floods with common-protocol floods and annotates each
/// attack with the [`VectorKind`]s its victim's packet-level evidence
/// supports.
pub fn classify_multivector_with(
    quic: &[Attack],
    common: &[Attack],
    signals: &VectorSignals,
) -> MultiVectorReport {
    // Index common floods per victim once.
    let mut by_victim: HashMap<Ipv4Addr, Vec<&Attack>> = HashMap::new();
    for attack in common {
        by_victim.entry(attack.victim).or_default().push(attack);
    }

    let mut attacks = Vec::with_capacity(quic.len());
    let mut class_counts: HashMap<String, usize> = HashMap::new();
    let mut kind_counts: HashMap<String, usize> = HashMap::new();
    for (quic_index, q) in quic.iter().enumerate() {
        let kinds = signals.kinds_for(q.victim);
        let commons = by_victim.get(&q.victim).map_or(&[][..], Vec::as_slice);
        let best_overlap = commons
            .iter()
            .map(|c| q.overlap_with(c))
            .max()
            .unwrap_or(Duration::ZERO);
        let min_gap = commons.iter().map(|c| q.gap_to(c)).min();
        let (class, overlap_share, gap) = verdict(q, best_overlap, min_gap);
        let result = CorrelatedAttack {
            quic_index,
            class,
            overlap_share,
            gap,
            kinds,
        };
        *class_counts
            .entry(result.class.label().to_string())
            .or_default() += 1;
        for kind in &result.kinds {
            *kind_counts.entry(kind.label().to_string()).or_default() += 1;
        }
        attacks.push(result);
    }
    MultiVectorReport {
        attacks,
        class_counts,
        kind_counts,
    }
}

/// A single-victim attack timeline (Fig. 11): the attacks against one
/// victim in time order, labelled by protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VictimTimeline {
    /// The victim.
    pub victim: Ipv4Addr,
    /// `(protocol label, start, end)` rows in start order.
    pub rows: Vec<(String, u64, u64)>,
}

/// Builds the timeline of all attacks against `victim`.
pub fn victim_timeline(victim: Ipv4Addr, quic: &[Attack], common: &[Attack]) -> VictimTimeline {
    let mut rows: Vec<(String, u64, u64)> = quic
        .iter()
        .chain(common.iter())
        .filter(|a| a.victim == victim)
        .map(|a| {
            (
                a.protocol.label().to_string(),
                a.start.as_secs(),
                a.end.as_secs(),
            )
        })
        .collect();
    rows.sort_by_key(|(_, start, _)| *start);
    VictimTimeline { victim, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dos::AttackProtocol;
    use quicsand_net::Timestamp;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, last)
    }

    fn attack(victim: Ipv4Addr, protocol: AttackProtocol, start: u64, end: u64) -> Attack {
        Attack {
            victim,
            protocol,
            start: Timestamp::from_secs(start),
            end: Timestamp::from_secs(end),
            packet_count: 100,
            max_pps: 1.0,
        }
    }

    #[test]
    fn concurrent_detected_with_overlap_share() {
        let quic = vec![attack(ip(1), AttackProtocol::Quic, 100, 200)];
        let common = vec![attack(ip(1), AttackProtocol::TcpIcmp, 150, 400)];
        let report = classify_multivector(&quic, &common);
        assert_eq!(report.attacks[0].class, MultiVectorClass::Concurrent);
        let share = report.attacks[0].overlap_share.unwrap();
        assert!((share - 0.5).abs() < 1e-9, "share={share}");
        assert_eq!(report.share(MultiVectorClass::Concurrent), 1.0);
    }

    #[test]
    fn full_overlap_share_is_one() {
        let quic = vec![attack(ip(1), AttackProtocol::Quic, 100, 200)];
        let common = vec![attack(ip(1), AttackProtocol::TcpIcmp, 50, 500)];
        let report = classify_multivector(&quic, &common);
        assert_eq!(report.attacks[0].overlap_share, Some(1.0));
    }

    #[test]
    fn sequential_detected_with_nearest_gap() {
        let quic = vec![attack(ip(1), AttackProtocol::Quic, 1000, 1100)];
        let common = vec![
            attack(ip(1), AttackProtocol::TcpIcmp, 0, 500), // gap 500
            attack(ip(1), AttackProtocol::TcpIcmp, 2000, 2500), // gap 900
        ];
        let report = classify_multivector(&quic, &common);
        assert_eq!(report.attacks[0].class, MultiVectorClass::Sequential);
        assert_eq!(report.attacks[0].gap.unwrap().as_secs(), 500);
        assert_eq!(report.gap_seconds(), vec![500.0]);
    }

    #[test]
    fn isolated_when_victim_unshared() {
        let quic = vec![attack(ip(1), AttackProtocol::Quic, 0, 100)];
        let common = vec![attack(ip(2), AttackProtocol::TcpIcmp, 0, 100)];
        let report = classify_multivector(&quic, &common);
        assert_eq!(report.attacks[0].class, MultiVectorClass::Isolated);
        assert_eq!(report.share(MultiVectorClass::Isolated), 1.0);
        assert!(report.overlap_shares().is_empty());
        assert!(report.gap_seconds().is_empty());
    }

    #[test]
    fn sub_second_overlap_is_sequential() {
        // Touching intervals share zero full seconds.
        let quic = vec![attack(ip(1), AttackProtocol::Quic, 100, 200)];
        let common = vec![attack(ip(1), AttackProtocol::TcpIcmp, 200, 300)];
        let report = classify_multivector(&quic, &common);
        assert_eq!(report.attacks[0].class, MultiVectorClass::Sequential);
        assert_eq!(report.attacks[0].gap.unwrap(), Duration::ZERO);
    }

    #[test]
    fn shares_sum_to_one() {
        let quic = vec![
            attack(ip(1), AttackProtocol::Quic, 100, 200), // concurrent
            attack(ip(1), AttackProtocol::Quic, 5000, 5100), // sequential
            attack(ip(9), AttackProtocol::Quic, 0, 100),   // isolated
        ];
        let common = vec![attack(ip(1), AttackProtocol::TcpIcmp, 150, 300)];
        let report = classify_multivector(&quic, &common);
        let total = report.share(MultiVectorClass::Concurrent)
            + report.share(MultiVectorClass::Sequential)
            + report.share(MultiVectorClass::Isolated);
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(report.class_counts["concurrent"], 1);
        assert_eq!(report.class_counts["sequential"], 1);
        assert_eq!(report.class_counts["isolated"], 1);
    }

    #[test]
    fn best_overlap_wins_among_multiple_commons() {
        let quic = vec![attack(ip(1), AttackProtocol::Quic, 100, 200)];
        let common = vec![
            attack(ip(1), AttackProtocol::TcpIcmp, 190, 300), // 10 s overlap
            attack(ip(1), AttackProtocol::TcpIcmp, 100, 180), // 80 s overlap
        ];
        let report = classify_multivector(&quic, &common);
        assert!((report.attacks[0].overlap_share.unwrap() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let report = classify_multivector(&[], &[]);
        assert!(report.attacks.is_empty());
        assert_eq!(report.share(MultiVectorClass::Concurrent), 0.0);
    }

    #[test]
    fn timeline_orders_rows() {
        let quic = vec![
            attack(ip(1), AttackProtocol::Quic, 500, 600),
            attack(ip(1), AttackProtocol::Quic, 100, 200),
            attack(ip(2), AttackProtocol::Quic, 0, 50),
        ];
        let common = vec![attack(ip(1), AttackProtocol::TcpIcmp, 150, 400)];
        let timeline = victim_timeline(ip(1), &quic, &common);
        assert_eq!(timeline.rows.len(), 3);
        assert_eq!(timeline.rows[0], ("QUIC".to_string(), 100, 200));
        assert_eq!(timeline.rows[1], ("TCP/ICMP".to_string(), 150, 400));
        assert_eq!(timeline.rows[2], ("QUIC".to_string(), 500, 600));
    }

    #[test]
    fn class_labels() {
        assert_eq!(MultiVectorClass::Concurrent.label(), "concurrent");
        assert_eq!(MultiVectorClass::Sequential.label(), "sequential");
        assert_eq!(MultiVectorClass::Isolated.label(), "isolated");
    }

    #[test]
    fn vector_kind_labels() {
        assert_eq!(
            VectorKind::RetryAmplification.label(),
            "retry-amplification"
        );
        assert_eq!(VectorKind::MigrationAbuse.label(), "migration-abuse");
    }

    #[test]
    fn empty_signals_leave_kinds_empty() {
        let quic = vec![attack(ip(1), AttackProtocol::Quic, 100, 200)];
        let report = classify_multivector(&quic, &[]);
        assert!(report.attacks[0].kinds.is_empty());
        assert!(report.kind_counts.is_empty());
    }

    #[test]
    fn retry_evidence_attaches_retry_amplification() {
        let quic = vec![
            attack(ip(1), AttackProtocol::Quic, 100, 200),
            attack(ip(2), AttackProtocol::Quic, 300, 400),
        ];
        let mut signals = VectorSignals::empty();
        signals.record_retry(ip(1));
        signals.record_retry(ip(1));
        let report = classify_multivector_with(&quic, &[], &signals);
        assert_eq!(
            report.attacks[0].kinds,
            vec![VectorKind::RetryAmplification]
        );
        assert!(report.attacks[1].kinds.is_empty());
        assert_eq!(report.kind_counts["retry-amplification"], 1);
    }

    #[test]
    fn migration_evidence_attaches_migration_abuse() {
        let quic = vec![attack(ip(3), AttackProtocol::Quic, 100, 200)];
        let mut signals = VectorSignals::empty();
        signals.record_migration(ip(3));
        let report = classify_multivector_with(&quic, &[], &signals);
        assert_eq!(report.attacks[0].kinds, vec![VectorKind::MigrationAbuse]);
        assert_eq!(report.kind_counts["migration-abuse"], 1);
    }

    #[test]
    fn both_kinds_attach_in_stable_order() {
        let quic = vec![attack(ip(4), AttackProtocol::Quic, 100, 200)];
        let mut signals = VectorSignals::empty();
        signals.record_migration(ip(4));
        signals.record_retry(ip(4));
        let report = classify_multivector_with(&quic, &[], &signals);
        assert_eq!(
            report.attacks[0].kinds,
            vec![VectorKind::RetryAmplification, VectorKind::MigrationAbuse]
        );
    }

    #[test]
    fn report_with_kinds_roundtrips_through_json() {
        let quic = vec![attack(ip(1), AttackProtocol::Quic, 0, 100)];
        let mut signals = VectorSignals::empty();
        signals.record_retry(ip(1));
        let report = classify_multivector_with(&quic, &[], &signals);
        let json = serde_json::to_string(&report).expect("serialize");
        assert!(json.contains("RetryAmplification"));
        let parsed: MultiVectorReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(parsed, report);
    }
}
