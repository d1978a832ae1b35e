//! Detection quality against the planted floods: recall, precision and
//! event-time to detection. Exact: the same input gives the same values.

use crate::passes::{AttackKey, OpenedAlert};
use crate::stats::median;
use crate::workloads::Planted;
use quicsand_sessions::dos::AttackProtocol;

/// Detection quality of one live pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Planted floods.
    pub planted: usize,
    /// Closed alerts.
    pub alerts: usize,
    /// Planted floods matched by a closed alert, over planted.
    pub recall: f64,
    /// Closed alerts matching a planted flood, over closed alerts.
    pub precision: f64,
    /// Median over detected floods of `Opened.at` − planted start,
    /// event-time seconds.
    pub time_to_detect_s: f64,
}

/// Matches closed alerts to planted floods by victim, protocol and time
/// overlap.
pub fn score(planted: &[Planted], closed: &[AttackKey], opened: &[OpenedAlert]) -> Quality {
    let overlaps = |flood: &Planted, alert: &AttackKey| {
        let (start, victim, quic, end, _) = *alert;
        victim == flood.victim
            && quic == (flood.protocol == AttackProtocol::Quic)
            && start <= flood.end.as_micros()
            && end >= flood.start.as_micros()
    };
    let found = planted
        .iter()
        .filter(|flood| closed.iter().any(|alert| overlaps(flood, alert)))
        .count();
    let true_alerts = closed
        .iter()
        .filter(|alert| planted.iter().any(|flood| overlaps(flood, alert)))
        .count();
    let delays: Vec<f64> = planted
        .iter()
        .filter_map(|flood| {
            opened
                .iter()
                .filter(|(victim, protocol, at)| {
                    *victim == flood.victim
                        && *protocol == flood.protocol
                        && *at >= flood.start
                        && *at <= flood.end
                })
                .map(|(_, _, at)| at.saturating_since(flood.start).as_secs_f64())
                .min_by(f64::total_cmp)
        })
        .collect();
    Quality {
        planted: planted.len(),
        alerts: closed.len(),
        recall: found as f64 / planted.len().max(1) as f64,
        precision: true_alerts as f64 / closed.len().max(1) as f64,
        time_to_detect_s: median(&delays),
    }
}
