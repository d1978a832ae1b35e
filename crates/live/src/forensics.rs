//! Replayable per-alert forensics: self-contained qlog slices.
//!
//! A closed alert's evidence ring holds only the tail of the flood; the
//! per-minute arrival profile ([`ProfileCell`]) holds the rest of what
//! the detector's decision depended on. Together they make a *slice*:
//! a small qlog JSON-SEQ file that carries the detector configuration,
//! the victim's QUIC arrival profile, every same-victim TCP/ICMP flood
//! profile, the retained evidence packets, and the verdict the live run
//! reached.
//!
//! The replay contract: synthesizing packets from the profiles
//! ([`synthesize_packets`]) and feeding them through a **fresh**
//! [`LiveDetector`] with the slice's configuration reproduces the same
//! closed alert — identical [`Attack`] record — and the same
//! `classify_multivector` verdict. The synthesis is exact on everything
//! the detector measures: slot endpoints are real packet times, middles
//! are evenly spaced between them, so per-minute counts, session
//! bounds, packet totals and the max 1-minute rate all reproduce;
//! interpolated inter-packet gaps never exceed the largest original gap
//! (mean ≤ max), so the session never splits during replay.

use crate::alert::EvidencePacket;
use crate::detector::{LiveConfig, LiveDetector, ProfileCell};
use quicsand_events::qlog::{parse_qlog, QlogWriter};
use quicsand_net::Timestamp;
use quicsand_sessions::dos::{Attack, AttackProtocol};
use quicsand_sessions::multivector::MultiVectorClass;
use quicsand_sessions::window::check_profile;
use serde::{Deserialize, Serialize, Value};
use std::net::Ipv4Addr;

/// One channel's contribution to a forensic slice: the closed attack,
/// its arrival profile, and the retained evidence packets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceChannel {
    /// The closed attack record.
    pub attack: Attack,
    /// Per-minute arrival profile at close time, sorted by bucket.
    pub profile: Vec<ProfileCell>,
    /// Evidence ring contents at close time, oldest first.
    pub evidence: Vec<EvidencePacket>,
}

/// A self-contained, replayable description of one closed QUIC alert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertSlice {
    /// Index of the alert in the run's merged close order.
    pub alert_index: usize,
    /// The flood victim both channels share.
    pub victim: Ipv4Addr,
    /// Detector configuration the alert was produced under (replay uses
    /// exactly this).
    pub config: LiveConfig,
    /// The QUIC alert itself.
    pub quic: SliceChannel,
    /// Every same-victim TCP/ICMP flood that closed during the run —
    /// the inputs to the multi-vector verdict.
    pub commons: Vec<SliceChannel>,
    /// The verdict the live run reached (after all reclassifications).
    pub class: MultiVectorClass,
    /// Overlap share behind a `Concurrent` verdict.
    pub overlap_share: Option<f64>,
    /// Gap in seconds behind a `Sequential` verdict.
    pub gap_secs: Option<f64>,
}

/// One synthesized packet of a slice replay stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlicePacket {
    /// Synthesized arrival time.
    pub at: Timestamp,
    /// Which detection channel the packet belongs to.
    pub protocol: AttackProtocol,
    /// The flood victim (backscatter source).
    pub victim: Ipv4Addr,
}

/// What a successful slice replay reproduced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The reproduced attack record (equals the slice's).
    pub attack: Attack,
    /// The reproduced verdict (equals the slice's).
    pub class: MultiVectorClass,
    /// Reproduced overlap share.
    pub overlap_share: Option<f64>,
    /// Reproduced sequential gap in seconds.
    pub gap_secs: Option<f64>,
}

/// Synthesizes per-packet timestamps from an arrival profile.
///
/// Each slot contributes `count` packets: `first` and `last` exactly,
/// middles evenly spaced between them (u128 arithmetic, no overflow).
/// All synthesized times stay inside `[first, last]` and therefore
/// inside the slot's minute bucket, so per-minute counts — and with
/// them `max_pps` — reproduce exactly.
pub fn synthesize_packets(profile: &[ProfileCell]) -> Vec<Timestamp> {
    let mut out = Vec::new();
    for cell in profile {
        if cell.count == 1 {
            out.push(cell.first);
            continue;
        }
        let base = cell.first.as_micros();
        let span = (cell.last.as_micros() - base) as u128;
        for i in 0..cell.count {
            let offset = (span * i as u128 / (cell.count - 1) as u128) as u64;
            out.push(Timestamp::from_micros(base + offset));
        }
    }
    // Profiles are bucket-sorted and cells are disjoint in time, but a
    // sort keeps the contract independent of that invariant.
    out.sort_unstable();
    out
}

impl AlertSlice {
    /// The slice's replay stream: both channels' synthesized packets,
    /// merged into time order (stable, so each channel's own packets
    /// keep their synthesis order).
    pub fn replay_packets(&self) -> Vec<SlicePacket> {
        let mut packets: Vec<SlicePacket> = Vec::new();
        for at in synthesize_packets(&self.quic.profile) {
            packets.push(SlicePacket {
                at,
                protocol: AttackProtocol::Quic,
                victim: self.victim,
            });
        }
        for common in &self.commons {
            for at in synthesize_packets(&common.profile) {
                packets.push(SlicePacket {
                    at,
                    protocol: AttackProtocol::TcpIcmp,
                    victim: self.victim,
                });
            }
        }
        packets.sort_by_key(|p| p.at);
        packets
    }

    /// Serializes the slice as a standalone qlog JSON-SEQ file: the
    /// header, one `quicsand:alert_slice` record carrying the whole
    /// slice, one `quicsand:slice_packet` record per synthesized replay
    /// packet, and one `quicsand:slice_evidence` record per retained
    /// evidence packet.
    pub fn to_qlog(&self) -> Result<Vec<u8>, String> {
        let title = format!(
            "quicsand alert slice #{} victim {}",
            self.alert_index, self.victim
        );
        let (mut writer, buffer) =
            QlogWriter::to_buffer(&title, &[format!("alert-{}", self.alert_index)])?;
        writer.raw_record(self.quic.attack.start, "quicsand:alert_slice", self);
        for packet in self.replay_packets() {
            writer.raw_record(packet.at, "quicsand:slice_packet", &packet);
        }
        for evidence in self
            .quic
            .evidence
            .iter()
            .chain(self.commons.iter().flat_map(|c| c.evidence.iter()))
        {
            writer.raw_record(evidence.ts, "quicsand:slice_evidence", evidence);
        }
        writer.finish()?;
        Ok(buffer.contents())
    }
}

/// Parses a slice qlog file back into the slice and its replay stream.
///
/// Validates RFC 7464 framing and the qlog header first, and every
/// channel's arrival profile last ([`check_profile`]: a cell out of
/// order or with `first` after `last` is refused here, by channel and
/// minute, rather than underflowing a later [`synthesize_packets`]);
/// the replay stream is taken from the `quicsand:slice_packet` records,
/// so the replay really consumes what the file carries.
pub fn parse_slice_qlog(bytes: &[u8]) -> Result<(AlertSlice, Vec<SlicePacket>), String> {
    let records = parse_qlog(bytes)?;
    let mut slice: Option<AlertSlice> = None;
    let mut packets: Vec<SlicePacket> = Vec::new();
    for record in records.iter().skip(1) {
        let Some(Value::Str(name)) = record.get("name") else {
            continue;
        };
        let data = || {
            record
                .get("data")
                .cloned()
                .ok_or_else(|| format!("{name} record has no data"))
        };
        match name.as_str() {
            "quicsand:alert_slice" => {
                let parsed = serde::from_value::<AlertSlice>(data()?)
                    .map_err(|e| format!("alert_slice decode: {e}"))?;
                if slice.replace(parsed).is_some() {
                    return Err("more than one alert_slice record".into());
                }
            }
            "quicsand:slice_packet" => {
                packets.push(
                    serde::from_value::<SlicePacket>(data()?)
                        .map_err(|e| format!("slice_packet decode: {e}"))?,
                );
            }
            _ => {}
        }
    }
    let slice = slice.ok_or("no alert_slice record in file")?;
    check_profile(&slice.quic.profile).map_err(|e| format!("alert_slice QUIC profile: {e}"))?;
    for (i, common) in slice.commons.iter().enumerate() {
        check_profile(&common.profile)
            .map_err(|e| format!("alert_slice common flood {i} profile: {e}"))?;
    }
    Ok((slice, packets))
}

/// Feeds a slice's replay stream through a fresh [`LiveDetector`] and
/// checks the replay contract: the run must close exactly one QUIC
/// alert with the slice's attack record and verdict, and reproduce
/// every common flood the slice carries.
pub fn replay_slice(slice: &AlertSlice, packets: &[SlicePacket]) -> Result<ReplayOutcome, String> {
    let mut detector = LiveDetector::new(slice.config);
    let dst = slice
        .quic
        .evidence
        .first()
        .map_or(Ipv4Addr::UNSPECIFIED, |e| e.dst);
    for packet in packets {
        match packet.protocol {
            AttackProtocol::Quic => {
                detector.offer_response(packet.at, packet.victim, dst, 0);
            }
            AttackProtocol::TcpIcmp => {
                detector.offer_baseline(packet.at, packet.victim, dst, 0);
            }
        }
    }
    detector.finish();

    let closed = detector.closed_quic();
    if closed.len() != 1 {
        return Err(format!(
            "replay closed {} QUIC alerts, expected exactly 1",
            closed.len()
        ));
    }
    let got = &closed[0];
    if got.attack != slice.quic.attack {
        return Err(format!(
            "replayed attack diverges:\n  got  {:?}\n  want {:?}",
            got.attack, slice.quic.attack
        ));
    }
    let want_commons: Vec<&Attack> = slice.commons.iter().map(|c| &c.attack).collect();
    let got_commons: Vec<&Attack> = detector.closed_common().iter().map(|c| &c.attack).collect();
    if got_commons != want_commons {
        return Err(format!(
            "replayed common floods diverge:\n  got  {:?}\n  want {:?}",
            got_commons, want_commons
        ));
    }
    let (class, overlap_share, gap) = got.verdict();
    let gap_secs = gap.map(|g| g.as_secs_f64());
    if class != slice.class || overlap_share != slice.overlap_share || gap_secs != slice.gap_secs {
        return Err(format!(
            "replayed verdict diverges: got ({:?}, {:?}, {:?}), want ({:?}, {:?}, {:?})",
            class, overlap_share, gap_secs, slice.class, slice.overlap_share, slice.gap_secs
        ));
    }
    Ok(ReplayOutcome {
        attack: got.attack.clone(),
        class,
        overlap_share,
        gap_secs,
    })
}

impl LiveDetector {
    /// Builds the self-contained forensic slice for closed QUIC alert
    /// `index` (close order), or `None` if out of range. The victim's
    /// common floods come from the detector's per-victim index.
    pub fn alert_slice(&self, index: usize) -> Option<AlertSlice> {
        let classified = self.closed_quic().get(index)?;
        let victim = classified.attack.victim;
        let commons = self.common_on(victim).cloned().collect();
        let (class, overlap_share, gap) = classified.verdict();
        Some(AlertSlice {
            alert_index: index,
            victim,
            config: *self.config(),
            quic: SliceChannel {
                attack: classified.attack.clone(),
                profile: classified.profile.clone(),
                evidence: classified.evidence.clone(),
            },
            commons,
            class,
            overlap_share,
            gap_secs: gap.map(|g| g.as_secs_f64()),
        })
    }

    /// Forensic slices for every closed QUIC alert, in close order.
    pub fn alert_slices(&self) -> Vec<AlertSlice> {
        (0..self.closed_quic().len())
            .filter_map(|i| self.alert_slice(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_net::Duration;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, last)
    }

    fn dst() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }

    /// Feeds a 2-pps flood for `secs` seconds starting at `start_secs`.
    fn flood(detector: &mut LiveDetector, victim: Ipv4Addr, start_secs: u64, secs: u64) {
        for i in 0..(secs * 2) {
            let ts = Timestamp::from_micros(start_secs * 1_000_000 + i * 500_000);
            detector.offer_response(ts, victim, dst(), 60);
        }
    }

    #[test]
    fn synthesis_is_exact_on_endpoints_counts_and_buckets() {
        let profile = vec![
            ProfileCell {
                minute: 0,
                count: 3,
                first: Timestamp::from_secs(10),
                last: Timestamp::from_secs(50),
            },
            ProfileCell {
                minute: 1,
                count: 1,
                first: Timestamp::from_secs(90),
                last: Timestamp::from_secs(90),
            },
        ];
        let packets = synthesize_packets(&profile);
        assert_eq!(packets.len(), 4);
        assert_eq!(packets[0], Timestamp::from_secs(10));
        assert_eq!(packets[1], Timestamp::from_secs(30));
        assert_eq!(packets[2], Timestamp::from_secs(50));
        assert_eq!(packets[3], Timestamp::from_secs(90));
        for p in &packets[..3] {
            assert_eq!(p.minute_bucket(), 0);
        }
        assert_eq!(packets[3].minute_bucket(), 1);
    }

    #[test]
    fn isolated_alert_replays_to_the_identical_attack() {
        let mut d = LiveDetector::new(LiveConfig::default());
        flood(&mut d, ip(1), 0, 180);
        d.finish();
        assert_eq!(d.closed_quic().len(), 1);
        let slice = d.alert_slice(0).expect("slice");
        assert_eq!(slice.class, MultiVectorClass::Isolated);
        let outcome = replay_slice(&slice, &slice.replay_packets()).expect("replay");
        assert_eq!(outcome.attack, slice.quic.attack);
    }

    #[test]
    fn concurrent_alert_replays_with_the_same_verdict() {
        let mut d = LiveDetector::new(LiveConfig::default());
        // Common flood 0..600 s, QUIC flood 100..220 s inside it.
        for i in 0..(600 * 2) {
            d.offer_baseline(Timestamp::from_micros(i * 500_000), ip(2), dst(), 60);
        }
        flood(&mut d, ip(2), 100, 120);
        d.finish();
        let slice = d.alert_slice(0).expect("slice");
        assert_eq!(slice.class, MultiVectorClass::Concurrent);
        assert_eq!(slice.commons.len(), 1);
        let outcome = replay_slice(&slice, &slice.replay_packets()).expect("replay");
        assert_eq!(outcome.class, MultiVectorClass::Concurrent);
        assert_eq!(outcome.overlap_share, slice.overlap_share);
    }

    #[test]
    fn sequential_alert_replays_with_the_same_gap() {
        let mut d = LiveDetector::new(LiveConfig::default());
        // QUIC flood 0..180 s, common flood 600..780 s: disjoint, same
        // victim → Sequential with a 420 s gap.
        flood(&mut d, ip(3), 0, 180);
        for i in 0..(180 * 2) {
            d.offer_baseline(
                Timestamp::from_micros(600 * 1_000_000 + i * 500_000),
                ip(3),
                dst(),
                60,
            );
        }
        d.finish();
        let slice = d.alert_slice(0).expect("slice");
        assert_eq!(slice.class, MultiVectorClass::Sequential);
        assert!(slice.gap_secs.is_some());
        replay_slice(&slice, &slice.replay_packets()).expect("replay");
    }

    #[test]
    fn slice_qlog_roundtrips_and_replays() {
        let mut d = LiveDetector::new(LiveConfig::default());
        flood(&mut d, ip(4), 0, 180);
        for i in 0..(120 * 2) {
            d.offer_baseline(
                Timestamp::from_micros(60 * 1_000_000 + i * 500_000),
                ip(4),
                dst(),
                60,
            );
        }
        d.finish();
        let slice = d.alert_slice(0).expect("slice");
        let bytes = slice.to_qlog().expect("serialize");
        let (parsed, packets) = parse_slice_qlog(&bytes).expect("parse");
        assert_eq!(parsed, slice);
        assert_eq!(packets, slice.replay_packets());
        replay_slice(&parsed, &packets).expect("replay from file");
    }

    #[test]
    fn a_slice_with_a_malformed_profile_is_refused_at_parse() {
        let mut d = LiveDetector::new(LiveConfig::default());
        flood(&mut d, ip(7), 0, 180);
        // Offset from the QUIC flood, so no cell of the two profiles
        // encodes the same.
        for i in 0..(120 * 2) {
            let ts = Timestamp::from_micros(70 * 1_000_000 + i * 500_000);
            d.offer_baseline(ts, ip(7), dst(), 60);
        }
        d.finish();
        let slice = d.alert_slice(0).expect("slice");
        let text = String::from_utf8(slice.to_qlog().expect("serialize")).expect("utf-8");
        let json = |cells: &[ProfileCell]| {
            let cells: Vec<String> = cells
                .iter()
                .map(|c| serde_json::to_string(c).expect("cell encodes"))
                .collect();
            cells.join(",")
        };
        let tamper = |from: &[ProfileCell], to: &[ProfileCell]| {
            let (from, to) = (json(from), json(to));
            assert_eq!(
                text.matches(&from).count(),
                1,
                "{from} once in the slice text"
            );
            text.replacen(&from, &to, 1).into_bytes()
        };

        // One busy QUIC cell with `first` and `last` swapped.
        let busy = slice.quic.profile[1];
        assert!(busy.count > 1 && busy.first < busy.last);
        let swapped = ProfileCell {
            first: busy.last,
            last: busy.first,
            ..busy
        };
        let err = parse_slice_qlog(&tamper(&[busy], &[swapped])).expect_err("first > last");
        assert!(err.contains("QUIC profile"), "{err}");
        assert!(err.contains(&format!("minute {}", busy.minute)), "{err}");

        // Two cells of the common flood in the wrong order.
        let cells = &slice.commons[0].profile[..2];
        let err = parse_slice_qlog(&tamper(cells, &[cells[1], cells[0]])).expect_err("order");
        assert!(err.contains("common flood 0 profile"), "{err}");
        assert!(
            err.contains(&format!("minute {}", cells[0].minute)),
            "{err}"
        );

        // The untouched text still parses and replays.
        let (parsed, packets) = parse_slice_qlog(text.as_bytes()).expect("parse");
        assert_eq!(parsed, slice);
        replay_slice(&parsed, &packets).expect("replay");
    }

    #[test]
    fn tampered_slice_fails_the_replay_contract() {
        let mut d = LiveDetector::new(LiveConfig::default());
        flood(&mut d, ip(5), 0, 180);
        d.finish();
        let mut slice = d.alert_slice(0).expect("slice");
        // Claim a larger flood than the profile synthesizes.
        slice.quic.attack.packet_count += 1;
        let err = replay_slice(&slice, &slice.replay_packets()).unwrap_err();
        assert!(err.contains("diverges"), "{err}");
    }

    #[test]
    fn synthesized_gaps_never_exceed_the_session_timeout() {
        let mut d = LiveDetector::new(LiveConfig::default());
        // An irregular but qualifying flood: bursts with dead air just
        // under the timeout between them.
        let timeout = LiveConfig::default().session.timeout;
        let mut ts = Timestamp::from_secs(0);
        for burst in 0..12u64 {
            for i in 0..120u64 {
                d.offer_response(
                    Timestamp::from_micros(ts.as_micros() + i * 250_000),
                    ip(6),
                    dst(),
                    60,
                );
            }
            ts = Timestamp::from_micros(
                ts.as_micros() + 30_000_000 + (timeout.as_micros() - 1_000_000),
            );
            let _ = burst;
        }
        d.finish();
        assert_eq!(d.closed_quic().len(), 1, "one un-split session");
        let slice = d.alert_slice(0).expect("slice");
        let packets = synthesize_packets(&slice.quic.profile);
        for w in packets.windows(2) {
            assert!(
                w[1].saturating_since(w[0]) <= timeout,
                "replay gap {:?} exceeds timeout",
                w[1].saturating_since(w[0])
            );
        }
        replay_slice(&slice, &slice.replay_packets()).expect("replay");
        let _ = Duration::ZERO;
    }
}
