//! The incremental flood detector: per-victim sliding-window state,
//! watermark-driven expiry, alert lifecycle, and online multi-vector
//! classification.
//!
//! [`LiveDetector`] has the batch pipeline's semantics:
//!
//! * session boundaries are the batch `Sessionizer`'s by construction —
//!   each channel is an adapter over the same
//!   [`SessionTable`] (join while the per-victim gap ≤ timeout, bounds
//!   widen for tolerated late packets, expiry deferred by the skew
//!   tolerance, amortized idle sweep), with the alert phase and the
//!   evidence ring as the window's payload — a ring that stays
//!   unallocated until the session is within `evidence_capacity`
//!   packets of the thresholds' packet floor, since no earlier packet
//!   can be emitted;
//! * an alert `Opened`/`Escalated` transition fires the moment the
//!   victim's open session crosses the (scaled) `DosThresholds` — all
//!   three measures are monotone non-decreasing within a session, so
//!   transitions never revert;
//! * a `Closed` alert carries an [`Attack`] with byte-identical fields
//!   to what batch `detect_attacks` computes for the same session.
//!
//! Consequently, on any finite stream the set of closed alerts equals
//! the batch detection output — *unless* the hard per-channel victim
//! cap ([`LiveConfig::max_victims`]) forces an LRU eviction, which may
//! truncate that victim's session (flagged `evicted` and counted in
//! [`LiveStats::evictions`]).

use crate::alert::{EvidencePacket, LiveEvent, LiveEventKind};
use crate::forensics::SliceChannel;
use quicsand_net::{Duration, Timestamp};
use quicsand_sessions::dos::{Attack, AttackProtocol, DosThresholds};
use quicsand_sessions::multivector::{self, MultiVectorClass};
use quicsand_sessions::session::SessionConfig;
pub use quicsand_sessions::window::ProfileCell;
use quicsand_sessions::window::{
    check_profile, CloseReason, Closed, Counted, SessionTable, Steps, Window,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Live-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LiveConfig {
    /// Base alert thresholds (paper: Moore et al. defaults).
    pub thresholds: DosThresholds,
    /// Sessionization parameters. `skew_tolerance` must cover the
    /// ingest guard's reorder tolerance, exactly as in the batch path.
    pub session: SessionConfig,
    /// Escalation tier: base thresholds scaled by this weight
    /// (Appendix-B style). An open alert escalates when its session
    /// crosses `thresholds.scaled(escalation_weight)`.
    pub escalation_weight: f64,
    /// Evidence packets carried by every alert that closes: its
    /// session's last this many packets, kept in a ring buffer.
    pub evidence_capacity: usize,
    /// Hard cap on tracked victims per channel: inserting a new victim
    /// beyond this evicts the least-recently-active one. Bounds memory
    /// under sustained many-victim floods.
    pub max_victims: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            thresholds: DosThresholds::moore(),
            session: SessionConfig::default(),
            escalation_weight: 4.0,
            evidence_capacity: 16,
            max_victims: 65_536,
        }
    }
}

/// Where a victim's alert currently stands. Monotone: transitions only
/// ever move rightwards (Quiet → Open → Escalated), because every
/// threshold measure is non-decreasing while the session is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum AlertPhase {
    /// Below the base thresholds.
    Quiet,
    /// Crossed the base thresholds.
    Open,
    /// Crossed the escalation tier.
    Escalated,
}

/// What a channel attaches to a victim's open [`Window`]: where its
/// alert stands and the most recent packets a close could emit.
#[derive(Debug, Clone, PartialEq)]
struct AlertState {
    phase: AlertPhase,
    /// Evidence ring, managed through `cursor`. Snapshots write it in
    /// chronological order and restore it with `cursor` 0, its oldest
    /// slot (see [`ChannelDetector::restore`]).
    evidence: Vec<EvidencePacket>,
    cursor: usize,
}

impl AlertState {
    /// The state of a session that has just opened: no ring yet, most
    /// sessions never qualify.
    fn fresh() -> Self {
        AlertState {
            phase: AlertPhase::Quiet,
            evidence: Vec::new(),
            cursor: 0,
        }
    }

    fn push_evidence(&mut self, packet: EvidencePacket, capacity: usize) {
        if capacity == 0 {
            return;
        }
        if self.evidence.len() < capacity {
            if self.evidence.capacity() == 0 {
                self.evidence.reserve_exact(capacity.min(64));
            }
            self.evidence.push(packet);
        } else {
            self.evidence[self.cursor] = packet;
            self.cursor = (self.cursor + 1) % capacity;
        }
    }

    /// Evidence in chronological order (unwinds the ring). While the
    /// ring is not yet full, `cursor` is 0 and the rotation is the
    /// identity; once full, `cursor` points at the oldest slot.
    fn evidence_chronological(&self) -> Vec<EvidencePacket> {
        let mut out = Vec::with_capacity(self.evidence.len());
        out.extend_from_slice(&self.evidence[self.cursor..]);
        out.extend_from_slice(&self.evidence[..self.cursor]);
        out
    }
}

/// Detector counters — the live analogue of `IngestStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveStats {
    /// Packets offered to the detector (post-ingest-guard).
    pub events_in: u64,
    /// Alerts opened.
    pub opened: u64,
    /// Alerts escalated.
    pub escalated: u64,
    /// Alerts closed (qualifying sessions only).
    pub closed: u64,
    /// Reclassification events emitted.
    pub reclassified: u64,
    /// Victims evicted under the memory cap.
    pub evictions: u64,
    /// High-water mark of simultaneously tracked victims — the
    /// quantity [`LiveConfig::max_victims`] bounds.
    pub peak_tracked: usize,
}

impl LiveStats {
    /// Field-wise sum (peaks sum too: the result is an upper bound on
    /// simultaneously held state across shards/channels).
    pub fn merge(&mut self, other: &LiveStats) {
        self.events_in += other.events_in;
        self.opened += other.opened;
        self.escalated += other.escalated;
        self.closed += other.closed;
        self.reclassified += other.reclassified;
        self.evictions += other.evictions;
        self.peak_tracked += other.peak_tracked;
    }
}

/// One open victim in a [`ChannelSnapshot`]: its [`Window`] and its
/// [`AlertState`], with the evidence ring oldest first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct VictimEntry {
    src: Ipv4Addr,
    window: Window,
    phase: AlertPhase,
    evidence: Vec<EvidencePacket>,
}

/// Serializable checkpoint of one channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ChannelSnapshot {
    watermark: Timestamp,
    last_sweep: Timestamp,
    stats: LiveStats,
    /// Open victims sorted by address; evidence rings in chronological
    /// order, so identical logical state always serializes identically.
    states: Vec<VictimEntry>,
}

/// What one offered packet does to a channel's alerts: the [`Steps`] of
/// [`ChannelDetector::offer`]. Every lifecycle event is pushed where the
/// table reports it, and a close is recorded in the detector's
/// [`ClosedFloods`] on the spot.
struct Alerts<'a> {
    protocol: AttackProtocol,
    thresholds: &'a DosThresholds,
    escalation: &'a DosThresholds,
    evidence_capacity: usize,
    /// See [`ChannelDetector::evidence_from`].
    evidence_from: u64,
    /// The rest of the offered packet's evidence row.
    dst: Ipv4Addr,
    bytes: u64,
    stats: &'a mut LiveStats,
    floods: &'a mut ClosedFloods,
    out: &'a mut Vec<LiveEvent>,
}

impl Steps<AlertState> for Alerts<'_> {
    fn closed(&mut self, closed: Closed<AlertState>) {
        close_state(self.protocol, self.stats, self.floods, closed, self.out);
    }

    /// Records the packet as evidence (once a close could emit it) and
    /// advances the victim's alert phase as far as the thresholds allow,
    /// emitting one event per transition. Monotone measures ⇒ no reverse
    /// transitions, ever.
    #[inline]
    fn counted(&mut self, counted: Counted<'_, AlertState>) {
        let Counted {
            at,
            src: victim,
            window,
            payload: state,
            ..
        } = counted;
        if window.packet_count > self.evidence_from {
            let packet = EvidencePacket {
                ts: at,
                dst: self.dst,
                bytes: self.bytes,
            };
            state.push_evidence(packet, self.evidence_capacity);
        }
        let (packets, duration, max_pps) =
            (window.packet_count, window.duration(), window.max_pps());
        if state.phase == AlertPhase::Quiet
            && self.thresholds.matches_measures(packets, duration, max_pps)
        {
            state.phase = AlertPhase::Open;
            self.stats.opened += 1;
            self.out.push(plain_event(
                at,
                self.protocol,
                victim,
                LiveEventKind::Opened,
            ));
        }
        if state.phase == AlertPhase::Open
            && self.escalation.matches_measures(packets, duration, max_pps)
        {
            state.phase = AlertPhase::Escalated;
            self.stats.escalated += 1;
            self.out.push(plain_event(
                at,
                self.protocol,
                victim,
                LiveEventKind::Escalated,
            ));
        }
    }
}

/// Closes a window the table gave up: a qualifying session becomes a
/// closed flood in `floods`, which emits its `Closed` (and, for a common
/// flood, any `Reclassified`); a quiet one vanishes (exactly the sessions
/// batch `detect_attacks` would filter out). An eviction is the one
/// documented divergence from batch, counted and flagged on the event.
fn close_state(
    protocol: AttackProtocol,
    stats: &mut LiveStats,
    floods: &mut ClosedFloods,
    closed: Closed<AlertState>,
    out: &mut Vec<LiveEvent>,
) {
    let Closed {
        why,
        src: victim,
        window,
        payload: state,
        ..
    } = closed;
    let evicted = why == CloseReason::Evicted;
    stats.evictions += u64::from(evicted);
    if state.phase == AlertPhase::Quiet {
        return;
    }
    stats.closed += 1;
    let flood = SliceChannel {
        attack: Attack {
            victim,
            protocol,
            start: window.start,
            end: window.last,
            packet_count: window.packet_count,
            max_pps: window.max_pps(),
        },
        evidence: state.evidence_chronological(),
        profile: window.profile,
    };
    match protocol {
        AttackProtocol::Quic => floods.close_quic(flood, evicted, out),
        AttackProtocol::TcpIcmp => floods.close_common(flood, evicted, out),
    }
}

/// One detection channel (QUIC responses, or the TCP/ICMP baseline): a
/// [`SessionTable`] of per-victim windows capped at
/// [`LiveConfig::max_victims`], each carrying its [`AlertState`].
#[derive(Debug)]
struct ChannelDetector {
    protocol: AttackProtocol,
    thresholds: DosThresholds,
    escalation: DosThresholds,
    evidence_capacity: usize,
    /// Arrivals up to this one are never recorded as evidence. A session
    /// that closes as an alert crossed the base thresholds, so it has at
    /// least [`DosThresholds::qualifying_packets`] arrivals and its last
    /// `evidence_capacity` all come after these. A ring restored with
    /// earlier entries has them overwritten before any close emits them.
    evidence_from: u64,
    table: SessionTable<AlertState>,
    stats: LiveStats,
}

impl ChannelDetector {
    fn new(protocol: AttackProtocol, config: &LiveConfig) -> Self {
        ChannelDetector {
            protocol,
            thresholds: config.thresholds,
            escalation: config.thresholds.scaled(config.escalation_weight),
            evidence_capacity: config.evidence_capacity,
            evidence_from: config
                .thresholds
                .qualifying_packets()
                .saturating_sub(config.evidence_capacity as u64),
            table: SessionTable::new(config.session, config.max_victims),
            stats: LiveStats::default(),
        }
    }

    /// Offers one packet attributed to `victim`. Emits the closes the
    /// table reports first (sweep, then gap close or evictions), then
    /// this packet's own transition.
    fn offer(
        &mut self,
        ts: Timestamp,
        victim: Ipv4Addr,
        dst: Ipv4Addr,
        bytes: u64,
        floods: &mut ClosedFloods,
        out: &mut Vec<LiveEvent>,
    ) {
        self.stats.events_in += 1;
        let mut alerts = Alerts {
            protocol: self.protocol,
            thresholds: &self.thresholds,
            escalation: &self.escalation,
            evidence_capacity: self.evidence_capacity,
            evidence_from: self.evidence_from,
            dst,
            bytes,
            stats: &mut self.stats,
            floods,
            out,
        };
        self.table.offer(ts, victim, AlertState::fresh, &mut alerts);
        self.stats.peak_tracked = self.table.peak_open();
    }

    /// Closes every remaining victim at end of stream.
    fn flush(&mut self, floods: &mut ClosedFloods, out: &mut Vec<LiveEvent>) {
        let (protocol, stats) = (self.protocol, &mut self.stats);
        self.table
            .flush(&mut |closed| close_state(protocol, stats, floods, closed, out));
    }

    fn snapshot(&self) -> ChannelSnapshot {
        let mut states: Vec<VictimEntry> = self
            .table
            .iter()
            .map(|(src, window, alert)| VictimEntry {
                src,
                window: window.clone(),
                phase: alert.phase,
                evidence: alert.evidence_chronological(),
            })
            .collect();
        states.sort_unstable_by_key(|entry| entry.src);
        ChannelSnapshot {
            watermark: self.table.watermark(),
            last_sweep: self.table.last_sweep(),
            stats: self.stats,
            states,
        }
    }

    /// The ring restores oldest first with `cursor` 0, so identical
    /// logical state resumes identically whatever its history, and the
    /// next overwrite hits the oldest entry.
    fn restore(protocol: AttackProtocol, config: &LiveConfig, snapshot: &ChannelSnapshot) -> Self {
        let open = snapshot.states.iter().map(|entry| {
            let alert = AlertState {
                phase: entry.phase,
                evidence: entry.evidence.clone(),
                cursor: 0,
            };
            (entry.src, entry.window.clone(), alert)
        });
        ChannelDetector {
            table: SessionTable::restore(
                config.session,
                config.max_victims,
                snapshot.watermark,
                snapshot.last_sweep,
                snapshot.stats.peak_tracked,
                open,
            ),
            stats: snapshot.stats,
            ..ChannelDetector::new(protocol, config)
        }
    }

    fn tracked(&self) -> usize {
        self.table.len()
    }
}

/// A closed QUIC attack with its current multi-vector verdict.
///
/// The verdict is *live*: it reflects the common-protocol floods closed
/// so far and can only strengthen (`Isolated` → `Sequential` →
/// `Concurrent`; overlap share grows; gap shrinks) as more commons
/// close. After the stream ends it equals the batch
/// `classify_multivector` result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassifiedAttack {
    /// The attack record (identical to batch `detect_attacks` output).
    pub attack: Attack,
    /// Per-minute arrival profile at close time — the basis of the
    /// replayable forensic slice (see [`crate::forensics`]).
    pub profile: Vec<ProfileCell>,
    /// Evidence ring contents at close time, oldest first.
    pub evidence: Vec<EvidencePacket>,
    /// Best overlap with any common flood on this victim so far.
    best_overlap: Duration,
    /// Smallest gap to any common flood on this victim so far (`None`
    /// while the victim has no common floods — Isolated).
    min_gap: Option<Duration>,
}

impl ClassifiedAttack {
    fn new(flood: SliceChannel) -> Self {
        ClassifiedAttack {
            attack: flood.attack,
            profile: flood.profile,
            evidence: flood.evidence,
            best_overlap: Duration::ZERO,
            min_gap: None,
        }
    }

    /// Folds one more common flood into the verdict. Returns `true`
    /// when the derived classification changed.
    fn absorb(&mut self, common: &Attack) -> bool {
        let before = self.verdict();
        let overlap = self.attack.overlap_with(common);
        if overlap > self.best_overlap {
            self.best_overlap = overlap;
        }
        let gap = self.attack.gap_to(common);
        let closer = match self.min_gap {
            Some(existing) => gap < existing,
            None => true,
        };
        if closer {
            self.min_gap = Some(gap);
        }
        self.verdict() != before
    }

    /// The derived `(class, overlap_share, gap)` triple — the batch
    /// classifier's own [`multivector::verdict`] (§5.2 / Appendix C).
    pub fn verdict(&self) -> (MultiVectorClass, Option<f64>, Option<Duration>) {
        multivector::verdict(&self.attack, self.best_overlap, self.min_gap)
    }

    /// The current class.
    pub fn class(&self) -> MultiVectorClass {
        self.verdict().0
    }

    /// Its `Closed` or `Reclassified` event at `at`, with its verdict.
    fn event(&self, at: Timestamp, kind: LiveEventKind) -> LiveEvent {
        let (class, share, gap) = self.verdict();
        LiveEvent {
            class: Some(class),
            overlap_share: share,
            gap_secs: gap.map(|g| g.as_secs_f64()),
            attack: Some(self.attack.clone()),
            ..plain_event(at, AttackProtocol::Quic, self.attack.victim, kind)
        }
    }
}

/// Every flood a detector has closed, each recorded once, as it closes,
/// and correlated per victim: a closing QUIC flood is classified against
/// the common floods closed so far, and a closing common flood
/// re-examines the QUIC floods closed so far.
#[derive(Debug, Default)]
struct ClosedFloods {
    /// Closed QUIC attacks with live verdicts, in close order.
    quic: Vec<ClassifiedAttack>,
    /// Closed common floods, in close order.
    common: Vec<SliceChannel>,
    /// Victim → indices into `quic` (for reclassification).
    quic_index: HashMap<Ipv4Addr, Vec<usize>>,
    /// Victim → indices into `common` (for classify-at-close and
    /// forensic slices).
    common_index: HashMap<Ipv4Addr, Vec<usize>>,
    reclassified: u64,
}

impl ClosedFloods {
    /// The closed floods of a checkpoint, with both per-victim indices
    /// rebuilt (they are derived state and never serialized).
    fn restore(quic: Vec<ClassifiedAttack>, common: Vec<SliceChannel>, reclassified: u64) -> Self {
        let mut floods = ClosedFloods {
            reclassified,
            ..ClosedFloods::default()
        };
        for (i, classified) in quic.iter().enumerate() {
            let victim = classified.attack.victim;
            floods.quic_index.entry(victim).or_default().push(i);
        }
        for (i, flood) in common.iter().enumerate() {
            let victim = flood.attack.victim;
            floods.common_index.entry(victim).or_default().push(i);
        }
        floods.quic = quic;
        floods.common = common;
        floods
    }

    /// A QUIC flood closes: classify it against the common floods
    /// closed so far, emit its `Closed` and keep it for later
    /// reclassification.
    fn close_quic(&mut self, flood: SliceChannel, evicted: bool, out: &mut Vec<LiveEvent>) {
        let victim = flood.attack.victim;
        let mut classified = ClassifiedAttack::new(flood);
        for common in self.common_on(victim) {
            classified.absorb(&common.attack);
        }
        out.push(LiveEvent {
            evicted,
            evidence: classified.evidence.clone(),
            ..classified.event(classified.attack.end, LiveEventKind::Closed)
        });
        self.quic_index
            .entry(victim)
            .or_default()
            .push(self.quic.len());
        self.quic.push(classified);
    }

    /// A common flood closes: emit its own `Closed`, then re-examine
    /// every already-closed QUIC flood on the same victim — verdicts
    /// that change surface as `Reclassified` (Fig. 8 kept current).
    fn close_common(&mut self, flood: SliceChannel, evicted: bool, out: &mut Vec<LiveEvent>) {
        let (victim, at) = (flood.attack.victim, flood.attack.end);
        out.push(LiveEvent {
            attack: Some(flood.attack.clone()),
            evicted,
            evidence: flood.evidence.clone(),
            ..plain_event(at, AttackProtocol::TcpIcmp, victim, LiveEventKind::Closed)
        });
        for &i in self.quic_index.get(&victim).into_iter().flatten() {
            let classified = &mut self.quic[i];
            if classified.absorb(&flood.attack) {
                self.reclassified += 1;
                out.push(classified.event(at, LiveEventKind::Reclassified));
            }
        }
        self.common_index
            .entry(victim)
            .or_default()
            .push(self.common.len());
        self.common.push(flood);
    }

    /// The common floods closed on `victim`, in close order.
    fn common_on(&self, victim: Ipv4Addr) -> impl Iterator<Item = &SliceChannel> {
        let indices = self.common_index.get(&victim).into_iter().flatten();
        indices.map(|&i| &self.common[i])
    }
}

/// Serializable checkpoint of a whole detector (both channels plus the
/// correlation state).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorSnapshot {
    quic: ChannelSnapshot,
    common: ChannelSnapshot,
    closed_quic: Vec<ClassifiedAttack>,
    closed_common: Vec<SliceChannel>,
    reclassified: u64,
}

impl DetectorSnapshot {
    /// Rejects an open victim whose evidence ring a detector with ring
    /// `capacity` cannot have written. [`AlertState`] appends while the
    /// ring holds fewer than `capacity` packets and overwrites its oldest
    /// slot after, so a longer ring keeps its stale tail and closes out
    /// of order.
    pub(crate) fn require_sound_rings(&self, capacity: usize) -> Result<(), String> {
        for (channel, snapshot) in [("quic", &self.quic), ("common", &self.common)] {
            for VictimEntry { src, evidence, .. } in &snapshot.states {
                if evidence.len() > capacity {
                    return Err(format!(
                        "checkpoint field `evidence` of {channel} victim {src} holds {} \
                         packet(s), more than `evidence_capacity` {capacity}",
                        evidence.len()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Rejects an arrival profile no window can have built
    /// ([`check_profile`]), open or closed, and an open window whose
    /// `max_minute` is not its busiest cell's count: a restored window
    /// joins its next packet by binary search over the cells, and a
    /// slice replays each cell's `first..=last`.
    pub(crate) fn require_sound_profiles(&self) -> Result<(), String> {
        for (channel, snapshot) in [("quic", &self.quic), ("common", &self.common)] {
            for VictimEntry { src, window, .. } in &snapshot.states {
                let busiest = check_profile(&window.profile)
                    .map_err(|e| format!("checkpoint profile of {channel} victim {src}: {e}"))?;
                if window.max_minute != busiest {
                    return Err(format!(
                        "checkpoint field `max_minute` of {channel} victim {src} is {}, \
                         but its busiest minute counts {busiest}",
                        window.max_minute
                    ));
                }
            }
        }
        let closed = self.closed_quic.iter().map(|c| (&c.attack, &c.profile));
        let closed = closed.chain(self.closed_common.iter().map(|f| (&f.attack, &f.profile)));
        for (attack, profile) in closed {
            check_profile(profile).map_err(|e| {
                format!(
                    "checkpoint profile of the {} flood closed on {} at {}: {e}",
                    attack.protocol.label(),
                    attack.victim,
                    attack.end.as_micros()
                )
            })?;
        }
        Ok(())
    }

    /// Rejects a `closed` counter that disagrees with the closed attacks
    /// listed beside it: the restored engine re-observes the lists, and
    /// `LiveEngine::verify_metrics` holds the two to each other.
    pub(crate) fn require_closed_listed(&self) -> Result<(), String> {
        let counted = u128::from(self.quic.stats.closed) + u128::from(self.common.stats.closed);
        let listed = self.closed_quic.len() + self.closed_common.len();
        if counted != listed as u128 {
            return Err(format!(
                "checkpoint field `closed` counts {counted} alert(s), \
                 but {listed} closed attack(s) are listed"
            ));
        }
        Ok(())
    }
}

/// The streaming flood detector: a QUIC-response channel and a
/// TCP/ICMP baseline channel, correlated per victim as alerts close.
#[derive(Debug)]
pub struct LiveDetector {
    config: LiveConfig,
    quic: ChannelDetector,
    common: ChannelDetector,
    floods: ClosedFloods,
}

impl LiveDetector {
    /// Creates a detector.
    pub fn new(config: LiveConfig) -> Self {
        LiveDetector {
            quic: ChannelDetector::new(AttackProtocol::Quic, &config),
            common: ChannelDetector::new(AttackProtocol::TcpIcmp, &config),
            config,
            floods: ClosedFloods::default(),
        }
    }

    /// Offers one QUIC *response* packet (backscatter: `victim` is the
    /// packet's source). Returns the lifecycle events it triggered.
    pub fn offer_response(
        &mut self,
        ts: Timestamp,
        victim: Ipv4Addr,
        dst: Ipv4Addr,
        bytes: u64,
    ) -> Vec<LiveEvent> {
        let mut events = Vec::new();
        let floods = &mut self.floods;
        self.quic.offer(ts, victim, dst, bytes, floods, &mut events);
        events
    }

    /// Offers one TCP/ICMP baseline packet.
    pub fn offer_baseline(
        &mut self,
        ts: Timestamp,
        victim: Ipv4Addr,
        dst: Ipv4Addr,
        bytes: u64,
    ) -> Vec<LiveEvent> {
        let mut events = Vec::new();
        let floods = &mut self.floods;
        self.common
            .offer(ts, victim, dst, bytes, floods, &mut events);
        events
    }

    /// Flushes both channels at end of stream. Commons close first so
    /// QUIC alerts closing in the same flush already see them — the
    /// final verdicts equal batch `classify_multivector` either way,
    /// this ordering just minimizes trailing `Reclassified` noise.
    pub fn finish(&mut self) -> Vec<LiveEvent> {
        let mut events = Vec::new();
        self.common.flush(&mut self.floods, &mut events);
        self.quic.flush(&mut self.floods, &mut events);
        events
    }

    /// Closed QUIC attacks with their current verdicts, in close order.
    pub fn closed_quic(&self) -> &[ClassifiedAttack] {
        &self.floods.quic
    }

    /// Closed common floods, in close order.
    pub fn closed_common(&self) -> &[SliceChannel] {
        &self.floods.common
    }

    /// The common floods closed on `victim`, in close order.
    pub(crate) fn common_on(&self, victim: Ipv4Addr) -> impl Iterator<Item = &SliceChannel> {
        self.floods.common_on(victim)
    }

    /// Aggregated counters across both channels.
    pub fn stats(&self) -> LiveStats {
        let mut stats = self.quic.stats;
        stats.merge(&self.common.stats);
        stats.reclassified = self.floods.reclassified;
        stats
    }

    /// Victims currently tracked across both channels.
    pub fn tracked(&self) -> usize {
        self.quic.tracked() + self.common.tracked()
    }

    /// Serializable checkpoint. Restoring it yields a detector that
    /// emits the exact same events for the rest of the stream as this
    /// one would.
    pub fn snapshot(&self) -> DetectorSnapshot {
        DetectorSnapshot {
            quic: self.quic.snapshot(),
            common: self.common.snapshot(),
            closed_quic: self.floods.quic.clone(),
            closed_common: self.floods.common.clone(),
            reclassified: self.floods.reclassified,
        }
    }

    /// Rebuilds a detector from a checkpoint (the correlation indices
    /// and the tables' activity indexes are derived state and are
    /// reconstructed, not serialized).
    pub fn restore(config: LiveConfig, snapshot: &DetectorSnapshot) -> Self {
        LiveDetector {
            quic: ChannelDetector::restore(AttackProtocol::Quic, &config, &snapshot.quic),
            common: ChannelDetector::restore(AttackProtocol::TcpIcmp, &config, &snapshot.common),
            config,
            floods: ClosedFloods::restore(
                snapshot.closed_quic.clone(),
                snapshot.closed_common.clone(),
                snapshot.reclassified,
            ),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }
}

fn plain_event(
    at: Timestamp,
    protocol: AttackProtocol,
    victim: Ipv4Addr,
    kind: LiveEventKind,
) -> LiveEvent {
    LiveEvent {
        at,
        protocol,
        victim,
        kind,
        attack: None,
        class: None,
        overlap_share: None,
        gap_secs: None,
        evicted: false,
        evidence: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, last)
    }

    fn dst() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }

    fn config() -> LiveConfig {
        LiveConfig::default()
    }

    /// Feeds a 2-pps flood for `secs` seconds starting at `start_secs`.
    fn flood(
        detector: &mut LiveDetector,
        victim: Ipv4Addr,
        start_secs: u64,
        secs: u64,
    ) -> Vec<LiveEvent> {
        let mut events = Vec::new();
        for i in 0..(secs * 2) {
            let ts = Timestamp::from_micros(start_secs * 1_000_000 + i * 500_000);
            events.extend(detector.offer_response(ts, victim, dst(), 60));
        }
        events
    }

    #[test]
    fn lifecycle_opens_then_closes_with_attack() {
        let mut d = LiveDetector::new(config());
        let events = flood(&mut d, ip(1), 0, 120);
        let opened: Vec<_> = events
            .iter()
            .filter(|e| e.kind == LiveEventKind::Opened)
            .collect();
        assert_eq!(opened.len(), 1, "exactly one open: {events:?}");
        assert_eq!(opened[0].victim, ip(1));

        let events = d.finish();
        let closed: Vec<_> = events
            .iter()
            .filter(|e| e.kind == LiveEventKind::Closed)
            .collect();
        assert_eq!(closed.len(), 1);
        let attack = closed[0].attack.as_ref().unwrap();
        assert_eq!(attack.victim, ip(1));
        assert_eq!(attack.packet_count, 240);
        assert!(attack.max_pps > 0.5);
        assert_eq!(closed[0].class, Some(MultiVectorClass::Isolated));
        assert!(!closed[0].evidence.is_empty());
        assert!(closed[0].evidence.len() <= config().evidence_capacity);
    }

    #[test]
    fn sub_threshold_victim_never_alerts() {
        let mut d = LiveDetector::new(config());
        // 10 packets over 20 s: under every Moore threshold.
        for i in 0..10u64 {
            let events = d.offer_response(Timestamp::from_secs(i * 2), ip(2), dst(), 60);
            assert!(events.is_empty(), "unexpected events: {events:?}");
        }
        assert!(d.finish().is_empty());
        assert_eq!(d.stats().opened, 0);
        assert_eq!(d.stats().closed, 0);
    }

    #[test]
    fn alert_never_reverts_open() {
        // Monotonicity: after Opened, no later packet may produce a
        // second Opened for the same session.
        let mut d = LiveDetector::new(config());
        let events = flood(&mut d, ip(3), 0, 600);
        let opens = events
            .iter()
            .filter(|e| e.kind == LiveEventKind::Opened)
            .count();
        assert_eq!(opens, 1);
    }

    #[test]
    fn escalation_fires_at_scaled_thresholds() {
        let mut d = LiveDetector::new(LiveConfig {
            escalation_weight: 2.0,
            ..config()
        });
        // 2 pps for 10 minutes: packets=1200 > 50, duration 600 s >
        // 120 s, max_pps 2.0 > 1.0 — crosses the 2× tier.
        let events = flood(&mut d, ip(4), 0, 600);
        let escalated = events
            .iter()
            .filter(|e| e.kind == LiveEventKind::Escalated)
            .count();
        assert_eq!(escalated, 1);
        assert_eq!(d.stats().escalated, 1);
    }

    #[test]
    fn idle_timeout_closes_via_watermark_without_more_victim_packets() {
        let mut d = LiveDetector::new(config());
        let mut events = flood(&mut d, ip(5), 0, 120);
        // Another victim's traffic far in the future advances the
        // watermark and sweeps the idle flood out.
        events.extend(d.offer_response(Timestamp::from_secs(10_000), ip(6), dst(), 60));
        let closed: Vec<_> = events
            .iter()
            .filter(|e| e.kind == LiveEventKind::Closed)
            .collect();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].victim, ip(5));
        // The close carries the session's real end, not the sweep time.
        assert!(closed[0].attack.as_ref().unwrap().end < Timestamp::from_secs(200));
    }

    #[test]
    fn concurrent_classification_when_common_closed_first() {
        let mut d = LiveDetector::new(config());
        // Common flood 0..600 s; close it by advancing the common
        // watermark far ahead.
        for i in 0..(600 * 2) {
            d.offer_baseline(Timestamp::from_micros(i * 500_000), ip(7), dst(), 60);
        }
        d.offer_baseline(Timestamp::from_secs(50_000), ip(99), dst(), 60);
        assert_eq!(d.closed_common().len(), 1);
        // QUIC flood 100..220 s (fully inside the common window), fed
        // afterwards — event time, not arrival time, drives overlap.
        flood(&mut d, ip(7), 100, 120);
        let events = d.finish();
        let quic_close = events
            .iter()
            .find(|e| e.protocol == AttackProtocol::Quic && e.kind == LiveEventKind::Closed)
            .expect("quic close");
        assert_eq!(quic_close.class, Some(MultiVectorClass::Concurrent));
        assert!((quic_close.overlap_share.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reclassified_when_common_closes_after_quic() {
        let mut d = LiveDetector::new(config());
        // QUIC flood closes first (watermark push), classified Isolated.
        flood(&mut d, ip(8), 0, 120);
        let events = d.offer_response(Timestamp::from_secs(20_000), ip(200), dst(), 60);
        let quic_close = events
            .iter()
            .find(|e| e.kind == LiveEventKind::Closed)
            .expect("quic close");
        assert_eq!(quic_close.class, Some(MultiVectorClass::Isolated));
        // Now a common flood on the same victim, overlapping 0..120 s.
        for i in 0..(300 * 2) {
            d.offer_baseline(Timestamp::from_micros(i * 500_000), ip(8), dst(), 60);
        }
        let events = d.finish();
        let reclass: Vec<_> = events
            .iter()
            .filter(|e| e.kind == LiveEventKind::Reclassified)
            .collect();
        assert_eq!(reclass.len(), 1, "events: {events:?}");
        assert_eq!(reclass[0].victim, ip(8));
        assert_eq!(reclass[0].class, Some(MultiVectorClass::Concurrent));
        assert_eq!(d.stats().reclassified, 1);
        assert_eq!(d.closed_quic()[0].class(), MultiVectorClass::Concurrent);
    }

    #[test]
    fn memory_cap_evicts_lru_and_counts_it() {
        let mut d = LiveDetector::new(LiveConfig {
            max_victims: 4,
            ..config()
        });
        // 50 victims, one packet each, in time order: every insert
        // beyond the 4th evicts the least-recently-active victim.
        for i in 0..50u64 {
            d.offer_response(Timestamp::from_secs(i), ip((i % 200) as u8), dst(), 60);
        }
        assert!(d.tracked() <= 4);
        let stats = d.stats();
        assert!(stats.peak_tracked <= 4, "peak {}", stats.peak_tracked);
        assert_eq!(stats.evictions, 46);
        // Quiet evictees close silently: no alerts ever opened.
        assert_eq!(stats.opened, 0);
    }

    #[test]
    fn evicted_qualifying_alert_is_flagged() {
        let mut d = LiveDetector::new(LiveConfig {
            max_victims: 1,
            ..config()
        });
        let mut events = flood(&mut d, ip(9), 0, 120);
        // A new victim forces the qualifying flood out under the cap.
        events.extend(d.offer_response(Timestamp::from_secs(130), ip(10), dst(), 60));
        let closed: Vec<_> = events
            .iter()
            .filter(|e| e.kind == LiveEventKind::Closed)
            .collect();
        assert_eq!(closed.len(), 1);
        assert!(closed[0].evicted);
        assert_eq!(d.stats().evictions, 1);
    }

    #[test]
    fn evidence_ring_keeps_most_recent_packets_in_order() {
        let mut d = LiveDetector::new(LiveConfig {
            evidence_capacity: 4,
            ..config()
        });
        flood(&mut d, ip(11), 0, 120);
        let events = d.finish();
        let closed = events
            .iter()
            .find(|e| e.kind == LiveEventKind::Closed)
            .unwrap();
        assert_eq!(closed.evidence.len(), 4);
        // Chronological, and the *latest* packets of the flood.
        for w in closed.evidence.windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
        assert_eq!(
            closed.evidence.last().unwrap().ts,
            closed.attack.as_ref().unwrap().end
        );
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let build = |split: bool| -> (Vec<LiveEvent>, LiveDetector) {
            let mut d = LiveDetector::new(config());
            let mut events = flood(&mut d, ip(12), 0, 90);
            if split {
                let snapshot = d.snapshot();
                let json = serde_json::to_string(&snapshot).unwrap();
                let back: DetectorSnapshot = serde_json::from_str(&json).unwrap();
                assert_eq!(back, snapshot, "snapshot JSON roundtrip");
                d = LiveDetector::restore(config(), &back);
            }
            events.extend(flood(&mut d, ip(12), 90, 90));
            for i in 0..(60 * 2) {
                events.extend(d.offer_baseline(
                    Timestamp::from_micros(100 * 1_000_000 + i * 500_000),
                    ip(12),
                    dst(),
                    60,
                ));
            }
            let finish = d.finish();
            events.extend(finish);
            (events, d)
        };
        let (straight_events, straight) = build(false);
        let (resumed_events, resumed) = build(true);
        assert_eq!(resumed_events, straight_events);
        assert_eq!(resumed.closed_quic(), straight.closed_quic());
        assert_eq!(resumed.closed_common(), straight.closed_common());
        assert_eq!(resumed.stats(), straight.stats());
    }

    #[test]
    fn restore_indexes_the_map_not_the_checkpoint_vector() {
        // A hostile checkpoint that lists one victim twice, with two
        // different `last` values: the map keeps one state, and the
        // index must describe that map — not the vector — or the next
        // sweep finds an entry for a victim that is already gone.
        let mut d = LiveDetector::new(config());
        d.offer_response(Timestamp::from_secs(10), ip(1), dst(), 60);
        let mut snapshot = d.snapshot();
        let mut twin = snapshot.quic.states[0].clone();
        twin.window.last = Timestamp::from_secs(20);
        snapshot.quic.states.push(twin);

        let mut restored = LiveDetector::restore(config(), &snapshot);
        assert_eq!(restored.tracked(), 1);
        // A far-future packet sweeps the (quiet) victim out.
        let events = restored.offer_response(Timestamp::from_secs(100_000), ip(2), dst(), 60);
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(restored.tracked(), 1);
    }

    /// The deliberately naive reference for [`ChannelDetector`]: the
    /// same semantics with no index and no caches — full scans for the
    /// expired set and for the eviction minimum, ordered-map minute
    /// slots, per-minute maximum recomputed from scratch, evidence kept
    /// whole and trimmed at close.
    struct Oracle {
        config: LiveConfig,
        states: BTreeMap<Ipv4Addr, OracleState>,
        watermark: Timestamp,
        last_sweep: Timestamp,
        stats: LiveStats,
        floods: ClosedFloods,
    }

    struct OracleState {
        start: Timestamp,
        last: Timestamp,
        packets: u64,
        minutes: BTreeMap<u64, (u64, Timestamp, Timestamp)>,
        phase: AlertPhase,
        evidence: Vec<EvidencePacket>,
    }

    impl Oracle {
        const PROTOCOL: AttackProtocol = AttackProtocol::Quic;

        fn close(
            &mut self,
            victim: Ipv4Addr,
            state: OracleState,
            evicted: bool,
            out: &mut Vec<LiveEvent>,
        ) {
            if state.phase == AlertPhase::Quiet {
                return;
            }
            self.stats.closed += 1;
            let busiest = state.minutes.values().map(|slot| slot.0).max().unwrap_or(0);
            let keep = state
                .evidence
                .len()
                .saturating_sub(self.config.evidence_capacity);
            let flood = SliceChannel {
                attack: Attack {
                    victim,
                    protocol: Self::PROTOCOL,
                    start: state.start,
                    end: state.last,
                    packet_count: state.packets,
                    max_pps: busiest as f64 / 60.0,
                },
                profile: state
                    .minutes
                    .iter()
                    .map(|(&minute, &(count, first, last))| ProfileCell {
                        minute,
                        count,
                        first,
                        last,
                    })
                    .collect(),
                evidence: state.evidence[keep..].to_vec(),
            };
            self.floods.close_quic(flood, evicted, out);
        }

        fn offer(&mut self, packet: EvidencePacket, victim: Ipv4Addr, out: &mut Vec<LiveEvent>) {
            let ts = packet.ts;
            let session = self.config.session;
            self.stats.events_in += 1;
            self.watermark = self.watermark.max(ts);
            if self.watermark.saturating_since(self.last_sweep) > session.timeout {
                self.last_sweep = self.watermark;
                let horizon = session.timeout.as_micros() + session.skew_tolerance.as_micros();
                let mut expired: Vec<(Timestamp, Ipv4Addr)> = self
                    .states
                    .iter()
                    .filter(|(_, s)| self.watermark.saturating_since(s.last).as_micros() > horizon)
                    .map(|(victim, s)| (s.start, *victim))
                    .collect();
                expired.sort_unstable();
                for (_, gone) in expired {
                    let state = self.states.remove(&gone).expect("scanned");
                    self.close(gone, state, false, out);
                }
            }
            let joins = self
                .states
                .get(&victim)
                .is_some_and(|s| ts.saturating_since(s.last) <= session.timeout);
            if !joins {
                if let Some(old) = self.states.remove(&victim) {
                    self.close(victim, old, false, out);
                }
                while self.states.len() >= self.config.max_victims {
                    let (_, evictee) = self
                        .states
                        .iter()
                        .map(|(victim, s)| (s.last, *victim))
                        .min()
                        .expect("cap is at least one");
                    let state = self.states.remove(&evictee).expect("scanned");
                    self.stats.evictions += 1;
                    self.close(evictee, state, true, out);
                }
                let fresh = OracleState {
                    start: ts,
                    last: ts,
                    packets: 0,
                    minutes: BTreeMap::new(),
                    phase: AlertPhase::Quiet,
                    evidence: Vec::new(),
                };
                self.states.insert(victim, fresh);
                self.stats.peak_tracked = self.stats.peak_tracked.max(self.states.len());
            }
            let state = self.states.get_mut(&victim).expect("just ensured");
            state.start = state.start.min(ts);
            state.last = state.last.max(ts);
            state.packets += 1;
            let slot = state
                .minutes
                .entry(ts.minute_bucket())
                .or_insert((0, ts, ts));
            *slot = (slot.0 + 1, slot.1.min(ts), slot.2.max(ts));
            state.evidence.push(packet);
            let busiest = state.minutes.values().map(|slot| slot.0).max().unwrap_or(0);
            let duration = state.last.saturating_since(state.start);
            let max_pps = busiest as f64 / 60.0;
            let base = self.config.thresholds;
            let tier = base.scaled(self.config.escalation_weight);
            if state.phase == AlertPhase::Quiet
                && base.matches_measures(state.packets, duration, max_pps)
            {
                state.phase = AlertPhase::Open;
                self.stats.opened += 1;
                out.push(plain_event(
                    ts,
                    Self::PROTOCOL,
                    victim,
                    LiveEventKind::Opened,
                ));
            }
            if state.phase == AlertPhase::Open
                && tier.matches_measures(state.packets, duration, max_pps)
            {
                state.phase = AlertPhase::Escalated;
                self.stats.escalated += 1;
                out.push(plain_event(
                    ts,
                    Self::PROTOCOL,
                    victim,
                    LiveEventKind::Escalated,
                ));
            }
        }

        fn flush(&mut self, out: &mut Vec<LiveEvent>) {
            let mut remaining: Vec<(Timestamp, Ipv4Addr)> = self
                .states
                .iter()
                .map(|(victim, s)| (s.start, *victim))
                .collect();
            remaining.sort_unstable();
            for (_, victim) in remaining {
                let state = self.states.remove(&victim).expect("scanned");
                self.close(victim, state, false, out);
            }
        }
    }

    proptest! {
        /// Model-based equivalence: the indexed detector and the naive
        /// oracle see the same random stream — few victims, timestamps
        /// that jitter backwards within the reorder tolerance and now
        /// and then jump past the timeout, a victim cap from tight to
        /// unbounded, one JSON checkpoint/restore somewhere in the
        /// middle (exact index keys after it, stale ones before) — and
        /// must emit the identical events and counters throughout. The
        /// evidence ring is 1, 3 or 8 packets against a packet floor of
        /// 4, so the detector skips the first 3, 1 or no arrivals; the
        /// oracle keeps every arrival and takes the tail.
        #[test]
        fn prop_channel_matches_a_naive_oracle(
            steps in proptest::collection::vec((0u8..12, 0u64..20_000, 0u8..100), 1..400),
            victims in 1u8..=12,
            cap in 0usize..4,
            ring in 0usize..3,
            checkpoint_at in 0usize..400,
        ) {
            const TOLERANCE_MS: u64 = 5_000;
            const TIMEOUT_MS: u64 = 120_000;
            let config = LiveConfig {
                thresholds: DosThresholds {
                    min_packets: 3.0,
                    min_duration: Duration::from_secs(20),
                    min_max_pps: 0.04,
                },
                session: SessionConfig {
                    timeout: Duration::from_micros(TIMEOUT_MS * 1_000),
                    skew_tolerance: Duration::from_micros(TOLERANCE_MS * 1_000),
                },
                escalation_weight: 2.0,
                evidence_capacity: [1, 3, 8][ring],
                max_victims: [1, 2, 5, usize::MAX][cap],
            };
            let mut channel = ChannelDetector::new(Oracle::PROTOCOL, &config);
            let mut oracle = Oracle {
                config,
                states: BTreeMap::new(),
                watermark: Timestamp::EPOCH,
                last_sweep: Timestamp::EPOCH,
                stats: LiveStats::default(),
                floods: ClosedFloods::default(),
            };
            let mut floods = ClosedFloods::default();
            let checkpoint_at = checkpoint_at % steps.len();
            let mut now_ms = 1_000_000u64;
            for (i, &(raw_victim, advance_ms, mode)) in steps.iter().enumerate() {
                if i == checkpoint_at {
                    let json = serde_json::to_string(&channel.snapshot()).unwrap();
                    let parsed: ChannelSnapshot = serde_json::from_str(&json).unwrap();
                    channel = ChannelDetector::restore(Oracle::PROTOCOL, &config, &parsed);
                }
                let ts_ms = match mode {
                    0..=74 => {
                        now_ms += advance_ms;
                        now_ms
                    }
                    75..=91 => now_ms - advance_ms % (TOLERANCE_MS + 1),
                    _ => {
                        now_ms += TIMEOUT_MS + TOLERANCE_MS + advance_ms;
                        now_ms
                    }
                };
                let packet = EvidencePacket {
                    ts: Timestamp::from_micros(ts_ms * 1_000),
                    dst: dst(),
                    bytes: i as u64,
                };
                let victim = ip(raw_victim % victims);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                channel.offer(packet.ts, victim, packet.dst, packet.bytes, &mut floods, &mut got);
                oracle.offer(packet, victim, &mut want);
                prop_assert!(got == want, "step {i}: got {got:?}, want {want:?}");
                prop_assert_eq!(channel.stats, oracle.stats);
                prop_assert_eq!(&floods.quic, &oracle.floods.quic, "step {}", i);
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            channel.flush(&mut floods, &mut got);
            oracle.flush(&mut want);
            prop_assert!(got == want, "flush: got {got:?}, want {want:?}");
            prop_assert_eq!(channel.stats, oracle.stats);
            prop_assert_eq!(&floods.quic, &oracle.floods.quic);
            prop_assert_eq!(channel.tracked(), 0);
        }
    }

    #[test]
    fn stats_merge_sums_everything() {
        let a = LiveStats {
            events_in: 10,
            opened: 1,
            escalated: 1,
            closed: 1,
            reclassified: 0,
            evictions: 2,
            peak_tracked: 5,
        };
        let mut b = LiveStats {
            events_in: 7,
            peak_tracked: 3,
            ..LiveStats::default()
        };
        b.merge(&a);
        assert_eq!(b.events_in, 17);
        assert_eq!(b.peak_tracked, 8);
        assert_eq!(b.evictions, 2);
    }
}
