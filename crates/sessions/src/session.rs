//! Timeout-based sessionization (§5.1).
//!
//! Packets are grouped per source IP address; a session ends when the
//! source stays silent longer than the timeout. The paper sweeps the
//! timeout from 1 to 60 minutes (Fig. 4), finds the knee at ~5 minutes,
//! and notes the lower bound given by `timeout = ∞` (one session per
//! source).
//!
//! The [`Sessionizer`] is streaming: it consumes packets in time order
//! and emits sessions as they close, so a month of telescope traffic
//! never needs to sit in memory at once. The grouping rule itself lives
//! in [`crate::window`]; this module turns closed windows into
//! [`Session`]s, counts them and emits the `session_*` events.

use crate::dos::{Attack, AttackProtocol, DosThresholds};
use crate::window::{CloseReason, Closed, Counted, ProfileCell, SessionTable, Steps};
use quicsand_events::{
    Event, EventMeta, NoopSubscriber, SessionClosed, SessionOpened, SessionWidened, Subscriber,
};
use quicsand_net::{Duration, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Sessionizer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Inactivity timeout that splits sessions. The paper selects
    /// 5 minutes (knee of Fig. 4, coherent with Moore et al. and
    /// Jonker et al.).
    pub timeout: Duration,
    /// How far behind the watermark a packet timestamp may lag and
    /// still be expected (in-network reordering admitted by the ingest
    /// guard). The idle sweep defers expiry by this much so a
    /// tolerated late packet can never find its session already
    /// closed — which would split sessions nondeterministically
    /// depending on sweep scheduling. `ZERO` reproduces the strict
    /// time-ordered behaviour.
    pub skew_tolerance: Duration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            timeout: Duration::from_mins(5),
            skew_tolerance: Duration::ZERO,
        }
    }
}

/// A closed session: all packets from one source with no gap exceeding
/// the timeout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Session {
    /// The source address (for backscatter sessions this is the flood
    /// *victim*; for request sessions the scanner).
    pub src: Ipv4Addr,
    /// Timestamp of the first packet.
    pub start: Timestamp,
    /// Timestamp of the last packet.
    pub end: Timestamp,
    /// Total packets in the session.
    pub packet_count: u64,
    /// Packets per 1-minute slot, sorted by minute bucket: the basis of
    /// the max-pps intensity metric (§5.2).
    pub minute_counts: Vec<ProfileCell>,
    /// Connection-ID key observed on this session's packets (hash of
    /// the client's source CID), when the capture exposed one. Lets
    /// [`link_migrations`] re-join a flow that changed source address
    /// mid-session. `None` for address-only sessionization.
    pub cid_key: Option<u64>,
}

impl Session {
    /// Session duration (last − first packet).
    pub fn duration(&self) -> Duration {
        self.end.saturating_since(self.start)
    }

    /// Maximum packet rate over all 1-minute slots, in packets per
    /// second — the intensity metric of §5.2 / Fig. 7(b).
    pub fn max_pps(&self) -> f64 {
        self.minute_counts
            .iter()
            .map(|cell| cell.count as f64 / 60.0)
            .fold(0.0, f64::max)
    }
}

/// Streaming sessionizer. Feed packets in non-decreasing time order;
/// closed sessions are buffered and drained via [`Sessionizer::drain`] /
/// [`Sessionizer::finish`].
///
/// A [`SessionTable`] whose payload is the session's sticky connection-ID
/// key, uncapped: memory is bounded by the table's idle sweep alone, so
/// one-shot sources (the overwhelming majority at a telescope) do not
/// accumulate for the whole capture.
///
/// Beside the key, every open session carries a tally `T` that the
/// caller folds each of its packets into ([`Sessionizer::offer_tallied`]).
/// A [`Sessionizer::tallying`] sessionizer decides at each close whether
/// the session is an attack, and keeps the [`Attack`] with its tally; it
/// drops the tallies of the rest. A plain one ([`Sessionizer::new`])
/// carries `()` and keeps nothing.
#[derive(Debug)]
pub struct Sessionizer<T = ()> {
    table: KeyedTable<T>,
    closed: Vec<Session>,
    /// The tallies kept so far, and the rule that keeps them.
    tallies: Vec<Tally<T>>,
    keep: Option<(DosThresholds, AttackProtocol)>,
    /// Cumulative lifecycle counters, the sessionizer's contribution to
    /// the metrics layer.
    counters: SessionizerCounters,
}

/// A sessionizer's open windows, each with its sticky connection-ID key
/// and its tally.
type KeyedTable<T> = SessionTable<(Option<u64>, T)>;

/// One session that closed as an attack: the attack it qualified as
/// (its `(start, victim)` unique within one sessionizer) and its tally.
#[derive(Debug, Clone, PartialEq)]
pub struct Tally<T> {
    /// The attack, as [`DosThresholds::attack`] maps the session.
    pub attack: Attack,
    /// What the caller folded the session's packets into.
    pub tally: T,
}

/// Cumulative session-lifecycle counts over a [`Sessionizer`]'s life.
///
/// `opened` counts every fresh open-session insert (first packet of a
/// source, or the packet after a timeout gap); `closed` counts every
/// close the sessionizer has *buffered so far* — gap closes and idle
/// expiries; the final flush is never visible here, because
/// [`Sessionizer::finish`] performs it while consuming the sessionizer.
/// Callers wanting totals read [`Sessionizer::counters`] and
/// [`Sessionizer::open_count`] immediately before `finish()`:
/// `closed + open_count` is the final session count, and equals
/// `opened`. `expired` is the subset of `closed` released by the
/// watermark sweep rather than a gap close.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionizerCounters {
    /// Open-session inserts.
    pub opened: u64,
    /// Sessions moved to the closed buffer (gap closes + expiries).
    pub closed: u64,
    /// Sessions closed by the idle sweep ([`Sessionizer::expire`]).
    pub expired: u64,
}

impl SessionizerCounters {
    /// Field-wise sum, for aggregating several sessionizers.
    pub fn merge(&mut self, other: &SessionizerCounters) {
        self.opened += other.opened;
        self.closed += other.closed;
        self.expired += other.expired;
    }
}

/// Where a [`Sessionizer`] puts what its table reports: the closed
/// buffer, the kept tallies and the counters, and the event stream.
struct Sink<'a, S, T, F> {
    closed: &'a mut Vec<Session>,
    tallies: &'a mut Vec<Tally<T>>,
    keep: Option<&'a (DosThresholds, AttackProtocol)>,
    counters: &'a mut SessionizerCounters,
    /// The connection-ID key of the packet being offered, if any.
    cid_key: Option<u64>,
    /// Folds the packet being offered into its session's tally.
    count: Option<F>,
    channel: &'a str,
    meta: &'a EventMeta,
    subscriber: &'a mut S,
}

impl<S: Subscriber, T, F: FnOnce(&mut T)> Steps<(Option<u64>, T)> for Sink<'_, S, T, F> {
    /// Buffers one closed window as a [`Session`] (keeping its tally if
    /// it is an attack) and emits its `session_closed` (flagged
    /// `expired` only for a sweep close).
    fn closed(&mut self, closed: Closed<(Option<u64>, T)>) {
        let Closed {
            why,
            at,
            src,
            window,
            payload: (cid_key, tally),
        } = closed;
        let expired = why == CloseReason::Expired;
        if self.subscriber.enabled() {
            let event = SessionClosed {
                at,
                src,
                channel: self.channel.to_string(),
                start: window.start,
                packet_count: window.packet_count,
                expired,
            };
            self.subscriber.on(*self.meta, Event::SessionClosed(event));
        }
        let session = Session {
            src,
            start: window.start,
            end: window.last,
            packet_count: window.packet_count,
            minute_counts: window.profile,
            cid_key,
        };
        if let Some((thresholds, protocol)) = self.keep {
            let attack = thresholds.attack(&session, *protocol);
            self.tallies
                .extend(attack.map(|attack| Tally { attack, tally }));
        }
        self.closed.push(session);
        self.counters.closed += 1;
        self.counters.expired += u64::from(expired);
    }

    /// Counts and announces the offered packet: `session_opened` when it
    /// opened its window, `session_widened` when it arrived late enough
    /// to move the window's start backwards. The first key a session
    /// sees sticks to it.
    #[inline]
    fn counted(&mut self, counted: Counted<'_, (Option<u64>, T)>) {
        let Counted {
            at,
            src,
            opened,
            lead,
            payload: (cid_key, tally),
            ..
        } = counted;
        if cid_key.is_none() {
            *cid_key = self.cid_key;
        }
        if let Some(count) = self.count.take() {
            count(tally);
        }
        self.counters.opened += u64::from(opened);
        if !self.subscriber.enabled() || !(opened || lead > Duration::ZERO) {
            return;
        }
        let channel = self.channel.to_string();
        let event = if opened {
            Event::SessionOpened(SessionOpened { at, src, channel })
        } else {
            Event::SessionWidened(SessionWidened {
                at,
                src,
                channel,
                lead,
            })
        };
        self.subscriber.on(*self.meta, event);
    }
}

/// The tally fold of an offer that folds nothing.
type NoCount<T> = fn(&mut T);

impl Sessionizer {
    /// Creates a sessionizer.
    pub fn new(config: SessionConfig) -> Self {
        Sessionizer::build(config, None)
    }
}

impl<T: Default> Sessionizer<T> {
    /// Creates a sessionizer whose sessions carry a `T`, kept at close
    /// beside its `protocol` [`Attack`] for every session that
    /// `thresholds` match and dropped for every other.
    pub fn tallying(
        config: SessionConfig,
        thresholds: DosThresholds,
        protocol: AttackProtocol,
    ) -> Self {
        Sessionizer::build(config, Some((thresholds, protocol)))
    }

    fn build(config: SessionConfig, keep: Option<(DosThresholds, AttackProtocol)>) -> Self {
        Sessionizer {
            table: SessionTable::new(config, usize::MAX),
            closed: Vec::new(),
            tallies: Vec::new(),
            keep,
            counters: SessionizerCounters::default(),
        }
    }

    /// The table beside the sink its steps go to.
    fn parts<'a, S, F>(
        &'a mut self,
        cid_key: Option<u64>,
        count: Option<F>,
        channel: &'a str,
        meta: &'a EventMeta,
        subscriber: &'a mut S,
    ) -> (&'a mut KeyedTable<T>, Sink<'a, S, T, F>) {
        let sink = Sink {
            closed: &mut self.closed,
            tallies: &mut self.tallies,
            keep: self.keep.as_ref(),
            counters: &mut self.counters,
            cid_key,
            count,
            channel,
            meta,
            subscriber,
        };
        (&mut self.table, sink)
    }

    /// Offers one packet (see [`SessionTable::offer`] for the ordering
    /// contract on the input).
    pub fn offer(&mut self, ts: Timestamp, src: Ipv4Addr) {
        self.offer_keyed(ts, src, None);
    }

    /// [`Sessionizer::offer`] that also folds the packet into its
    /// session's tally: `count` runs once, on the tally of the session
    /// the packet was counted into (a fresh `T` when it opened one).
    pub fn offer_tallied(&mut self, ts: Timestamp, src: Ipv4Addr, count: impl FnOnce(&mut T)) {
        let (meta, mut subscriber) = (EventMeta::lifecycle(), NoopSubscriber);
        let (table, mut sink) = self.parts(None, Some(count), "", &meta, &mut subscriber);
        table.offer(ts, src, || (None, T::default()), &mut sink);
    }

    /// [`Sessionizer::offer`] carrying an optional connection-ID key
    /// (see [`Sessionizer::offer_keyed_with`]).
    pub fn offer_keyed(&mut self, ts: Timestamp, src: Ipv4Addr, cid_key: Option<u64>) {
        self.offer_keyed_with(
            ts,
            src,
            cid_key,
            "",
            &EventMeta::lifecycle(),
            &mut NoopSubscriber,
        );
    }

    /// Offers one packet with typed event emission, carrying an optional
    /// connection-ID key extracted from it: fresh inserts emit
    /// `session_opened`, backwards bounds-widening by an admissible late
    /// packet emits `session_widened`, and gap closes (plus any expiries
    /// released by the table's amortized sweep) emit `session_closed`.
    /// `channel` labels which per-protocol sessionizer this is (`quic` /
    /// `tcp_icmp`). With [`NoopSubscriber`] this monomorphizes to exactly
    /// the subscriber-free path.
    ///
    /// The first `Some` key a session sees sticks to it (client CIDs are
    /// stable across address changes), tagging the closed [`Session`] so
    /// [`link_migrations`] can later re-join flows that migrated between
    /// source addresses. Keys never alter session boundaries here —
    /// sessionization stays strictly per source address, which is what
    /// keeps N-shard runs (sharded by source) equivalent to 1-shard runs.
    pub fn offer_keyed_with<S: Subscriber>(
        &mut self,
        ts: Timestamp,
        src: Ipv4Addr,
        cid_key: Option<u64>,
        channel: &str,
        meta: &EventMeta,
        subscriber: &mut S,
    ) {
        let (table, mut sink) = self.parts(cid_key, None::<NoCount<T>>, channel, meta, subscriber);
        table.offer(ts, src, || (cid_key, T::default()), &mut sink);
    }

    /// Closes every open session whose source has been idle longer than
    /// the timeout as of the watermark `now`, moving them to the closed
    /// buffer (see [`SessionTable::expire`]).
    ///
    /// The produced sessions are identical to what a later gap-close
    /// (on the source's next packet) or [`Sessionizer::finish`] would
    /// emit — expiry only changes *when* state is released, never the
    /// session boundaries.
    ///
    /// No event-emitting twin: an explicit sweep only happens between
    /// offers ([`Sessionizer::drain`]), where no subscriber is at hand;
    /// the sweeps that emit `session_closed { expired }` run inside
    /// [`Sessionizer::offer_keyed_with`]. An explicit sweep is one
    /// O(open) pass; only tests call it, or `drain`.
    pub fn expire(&mut self, now: Timestamp) {
        let (meta, mut subscriber) = (EventMeta::lifecycle(), NoopSubscriber);
        let (table, mut sink) = self.parts(None, None::<NoCount<T>>, "", &meta, &mut subscriber);
        table.expire(now, &mut |closed| sink.closed(closed));
    }

    /// Takes the sessions closed so far, after first expiring every
    /// session already idle past the timeout at the current watermark.
    /// A source that times out therefore shows up here without waiting
    /// for its next packet (which may never come) or for
    /// [`Sessionizer::finish`]. The sweep is one O(open) pass (see
    /// [`Sessionizer::expire`]).
    pub fn drain(&mut self) -> Vec<Session> {
        self.expire(self.table.watermark());
        std::mem::take(&mut self.closed)
    }

    /// Closes every open session and returns all remaining ones.
    pub fn finish(self) -> Vec<Session> {
        self.finish_with("", &EventMeta::lifecycle(), &mut NoopSubscriber)
    }

    /// [`Sessionizer::finish`] with typed event emission: the final
    /// flush emits `session_closed` (not `expired` — the stream ended)
    /// for every still-open session, in `(start, src)` order.
    pub fn finish_with<S: Subscriber>(
        self,
        channel: &str,
        meta: &EventMeta,
        subscriber: &mut S,
    ) -> Vec<Session> {
        self.finish_tallied_with(channel, meta, subscriber).0
    }

    /// [`Sessionizer::finish`] that also returns the kept tallies, both
    /// in `(start, src)` order (an attack's `src` is its victim).
    pub fn finish_tallied(self) -> (Vec<Session>, Vec<Tally<T>>) {
        self.finish_tallied_with("", &EventMeta::lifecycle(), &mut NoopSubscriber)
    }

    fn finish_tallied_with<S: Subscriber>(
        mut self,
        channel: &str,
        meta: &EventMeta,
        subscriber: &mut S,
    ) -> (Vec<Session>, Vec<Tally<T>>) {
        let (table, mut sink) = self.parts(None, None::<NoCount<T>>, channel, meta, subscriber);
        table.flush(&mut |closed| sink.closed(closed));
        // The whole output in one order, not only the flushed tail.
        self.closed.sort_by_key(|s| (s.start, s.src));
        self.tallies
            .sort_by_key(|t| (t.attack.start, t.attack.victim));
        (self.closed, self.tallies)
    }

    /// Number of currently open sessions.
    pub fn open_count(&self) -> usize {
        self.table.len()
    }

    /// High-water mark of concurrently open sessions over the
    /// sessionizer's lifetime — the memory bound the idle sweep
    /// enforces.
    pub fn peak_open_count(&self) -> usize {
        self.table.peak_open()
    }

    /// Cumulative lifecycle counters so far (see
    /// [`SessionizerCounters`] for the finish-flush caveat).
    pub fn counters(&self) -> SessionizerCounters {
        self.counters
    }
}

/// Convenience: sessionizes a time-ordered `(ts, src)` stream in one
/// call.
pub fn sessionize<I: IntoIterator<Item = (Timestamp, Ipv4Addr)>>(
    packets: I,
    config: SessionConfig,
) -> Vec<Session> {
    let mut s = Sessionizer::new(config);
    for (ts, src) in packets {
        s.offer(ts, src);
    }
    s.finish()
}

/// One mid-flow address change re-joined by [`link_migrations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationLink {
    /// The connection-ID key both session halves carried.
    pub cid_key: u64,
    /// Source address before the migration.
    pub from: Ipv4Addr,
    /// Source address after the migration.
    pub to: Ipv4Addr,
    /// First packet timestamp at the new address.
    pub at: Timestamp,
    /// Silence between the halves (zero when they overlap).
    pub gap: Duration,
}

/// Folds the minute profile `from` into `into`, both sorted by minute:
/// slots both have are summed and their arrival bounds widened.
fn merge_profile(into: &mut Vec<ProfileCell>, from: &[ProfileCell]) {
    for cell in from {
        match into.binary_search_by_key(&cell.minute, |slot| slot.minute) {
            Ok(at) => {
                let slot = &mut into[at];
                slot.count += cell.count;
                slot.first = slot.first.min(cell.first);
                slot.last = slot.last.max(cell.last);
            }
            Err(at) => into.insert(at, *cell),
        }
    }
}

/// Re-joins sessions whose flow migrated between source addresses.
///
/// Address-keyed sessionization splits a flow at every source-address
/// change even when the connection ID proves continuity (the Buchet et
/// al. migration pattern). This post-pass runs on the *merged, sorted*
/// session list — after any sharded sessionizers have been combined —
/// so its output is identical at every shard count: sessions sharing a
/// [`Session::cid_key`] are scanned in `(start, src)` order, and each
/// session whose start lies within `timeout` of the previous session's
/// end *at a different address* is folded into it (the earliest address
/// stays canonical). Same-address pairs are never folded: the
/// sessionizer only splits same-source flows on gaps *exceeding* the
/// timeout, so such a pair is a genuine timeout split.
///
/// Returns one [`MigrationLink`] per fold, in `(at, cid_key)` order;
/// `links.len()` is the `sessions_migrated` count and the input shrinks
/// by exactly that many sessions (packet counts are conserved).
pub fn link_migrations(sessions: &mut Vec<Session>, timeout: Duration) -> Vec<MigrationLink> {
    let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in sessions.iter().enumerate() {
        if let Some(key) = s.cid_key {
            by_key.entry(key).or_default().push(i);
        }
    }
    let mut keys: Vec<u64> = by_key.keys().copied().collect();
    keys.sort_unstable();

    let mut links = Vec::new();
    let mut dropped = vec![false; sessions.len()];
    for key in keys {
        let mut group = by_key.remove(&key).expect("key collected above");
        if group.len() < 2 {
            continue;
        }
        group.sort_by_key(|&i| (sessions[i].start, sessions[i].src));
        let mut head = group[0];
        for &next in &group[1..] {
            let gap = sessions[next].start.saturating_since(sessions[head].end);
            if gap <= timeout && sessions[next].src != sessions[head].src {
                links.push(MigrationLink {
                    cid_key: key,
                    from: sessions[head].src,
                    to: sessions[next].src,
                    at: sessions[next].start,
                    gap,
                });
                let (merged, absorbed) = if head < next {
                    let (a, b) = sessions.split_at_mut(next);
                    (&mut a[head], &mut b[0])
                } else {
                    let (a, b) = sessions.split_at_mut(head);
                    (&mut b[0], &mut a[next])
                };
                merged.end = merged.end.max(absorbed.end);
                merged.start = merged.start.min(absorbed.start);
                merged.packet_count += absorbed.packet_count;
                merge_profile(&mut merged.minute_counts, &absorbed.minute_counts);
                dropped[next] = true;
            } else {
                head = next;
            }
        }
    }
    if !links.is_empty() {
        let mut keep = dropped.iter().map(|d| !d);
        sessions.retain(|_| keep.next().expect("flag per session"));
        sessions.sort_by_key(|s| (s.start, s.src));
        links.sort_by_key(|l| (l.at, l.cid_key));
    }
    links
}

/// Counts the sessions produced by each timeout in `timeouts`, plus the
/// `timeout = ∞` floor (unique sources) — the Fig. 4 sweep.
///
/// Computed from per-source inter-arrival gaps in a single pass:
/// `sessions(timeout) = #sources + #gaps_exceeding(timeout)`, which
/// avoids rerunning the sessionizer per timeout value. The returned
/// pairs preserve the order of `timeouts`.
pub fn timeout_sweep<I: IntoIterator<Item = (Timestamp, Ipv4Addr)>>(
    packets: I,
    timeouts: &[Duration],
) -> TimeoutSweep {
    let mut last_seen: HashMap<Ipv4Addr, Timestamp> = HashMap::new();
    let mut gaps: Vec<Duration> = Vec::new();
    let mut sources = 0u64;
    for (ts, src) in packets {
        match last_seen.get_mut(&src) {
            Some(last) => {
                gaps.push(ts.saturating_since(*last));
                // A tolerated late packet must not move `last` backwards
                // (the sessionizer's bounds only widen).
                *last = (*last).max(ts);
            }
            None => {
                sources += 1;
                last_seen.insert(src, ts);
            }
        }
    }
    gaps.sort_unstable();
    let counts = timeouts
        .iter()
        .map(|timeout| {
            // Gaps strictly greater than the timeout split sessions.
            let split = gaps.partition_point(|g| *g <= *timeout);
            let exceeding = (gaps.len() - split) as u64;
            (*timeout, sources + exceeding)
        })
        .collect();
    TimeoutSweep {
        counts,
        infinity_floor: sources,
    }
}

/// Result of [`timeout_sweep`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeoutSweep {
    /// `(timeout, session count)` in input order.
    pub counts: Vec<(Duration, u64)>,
    /// Session count for `timeout = ∞` (one session per source).
    pub infinity_floor: u64,
}

impl TimeoutSweep {
    /// Finds the knee: the smallest timeout after which the relative
    /// reduction per additional step drops below `threshold` (e.g. 0.01
    /// for 1 %). Assumes `counts` is ordered by increasing timeout.
    pub fn knee(&self, threshold: f64) -> Option<Duration> {
        for window in self.counts.windows(2) {
            let (t, c0) = window[0];
            let (_, c1) = window[1];
            if c0 == 0 {
                return Some(t);
            }
            let reduction = (c0 as f64 - c1 as f64) / c0 as f64;
            if reduction < threshold {
                return Some(t);
            }
        }
        self.counts.last().map(|(t, _)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn cfg(timeout_secs: u64) -> SessionConfig {
        SessionConfig {
            timeout: Duration::from_secs(timeout_secs),
            skew_tolerance: Duration::ZERO,
        }
    }

    fn cfg_skew(timeout_secs: u64, skew_secs: u64) -> SessionConfig {
        SessionConfig {
            timeout: Duration::from_secs(timeout_secs),
            skew_tolerance: Duration::from_secs(skew_secs),
        }
    }

    #[test]
    fn single_source_single_session() {
        let packets = (0..10).map(|i| (Timestamp::from_secs(i * 10), ip(1)));
        let sessions = sessionize(packets, cfg(300));
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert_eq!(s.src, ip(1));
        assert_eq!(s.packet_count, 10);
        assert_eq!(s.duration().as_secs(), 90);
    }

    #[test]
    fn a_tallying_sessionizer_keeps_the_tallies_of_attacks_only() {
        // One 2-pps flood of 240 packets (two minutes), then a trickle
        // from the same source after a gap, and one other source.
        let (thresholds, protocol) = (DosThresholds::moore(), AttackProtocol::Quic);
        let mut sessionizer = Sessionizer::<Vec<u64>>::tallying(cfg(300), thresholds, protocol);
        let mut offer = |secs_x2: u64, src: Ipv4Addr, n: u64| {
            sessionizer.offer_tallied(Timestamp::from_micros(secs_x2 * 500_000), src, |t| {
                t.push(n)
            });
        };
        for i in 0..240 {
            offer(i, ip(1), i);
        }
        for i in 0..5 {
            offer(10_000 + i, ip(1), 1_000 + i);
            offer(10_000 + i, ip(2), 2_000 + i);
        }
        let (sessions, tallies) = sessionizer.finish_tallied();
        assert_eq!(sessions.len(), 3);
        assert_eq!(tallies.len(), 1, "only the flood is an attack");
        let kept = &tallies[0];
        let flood = thresholds.attack(&sessions[0], protocol);
        assert_eq!(Some(&kept.attack), flood.as_ref());
        assert_eq!(
            (kept.attack.start, kept.attack.victim),
            (Timestamp::EPOCH, ip(1))
        );
        assert_eq!(kept.tally, (0..240).collect::<Vec<u64>>());
    }

    #[test]
    fn gap_splits_sessions() {
        let mut packets = vec![
            (Timestamp::from_secs(0), ip(1)),
            (Timestamp::from_secs(10), ip(1)),
        ];
        // Gap of 301 s > 300 s timeout.
        packets.push((Timestamp::from_secs(311), ip(1)));
        let sessions = sessionize(packets, cfg(300));
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].packet_count, 2);
        assert_eq!(sessions[1].packet_count, 1);
    }

    #[test]
    fn gap_exactly_timeout_does_not_split() {
        let packets = vec![
            (Timestamp::from_secs(0), ip(1)),
            (Timestamp::from_secs(300), ip(1)),
        ];
        let sessions = sessionize(packets, cfg(300));
        assert_eq!(sessions.len(), 1);
    }

    #[test]
    fn sources_are_independent() {
        let packets = vec![
            (Timestamp::from_secs(0), ip(1)),
            (Timestamp::from_secs(1), ip(2)),
            (Timestamp::from_secs(2), ip(1)),
            (Timestamp::from_secs(3), ip(3)),
        ];
        let sessions = sessionize(packets, cfg(300));
        assert_eq!(sessions.len(), 3);
        let total: u64 = sessions.iter().map(|s| s.packet_count).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn max_pps_uses_minute_slots() {
        // 120 packets in minute 0, 6 packets in minute 1.
        let mut packets = Vec::new();
        for i in 0..120u64 {
            packets.push((Timestamp::from_micros(i * 500_000), ip(1)));
        }
        for i in 0..6u64 {
            packets.push((Timestamp::from_secs(60 + i), ip(1)));
        }
        let sessions = sessionize(packets, cfg(300));
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert!((s.max_pps() - 2.0).abs() < 1e-9, "max_pps={}", s.max_pps());
    }

    #[test]
    fn late_packet_joins_open_session_without_panicking() {
        // The seed sessionizer panicked on any backwards timestamp;
        // bounded reordering is now tolerated: the late packet joins,
        // the watermark never regresses, and the session bounds widen
        // to cover it.
        let mut s = Sessionizer::new(cfg(300));
        s.offer(Timestamp::from_secs(10), ip(1));
        s.offer(Timestamp::from_secs(5), ip(1));
        s.offer(Timestamp::from_secs(12), ip(2));
        let sessions = s.finish();
        assert_eq!(sessions.len(), 2);
        let one = sessions.iter().find(|x| x.src == ip(1)).unwrap();
        assert_eq!(one.packet_count, 2);
        assert_eq!(one.start, Timestamp::from_secs(5));
        assert_eq!(one.end, Timestamp::from_secs(10));
    }

    #[test]
    fn late_packet_before_session_start_widens_start() {
        let mut s = Sessionizer::new(cfg(300));
        s.offer(Timestamp::from_secs(100), ip(1));
        s.offer(Timestamp::from_secs(40), ip(1));
        let sessions = s.finish();
        assert_eq!(sessions[0].start, Timestamp::from_secs(40));
        assert_eq!(sessions[0].end, Timestamp::from_secs(100));
        assert_eq!(sessions[0].duration().as_secs(), 60);
    }

    #[test]
    fn skew_tolerance_defers_expiry_for_tolerated_late_packets() {
        // ip(1) last speaks at t=0. Other traffic advances the
        // watermark to t=timeout+skew−1; a late ip(1) packet lagging
        // `skew` behind the watermark must still join its session —
        // under ZERO tolerance an interleaved sweep could have expired
        // it, splitting the session depending on sweep schedule.
        let timeout = 10;
        let skew = 5;
        let mut s = Sessionizer::new(cfg_skew(timeout, skew));
        s.offer(Timestamp::from_secs(0), ip(1));
        s.offer(Timestamp::from_secs(timeout + skew - 1), ip(2));
        // Force a sweep at the current watermark: must NOT expire ip(1)
        // (idle timeout+skew−1 ≤ timeout+skew).
        s.expire(Timestamp::from_secs(timeout + skew - 1));
        assert_eq!(s.open_count(), 2, "ip(1) must survive the sweep");
        // The tolerated late packet: lags skew−1 behind the watermark,
        // per-source gap timeout exactly → joins.
        s.offer(Timestamp::from_secs(timeout), ip(1));
        let sessions = s.finish();
        let one = sessions.iter().find(|x| x.src == ip(1)).unwrap();
        assert_eq!(one.packet_count, 2, "late packet must join, not split");
    }

    #[test]
    fn drain_and_open_count() {
        let mut s = Sessionizer::new(cfg(10));
        s.offer(Timestamp::from_secs(0), ip(1));
        s.offer(Timestamp::from_secs(0), ip(2));
        assert_eq!(s.open_count(), 2);
        assert!(s.drain().is_empty());
        // The packet at t=100 advances the watermark past both idle
        // sessions: ip(1)'s old session and ip(2)'s are expired, and
        // ip(1) starts a fresh session.
        s.offer(Timestamp::from_secs(100), ip(1));
        let drained = s.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(s.open_count(), 1);
    }

    #[test]
    fn drain_yields_timed_out_sessions_without_further_packets() {
        // Regression: drain() must surface sessions whose source went
        // silent past the timeout, even if that source never sends
        // again. Previously such sessions stayed in `open` until
        // finish(), growing memory with every one-shot source.
        let mut s = Sessionizer::new(cfg(10));
        s.offer(Timestamp::from_secs(0), ip(1));
        s.offer(Timestamp::from_secs(2), ip(1));
        // Another source advances the watermark far past ip(1)+timeout.
        s.offer(Timestamp::from_secs(60), ip(2));
        let drained = s.drain();
        assert_eq!(drained.len(), 1, "idle ip(1) session must drain");
        assert_eq!(drained[0].src, ip(1));
        assert_eq!(drained[0].packet_count, 2);
        assert_eq!(drained[0].end, Timestamp::from_secs(2));
        // The pre-fix behaviour — idle session still open — is gone.
        assert_eq!(s.open_count(), 1);
    }

    #[test]
    fn expire_bounds_open_sessions_for_one_shot_sources() {
        // 200 one-shot sources spread over time, timeout 10 s, one
        // packet every 1 s: the amortized sweep keeps `open` bounded by
        // the ~2·timeout window, not the full source count.
        let mut s = Sessionizer::new(cfg(10));
        for i in 0..200u64 {
            s.offer(Timestamp::from_secs(i), ip((i % 250) as u8));
        }
        assert!(
            s.peak_open_count() <= 23,
            "peak open {} must stay within the 2·timeout window",
            s.peak_open_count()
        );
        let total: u64 = s.finish().iter().map(|x| x.packet_count).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn expire_is_invisible_to_finish_output() {
        // Interleaving drains (which expire) must not change the final
        // session set relative to a run that only calls finish().
        let packets: Vec<(Timestamp, Ipv4Addr)> = (0..300u64)
            .map(|i| (Timestamp::from_secs(i * 7 % 2_000), ip((i % 9) as u8)))
            .collect();
        let mut ordered = packets;
        ordered.sort_by_key(|(ts, _)| *ts);

        let baseline = sessionize(ordered.iter().copied(), cfg(60));

        let mut s = Sessionizer::new(cfg(60));
        let mut collected = Vec::new();
        for (i, (ts, src)) in ordered.iter().enumerate() {
            s.offer(*ts, *src);
            if i % 37 == 0 {
                collected.extend(s.drain());
            }
        }
        collected.extend(s.finish());
        collected.sort_by_key(|x| (x.start, x.src));
        assert_eq!(collected, baseline);
    }

    #[test]
    fn expire_with_stale_watermark_is_a_no_op() {
        let mut s = Sessionizer::new(cfg(10));
        s.offer(Timestamp::from_secs(100), ip(1));
        // A watermark in the past can never make a session idle.
        s.expire(Timestamp::from_secs(0));
        assert_eq!(s.open_count(), 1);
        assert!(s.drain().is_empty());
    }

    #[test]
    fn finish_sorted_by_start() {
        let packets = vec![
            (Timestamp::from_secs(0), ip(5)),
            (Timestamp::from_secs(1), ip(4)),
            (Timestamp::from_secs(2), ip(3)),
        ];
        let sessions = sessionize(packets, cfg(300));
        let starts: Vec<u64> = sessions.iter().map(|s| s.start.as_secs()).collect();
        assert_eq!(starts, vec![0, 1, 2]);
    }

    #[test]
    fn timeout_sweep_matches_direct_sessionization() {
        // 3 sources with assorted gaps.
        let packets = vec![
            (Timestamp::from_secs(0), ip(1)),
            (Timestamp::from_secs(100), ip(1)),
            (Timestamp::from_secs(400), ip(1)),
            (Timestamp::from_secs(0), ip(2)),
            (Timestamp::from_secs(1000), ip(2)),
            (Timestamp::from_secs(500), ip(3)),
        ];
        let mut ordered = packets.clone();
        ordered.sort_by_key(|(ts, _)| *ts);
        let timeouts: Vec<Duration> = [60u64, 300, 600, 1200]
            .iter()
            .map(|s| Duration::from_secs(*s))
            .collect();
        let sweep = timeout_sweep(ordered.iter().copied(), &timeouts);
        for (timeout, count) in &sweep.counts {
            let direct = sessionize(
                ordered.iter().copied(),
                SessionConfig {
                    timeout: *timeout,
                    skew_tolerance: Duration::ZERO,
                },
            );
            assert_eq!(direct.len() as u64, *count, "timeout {timeout} mismatch");
        }
        assert_eq!(sweep.infinity_floor, 3);
    }

    #[test]
    fn sweep_is_monotone_decreasing() {
        let packets: Vec<_> = (0..500u64)
            .map(|i| (Timestamp::from_secs(i * 37 % 10_000), ip((i % 20) as u8)))
            .collect();
        let mut ordered = packets;
        ordered.sort_by_key(|(ts, _)| *ts);
        let timeouts: Vec<Duration> = (1..=60).map(Duration::from_mins).collect();
        let sweep = timeout_sweep(ordered, &timeouts);
        for w in sweep.counts.windows(2) {
            assert!(w[0].1 >= w[1].1, "session count must not increase");
        }
        assert!(sweep.counts.last().unwrap().1 >= sweep.infinity_floor);
    }

    #[test]
    fn knee_detection() {
        let sweep = TimeoutSweep {
            counts: vec![
                (Duration::from_mins(1), 1000),
                (Duration::from_mins(2), 800),
                (Duration::from_mins(3), 700),
                (Duration::from_mins(4), 660),
                (Duration::from_mins(5), 655),
                (Duration::from_mins(6), 654),
            ],
            infinity_floor: 600,
        };
        // With a 1 % threshold the knee lands where reduction < 1 %:
        // 4→5 min reduces by 5/660 ≈ 0.76 % ⇒ knee at 4? No: windows
        // are evaluated in order; 1→2 is 20 %, 2→3 is 12.5 %, 3→4 is
        // 5.7 %, 4→5 is 0.76 % < 1 % ⇒ returns 4 min.
        assert_eq!(sweep.knee(0.01), Some(Duration::from_mins(4)));
        // A looser threshold (6 %) stops earlier: 3→4 min reduces by
        // only 5.7 %.
        assert_eq!(sweep.knee(0.06), Some(Duration::from_mins(3)));
    }

    #[test]
    fn session_events_cover_the_lifecycle() {
        let mut sub: Vec<(EventMeta, Event)> = Vec::new();
        let mut s = Sessionizer::new(cfg(10));
        let meta = EventMeta::lifecycle();
        // Fresh open, then a backwards widening by a late packet.
        s.offer_keyed_with(
            Timestamp::from_secs(5),
            ip(1),
            None,
            "quic",
            &meta,
            &mut sub,
        );
        s.offer_keyed_with(
            Timestamp::from_secs(2),
            ip(1),
            None,
            "quic",
            &meta,
            &mut sub,
        );
        // Second source; its t=15 packet triggers a sweep that ip(1)
        // survives (idle exactly the timeout), advancing last_sweep.
        s.offer_keyed_with(
            Timestamp::from_secs(9),
            ip(2),
            None,
            "quic",
            &meta,
            &mut sub,
        );
        s.offer_keyed_with(
            Timestamp::from_secs(15),
            ip(2),
            None,
            "quic",
            &meta,
            &mut sub,
        );
        // The watermark is within a timeout of the last sweep, so no
        // sweep runs here and ip(1)'s 20 s gap takes the gap-close
        // branch: close + fresh open.
        s.offer_keyed_with(
            Timestamp::from_secs(25),
            ip(1),
            None,
            "quic",
            &meta,
            &mut sub,
        );
        // This packet's sweep expires both remaining sessions first;
        // its own session is still open at the final flush.
        s.offer_keyed_with(
            Timestamp::from_secs(401),
            ip(3),
            None,
            "quic",
            &meta,
            &mut sub,
        );
        let sessions = s.finish_with("quic", &meta, &mut sub);
        assert_eq!(sessions.len(), 4);

        let names: Vec<&str> = sub.iter().map(|(_, e)| e.name()).collect();
        assert_eq!(
            names,
            [
                "quicsand:session_opened",
                "quicsand:session_widened",
                "quicsand:session_opened",
                "quicsand:session_closed",
                "quicsand:session_opened",
                "quicsand:session_closed",
                "quicsand:session_closed",
                "quicsand:session_opened",
                "quicsand:session_closed",
            ]
        );
        // The widening reports how far the start moved.
        let Event::SessionWidened(w) = &sub[1].1 else {
            panic!("expected widened event");
        };
        assert_eq!(w.lead, Duration::from_secs(3));
        // The gap close is not an expiry; the sweep closes are.
        let Event::SessionClosed(gap) = &sub[3].1 else {
            panic!("expected closed event");
        };
        assert!(!gap.expired);
        assert_eq!(gap.src, ip(1));
        assert_eq!(gap.start, Timestamp::from_secs(2));
        assert_eq!(gap.packet_count, 2);
        for i in [5, 6] {
            let Event::SessionClosed(swept) = &sub[i].1 else {
                panic!("expected closed event");
            };
            assert!(swept.expired);
        }
        // Expiry order is deterministic: by (start, src).
        let swept = serde::to_value(&sub[5].1).expect("an event serializes");
        assert!(swept.get("src").is_some());
        let Event::SessionClosed(flush) = &sub[8].1 else {
            panic!("expected closed event");
        };
        assert!(!flush.expired);
        assert_eq!(flush.src, ip(3));
    }

    fn offer_keyed(s: &mut Sessionizer, ts: u64, src: Ipv4Addr, key: u64) {
        s.offer_keyed_with(
            Timestamp::from_secs(ts),
            src,
            Some(key),
            "",
            &EventMeta::lifecycle(),
            &mut NoopSubscriber,
        );
    }

    #[test]
    fn address_change_mid_flow_splits_without_linking() {
        // Failing-first shape of the migration bug: the same connection
        // (identical CID key) moves from ip(1) to ip(2) with only 5 s of
        // silence — far inside the timeout — yet address-keyed
        // sessionization yields two sessions. link_migrations is the
        // fix; this pins the raw behaviour it corrects.
        let mut s = Sessionizer::new(cfg(300));
        offer_keyed(&mut s, 0, ip(1), 0xabc);
        offer_keyed(&mut s, 10, ip(1), 0xabc);
        offer_keyed(&mut s, 15, ip(2), 0xabc);
        offer_keyed(&mut s, 20, ip(2), 0xabc);
        let sessions = s.finish();
        assert_eq!(sessions.len(), 2, "raw sessionization splits on address");
        assert!(sessions.iter().all(|x| x.cid_key == Some(0xabc)));
    }

    #[test]
    fn link_migrations_rejoins_migrated_flow() {
        let mut s = Sessionizer::new(cfg(300));
        offer_keyed(&mut s, 0, ip(1), 0xabc);
        offer_keyed(&mut s, 10, ip(1), 0xabc);
        offer_keyed(&mut s, 15, ip(2), 0xabc);
        offer_keyed(&mut s, 20, ip(2), 0xabc);
        // An unrelated keyed flow that does not migrate.
        offer_keyed(&mut s, 0, ip(9), 0xdef);
        let mut sessions = s.finish();
        let links = link_migrations(&mut sessions, Duration::from_secs(300));
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].from, ip(1));
        assert_eq!(links[0].to, ip(2));
        assert_eq!(links[0].at, Timestamp::from_secs(15));
        assert_eq!(links[0].gap, Duration::from_secs(5));
        assert_eq!(sessions.len(), 2);
        let migrated = sessions.iter().find(|x| x.src == ip(1)).unwrap();
        assert_eq!(migrated.packet_count, 4, "one session spans the move");
        assert_eq!(migrated.start, Timestamp::from_secs(0));
        assert_eq!(migrated.end, Timestamp::from_secs(20));
        let slot_total: u64 = migrated.minute_counts.iter().map(|c| c.count).sum();
        assert_eq!(slot_total, 4);
    }

    #[test]
    fn link_migrations_chains_multiple_hops() {
        // ip(1) → ip(2) → ip(3) under one CID collapses to one session.
        let mut s = Sessionizer::new(cfg(300));
        offer_keyed(&mut s, 0, ip(1), 7);
        offer_keyed(&mut s, 100, ip(2), 7);
        offer_keyed(&mut s, 200, ip(3), 7);
        let mut sessions = s.finish();
        let links = link_migrations(&mut sessions, Duration::from_secs(300));
        assert_eq!(links.len(), 2);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].src, ip(1), "earliest address is canonical");
        assert_eq!(sessions[0].packet_count, 3);
    }

    #[test]
    fn link_migrations_respects_timeout_and_address() {
        let timeout = Duration::from_secs(300);
        // Same CID, but the second half starts past the timeout: a
        // genuine new connection reusing the key — never folded.
        let mut s = Sessionizer::new(cfg(300));
        offer_keyed(&mut s, 0, ip(1), 1);
        offer_keyed(&mut s, 1000, ip(2), 1);
        let mut sessions = s.finish();
        assert!(link_migrations(&mut sessions, timeout).is_empty());
        assert_eq!(sessions.len(), 2);
        // Same source split by a timeout gap: never folded either (the
        // sessionizer only splits same-source flows past the timeout).
        let mut s = Sessionizer::new(cfg(10));
        offer_keyed(&mut s, 0, ip(1), 2);
        offer_keyed(&mut s, 500, ip(1), 2);
        let mut sessions = s.finish();
        assert!(link_migrations(&mut sessions, Duration::from_secs(10)).is_empty());
        assert_eq!(sessions.len(), 2);
        // Unkeyed sessions are untouched even when temporally adjacent.
        let mut s = Sessionizer::new(cfg(300));
        s.offer(Timestamp::from_secs(0), ip(1));
        s.offer(Timestamp::from_secs(5), ip(2));
        let mut sessions = s.finish();
        assert!(link_migrations(&mut sessions, timeout).is_empty());
        assert_eq!(sessions.len(), 2);
    }

    #[test]
    fn link_migrations_is_shard_order_invariant() {
        // The pass runs on the merged sorted list, so feeding the same
        // sessions from differently-sharded runs gives identical output.
        let mut one = Sessionizer::new(cfg(300));
        offer_keyed(&mut one, 0, ip(1), 5);
        offer_keyed(&mut one, 50, ip(2), 5);
        offer_keyed(&mut one, 60, ip(8), 9);
        let mut merged_single = one.finish();

        // "Two shards": ip(1)/ip(8) on shard A, ip(2) on shard B.
        let mut a = Sessionizer::new(cfg(300));
        offer_keyed(&mut a, 0, ip(1), 5);
        offer_keyed(&mut a, 60, ip(8), 9);
        let mut b = Sessionizer::new(cfg(300));
        offer_keyed(&mut b, 50, ip(2), 5);
        let mut merged_sharded = a.finish();
        merged_sharded.extend(b.finish());
        merged_sharded.sort_by_key(|s| (s.start, s.src));

        let links_single = link_migrations(&mut merged_single, Duration::from_secs(300));
        let links_sharded = link_migrations(&mut merged_sharded, Duration::from_secs(300));
        assert_eq!(links_single, links_sharded);
        assert_eq!(merged_single, merged_sharded);
        assert_eq!(merged_single.len(), 2);
    }

    proptest! {
        #[test]
        fn prop_link_migrations_conserves_packets(
            raw in proptest::collection::vec((0u64..2_000, 0u8..6, 0u64..4), 1..200),
        ) {
            let mut packets: Vec<(u64, Ipv4Addr, u64)> = raw
                .into_iter()
                .map(|(ts, src, key)| (ts, ip(src), key))
                .collect();
            packets.sort_by_key(|&(ts, src, _)| (ts, src));
            let mut s = Sessionizer::new(cfg(120));
            for &(ts, src, key) in &packets {
                offer_keyed(&mut s, ts, src, key);
            }
            let mut sessions = s.finish();
            let before = sessions.len();
            let links = link_migrations(&mut sessions, Duration::from_secs(120));
            prop_assert_eq!(before, sessions.len() + links.len());
            let total: u64 = sessions.iter().map(|x| x.packet_count).sum();
            prop_assert_eq!(total, packets.len() as u64);
            for w in sessions.windows(2) {
                prop_assert!((w[0].start, w[0].src) <= (w[1].start, w[1].src));
            }
            // Folded profiles stay sorted, duplicate-free and complete.
            for s in &sessions {
                prop_assert!(s.minute_counts.windows(2).all(|w| w[0].minute < w[1].minute));
                let slot_total: u64 = s.minute_counts.iter().map(|c| c.count).sum();
                prop_assert_eq!(slot_total, s.packet_count);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_packets_conserved(
            raw in proptest::collection::vec((0u64..5_000, 0u8..10), 1..300),
        ) {
            let mut packets: Vec<(Timestamp, Ipv4Addr)> = raw
                .into_iter()
                .map(|(s, src)| (Timestamp::from_secs(s), ip(src)))
                .collect();
            packets.sort_by_key(|(ts, _)| *ts);
            let n = packets.len() as u64;
            let sessions = sessionize(packets, cfg(120));
            let total: u64 = sessions.iter().map(|s| s.packet_count).sum();
            prop_assert_eq!(total, n);
            // Session invariants.
            for s in &sessions {
                prop_assert!(s.end >= s.start);
                prop_assert!(s.packet_count >= 1);
                let slot_total: u64 = s.minute_counts.iter().map(|c| c.count).sum();
                prop_assert_eq!(slot_total, s.packet_count);
            }
        }

        #[test]
        fn prop_larger_timeout_never_more_sessions(
            raw in proptest::collection::vec((0u64..5_000, 0u8..6), 1..200),
            t1 in 1u64..100,
            t2 in 100u64..1000,
        ) {
            let mut packets: Vec<(Timestamp, Ipv4Addr)> = raw
                .into_iter()
                .map(|(s, src)| (Timestamp::from_secs(s), ip(src)))
                .collect();
            packets.sort_by_key(|(ts, _)| *ts);
            let small = sessionize(packets.iter().copied(), cfg(t1)).len();
            let large = sessionize(packets.iter().copied(), cfg(t2)).len();
            prop_assert!(large <= small);
        }
    }
}
