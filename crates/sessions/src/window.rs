//! The session-window state machine (§5.1), once.
//!
//! A source's packets share a [`Window`] while the gap between them
//! stays within the timeout. [`SessionTable`] holds the open windows of
//! all sources and owns every rule about when one opens, widens and
//! closes; the batch [`Sessionizer`](crate::session::Sessionizer) and the
//! live detector's channels are adapters over it that differ only in the
//! payload they attach to a window and in the [`Steps`] they take.

use crate::session::SessionConfig;
use quicsand_net::{Duration, Timestamp};
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::net::Ipv4Addr;

/// One 1-minute slot of a window's packet-arrival profile: how many
/// packets landed in the slot plus the exact first and last arrival.
/// A closed alert's profile is these rows sorted by minute bucket.
///
/// The triple is what makes a closed alert *replayable*: re-synthesizing
/// `count` packets between `first` and `last` (endpoints exact, middles
/// evenly spaced) reproduces the session's start, end, packet count and
/// per-minute maxima — and therefore the identical attack record — when
/// offered to a fresh detector (see `quicsand_live::forensics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileCell {
    /// Minute bucket (`ts.minute_bucket()`).
    pub minute: u64,
    /// Packets in the slot.
    pub count: u64,
    /// First arrival in the slot.
    pub first: Timestamp,
    /// Last arrival in the slot.
    pub last: Timestamp,
}

impl ProfileCell {
    /// The slot `ts` falls into, before `ts` itself is counted.
    fn empty(ts: Timestamp) -> Self {
        ProfileCell {
            minute: ts.minute_bucket(),
            count: 0,
            first: ts,
            last: ts,
        }
    }
}

/// One source's open session: bounds, packet count and per-minute
/// arrival profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window {
    /// Timestamp of the earliest packet.
    pub start: Timestamp,
    /// Timestamp of the latest packet.
    pub last: Timestamp,
    /// Packets counted so far.
    pub packet_count: u64,
    /// Arrival profile, sorted by minute bucket. Packets almost always
    /// land in the newest slot, so a flat vector beats a map here.
    pub profile: Vec<ProfileCell>,
    /// Cached `max(profile[..].count)`; counts only grow, so this is
    /// maintainable in O(1) per packet.
    pub max_minute: u64,
}

impl Window {
    /// The window of a session whose first packet arrives at `ts`.
    #[inline]
    fn opened_by(ts: Timestamp) -> Self {
        let mut window = Window {
            start: ts,
            last: ts,
            packet_count: 0,
            profile: Vec::with_capacity(1),
            max_minute: 0,
        };
        window.join(ts);
        window
    }

    /// Counts one more packet. Bounds only widen (a late packet
    /// saturates to a zero gap).
    #[inline]
    fn join(&mut self, ts: Timestamp) {
        self.last = self.last.max(ts);
        self.start = self.start.min(ts);
        self.packet_count += 1;
        let minute = ts.minute_bucket();
        let cells = &mut self.profile;
        let at = match cells.last().map(|newest| newest.minute.cmp(&minute)) {
            Some(Ordering::Equal) => cells.len() - 1,
            // A tolerated late packet: an older slot, or a missing one.
            Some(Ordering::Greater) => cells
                .binary_search_by_key(&minute, |cell| cell.minute)
                .unwrap_or_else(|at| {
                    cells.insert(at, ProfileCell::empty(ts));
                    at
                }),
            _ => {
                cells.push(ProfileCell::empty(ts));
                cells.len() - 1
            }
        };
        let cell = &mut cells[at];
        cell.count += 1;
        cell.first = cell.first.min(ts);
        cell.last = cell.last.max(ts);
        if cell.count > self.max_minute {
            self.max_minute = cell.count;
        }
    }

    /// Maximum packet rate over all 1-minute slots, in packets per
    /// second — the intensity metric of §5.2 / Fig. 7(b).
    pub fn max_pps(&self) -> f64 {
        self.max_minute as f64 / 60.0
    }

    /// Window duration (latest − earliest packet).
    pub fn duration(&self) -> Duration {
        self.last.saturating_since(self.start)
    }
}

/// Checks what every profile a [`Window`] builds holds, and what
/// `Window::join` (a binary search by minute) and the replay of a
/// forensic slice (`last - first` per cell) rely on: cells strictly
/// increase by minute, and each counts at least one packet, with
/// `first <= last`, both inside its minute. Returns the busiest cell's
/// count, which is the window's `max_minute`.
pub fn check_profile(profile: &[ProfileCell]) -> Result<u64, String> {
    let mut busiest = 0;
    let mut previous: Option<u64> = None;
    for cell in profile {
        let minute = cell.minute;
        if let Some(before) = previous.filter(|&before| before >= minute) {
            return Err(format!("cell of minute {minute} follows minute {before}"));
        }
        if cell.count == 0 {
            return Err(format!("cell of minute {minute} counts no packet"));
        }
        let (first, last) = (cell.first.as_micros(), cell.last.as_micros());
        if first > last {
            return Err(format!(
                "cell of minute {minute} has `first` {first} after `last` {last}"
            ));
        }
        if cell.first.minute_bucket() != minute || cell.last.minute_bucket() != minute {
            return Err(format!(
                "cell of minute {minute} holds arrivals outside it ({first}..={last})"
            ));
        }
        busiest = busiest.max(cell.count);
        previous = Some(minute);
    }
    Ok(busiest)
}

/// Why a window closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The source's next packet came more than the timeout after its
    /// last one.
    Gap,
    /// The watermark sweep found the source idle past
    /// `timeout + skew_tolerance`.
    Expired,
    /// Forced out under the cap as the least recently active source;
    /// the one close that can truncate a session.
    Evicted,
    /// The stream ended ([`SessionTable::flush`]).
    Flushed,
}

/// A window that left a [`SessionTable`], with its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Closed<X> {
    /// Why it closed.
    pub why: CloseReason,
    /// Event time of the close: the sweep's watermark, the packet that
    /// exposed the gap or forced the eviction, or — at the final flush —
    /// the window's own last packet.
    pub at: Timestamp,
    /// The source whose window this was.
    pub src: Ipv4Addr,
    /// The closed window.
    pub window: Window,
    /// The payload that rode along.
    pub payload: X,
}

/// The offered packet, counted into its source's window.
#[derive(Debug)]
pub struct Counted<'a, X> {
    /// The packet's timestamp.
    pub at: Timestamp,
    /// The packet's source.
    pub src: Ipv4Addr,
    /// The packet opened the window rather than joining it.
    pub opened: bool,
    /// How far a late packet moved the window's start backwards (zero
    /// when it did not).
    pub lead: Duration,
    /// The window, the packet already counted.
    pub window: &'a Window,
    /// The window's payload.
    pub payload: &'a mut X,
}

/// What [`SessionTable::offer`] reports to, in the order things happen:
/// every window the packet closes, then the packet itself. One object
/// rather than two closures, so both methods can share what they write
/// to; a trait rather than one closure over an enum, so the per-packet
/// method is a single call the compiler inlines.
pub trait Steps<X> {
    /// A window left the table.
    fn closed(&mut self, closed: Closed<X>);
    /// The offered packet was counted.
    fn counted(&mut self, counted: Counted<'_, X>);
}

/// The open windows of all sources, each with a payload `X`, under the
/// timeout rule: a packet joins its source's window iff it comes no
/// more than `timeout` after the window's latest packet, otherwise that
/// window closes and the packet opens the next one.
///
/// Memory is bounded by the number of *recently active* sources: the
/// advancing packet-time watermark drives an idle sweep
/// ([`SessionTable::expire`]), so a source that goes silent is closed
/// out even if it never sends again, and at most `cap` sources are held
/// at once. Only the cap needs an order over the sources; an uncapped
/// table (the batch sessionizer's) never builds one.
#[derive(Debug)]
pub struct SessionTable<X> {
    config: SessionConfig,
    cap: usize,
    /// Keyed by attacker-chosen addresses, so this map stays on std's
    /// randomly keyed SipHash: that is the HashDoS defence of this layer.
    open: HashMap<Ipv4Addr, (Window, X)>,
    /// Lazy last-activity index for eviction, a min-heap of `(key, src)`
    /// that is either *empty* or holds *exactly one entry per open
    /// source* with `key <= last`. It is built from the map, with exact
    /// keys, only when a new source finds the table full
    /// ([`Self::make_room`]), and dropped by every sweep. While built, a
    /// new source pushes its entry; a packet joining an open window does
    /// not touch it, and the key is brought up to the source's actual
    /// `last` only when the entry surfaces in an eviction
    /// ([`Self::pop_idle`]). A window that restarts in place after a gap
    /// keeps its entry: the old key is still a lower bound.
    index: BinaryHeap<Reverse<(Timestamp, Ipv4Addr)>>,
    watermark: Timestamp,
    last_sweep: Timestamp,
    peak_open: usize,
    /// Index entries re-keyed so far (the model test bounds this by the
    /// number of joins).
    #[cfg(test)]
    rekeys: u64,
    /// Index entries popped so far: one per eviction, nothing else.
    #[cfg(test)]
    pops: u64,
}

impl<X> SessionTable<X> {
    /// An empty table holding at most `cap` sources (at least one).
    pub fn new(config: SessionConfig, cap: usize) -> Self {
        SessionTable {
            config,
            cap: cap.max(1),
            open: HashMap::new(),
            index: BinaryHeap::new(),
            watermark: Timestamp::EPOCH,
            last_sweep: Timestamp::EPOCH,
            peak_open: 0,
            #[cfg(test)]
            rekeys: 0,
            #[cfg(test)]
            pops: 0,
        }
    }

    /// Rebuilds a table from the parts a checkpoint keeps. The index
    /// starts empty: the first eviction derives it from the restored
    /// *map* (exact keys), so the two cannot disagree even if `open`
    /// repeats a source.
    pub fn restore(
        config: SessionConfig,
        cap: usize,
        watermark: Timestamp,
        last_sweep: Timestamp,
        peak_open: usize,
        open: impl IntoIterator<Item = (Ipv4Addr, Window, X)>,
    ) -> Self {
        let mut table = SessionTable::new(config, cap);
        table.watermark = watermark;
        table.last_sweep = last_sweep;
        table.peak_open = peak_open;
        for (src, window, payload) in open {
            table.open.insert(src, (window, payload));
        }
        table
    }

    /// Offers one packet of `src`. `on` sees, in order: the closes of
    /// an idle sweep this packet's timestamp triggered, then either the
    /// gap close of `src`'s previous window or the evictions that make
    /// room for a new source, then the counted packet. `fresh` builds
    /// the payload of a window this packet opens.
    ///
    /// Input is expected to be *approximately* time-ordered: the
    /// watermark only advances (`max` of everything seen), and a packet
    /// lagging behind it joins its window if the per-source gap allows
    /// — the ingest guard bounds the lag at its reorder tolerance, and
    /// [`SessionConfig::skew_tolerance`] keeps the sweep from expiring
    /// a window such a late packet would have joined.
    #[inline]
    pub fn offer(
        &mut self,
        ts: Timestamp,
        src: Ipv4Addr,
        fresh: impl FnOnce() -> X,
        on: &mut impl Steps<X>,
    ) {
        if ts > self.watermark {
            self.watermark = ts;
        }
        // Amortized idle sweep: once the watermark has advanced a full
        // timeout past the previous sweep. Keeps `open` at O(sources
        // active in the last 2·timeout window).
        if self.watermark.saturating_since(self.last_sweep) > self.config.timeout {
            self.expire(self.watermark, &mut |closed| on.closed(closed));
        }
        let (opened, lead, (window, payload)) = match self.open.get_mut(&src) {
            Some(slot) if ts.saturating_since(slot.0.last) <= self.config.timeout => {
                let lead = slot.0.start.saturating_since(ts);
                slot.0.join(ts);
                (false, lead, slot)
            }
            Some(slot) => {
                // Gap exceeded: the next window starts in the old one's
                // place (and under its index entry).
                let (window, payload) = std::mem::replace(slot, (Window::opened_by(ts), fresh()));
                on.closed(Closed {
                    why: CloseReason::Gap,
                    at: ts,
                    src,
                    window,
                    payload,
                });
                (true, Duration::ZERO, slot)
            }
            None => {
                self.make_room(ts, on);
                if !self.index.is_empty() {
                    self.index.push(Reverse((ts, src)));
                }
                self.peak_open = self.peak_open.max(self.open.len() + 1);
                let opened = (Window::opened_by(ts), fresh());
                (true, Duration::ZERO, self.open.entry(src).or_insert(opened))
            }
        };
        on.counted(Counted {
            at: ts,
            src,
            opened,
            lead,
            window,
            payload,
        });
    }

    /// Evicts until a source the table does not hold fits under the cap:
    /// the least recently active source's window is force-closed *now*;
    /// if that source speaks again a new window opens, so its boundaries
    /// may differ from an uncapped run. Builds the index if it is empty,
    /// in O(open): at most once per sweep, since otherwise only a cap of
    /// one (an index of one entry) runs it empty.
    fn make_room(&mut self, ts: Timestamp, on: &mut impl Steps<X>) {
        while self.open.len() >= self.cap {
            if self.index.is_empty() {
                self.index.extend(
                    self.open
                        .iter()
                        .map(|(src, (window, _))| Reverse((window.last, *src))),
                );
            }
            let evictee = self.pop_idle();
            let (window, payload) = self.open.remove(&evictee).expect("evictee open");
            on.closed(Closed {
                why: CloseReason::Evicted,
                at: ts,
                src: evictee,
                window,
                payload,
            });
        }
    }

    /// Pops the least recently active source from the built index: the
    /// exact minimum `(last, src)` over all open sources, which is what
    /// an eagerly maintained ordered set would hand out.
    ///
    /// A top entry whose key is stale is re-keyed to its source's actual
    /// `last` and sinks. Every other entry's actual `(last, src)` is
    /// ≥ its key ≥ the top's, so a top whose key *is* exact is the true
    /// minimum, ties included. A re-key happens only after a join
    /// advanced `last` past the key, so index work is amortised
    /// O(log n) per packet at worst and zero on the join path.
    fn pop_idle(&mut self) -> Ipv4Addr {
        loop {
            let mut top = self.index.peek_mut().expect("index tracks open");
            let Reverse((key, src)) = *top;
            let last = self.open[&src].0.last;
            if last == key {
                PeekMut::pop(top);
                #[cfg(test)]
                {
                    self.pops += 1;
                }
                return src;
            }
            top.0 .0 = last;
            #[cfg(test)]
            {
                self.rekeys += 1;
            }
        }
    }

    /// Closes every source idle past `timeout + skew_tolerance` as of
    /// `now`, in `(start, src)` order. Deferring by the skew tolerance
    /// means a packet admitted while lagging that far behind the
    /// watermark still finds its window open, whatever the sweep
    /// schedule — so expiry only changes *when* state is released, never
    /// where a session's boundaries fall.
    ///
    /// One pass over the open sources, and the index is dropped. From
    /// [`Self::offer`] that is amortised O(1) per packet: a sweep runs at
    /// most once per `timeout` of event time, and each source it scans
    /// either expires (its insertion pays) or was active since the
    /// previous sweep, or within `skew_tolerance` before it (that packet
    /// pays, for two scans at most). An explicit call costs the full
    /// pass.
    pub fn expire(&mut self, now: Timestamp, on: &mut impl FnMut(Closed<X>)) {
        // Micros arithmetic avoids an intermediate `Duration` overflow.
        let horizon = self.config.timeout.as_micros() + self.config.skew_tolerance.as_micros();
        self.last_sweep = now;
        let idle = self
            .open
            .iter()
            .filter(|(_, (window, _))| now.saturating_since(window.last).as_micros() > horizon)
            .map(|(src, (window, _))| (window.start, *src))
            .collect();
        self.close_in_order(idle, CloseReason::Expired, Some(now), on);
    }

    /// Closes every remaining source in `(start, src)` order — the
    /// end-of-stream flush.
    pub fn flush(&mut self, on: &mut impl FnMut(Closed<X>)) {
        let remaining = self
            .open
            .iter()
            .map(|(src, (window, _))| (window.start, *src))
            .collect();
        self.close_in_order(remaining, CloseReason::Flushed, None, on);
    }

    /// Closes the open sources named by their `(start, src)` keys in
    /// that order, whatever order the map listed them in, and drops the
    /// index. `at` is the close time, or `None` for each window's own
    /// last packet. Sorting the keys rather than the closing windows
    /// moves 16 bytes per source, not a window and its payload.
    fn close_in_order(
        &mut self,
        mut closing: Vec<(Timestamp, Ipv4Addr)>,
        why: CloseReason,
        at: Option<Timestamp>,
        on: &mut impl FnMut(Closed<X>),
    ) {
        self.index.clear();
        closing.sort_unstable();
        for (_, src) in closing {
            let (window, payload) = self.open.remove(&src).expect("closing source open");
            on(Closed {
                why,
                at: at.unwrap_or(window.last),
                src,
                window,
                payload,
            });
        }
    }

    /// The open windows with their payloads, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Addr, &Window, &X)> {
        self.open
            .iter()
            .map(|(src, (window, payload))| (*src, window, payload))
    }

    /// Number of open sources.
    pub fn len(&self) -> usize {
        self.open.len()
    }

    /// Whether no source is open.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// High-water mark of [`SessionTable::len`] — the memory bound the
    /// sweep and the cap enforce.
    pub fn peak_open(&self) -> usize {
        self.peak_open
    }

    /// Latest packet timestamp offered so far.
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Watermark of the last idle sweep.
    pub fn last_sweep(&self) -> Timestamp {
        self.last_sweep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, last)
    }

    /// An owned copy of one thing the table reported. The payload is
    /// the number of packets counted since the window opened, seeded by
    /// `fresh` with the offer's index times 1000 — so a payload that was
    /// built for the wrong packet, or lost on the way to a close, shows.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Closed(Closed<u64>),
        Counted(Timestamp, Ipv4Addr, bool, Duration, Window, u64),
    }

    impl Steps<u64> for Vec<Seen> {
        fn closed(&mut self, closed: Closed<u64>) {
            self.push(Seen::Closed(closed));
        }

        fn counted(&mut self, counted: Counted<'_, u64>) {
            *counted.payload += 1;
            self.push(Seen::Counted(
                counted.at,
                counted.src,
                counted.opened,
                counted.lead,
                counted.window.clone(),
                *counted.payload,
            ));
        }
    }

    /// The deliberately naive reference for [`SessionTable`]: the same
    /// rules with no index and no caches — full scans for the expired
    /// set and for the eviction minimum, ordered-map minute slots, the
    /// per-minute maximum recomputed from scratch.
    struct Oracle {
        config: SessionConfig,
        cap: usize,
        open: BTreeMap<Ipv4Addr, OracleWindow>,
        watermark: Timestamp,
        last_sweep: Timestamp,
        peak_open: usize,
        joins: u64,
    }

    struct OracleWindow {
        start: Timestamp,
        last: Timestamp,
        minutes: BTreeMap<u64, (u64, Timestamp, Timestamp)>,
        payload: u64,
    }

    impl OracleWindow {
        fn window(&self) -> Window {
            Window {
                start: self.start,
                last: self.last,
                packet_count: self.minutes.values().map(|slot| slot.0).sum(),
                profile: self
                    .minutes
                    .iter()
                    .map(|(&minute, &(count, first, last))| ProfileCell {
                        minute,
                        count,
                        first,
                        last,
                    })
                    .collect(),
                max_minute: self.minutes.values().map(|slot| slot.0).max().unwrap_or(0),
            }
        }
    }

    impl Oracle {
        fn new(config: SessionConfig, cap: usize) -> Self {
            Oracle {
                config,
                cap,
                open: BTreeMap::new(),
                watermark: Timestamp::EPOCH,
                last_sweep: Timestamp::EPOCH,
                peak_open: 0,
                joins: 0,
            }
        }

        fn close(&mut self, why: CloseReason, at: Timestamp, src: Ipv4Addr, seen: &mut Vec<Seen>) {
            let gone = self.open.remove(&src).expect("scanned");
            seen.push(Seen::Closed(Closed {
                why,
                at,
                src,
                window: gone.window(),
                payload: gone.payload,
            }));
        }

        fn close_all(
            &mut self,
            mut closing: Vec<(Timestamp, Ipv4Addr)>,
            why: CloseReason,
            at: Option<Timestamp>,
            seen: &mut Vec<Seen>,
        ) {
            closing.sort_unstable();
            for (_, src) in closing {
                let at = at.unwrap_or(self.open[&src].last);
                self.close(why, at, src, seen);
            }
        }

        fn offer(&mut self, ts: Timestamp, src: Ipv4Addr, fresh: u64, seen: &mut Vec<Seen>) {
            let SessionConfig {
                timeout,
                skew_tolerance,
            } = self.config;
            self.watermark = self.watermark.max(ts);
            let now = self.watermark;
            if now.saturating_since(self.last_sweep) > timeout {
                self.last_sweep = now;
                let horizon = timeout.as_micros() + skew_tolerance.as_micros();
                let expired = self
                    .open
                    .iter()
                    .filter(|(_, w)| now.saturating_since(w.last).as_micros() > horizon)
                    .map(|(src, w)| (w.start, *src))
                    .collect();
                self.close_all(expired, CloseReason::Expired, Some(now), seen);
            }
            let joins = self
                .open
                .get(&src)
                .is_some_and(|w| ts.saturating_since(w.last) <= timeout);
            let mut lead = Duration::ZERO;
            if joins {
                self.joins += 1;
                lead = self.open[&src].start.saturating_since(ts);
            } else {
                if self.open.contains_key(&src) {
                    self.close(CloseReason::Gap, ts, src, seen);
                }
                while self.open.len() >= self.cap {
                    let (_, evictee) = self
                        .open
                        .iter()
                        .map(|(src, w)| (w.last, *src))
                        .min()
                        .expect("cap is at least one");
                    self.close(CloseReason::Evicted, ts, evictee, seen);
                }
                let opened = OracleWindow {
                    start: ts,
                    last: ts,
                    minutes: BTreeMap::new(),
                    payload: fresh,
                };
                self.open.insert(src, opened);
                self.peak_open = self.peak_open.max(self.open.len());
            }
            let w = self.open.get_mut(&src).expect("just ensured");
            w.start = w.start.min(ts);
            w.last = w.last.max(ts);
            let slot = w.minutes.entry(ts.minute_bucket()).or_insert((0, ts, ts));
            *slot = (slot.0 + 1, slot.1.min(ts), slot.2.max(ts));
            w.payload += 1;
            seen.push(Seen::Counted(ts, src, !joins, lead, w.window(), w.payload));
        }

        fn flush(&mut self, seen: &mut Vec<Seen>) {
            let remaining = self.open.iter().map(|(src, w)| (w.start, *src)).collect();
            self.close_all(remaining, CloseReason::Flushed, None, seen);
        }
    }

    proptest! {
        /// Model-based equivalence: the indexed table and the naive
        /// oracle see the same random stream — few sources, timestamps
        /// that jitter backwards within the skew tolerance and now and
        /// then jump past the timeout, a cap from tight to unbounded
        /// (the batch configuration), one restore from parts somewhere
        /// in the middle (an empty index after it) — and must report the
        /// identical steps, sizes and peaks throughout, with the index
        /// invariants holding at every step and one pop per eviction, and
        /// every open profile passing [`check_profile`].
        #[test]
        fn prop_table_matches_a_naive_oracle(
            steps in proptest::collection::vec((0u8..12, 0u64..20_000, 0u8..100), 1..400),
            sources in 1u8..=12,
            cap in 0usize..4,
            restore_at in 0usize..400,
        ) {
            const TOLERANCE_MS: u64 = 5_000;
            const TIMEOUT_MS: u64 = 120_000;
            let config = SessionConfig {
                timeout: Duration::from_micros(TIMEOUT_MS * 1_000),
                skew_tolerance: Duration::from_micros(TOLERANCE_MS * 1_000),
            };
            let cap = [1, 2, 5, usize::MAX][cap];
            let mut table = SessionTable::<u64>::new(config, cap);
            let mut oracle = Oracle::new(config, cap);
            let restore_at = restore_at % steps.len();
            let (mut rekeys, mut pops, mut evictions) = (0, 0, 0);
            let mut now_ms = 1_000_000u64;
            for (i, &(raw_src, advance_ms, mode)) in steps.iter().enumerate() {
                if i == restore_at {
                    rekeys += table.rekeys;
                    pops += table.pops;
                    let open: Vec<_> = table
                        .iter()
                        .map(|(src, window, payload)| (src, window.clone(), *payload))
                        .collect();
                    table = SessionTable::restore(
                        config,
                        cap,
                        table.watermark(),
                        table.last_sweep(),
                        table.peak_open(),
                        open,
                    );
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
                let ts = Timestamp::from_micros(ts_ms * 1_000);
                let src = ip(raw_src % sources);
                let fresh = i as u64 * 1_000;
                let (mut got, mut want) = (Vec::new(), Vec::new());
                table.offer(ts, src, || fresh, &mut got);
                oracle.offer(ts, src, fresh, &mut want);
                prop_assert!(got == want, "step {i}: got {got:?}, want {want:?}");
                evictions += closes(&got, CloseReason::Evicted);
                prop_assert_eq!(table.len(), oracle.open.len());
                prop_assert_eq!(table.peak_open(), oracle.peak_open);
                prop_assert_eq!(table.watermark(), oracle.watermark);
                prop_assert_eq!(table.last_sweep(), oracle.last_sweep);
                // The index is empty, or one entry per open source keyed
                // at or before its actual last activity.
                let indexed: BTreeSet<_> = table.index.iter().map(|Reverse((_, src))| *src).collect();
                prop_assert!(table.index.is_empty() || table.index.len() == table.open.len());
                prop_assert_eq!(indexed.len(), table.index.len());
                prop_assert!(table.index.iter().all(|Reverse((key, src))| {
                    table.open.get(src).is_some_and(|(w, _)| *key <= w.last)
                }));
                // Every profile a window builds is one a checkpoint reader
                // accepts, its busiest cell counted in `max_minute`.
                for (_, window, _) in table.iter() {
                    prop_assert_eq!(check_profile(&window.profile), Ok(window.max_minute));
                }
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            table.flush(&mut |closed| got.push(Seen::Closed(closed)));
            oracle.flush(&mut want);
            prop_assert!(got == want, "flush: got {got:?}, want {want:?}");
            prop_assert!(table.is_empty());
            prop_assert_eq!(table.index.len(), 0);
            // Every re-key is paid for by a join since the key was set,
            // and the index is popped by evictions only.
            rekeys += table.rekeys;
            prop_assert!(rekeys <= oracle.joins, "{rekeys} re-keys > {} joins", oracle.joins);
            prop_assert_eq!(pops + table.pops, evictions);
        }
    }

    /// How many of `seen` are closes for `reason`.
    fn closes(seen: &[Seen], reason: CloseReason) -> u64 {
        seen.iter()
            .filter(|step| matches!(step, Seen::Closed(closed) if closed.why == reason))
            .count() as u64
    }

    fn five_minutes() -> SessionConfig {
        SessionConfig {
            timeout: Duration::from_secs(300),
            skew_tolerance: Duration::from_secs(5),
        }
    }

    /// A distinct address per `i` (an odd multiplier is a bijection on
    /// 24 bits), as `victim_churn` spoofs them.
    fn spoofed(i: u64) -> Ipv4Addr {
        Ipv4Addr::from(0x0b00_0000 | (i as u32).wrapping_mul(0x9E_37_79) & 0x00FF_FFFF)
    }

    /// Offers `(micros, src)` packets in time order.
    fn offer_sorted(table: &mut SessionTable<u64>, mut packets: Vec<(u64, Ipv4Addr)>) -> Vec<Seen> {
        packets.sort_unstable();
        let mut seen = Vec::new();
        for (ts, src) in packets {
            table.offer(Timestamp::from_micros(ts), src, || 0, &mut seen);
        }
        seen
    }

    #[test]
    fn an_uncapped_table_never_builds_its_heap() {
        // The batch configuration through joins, gap restarts, a sweep of
        // thousands, a restore and a flush: no heap entry is ever pushed,
        // popped or even allocated.
        let mut table = SessionTable::<u64>::new(five_minutes(), usize::MAX);
        let s = 1_000_000;
        let mut packets = Vec::new();
        for i in 0..3_000 {
            let start = 1_000 * s + i * 50_000;
            packets.extend([(start, spoofed(i)), (start + 2 * s, spoofed(i))]);
            if i < 100 {
                // Back after 301 s, before a sweep could expire it.
                packets.push((start + 303 * s, spoofed(i)));
            }
        }
        let seen = offer_sorted(&mut table, packets);
        assert_eq!(closes(&seen, CloseReason::Gap), 100);
        assert_eq!(table.len(), 3_000);
        assert_eq!(table.index.capacity(), 0);

        let seen = offer_sorted(&mut table, vec![(2_000 * s, ip(1))]);
        assert_eq!(seen.len(), 3_001, "3 000 expired, then the packet");
        assert_eq!(table.len(), 1);
        assert_eq!(table.index.capacity(), 0);

        let open: Vec<_> = table
            .iter()
            .map(|(src, window, payload)| (src, window.clone(), *payload))
            .collect();
        let mut table = SessionTable::restore(
            five_minutes(),
            usize::MAX,
            table.watermark(),
            table.last_sweep(),
            table.peak_open(),
            open,
        );
        let packets = (0..500).map(|i| (2_001 * s + i, spoofed(i))).collect();
        offer_sorted(&mut table, packets);
        let mut flushed = 0;
        table.flush(&mut |_| flushed += 1);
        assert_eq!(flushed, 501);
        assert_eq!(table.index.capacity(), 0);
        assert_eq!((table.rekeys, table.pops), (0, 0));
    }

    #[test]
    fn churn_evicts_with_one_pop_per_eviction() {
        // `victim_churn` scaled down: 2 000 spoofed sources of 6 packets
        // 0.5 s apart, their starts spread over 240 s (inside the timeout,
        // so no sweep runs), against a cap of 1 024. The heap is built
        // once, when source 1 024 arrives, with exact keys. Every evictee
        // had sent its last packet before that, so no entry is re-keyed
        // and every pop is an eviction.
        let mut table = SessionTable::<u64>::new(five_minutes(), 1_024);
        let packets = (0..2_000)
            .flat_map(|i| {
                (0..6).map(move |k| (1_000_000_000 + i * 120_000 + k * 500_000, spoofed(i)))
            })
            .collect();
        let seen = offer_sorted(&mut table, packets);
        assert_eq!(closes(&seen, CloseReason::Evicted), 2_000 - 1_024);
        assert_eq!(table.rekeys, 0);
        assert_eq!(table.pops, 2_000 - 1_024);
        assert_eq!(table.index.len(), table.len());
    }

    #[test]
    fn a_mass_sweep_closes_what_the_oracle_closes() {
        // 5 000 sources of two packets, 50 that keep sending every minute,
        // then a sweep that expires every two-packet source still open at
        // once, then 3 500 new sources (which, under a cap, rebuild the
        // heap the sweep dropped).
        let s = 1_000_000;
        let mut packets = Vec::new();
        for i in 0..5_000 {
            let start = 1_000 * s + i * 20_000;
            packets.extend([(start, spoofed(i)), (start + s, spoofed(i))]);
        }
        for p in 0..50 {
            packets.extend((0..15).map(|k| (1_000 * s + k * 60 * s + p * 100_000, ip(p as u8))));
        }
        for i in 5_000..8_500 {
            packets.push((1_700 * s + (i - 5_000) * 10_000, spoofed(i)));
        }
        packets.sort_unstable();
        for cap in [usize::MAX, 3_000] {
            let mut table = SessionTable::<u64>::new(five_minutes(), cap);
            let mut oracle = Oracle::new(five_minutes(), cap);
            let mut largest_sweep = 0;
            for (i, &(ts, src)) in packets.iter().enumerate() {
                let ts = Timestamp::from_micros(ts);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                table.offer(ts, src, || 0, &mut got);
                oracle.offer(ts, src, 0, &mut want);
                assert!(
                    got == want,
                    "cap {cap}, packet {i}: got {got:?}, want {want:?}"
                );
                largest_sweep = largest_sweep.max(closes(&got, CloseReason::Expired));
            }
            assert!(
                largest_sweep >= 2_000,
                "cap {cap}: largest sweep {largest_sweep}"
            );
            let (mut got, mut want) = (Vec::new(), Vec::new());
            table.flush(&mut |closed| got.push(Seen::Closed(closed)));
            oracle.flush(&mut want);
            assert!(got == want, "cap {cap}: flush differs");
        }
    }

    #[test]
    fn restore_indexes_the_map_not_the_parts() {
        // Parts that list one source twice, with two different `last`
        // values: the map keeps one window, and the index must describe
        // that map — or the next sweep finds an entry for a source that
        // is already gone.
        let config = SessionConfig {
            timeout: Duration::from_secs(10),
            skew_tolerance: Duration::ZERO,
        };
        let twin = |last| {
            let mut window = Window::opened_by(Timestamp::from_secs(1));
            window.join(Timestamp::from_secs(last));
            (ip(1), window, 0u64)
        };
        let mut table = SessionTable::restore(
            config,
            usize::MAX,
            Timestamp::from_secs(3),
            Timestamp::EPOCH,
            1,
            [twin(2), twin(3)],
        );
        assert_eq!(table.len(), 1);
        let mut seen = Vec::new();
        table.offer(Timestamp::from_secs(1_000), ip(2), || 0, &mut seen);
        assert!(
            matches!(
                seen[..],
                [
                    Seen::Closed(Closed {
                        why: CloseReason::Expired,
                        ..
                    }),
                    Seen::Counted(_, _, true, ..)
                ]
            ),
            "{seen:?}"
        );
        assert_eq!(table.len(), 1);
    }
}
