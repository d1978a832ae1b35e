//! quicsand-events: the typed event layer of the pipeline.
//!
//! Metrics answer "how much"; this crate answers "what happened, in
//! order". Dissect rejections, Retry / Version Negotiation sightings,
//! sessionization transitions and the live alert lifecycle are all
//! surfaced as typed event structs delivered to a [`Subscriber`].
//!
//! The design borrows s2n-quic's `s2n-events` codegen layer for the
//! taxonomy — a single [`events!`] definition derives the event structs
//! and the [`Event`] enum over them — but delivers through one hook:
//! [`Subscriber::on`] takes each event as an [`Event`], built once at
//! its emission site and moved in, so a subscriber (or a wrapper around
//! one) is two methods whatever the number of kinds. Emission sites are
//! generic over `S: Subscriber` and guard event construction behind
//! [`Subscriber::enabled`]; [`NoopSubscriber`] returns a compile-time
//! `false` there, so every `*_with` entry point monomorphizes down to
//! exactly the subscriber-free machine code — an absent subscriber
//! costs nothing, which is why the bench gates are required not to
//! move. A `Vec<(EventMeta, Event)>` is itself a subscriber that
//! collects: the per-shard buffer sharded emission merges by record
//! index.
//!
//! [`qlog::QlogWriter`] is the shipping subscriber: it serializes the
//! stream as qlog 0.4 JSON-SEQ (RFC 7464 framing) with one trace per
//! run and per-feed vantage metadata, the format the QUIC ecosystem's
//! qlog tooling already reads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod qlog;

use quicsand_net::{Duration, Timestamp};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Per-emission context that is not part of the event payload itself.
///
/// `record_index` is the absolute index of the triggering record in the
/// offered stream (across chunks and shards), when the event is tied to
/// a single record; lifecycle events that summarize many records carry
/// `None`. The index is what makes sharded emission deterministic: each
/// shard collects `(meta, event)` pairs and the merge orders them by
/// record index, so the stream is identical at any shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventMeta {
    /// Absolute index of the triggering record in the offered stream.
    pub record_index: Option<u64>,
}

impl EventMeta {
    /// Meta for an event triggered by record `index`.
    pub fn record(index: u64) -> Self {
        EventMeta {
            record_index: Some(index),
        }
    }

    /// Meta for a lifecycle event not tied to a single record.
    pub fn lifecycle() -> Self {
        EventMeta { record_index: None }
    }
}

/// Defines the event taxonomy: one struct per event and the [`Event`]
/// enum over them, with its qlog name, time and payload accessors.
///
/// Every event struct carries an `at: Timestamp` field (its event
/// time); the macro relies on that to generate [`Event::at`].
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $qname:literal => $name:ident {
            $( $(#[$fdoc:meta])* $field:ident : $ty:ty ),* $(,)?
        }
    )*) => {
        $(
            $(#[$doc])*
            #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
            pub struct $name {
                /// Event time.
                pub at: Timestamp,
                $( $(#[$fdoc])* pub $field : $ty, )*
            }
        )*

        /// Every event kind, as one enum — what [`Subscriber::on`]
        /// receives and what sharded emission merges by record index.
        #[derive(Debug, Clone, PartialEq)]
        #[allow(missing_docs)]
        pub enum Event {
            $( $name($name), )*
        }

        impl Event {
            /// The qlog event name (`quicsand:` namespace).
            pub fn name(&self) -> &'static str {
                match self {
                    $( Event::$name(_) => $qname, )*
                }
            }

            /// The event time.
            pub fn at(&self) -> Timestamp {
                match self {
                    $( Event::$name(e) => e.at, )*
                }
            }

            /// The event payload as a serde value tree (the qlog
            /// `data` member).
            pub fn data_value(&self) -> serde::Value {
                match self {
                    $( Event::$name(e) => serde::to_value(e)
                        .expect("event structs always serialize"), )*
                }
            }
        }
    };
}

events! {
    /// A record the ingest guard or the QUIC dissector rejected; the
    /// reason is the `IngestError` quarantine label.
    "quicsand:wire_rejected" => WireRejected {
        /// Quarantine-taxonomy label (e.g. `truncated`, `duplicate`).
        reason: String,
    }

    /// A dissected QUIC Retry — the paper's unused defence (§6); any
    /// sighting on a telescope is noteworthy.
    "quicsand:retry_observed" => RetryObserved {
        /// Packet source.
        src: Ipv4Addr,
        /// Packet destination (telescope address).
        dst: Ipv4Addr,
    }

    /// A dissected QUIC Version Negotiation packet (scan responses and
    /// version-mix probes).
    "quicsand:version_negotiation" => VersionNegotiationObserved {
        /// Packet source.
        src: Ipv4Addr,
        /// Packet destination (telescope address).
        dst: Ipv4Addr,
    }

    /// A sessionizer opened a fresh per-source session.
    "quicsand:session_opened" => SessionOpened {
        /// Session source address.
        src: Ipv4Addr,
        /// Which channel the session lives on (`quic` / `tcp_icmp`).
        channel: String,
    }

    /// A late packet widened an open session's bounds backwards —
    /// admissible reordering, surfaced because it moves session start.
    "quicsand:session_widened" => SessionWidened {
        /// Session source address.
        src: Ipv4Addr,
        /// Which channel the session lives on.
        channel: String,
        /// How far the session start moved backwards.
        lead: Duration,
    }

    /// A session closed (gap, watermark expiry, or end of stream).
    "quicsand:session_closed" => SessionClosed {
        /// Session source address.
        src: Ipv4Addr,
        /// Which channel the session lived on.
        channel: String,
        /// First packet time.
        start: Timestamp,
        /// Packets in the session.
        packet_count: u64,
        /// Whether the watermark expired it (vs. gap / end of stream).
        expired: bool,
    }

    /// A CID-keyed migration link re-joined two address-split session
    /// halves: the same connection continued from a new source address
    /// within the session timeout (Buchet-style migration).
    "quicsand:session_migrated" => SessionMigrated {
        /// Source address before the migration (the canonical one the
        /// merged session keeps).
        from: Ipv4Addr,
        /// Source address after the migration.
        to: Ipv4Addr,
        /// Which channel the session lives on.
        channel: String,
        /// Connection-ID key both halves carried.
        cid_key: u64,
        /// Silence between the halves (zero when overlapping).
        gap: Duration,
    }

    /// A live alert crossed the detection threshold (lifecycle: Open).
    "quicsand:alert_opened" => AlertOpened {
        /// Flood victim.
        victim: Ipv4Addr,
        /// Attack protocol label (`quic` / `tcp_icmp`).
        protocol: String,
    }

    /// A live alert crossed the escalation tier.
    "quicsand:alert_escalated" => AlertEscalated {
        /// Flood victim.
        victim: Ipv4Addr,
        /// Attack protocol label.
        protocol: String,
    }

    /// A live alert closed, with its attack measures and (for QUIC)
    /// the multi-vector verdict at close time.
    "quicsand:alert_closed" => AlertClosed {
        /// Flood victim.
        victim: Ipv4Addr,
        /// Attack protocol label.
        protocol: String,
        /// Attack start.
        start: Timestamp,
        /// Packets attributed to the attack.
        packet_count: u64,
        /// Peak packets/s over 1-minute slots.
        max_pps: f64,
        /// Multi-vector verdict (`concurrent` / `sequential` /
        /// `isolated`), QUIC channel only.
        class: Option<String>,
        /// Overlap share behind a `concurrent` verdict.
        overlap_share: Option<f64>,
        /// Gap (seconds) behind a `sequential` verdict.
        gap_secs: Option<f64>,
        /// Whether memory-pressure eviction forced the close.
        evicted: bool,
    }

    /// A later TCP/ICMP flood upgraded a closed QUIC alert's verdict.
    "quicsand:alert_reclassified" => AlertReclassified {
        /// Flood victim.
        victim: Ipv4Addr,
        /// Attack protocol label.
        protocol: String,
        /// The upgraded verdict.
        class: Option<String>,
        /// Overlap share behind the new verdict.
        overlap_share: Option<f64>,
        /// Gap (seconds) behind the new verdict.
        gap_secs: Option<f64>,
    }
}

/// Receives pipeline events, each built once and moved in.
///
/// Emission sites must guard event construction behind
/// [`Subscriber::enabled`]; with [`NoopSubscriber`] that guard is a
/// compile-time `false` and the whole emission path folds away.
pub trait Subscriber {
    /// Whether this subscriber wants events at all. Emission sites skip
    /// event construction when this is `false`.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Delivers one event with its per-emission context.
    fn on(&mut self, meta: EventMeta, event: Event);
}

/// The zero-cost subscriber: [`Subscriber::enabled`] is a compile-time
/// `false`, so generic emission paths instantiated with it carry no
/// event code at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn on(&mut self, _: EventMeta, _: Event) {}
}

/// Collects every event in emission order — the per-shard collection
/// buffer (merged by record index afterwards) and the test harness.
impl Subscriber for Vec<(EventMeta, Event)> {
    #[inline]
    fn on(&mut self, meta: EventMeta, event: Event) {
        self.push((meta, event));
    }
}

/// `None` behaves like [`NoopSubscriber`] (disabled, so emission sites
/// skip event construction); `Some(s)` delegates to `s`. This is the
/// toggle the CLI uses for optional `--events-out`.
impl<S: Subscriber> Subscriber for Option<S> {
    #[inline]
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(Subscriber::enabled)
    }

    #[inline]
    fn on(&mut self, meta: EventMeta, event: Event) {
        if let Some(inner) = self {
            inner.on(meta, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> Event {
        Event::SessionOpened(SessionOpened {
            at: Timestamp::from_secs(12),
            src: Ipv4Addr::new(198, 51, 100, 7),
            channel: "quic".into(),
        })
    }

    /// Three events of different kinds, each with a different meta.
    fn sample_stream() -> Vec<(EventMeta, Event)> {
        vec![
            (
                EventMeta::record(3),
                Event::WireRejected(WireRejected {
                    at: Timestamp::from_secs(1),
                    reason: "truncated".into(),
                }),
            ),
            (EventMeta::record(1), sample_event()),
            (
                EventMeta::lifecycle(),
                Event::AlertOpened(AlertOpened {
                    at: Timestamp::from_secs(3),
                    victim: Ipv4Addr::new(10, 0, 0, 2),
                    protocol: "quic".into(),
                }),
            ),
        ]
    }

    fn feed<S: Subscriber>(subscriber: &mut S) {
        for (meta, event) in sample_stream() {
            subscriber.on(meta, event);
        }
    }

    #[test]
    fn noop_subscriber_is_disabled() {
        assert!(!NoopSubscriber.enabled());
        feed(&mut NoopSubscriber);
        let mut none: Option<Vec<(EventMeta, Event)>> = None;
        assert!(!none.enabled());
        feed(&mut none);
        assert_eq!(none, None);
        // `Some` of a disabled subscriber is disabled too.
        assert!(!Some(NoopSubscriber).enabled());
    }

    #[test]
    fn collectors_receive_every_event_in_order_with_its_meta() {
        let mut bare: Vec<(EventMeta, Event)> = Vec::new();
        assert!(bare.enabled());
        feed(&mut bare);
        assert_eq!(bare, sample_stream());

        let mut some = Some(Vec::new());
        assert!(some.enabled());
        feed(&mut some);
        assert_eq!(some, Some(sample_stream()));
        let names: Vec<&str> = bare.iter().map(|(_, e)| e.name()).collect();
        assert_eq!(
            names,
            [
                "quicsand:wire_rejected",
                "quicsand:session_opened",
                "quicsand:alert_opened"
            ]
        );
    }

    #[test]
    fn event_accessors() {
        let event = sample_event();
        assert_eq!(event.name(), "quicsand:session_opened");
        assert_eq!(event.at(), Timestamp::from_secs(12));
        let data = event.data_value();
        assert!(data.get("src").is_some());
        assert!(data.get("channel").is_some());
    }
}
