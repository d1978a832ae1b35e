//! Streaming flood-detection engine for the QUICsand telescope.
//!
//! The batch pipeline answers "what attacks happened in this capture?"
//! after reading all of it. This crate answers the same question *while
//! the capture is still arriving*: records stream through the ingest
//! guard into per-victim sliding-window state, and alerts move through
//! an explicit lifecycle (`Opened → Escalated → Closed`, plus
//! `Reclassified` when a later TCP/ICMP flood upgrades a closed QUIC
//! alert's multi-vector verdict).
//!
//! The design contract is **online ≡ offline**: on any finite trace the
//! set of closed alerts equals what batch
//! [`detect_attacks`](quicsand_sessions::dos::detect_attacks) +
//! [`classify_multivector`](quicsand_sessions::multivector::classify_multivector)
//! produce for the same thresholds — at any shard count, any chunk
//! size, and across a [`LiveEngine::snapshot`] / [`LiveEngine::restore`]
//! checkpoint. The only sanctioned divergence is memory-pressure
//! eviction (the per-channel victim cap), which is surfaced explicitly
//! via [`LiveEvent::evicted`] and counted in [`LiveStats::evictions`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod detector;
pub mod engine;
pub mod forensics;
pub mod metrics;
pub mod multi;

pub use alert::{EvidencePacket, LiveEvent, LiveEventKind};
pub use detector::{
    ClassifiedAttack, DetectorSnapshot, LiveConfig, LiveDetector, LiveStats, ProfileCell,
};
pub use engine::{LiveEngine, LiveSnapshot};
pub use forensics::{
    parse_slice_qlog, replay_slice, synthesize_packets, AlertSlice, ReplayOutcome, SliceChannel,
    SlicePacket,
};
pub use metrics::LiveMetrics;
pub use multi::{parse_checkpoint, MultiSnapshot, MultiSourceLive, CHECKPOINT_SCHEMA_VERSION};
