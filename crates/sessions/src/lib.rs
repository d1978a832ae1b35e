//! # quicsand-sessions
//!
//! Event-level analyses of telescope traffic, reproducing §5 of the
//! paper:
//!
//! * [`session`] — timeout-based sessionization ("packets from a
//!   specific source belong to a single session as long as the
//!   inactivity period between them is no longer than the timeout",
//!   §5.1) plus the timeout-sweep used to pick the 5-minute knee
//!   (Fig. 4).
//! * [`window`] — the session-window state machine behind it, shared
//!   with the live detector: open windows per source, idle sweep,
//!   bounded eviction.
//! * [`dos`] — DoS attack inference with the Moore et al. thresholds
//!   (>25 packets, >60 s, >0.5 max pps over 1-minute slots) and the
//!   threshold-weight sweep of Appendix B (Fig. 10).
//! * [`multivector`] — correlation of QUIC floods with TCP/ICMP floods:
//!   concurrent / sequential / isolated classification (Fig. 8), overlap
//!   shares (Fig. 12) and sequential time gaps (Fig. 13).
//! * [`cdf`] — empirical distribution utilities backing every CDF
//!   figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod dos;
pub mod metrics;
pub mod multivector;
pub mod session;
pub mod window;

pub use cdf::Cdf;
pub use dos::{detect_attacks, Attack, DosThresholds};
pub use metrics::{DosMetrics, SessionMetrics};
pub use multivector::{
    classify_multivector, classify_multivector_with, MultiVectorClass, MultiVectorReport,
    VectorKind, VectorSignals,
};
pub use session::{
    link_migrations, MigrationLink, Session, SessionConfig, Sessionizer, SessionizerCounters,
};
pub use window::{CloseReason, Closed, Counted, ProfileCell, SessionTable, Steps, Window};
