//! # quicsand-traffic
//!
//! Synthetic Internet-background-radiation scenario generator — the
//! substitute for the (unavailable) UCSD telescope trace of April 2021.
//!
//! The generator produces the telescope-visible packet stream from first
//! principles: research scanners sweep the address space, malicious
//! scanners probe diurnally from eyeball networks, spoofed QUIC floods
//! elicit backscatter from content-provider servers (sampled into the
//! /9 with the correct 1/512 probability), TCP/ICMP floods provide the
//! common-protocol baseline, and misconfigured hosts add low-volume
//! noise. Every component is parameterized by the population statistics
//! the paper reports, **not** by per-figure outputs — the analyses must
//! rediscover the paper's findings from the packets.
//!
//! Modules:
//!
//! * [`config`] — scenario knobs with `test()` and `paper_month()`
//!   presets, including the documented sub-sampling factors.
//! * [`backscatter`] — QUIC server response synthesis (the §6 flight:
//!   Initial+Handshake coalesced, a trailing Handshake, occasional
//!   keep-alives), per provider profile.
//! * [`research`] — TUM/RWTH full-IPv4 sweeps (Fig. 2 bias).
//! * [`scanners`] — malicious request scans (diurnal, eyeball origins,
//!   GreyNoise-tagged).
//! * [`floods`] — QUIC flood backscatter plus orchestrated TCP/ICMP
//!   floods for the multi-vector structure (Figs. 6–13).
//! * [`misconfig`] — low-volume response noise (Appendix B).
//! * [`scenario`] — the orchestrator producing a time-sorted capture
//!   and the ground truth for validation.
//! * [`scenarios`] — the post-2021 workload tier: connection-migration
//!   abuse, evolving aggressive scanners, version drift and Retry
//!   amplification, layered on the baseline scenario.
//! * [`streaming`] — constant-memory lazy record generation (10M+
//!   records without materializing).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backscatter;
pub mod config;
pub mod floods;
pub mod misconfig;
pub mod research;
pub mod scanners;
pub mod scenario;
pub mod scenarios;
pub mod streaming;

pub use config::ScenarioConfig;
pub use scenario::{GroundTruth, Scenario};
pub use scenarios::{EvolvingScanConfig, EvolvingScanStream, ScenarioKind, UnknownScenario};
pub use streaming::{RecordStream, StreamConfig};
