//! # quicsand-telescope
//!
//! The telescope-side processing pipeline (§4 of the paper):
//!
//! 1. ingest captured records ([`pipeline`]): port-filter, dissect,
//!    reject false positives — producing per-packet QUIC observations;
//! 2. identify and remove research scanners ([`filter`]) — the Fig. 2
//!    sanitization step;
//! 3. bin observations over time ([`binning`]) — the Figs. 2/3 hourly
//!    series.
//!
//! [`parallel`] is the one sharded-run path (scatter by
//! `hash(src) % N`, per-shard admit, gather by record index) the batch
//! analysis and the live engine both run on — byte-identical output at
//! any shard count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod filter;
pub mod metrics;
pub mod parallel;
pub mod pipeline;

pub use binning::HourlySeries;
pub use filter::ResearchFilter;
pub use metrics::{IngestMetrics, Stage, StageMetrics};
pub use parallel::shard_of;
pub use pipeline::{
    record_hash, Admitted, GuardConfig, IngestError, IngestStats, PipelineSnapshot,
    QuarantineStats, QuicObservation, TelescopePipeline,
};
