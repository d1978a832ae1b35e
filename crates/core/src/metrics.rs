//! The batch pipeline's composite metric bundle.
//!
//! [`Analysis::run`](crate::Analysis::run) creates one fresh
//! [`MetricsRegistry`] per run (never process-global, so tests and
//! embedded callers stay hermetic) and publishes every stage's counters
//! into it at the single-threaded merge point, each from the product it
//! mirrors, so they equal the public stats structs at any thread count.
//! [`Analysis::verify_metrics`](crate::Analysis::verify_metrics) checks
//! what publishing cannot guarantee (identities between independently
//! counted quantities) and is called by the CLI before any export.

use quicsand_obs::MetricsRegistry;
use quicsand_sessions::{DosMetrics, SessionMetrics};
use quicsand_telescope::{IngestMetrics, StageMetrics};

/// Every metric family the batch pipeline publishes.
#[derive(Debug, Clone)]
pub struct AnalysisMetrics {
    /// Ingest/quarantine/dissect counters (mirror [`IngestStats`]).
    ///
    /// [`IngestStats`]: quicsand_telescope::IngestStats
    pub ingest: IngestMetrics,
    /// Session lifecycle counters (mirror the sessionizer counters).
    pub sessions: SessionMetrics,
    /// Detected-attack counters and distributions, by protocol family.
    pub dos: DosMetrics,
    /// Per-shard stage walltime histograms and end-of-run totals.
    pub stages: StageMetrics,
}

impl AnalysisMetrics {
    /// Registers all batch families on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        AnalysisMetrics {
            ingest: IngestMetrics::register(registry),
            sessions: SessionMetrics::register(registry),
            dos: DosMetrics::register(registry),
            stages: StageMetrics::register(registry),
        }
    }
}
