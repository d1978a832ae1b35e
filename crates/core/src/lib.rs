//! # quicsand-core
//!
//! The QUICsand public API: everything needed to reproduce the paper
//! end-to-end.
//!
//! ```no_run
//! use quicsand_core::{Analysis, AnalysisConfig};
//! use quicsand_traffic::{Scenario, ScenarioConfig};
//!
//! // 1. Generate (or load) a telescope capture.
//! let scenario = Scenario::generate(&ScenarioConfig::test());
//! // 2. Run the paper's measurement pipeline on it.
//! let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
//! // 3. Regenerate any table or figure.
//! let report = quicsand_core::experiments::fig07::run(&analysis);
//! println!("{}", report.render());
//! ```
//!
//! Modules:
//!
//! * [`analysis`] — the §4/§5 pipeline: ingest → sanitize → sessionize
//!   → DoS inference → multi-vector correlation, all products exposed.
//! * [`experiments`] — one runner per paper artifact (Figs. 2–13,
//!   Table 1, the §6 message-mix analysis), each returning a
//!   [`report::Report`].
//! * [`report`] — the uniform report structure with text and JSON
//!   rendering, including paper-vs-measured findings.
//! * [`plot`] — dependency-free SVG rendering for the figure builders
//!   in [`experiments::figures`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod experiments;
pub mod metrics;
pub mod plot;
pub mod report;

pub use analysis::{default_threads, Analysis, AnalysisConfig, AnalysisDriver, PipelineStats};
pub use metrics::AnalysisMetrics;
pub use report::{Finding, Report};
