//! # quicsand-core
//!
//! The QUICsand public API: everything needed to reproduce the paper
//! end-to-end.
//!
//! ```no_run
//! use quicsand_core::experiments::{select, Runner};
//! use quicsand_core::plot::render_svg;
//! use quicsand_core::{Analysis, AnalysisConfig};
//! use quicsand_traffic::{Scenario, ScenarioConfig};
//!
//! // 1. Generate (or load) a telescope capture.
//! let scenario = Scenario::generate(&ScenarioConfig::test());
//! // 2. Run the paper's measurement pipeline on it.
//! let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
//! // 3. Regenerate any table or figure the catalog names: its report,
//! //    and the plots drawn from the same values.
//! if let Runner::Scenario(run) = select(&["fig07"]).unwrap()[0].runner {
//!     let (report, plots) = run(&scenario, &analysis);
//!     println!("{}", report.render());
//!     for (stem, spec) in &plots {
//!         std::fs::write(format!("{stem}.svg"), render_svg(spec)).unwrap();
//!     }
//! }
//! ```
//!
//! Modules:
//!
//! * [`analysis`] — the §4/§5 pipeline: ingest → sanitize → sessionize
//!   → DoS inference → multi-vector correlation, all products exposed.
//! * [`experiments`] — one runner per paper artifact (Figs. 2–13,
//!   Table 1, the §3 amplification factors, the §6 message-mix analysis
//!   and two extensions), each returning a [`report::Report`] (a figure
//!   runner with its [`experiments::Plot`]s), and the catalog that lists
//!   them.
//! * [`report`] — the uniform report structure with text and JSON
//!   rendering, including paper-vs-measured findings.
//! * [`plot`] — dependency-free SVG rendering of the plots the figure
//!   runners in [`experiments`] return.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod experiments;
pub mod metrics;
pub mod plot;
pub mod report;

pub use analysis::{default_threads, Analysis, AnalysisConfig, AnalysisDriver};
pub use metrics::AnalysisMetrics;
pub use report::{Finding, Report};
