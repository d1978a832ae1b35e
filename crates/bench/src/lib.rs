//! # quicsand-bench
//!
//! Experiment regeneration harness: one binary per paper table/figure
//! (see `src/bin/`). Performance is measured by the standalone
//! `benchmark/` package.
//!
//! Every binary accepts the `QUICSAND_SCALE` environment variable:
//!
//! * `test` — seconds; the unit-test preset (tiny counts).
//! * `demo` — the default; tens of seconds; attack counts large enough
//!   for stable distribution shapes.
//! * `paper` — the full April-2021 preset (exact paper event counts,
//!   documented sub-samples for the two bulk components); minutes.
//!
//! `cargo run --release -p quicsand-bench --bin all_experiments`
//! regenerates every artifact and rewrites `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_traffic::{Scenario, ScenarioConfig};

/// The scale selected via `QUICSAND_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test preset.
    Test,
    /// Default demo preset.
    Demo,
    /// Full paper preset.
    Paper,
}

impl Scale {
    /// Reads the scale from the environment (default: demo).
    pub fn from_env() -> Scale {
        match std::env::var("QUICSAND_SCALE").as_deref() {
            Ok("test") => Scale::Test,
            Ok("paper") => Scale::Paper,
            _ => Scale::Demo,
        }
    }

    /// The scenario configuration for this scale.
    pub fn scenario_config(self) -> ScenarioConfig {
        match self {
            Scale::Test => ScenarioConfig::test(),
            Scale::Paper => ScenarioConfig::paper_month(),
            Scale::Demo => ScenarioConfig::demo(),
        }
    }

    /// The Table 1 request-count scale factor for this scale.
    pub fn tab01_factor(self) -> f64 {
        match self {
            Scale::Test => 0.02,
            // The saturation mechanics need the paper's full run
            // lengths (the 60 s state hold only bites after the table
            // fills); full Table 1 takes ~80 s in release.
            Scale::Demo => 1.0,
            Scale::Paper => 1.0,
        }
    }

    /// Label for report notes.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Demo => "demo",
            Scale::Paper => "paper",
        }
    }
}

/// Generates the scenario and runs the analysis for the ambient scale,
/// printing progress to stderr.
pub fn prepare() -> (Scale, Scenario, Analysis) {
    let scale = Scale::from_env();
    eprintln!(
        "[quicsand] generating scenario (scale={}, set QUICSAND_SCALE=test|demo|paper to change)",
        scale.label()
    );
    let t0 = std::time::Instant::now();
    let scenario = Scenario::generate(&scale.scenario_config());
    eprintln!(
        "[quicsand] {} records generated in {:.1?}; running analysis pipeline",
        scenario.records.len(),
        t0.elapsed()
    );
    let t1 = std::time::Instant::now();
    let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
    eprintln!(
        "[quicsand] analysis done in {:.1?}: {} QUIC attacks, {} common attacks",
        t1.elapsed(),
        analysis.quic_attacks.len(),
        analysis.common_attacks.len()
    );
    (scale, scenario, analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_to_demo() {
        // Environment-independent check of the mapping.
        assert_eq!(Scale::Test.scenario_config(), ScenarioConfig::test());
        assert_eq!(
            Scale::Paper.scenario_config(),
            ScenarioConfig::paper_month()
        );
        assert_eq!(Scale::Demo.scenario_config(), ScenarioConfig::demo());
        assert!(Scale::Paper.tab01_factor() == 1.0);
    }
}
