//! One runner per paper artifact, and the [`CATALOG`] that names them.
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`fig02`] | Fig. 2 — research scanner bias |
//! | [`fig03`] | Fig. 3 — requests vs responses, diurnal pattern |
//! | [`fig04`] | Fig. 4 — session-timeout sweep |
//! | [`fig05`] | Fig. 5 — source network types |
//! | [`fig06`] | Fig. 6 — attacks per victim CDF |
//! | [`fig07`] | Fig. 7 — flood durations & intensities |
//! | [`fig08`] | Fig. 8 — multi-vector shares |
//! | [`fig09`] | Fig. 9 — per-provider attack properties |
//! | [`tab01`] | Table 1 — server DoS resiliency |
//! | [`fig10`] | Fig. 10 — threshold-weight sweep |
//! | [`fig11`] | Fig. 11 — single-victim timeline |
//! | [`fig12`] | Fig. 12 — concurrent overlap CDF |
//! | [`fig13`] | Fig. 13 — sequential gap CDF |
//! | [`msgmix`] | §6 — backscatter message mix & RETRY absence |
//! | [`sec3_amplification`] | §3 — amplification factors (QUIC vs NTP/DNS) |
//! | [`adaptive_retry`] | §6 proposal — adaptive RETRY deployment |
//! | [`mitigation`] | §5.2 insight — port vs QUIC-specific filtering |
//!
//! [`CATALOG`] is the one list of the artifacts: `quicsand experiments`
//! and the golden and end-to-end suites all run what it names. A figure
//! runner returns its [`Plot`]s beside its report, built from the same
//! values as its rows, and `quicsand experiments --out <dir>` writes each
//! to `<dir>/figures/<stem>.svg`.

pub mod adaptive_retry;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod mitigation;
pub mod msgmix;
pub mod sec3_amplification;
pub mod tab01;

use crate::analysis::Analysis;
use crate::plot::PlotSpec;
use crate::report::Report;
use quicsand_traffic::Scenario;

/// One figure: the file stem it is written under, and its plot.
pub type Plot = (&'static str, PlotSpec);

/// How a [`CATALOG`] entry computes its report.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// From the generated scenario and its analysis, with the plots the
    /// report draws (none for a table-only artifact).
    Scenario(fn(&Scenario, &Analysis) -> (Report, Vec<Plot>)),
    /// On its own. The argument is Table 1's request factor: `tab01`
    /// replays that share of the paper's request counts, and the others
    /// have nothing to scale.
    Standalone(fn(f64) -> Report),
}

/// One paper artifact: its report id and how to compute it.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The id of the report it returns, and the name it is selected by.
    pub id: &'static str,
    /// How the report is computed.
    pub runner: Runner,
}

const fn scenario(id: &'static str, run: fn(&Scenario, &Analysis) -> (Report, Vec<Plot>)) -> Entry {
    Entry {
        id,
        runner: Runner::Scenario(run),
    }
}

const fn standalone(id: &'static str, run: fn(f64) -> Report) -> Entry {
    Entry {
        id,
        runner: Runner::Standalone(run),
    }
}

/// Every paper artifact, in report order: the scenario-derived ones
/// first, then those that stand alone.
pub static CATALOG: &[Entry] = &[
    scenario("fig02", fig02::run),
    scenario("fig03", fig03::run),
    scenario("fig04", |_, analysis| fig04::run(analysis)),
    scenario("fig05", fig05::run),
    scenario("fig06", |_, analysis| fig06::run(analysis)),
    scenario("fig07", |_, analysis| fig07::run(analysis)),
    scenario("fig08", |_, analysis| fig08::run(analysis)),
    scenario("fig09", |scenario, analysis| {
        (fig09::run(scenario, analysis), Vec::new())
    }),
    scenario("fig10", fig10::run),
    scenario("fig11", |_, analysis| (fig11::run(analysis), Vec::new())),
    scenario("fig12", |_, analysis| fig12::run(analysis)),
    scenario("fig13", |_, analysis| fig13::run(analysis)),
    scenario("msgmix", |_, analysis| (msgmix::run(analysis), Vec::new())),
    standalone("tab01", tab01::run),
    standalone("sec3_amplification", |_| sec3_amplification::run()),
    standalone("adaptive_retry", |_| adaptive_retry::run()),
    standalone("mitigation", |_| mitigation::run()),
];

/// The entries `ids` name, in catalog order; the whole catalog when
/// `ids` is empty.
///
/// # Errors
/// An id the catalog does not hold, with the list of valid ones.
pub fn select<S: AsRef<str>>(ids: &[S]) -> Result<Vec<&'static Entry>, String> {
    if let Some(unknown) = ids
        .iter()
        .map(AsRef::as_ref)
        .find(|id| CATALOG.iter().all(|entry| entry.id != *id))
    {
        let valid: Vec<&str> = CATALOG.iter().map(|entry| entry.id).collect();
        return Err(format!(
            "unknown experiment `{unknown}` (valid: {})",
            valid.join(", ")
        ));
    }
    Ok(CATALOG
        .iter()
        .filter(|entry| ids.is_empty() || ids.iter().any(|id| id.as_ref() == entry.id))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use crate::plot::{render_svg, PlotKind};
    use quicsand_traffic::ScenarioConfig;

    /// Every plot the catalog's runners return, at the test scale.
    fn plots() -> &'static [Plot] {
        static CELL: std::sync::OnceLock<Vec<Plot>> = std::sync::OnceLock::new();
        CELL.get_or_init(|| {
            let scenario = Scenario::generate(&ScenarioConfig::test());
            let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
            CATALOG
                .iter()
                .filter_map(|entry| match entry.runner {
                    Runner::Scenario(run) => Some(run(&scenario, &analysis).1),
                    Runner::Standalone(_) => None,
                })
                .flatten()
                .collect()
        })
    }

    #[test]
    fn every_figure_renders_nonempty_svg() {
        let plots = plots();
        assert_eq!(plots.len(), 11);
        let mut stems = std::collections::HashSet::new();
        for (stem, spec) in plots {
            assert!(stems.insert(*stem), "duplicate stem {stem}");
            let svg = render_svg(spec);
            assert!(svg.starts_with("<svg"), "{stem} renders");
            assert!(svg.len() > 500, "{stem} has content: {} bytes", svg.len());
            assert!(
                !spec.series.iter().all(|s| s.points.is_empty()),
                "{stem} has data"
            );
        }
    }

    #[test]
    fn cdf_figures_end_at_one() {
        for (stem, spec) in plots() {
            if spec.kind != PlotKind::Step {
                continue;
            }
            for series in &spec.series {
                let last = series.points.last().expect("a CDF has points").1;
                assert!((last - 1.0).abs() < 1e-9, "{stem} ends at {last}");
            }
        }
    }

    #[test]
    fn an_empty_selection_is_the_whole_catalog() {
        let ids: Vec<&str> = select::<&str>(&[]).unwrap().iter().map(|e| e.id).collect();
        assert_eq!(ids, CATALOG.iter().map(|e| e.id).collect::<Vec<_>>());
    }
}
