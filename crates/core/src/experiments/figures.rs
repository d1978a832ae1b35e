//! SVG figure builders: the paper's plots as actual plots.
//!
//! Each builder turns the analysis products into a [`PlotSpec`];
//! `quicsand experiments --out <dir>` writes them to `<dir>/figures/`.
//! Shapes mirror the paper's presentation (hourly series, CDFs with
//! log-scaled x axes, share bars).

use crate::analysis::Analysis;
use crate::plot::PlotSpec;
use quicsand_intel::NetworkType;
use quicsand_net::Duration;
use quicsand_sessions::dos::attacks_per_victim;
use quicsand_sessions::session::timeout_sweep;
use quicsand_sessions::Cdf;
use quicsand_traffic::Scenario;

/// Every figure, as `(file stem, plot)` pairs.
pub fn all(scenario: &Scenario, analysis: &Analysis) -> Vec<(String, PlotSpec)> {
    vec![
        ("fig02_research_bias".to_string(), fig02(scenario, analysis)),
        ("fig03_diurnal".to_string(), fig03(scenario, analysis)),
        ("fig04_timeout_knee".to_string(), fig04(analysis)),
        ("fig05_network_types".to_string(), fig05(scenario, analysis)),
        ("fig06_victim_cdf".to_string(), fig06(analysis)),
        ("fig07a_durations".to_string(), fig07_durations(analysis)),
        (
            "fig07b_intensities".to_string(),
            fig07_intensities(analysis),
        ),
        ("fig08_multivector".to_string(), fig08(analysis)),
        (
            "fig10_threshold_sweep".to_string(),
            fig10(scenario, analysis),
        ),
        ("fig12_overlap".to_string(), fig12(analysis)),
        ("fig13_gaps".to_string(), fig13(analysis)),
    ]
}

fn hourly_series(series: &quicsand_telescope::HourlySeries, hours: u64) -> Vec<(f64, f64)> {
    series
        .dense(hours)
        .into_iter()
        .map(|(h, c)| (h as f64, c as f64))
        .collect()
}

/// Fig. 2: research vs other packets per hour.
pub fn fig02(scenario: &Scenario, analysis: &Analysis) -> PlotSpec {
    let hours = u64::from(scenario.config.days) * 24;
    let other: Vec<(f64, f64)> = (0..hours)
        .map(|h| {
            (
                h as f64,
                (analysis.request_hourly.get(h) + analysis.response_hourly.get(h)) as f64,
            )
        })
        .collect();
    PlotSpec::line(
        "QUIC packets at the telescope (research scanner bias)",
        "hour",
        "packets/hour",
    )
    .with_series("research", hourly_series(&analysis.research_hourly, hours))
    .with_series("other", other)
}

/// Fig. 3: sanitized requests vs responses per hour.
pub fn fig03(scenario: &Scenario, analysis: &Analysis) -> PlotSpec {
    let hours = u64::from(scenario.config.days) * 24;
    PlotSpec::line("Sanitized QUIC packets by type", "hour", "packets/hour")
        .with_series("requests", hourly_series(&analysis.request_hourly, hours))
        .with_series("responses", hourly_series(&analysis.response_hourly, hours))
}

/// Fig. 4: sessions vs timeout.
pub fn fig04(analysis: &Analysis) -> PlotSpec {
    let mut stream: Vec<_> = analysis
        .requests
        .iter()
        .chain(analysis.responses.iter())
        .map(|o| (o.ts, o.src))
        .collect();
    stream.sort_unstable_by_key(|(ts, _)| *ts);
    let timeouts: Vec<Duration> = (1..=60).map(Duration::from_mins).collect();
    let sweep = timeout_sweep(stream, &timeouts);
    let points: Vec<(f64, f64)> = sweep
        .counts
        .iter()
        .map(|(t, c)| ((t.as_secs() / 60) as f64, *c as f64))
        .collect();
    let floor: Vec<(f64, f64)> = vec![
        (1.0, sweep.infinity_floor as f64),
        (60.0, sweep.infinity_floor as f64),
    ];
    PlotSpec::line(
        "Sessions vs inactivity timeout",
        "timeout [min]",
        "sessions",
    )
    .with_series("sessions", points)
    .with_series("timeout = inf", floor)
}

/// Fig. 5: network types of request/response sessions.
pub fn fig05(scenario: &Scenario, analysis: &Analysis) -> PlotSpec {
    let share = |sessions: &[quicsand_sessions::Session], ty: NetworkType| {
        let n = sessions.len().max(1) as f64;
        sessions
            .iter()
            .filter(|s| scenario.world.asdb.network_type(s.src) == ty)
            .count() as f64
            / n
    };
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for (i, ty) in NetworkType::ALL.iter().enumerate() {
        requests.push((i as f64, share(&analysis.request_sessions, *ty)));
        responses.push((i as f64, share(&analysis.response_sessions, *ty)));
    }
    PlotSpec::bar(
        "Source network types of sessions",
        "network type",
        "share of sessions",
    )
    .with_categories(NetworkType::ALL.iter().map(|t| t.label()))
    .with_series("requests", requests)
    .with_series("responses", responses)
}

/// Fig. 6: CDF of attacks per victim.
pub fn fig06(analysis: &Analysis) -> PlotSpec {
    let counts = attacks_per_victim(&analysis.quic_attacks);
    let cdf = Cdf::new(counts.values().map(|&c| c as f64).collect());
    PlotSpec::step(
        "Attacks per QUIC flood victim (CDF)",
        "attacks per victim",
        "CDF",
    )
    .with_log_x()
    .with_series("victims", cdf.points())
}

/// Fig. 7(a): flood duration CDFs.
pub fn fig07_durations(analysis: &Analysis) -> PlotSpec {
    let quic = Cdf::new(
        analysis
            .quic_attacks
            .iter()
            .map(|a| a.duration().as_secs_f64())
            .collect(),
    );
    let common = Cdf::new(
        analysis
            .common_attacks
            .iter()
            .map(|a| a.duration().as_secs_f64())
            .collect(),
    );
    PlotSpec::step("Flood durations (CDF)", "duration [s]", "CDF")
        .with_log_x()
        .with_series("QUIC", quic.points())
        .with_series("TCP/ICMP", common.points())
}

/// Fig. 7(b): flood intensity CDFs.
pub fn fig07_intensities(analysis: &Analysis) -> PlotSpec {
    let quic = Cdf::new(analysis.quic_attacks.iter().map(|a| a.max_pps).collect());
    let common = Cdf::new(analysis.common_attacks.iter().map(|a| a.max_pps).collect());
    PlotSpec::step("Flood intensities (CDF)", "max pps", "CDF")
        .with_log_x()
        .with_series("QUIC", quic.points())
        .with_series("TCP/ICMP", common.points())
}

/// Fig. 8: multi-vector class shares.
pub fn fig08(analysis: &Analysis) -> PlotSpec {
    use quicsand_sessions::multivector::MultiVectorClass;
    let classes = [
        MultiVectorClass::Concurrent,
        MultiVectorClass::Sequential,
        MultiVectorClass::Isolated,
    ];
    let points: Vec<(f64, f64)> = classes
        .iter()
        .enumerate()
        .map(|(i, c)| (i as f64, analysis.multivector.share(*c)))
        .collect();
    PlotSpec::bar(
        "Multi-vector attacks: QUIC floods vs TCP/ICMP floods",
        "class",
        "share of QUIC floods",
    )
    .with_categories(classes.iter().map(|c| c.label()))
    .with_series("QUIC floods", points)
}

/// Fig. 10: threshold-weight sweep.
pub fn fig10(scenario: &Scenario, analysis: &Analysis) -> PlotSpec {
    use quicsand_sessions::dos::{detect_attacks, AttackProtocol, DosThresholds};
    let mut attacks = Vec::new();
    let mut shares = Vec::new();
    for w in super::fig10::WEIGHTS {
        let detected = detect_attacks(
            &analysis.response_sessions,
            AttackProtocol::Quic,
            &DosThresholds::weighted(w),
        );
        let known = detected
            .iter()
            .filter(|a| scenario.world.servers.is_known_server(a.victim))
            .count();
        attacks.push((w, detected.len() as f64));
        shares.push((w, known as f64 / detected.len().max(1) as f64));
    }
    PlotSpec::line(
        "DoS threshold weight sweep",
        "threshold weight w",
        "detected attacks / content share",
    )
    .with_log_x()
    .with_series("attacks", attacks)
    .with_series("content share", shares)
}

/// Fig. 12: overlap CDF of concurrent attacks.
pub fn fig12(analysis: &Analysis) -> PlotSpec {
    let cdf = Cdf::new(analysis.multivector.overlap_shares());
    PlotSpec::step(
        "Overlap of concurrent QUIC attacks (CDF)",
        "overlap share of attack time",
        "CDF",
    )
    .with_series("concurrent attacks", cdf.points())
}

/// Fig. 13: sequential gap CDF.
pub fn fig13(analysis: &Analysis) -> PlotSpec {
    let cdf = Cdf::new(
        analysis
            .multivector
            .gap_seconds()
            .iter()
            .map(|s| s / 3_600.0)
            .collect(),
    );
    PlotSpec::step(
        "Gaps between sequential QUIC and TCP/ICMP attacks (CDF)",
        "gap [h]",
        "CDF",
    )
    .with_log_x()
    .with_series("sequential attacks", cdf.points())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use crate::plot::render_svg;
    use quicsand_traffic::ScenarioConfig;
    use std::sync::OnceLock;

    fn fixtures() -> &'static (Scenario, Analysis) {
        static CELL: OnceLock<(Scenario, Analysis)> = OnceLock::new();
        CELL.get_or_init(|| {
            let scenario = Scenario::generate(&ScenarioConfig::test());
            let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
            (scenario, analysis)
        })
    }

    #[test]
    fn every_figure_renders_nonempty_svg() {
        let (scenario, analysis) = fixtures();
        let figures = all(scenario, analysis);
        assert_eq!(figures.len(), 11);
        let mut stems = std::collections::HashSet::new();
        for (stem, spec) in figures {
            assert!(stems.insert(stem.clone()), "duplicate stem {stem}");
            let svg = render_svg(&spec);
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
        let (_, analysis) = fixtures();
        for spec in [fig06(analysis), fig07_durations(analysis), fig13(analysis)] {
            for series in &spec.series {
                let last = series.points.last().unwrap().1;
                assert!((last - 1.0).abs() < 1e-9, "{} ends at {last}", spec.title);
            }
        }
    }
}
