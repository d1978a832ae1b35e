//! `results.json`, the pinned input fingerprints, and `benchmark compare`.

use crate::host::HostFingerprint;
use crate::metrics::{pick_of, unit_of, Pick};
use crate::stats::Summary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The repository root: the directory holding `BENCHMARK.json`, looked
/// for in the working directory and its parent (the benchmark package).
pub fn repo_root() -> Result<PathBuf, String> {
    [".", ".."]
        .into_iter()
        .map(PathBuf::from)
        .find(|dir| dir.join("BENCHMARK.json").is_file())
        .ok_or_else(|| {
            "BENCHMARK.json not found: run from the repository root or from benchmark/".to_string()
        })
}

/// One workload's pinned input: record count and capture digest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Records in the capture.
    pub records: u64,
    /// 64-bit FNV-1a of the capture bytes, hex.
    pub fnv1a64: String,
}

/// `benchmark/fingerprints.json`: per size, per workload, for the
/// default seed.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Fingerprints {
    /// The seed the digests belong to.
    pub seed: u64,
    /// Size label → workload name → fingerprint.
    pub inputs: BTreeMap<String, BTreeMap<String, Fingerprint>>,
}

impl Fingerprints {
    /// Where the pinned fingerprints live.
    pub fn path(root: &Path) -> PathBuf {
        root.join("benchmark").join("fingerprints.json")
    }

    /// Loads the pinned fingerprints.
    pub fn load(root: &Path) -> Result<Fingerprints, String> {
        let path = Self::path(root);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A workload's input as measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputReport {
    /// Records in the capture.
    pub records: u64,
    /// Capture size, MiB (printed beside `peak_rss_mb`).
    pub input_mb: f64,
    /// 64-bit FNV-1a of the capture bytes, hex.
    pub fnv1a64: String,
    /// `pinned` (matches the committed digest), `unpinned` (not the
    /// default seed) or `mismatch`.
    pub fingerprint: String,
    /// Floods the generator planted.
    pub planted_floods: u64,
}

/// A workload's correctness checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChecksReport {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Failed over attempted.
    pub failed_share: f64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

/// One reported metric: its value, unit, and the summary of the
/// samples the value was picked from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricReport {
    /// The reported value: the order statistic `metrics::pick_of` names.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: String,
    /// Median, quartiles, extremes, sample count.
    pub summary: Summary,
}

impl MetricReport {
    /// A report for `name` over `samples`.
    pub fn of(name: &str, samples: &[f64]) -> MetricReport {
        let summary = Summary::of(samples);
        MetricReport {
            value: match pick_of(name) {
                Pick::Median => summary.median,
                Pick::Highest => summary.max,
                Pick::Lowest => summary.min,
            },
            unit: unit_of(name).to_string(),
            summary,
        }
    }
}

/// Everything measured for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// The input.
    pub input: InputReport,
    /// The checks.
    pub checks: ChecksReport,
    /// End-to-end metrics (empty when only the traced run was made).
    pub end_to_end: BTreeMap<String, MetricReport>,
    /// Per-layer metrics (empty when only the untraced run was made).
    pub per_layer: BTreeMap<String, MetricReport>,
}

/// `benchmark/out/results.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// Schema version of this file.
    pub schema: u32,
    /// Workload seed.
    pub seed: u64,
    /// Input size label.
    pub size: String,
    /// Host and build.
    pub host: HostFingerprint,
    /// (max − min) / median of the per-round CPU probe.
    pub jitter_share: f64,
    /// The probe moved by more than 5 %: a set that disagrees with
    /// another may be the host, not the program.
    pub noisy: bool,
    /// Per workload.
    pub workloads: BTreeMap<String, WorkloadReport>,
}

impl Results {
    /// Loads a results file.
    pub fn load(path: &str) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "seed {} size {} | {} cores, {} | {} {} | commit {} | jitter {:.3}{}",
            self.seed,
            self.size,
            self.host.nproc,
            self.host.cpu_model,
            self.host.rustc,
            self.host.profile,
            self.host.git_commit,
            self.jitter_share,
            if self.noisy { " NOISY" } else { "" }
        );
        for (name, workload) in &self.workloads {
            println!(
                "\n[{name}] {} records, {:.1} MiB, fnv1a64 {} ({}), {} planted floods; checks {}/{} failed",
                workload.input.records,
                workload.input.input_mb,
                workload.input.fnv1a64,
                workload.input.fingerprint,
                workload.input.planted_floods,
                workload.checks.failed,
                workload.checks.attempted
            );
            for failure in &workload.checks.failures {
                println!("  FAILED: {failure}");
            }
            for (metric, report) in workload.end_to_end.iter().chain(&workload.per_layer) {
                let s = &report.summary;
                println!(
                    "  {metric:<40} {:>16.4} {:<10} median {:.4} q1 {:.4} q3 {:.4} min {:.4} max {:.4} n {}",
                    report.value, report.unit, s.median, s.q1, s.q3, s.min, s.max, s.n
                );
            }
        }
    }
}

/// One `end_to_end` declaration from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

/// The end-to-end declarations of `BENCHMARK.json`.
pub fn declared_end_to_end(root: &Path) -> Result<Vec<Declared>, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = spec
        .get("end_to_end")
        .and_then(serde::Value::as_seq)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|entry| serde::from_value(entry.clone()).map_err(|e| format!("BENCHMARK.json: {e}")))
        .collect()
}

/// How run B compares with run A on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// The run-to-run quartile spread exceeds the bound and the two
    /// runs' samples overlap: nothing can be said.
    Unresolved,
}

impl Verdict {
    /// Label printed by `compare`.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies one metric's bound to the two runs' reports.
pub fn verdict(a: &MetricReport, b: &MetricReport, higher_is_better: bool, bound: f64) -> Verdict {
    // By how much of A's value B's is worse; negative when it is better.
    let worse_by = if a.value == b.value {
        0.0
    } else if higher_is_better {
        (a.value - b.value) / a.value.abs()
    } else {
        (b.value - a.value) / a.value.abs()
    };
    let (sa, sb) = (&a.summary, &b.summary);
    // Too noisy for the bound, unless every sample of one run beats
    // every sample of the other.
    let overlap = sb.min <= sa.max && sb.max >= sa.min;
    if overlap && sa.spread().max(sb.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `benchmark compare A.json B.json`: one row per workload × end-to-end
/// metric. Returns whether any row is `worse`.
pub fn compare(a: &Results, b: &Results, declared: &[Declared]) -> bool {
    let mut any_worse = false;
    if a.seed != b.seed || a.size != b.size {
        println!(
            "note: comparing seed {} size {} with seed {} size {}",
            a.seed, a.size, b.seed, b.size
        );
    }
    for (label, results) in [("A", a), ("B", b)] {
        if results.noisy {
            println!(
                "note: run {label} is flagged noisy (jitter {:.3})",
                results.jitter_share
            );
        }
    }
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "spread", "bound"
    );
    for (workload, report_a) in &a.workloads {
        let Some(report_b) = b.workloads.get(workload) else {
            println!("{workload:<14} missing from B");
            any_worse = true;
            continue;
        };
        for metric in declared {
            let (Some(ma), Some(mb)) = (
                report_a.end_to_end.get(&metric.name),
                report_b.end_to_end.get(&metric.name),
            ) else {
                continue;
            };
            let outcome = verdict(ma, mb, metric.better == "higher", metric.bound);
            any_worse |= outcome == Verdict::Worse;
            println!(
                "{workload:<14} {:<18} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                metric.name,
                ma.value,
                mb.value,
                (mb.value - ma.value) / ma.value.abs().max(f64::MIN_POSITIVE) * 100.0,
                ma.summary.spread().max(mb.summary.spread()) * 100.0,
                metric.bound * 100.0,
                outcome.label()
            );
        }
        let (fa, fb) = (report_a.checks.failed, report_b.checks.failed);
        if fb > fa {
            any_worse = true;
        }
        println!(
            "{workload:<14} {:<18} {fa:>14} {fb:>14} {:>33}",
            "failed_checks",
            if fb > fa { "worse" } else { "same" }
        );
    }
    any_worse
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose value is the samples' median.
    fn report(values: &[f64]) -> MetricReport {
        MetricReport::of("setup_s", values)
    }

    #[test]
    fn verdict_applies_the_bound_in_the_metric_direction() {
        let a = report(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        let faster = report(&[120.0, 121.0, 119.0, 120.0, 120.5]);
        let slower = report(&[80.0, 81.0, 79.0, 80.0, 80.5]);
        let close = report(&[103.0, 104.0, 102.0, 103.0, 103.5]);
        assert_eq!(verdict(&a, &faster, true, 0.10), Verdict::Better);
        assert_eq!(verdict(&a, &slower, true, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &close, true, 0.10), Verdict::Same);
        // The same numbers read as a latency: direction flips.
        assert_eq!(verdict(&a, &faster, false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &slower, false, 0.10), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_runs_do_not_overlap() {
        let noisy_a = report(&[80.0, 100.0, 120.0, 90.0, 110.0]);
        let noisy_b = report(&[85.0, 105.0, 125.0, 95.0, 115.0]);
        assert_eq!(verdict(&noisy_a, &noisy_b, true, 0.10), Verdict::Unresolved);
        let far = report(&[180.0, 200.0, 220.0, 190.0, 210.0]);
        assert_eq!(verdict(&noisy_a, &far, true, 0.10), Verdict::Better);
        assert_eq!(verdict(&far, &noisy_a, true, 0.10), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_compare_exactly() {
        let a = report(&[0.95]);
        assert_eq!(verdict(&a, &report(&[0.95]), true, 0.0), Verdict::Same);
        assert_eq!(verdict(&a, &report(&[0.94]), true, 0.0), Verdict::Worse);
        assert_eq!(verdict(&a, &report(&[0.96]), true, 0.0), Verdict::Better);
    }

    #[test]
    fn the_fastest_pass_is_the_value_of_a_timing() {
        let rate = MetricReport::of("analyze_rps", &[90.0, 100.0, 95.0]);
        let cycle = MetricReport::of("checkpoint_ms", &[9.0, 10.0, 9.5]);
        assert_eq!((rate.value, rate.summary.median), (100.0, 95.0));
        assert_eq!((cycle.value, cycle.summary.median), (9.0, 9.5));
    }
}
