//! `benchmark run --quick`, end to end: everything `BENCHMARK.json`
//! declares is reported under its declared name, throughputs are real
//! numbers, every check passed, and the trace files are well-formed.

use serde::Value;
use std::path::Path;
use std::process::{Command, Stdio};

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn number(value: &Value) -> f64 {
    match value {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(n) => *n,
        other => panic!("expected a number, found {}", other.kind()),
    }
}

/// The `name`s of one of `BENCHMARK.json`'s lists.
fn declared(spec: &Value, list: &str) -> Vec<String> {
    let entries = spec
        .get(list)
        .and_then(Value::as_seq)
        .expect("declared list");
    entries
        .iter()
        .map(|entry| match entry.get("name") {
            Some(Value::Str(name)) => name.clone(),
            _ => panic!("{list}: entry without a name"),
        })
        .collect()
}

#[test]
fn quick_run_reports_everything_benchmark_json_declares() {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest-out");
    let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .current_dir(package)
        .args(["run", "--quick", "--out"])
        .arg(&out)
        .stdout(Stdio::null())
        .status()
        .expect("the benchmark binary starts");
    assert!(
        status.success(),
        "benchmark run --quick exited with {status}"
    );

    let spec = load(&package.join("..").join("BENCHMARK.json"));
    let results = load(&out.join("results.json"));
    let workloads = results.get("workloads").expect("results.workloads");
    for workload in declared(&spec, "workloads") {
        let report = workloads
            .get(&workload)
            .unwrap_or_else(|| panic!("{workload} missing from results.json"));
        let failed = report
            .get("checks")
            .and_then(|c| c.get("failed"))
            .expect("checks.failed");
        assert_eq!(number(failed), 0.0, "{workload}: failed checks");

        for group in ["end_to_end", "per_layer"] {
            let reported = report
                .get(group)
                .and_then(Value::as_map)
                .expect("metric group");
            let mut names: Vec<&str> = reported.iter().map(|(name, _)| name.as_str()).collect();
            let mut expected = declared(&spec, group);
            names.sort_unstable();
            expected.sort_unstable();
            assert_eq!(
                names, expected,
                "{workload}: {group} names differ from BENCHMARK.json"
            );
            for (name, metric) in reported {
                assert!(
                    !name.is_empty()
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{workload}: malformed metric name {name:?}"
                );
                let median = number(
                    metric
                        .get("summary")
                        .and_then(|s| s.get("median"))
                        .expect("median"),
                );
                assert!(median.is_finite(), "{workload}: {name} is not a number");
                if name.ends_with("_rps") {
                    assert!(median > 0.0, "{workload}: {name} is zero");
                }
            }
        }

        let trace = load(&out.join(format!("trace-{workload}.json")));
        let spans = trace.as_seq().expect("a trace is a list of spans");
        assert!(!spans.is_empty(), "{workload}: empty trace");
        for (index, span) in spans.iter().enumerate() {
            let field = |name: &str| span.get(name).unwrap_or_else(|| panic!("span.{name}"));
            assert!(number(field("end_ns")) >= number(field("start_ns")));
            match field("parent") {
                Value::Null => {}
                parent => assert!(
                    (number(parent) as usize) < index,
                    "{workload}: span {index} precedes its parent"
                ),
            }
        }
    }
}
