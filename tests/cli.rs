//! End-to-end test of the `quicsand` CLI binary: generate → analyze →
//! replay, via real subprocesses and a real capture file.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_quicsand")
}

#[test]
fn generate_then_analyze_roundtrip() {
    let dir = std::env::temp_dir().join("quicsand-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let capture = dir.join("cli.qscp");

    let generate = Command::new(bin())
        .args([
            "generate",
            "--out",
            capture.to_str().unwrap(),
            "--scale",
            "test",
        ])
        .output()
        .expect("run generate");
    assert!(
        generate.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&generate.stderr)
    );
    let stdout = String::from_utf8_lossy(&generate.stdout);
    assert!(stdout.contains("wrote"), "stdout: {stdout}");
    assert!(capture.exists());

    let pcap = dir.join("cli.pcap");
    let export = Command::new(bin())
        .args([
            "export",
            capture.to_str().unwrap(),
            "--pcap",
            pcap.to_str().unwrap(),
        ])
        .output()
        .expect("run export");
    assert!(
        export.status.success(),
        "export failed: {}",
        String::from_utf8_lossy(&export.stderr)
    );
    let pcap_bytes = std::fs::read(&pcap).unwrap();
    assert_eq!(
        &pcap_bytes[0..4],
        &0xa1b2_c3d4u32.to_le_bytes(),
        "pcap magic"
    );
    std::fs::remove_file(&pcap).unwrap();

    let analyze = Command::new(bin())
        .args(["analyze", capture.to_str().unwrap(), "--threads", "2"])
        .output()
        .expect("run analyze");
    assert!(
        analyze.status.success(),
        "analyze failed: {}",
        String::from_utf8_lossy(&analyze.stderr)
    );
    let stdout = String::from_utf8_lossy(&analyze.stdout);
    assert!(stdout.contains("QUIC floods:"), "stdout: {stdout}");
    assert!(stdout.contains("multi-vector:"), "stdout: {stdout}");
    assert!(stdout.contains("pipeline: 2 thread(s)"), "stdout: {stdout}");

    // The analysis products must not depend on the thread count: the
    // deterministic report lines (everything except the walltime
    // `pipeline:` line) are byte-identical across --threads values.
    let strip = |out: &[u8]| -> String {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| !l.starts_with("pipeline:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for threads in ["1", "8"] {
        let rerun = Command::new(bin())
            .args(["analyze", capture.to_str().unwrap(), "--threads", threads])
            .output()
            .expect("run analyze");
        assert!(rerun.status.success());
        assert_eq!(
            strip(&rerun.stdout),
            strip(&analyze.stdout),
            "--threads {threads} changed the analysis output"
        );
    }

    std::fs::remove_file(&capture).unwrap();
}

#[test]
fn flag_followed_by_flag_is_rejected() {
    // `--out --scale` used to write a capture file literally named
    // `--scale`.
    let output = Command::new(bin())
        .args(["generate", "--out", "--scale", "test"])
        .output()
        .expect("run generate");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--out") && stderr.contains("expects a value"),
        "stderr: {stderr}"
    );
    assert!(!std::path::Path::new("--scale").exists());
}

#[test]
fn flag_missing_value_is_rejected() {
    let output = Command::new(bin())
        .args(["generate", "--out"])
        .output()
        .expect("run generate");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("missing its value"), "stderr: {stderr}");
}

#[test]
fn invalid_threads_is_rejected() {
    let output = Command::new(bin())
        .args(["analyze", "whatever.qscp", "--threads", "0"])
        .output()
        .expect("run analyze");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--threads"), "stderr: {stderr}");
}

/// Regression: a flag the subcommand does not define used to be
/// ignored, so `--thread 1` ran with the default thread count.
#[test]
fn unknown_flag_is_rejected_and_named() {
    for (line, typo) in [
        (
            "generate --out unknown-flag.qscp --scale test --bogus-flag 3",
            "--bogus-flag",
        ),
        ("analyze whatever.qscp --thread 1", "--thread"),
        ("live whatever.qscp --shard 2", "--shard"),
    ] {
        let output = Command::new(bin())
            .args(line.split_whitespace())
            .output()
            .expect("run");
        assert!(!output.status.success(), "`{line}` succeeded");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("error: unknown flag `{typo}`")),
            "`{line}` stderr: {stderr}"
        );
    }
    // Rejected before the command ran: nothing was written.
    assert!(!std::path::Path::new("unknown-flag.qscp").exists());
}

/// Every `--flag` the usage text lists under a subcommand must get
/// past the unknown-flag check (it may still fail for a missing value
/// or capture path — that is a different error).
#[test]
fn every_flag_in_usage_is_accepted() {
    let help = Command::new(bin()).arg("--help").output().expect("run");
    let usage = String::from_utf8_lossy(&help.stdout).into_owned();
    let mut command = None;
    let mut listed = std::collections::BTreeSet::new();
    for line in usage.lines() {
        if let Some(synopsis) = line.strip_prefix("    quicsand ") {
            command = synopsis.split_whitespace().next();
        }
        let Some(command) = command else { continue };
        for (at, _) in line.match_indices("--") {
            let flag: String = line[at..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                .collect();
            if flag.len() > 2 {
                listed.insert((command, flag));
            }
        }
    }
    assert!(listed.len() > 40, "usage parse found only {listed:?}");
    for (command, flag) in listed {
        let output = Command::new(bin())
            .args([command, flag.as_str()])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !stderr.contains("unknown flag"),
            "{command} {flag}: {stderr}"
        );
    }
}

/// Regression: a switch directly before the capture path used to
/// swallow it as its "value" (`analyze --verbose cap.qscp` failed with
/// `requires a capture path`). Only flags that take a value skip a word.
#[test]
fn boolean_flag_before_the_capture_path() {
    let dir = std::env::temp_dir().join("quicsand-cli-switch-first");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.qscp");
    std::fs::write(&empty, b"").unwrap();
    let path = empty.to_str().unwrap();
    let out = dir.join("slices");

    for command in [
        vec!["analyze", "--verbose", path],
        vec!["metrics", "--stable-only", path],
        vec!["live", "--verbose", path],
        vec![
            "live",
            "--replay",
            path,
            "--forensics-out",
            out.to_str().unwrap(),
        ],
    ] {
        let switch_first = Command::new(bin()).args(&command).output().expect("run");
        let stderr = String::from_utf8_lossy(&switch_first.stderr);
        assert!(
            !stderr.contains("requires a capture path"),
            "{command:?}: {stderr}"
        );
        // The same words with the path first (which always worked) must
        // end the same way — whatever the command makes of an empty
        // capture.
        let mut reordered = command.clone();
        reordered.swap(1, 2);
        let path_first = Command::new(bin()).args(&reordered).output().expect("run");
        assert_eq!(switch_first.status.code(), path_first.status.code());
        if command[0] == "live" {
            assert!(switch_first.status.success(), "live: {stderr}");
        }
    }
    std::fs::remove_file(&empty).ok();
}

#[test]
fn replay_reports_availability() {
    let output = Command::new(bin())
        .args(["replay", "--pps", "1000", "--requests", "20000", "--retry"])
        .output()
        .expect("run replay");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("availability 100%"), "stdout: {stdout}");
    assert!(stdout.contains("extra-rtt yes"), "stdout: {stdout}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let output = Command::new(bin())
        .arg("frobnicate")
        .output()
        .expect("run binary");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("USAGE"), "stderr: {stderr}");
}

#[test]
fn help_prints_usage() {
    let output = Command::new(bin()).arg("--help").output().expect("run");
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("USAGE"));
}

#[test]
fn missing_required_flag_fails() {
    let output = Command::new(bin()).arg("generate").output().expect("run");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--out"));
}

/// Regression: `live` on an empty (0-byte) capture used to hard-fail
/// with a truncation error; an empty feed must be tolerated — drained,
/// counted, and reported as zero records.
#[test]
fn live_tolerates_empty_captures_standalone_and_in_a_set() {
    let dir = std::env::temp_dir().join("quicsand-cli-live-empty");
    std::fs::create_dir_all(&dir).unwrap();
    let capture = dir.join("live.qscp");
    let empty = dir.join("empty.qscp");
    std::fs::write(&empty, b"").unwrap();

    let generate = Command::new(bin())
        .args([
            "generate",
            "--out",
            capture.to_str().unwrap(),
            "--scale",
            "test",
            "--seed",
            "11",
        ])
        .output()
        .expect("run generate");
    assert!(
        generate.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&generate.stderr)
    );

    // Standalone empty capture: exits 0 with zero records, no alerts.
    let alone = Command::new(bin())
        .args(["live", empty.to_str().unwrap()])
        .output()
        .expect("run live on empty capture");
    assert!(
        alone.status.success(),
        "live on an empty capture must succeed: {}",
        String::from_utf8_lossy(&alone.stderr)
    );
    let stdout = String::from_utf8_lossy(&alone.stdout);
    assert!(stdout.contains("0 records in"), "stdout: {stdout}");
    assert!(
        stdout.contains("sources: 1 feed(s)") && stdout.contains("1 empty"),
        "stdout: {stdout}"
    );

    // A real feed plus an empty feed: alert lines byte-identical to the
    // single-source run, with the empty feed surfaced in the summary.
    let single = Command::new(bin())
        .args(["live", capture.to_str().unwrap(), "--shards", "2"])
        .output()
        .expect("run single-source live");
    assert!(single.status.success());
    let multi = Command::new(bin())
        .args([
            "live",
            "--input",
            capture.to_str().unwrap(),
            "--input",
            empty.to_str().unwrap(),
            "--shards",
            "2",
        ])
        .output()
        .expect("run multi-source live");
    assert!(
        multi.status.success(),
        "multi-source live failed: {}",
        String::from_utf8_lossy(&multi.stderr)
    );
    let pick_alerts = |out: &[u8]| -> String {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| l.starts_with("live:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        pick_alerts(&single.stdout),
        pick_alerts(&multi.stdout),
        "an empty extra feed must not change any alert"
    );
    let stdout = String::from_utf8_lossy(&multi.stdout);
    assert!(
        stdout.contains("sources: 2 feed(s)") && stdout.contains("1 empty"),
        "stdout: {stdout}"
    );

    std::fs::remove_file(&capture).ok();
    std::fs::remove_file(&empty).ok();
}

/// A zero-event run still writes a *valid* qlog file: header record
/// only, correct RFC 7464 framing — consumers must never special-case
/// "no events".
#[test]
fn events_out_on_a_zero_event_run_is_a_valid_header_only_qlog() {
    let dir = std::env::temp_dir().join("quicsand-cli-events-empty");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.qscp");
    let qlog = dir.join("empty.qlog");
    std::fs::write(&empty, b"").unwrap();

    let live = Command::new(bin())
        .args([
            "live",
            empty.to_str().unwrap(),
            "--events-out",
            qlog.to_str().unwrap(),
        ])
        .output()
        .expect("run live with events-out");
    assert!(
        live.status.success(),
        "live failed: {}",
        String::from_utf8_lossy(&live.stderr)
    );
    let bytes = std::fs::read(&qlog).unwrap();
    assert_eq!(bytes.first(), Some(&0x1Eu8), "RFC 7464 record separator");
    assert_eq!(bytes.last(), Some(&b'\n'), "record terminator");

    let check = Command::new(bin())
        .args(["forensics", "check", qlog.to_str().unwrap()])
        .output()
        .expect("run forensics check");
    assert!(
        check.status.success(),
        "forensics check rejected a header-only qlog: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    let stdout = String::from_utf8_lossy(&check.stdout);
    assert!(
        stdout.contains("1 record(s), 0 event(s)"),
        "stdout: {stdout}"
    );

    std::fs::remove_file(&empty).ok();
    std::fs::remove_file(&qlog).ok();
}

/// `--events-out` pointing at an unwritable path fails up front — before
/// any feed is opened or a single record is pumped.
#[test]
fn events_out_unwritable_path_fails_up_front() {
    let dir = std::env::temp_dir().join("quicsand-cli-events-unwritable");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.qscp");
    std::fs::write(&empty, b"").unwrap();

    for command in [
        vec!["live", empty.to_str().unwrap()],
        vec!["analyze", empty.to_str().unwrap()],
    ] {
        let output = Command::new(bin())
            .args(&command)
            .args(["--events-out", "/nonexistent-dir/out.qlog"])
            .output()
            .expect("run with unwritable events-out");
        assert!(
            !output.status.success(),
            "{} must fail on an unwritable --events-out",
            command[0]
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("events-out") && stderr.contains("cannot create"),
            "{} stderr: {stderr}",
            command[0]
        );
    }
    std::fs::remove_file(&empty).ok();
}

/// `--evidence-ring` validates its value like every other numeric flag.
#[test]
fn invalid_evidence_ring_is_rejected() {
    let output = Command::new(bin())
        .args(["live", "whatever.qscp", "--evidence-ring", "0"])
        .output()
        .expect("run live");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--evidence-ring"), "stderr: {stderr}");
}

/// Regression: the threshold weights took any float, so `--weight NaN`
/// or `inf` silently detected nothing, `--escalate NaN` never escalated,
/// and `--weight -1` flagged every session like `0` — all with exit 0.
#[test]
fn non_positive_or_non_finite_weights_are_rejected() {
    let dir = std::env::temp_dir().join("quicsand-cli-weights");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.qscp");
    std::fs::write(&empty, b"").unwrap();
    let path = empty.to_str().unwrap();
    for (command, flag) in [
        (&["live", path], "--weight"),
        (&["live", path], "--escalate"),
    ] {
        for value in ["NaN", "inf", "-inf", "-1", "0"] {
            let output = Command::new(bin())
                .args(command)
                .args([flag, value])
                .output()
                .expect("run");
            let command = command[0];
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(1),
                "{command} {flag} {value}: {stderr}"
            );
            assert!(
                stderr.contains(&format!(
                    "invalid {flag} `{value}` (want a finite number > 0)"
                )),
                "{command} {flag} {value}: {stderr}"
            );
        }
    }
    std::fs::remove_file(&empty).ok();
}

/// Regression: `replay --pps 0` and `--workers 0` panicked, and
/// `--requests 0` reported `availability 0%` from a 0/0 division.
#[test]
fn zero_replay_counts_are_rejected() {
    for (flag, line) in [
        ("--pps", "replay --pps 0"),
        ("--workers", "replay --pps 10 --workers 0"),
        ("--requests", "replay --pps 10 --requests 0"),
    ] {
        let output = Command::new(bin())
            .args(line.split_whitespace())
            .output()
            .expect("run replay");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "`{line}`: {stderr}");
        assert!(
            stderr.contains(&format!("invalid {flag} `0` (want an integer >= 1)")),
            "`{line}`: {stderr}"
        );
        assert!(output.stdout.is_empty(), "`{line}` printed a result");
    }
}

/// `live` with no capture path at all still fails loudly.
#[test]
fn live_without_any_input_is_rejected() {
    let output = Command::new(bin())
        .args(["live"])
        .output()
        .expect("run live without inputs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--input"), "stderr: {stderr}");
}

/// A capture cut mid-record fails the same way whether the cut is met
/// while the first batch is decoded or after batches were already
/// analysed: non-zero exit, `read records:` on stderr, no `--metrics-out`,
/// no `--forensics-out` slices, and no `--events-out` file that could pass
/// for a finished run. `analyze` and `metrics` print nothing on stdout;
/// `live` has streamed the alerts that fired before the cut, and its
/// summary. A cut exactly on a record boundary is a clean end of stream
/// and succeeds.
#[test]
fn a_capture_cut_mid_record_fails_cleanly_wherever_the_cut_is() {
    use quicsand_net::zerocopy::BULK_BATCH;
    use quicsand_net::ZeroCopyCaptureReader;

    let dir = std::env::temp_dir().join("quicsand-cli-cut");
    std::fs::create_dir_all(&dir).unwrap();
    let capture = dir.join("whole.qscp");
    let generate = Command::new(bin())
        .args(["generate", "--out", capture.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(generate.status.success());
    let bytes = std::fs::read(&capture).unwrap();
    // Byte offset of the boundary after `records` records.
    let boundary_after = |records: usize| {
        let mut reader = ZeroCopyCaptureReader::from_bytes(bytes.clone()).unwrap();
        assert_eq!(reader.read_batch(records).unwrap().len(), records);
        bytes.len() - reader.remaining_bytes()
    };
    let second_batch = BULK_BATCH + 1_000;
    let cut = dir.join("cut.qscp");
    let metrics = dir.join("cut-metrics.json");
    let qlog = dir.join("cut.qlog");
    let slices = dir.join("cut-slices");
    let run = |command: &[&str]| {
        Command::new(bin())
            .arg(command[0])
            .arg(&cut)
            .args(&command[1..])
            .output()
            .expect("run on the cut capture")
    };

    for (records, into_record) in [(1_000, 5), (second_batch, 5), (second_batch, 0)] {
        std::fs::write(&cut, &bytes[..boundary_after(records) + into_record]).unwrap();
        std::fs::remove_file(&metrics).ok();
        let analyze = run(&[
            "analyze",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--events-out",
            qlog.to_str().unwrap(),
        ]);
        let stdout = String::from_utf8_lossy(&analyze.stdout);
        if into_record == 0 {
            assert!(analyze.status.success(), "a boundary cut is a clean EOF");
            assert!(
                stdout.contains(&format!("ingest: {records} records")),
                "stdout: {stdout}"
            );
            assert!(metrics.exists() && qlog.exists());
            continue;
        }
        let at = format!("cut {into_record} bytes into record {records}");
        let failed = |output: &std::process::Output, what: &str| {
            assert!(!output.status.success(), "{what}, {at}: succeeded");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains("error: read records:"),
                "{what}, {at}: {stderr}"
            );
        };
        let printed_nothing = |output: &std::process::Output, what: &str| {
            assert!(output.stdout.is_empty(), "{what}, {at}: wrote to stdout");
        };
        failed(&analyze, "analyze");
        printed_nothing(&analyze, "analyze");
        assert!(!metrics.exists(), "{at}: --metrics-out was written");
        assert!(!qlog.exists(), "{at}: --events-out was left behind");
        let metrics_run = run(&["metrics"]);
        failed(&metrics_run, "metrics");
        printed_nothing(&metrics_run, "metrics");
        let live = run(&[
            "live",
            "--forensics-out",
            slices.to_str().unwrap(),
            "--events-out",
            qlog.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        failed(&live, "live");
        assert!(!slices.exists(), "{at}: live exported slices");
        assert!(!qlog.exists(), "{at}: live left --events-out behind");
        assert!(!metrics.exists(), "{at}: live wrote --metrics-out");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `live --verbose` ends its stage line with the process's peak resident
/// set, as `analyze --verbose` does, wherever the platform reports one.
#[test]
fn live_verbose_stage_line_reports_peak_rss() {
    let dir = std::env::temp_dir().join("quicsand-cli-live-rss");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.qscp");
    std::fs::write(&empty, b"").unwrap();
    let output = Command::new(bin())
        .args(["live", empty.to_str().unwrap(), "--verbose"])
        .output()
        .expect("run live --verbose");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stage_line = stdout
        .lines()
        .find(|l| l.starts_with("live: 1 shard(s)") && l.contains("stages: ingest"))
        .unwrap_or_else(|| panic!("no stage line in: {stdout}"));
    if quicsand_obs::peak_rss_bytes().is_some() {
        let mib = stage_line
            .split("; peak RSS ")
            .nth(1)
            .and_then(|tail| tail.strip_suffix(" MiB"))
            .unwrap_or_else(|| panic!("no `; peak RSS X MiB` tail: {stage_line}"));
        let mib: f64 = mib.parse().expect("peak RSS is a number");
        assert!(mib > 0.0, "{stage_line}");
    } else {
        assert!(!stage_line.contains("peak RSS"), "{stage_line}");
    }
    std::fs::remove_file(&empty).ok();
}

/// `generate` prints its seed in hex, so `--seed` takes hex too: the
/// same seed written either way writes the same capture.
#[test]
fn hex_and_decimal_seeds_generate_the_same_capture() {
    let dir = std::env::temp_dir().join("quicsand-cli-hex-seed");
    std::fs::create_dir_all(&dir).unwrap();
    let mut captures = Vec::new();
    for seed in ["0x2a", "42"] {
        let capture = dir.join(format!("seed-{seed}.qscp"));
        let output = Command::new(bin())
            .args([
                "generate",
                "--out",
                capture.to_str().unwrap(),
                "--seed",
                seed,
            ])
            .output()
            .expect("run generate");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "--seed {seed}: {stderr}");
        assert!(stderr.contains("seed 0x2a"), "--seed {seed}: {stderr}");
        captures.push(std::fs::read(&capture).unwrap());
    }
    assert!(captures[0] == captures[1], "hex and decimal seeds differ");
    let output = Command::new(bin())
        .args(["generate", "--out", "unused.qscp", "--seed", "0xbadg"])
        .output()
        .expect("run generate");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("invalid --seed `0xbadg`"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The ids of the reports in `experiments` stdout, from their headers.
fn report_ids(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter_map(|line| line.strip_prefix("== "))
        .filter_map(|header| header.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

/// Named ids run in catalog order whatever order they are given in, and
/// `--out` writes the findings of exactly those reports plus the SVGs of
/// the selected figures.
#[test]
fn experiments_runs_the_selected_ids_in_catalog_order() {
    let dir = std::env::temp_dir().join("quicsand-cli-experiments");
    std::fs::remove_dir_all(&dir).ok();
    let output = Command::new(bin())
        .args(["experiments", "--scale", "test", "tab01", "fig07"])
        .args(["--threads", "1", "--out", dir.to_str().unwrap()])
        .output()
        .expect("run experiments");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    assert!(stderr.contains("generating scenario"), "{stderr}");
    assert_eq!(report_ids(&output.stdout), ["fig07", "tab01"]);

    let markdown = std::fs::read_to_string(dir.join("EXPERIMENTS.md")).unwrap();
    let mut blocks: Vec<&str> = markdown
        .lines()
        .filter_map(|line| line.strip_prefix("| "))
        .filter_map(|row| row.split(" | ").next())
        .filter(|id| *id != "experiment")
        .collect();
    blocks.dedup();
    assert_eq!(blocks, ["fig07", "tab01"], "{markdown}");
    let mut svgs: Vec<String> = std::fs::read_dir(dir.join("figures"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    svgs.sort();
    assert_eq!(svgs, ["fig07a_durations.svg", "fig07b_intensities.svg"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A selection of standalone entries never generates the scenario.
#[test]
fn experiments_without_scenario_entries_generate_no_scenario() {
    let output = Command::new(bin())
        .args(["experiments", "sec3_amplification"])
        .output()
        .expect("run experiments");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    assert!(!stderr.contains("generating scenario"), "{stderr}");
    assert_eq!(report_ids(&output.stdout), ["sec3_amplification"]);
}

/// An unknown id or scale fails before any work, and an unknown id's
/// error lists every valid one.
#[test]
fn experiments_rejects_unknown_ids_and_scales() {
    let output = Command::new(bin())
        .args(["experiments", "fig07", "fig99"])
        .output()
        .expect("run experiments");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown experiment `fig99`"), "{stderr}");
    for entry in quicsand_core::experiments::CATALOG {
        assert!(
            stderr.contains(entry.id),
            "{} not listed: {stderr}",
            entry.id
        );
    }

    let output = Command::new(bin())
        .args(["experiments", "--scale", "papr", "tab01"])
        .output()
        .expect("run experiments");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown scale `papr`"), "{stderr}");
}

/// Regression: `--window 0` ran with a zero timeout and reported no QUIC
/// flood, a window whose microseconds overflow wrapped around (or
/// panicked in a debug build), and `--shards 0` silently ran one shard.
#[test]
fn live_count_flags_reject_values_that_cannot_run() {
    let dir = std::env::temp_dir().join("quicsand-cli-live-counts");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.qscp");
    std::fs::write(&empty, b"").unwrap();
    let window = "(want minutes >= 1 whose microseconds fit in a u64)";
    let count = "(want an integer >= 1)";
    for (flag, value, want) in [
        ("--window", "0", window),
        ("--window", "307445734562", window),
        ("--window", "18446744073709551615", window),
        ("--shards", "0", count),
        ("--max-victims", "0", count),
        ("--checkpoint-every", "0", count),
    ] {
        let output = Command::new(bin())
            .arg("live")
            .arg(&empty)
            .args([flag, value])
            .output()
            .expect("run live");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("invalid {flag} `{value}` {want}")),
            "{flag} {value}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{flag} {value} ran");
    }
    // The longest window that fits still runs.
    let output = Command::new(bin())
        .arg("live")
        .arg(&empty)
        .args(["--window", "307445734561"])
        .output()
        .expect("run live");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: `--adaptive NaN`, `1.5` or `inf` behaved as no Retry at
/// all and `-1` as `--retry`; given together with `--retry`, adaptive
/// silently won.
#[test]
fn replay_adaptive_takes_an_occupancy_in_the_unit_interval() {
    for value in ["NaN", "1.5", "inf", "-1"] {
        let output = Command::new(bin())
            .args(["replay", "--pps", "10", "--adaptive", value])
            .output()
            .expect("run replay");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{value}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "invalid --adaptive `{value}` (want an occupancy in [0, 1])"
            )),
            "{value}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "--adaptive {value} ran");
    }
    let output = Command::new(bin())
        .args(["replay", "--pps", "10", "--adaptive", "0.5", "--retry"])
        .output()
        .expect("run replay");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--adaptive and --retry are exclusive"),
        "{stderr}"
    );
    let output = Command::new(bin())
        .args(["replay", "--pps", "10", "--requests", "200"])
        .args(["--adaptive", "1"])
        .output()
        .expect("run replay");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("requests 200"), "{stdout}");
}

/// Regression: a positional past a command's own was dropped, so
/// `live a.qscp b.qscp` ran one feed and `analyze cap.qscp bogus`
/// ignored the extra word.
#[test]
fn stray_positionals_are_rejected_and_named() {
    for (line, extra, hint) in [
        ("live a.qscp b.qscp", "b.qscp", "--input <file>"),
        ("analyze cap.qscp bogus", "bogus", ""),
        ("export cap.qscp bogus --pcap stray.pcap", "bogus", ""),
        ("forensics check a.qlog b.qlog", "b.qlog", ""),
    ] {
        let output = Command::new(bin())
            .args(line.split_whitespace())
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let command = line.split_whitespace().next().unwrap();
        assert_eq!(output.status.code(), Some(1), "`{line}`: {stderr}");
        assert!(
            stderr.contains(&format!(
                "error: unexpected argument `{extra}` for `{command}`"
            )) && stderr.contains(hint),
            "`{line}`: {stderr}"
        );
    }
    assert!(!std::path::Path::new("stray.pcap").exists());
}

/// `--replay` checks the slices `--forensics-out` writes; alone it has
/// nothing to check.
#[test]
fn live_replay_requires_forensics_out() {
    let dir = std::env::temp_dir().join("quicsand-cli-replay-alone");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.qscp");
    std::fs::write(&empty, b"").unwrap();
    let output = Command::new(bin())
        .arg("live")
        .arg(&empty)
        .arg("--replay")
        .output()
        .expect("run live");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--replay requires --forensics-out <dir>"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: a missing input failed after `--events-out` was created,
/// leaving a header-only qlog that reads as a finished run without
/// events.
#[test]
fn live_on_a_missing_input_leaves_no_events_out() {
    let dir = std::env::temp_dir().join("quicsand-cli-live-missing");
    std::fs::create_dir_all(&dir).unwrap();
    let qlog = dir.join("missing.qlog");
    std::fs::remove_file(&qlog).ok();
    let output = Command::new(bin())
        .arg("live")
        .arg(dir.join("missing.qscp"))
        .arg("--events-out")
        .arg(&qlog)
        .output()
        .expect("run live");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: read "), "{stderr}");
    assert!(!qlog.exists(), "--events-out was left behind");
    std::fs::remove_dir_all(&dir).ok();
}

/// `live --forensics-out` writes byte-identical slices at any shard
/// count, chunk size and checkpoint cadence, and from a capture split
/// into two feeds; `--replay` verifies every slice of every run.
#[test]
fn forensics_out_slices_are_identical_across_shards_chunks_checkpoints_and_feeds() {
    use quicsand_net::capture::to_bytes;
    use quicsand_traffic::{Scenario, ScenarioConfig};
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    let dir = std::env::temp_dir().join("quicsand-cli-forensics-out");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let records = Scenario::generate(&ScenarioConfig {
        research_packets_per_scan: 300,
        request_sessions: 40,
        quic_attacks: 20,
        victim_pool: 10,
        common_attacks: 15,
        misconfig_sessions: 30,
        garbage_udp443_packets: 10,
        ..ScenarioConfig::test()
    })
    .records;
    let whole = dir.join("whole.qscp");
    std::fs::write(&whole, to_bytes(&records).unwrap()).unwrap();
    // The same capture split by record parity into two feeds.
    let (even, odd): (Vec<_>, Vec<_>) = records.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let feed = |name: &str, half: Vec<(usize, &quicsand_net::PacketRecord)>| {
        let records: Vec<_> = half.into_iter().map(|(_, r)| r.clone()).collect();
        let path = dir.join(name);
        std::fs::write(&path, to_bytes(&records).unwrap()).unwrap();
        path
    };
    let (even, odd) = (feed("even.qscp", even), feed("odd.qscp", odd));

    let slices = |name: &str, feeds: &[&PathBuf], flags: &[&str]| {
        let out = dir.join(name);
        let mut command = Command::new(bin());
        command.arg("live");
        for feed in feeds {
            command.arg("--input").arg(feed);
        }
        let output = command
            .args(flags)
            .arg("--forensics-out")
            .arg(&out)
            .arg("--replay")
            .output()
            .expect("run live");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{name}: {stderr}");
        let files: BTreeMap<String, Vec<u8>> = std::fs::read_dir(&out)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(entry.path()).unwrap())
            })
            .collect();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let n = files.len();
        assert!(
            stdout.contains(&format!(
                "forensics: {n} alert slice(s) exported to {}, {n} replay(s) verified",
                out.display()
            )),
            "{name}: {stdout}"
        );
        files
    };
    let reference = slices("shards-1", &[&whole], &["--shards", "1"]);
    assert!(!reference.is_empty(), "no closed QUIC alert to export");
    let every = (records.len() / 3).to_string();
    for (name, feeds, flags) in [
        ("shards-2", &[&whole][..], &["--shards", "2"][..]),
        ("chunk-7", &[&whole], &["--chunk", "7"]),
        ("checkpoints", &[&whole], &["--checkpoint-every", &every]),
        ("two-feeds", &[&even, &odd], &["--shards", "2"]),
    ] {
        assert!(
            slices(name, feeds, flags) == reference,
            "{name}: slices differ from --shards 1 on the whole capture"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
