//! What the run ran on, and how noisy it was.

use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Identifies the host and build a result came from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostFingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` line of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Build profile of the benchmark binary.
    pub profile: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl HostFingerprint {
    /// Reads the fingerprint of this host; `root` is the repository
    /// root, asked for its commit only if it is a git checkout.
    pub fn read(root: &Path) -> HostFingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split(':').nth(1))
                    .map(|model| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostFingerprint {
            nproc: cores(),
            cpu_model,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
            git_commit: root
                .join(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// A fixed pure-CPU kernel (~20 ms): an xorshift chain the optimiser
/// cannot shorten. Its run-to-run variation is the host's, not the
/// program's. Returns milliseconds.
pub fn jitter_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc: u64 = 0;
    for _ in 0..12_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// (max − min) / median of the probe's samples.
pub fn jitter_share(samples_ms: &[f64]) -> f64 {
    let summary = crate::stats::Summary::of(samples_ms);
    if summary.median == 0.0 {
        0.0
    } else {
        (summary.max - summary.min) / summary.median
    }
}

/// A run whose probe moved by more than this is flagged `noisy`.
pub const NOISY_JITTER: f64 = 0.05;

/// This process's peak resident set (`VmHWM`), KiB.
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (10 ms ticks).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Hands every free heap page back to the kernel, so that the pass that
/// follows faults its memory in afresh, as each new `quicsand` process
/// does.
///
/// Without this a pass inherits whatever its predecessors freed: glibc
/// recycles freed blocks without touching the kernel, and page faults
/// are 30 % of a batch pass on `synack_stream` (7 M records/s cold,
/// 10 M warm). `run`, whose five workloads leave a large heap behind,
/// then read 10 M where the one-workload form read 7 M for the same
/// pass.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
pub fn cold_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` is glibc's own entry point; it takes one
    // integer, keeps every live allocation intact and is thread-safe.
    unsafe { malloc_trim(0) };
}

/// Other allocators have no such call; passes run on whatever heap they find.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn cold_heap() {}
