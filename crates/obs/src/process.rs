//! Process-level gauges: what the operating system says about the
//! process the pipeline ran in.
//!
//! [`Stability::Volatile`]: a function of the machine and the allocator,
//! not of the trace.

use crate::registry::{MetricsRegistry, Stability};

/// This process's peak resident set in bytes (`VmHWM` in
/// `/proc/self/status`), or `None` where that file does not exist.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Sets the gauge `quicsand_process_peak_rss_bytes` on `registry` to
/// [`peak_rss_bytes`] as of now and returns the reading; where there is
/// none the gauge is not registered.
pub fn publish_peak_rss(registry: &MetricsRegistry) -> Option<u64> {
    let bytes = peak_rss_bytes()?;
    registry
        .gauge(
            "quicsand_process_peak_rss_bytes",
            "Peak resident set size of the process (Linux VmHWM), bytes",
            Stability::Volatile,
        )
        .set(bytes);
    Some(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gauge_is_volatile_and_only_there_with_a_reading() {
        let registry = MetricsRegistry::new();
        let published = publish_peak_rss(&registry);
        assert_eq!(published.is_some(), peak_rss_bytes().is_some());
        let full = registry.render_prometheus(false);
        assert_eq!(
            full.contains("quicsand_process_peak_rss_bytes"),
            published.is_some()
        );
        if let Some(bytes) = published {
            // A running test binary holds at least a page and reports
            // whole KiB.
            assert!(bytes >= 4096 && bytes % 1024 == 0, "{bytes}");
        }
        assert!(!registry
            .render_prometheus(true)
            .contains("quicsand_process_peak_rss_bytes"));
    }
}
