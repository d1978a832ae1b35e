//! Time binning for the hourly series of Figs. 2 and 3.

use quicsand_net::Timestamp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An hourly counter series over the measurement period.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HourlySeries {
    counts: BTreeMap<u64, u64>,
}

impl HourlySeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one event at `ts`.
    pub fn add(&mut self, ts: Timestamp) {
        *self.counts.entry(ts.hour_bucket()).or_default() += 1;
    }

    /// Adds `n` events at `ts`.
    pub fn add_n(&mut self, ts: Timestamp, n: u64) {
        *self.counts.entry(ts.hour_bucket()).or_default() += n;
    }

    /// Count in a specific hour bucket.
    pub fn get(&self, hour: u64) -> u64 {
        self.counts.get(&hour).copied().unwrap_or(0)
    }

    /// Merges another series into this one (bucket-wise sum) — used
    /// to combine per-shard series from the parallel pipeline.
    pub fn merge(&mut self, other: &HourlySeries) {
        for (&hour, &count) in &other.counts {
            *self.counts.entry(hour).or_default() += count;
        }
    }

    /// Total events.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Mean count per hour-of-day (0–23) over a measurement period of
    /// `hours` hours — the Fig. 3 insert profile.
    ///
    /// The divisor for each slot is the number of times that
    /// hour-of-day *occurs in the period*, not the number of non-empty
    /// buckets: an hour with traffic on one day out of seven averages
    /// to count/7, matching how the paper's per-hour means are read
    /// off a fixed 4-week window. (The previous behaviour divided by
    /// occupied-bucket count, which inflated sparse hours.)
    pub fn hour_of_day_profile(&self, hours: u64) -> [f64; 24] {
        let mut sums = [0u64; 24];
        let mut occurrences = [0u64; 24];
        for slot in 0..24u64 {
            if hours > slot {
                // Slot `slot` occurs at absolute hours slot, slot+24, …
                // strictly below `hours`.
                occurrences[slot as usize] = (hours - slot).div_ceil(24);
            }
        }
        for (&hour, &count) in &self.counts {
            if hour < hours {
                sums[(hour % 24) as usize] += count;
            }
        }
        let mut profile = [0.0; 24];
        for i in 0..24 {
            if occurrences[i] > 0 {
                profile[i] = sums[i] as f64 / occurrences[i] as f64;
            }
        }
        profile
    }

    /// Coefficient of variation of the hourly counts over `hours` —
    /// the paper's "requests are stable, responses are erratic"
    /// contrast is a variability statement.
    pub fn coefficient_of_variation(&self, hours: u64) -> f64 {
        if hours == 0 {
            return 0.0;
        }
        let values: Vec<f64> = (0..hours).map(|h| self.get(h) as f64).collect();
        let mean = values.iter().sum::<f64>() / hours as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / hours as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut s = HourlySeries::new();
        s.add(Timestamp::from_secs(10));
        s.add(Timestamp::from_secs(3_599));
        s.add(Timestamp::from_secs(3_600));
        s.add_n(Timestamp::from_secs(7_200), 5);
        assert_eq!(s.get(0), 2);
        assert_eq!(s.get(1), 1);
        assert_eq!(s.get(2), 5);
        assert_eq!(s.get(3), 0);
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn merge_sums_buckets() {
        let mut a = HourlySeries::new();
        a.add_n(Timestamp::from_secs(0), 3);
        a.add_n(Timestamp::from_secs(3_600), 1);
        let mut b = HourlySeries::new();
        b.add_n(Timestamp::from_secs(0), 2);
        b.add_n(Timestamp::from_secs(7_200), 4);
        a.merge(&b);
        assert_eq!(a.get(0), 5);
        assert_eq!(a.get(1), 1);
        assert_eq!(a.get(2), 4);
        assert_eq!(a.total(), 10);
    }

    #[test]
    fn hour_of_day_profile_averages_days() {
        let mut s = HourlySeries::new();
        // Hour 6 on two different days: 10 and 20 events.
        s.add_n(Timestamp::from_secs(6 * 3_600), 10);
        s.add_n(Timestamp::from_secs(86_400 + 6 * 3_600), 20);
        let profile = s.hour_of_day_profile(48);
        assert_eq!(profile[6], 15.0);
        assert_eq!(profile[7], 0.0);
    }

    #[test]
    fn hour_of_day_profile_divides_by_days_in_period_not_active_days() {
        let mut s = HourlySeries::new();
        // Hour 6 active only on day 0 of a 4-day period.
        s.add_n(Timestamp::from_secs(6 * 3_600), 12);
        let profile = s.hour_of_day_profile(4 * 24);
        // 12 events over 4 occurrences of 06:00 → mean 3, not 12.
        assert_eq!(profile[6], 3.0);
    }

    #[test]
    fn hour_of_day_profile_partial_last_day() {
        let mut s = HourlySeries::new();
        // Hour-of-day 1 on day 0. 30-hour period: hour-of-day 1 occurs
        // twice (h1, h25); slot 12 occurs once (h12).
        s.add_n(Timestamp::from_secs(3_600), 10);
        s.add_n(Timestamp::from_secs(12 * 3_600), 7);
        let profile = s.hour_of_day_profile(30);
        assert_eq!(profile[1], 5.0);
        assert_eq!(profile[12], 7.0);
    }

    #[test]
    fn hour_of_day_profile_ignores_counts_outside_period() {
        let mut s = HourlySeries::new();
        s.add_n(Timestamp::from_secs(6 * 3_600), 10);
        s.add_n(Timestamp::from_secs(86_400 + 6 * 3_600), 99); // beyond 24h period
        let profile = s.hour_of_day_profile(24);
        assert_eq!(profile[6], 10.0);
    }

    #[test]
    fn cv_distinguishes_stable_from_erratic() {
        let mut stable = HourlySeries::new();
        let mut erratic = HourlySeries::new();
        for h in 0..48u64 {
            stable.add_n(Timestamp::from_secs(h * 3_600), 100);
            // One huge burst, silence otherwise.
            if h == 20 {
                erratic.add_n(Timestamp::from_secs(h * 3_600), 4_800);
            }
        }
        assert!(stable.coefficient_of_variation(48) < 0.01);
        assert!(erratic.coefficient_of_variation(48) > 3.0);
    }

    #[test]
    fn cv_edge_cases() {
        let s = HourlySeries::new();
        assert_eq!(s.coefficient_of_variation(0), 0.0);
        assert_eq!(s.coefficient_of_variation(10), 0.0);
    }
}
