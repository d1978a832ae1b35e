//! Virtual time: microsecond-resolution timestamps and durations.
//!
//! All simulations run on virtual time so results are deterministic and
//! a 30-day telescope month takes milliseconds to "elapse". The paper's
//! thresholds are second-granular (session timeout 5 min, DoS duration
//! 60 s, 1-minute pps slots); microseconds leave ample headroom for the
//! server model's per-handshake crypto costs.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds since the simulation epoch.
///
/// The epoch is scenario-defined; the paper's scenario uses
/// 2021-04-01T00:00:00 UTC as time zero.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

/// A span of virtual time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

/// Microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;
/// Seconds per hour.
pub const SECS_PER_HOUR: u64 = 3_600;
/// Seconds per day.
pub const SECS_PER_DAY: u64 = 86_400;

impl Timestamp {
    /// The simulation epoch (time zero).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Builds a timestamp from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        Timestamp(secs * MICROS_PER_SEC)
    }

    /// Builds a timestamp from microseconds.
    pub fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// Whole seconds since the epoch (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for rate computations).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The hour bucket this timestamp falls into (hours since epoch) —
    /// the binning used by Figs. 2 and 3.
    pub fn hour_bucket(self) -> u64 {
        self.as_secs() / SECS_PER_HOUR
    }

    /// The minute bucket (minutes since epoch) — used for the max-pps
    /// computation over 1-minute slots (§5.2).
    pub fn minute_bucket(self) -> u64 {
        self.as_secs() / 60
    }

    /// Hour of day (0–23) assuming the epoch is midnight UTC — used for
    /// the diurnal analysis (Fig. 3 insert).
    pub fn hour_of_day(self) -> u64 {
        (self.as_secs() / SECS_PER_HOUR) % 24
    }

    /// Day index since the epoch.
    pub fn day(self) -> u64 {
        self.as_secs() / SECS_PER_DAY
    }

    /// Saturating difference `self - earlier`.
    pub fn saturating_since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition.
    pub fn checked_add(self, d: Duration) -> Option<Timestamp> {
        self.0.checked_add(d.0).map(Timestamp)
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// From whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        Duration(secs * MICROS_PER_SEC)
    }

    /// From whole minutes.
    pub fn from_mins(mins: u64) -> Self {
        Duration(mins * 60 * MICROS_PER_SEC)
    }

    /// From microseconds.
    pub fn from_micros(micros: u64) -> Self {
        Duration(micros)
    }

    /// From milliseconds.
    pub fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000)
    }

    /// From fractional seconds (clamped at zero).
    pub fn from_secs_f64(secs: f64) -> Self {
        Duration((secs.max(0.0) * MICROS_PER_SEC as f64) as u64)
    }

    /// Whole seconds (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Multiplies by a scalar, saturating.
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs();
        let micros = self.0 % MICROS_PER_SEC;
        let (d, rem) = (secs / SECS_PER_DAY, secs % SECS_PER_DAY);
        let (h, rem) = (rem / 3600, rem % 3600);
        let (m, s) = (rem / 60, rem % 60);
        write!(f, "d{d}+{h:02}:{m:02}:{s:02}.{micros:06}")
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}us", self.0)
        } else if self.0 < MICROS_PER_SEC {
            write!(f, "{:.1}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_conversions() {
        let t = Timestamp::from_secs(90);
        assert_eq!(t.as_micros(), 90_000_000);
        assert_eq!(t.as_secs(), 90);
        assert_eq!(Timestamp::from_micros(1_500_000).as_secs(), 1);
        assert!((Timestamp::from_micros(1_500_000).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn buckets() {
        let t = Timestamp::from_secs(2 * SECS_PER_HOUR + 125);
        assert_eq!(t.hour_bucket(), 2);
        assert_eq!(t.minute_bucket(), 122);
        assert_eq!(t.hour_of_day(), 2);
        assert_eq!(t.day(), 0);
        let next_day = Timestamp::from_secs(SECS_PER_DAY + 6 * SECS_PER_HOUR);
        assert_eq!(next_day.hour_of_day(), 6);
        assert_eq!(next_day.day(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(10);
        let t2 = t + Duration::from_secs(5);
        assert_eq!(t2.as_secs(), 15);
        assert_eq!((t2 - t).as_secs(), 5);
        assert_eq!(t2.saturating_since(t), Duration::from_secs(5));
        assert_eq!(t.saturating_since(t2), Duration::ZERO);
        let mut t3 = t;
        t3 += Duration::from_millis(1_500);
        assert_eq!(t3.as_micros(), 11_500_000);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(Duration::from_mins(5).as_secs(), 300);
        assert_eq!(Duration::from_millis(2).as_micros(), 2_000);
        assert_eq!(Duration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_secs(2).saturating_mul(3).as_secs(), 6);
        assert_eq!(Duration(u64::MAX).saturating_mul(2), Duration(u64::MAX));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Duration::from_micros(10).to_string(), "10us");
        assert_eq!(Duration::from_millis(2).to_string(), "2.0ms");
        assert_eq!(Duration::from_secs(255).to_string(), "255.000s");
        let t = Timestamp::from_secs(SECS_PER_DAY + 6 * 3600 + 61);
        assert_eq!(t.to_string(), "d1+06:01:01.000000");
    }

    #[test]
    fn checked_add_overflow() {
        assert!(Timestamp(u64::MAX).checked_add(Duration(1)).is_none());
        assert_eq!(Timestamp(5).checked_add(Duration(5)), Some(Timestamp(10)));
    }

    proptest! {
        #[test]
        fn prop_add_sub_inverse(base in 0u64..u32::MAX as u64, delta in 0u64..u32::MAX as u64) {
            let t = Timestamp(base);
            let d = Duration(delta);
            prop_assert_eq!((t + d) - t, d);
        }

        #[test]
        fn prop_hour_bucket_consistent(secs in 0u64..10_000_000) {
            let t = Timestamp::from_secs(secs);
            prop_assert_eq!(t.hour_bucket(), secs / 3600);
            prop_assert_eq!(t.hour_of_day(), (secs / 3600) % 24);
        }
    }
}
