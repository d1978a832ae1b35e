//! Empirical cumulative distribution functions.
//!
//! Every distribution figure in the paper (Figs. 6, 7, 12, 13) is a
//! CDF; this module provides the shared machinery: quantiles, medians,
//! point-mass queries and plot-ready step points.

use serde::{Deserialize, Serialize};

/// An empirical CDF over f64 samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are rejected with a panic — they
    /// indicate an upstream bug, not data).
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "CDF samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The q-quantile (0 ≤ q ≤ 1) using nearest-rank; `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }

    /// The median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Fraction of samples ≤ `x` — i.e. F(x).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Plot-ready `(x, F(x))` step points, deduplicated on x.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut points: Vec<(f64, f64)> = Vec::new();
        for (i, x) in self.sorted.iter().enumerate() {
            let y = (i + 1) as f64 / n;
            match points.last_mut() {
                Some(last) if last.0 == *x => last.1 = y,
                _ => points.push((*x, y)),
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantiles_on_known_data() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(cdf.median(), Some(3.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(5.0));
        assert_eq!(cdf.quantile(0.2), Some(1.0));
        assert_eq!(cdf.quantile(0.21), Some(2.0));
        assert_eq!(cdf.min(), Some(1.0));
        assert_eq!(cdf.max(), Some(5.0));
        assert_eq!(cdf.mean(), Some(3.0));
        assert_eq!(cdf.len(), 5);
    }

    #[test]
    fn empty_cdf() {
        let cdf = Cdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.median(), None);
        assert_eq!(cdf.mean(), None);
        assert_eq!(cdf.fraction_at_or_below(10.0), 0.0);
        assert!(cdf.points().is_empty());
    }

    #[test]
    fn unsorted_input_handled() {
        let cdf = Cdf::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(cdf.median(), Some(3.0));
    }

    #[test]
    fn fraction_at_or_below() {
        let cdf = Cdf::new(vec![1.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.75);
        assert_eq!(cdf.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn points_deduplicate_and_end_at_one() {
        let cdf = Cdf::new(vec![1.0, 1.0, 2.0]);
        let points = cdf.points();
        assert_eq!(points, vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Cdf::new(vec![1.0, f64::NAN]);
    }

    proptest! {
        #[test]
        fn prop_quantile_monotone(samples in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let cdf = Cdf::new(samples);
            let mut last = f64::NEG_INFINITY;
            for i in 0..=10 {
                let q = i as f64 / 10.0;
                let v = cdf.quantile(q).unwrap();
                prop_assert!(v >= last);
                last = v;
            }
        }

        #[test]
        fn prop_fraction_and_quantile_consistent(samples in proptest::collection::vec(0f64..1000.0, 1..100)) {
            let cdf = Cdf::new(samples);
            let median = cdf.median().unwrap();
            prop_assert!(cdf.fraction_at_or_below(median) >= 0.5);
        }

        #[test]
        fn prop_points_end_at_one(samples in proptest::collection::vec(0f64..100.0, 1..50)) {
            let cdf = Cdf::new(samples);
            let points = cdf.points();
            prop_assert!((points.last().unwrap().1 - 1.0).abs() < 1e-12);
            for w in points.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
                prop_assert!(w[0].1 < w[1].1 + 1e-12);
            }
        }
    }
}
