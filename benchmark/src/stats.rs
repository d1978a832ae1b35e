//! Order statistics over a handful of samples.

use serde::{Deserialize, Serialize};

/// Median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Median, quartiles, extremes and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Summary {
    /// The reported value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`. Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method), which
    /// is what the benchmark driver computes spreads with.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Summary::default();
        }
        let quantile = |p: f64| {
            let position = p * (n + 1) as f64;
            let below = (position.floor() as usize).clamp(1, n);
            let above = (below + 1).min(n);
            let weight = (position - below as f64).clamp(0.0, 1.0);
            sorted[below - 1] + weight * (sorted[above - 1] - sorted[below - 1])
        };
        Summary {
            median: quantile(0.5),
            q1: quantile(0.25),
            q3: quantile(0.75),
            min: sorted[0],
            max: sorted[n - 1],
            n,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `p`-th percentile (nearest rank) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_and_empty_samples() {
        assert_eq!(Summary::of(&[3.0]).median, 3.0);
        assert_eq!(Summary::of(&[3.0]).spread(), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 99.0), 4.0);
    }
}
