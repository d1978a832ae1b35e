//! Deterministic randomness: seed splitting and distribution helpers.
//!
//! Every generator in the reproduction consumes an independent ChaCha
//! stream derived from the scenario's master seed, so adding a subsystem
//! never perturbs the draws of another — scenarios stay byte-identical
//! across versions unless a subsystem itself changes.
//!
//! `rand`'s `StdRng` explicitly does not promise cross-version stream
//! stability; `ChaCha12Rng` does, which is why it is used throughout
//! (see DESIGN.md §6).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Derives an independent, named RNG stream from a master seed.
///
/// The stream is keyed by FNV-1a over the label, so renaming a subsystem
/// changes its draws but nothing else's.
pub fn substream(master_seed: u64, label: &str) -> ChaCha12Rng {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    ChaCha12Rng::seed_from_u64(master_seed ^ hash)
}

/// Samples an exponential inter-arrival time with the given mean
/// (Poisson process), in fractional units of the mean.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    // Inverse CDF; clamp the uniform away from 0 to avoid inf.
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Samples a log-normal variate parameterized by its *median* and the
/// shape `sigma` (the paper reports medians for flood durations, which
/// makes the median the natural parameter: `median = e^mu`).
pub fn lognormal_by_median<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    let z = standard_normal(rng);
    median * (sigma * z).exp()
}

/// Samples a standard normal via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples an index from a discrete distribution given by non-negative
/// weights. Panics if all weights are zero or the slice is empty (a
/// configuration error).
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && !weights.is_empty(),
        "weighted_index needs positive total weight"
    );
    let mut target = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if target < *w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

/// Samples a Poisson(lambda) count via Knuth's method (fine for the
/// per-second event rates of this project, lambda ≲ 50); falls back to
/// a normal approximation for large lambda.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 50.0 {
        let sample = lambda + lambda.sqrt() * standard_normal(rng);
        return sample.round().max(0.0) as u64;
    }
    let limit = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(7)
    }

    #[test]
    fn substreams_are_independent_and_stable() {
        let mut a1 = substream(1, "scanners");
        let mut a2 = substream(1, "scanners");
        let mut b = substream(1, "floods");
        let draws1: Vec<u64> = (0..10).map(|_| a1.gen()).collect();
        let draws2: Vec<u64> = (0..10).map(|_| a2.gen()).collect();
        let draws3: Vec<u64> = (0..10).map(|_| b.gen()).collect();
        assert_eq!(draws1, draws2, "same label, same stream");
        assert_ne!(draws1, draws3, "different label, different stream");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng();
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut r, 2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut r = rng();
        assert!((0..1000).all(|_| exponential(&mut r, 1.0) >= 0.0));
    }

    #[test]
    fn lognormal_median_converges() {
        let mut r = rng();
        let mut samples: Vec<f64> = (0..10_001)
            .map(|_| lognormal_by_median(&mut r, 255.0, 1.2))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!(
            (median / 255.0 - 1.0).abs() < 0.15,
            "median={median}, expected ~255"
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = rng();
        let weights = [0.58, 0.25, 0.17]; // the Fig. 9 provider mix
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[weighted_index(&mut r, &weights)] += 1;
        }
        let share0 = counts[0] as f64 / 30_000.0;
        assert!((share0 - 0.58).abs() < 0.02, "share0={share0}");
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn weighted_index_rejects_zero_weights() {
        let mut r = rng();
        weighted_index(&mut r, &[0.0, 0.0]);
    }

    #[test]
    fn poisson_mean_converges() {
        let mut r = rng();
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| poisson(&mut r, 2.5)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "mean={mean}");
        // Large-lambda path.
        let sum: u64 = (0..2_000).map(|_| poisson(&mut r, 80.0)).sum();
        let mean = sum as f64 / 2_000.0;
        assert!((mean - 80.0).abs() < 2.0, "mean={mean}");
    }

    #[test]
    fn poisson_edges() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
        assert_eq!(poisson(&mut r, -1.0), 0);
    }
}
