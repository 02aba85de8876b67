//! Descriptive statistics and histograms for measurement series.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes summary statistics; `None` for an empty slice.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some(Summary {
        n,
        mean,
        std_dev: var.sqrt(),
        min,
        max,
    })
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// A fixed-bin histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Samples outside `[lo, hi)`.
    outliers: u64,
}

impl Histogram {
    /// Builds a histogram of `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize, samples: &[f64]) -> Histogram {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "empty histogram range");
        let mut counts = vec![0u64; bins];
        let mut outliers = 0;
        let width = (hi - lo) / bins as f64;
        for &x in samples {
            if x < lo || x >= hi {
                outliers += 1;
            } else {
                let b = ((x - lo) / width) as usize;
                counts[b.min(bins - 1)] += 1;
            }
        }
        Histogram {
            lo,
            hi,
            counts,
            outliers,
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples that fell outside the range.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Total in-range samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_basic() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn quantiles() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert!((quantile(&xs, 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_none());
    }

    #[test]
    #[should_panic(expected = "quantile must be")]
    fn quantile_range_checked() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn histogram_binning() {
        let h = Histogram::new(0.0, 1.0, 4, &[0.1, 0.3, 0.35, 0.9, -0.2, 1.0]);
        assert_eq!(h.counts(), &[1, 2, 0, 1]);
        assert_eq!(h.outliers(), 2);
        assert_eq!(h.total(), 4);
    }

    proptest! {
        #[test]
        fn mean_within_min_max(xs in proptest::collection::vec(-100.0..100.0f64, 1..50)) {
            let s = summarize(&xs).unwrap();
            prop_assert!(s.mean >= s.min - 1e-9);
            prop_assert!(s.mean <= s.max + 1e-9);
            prop_assert!(s.std_dev >= 0.0);
        }

        #[test]
        fn quantile_monotone(xs in proptest::collection::vec(-10.0..10.0f64, 2..30),
                             a in 0.0..1.0f64, b in 0.0..1.0f64) {
            prop_assume!(a <= b);
            let qa = quantile(&xs, a).unwrap();
            let qb = quantile(&xs, b).unwrap();
            prop_assert!(qa <= qb + 1e-12);
        }

        #[test]
        fn histogram_conserves_samples(xs in proptest::collection::vec(-2.0..2.0f64, 0..60)) {
            let h = Histogram::new(-1.0, 1.0, 8, &xs);
            prop_assert_eq!(h.total() + h.outliers(), xs.len() as u64);
        }
    }
}
