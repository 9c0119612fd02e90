//! Batch and online summary statistics.
//!
//! The active-learning loop needs running means and variances of repeated
//! runtime observations per configuration (sequential analysis, §3.1 of the
//! paper), while the evaluation needs batch statistics over whole datasets
//! (Table 2). Both are provided here.

use serde::{Deserialize, Serialize};

/// Batch summary statistics of a sample.
///
/// # Examples
///
/// ```
/// use alic_stats::summary::Summary;
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.count, 4);
/// assert!((s.mean - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean. Zero for an empty sample.
    pub mean: f64,
    /// Unbiased (n-1) sample variance. Zero for samples of size < 2.
    pub variance: f64,
    /// Minimum observation. `f64::INFINITY` for an empty sample.
    pub min: f64,
    /// Maximum observation. `f64::NEG_INFINITY` for an empty sample.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics over `values`.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut online = OnlineStats::new();
        for &v in values {
            online.push(v);
        }
        online.summary()
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Standard error of the mean, `s / sqrt(n)`.
    ///
    /// Returns zero for samples of size zero.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            variance: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Numerically stable online mean/variance accumulator (Welford's algorithm).
///
/// Used wherever observations arrive one at a time, most importantly for the
/// per-configuration runtime records kept by the sequential-analysis sampling
/// plan.
///
/// # Examples
///
/// ```
/// use alic_stats::summary::OnlineStats;
/// let mut stats = OnlineStats::new();
/// for x in [3.0, 4.0, 5.0] {
///     stats.push(x);
/// }
/// assert_eq!(stats.count(), 3);
/// assert!((stats.mean() - 4.0).abs() < 1e-12);
/// assert!((stats.variance() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Current running mean (zero when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (zero for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// The raw second central moment accumulator (Welford's `M2`). Exposed,
    /// together with [`OnlineStats::from_parts`], so checkpointing codecs can
    /// capture and restore the accumulator state bit-exactly.
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Reconstructs an accumulator from previously captured state — the
    /// inverse of the [`count`](OnlineStats::count) /
    /// [`mean`](OnlineStats::mean) / [`m2`](OnlineStats::m2) /
    /// [`min`](OnlineStats::min) / [`max`](OnlineStats::max) accessors. A
    /// restored accumulator continues exactly where the captured one stopped,
    /// so resumed campaign units merge bit-identically.
    pub fn from_parts(count: usize, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        OnlineStats {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Smallest observation seen (infinity when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation seen (negative infinity when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Snapshot of the accumulated statistics.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean,
            variance: self.variance(),
            min: self.min,
            max: self.max,
        }
    }
}

impl Default for OnlineStats {
    /// The empty accumulator, [`OnlineStats::new`].
    fn default() -> Self {
        OnlineStats::new()
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut stats = OnlineStats::new();
        for v in iter {
            stats.push(v);
        }
        stats
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample_has_zero_variance() {
        let s = Summary::from_slice(&[5.0; 10]);
        assert_eq!(s.count, 10);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn summary_matches_hand_computed_values() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Population variance is 4.0; unbiased variance is 4.0 * 8 / 7.
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn default_summary_is_empty() {
        let s = Summary::default();
        assert_eq!(s.count, 0);
        assert_eq!(s.std_error(), 0.0);
        // The default accumulator is the empty one, with infinite extremes.
        let empty = OnlineStats::default();
        assert_eq!(empty, OnlineStats::new());
        assert_eq!(empty.min(), f64::INFINITY);
        assert_eq!(empty.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn online_stats_match_batch_statistics() {
        let values = [0.3, 1.7, -2.5, 8.1, 4.4, 3.3, 0.0];
        let online: OnlineStats = values.iter().copied().collect();
        let batch = Summary::from_slice(&values);
        assert_eq!(online.count(), batch.count);
        assert!((online.mean() - batch.mean).abs() < 1e-12);
        assert!((online.variance() - batch.variance).abs() < 1e-12);
        assert_eq!(online.min(), batch.min);
        assert_eq!(online.max(), batch.max);
    }

    #[test]
    fn online_merge_equals_single_pass() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let mut left: OnlineStats = a.iter().copied().collect();
        let right: OnlineStats = b.iter().copied().collect();
        left.merge(&right);

        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let combined = Summary::from_slice(&all);
        assert_eq!(left.count(), combined.count);
        assert!((left.mean() - combined.mean).abs() < 1e-12);
        assert!((left.variance() - combined.variance).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut stats: OnlineStats = [1.0, 2.0].iter().copied().collect();
        let before = stats.summary();
        stats.merge(&OnlineStats::new());
        assert_eq!(stats.summary(), before);

        let mut empty = OnlineStats::new();
        empty.merge(&stats);
        assert_eq!(empty.summary(), before);
    }

    #[test]
    fn from_parts_restores_the_accumulator_exactly() {
        let original: OnlineStats = [0.3, 1.7, -2.5, 8.1].iter().copied().collect();
        let mut restored = OnlineStats::from_parts(
            original.count(),
            original.mean(),
            original.m2(),
            original.min(),
            original.max(),
        );
        assert_eq!(restored, original);
        // The restored accumulator keeps accumulating identically.
        let mut reference = original;
        restored.push(4.4);
        reference.push(4.4);
        assert_eq!(restored, reference);
    }
}
