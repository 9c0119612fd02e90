//! Student-t confidence intervals on the mean.
//!
//! The paper's §4.3 validates fixed sampling plans post hoc by computing the
//! ratio of the 95% confidence-interval half width to the mean and rejecting
//! samples that breach a threshold (1% or 5%). Table 2 reports the spread of
//! that ratio for 5- and 35-observation plans. This module provides exactly
//! that machinery.

use serde::{Deserialize, Serialize};

use crate::special::student_t_quantile;
use crate::summary::Summary;
use crate::{Result, StatsError};

/// A two-sided confidence interval for a sample mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Lower bound of the interval.
    pub lower: f64,
    /// Upper bound of the interval.
    pub upper: f64,
    /// Confidence level in `(0, 1)`, e.g. `0.95`.
    pub level: f64,
    /// Number of observations the interval is based on.
    pub count: usize,
}

impl ConfidenceInterval {
    /// Half width of the interval.
    fn half_width(&self) -> f64 {
        0.5 * (self.upper - self.lower)
    }

    /// Ratio of the half width to the absolute mean — the paper's post-hoc
    /// validation statistic ("CI / mean", §4.3 and Table 2).
    ///
    /// Returns infinity when the mean is zero but the interval is not
    /// degenerate, and zero when both are zero.
    pub fn ratio_to_mean(&self) -> f64 {
        let hw = self.half_width();
        if self.mean == 0.0 {
            if hw == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            hw / self.mean.abs()
        }
    }
}

/// Computes a two-sided Student-t confidence interval for the mean of
/// `values` at confidence `level` (e.g. `0.95`).
///
/// For samples of size one the interval is degenerate (`lower == upper ==
/// mean`), mirroring the "one observation" sampling plan of the paper where
/// no uncertainty estimate is available.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty sample and
/// [`StatsError::InvalidConfidenceLevel`] when `level` is not in `(0, 1)`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), alic_stats::StatsError> {
/// let ci = alic_stats::ci::confidence_interval(&[10.0, 10.5, 9.5, 10.2], 0.95)?;
/// assert!(ci.lower <= 10.05 && 10.05 <= ci.upper);
/// # Ok(())
/// # }
/// ```
pub fn confidence_interval(values: &[f64], level: f64) -> Result<ConfidenceInterval> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if !(level > 0.0 && level < 1.0) {
        return Err(StatsError::InvalidConfidenceLevel);
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFiniteInput);
    }
    let summary = Summary::from_slice(values);
    Ok(interval_from_summary(&summary, level))
}

/// Builds the confidence interval from precomputed summary statistics.
///
/// Degenerate (zero-width) intervals are returned for samples of size zero
/// or one.
fn interval_from_summary(summary: &Summary, level: f64) -> ConfidenceInterval {
    if summary.count < 2 {
        return ConfidenceInterval {
            mean: summary.mean,
            lower: summary.mean,
            upper: summary.mean,
            level,
            count: summary.count,
        };
    }
    let df = (summary.count - 1) as f64;
    let alpha = 1.0 - level;
    let t = student_t_quantile(1.0 - alpha / 2.0, df);
    let half = t * summary.std_error();
    ConfidenceInterval {
        mean: summary.mean,
        lower: summary.mean - half,
        upper: summary.mean + half,
        level,
        count: summary.count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_contains_mean_and_is_symmetric() {
        let values = [2.1, 2.2, 2.0, 2.15, 2.05, 2.1];
        let ci = confidence_interval(&values, 0.95).unwrap();
        assert!(ci.lower <= ci.mean && ci.mean <= ci.upper);
        assert!((ci.upper - ci.mean - (ci.mean - ci.lower)).abs() < 1e-12);
        assert_eq!(ci.count, 6);
    }

    #[test]
    fn known_interval_width() {
        // n = 5, mean = 10, s = 1  =>  half width = t_{0.975,4} / sqrt(5).
        let values = [9.0, 9.5, 10.0, 10.5, 11.0];
        let s = Summary::from_slice(&values).std_dev();
        let ci = confidence_interval(&values, 0.95).unwrap();
        let expected = 2.776 * s / 5f64.sqrt();
        assert!((ci.half_width() - expected).abs() < 2e-3);
    }

    #[test]
    fn single_observation_gives_degenerate_interval() {
        let ci = confidence_interval(&[3.3], 0.95).unwrap();
        assert_eq!(ci.lower, 3.3);
        assert_eq!(ci.upper, 3.3);
        assert_eq!(ci.ratio_to_mean(), 0.0);
    }

    #[test]
    fn wider_confidence_means_wider_interval() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ci90 = confidence_interval(&values, 0.90).unwrap();
        let ci99 = confidence_interval(&values, 0.99).unwrap();
        assert!(ci99.half_width() > ci90.half_width());
    }

    #[test]
    fn more_observations_shrink_the_interval() {
        let narrow: Vec<f64> = (0..35)
            .map(|i| 10.0 + 0.1 * ((i % 5) as f64 - 2.0))
            .collect();
        let wide = &narrow[..5];
        let ci_narrow = confidence_interval(&narrow, 0.95).unwrap();
        let ci_wide = confidence_interval(wide, 0.95).unwrap();
        assert!(ci_narrow.half_width() < ci_wide.half_width());
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert_eq!(confidence_interval(&[], 0.95), Err(StatsError::EmptyInput));
        assert_eq!(
            confidence_interval(&[1.0, 2.0], 1.0),
            Err(StatsError::InvalidConfidenceLevel)
        );
        assert_eq!(
            confidence_interval(&[1.0, f64::NAN], 0.95),
            Err(StatsError::NonFiniteInput)
        );
    }

    #[test]
    fn ratio_to_mean_handles_zero_mean() {
        let ci = confidence_interval(&[-1.0, 1.0], 0.95).unwrap();
        assert!(ci.ratio_to_mean().is_infinite());
    }
}
