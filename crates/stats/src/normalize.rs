//! Feature normalization.
//!
//! The paper (§4.5) scales and centres every feature of the configuration
//! vectors "to transform them into something similar to the Standard Normal
//! Distribution". [`Normalizer`] fits per-feature means and standard
//! deviations on a training matrix and applies the affine transform.

use serde::{Deserialize, Serialize};

use crate::summary::Summary;
use crate::{Result, StatsError};

/// Per-feature z-score normalizer (centre by mean, scale by standard
/// deviation).
///
/// Constant features (zero standard deviation) are centred but left unscaled
/// so the transform stays invertible.
///
/// # Examples
///
/// ```
/// use alic_stats::normalize::Normalizer;
/// let rows = vec![vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]];
/// let norm = Normalizer::fit(&rows).unwrap();
/// let z = norm.transform_row(&rows[1]).unwrap();
/// assert!(z.iter().all(|v| v.abs() < 1e-9)); // middle row maps to the origin
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    means: Vec<f64>,
    scales: Vec<f64>,
}

impl Normalizer {
    /// Fits a normalizer to a row-major matrix of feature vectors.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `rows` is empty or has
    /// zero-width rows, and [`StatsError::LengthMismatch`] when rows have
    /// inconsistent widths.
    pub fn fit(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let width = rows[0].len();
        for row in rows {
            if row.len() != width {
                return Err(StatsError::LengthMismatch {
                    left: width,
                    right: row.len(),
                });
            }
        }
        let mut means = Vec::with_capacity(width);
        let mut scales = Vec::with_capacity(width);
        for j in 0..width {
            let column: Vec<f64> = rows.iter().map(|r| r[j]).collect();
            let summary = Summary::from_slice(&column);
            let sd = summary.std_dev();
            means.push(summary.mean);
            scales.push(if sd > 0.0 { sd } else { 1.0 });
        }
        Ok(Normalizer { means, scales })
    }

    /// Number of features this normalizer was fitted on.
    pub fn width(&self) -> usize {
        self.means.len()
    }

    /// Normalizes a single feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when `row` has a different
    /// width than the fitted data.
    pub fn transform_row(&self, row: &[f64]) -> Result<Vec<f64>> {
        self.check_width(row)?;
        Ok(row
            .iter()
            .zip(self.means.iter().zip(&self.scales))
            .map(|(v, (m, s))| (v - m) / s)
            .collect())
    }

    fn check_width(&self, row: &[f64]) -> Result<()> {
        if row.len() != self.width() {
            return Err(StatsError::DimensionMismatch {
                expected: self.width(),
                actual: row.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn example_rows() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 10.0, -5.0],
            vec![2.0, 20.0, 0.0],
            vec![3.0, 30.0, 5.0],
            vec![4.0, 40.0, 10.0],
        ]
    }

    #[test]
    fn transformed_columns_have_zero_mean_unit_variance() {
        let rows = example_rows();
        let norm = Normalizer::fit(&rows).unwrap();
        let z: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| norm.transform_row(r).unwrap())
            .collect();
        for j in 0..3 {
            let column: Vec<f64> = z.iter().map(|r| r[j]).collect();
            let s = Summary::from_slice(&column);
            assert!(s.mean.abs() < 1e-12, "column {j} mean {}", s.mean);
            assert!(
                (s.variance - 1.0).abs() < 1e-12,
                "column {j} var {}",
                s.variance
            );
        }
    }

    #[test]
    fn constant_feature_is_centred_but_not_scaled() {
        let rows = vec![vec![7.0, 1.0], vec![7.0, 2.0], vec![7.0, 3.0]];
        let norm = Normalizer::fit(&rows).unwrap();
        let z: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| norm.transform_row(r).unwrap())
            .collect();
        for row in &z {
            assert_eq!(row[0], 0.0);
        }
    }

    #[test]
    fn identity_normalizer_is_a_no_op() {
        // All-zero training rows fit zero means and unit scales.
        let norm = Normalizer::fit(&[vec![0.0; 3], vec![0.0; 3]]).unwrap();
        let row = vec![4.0, -2.0, 0.5];
        assert_eq!(norm.transform_row(&row).unwrap(), row);
    }

    #[test]
    fn fit_rejects_bad_shapes() {
        assert_eq!(Normalizer::fit(&[]), Err(StatsError::EmptyInput));
        assert_eq!(
            Normalizer::fit(&[vec![1.0, 2.0], vec![1.0]]),
            Err(StatsError::LengthMismatch { left: 2, right: 1 })
        );
    }

    #[test]
    fn transform_rejects_wrong_width() {
        let norm = Normalizer::fit(&example_rows()).unwrap();
        assert_eq!(
            norm.transform_row(&[1.0]),
            Err(StatsError::DimensionMismatch {
                expected: 3,
                actual: 1
            })
        );
    }

    proptest! {
        #[test]
        fn transformed_values_are_finite(rows in proptest::collection::vec(
            proptest::collection::vec(-1e6f64..1e6, 3), 2..15)
        ) {
            let norm = Normalizer::fit(&rows).unwrap();
            for row in &rows {
                let z = norm.transform_row(row).unwrap();
                prop_assert!(z.iter().all(|v| v.is_finite()));
            }
        }
    }
}
