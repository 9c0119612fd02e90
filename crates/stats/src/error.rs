//! Model-quality metrics.
//!
//! The paper quantifies heuristic quality with the Root Mean Squared Error of
//! predicted runtimes over a held-out test set (Equation 1) and aggregates
//! per-benchmark speed-ups with a geometric mean (Table 1 / Figure 5).

use crate::{Result, StatsError};

/// Root Mean Squared Error between predictions and observations
/// (Equation 1 of the paper).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when the slices are empty and
/// [`StatsError::LengthMismatch`] when they differ in length.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), alic_stats::StatsError> {
/// let rmse = alic_stats::error::rmse(&[1.0, 2.0, 3.0], &[1.0, 2.0, 5.0])?;
/// assert!((rmse - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn rmse(predicted: &[f64], observed: &[f64]) -> Result<f64> {
    validate_pair(predicted, observed)?;
    let sum_sq: f64 = predicted
        .iter()
        .zip(observed)
        .map(|(p, o)| (p - o) * (p - o))
        .sum();
    Ok((sum_sq / predicted.len() as f64).sqrt())
}

/// Mean absolute deviation of a sample from its own mean.
///
/// This is the statistic used in the Figure 1 motivation experiment, where
/// the "error of a sample plan" for a configuration is the expected absolute
/// deviation of the sub-sampled mean from the full 35-observation mean.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when `values` is empty.
pub fn mean_absolute_deviation(values: &[f64], reference: f64) -> Result<f64> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    Ok(values.iter().map(|v| (v - reference).abs()).sum::<f64>() / values.len() as f64)
}

/// Geometric mean of strictly positive values (Table 1's aggregate speed-up).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when `values` is empty and
/// [`StatsError::NonFiniteInput`] when any value is non-positive or
/// non-finite (the geometric mean is undefined there).
pub fn geometric_mean(values: &[f64]) -> Result<f64> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return Err(StatsError::NonFiniteInput);
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Ok((log_sum / values.len() as f64).exp())
}

fn validate_pair(left: &[f64], right: &[f64]) -> Result<()> {
    if left.is_empty() || right.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if left.len() != right.len() {
        return Err(StatsError::LengthMismatch {
            left: left.len(),
            right: right.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_of_perfect_prediction_is_zero() {
        let y = [1.5, 2.5, 3.5];
        assert_eq!(rmse(&y, &y).unwrap(), 0.0);
    }

    #[test]
    fn rmse_matches_hand_computation() {
        let pred = [2.0, 3.0, 4.0];
        let obs = [1.0, 3.0, 6.0];
        // Squared errors: 1, 0, 4 -> mean 5/3.
        assert!((rmse(&pred, &obs).unwrap() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn errors_reject_mismatched_lengths() {
        assert_eq!(
            rmse(&[1.0], &[1.0, 2.0]),
            Err(StatsError::LengthMismatch { left: 1, right: 2 })
        );
        assert_eq!(rmse(&[], &[]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn geometric_mean_of_speedups() {
        // Example from the paper's shape: a mix of small and large speed-ups.
        let speedups = [
            0.29, 13.93, 3.59, 7.07, 23.52, 26.0, 3.69, 3.55, 3.62, 1.11, 1.18,
        ];
        let gm = geometric_mean(&speedups).unwrap();
        assert!(
            gm > 3.0 && gm < 5.0,
            "geometric mean {gm} out of expected band"
        );
    }

    #[test]
    fn geometric_mean_rejects_nonpositive() {
        assert_eq!(geometric_mean(&[1.0, 0.0]), Err(StatsError::NonFiniteInput));
        assert_eq!(geometric_mean(&[]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn geometric_mean_of_constant_is_constant() {
        assert!((geometric_mean(&[4.0; 7]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mean_absolute_deviation_of_symmetric_sample() {
        let values = [9.0, 11.0];
        assert_eq!(mean_absolute_deviation(&values, 10.0).unwrap(), 1.0);
    }
}
