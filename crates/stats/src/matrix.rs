//! Vector distance helper shared by the Gaussian-process and k-NN models.

use crate::{Result, StatsError};

/// Squared Euclidean distance between two equally long vectors.
///
/// # Errors
///
/// Returns [`StatsError::LengthMismatch`] when the lengths differ.
pub fn squared_distance(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(StatsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_distance() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 25.0);
        assert!(squared_distance(&[1.0], &[1.0, 2.0]).is_err());
    }
}
