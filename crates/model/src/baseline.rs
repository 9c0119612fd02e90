//! Trivial baseline regressors.
//!
//! The constant-mean model predicts the global mean of the training targets
//! everywhere, with the global variance as its uncertainty. Any useful model
//! must beat it; the test suites and benchmarks use it as a floor.

use alic_data::io::{self, JsonValue};
use alic_stats::summary::OnlineStats;

use crate::snapshot::{self, Snapshot};
use crate::traits::{ActiveSurrogate, Prediction, SurrogateModel};
use crate::{validate_training_set, ModelError, Result};

/// Predicts the global training mean everywhere.
#[derive(Debug, Clone, Default)]
pub struct ConstantMean {
    stats: OnlineStats,
    dimension: Option<usize>,
}

impl ConstantMean {
    /// Creates an unfitted constant-mean model.
    pub fn new() -> Self {
        ConstantMean::default()
    }

    /// Rebuilds a model from a [`SurrogateModel::snapshot`] document.
    pub(crate) fn from_snapshot(doc: &JsonValue) -> Result<Self> {
        let dimension = io::nullable(doc, "dimension", io::field_usize)?;
        Ok(ConstantMean {
            stats: OnlineStats::from_parts(
                io::field_usize(doc, "count")?,
                io::field_hex_f64(doc, "mean")?,
                io::field_hex_f64(doc, "m2")?,
                io::field_hex_f64(doc, "min")?,
                io::field_hex_f64(doc, "max")?,
            ),
            dimension,
        })
    }
}

impl SurrogateModel for ConstantMean {
    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<()> {
        let dim = validate_training_set(xs, ys)?;
        self.dimension = Some(dim);
        self.stats = ys.iter().copied().collect();
        Ok(())
    }

    fn update(&mut self, x: &[f64], y: f64) -> Result<()> {
        match self.dimension {
            None => return Err(ModelError::NotFitted),
            Some(d) if d != x.len() => {
                return Err(ModelError::DimensionMismatch {
                    expected: d,
                    actual: x.len(),
                })
            }
            _ => {}
        }
        // The prediction ignores x, but a NaN feature still signals a broken
        // observation; the uniform policy rejects it like every other family.
        crate::validate_observation(x, y)?;
        self.stats.push(y);
        Ok(())
    }

    fn predict(&self, _x: &[f64]) -> Result<Prediction> {
        if self.dimension.is_none() {
            return Err(ModelError::NotFitted);
        }
        Ok(Prediction::new(self.stats.mean(), self.stats.variance()))
    }

    fn observation_count(&self) -> usize {
        self.stats.count()
    }

    fn dimension(&self) -> Option<usize> {
        self.dimension
    }

    fn snapshot(&self) -> Result<Snapshot> {
        let mut fields = snapshot::header("mean");
        fields.extend([
            ("count", io::int(self.stats.count() as u64)?),
            ("mean", io::hex_f64(self.stats.mean())),
            ("m2", io::hex_f64(self.stats.m2())),
            ("min", io::hex_f64(self.stats.min())),
            ("max", io::hex_f64(self.stats.max())),
            (
                "dimension",
                match self.dimension {
                    None => JsonValue::Null,
                    Some(d) => io::int(d as u64)?,
                },
            ),
        ]);
        Ok(io::object(fields))
    }
}

impl ActiveSurrogate for ConstantMean {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_views;

    #[test]
    fn predicts_the_training_mean_everywhere() {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let ys = vec![1.0, 2.0, 3.0, 4.0];
        let mut model = ConstantMean::new();
        model.fit(&row_views(&xs), &ys).unwrap();
        assert!((model.predict(&[0.0]).unwrap().mean - 2.5).abs() < 1e-12);
        assert!((model.predict(&[99.0]).unwrap().mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn update_moves_the_mean() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![1.0, 1.0];
        let mut model = ConstantMean::new();
        model.fit(&row_views(&xs), &ys).unwrap();
        model.update(&[2.0], 4.0).unwrap();
        assert!((model.predict(&[0.0]).unwrap().mean - 2.0).abs() < 1e-12);
        assert_eq!(model.observation_count(), 3);
    }

    #[test]
    fn errors_before_fit_and_on_bad_input() {
        let mut model = ConstantMean::new();
        assert_eq!(model.predict(&[0.0]).unwrap_err(), ModelError::NotFitted);
        let xs = vec![vec![0.0, 1.0]];
        let ys = vec![1.0];
        model.fit(&row_views(&xs), &ys).unwrap();
        assert!(matches!(
            model.update(&[1.0], 1.0),
            Err(ModelError::DimensionMismatch { .. })
        ));
        assert_eq!(
            model.update(&[1.0, 2.0], f64::NAN).unwrap_err(),
            ModelError::NonFiniteInput
        );
        assert_eq!(
            model.update(&[f64::NAN, 2.0], 1.0).unwrap_err(),
            ModelError::NonFiniteInput
        );
    }
}
