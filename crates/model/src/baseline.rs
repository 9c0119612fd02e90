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
    ///
    /// Only the two shapes [`SurrogateModel::snapshot`] can write restore:
    /// an unfitted model (count 0, the empty accumulator bit for bit, no
    /// dimension) or a fitted one (count > 0, finite `min <= mean <= max`,
    /// finite `m2 >= 0`, dimension >= 1). Anything else is
    /// [`ModelError::Snapshot`].
    pub(crate) fn from_snapshot(doc: &JsonValue) -> Result<Self> {
        let dimension = io::nullable(doc, "dimension", io::field_usize)?;
        let count = io::field_usize(doc, "count")?;
        let mean = io::field_hex_f64(doc, "mean")?;
        let m2 = io::field_hex_f64(doc, "m2")?;
        let min = io::field_hex_f64(doc, "min")?;
        let max = io::field_hex_f64(doc, "max")?;
        let empty = OnlineStats::new();
        let possible = if count == 0 {
            dimension.is_none()
                && [mean, m2, min, max].map(f64::to_bits)
                    == [empty.mean(), empty.m2(), empty.min(), empty.max()].map(f64::to_bits)
        } else {
            dimension.is_some_and(|d| d >= 1)
                && m2.is_finite()
                && m2 >= 0.0
                && min.is_finite()
                && max.is_finite()
                && min <= mean
                && mean <= max
        };
        if !possible {
            return Err(snapshot::err(format!(
                "mean: impossible state (count {count}, mean {mean}, m2 {m2}, \
                 min {min}, max {max}, dimension {dimension:?})"
            )));
        }
        Ok(ConstantMean {
            stats: OnlineStats::from_parts(count, mean, m2, min, max),
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
    use crate::snapshot::with_field;

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
    fn both_possible_snapshot_shapes_restore() {
        let unfitted = ConstantMean::new().snapshot().unwrap();
        let restored = ConstantMean::from_snapshot(&unfitted).unwrap();
        assert_eq!(restored.snapshot().unwrap(), unfitted);
        let doc = fitted_snapshot();
        let restored = ConstantMean::from_snapshot(&doc).unwrap();
        assert_eq!(restored.snapshot().unwrap(), doc);
    }

    fn fitted_snapshot() -> JsonValue {
        let xs = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![2.0, 2.0]];
        let mut model = ConstantMean::new();
        model.fit(&row_views(&xs), &[0.5, -1.0, 3.0]).unwrap();
        model.snapshot().unwrap()
    }

    fn assert_refused(damaged: &JsonValue) {
        match ConstantMean::from_snapshot(damaged) {
            Err(ModelError::Snapshot(msg)) => assert!(msg.contains("impossible"), "{msg}"),
            Err(other) => panic!("expected a snapshot error, got {other}"),
            Ok(_) => panic!("impossible snapshot restored: {damaged:?}"),
        }
    }

    #[test]
    fn a_nan_mean_is_refused() {
        assert_refused(&with_field(
            &fitted_snapshot(),
            "mean",
            io::hex_f64(f64::NAN),
        ));
    }

    #[test]
    fn a_minimum_above_the_maximum_is_refused() {
        assert_refused(&with_field(&fitted_snapshot(), "min", io::hex_f64(4.0)));
    }

    #[test]
    fn observations_without_a_dimension_are_refused() {
        let doc = fitted_snapshot();
        assert_refused(&with_field(&doc, "dimension", JsonValue::Null));
        assert_refused(&with_field(&doc, "dimension", io::int(0).unwrap()));
        // Nor does an unfitted model carry a dimension or extremes.
        let unfitted = ConstantMean::new().snapshot().unwrap();
        assert_refused(&with_field(&unfitted, "dimension", io::int(2).unwrap()));
        assert_refused(&with_field(&unfitted, "min", io::hex_f64(0.0)));
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
