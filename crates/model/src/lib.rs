//! Surrogate regression models with uncertainty estimates.
//!
//! The paper's active learner is built around the **dynamic tree** model of
//! Taddy, Gramacy and Polson (§3.2): a Bayesian regression-tree model updated
//! by particle learning, chosen because it
//!
//! * evolves incrementally as observations arrive (no full refit per
//!   iteration),
//! * provides a predictive *variance* at any point of the space (needed by
//!   the acquisition functions), and
//! * resists over-fitting to noisy observations.
//!
//! This crate implements that model from scratch ([`dynatree`]), together
//! with the models it is compared against or built from:
//!
//! * [`cart`] — a classical static regression tree (Breiman et al.), the
//!   "static model used within the dynamic tree framework",
//! * [`gp`] — Gaussian-process regression with an RBF kernel, the
//!   "collective wisdom" alternative whose `O(n³)` inference cost motivates
//!   dynamic trees in the first place,
//! * [`knn`] / [`baseline`] — simple sanity-check regressors.
//!
//! All models implement the [`SurrogateModel`] trait; models that can also
//! score candidate usefulness for active learning (§3.3) implement
//! [`ActiveSurrogate`], providing MacKay's ALM and Cohn's ALC criteria.
//! The [`SurrogateSpec`] enum describes any family plus its
//! hyper-parameters as plain data and materializes boxed
//! `dyn ActiveSurrogate` models from it, which is how the experiment
//! harness stays model-agnostic.
//!
//! # Examples
//!
//! ```
//! use alic_model::dynatree::{DynaTree, DynaTreeConfig};
//! use alic_model::{row_views, ActiveSurrogate, SurrogateModel};
//!
//! // Fit y = x with a little curvature on a handful of points.
//! let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] + 0.1 * x[0] * x[0]).collect();
//! let mut model = DynaTree::new(DynaTreeConfig { particles: 50, seed: 1, ..Default::default() });
//! model.fit(&row_views(&xs), &ys)?;
//! model.update(&[0.5], 1.02)?;
//! let pred = model.predict(&[0.25])?;
//! assert!(pred.variance >= 0.0);
//! # Ok::<(), alic_model::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod cart;
pub mod dynatree;
pub mod gp;
pub mod knn;
pub mod leaf;
pub mod snapshot;
pub mod spec;
pub mod traits;

pub use spec::SurrogateSpec;
pub use traits::{ActiveSurrogate, SurrogateModel};

/// Errors produced by the model crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// `fit` was called with no training data.
    EmptyTrainingSet,
    /// The number of inputs and targets differ.
    LengthMismatch {
        /// Number of feature vectors.
        inputs: usize,
        /// Number of target values.
        targets: usize,
    },
    /// A feature vector had the wrong dimensionality.
    DimensionMismatch {
        /// Dimensionality the model was trained with.
        expected: usize,
        /// Dimensionality of the offending vector.
        actual: usize,
    },
    /// `predict` or `update` was called before `fit`.
    NotFitted,
    /// A numerical operation failed (e.g. a kernel matrix was singular).
    Numerical(String),
    /// A non-finite feature or target value was supplied.
    NonFiniteInput,
    /// Serializing or restoring a model snapshot failed (see [`snapshot`]).
    Snapshot(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::EmptyTrainingSet => write!(f, "training set is empty"),
            ModelError::LengthMismatch { inputs, targets } => {
                write!(f, "{inputs} inputs but {targets} targets")
            }
            ModelError::DimensionMismatch { expected, actual } => {
                write!(f, "expected {expected}-dimensional input, got {actual}")
            }
            ModelError::NotFitted => write!(f, "model has not been fitted yet"),
            ModelError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            ModelError::NonFiniteInput => write!(f, "input contained a non-finite value"),
            ModelError::Snapshot(msg) => write!(f, "snapshot failure: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// The model crate reads JSON only to restore snapshots, so every codec
/// error is snapshot damage.
impl From<alic_data::DataError> for ModelError {
    fn from(e: alic_data::DataError) -> Self {
        ModelError::Snapshot(match e {
            alic_data::DataError::Parse(message) => message,
            other => other.to_string(),
        })
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ModelError>;

/// Borrows a nested training set as the row views [`SurrogateModel::fit`]
/// consumes.
///
/// The training APIs take `&[&[f64]]` so that callers holding a flat
/// `FeatureMatrix` can gather views without copying; this adapter exists for
/// call sites (mostly tests and examples) that still build `Vec<Vec<f64>>`.
pub fn row_views(rows: &[Vec<f64>]) -> Vec<&[f64]> {
    rows.iter().map(Vec::as_slice).collect()
}

/// Validates one `(x, y)` observation before it may touch model state.
///
/// Every [`SurrogateModel::update`] implementation calls this first, making
/// the non-finite-input policy uniform across the five families: a NaN or
/// infinite feature or target is rejected with
/// [`ModelError::NonFiniteInput`] *before any state mutation*, so a rejected
/// observation can never change a model's subsequent predictions. The
/// learner relies on this to quarantine bad observations without poisoning
/// the surrogate.
pub fn validate_observation(x: &[f64], y: f64) -> Result<()> {
    if !y.is_finite() || x.iter().any(|v| !v.is_finite()) {
        return Err(ModelError::NonFiniteInput);
    }
    Ok(())
}

pub(crate) fn validate_training_set(xs: &[&[f64]], ys: &[f64]) -> Result<usize> {
    if xs.is_empty() || ys.is_empty() {
        return Err(ModelError::EmptyTrainingSet);
    }
    if xs.len() != ys.len() {
        return Err(ModelError::LengthMismatch {
            inputs: xs.len(),
            targets: ys.len(),
        });
    }
    let dim = xs[0].len();
    if dim == 0 {
        return Err(ModelError::EmptyTrainingSet);
    }
    for x in xs {
        if x.len() != dim {
            return Err(ModelError::DimensionMismatch {
                expected: dim,
                actual: x.len(),
            });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::NonFiniteInput);
        }
    }
    if ys.iter().any(|v| !v.is_finite()) {
        return Err(ModelError::NonFiniteInput);
    }
    Ok(dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_consistent_data() {
        let xs = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let ys = vec![0.5, 0.7];
        assert_eq!(validate_training_set(&row_views(&xs), &ys), Ok(2));
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        assert_eq!(
            validate_training_set(&[], &[]),
            Err(ModelError::EmptyTrainingSet)
        );
        assert_eq!(
            validate_training_set(&[&[1.0]], &[1.0, 2.0]),
            Err(ModelError::LengthMismatch {
                inputs: 1,
                targets: 2
            })
        );
        assert_eq!(
            validate_training_set(&[&[1.0], &[1.0, 2.0]], &[1.0, 2.0]),
            Err(ModelError::DimensionMismatch {
                expected: 1,
                actual: 2
            })
        );
        assert_eq!(
            validate_training_set(&[&[f64::NAN]], &[1.0]),
            Err(ModelError::NonFiniteInput)
        );
    }

    #[test]
    fn row_views_borrow_without_copying() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let views = row_views(&rows);
        assert_eq!(views.len(), 2);
        assert!(std::ptr::eq(views[0].as_ptr(), rows[0].as_ptr()));
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = ModelError::DimensionMismatch {
            expected: 3,
            actual: 1,
        };
        assert!(e.to_string().contains("3"));
        assert!(ModelError::NotFitted
            .to_string()
            .contains("not been fitted"));
    }
}
