//! Statistics, numerics and sampling substrate for the `alic` workspace.
//!
//! This crate provides the numerical building blocks used throughout the
//! reproduction of *"Minimizing the Cost of Iterative Compilation with Active
//! Learning"* (Ogilvie et al., CGO 2017):
//!
//! * [`summary`] — batch and online (Welford) summary statistics,
//! * [`ci`] — Student-t confidence intervals as used by the paper's
//!   post-hoc sampling-plan validation (§4.3),
//! * [`error`] — model-quality metrics (RMSE, mean absolute deviation) and
//!   the geometric mean used to aggregate speed-ups (Table 1),
//! * [`normalize`] — feature scaling and centring (§4.5),
//! * [`features`] — flat row-major feature storage with zero-copy row views,
//!   the backing store of the batch scoring pipeline,
//! * [`cholesky`] — a packed Cholesky factor with incremental row append,
//!   used by the Gaussian-process comparison model,
//! * [`matrix`] — the squared Euclidean distance shared by the
//!   Gaussian-process and k-NN models,
//! * [`sampling`] — random subset selection used for candidate sets,
//! * [`rng`] — deterministic, seedable random-number-generator helpers,
//! * [`fault`] — the deterministic fault-injection plane behind the
//!   workspace's chaos testing (`ALIC_CHAOS`),
//! * [`policy`] — the unified retry/timeout/backoff policy with
//!   deterministic, fault-plan-seeded jitter.
//!
//! # Examples
//!
//! ```
//! use alic_stats::summary::Summary;
//! use alic_stats::ci::confidence_interval;
//!
//! let runtimes = [2.10, 2.14, 2.09, 2.12, 2.11];
//! let summary = Summary::from_slice(&runtimes);
//! let ci = confidence_interval(&runtimes, 0.95).unwrap();
//! assert!(ci.lower <= summary.mean && summary.mean <= ci.upper);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cholesky;
pub mod ci;
pub mod error;
pub mod fault;
pub mod features;
pub mod matrix;
pub mod normalize;
pub mod policy;
pub mod rng;
pub mod sampling;
pub mod special;
pub mod summary;

/// Errors produced by the statistics substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StatsError {
    /// The input slice was empty but a non-empty slice was required.
    EmptyInput,
    /// The two input slices had different lengths.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// The requested confidence level was outside the open interval (0, 1).
    InvalidConfidenceLevel,
    /// A matrix operation received incompatible dimensions.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
    /// Cholesky decomposition failed because the matrix is not positive
    /// definite.
    NotPositiveDefinite,
    /// An input value was not finite (NaN or infinite).
    NonFiniteInput,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "input slice was empty"),
            StatsError::LengthMismatch { left, right } => {
                write!(f, "input slices have different lengths ({left} vs {right})")
            }
            StatsError::InvalidConfidenceLevel => {
                write!(f, "confidence level must lie strictly between 0 and 1")
            }
            StatsError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch (expected {expected}, got {actual})")
            }
            StatsError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            StatsError::NonFiniteInput => write!(f, "input contained a non-finite value"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StatsError>;
