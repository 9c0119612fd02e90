//! Dataset generation, train/test splitting and the workspace's one JSON
//! codec ([`io`]).
//!
//! The paper's experimental protocol (§4.5) profiles each benchmark with
//! 10,000 distinct, randomly selected configurations, records each one's
//! mean runtime over 35 executions together with its compilation time, marks
//! 7,500 of them as the training pool and evaluates models on the remaining
//! 2,500. This crate implements that protocol on top of any
//! [`Profiler`](alic_sim::profiler::Profiler) and provides the normalized
//! feature representation (§4.5: features are scaled and centred).
//!
//! # Examples
//!
//! ```
//! use alic_data::dataset::{Dataset, DatasetConfig};
//! use alic_sim::profiler::SimulatedProfiler;
//! use alic_sim::spapt::{spapt_kernel, SpaptKernel};
//!
//! let mut profiler = SimulatedProfiler::new(spapt_kernel(SpaptKernel::Mvt), 1);
//! let dataset = Dataset::generate(
//!     &mut profiler,
//!     &DatasetConfig { configurations: 200, observations: 5, seed: 7 },
//! );
//! let split = dataset.split(150, 11);
//! assert_eq!(split.train_indices().len(), 150);
//! assert_eq!(split.test_indices().len(), 50);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dataset;
pub mod io;
pub mod split;

pub use dataset::{DataPoint, Dataset, DatasetConfig};
pub use io::JsonValue;
pub use split::TrainTestSplit;

/// Errors produced by the data crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum DataError {
    /// A JSON document could not be parsed, or a field of it did not hold
    /// what its format requires.
    Parse(String),
    /// A JSON number to be written is NaN or infinite (JSON has no
    /// representation for them).
    NonFinite {
        /// What held the number.
        field: &'static str,
    },
    /// An integer to be written exceeds 2^53, so a JSON number (an `f64`)
    /// could not hold it exactly.
    InexactInteger(u64),
    /// A split request was inconsistent with the dataset size.
    InvalidSplit {
        /// Requested training-set size.
        requested: usize,
        /// Number of points in the dataset.
        available: usize,
    },
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::Parse(e) => write!(f, "JSON parse failed: {e}"),
            DataError::NonFinite { field } => {
                write!(
                    f,
                    "JSON serialization failed: non-finite value in '{field}'"
                )
            }
            DataError::InexactInteger(n) => write!(
                f,
                "integer {n} exceeds 2^53 and cannot be stored exactly as a JSON number"
            ),
            DataError::InvalidSplit {
                requested,
                available,
            } => write!(
                f,
                "cannot reserve {requested} training points from a dataset of {available}"
            ),
        }
    }
}

impl std::error::Error for DataError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, DataError>;
