//! Active learning with sequential analysis for iterative compilation.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Algorithm 1 and §3): an active-learning loop that builds a
//! runtime-prediction model for a compiled kernel while spending as little
//! profiling time as possible, by choosing
//!
//! * *which* configuration to profile next (classical active learning,
//!   using the dynamic tree's uncertainty estimates through MacKay's ALM or
//!   Cohn's ALC criterion — [`acquisition`]), and
//! * *how many times* to profile it (**sequential analysis**: one
//!   observation at a time, keeping previously visited configurations in the
//!   candidate set so that noisy ones can be revisited — [`plan`]).
//!
//! The crate also implements the two baselines the paper compares against —
//! fixed sampling plans of 35 and of 1 observation per example — and an
//! [`experiment`] harness that runs all approaches on a simulated kernel and
//! reports the Table 1 statistics (lowest common RMSE, cost to reach it,
//! speed-up).
//!
//! # Examples
//!
//! ```
//! use alic_core::prelude::*;
//! use alic_data::dataset::{Dataset, DatasetConfig};
//! use alic_model::dynatree::{DynaTree, DynaTreeConfig};
//! use alic_sim::profiler::SimulatedProfiler;
//! use alic_sim::spapt::{spapt_kernel, SpaptKernel};
//!
//! // Profile a small dataset of the simulated `mvt` kernel.
//! let mut profiler = SimulatedProfiler::new(spapt_kernel(SpaptKernel::Mvt), 1);
//! let dataset = Dataset::generate(
//!     &mut profiler,
//!     &DatasetConfig { configurations: 150, observations: 5, seed: 1 },
//! );
//! let split = dataset.split(100, 2);
//!
//! // Run the paper's variable-observation active learner for a few steps.
//! let config = LearnerConfig {
//!     initial_examples: 4,
//!     initial_observations: 5,
//!     candidates_per_iteration: 20,
//!     max_iterations: 30,
//!     evaluate_every: 10,
//!     plan: SamplingPlan::sequential(5),
//!     ..Default::default()
//! };
//! let mut model = DynaTree::new(DynaTreeConfig { particles: 30, seed: 3, ..Default::default() });
//! let mut learner = ActiveLearner::new(config, &mut profiler);
//! let run = learner.run(&mut model, &dataset, &split)?;
//! assert!(run.curve.final_rmse().unwrap().is_finite());
//! # Ok::<(), alic_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod acquisition;
pub mod cost;
pub mod criteria;
pub mod curve;
pub mod experiment;
pub mod fault;
pub mod learner;
pub mod plan;
pub mod runner;
pub mod store;
pub mod warmstore;

/// Convenient re-exports of the types needed to drive the learner.
pub mod prelude {
    pub use crate::acquisition::Acquisition;
    pub use crate::criteria::CompletionCriteria;
    pub use crate::learner::{ActiveLearner, LearnerConfig, LearnerRun};
    pub use crate::plan::SamplingPlan;
    pub use crate::CoreError;
    pub use alic_model::SurrogateSpec;
}

/// Errors produced by the active-learning crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// The underlying surrogate model failed.
    Model(alic_model::ModelError),
    /// The statistics substrate failed (e.g. RMSE over an empty test set).
    Stats(alic_stats::StatsError),
    /// The learner was configured inconsistently.
    InvalidConfig(String),
    /// The training pool or test set was too small for the configuration.
    InsufficientData {
        /// What was being drawn from the pool.
        needed: usize,
        /// How many items were available.
        available: usize,
    },
    /// Campaign orchestration failed: an incomplete ledger was merged, a
    /// ledger belongs to a differently configured campaign, a checkpointed
    /// record is corrupt, or a work unit failed every execution attempt.
    Campaign(String),
    /// The evaluator failed transiently (a flaky device, an injected chaos
    /// fault); the failed work is safe to retry.
    Evaluator(String),
    /// An I/O operation on the campaign ledger failed.
    Io(std::io::Error),
    /// JSON (de)serialization through `alic-data` failed.
    Data(alic_data::DataError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "surrogate model error: {e}"),
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid learner configuration: {msg}"),
            CoreError::InsufficientData { needed, available } => {
                write!(
                    f,
                    "needed {needed} items but only {available} are available"
                )
            }
            CoreError::Campaign(msg) => write!(f, "campaign error: {msg}"),
            CoreError::Evaluator(msg) => write!(f, "transient evaluator failure: {msg}"),
            CoreError::Io(e) => write!(f, "campaign ledger I/O failed: {e}"),
            CoreError::Data(e) => write!(f, "campaign serialization failed: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            CoreError::Stats(e) => Some(e),
            CoreError::Io(e) => Some(e),
            CoreError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<alic_model::ModelError> for CoreError {
    fn from(e: alic_model::ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<alic_stats::StatsError> for CoreError {
    fn from(e: alic_stats::StatsError) -> Self {
        CoreError::Stats(e)
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e)
    }
}

impl From<alic_data::DataError> for CoreError {
    fn from(e: alic_data::DataError) -> Self {
        CoreError::Data(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
