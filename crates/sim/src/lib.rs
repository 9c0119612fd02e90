//! Iterative-compilation simulator.
//!
//! The paper evaluates its active-learning technique on 11 kernels of the
//! SPAPT autotuning suite, compiled with gcc and timed on an Intel i7-4770K.
//! That hardware/software stack is not available here, so this crate builds
//! the closest synthetic equivalent: a **deterministic simulator** of the
//! iterative-compilation measurement process.
//!
//! For every kernel the simulator defines
//!
//! * a tunable **parameter space** (loop unroll factors, cache-tile sizes and
//!   register-tile factors per loop — [`space`]),
//! * a smooth ground-truth **response surface** mapping a configuration to a
//!   mean runtime ([`surface`]), shaped like the responses the paper shows
//!   (plateau-then-climb unroll response of Figure 2, U-shaped tiling
//!   response),
//! * a **heteroskedastic noise model** ([`noise`]) with Gaussian measurement
//!   jitter whose magnitude varies across the space, rare interference
//!   spikes, and per-run memory-layout perturbations, calibrated per kernel
//!   to the variance spreads of Table 2,
//! * a **compile-cost model** ([`cost`]) charging more for heavily unrolled
//!   code, and
//! * a [`profiler::Profiler`] implementation
//!   ([`profiler::SimulatedProfiler`]) that exposes exactly the interface an
//!   iterative-compilation framework sees on real hardware: *compile a
//!   configuration, run it once, get one noisy runtime*. It keeps the last
//!   configuration it measured with that configuration's true mean and
//!   noise level, so a run of repeated measurements (35 per configuration
//!   in the paper's protocol) computes them once and then only draws
//!   noise. Measurements are bit-identical to recomputing every time.
//!
//! All algorithms in the workspace interact with the simulator only through
//! the [`profiler::Profiler`] trait, so swapping in a real compiler-and-run
//! harness requires implementing that single trait.
//!
//! # Examples
//!
//! ```
//! use alic_sim::spapt::{spapt_kernel, SpaptKernel};
//! use alic_sim::profiler::{Profiler, SimulatedProfiler};
//!
//! let spec = spapt_kernel(SpaptKernel::Mm);
//! let mut profiler = SimulatedProfiler::new(spec, 42);
//! let config = profiler.space().default_configuration();
//! let m = profiler.measure(&config);
//! assert!(m.runtime > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod kernel;
pub mod noise;
pub mod profiler;
pub mod space;
pub mod spapt;
pub mod surface;

pub use kernel::KernelSpec;
pub use space::{Configuration, ParameterSpace};

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration had the wrong number of parameters for the space.
    ArityMismatch {
        /// Number of parameters the space defines.
        expected: usize,
        /// Number of values the configuration carried.
        actual: usize,
    },
    /// A configuration value was outside its parameter's allowed range.
    ValueOutOfRange {
        /// Index of the offending parameter.
        param: usize,
        /// The offending value.
        value: u32,
    },
    /// A kernel specification had no tunable parameters.
    EmptySpace,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ArityMismatch { expected, actual } => write!(
                f,
                "configuration has {actual} values but the space defines {expected} parameters"
            ),
            SimError::ValueOutOfRange { param, value } => {
                write!(f, "value {value} is out of range for parameter {param}")
            }
            SimError::EmptySpace => write!(f, "parameter space has no tunable parameters"),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, SimError>;
