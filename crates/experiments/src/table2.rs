//! Table 2 — spread of variance and confidence-interval width per kernel.
//!
//! For every benchmark the paper samples configurations, records 35 runtimes
//! each, and reports the minimum / mean / maximum of (a) the runtime
//! variance, (b) the 95% CI half-width relative to the mean for a 35-sample
//! plan and (c) the same ratio for a 5-sample plan. The table demonstrates
//! both how different the kernels are from each other and how wildly the
//! noise varies *within* a single kernel — the core motivation for an
//! adaptive sampling plan.

use serde::{Deserialize, Serialize};

use alic_core::runner;
use alic_sim::profiler::{Profiler, SimulatedProfiler};
use alic_sim::spapt::{spapt_kernel, SpaptKernel};
use alic_stats::ci::confidence_interval;
use alic_stats::rng::derive_seed;
use alic_stats::summary::Summary;

use crate::scale::Scale;

/// Minimum / mean / maximum triple, as printed in the paper's table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spread {
    /// Smallest observed value.
    pub min: f64,
    /// Mean observed value.
    pub mean: f64,
    /// Largest observed value.
    pub max: f64,
}

impl Spread {
    fn from_values(values: &[f64]) -> Self {
        let summary = Summary::from_slice(values);
        Spread {
            min: summary.min,
            mean: summary.mean,
            max: summary.max,
        }
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Spread of the per-configuration runtime variance.
    pub variance: Spread,
    /// Spread of the 95% CI half-width over mean for the full-sample plan.
    pub ci_ratio_full: Spread,
    /// Spread of the 95% CI half-width over mean for a 5-sample plan.
    pub ci_ratio_5: Spread,
    /// Observations per configuration used for the full-sample columns.
    pub observations: usize,
}

/// Runs the Table 2 study for one kernel.
pub fn run_kernel(
    kernel: SpaptKernel,
    configurations: usize,
    observations: usize,
    seed: u64,
) -> Table2Row {
    let spec = spapt_kernel(kernel);
    let mut profiler = SimulatedProfiler::new(spec, seed);
    let mut rng = alic_stats::rng::seeded_stream(seed, 0x7AB2);
    let configs = profiler.space().sample_distinct(&mut rng, configurations);

    let mut variances = Vec::with_capacity(configs.len());
    let mut ratio_full = Vec::with_capacity(configs.len());
    let mut ratio_5 = Vec::with_capacity(configs.len());
    for config in &configs {
        let samples: Vec<f64> = (0..observations)
            .map(|_| profiler.measure(config).runtime)
            .collect();
        let summary = Summary::from_slice(&samples);
        variances.push(summary.variance);
        let full_ci = confidence_interval(&samples, 0.95).expect("non-empty sample");
        ratio_full.push(full_ci.ratio_to_mean());
        let five = &samples[..samples.len().min(5)];
        let five_ci = confidence_interval(five, 0.95).expect("non-empty sample");
        ratio_5.push(five_ci.ratio_to_mean());
    }

    Table2Row {
        benchmark: kernel.name().to_string(),
        variance: Spread::from_values(&variances),
        ci_ratio_full: Spread::from_values(&ratio_full),
        ci_ratio_5: Spread::from_values(&ratio_5),
        observations,
    }
}

/// The full Table 2 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Result {
    /// One row per benchmark, in the paper's order.
    pub rows: Vec<Table2Row>,
}

/// Runs Table 2 for all kernels at the given scale.
///
/// Table 2 has no learner dimension (kernels are profiled directly), so its
/// unit is simply one kernel row; the rows run on the campaign runner's
/// parallel map ([`runner::map_units`]) with per-kernel derived
/// seeds, like every other experiment stage.
pub fn run(scale: Scale) -> Table2Result {
    let configurations = scale.table2_configurations();
    let observations = scale.observations();
    let kernels = SpaptKernel::all();
    let rows: Vec<Table2Row> = runner::map_units(&kernels, |&kernel| {
        run_kernel(
            kernel,
            configurations,
            observations,
            derive_seed(7, kernel as u64),
        )
    });
    Table2Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spreads_are_ordered() {
        let row = run_kernel(SpaptKernel::Mm, 40, 12, 1);
        assert!(row.variance.min <= row.variance.mean);
        assert!(row.variance.mean <= row.variance.max);
        assert!(row.ci_ratio_5.mean >= row.ci_ratio_full.mean * 0.5);
        assert_eq!(row.observations, 12);
    }

    #[test]
    fn fewer_samples_give_wider_relative_intervals() {
        let row = run_kernel(SpaptKernel::Gemver, 40, 20, 2);
        assert!(
            row.ci_ratio_5.mean > row.ci_ratio_full.mean,
            "5-sample CI ({}) should be wider than the full-sample CI ({})",
            row.ci_ratio_5.mean,
            row.ci_ratio_full.mean
        );
    }

    #[test]
    fn correlation_is_the_noisiest_kernel() {
        let correlation = run_kernel(SpaptKernel::Correlation, 40, 12, 3);
        let lu = run_kernel(SpaptKernel::Lu, 40, 12, 3);
        assert!(correlation.variance.mean > 100.0 * lu.variance.mean);
    }

    #[test]
    fn variance_spans_orders_of_magnitude_within_a_kernel() {
        let row = run_kernel(SpaptKernel::Adi, 80, 15, 4);
        assert!(
            row.variance.max / row.variance.min.max(1e-15) > 100.0,
            "within-kernel variance spread should be wide: {:?}",
            row.variance
        );
    }
}
