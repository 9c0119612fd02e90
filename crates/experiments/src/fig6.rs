//! Figure 6 — RMSE over evaluation time for three sampling plans.
//!
//! Figure 6 of the paper plots, for six representative benchmarks (`adi`,
//! `atax`, `correlation`, `gemver`, `jacobi`, `mvt`), the Root Mean Squared
//! Error of the learned model against cumulative profiling cost for the
//! "all observations", "one observation" and "variable observations"
//! approaches, averaged over ten runs and restricted to the cost range in
//! which all three are active. This module extracts exactly those series
//! from the plan-comparison outcomes.

use serde::{Deserialize, Serialize};

use alic_core::experiment::ComparisonOutcome;
use alic_sim::spapt::SpaptKernel;

use crate::table1;

/// The six benchmarks shown in Figure 6.
pub const FIG6_KERNELS: [SpaptKernel; 6] = [
    SpaptKernel::Adi,
    SpaptKernel::Atax,
    SpaptKernel::Correlation,
    SpaptKernel::Gemver,
    SpaptKernel::Jacobi,
    SpaptKernel::Mvt,
];

/// One averaged RMSE-versus-cost series for one sampling plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Plan label (matches the paper's legend).
    pub plan: String,
    /// Cost grid, in seconds.
    pub costs: Vec<f64>,
    /// Mean RMSE at each grid cost.
    pub rmse: Vec<f64>,
}

/// All series for one benchmark (one sub-figure of Figure 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCurves {
    /// Benchmark name.
    pub benchmark: String,
    /// One series per sampling plan.
    pub series: Vec<Series>,
}

/// The full Figure 6 dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Result {
    /// One set of curves per benchmark.
    pub kernels: Vec<KernelCurves>,
}

/// Converts plan-comparison outcomes into Figure 6 series.
pub fn curves_from_outcomes(outcomes: &[ComparisonOutcome]) -> Fig6Result {
    let kernels = outcomes
        .iter()
        .map(|outcome| KernelCurves {
            benchmark: outcome.kernel.clone(),
            series: outcome
                .plans
                .iter()
                .map(|p| Series {
                    plan: p.plan.label(),
                    costs: p.averaged.costs.clone(),
                    rmse: p.averaged.mean_rmse.clone(),
                })
                .collect(),
        })
        .collect();
    Fig6Result { kernels }
}

/// Runs the comparison for the six Figure 6 benchmarks with an explicit
/// configuration (any scale, any surrogate family).
pub fn run_with(config: &alic_core::experiment::ComparisonConfig) -> Fig6Result {
    let (_, outcomes) = table1::run_for_kernels_with(&FIG6_KERNELS, config);
    curves_from_outcomes(&outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn produces_three_series_per_kernel() {
        let (_, outcomes) =
            table1::run_for_kernels_with(&[SpaptKernel::Mvt], &Scale::Quick.comparison_config());
        let fig = curves_from_outcomes(&outcomes);
        assert_eq!(fig.kernels.len(), 1);
        let curves = &fig.kernels[0];
        assert_eq!(curves.benchmark, "mvt");
        assert_eq!(curves.series.len(), 3);
        for series in &curves.series {
            assert_eq!(series.costs.len(), series.rmse.len());
            assert!(!series.costs.is_empty());
            assert!(series.rmse.iter().all(|r| r.is_finite()));
        }
    }

    #[test]
    fn series_share_a_common_cost_grid() {
        let (_, outcomes) = table1::run_for_kernels_with(
            &[SpaptKernel::Hessian],
            &Scale::Quick.comparison_config(),
        );
        let fig = curves_from_outcomes(&outcomes);
        let curves = &fig.kernels[0];
        let reference = &curves.series[0].costs;
        for series in &curves.series[1..] {
            assert_eq!(&series.costs, reference);
        }
    }
}
