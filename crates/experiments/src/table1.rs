//! Table 1 — lowest common RMSE, cost to reach it, and speed-up per kernel.
//!
//! For every benchmark the paper reports the lowest average RMSE that both
//! the 35-observation baseline and the variable-observation technique reach,
//! the profiling seconds each needed to first reach it, and their ratio (the
//! speed-up), closing with the geometric mean over the 11 kernels.

use serde::{Deserialize, Serialize};

use alic_core::experiment::{ComparisonConfig, ComparisonOutcome};
use alic_core::plan::SamplingPlan;
use alic_core::runner::{self, CampaignSpec};
use alic_sim::spapt::{spapt_kernel, SpaptKernel};
use alic_stats::error::geometric_mean;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Size of the simulated search space.
    pub search_space: f64,
    /// Lowest RMSE both approaches reach (seconds).
    pub lowest_common_rmse: f64,
    /// Profiling cost of the fixed-observation baseline to reach it (s).
    pub baseline_cost: Option<f64>,
    /// Profiling cost of the variable-observation approach to reach it (s).
    pub variable_cost: Option<f64>,
    /// Speed-up (baseline cost / variable cost).
    pub speedup: Option<f64>,
}

/// The full Table 1 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Result {
    /// One row per benchmark, in the paper's order.
    pub rows: Vec<Table1Row>,
    /// Geometric mean of the per-benchmark speed-ups.
    pub geometric_mean_speedup: Option<f64>,
}

/// The two plans Table 1 compares head to head in `config`: the
/// fixed-observation baseline (the first plan that takes several
/// observations per visit without revisits, else `fixed35`) and the
/// variable-observation plan (the first that allows revisits, else the
/// default sequential plan).
pub(crate) fn head_to_head_plans(config: &ComparisonConfig) -> (SamplingPlan, SamplingPlan) {
    let baseline = config
        .plans
        .iter()
        .copied()
        .find(|p| !p.allows_revisits() && p.observations_per_visit() > 1)
        .unwrap_or(SamplingPlan::fixed35());
    let variable = config
        .plans
        .iter()
        .copied()
        .find(|p| p.allows_revisits())
        .unwrap_or_default();
    (baseline, variable)
}

/// Converts the outcomes of an already-run plan comparison into Table 1
/// rows.
pub fn rows_from_outcomes(
    outcomes: &[ComparisonOutcome],
    config: &ComparisonConfig,
) -> Table1Result {
    let (baseline_plan, variable_plan) = head_to_head_plans(config);

    let rows: Vec<Table1Row> = outcomes
        .iter()
        .map(|outcome| {
            let kernel = SpaptKernel::from_name(&outcome.kernel);
            let search_space = kernel
                .map(|k| spapt_kernel(k).space().cardinality_f64())
                .unwrap_or(f64::NAN);
            // Table 1 compares the baseline and the variable plan head to
            // head; the one-observation plan only appears in Figure 6.
            let pair = outcome.pairwise(baseline_plan, variable_plan);
            Table1Row {
                benchmark: outcome.kernel.clone(),
                search_space,
                lowest_common_rmse: pair
                    .map(|p| p.lowest_common_rmse)
                    .unwrap_or(outcome.lowest_common_rmse),
                baseline_cost: pair.and_then(|p| p.cost_first),
                variable_cost: pair.and_then(|p| p.cost_second),
                speedup: pair.and_then(|p| p.speedup()),
            }
        })
        .collect();

    let speedups: Vec<f64> = rows.iter().filter_map(|r| r.speedup).collect();
    let geometric_mean_speedup = geometric_mean(&speedups).ok();
    Table1Result {
        rows,
        geometric_mean_speedup,
    }
}

/// Runs the comparison for a set of kernels with an explicit configuration
/// (any scale, any [`SurrogateSpec`](alic_model::SurrogateSpec) family).
///
/// Executes as one flat campaign over the unit-based runner — every
/// `(kernel, plan, repetition)` cell is an independent work unit on the
/// shared pool, so a cheap kernel finishing early never leaves
/// workers idle while an expensive one is still comparing plans. The same
/// matrix can be sharded, checkpointed and resumed across processes through
/// the `campaign` binary.
pub fn run_for_kernels_with(
    kernels: &[SpaptKernel],
    config: &ComparisonConfig,
) -> (Table1Result, Vec<ComparisonOutcome>) {
    let spec = CampaignSpec::new(
        kernels.iter().map(|&k| spapt_kernel(k)).collect(),
        vec![config.model],
        config.clone(),
    );
    let report =
        runner::run_campaign(&spec).expect("comparison configuration is internally consistent");
    let outcomes: Vec<ComparisonOutcome> = report.entries.into_iter().map(|e| e.outcome).collect();
    (rows_from_outcomes(&outcomes, config), outcomes)
}

/// Runs Table 1 over all 11 benchmarks with an explicit configuration.
pub fn run_with(config: &ComparisonConfig) -> (Table1Result, Vec<ComparisonOutcome>) {
    run_for_kernels_with(&SpaptKernel::all(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn quick_scale_produces_rows_with_speedups() {
        let kernels = [SpaptKernel::Mvt, SpaptKernel::Gemver];
        let (table, outcomes) = run_for_kernels_with(&kernels, &Scale::Quick.comparison_config());
        assert_eq!(table.rows.len(), 2);
        assert_eq!(outcomes.len(), 2);
        for row in &table.rows {
            assert!(row.lowest_common_rmse.is_finite());
            assert!(row.search_space > 1e6);
        }
        // At least one of the kernels should yield a finite speed-up.
        assert!(table.rows.iter().any(|r| r.speedup.is_some()));
    }

    #[test]
    fn geometric_mean_reflects_individual_speedups() {
        let kernels = [SpaptKernel::Mvt, SpaptKernel::Hessian];
        let (table, _) = run_for_kernels_with(&kernels, &Scale::Quick.comparison_config());
        if let Some(gm) = table.geometric_mean_speedup {
            let speedups: Vec<f64> = table.rows.iter().filter_map(|r| r.speedup).collect();
            let lo = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = speedups.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(gm >= lo && gm <= hi);
        }
    }
}
