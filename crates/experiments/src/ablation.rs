//! Ablations: acquisition function and artificial-noise robustness.
//!
//! Two design points the paper discusses but does not tabulate are covered
//! here:
//!
//! * **Acquisition function** (§3.3): the paper chooses Cohn's ALC over
//!   MacKay's ALM because it handles heteroskedastic spaces better; the
//!   ablation runs the variable-observation learner with ALC, ALM and random
//!   selection and compares the error reached for the same iteration budget.
//! * **Artificial noise** (§7, future work): the paper proposes testing the
//!   technique with artificially inflated noise; the ablation scales every
//!   noise source by a factor and reports how the speed-up over the fixed
//!   baseline degrades.

use serde::{Deserialize, Serialize};

use alic_core::acquisition::Acquisition;
use alic_core::experiment::{compare_plans, ComparisonConfig};
use alic_core::plan::SamplingPlan;
use alic_sim::spapt::{spapt_kernel, SpaptKernel};

use crate::table1::head_to_head_plans;

/// Result of the acquisition-function ablation for one strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcquisitionResult {
    /// Strategy label.
    pub acquisition: String,
    /// Best averaged RMSE the variable plan reached.
    pub best_rmse: f64,
    /// Total profiling cost of the variable plan's runs (seconds, averaged).
    pub mean_cost: f64,
}

/// Runs the acquisition ablation on one kernel with an explicit base
/// configuration (any scale, any surrogate family).
pub fn acquisition_ablation_with(
    kernel: SpaptKernel,
    base: &ComparisonConfig,
) -> Vec<AcquisitionResult> {
    [
        Acquisition::default_alc(),
        Acquisition::Alm,
        Acquisition::Random,
    ]
    .into_iter()
    .map(|acquisition| {
        let config = ComparisonConfig {
            learner: alic_core::learner::LearnerConfig {
                acquisition,
                ..base.learner
            },
            plans: vec![SamplingPlan::sequential(base.learner.initial_observations)],
            ..base.clone()
        };
        let outcome = compare_plans(&spapt_kernel(kernel), &config)
            .expect("ablation configuration is internally consistent");
        let plan = &outcome.plans[0];
        let mean_cost = plan
            .runs
            .iter()
            .map(|r| r.ledger.total_seconds())
            .sum::<f64>()
            / plan.runs.len().max(1) as f64;
        AcquisitionResult {
            acquisition: acquisition.label().to_string(),
            best_rmse: plan.averaged.best_rmse().unwrap_or(f64::NAN),
            mean_cost,
        }
    })
    .collect()
}

/// Result of the noise-robustness ablation for one noise scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseResult {
    /// Multiplier applied to every noise source.
    pub noise_scale: f64,
    /// Lowest common RMSE between the baseline and variable plans.
    pub lowest_common_rmse: f64,
    /// Speed-up of the variable plan over the fixed baseline.
    pub speedup: Option<f64>,
}

/// Runs the noise-robustness ablation on one kernel with an explicit base
/// configuration.
pub fn noise_ablation_with(
    kernel: SpaptKernel,
    scales: &[f64],
    config: &ComparisonConfig,
) -> Vec<NoiseResult> {
    let (baseline, variable) = head_to_head_plans(config);
    scales
        .iter()
        .map(|&factor| {
            let spec = spapt_kernel(kernel);
            let noisy = spec.noise().scaled(factor);
            let spec = spec.with_noise(noisy);
            let outcome = compare_plans(&spec, config)
                .expect("ablation configuration is internally consistent");
            NoiseResult {
                noise_scale: factor,
                lowest_common_rmse: outcome.lowest_common_rmse,
                speedup: outcome.speedup(baseline, variable),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn acquisition_ablation_covers_all_strategies() {
        let results =
            acquisition_ablation_with(SpaptKernel::Mvt, &Scale::Quick.comparison_config());
        assert_eq!(results.len(), 3);
        let labels: Vec<&str> = results.iter().map(|r| r.acquisition.as_str()).collect();
        assert!(labels.contains(&"ALC"));
        assert!(labels.contains(&"ALM"));
        assert!(labels.contains(&"random"));
        for r in &results {
            assert!(r.best_rmse.is_finite());
            assert!(r.mean_cost > 0.0);
        }
    }

    #[test]
    fn noise_ablation_reports_one_row_per_scale() {
        let results = noise_ablation_with(
            SpaptKernel::Hessian,
            &[1.0, 4.0],
            &Scale::Quick.comparison_config(),
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].noise_scale, 1.0);
        assert_eq!(results[1].noise_scale, 4.0);
        // More noise should not make the common error smaller.
        assert!(results[1].lowest_common_rmse >= results[0].lowest_common_rmse * 0.5);
    }
}
