//! Plan-comparison experiments (the Table 1 / Figure 5 / Figure 6 protocol).
//!
//! For one kernel, [`compare_plans`] runs every sampling plan for a number of
//! seeded repetitions, averages the resulting RMSE-versus-cost curves over
//! the cost range in which all plans are simultaneously active, finds the
//! **lowest common average error** that every compared plan reaches, and
//! reports how much profiling cost each plan needed to first reach it. The
//! ratio of the baseline's cost to the variable plan's cost is the paper's
//! "reduction of profiling cost" (speed-up).

use serde::{Deserialize, Serialize};

use alic_data::dataset::DatasetConfig;
use alic_model::SurrogateSpec;
use alic_sim::kernel::KernelSpec;

use crate::curve::{average_curves, common_cost_grid, AveragedCurve, LearningCurve};
use crate::learner::{LearnerConfig, LearnerRun};
use crate::plan::SamplingPlan;
use crate::Result;

/// Configuration of a plan-comparison experiment on one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonConfig {
    /// Base learner configuration; the `plan` field is overridden per
    /// compared plan and the seeds are re-derived per repetition.
    pub learner: LearnerConfig,
    /// The sampling plans to compare. Defaults to the paper's three.
    pub plans: Vec<SamplingPlan>,
    /// Number of seeded repetitions per plan (the paper uses 10).
    pub repetitions: usize,
    /// Surrogate-model specification used for every run. Any family of
    /// [`SurrogateSpec`] can be compared; the paper's protocol uses the
    /// dynamic tree.
    pub model: SurrogateSpec,
    /// Dataset-generation protocol (§4.5).
    pub dataset: DatasetConfig,
    /// Number of dataset points reserved for training (the rest is test).
    pub train_size: usize,
    /// Resolution of the common cost grid used for averaging.
    pub grid_resolution: usize,
    /// Base seed from which all per-repetition seeds are derived.
    pub seed: u64,
}

impl Default for ComparisonConfig {
    fn default() -> Self {
        ComparisonConfig {
            learner: LearnerConfig::default(),
            plans: vec![
                SamplingPlan::fixed35(),
                SamplingPlan::one_observation(),
                SamplingPlan::sequential(35),
            ],
            repetitions: 10,
            model: SurrogateSpec::default(),
            dataset: DatasetConfig::default(),
            train_size: 7_500,
            grid_resolution: 200,
            seed: 0,
        }
    }
}

impl ComparisonConfig {
    /// A scaled-down configuration that preserves the experimental structure
    /// (three plans, seeded repetitions, ALC acquisition) but runs in seconds
    /// on a laptop instead of days on a cluster. Used by the experiment
    /// harness and the examples.
    pub fn laptop_scale() -> Self {
        ComparisonConfig {
            learner: LearnerConfig {
                initial_examples: 5,
                initial_observations: 15,
                candidates_per_iteration: 60,
                max_iterations: 160,
                evaluate_every: 10,
                ..Default::default()
            },
            repetitions: 4,
            model: SurrogateSpec::dynatree(60),
            dataset: DatasetConfig {
                configurations: 700,
                observations: 15,
                seed: 0,
            },
            train_size: 500,
            grid_resolution: 120,
            seed: 0,
            ..Default::default()
        }
    }

    /// Returns the same configuration with a different surrogate model.
    #[must_use]
    pub fn with_model(mut self, model: SurrogateSpec) -> Self {
        self.model = model;
        self
    }
}

/// Aggregated result for one sampling plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanResult {
    /// The sampling plan.
    pub plan: SamplingPlan,
    /// One learning run per repetition.
    pub runs: Vec<LearnerRun>,
    /// The repetition curves averaged on the common cost grid.
    pub averaged: AveragedCurve,
}

impl PlanResult {
    /// Mean observations per visited example across repetitions.
    pub fn mean_observations_per_example(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs
            .iter()
            .map(LearnerRun::mean_observations_per_example)
            .sum::<f64>()
            / self.runs.len() as f64
    }
}

/// Outcome of comparing all plans on one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonOutcome {
    /// Kernel name.
    pub kernel: String,
    /// Per-plan results, in the order of [`ComparisonConfig::plans`].
    pub plans: Vec<PlanResult>,
    /// The lowest average RMSE that *every* plan reaches on the common grid
    /// (Table 1's "lowest common RMSE").
    pub lowest_common_rmse: f64,
    /// Cost, per plan, to first reach the lowest common RMSE.
    pub cost_to_common_rmse: Vec<Option<f64>>,
}

/// Head-to-head comparison of two sampling plans on their common error level
/// (the statistic behind each row of the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairwiseComparison {
    /// The lowest averaged RMSE that *both* plans reach.
    pub lowest_common_rmse: f64,
    /// Cost of the first plan to first reach that error.
    pub cost_first: Option<f64>,
    /// Cost of the second plan to first reach that error.
    pub cost_second: Option<f64>,
}

impl PairwiseComparison {
    /// Speed-up of the second plan over the first (first cost / second cost).
    pub fn speedup(&self) -> Option<f64> {
        match (self.cost_first, self.cost_second) {
            (Some(a), Some(b)) if b > 0.0 => Some(a / b),
            _ => None,
        }
    }
}

impl ComparisonOutcome {
    /// Result for a given plan, if it was part of the comparison.
    pub fn plan_result(&self, plan: SamplingPlan) -> Option<&PlanResult> {
        self.plans.iter().find(|p| p.plan == plan)
    }

    /// Head-to-head statistics between two plans: the lowest averaged error
    /// both reach and the cost each needed to first reach it. This mirrors
    /// the paper's Table 1, which compares the 35-observation baseline with
    /// the variable plan in isolation from the one-observation plan.
    pub fn pairwise(
        &self,
        first: SamplingPlan,
        second: SamplingPlan,
    ) -> Option<PairwiseComparison> {
        let a = self.plan_result(first)?;
        let b = self.plan_result(second)?;
        let lowest_common_rmse = a.averaged.best_rmse()?.max(b.averaged.best_rmse()?);
        Some(PairwiseComparison {
            lowest_common_rmse,
            cost_first: a.averaged.cost_to_reach(lowest_common_rmse),
            cost_second: b.averaged.cost_to_reach(lowest_common_rmse),
        })
    }

    /// Speed-up of `fast` over `baseline` in reaching the lowest common RMSE
    /// (Table 1's final column). `None` when either plan never reaches it.
    pub fn speedup(&self, baseline: SamplingPlan, fast: SamplingPlan) -> Option<f64> {
        let index_of = |plan| self.plans.iter().position(|p| p.plan == plan);
        let baseline_cost = self.cost_to_common_rmse[index_of(baseline)?]?;
        let fast_cost = self.cost_to_common_rmse[index_of(fast)?]?;
        if fast_cost > 0.0 {
            Some(baseline_cost / fast_cost)
        } else {
            None
        }
    }
}

/// Runs the full plan comparison for one simulated kernel.
///
/// Since the campaign-runner refactor this is a thin wrapper over a
/// single-kernel, single-model [`CampaignSpec`](crate::runner::CampaignSpec):
/// one work unit per `(plan, repetition)` pair, executed by
/// [`runner::execute_units`](crate::runner::execute_units) on the
/// shared thread pool with deterministic per-unit derived seeds, then folded
/// by the pure merge step [`assemble_outcome`]. Larger matrices — many
/// kernels, many model families, sharded across processes with on-disk
/// checkpoints — use the [`runner`](crate::runner) API directly.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`](crate::CoreError::InvalidConfig) for
/// a configuration without plans or repetitions, and
/// [`CoreError::Campaign`](crate::CoreError::Campaign) when a unit fails every
/// execution attempt (panics and transient faults heal by re-execution, as
/// in [`runner::run_campaign`](crate::runner::run_campaign)).
pub fn compare_plans(spec: &KernelSpec, config: &ComparisonConfig) -> Result<ComparisonOutcome> {
    let campaign = crate::runner::CampaignSpec::single(spec.clone(), config.clone());
    let report = crate::runner::run_campaign(&campaign)?;
    let entry = report
        .entries
        .into_iter()
        .next()
        .expect("a single-cell campaign produces exactly one entry");
    Ok(entry.outcome)
}

/// The pure merge step of a plan comparison: folds the runs of one
/// `(kernel, model)` cell, grouped per plan, into averaged curves and the
/// Table 1 statistics.
///
/// Being a pure function of the unit results, it can run long after (and on
/// a different machine than) the units themselves; the campaign runner's
/// `--merge` step and the in-process [`compare_plans`] path both end here,
/// which is what makes sharded-and-merged campaigns byte-identical to
/// single-process runs.
///
/// A group may hold *fewer* than `config.repetitions` runs: when a work unit
/// failed every healing pass, the resilient campaign merge
/// ([`assemble_report_with_failures`](crate::runner::assemble_report_with_failures))
/// still assembles its cell from the surviving repetitions.
pub fn assemble_outcome(
    kernel: &str,
    config: &ComparisonConfig,
    plan_runs: Vec<(SamplingPlan, Vec<LearnerRun>)>,
) -> ComparisonOutcome {
    // Average every plan's curves on the cost range where all plans overlap.
    let curve_sets: Vec<Vec<LearningCurve>> = plan_runs
        .iter()
        .map(|(_, runs)| runs.iter().map(|r| r.curve.clone()).collect())
        .collect();
    let curve_refs: Vec<&[LearningCurve]> = curve_sets.iter().map(|c| c.as_slice()).collect();
    let grid = common_cost_grid(&curve_refs, config.grid_resolution).unwrap_or_else(|| {
        // Degenerate overlap (e.g. single evaluation point): fall back to the
        // union of final costs.
        curve_sets
            .iter()
            .flat_map(|curves| curves.iter().filter_map(|c| c.total_cost()))
            .collect()
    });

    let plans: Vec<PlanResult> = plan_runs
        .into_iter()
        .zip(&curve_sets)
        .map(|((plan, runs), curves)| PlanResult {
            plan,
            averaged: average_curves(curves, &grid),
            runs,
        })
        .collect();

    // Lowest common RMSE: the worst of the plans' best averaged errors.
    let lowest_common_rmse = plans
        .iter()
        .filter_map(|p| p.averaged.best_rmse())
        .fold(f64::NEG_INFINITY, f64::max);
    let cost_to_common_rmse = plans
        .iter()
        .map(|p| p.averaged.cost_to_reach(lowest_common_rmse))
        .collect();

    ComparisonOutcome {
        kernel: kernel.to_string(),
        plans,
        lowest_common_rmse,
        cost_to_common_rmse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alic_sim::noise::NoiseProfile;
    use alic_sim::space::ParamSpec;

    fn tiny_config() -> ComparisonConfig {
        ComparisonConfig {
            learner: LearnerConfig {
                initial_examples: 4,
                initial_observations: 6,
                candidates_per_iteration: 20,
                max_iterations: 40,
                evaluate_every: 10,
                ..Default::default()
            },
            plans: vec![
                SamplingPlan::fixed(6),
                SamplingPlan::one_observation(),
                SamplingPlan::sequential(6),
            ],
            repetitions: 2,
            model: SurrogateSpec::dynatree(30),
            dataset: DatasetConfig {
                configurations: 250,
                observations: 6,
                seed: 0,
            },
            train_size: 180,
            grid_resolution: 50,
            seed: 7,
        }
    }

    fn toy_kernel(noise: NoiseProfile) -> KernelSpec {
        KernelSpec::new(
            "toy",
            vec![
                ParamSpec::unroll("u1"),
                ParamSpec::unroll("u2"),
                ParamSpec::unroll("u3"),
            ],
            1.0,
            0.5,
            noise,
        )
        .unwrap()
        .with_surface_seed(13)
    }

    #[test]
    fn comparison_produces_results_for_every_plan() {
        let outcome = compare_plans(&toy_kernel(NoiseProfile::moderate()), &tiny_config()).unwrap();
        assert_eq!(outcome.kernel, "toy");
        assert_eq!(outcome.plans.len(), 3);
        assert_eq!(outcome.cost_to_common_rmse.len(), 3);
        for plan in &outcome.plans {
            assert_eq!(plan.runs.len(), 2);
            assert!(!plan.averaged.costs.is_empty());
        }
        assert!(outcome.lowest_common_rmse.is_finite());
    }

    #[test]
    fn sequential_plan_is_cheaper_per_iteration_in_the_comparison() {
        let outcome = compare_plans(&toy_kernel(NoiseProfile::quiet()), &tiny_config()).unwrap();
        let fixed = outcome.plan_result(SamplingPlan::fixed(6)).unwrap();
        let sequential = outcome.plan_result(SamplingPlan::sequential(6)).unwrap();
        let fixed_cost: f64 = fixed.runs.iter().map(|r| r.ledger.total_seconds()).sum();
        let seq_cost: f64 = sequential
            .runs
            .iter()
            .map(|r| r.ledger.total_seconds())
            .sum();
        assert!(
            seq_cost < fixed_cost,
            "sequential total {seq_cost} should be below fixed total {fixed_cost}"
        );
        assert!(sequential.mean_observations_per_example() < fixed.mean_observations_per_example());
    }

    #[test]
    fn speedup_uses_the_requested_plans() {
        let outcome = compare_plans(&toy_kernel(NoiseProfile::quiet()), &tiny_config()).unwrap();
        let speedup = outcome.speedup(SamplingPlan::fixed(6), SamplingPlan::sequential(6));
        if let Some(s) = speedup {
            assert!(s.is_finite() && s > 0.0);
        }
        assert!(outcome
            .speedup(SamplingPlan::fixed(99), SamplingPlan::sequential(6))
            .is_none());
    }

    #[test]
    fn outcome_is_deterministic_for_a_seed() {
        let kernel = toy_kernel(NoiseProfile::moderate());
        let a = compare_plans(&kernel, &tiny_config()).unwrap();
        let b = compare_plans(&kernel, &tiny_config()).unwrap();
        assert_eq!(a.lowest_common_rmse, b.lowest_common_rmse);
        assert_eq!(a.cost_to_common_rmse, b.cost_to_common_rmse);
    }

    #[test]
    fn outcome_is_independent_of_the_thread_count() {
        // The (plan × repetition) jobs each derive their own seeds and are
        // written back by job index, so a single-threaded run must produce
        // bit-identical results to the default parallel run.
        //
        // The shim's programmatic override is used rather than the
        // RAYON_NUM_THREADS env var: setenv while sibling tests' worker
        // threads call getenv is undefined behavior on glibc. The override is
        // process-global, which is harmless here because every test in this
        // binary is deterministic by design.
        let kernel = toy_kernel(NoiseProfile::moderate());
        let parallel = compare_plans(&kernel, &tiny_config()).unwrap();
        rayon::set_num_threads(1);
        let serial = compare_plans(&kernel, &tiny_config()).unwrap();
        rayon::set_num_threads(0);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn comparison_runs_with_every_surrogate_family() {
        let kernel = toy_kernel(NoiseProfile::quiet());
        let mut config = tiny_config();
        config.repetitions = 1;
        config.learner.max_iterations = 15;
        for model in SurrogateSpec::all() {
            let outcome = compare_plans(&kernel, &config.clone().with_model(model))
                .unwrap_or_else(|e| panic!("{model}: comparison failed: {e}"));
            assert_eq!(outcome.plans.len(), 3, "{model}: missing plan results");
            for plan in &outcome.plans {
                assert!(
                    plan.runs
                        .iter()
                        .all(|r| r.curve.final_rmse().is_some_and(f64::is_finite)),
                    "{model}: non-finite learning curve"
                );
            }
        }
    }
}
