//! The active-learning loop (Algorithm 1).
//!
//! [`ActiveLearner::run`] reproduces Algorithm 1 of the paper, generalized
//! over the sampling plan so that the same loop implements the paper's
//! variable-observation technique *and* the two fixed-plan baselines it is
//! compared against:
//!
//! 1. Seed the model with `initial_examples` randomly chosen configurations,
//!    each profiled `initial_observations` times (line 2–4).
//! 2. At each iteration build a candidate set of `candidates_per_iteration`
//!    unseen configurations, plus — for the sequential plan — every visited
//!    configuration that has fewer than `max_observations` observations
//!    (lines 7–11).
//! 3. Score the candidates with the acquisition strategy and pick the best
//!    (lines 12–20).
//! 4. Profile the winner (one observation for the sequential plan, the plan's
//!    fixed count otherwise), update the model and the bookkeeping
//!    (lines 21–28).
//! 5. Periodically evaluate the model's RMSE on the held-out test set and
//!    record a learning-curve point.

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::Rng as _;
use serde::{Deserialize, Serialize};

use alic_data::dataset::Dataset;
use alic_data::split::TrainTestSplit;
use alic_model::ActiveSurrogate;
use alic_sim::profiler::{Measurement, Profiler};
use alic_sim::Configuration;
use alic_stats::error::rmse;
use alic_stats::rng::{seeded_stream, Rng as StatsRng};
use alic_stats::summary::OnlineStats;
use alic_stats::FeatureMatrix;

use crate::acquisition::Acquisition;
use crate::criteria::CompletionCriteria;
use crate::curve::{CurvePoint, LearningCurve};
use crate::ledger::CostLedger;
use crate::plan::SamplingPlan;
use crate::{CoreError, Result};

/// Configuration of one learning run (the parameters of Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LearnerConfig {
    /// `n_init`: number of randomly chosen seed examples (the paper uses 5).
    pub initial_examples: usize,
    /// `n_obs` for the seed examples (the paper uses 35).
    pub initial_observations: usize,
    /// `n_c`: number of fresh candidates considered per iteration (500).
    pub candidates_per_iteration: usize,
    /// Iteration budget (`n_max`, the paper uses 2,500).
    pub max_iterations: usize,
    /// Evaluate the model on the test set every this many iterations.
    pub evaluate_every: usize,
    /// Acquisition strategy (§3.3).
    pub acquisition: Acquisition,
    /// Sampling plan (fixed or sequential).
    pub plan: SamplingPlan,
    /// Additional stopping conditions.
    pub criteria: CompletionCriteria,
    /// Seed for candidate sampling and tie breaking.
    pub seed: u64,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            initial_examples: 5,
            initial_observations: 35,
            candidates_per_iteration: 500,
            max_iterations: 2_500,
            evaluate_every: 25,
            acquisition: Acquisition::default_alc(),
            plan: SamplingPlan::default(),
            criteria: CompletionCriteria::none(),
            seed: 0,
        }
    }
}

/// Per-example profiling record kept by the learner (the paper's map `D`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExampleRecord {
    /// Index of the example in the dataset.
    pub dataset_index: usize,
    /// Running statistics of the runtimes observed for this example.
    pub runtimes: OnlineStats,
}

/// Outcome of one learning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnerRun {
    /// The plan that produced this run.
    pub plan: SamplingPlan,
    /// RMSE-versus-cost learning curve.
    pub curve: LearningCurve,
    /// Cumulative profiling cost.
    pub ledger: CostLedger,
    /// Profiling record per visited example.
    pub visited: Vec<ExampleRecord>,
    /// Total learning-loop iterations executed.
    pub iterations: usize,
}

impl LearnerRun {
    /// Number of distinct training examples visited.
    pub fn distinct_examples(&self) -> usize {
        self.visited.len()
    }

    /// Total observations taken across all examples.
    pub fn total_observations(&self) -> usize {
        self.visited.iter().map(|r| r.runtimes.count()).sum()
    }

    /// Mean number of observations per visited example — the statistic the
    /// sequential plan is designed to minimize.
    pub fn mean_observations_per_example(&self) -> f64 {
        if self.visited.is_empty() {
            0.0
        } else {
            self.total_observations() as f64 / self.visited.len() as f64
        }
    }
}

/// Bounded re-measure attempts after a non-finite measurement. A flaky
/// evaluator that recovers within this budget leaves no trace beyond the
/// ledger's quarantine counter; one that doesn't costs the learner the
/// observation.
pub const OBSERVATION_RETRIES: usize = 2;

/// Takes one *finite* measurement, retrying up to [`OBSERVATION_RETRIES`]
/// times when the profiler returns a NaN or infinite runtime/compile time.
///
/// This is the learner's half of the uniform non-finite policy (the models'
/// half is `alic_model::validate_observation`): a broken measurement is never
/// recorded in the cost ledger — its cost is unknowable — and never reaches
/// a model or the learning curve. A glitch that heals within the retry
/// budget leaves *no* trace in the run at all (the report must stay
/// byte-identical to a fault-free run's); only when every attempt is
/// non-finite is the observation abandoned, counted in the ledger's
/// [`quarantined`](CostLedger::quarantined) counter, and `None` returned.
fn measure_finite<P: Profiler>(
    profiler: &mut P,
    configuration: &Configuration,
    ledger: &mut CostLedger,
) -> Option<Measurement> {
    for _ in 0..=OBSERVATION_RETRIES {
        let m = profiler.measure(configuration);
        if m.runtime.is_finite() && m.compile_time.is_finite() {
            ledger.record(&m);
            return Some(m);
        }
    }
    ledger.record_quarantined();
    None
}

/// The active learner: couples a profiler with the loop of Algorithm 1.
#[derive(Debug)]
pub struct ActiveLearner<'a, P: Profiler> {
    config: LearnerConfig,
    profiler: &'a mut P,
}

impl<'a, P: Profiler> ActiveLearner<'a, P> {
    /// Creates a learner that will profile through `profiler`.
    pub fn new(config: LearnerConfig, profiler: &'a mut P) -> Self {
        ActiveLearner { config, profiler }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LearnerConfig {
        &self.config
    }

    /// Runs Algorithm 1 with the given surrogate `model` over the training
    /// pool defined by `dataset` and `split`, evaluating on the split's test
    /// points.
    ///
    /// The model is only accessed through [`ActiveSurrogate`], so both
    /// concrete models and `dyn ActiveSurrogate` trait objects built from a
    /// [`SurrogateSpec`](alic_model::SurrogateSpec) work.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is inconsistent with the pool
    /// size or when the surrogate model fails.
    pub fn run<M: ActiveSurrogate + ?Sized>(
        &mut self,
        model: &mut M,
        dataset: &Dataset,
        split: &TrainTestSplit,
    ) -> Result<LearnerRun> {
        let config = self.config;
        if config.initial_examples == 0 {
            return Err(CoreError::InvalidConfig(
                "at least one seed example is required".to_string(),
            ));
        }
        if config.evaluate_every == 0 {
            return Err(CoreError::InvalidConfig(
                "evaluate_every must be positive".to_string(),
            ));
        }
        let pool: Vec<usize> = split.train_indices().to_vec();
        if pool.len() < config.initial_examples {
            return Err(CoreError::InsufficientData {
                needed: config.initial_examples,
                available: pool.len(),
            });
        }
        if split.test_indices().is_empty() {
            return Err(CoreError::InsufficientData {
                needed: 1,
                available: 0,
            });
        }

        let mut rng: StatsRng = seeded_stream(config.seed, 0xAC71);

        // Pre-compute normalized features for the pool and the test set, in
        // flat row-major storage. Candidate and reference sets below are
        // gathered as row views into these matrices, so the hot loop never
        // clones a feature vector.
        let pool_features: FeatureMatrix = dataset.features_matrix(&pool);
        let test_features: FeatureMatrix = dataset.features_matrix(split.test_indices());
        let test_targets: Vec<f64> = split
            .test_indices()
            .iter()
            .map(|&i| dataset.points()[i].mean_runtime)
            .collect();

        let mut ledger = CostLedger::new();
        let mut curve = LearningCurve::new();
        // Position (within `pool`) -> record index in `visited`.
        let mut visited_positions: BTreeMap<usize, usize> = BTreeMap::new();
        let mut visited: Vec<ExampleRecord> = Vec::new();

        // --- Seeding (Algorithm 1, lines 2-4). -------------------------------
        let mut positions: Vec<usize> = (0..pool.len()).collect();
        positions.shuffle(&mut rng);
        let seed_positions: Vec<usize> = positions[..config.initial_examples].to_vec();
        let mut seed_ys = Vec::with_capacity(config.initial_examples);
        for &pos in &seed_positions {
            let dataset_index = pool[pos];
            let configuration = &dataset.points()[dataset_index].configuration;
            let mut stats = OnlineStats::new();
            for _ in 0..config.initial_observations.max(1) {
                if let Some(m) = measure_finite(self.profiler, configuration, &mut ledger) {
                    stats.push(m.runtime);
                }
            }
            if stats.count() == 0 {
                // Without a single finite observation the seed example has no
                // target at all; the model cannot be fitted honestly.
                return Err(CoreError::Evaluator(format!(
                    "seed example {dataset_index} produced no finite measurement in {} attempts",
                    config.initial_observations.max(1) * (OBSERVATION_RETRIES + 1)
                )));
            }
            seed_ys.push(stats.mean());
            visited_positions.insert(pos, visited.len());
            visited.push(ExampleRecord {
                dataset_index,
                runtimes: stats,
            });
        }
        // The seed training set is an index gather into the pool matrix —
        // like every later `update`, `fit` reads rows straight from the
        // dataset's flat storage without cloning a feature vector.
        let seed_views: Vec<&[f64]> = pool_features.gather(seed_positions.iter().copied());
        model.fit(&seed_views, &seed_ys)?;
        drop(seed_views);

        let mut latest_rmse = evaluate_rmse(model, &test_features, &test_targets)?;
        curve.push(CurvePoint {
            iterations: 0,
            training_examples: visited.len(),
            observations: ledger.runs(),
            cost_seconds: ledger.total_seconds(),
            rmse: latest_rmse,
        });

        // --- Main loop (Algorithm 1, lines 6-29). -----------------------------
        let mut unseen: Vec<usize> = positions[config.initial_examples..].to_vec();
        let mut revisits: Vec<usize> = Vec::new();
        // Candidate row views are rebuilt every iteration but the buffer is
        // hoisted out of the loop, so the steady state allocates nothing.
        let mut candidate_rows: Vec<&[f64]> = Vec::new();
        let mut iterations = 0usize;
        while iterations < config.max_iterations {
            if config
                .criteria
                .is_met(ledger.total_seconds(), Some(latest_rmse))
            {
                break;
            }
            // Candidate set: n_c fresh positions, drawn with a partial
            // Fisher–Yates over the unseen pool — O(n_c) work instead of the
            // O(|pool|) full shuffle, on the same RNG stream.
            let fresh_count = config.candidates_per_iteration.min(unseen.len());
            for i in 0..fresh_count {
                let j = rng.gen_range(i..unseen.len());
                unseen.swap(i, j);
            }
            // ...plus, for the sequential plan, visited positions that have
            // not yet hit the observation cap (lines 8-11).
            revisits.clear();
            if config.plan.allows_revisits() {
                for (&pos, &record) in &visited_positions {
                    if visited[record].runtimes.count() < config.plan.max_observations() {
                        revisits.push(pos);
                    }
                }
            }
            if fresh_count + revisits.len() == 0 {
                break;
            }
            // Candidates are zero-copy row views into the pool matrix, fresh
            // ones first so that score ties resolve towards exploration.
            candidate_rows.clear();
            candidate_rows.extend(unseen[..fresh_count].iter().map(|&p| pool_features.row(p)));
            candidate_rows.extend(revisits.iter().map(|&p| pool_features.row(p)));
            let chosen = config
                .acquisition
                .select(model, &candidate_rows, &pool_features, &mut rng)?
                .expect("candidate set is non-empty");
            // A chosen index below `fresh_count` addresses the shuffled
            // prefix of `unseen` directly, which makes the first-visit test
            // and the unseen-pool removal below O(1).
            let first_visit = chosen < fresh_count;
            let position = if first_visit {
                unseen[chosen]
            } else {
                revisits[chosen - fresh_count]
            };
            let dataset_index = pool[position];
            let configuration = &dataset.points()[dataset_index].configuration;
            let features = pool_features.row(position);

            // Profile the winner according to the sampling plan.
            let observations = config.plan.observations_per_visit();
            let mut batch = OnlineStats::new();
            for _ in 0..observations {
                if let Some(m) = measure_finite(self.profiler, configuration, &mut ledger) {
                    batch.push(m.runtime);
                }
            }
            // Fixed plans feed the mean of the batch; the sequential plan
            // feeds the single raw observation. A batch that lost *every*
            // measurement to quarantine (ledger counts them) has no target:
            // the model is left untouched, but the bookkeeping below still
            // runs so the visit is not re-selected forever.
            if batch.count() > 0 {
                let y = batch.mean();
                model.update(features, y)?;
            }

            // Bookkeeping (lines 23-28).
            if first_visit {
                visited_positions.insert(position, visited.len());
                visited.push(ExampleRecord {
                    dataset_index,
                    runtimes: batch,
                });
                // Remove from the unseen pool: the winner sits at `chosen`
                // in the shuffled prefix.
                unseen.swap_remove(chosen);
            } else {
                let record = visited_positions[&position];
                visited[record].runtimes.merge(&batch);
            }

            iterations += 1;
            if iterations.is_multiple_of(config.evaluate_every)
                || iterations == config.max_iterations
            {
                latest_rmse = evaluate_rmse(model, &test_features, &test_targets)?;
                curve.push(CurvePoint {
                    iterations,
                    training_examples: visited.len(),
                    observations: ledger.runs(),
                    cost_seconds: ledger.total_seconds(),
                    rmse: latest_rmse,
                });
            }
        }

        Ok(LearnerRun {
            plan: config.plan,
            curve,
            ledger,
            visited,
            iterations,
        })
    }
}

/// RMSE of `model` over a test set of normalized features and target mean
/// runtimes (Equation 1).
///
/// Goes through [`predict_batch`](alic_model::SurrogateModel::predict_batch),
/// so models with a batched (and parallel) predictor — the dynamic tree in
/// particular — evaluate the whole test set in one call.
pub fn evaluate_rmse<M: ActiveSurrogate + ?Sized>(
    model: &M,
    test_features: &FeatureMatrix,
    test_targets: &[f64],
) -> std::result::Result<f64, CoreError> {
    let rows = test_features.row_views();
    let predictions: Vec<f64> = model
        .predict_batch(&rows)
        .map_err(CoreError::from)?
        .into_iter()
        .map(|p| p.mean)
        .collect();
    rmse(&predictions, test_targets).map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alic_data::dataset::{Dataset, DatasetConfig};
    use alic_model::dynatree::{DynaTree, DynaTreeConfig};
    use alic_sim::noise::NoiseProfile;
    use alic_sim::profiler::SimulatedProfiler;
    use alic_sim::space::ParamSpec;
    use alic_sim::KernelSpec;

    fn toy_profiler(noise: NoiseProfile, seed: u64) -> SimulatedProfiler {
        let spec = KernelSpec::new(
            "toy",
            vec![ParamSpec::unroll("u1"), ParamSpec::unroll("u2")],
            1.0,
            0.5,
            noise,
        )
        .unwrap()
        .with_surface_seed(7);
        SimulatedProfiler::new(spec, seed)
    }

    fn toy_setup(noise: NoiseProfile) -> (SimulatedProfiler, Dataset, TrainTestSplit) {
        let mut profiler = toy_profiler(noise, 1);
        let dataset = Dataset::generate(
            &mut profiler,
            &DatasetConfig {
                configurations: 200,
                observations: 5,
                seed: 2,
            },
        );
        let split = dataset.split(150, 3);
        (toy_profiler(noise, 11), dataset, split)
    }

    fn small_config(plan: SamplingPlan) -> LearnerConfig {
        LearnerConfig {
            initial_examples: 5,
            initial_observations: 5,
            candidates_per_iteration: 30,
            max_iterations: 60,
            evaluate_every: 15,
            acquisition: Acquisition::Alc { reference_size: 20 },
            plan,
            criteria: CompletionCriteria::none(),
            seed: 5,
        }
    }

    fn small_model(seed: u64) -> DynaTree {
        DynaTree::new(DynaTreeConfig {
            particles: 40,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn sequential_run_produces_a_monotone_cost_curve() {
        let (mut profiler, dataset, split) = toy_setup(NoiseProfile::moderate());
        let config = small_config(SamplingPlan::sequential(5));
        let mut learner = ActiveLearner::new(config, &mut profiler);
        let mut model = small_model(1);
        let run = learner.run(&mut model, &dataset, &split).unwrap();

        assert_eq!(run.iterations, 60);
        assert!(run.curve.len() >= 4);
        let costs: Vec<f64> = run.curve.points().iter().map(|p| p.cost_seconds).collect();
        assert!(costs.windows(2).all(|w| w[1] >= w[0]));
        assert!(run.curve.final_rmse().unwrap().is_finite());
        assert!(run.ledger.total_seconds() > 0.0);
    }

    #[test]
    fn sequential_plan_never_exceeds_the_observation_cap() {
        let (mut profiler, dataset, split) = toy_setup(NoiseProfile::moderate());
        let cap = 5;
        let config = small_config(SamplingPlan::sequential(cap));
        let mut learner = ActiveLearner::new(config, &mut profiler);
        let mut model = small_model(2);
        let run = learner.run(&mut model, &dataset, &split).unwrap();
        for record in &run.visited {
            assert!(
                record.runtimes.count() <= cap.max(config.initial_observations),
                "example exceeded the cap: {} observations",
                record.runtimes.count()
            );
        }
    }

    #[test]
    fn fixed_plan_profiles_each_example_exactly_n_times() {
        let (mut profiler, dataset, split) = toy_setup(NoiseProfile::quiet());
        let config = LearnerConfig {
            plan: SamplingPlan::fixed(3),
            initial_observations: 3,
            max_iterations: 20,
            ..small_config(SamplingPlan::fixed(3))
        };
        let mut learner = ActiveLearner::new(config, &mut profiler);
        let mut model = small_model(3);
        let run = learner.run(&mut model, &dataset, &split).unwrap();
        assert!(run.visited.iter().all(|r| r.runtimes.count() == 3));
        // Seed examples + one new example per iteration.
        assert_eq!(run.distinct_examples(), 5 + 20);
        assert_eq!(run.total_observations(), (5 + 20) * 3);
    }

    #[test]
    fn sequential_plan_spends_less_per_iteration_than_fixed35() {
        let (mut profiler_a, dataset, split) = toy_setup(NoiseProfile::quiet());
        let iterations = 40;
        let fixed = LearnerConfig {
            plan: SamplingPlan::fixed35(),
            initial_observations: 35,
            max_iterations: iterations,
            ..small_config(SamplingPlan::fixed35())
        };
        let mut learner = ActiveLearner::new(fixed, &mut profiler_a);
        let mut model = small_model(4);
        let run_fixed = learner.run(&mut model, &dataset, &split).unwrap();

        let mut profiler_b = toy_profiler(NoiseProfile::quiet(), 11);
        let sequential = LearnerConfig {
            plan: SamplingPlan::sequential(35),
            initial_observations: 35,
            max_iterations: iterations,
            ..small_config(SamplingPlan::sequential(35))
        };
        let mut learner = ActiveLearner::new(sequential, &mut profiler_b);
        let mut model = small_model(4);
        let run_seq = learner.run(&mut model, &dataset, &split).unwrap();

        assert!(
            run_seq.ledger.total_seconds() < run_fixed.ledger.total_seconds() / 3.0,
            "sequential cost {} should be far below fixed cost {}",
            run_seq.ledger.total_seconds(),
            run_fixed.ledger.total_seconds()
        );
    }

    #[test]
    fn learner_reduces_error_relative_to_the_seed_model() {
        let (mut profiler, dataset, split) = toy_setup(NoiseProfile::quiet());
        let config = LearnerConfig {
            max_iterations: 120,
            candidates_per_iteration: 40,
            ..small_config(SamplingPlan::sequential(10))
        };
        let mut learner = ActiveLearner::new(config, &mut profiler);
        let mut model = small_model(5);
        let run = learner.run(&mut model, &dataset, &split).unwrap();
        let first = run.curve.points().first().unwrap().rmse;
        let best = run.curve.best_rmse().unwrap();
        assert!(
            best < first,
            "training should reduce error: first {first}, best {best}"
        );
    }

    #[test]
    fn cost_budget_stops_the_run_early() {
        let (mut profiler, dataset, split) = toy_setup(NoiseProfile::quiet());
        let config = LearnerConfig {
            criteria: CompletionCriteria::none().with_max_cost(40.0),
            max_iterations: 10_000,
            ..small_config(SamplingPlan::sequential(5))
        };
        let mut learner = ActiveLearner::new(config, &mut profiler);
        let mut model = small_model(6);
        let run = learner.run(&mut model, &dataset, &split).unwrap();
        assert!(run.iterations < 10_000);
        // The run may overshoot by at most one iteration's worth of cost.
        assert!(run.ledger.total_seconds() < 80.0);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let (mut profiler, dataset, split) = toy_setup(NoiseProfile::quiet());
        let config = LearnerConfig {
            initial_examples: 0,
            ..small_config(SamplingPlan::sequential(5))
        };
        let mut learner = ActiveLearner::new(config, &mut profiler);
        let mut model = small_model(7);
        assert!(matches!(
            learner.run(&mut model, &dataset, &split),
            Err(CoreError::InvalidConfig(_))
        ));

        let config = LearnerConfig {
            initial_examples: 10_000,
            ..small_config(SamplingPlan::sequential(5))
        };
        let mut learner = ActiveLearner::new(config, &mut profiler);
        assert!(matches!(
            learner.run(&mut model, &dataset, &split),
            Err(CoreError::InsufficientData { .. })
        ));
    }

    /// Wraps a profiler and corrupts deterministic calls to NaN. `period`
    /// faults replay the true measurement on the retry (a transient glitch,
    /// like `alic_core::fault::ChaosProfiler`); calls inside `nan_window`
    /// are NaN unconditionally (a persistently broken evaluator).
    struct FlakyProfiler {
        inner: SimulatedProfiler,
        pending: Option<Measurement>,
        period: usize,
        nan_window: std::ops::Range<usize>,
        calls: usize,
    }

    impl FlakyProfiler {
        fn transient(inner: SimulatedProfiler, period: usize) -> Self {
            FlakyProfiler {
                inner,
                pending: None,
                period,
                nan_window: 0..0,
                calls: 0,
            }
        }

        fn broken_during(inner: SimulatedProfiler, nan_window: std::ops::Range<usize>) -> Self {
            FlakyProfiler {
                inner,
                pending: None,
                period: usize::MAX,
                nan_window,
                calls: 0,
            }
        }
    }

    impl Profiler for FlakyProfiler {
        fn space(&self) -> &alic_sim::ParameterSpace {
            self.inner.space()
        }

        fn kernel_name(&self) -> &str {
            self.inner.kernel_name()
        }

        fn measure(&mut self, config: &Configuration) -> Measurement {
            self.calls += 1;
            if self.nan_window.contains(&(self.calls - 1)) {
                return Measurement {
                    runtime: f64::NAN,
                    compile_time: 0.0,
                    compiled: false,
                };
            }
            if let Some(m) = self.pending.take() {
                return m;
            }
            let m = self.inner.measure(config);
            if self.calls.is_multiple_of(self.period) {
                self.pending = Some(m);
                return Measurement {
                    runtime: f64::NAN,
                    ..m
                };
            }
            m
        }

        fn true_mean(&self, config: &Configuration) -> f64 {
            self.inner.true_mean(config)
        }
    }

    #[test]
    fn transient_nan_measurements_heal_to_an_identical_run() {
        let (mut clean, dataset, split) = toy_setup(NoiseProfile::moderate());
        let config = small_config(SamplingPlan::sequential(5));
        let mut learner = ActiveLearner::new(config, &mut clean);
        let mut model = small_model(1);
        let baseline = learner.run(&mut model, &dataset, &split).unwrap();

        // Same inner profiler, but every 7th measurement comes back NaN once
        // and the retry replays the true value: the retry policy must absorb
        // the glitches without leaving ANY trace — the healed run is equal
        // to the clean one, quarantine counter included.
        let mut flaky = FlakyProfiler::transient(toy_profiler(NoiseProfile::moderate(), 11), 7);
        let mut learner = ActiveLearner::new(config, &mut flaky);
        let mut model = small_model(1);
        let healed = learner.run(&mut model, &dataset, &split).unwrap();

        assert!(flaky.calls > 60, "the fault path must actually have fired");
        assert_eq!(healed, baseline);
        assert_eq!(healed.ledger.quarantined(), 0);
    }

    #[test]
    fn exhausted_observation_retries_lose_the_observation_not_the_run() {
        let (_, dataset, split) = toy_setup(NoiseProfile::moderate());
        let config = small_config(SamplingPlan::sequential(5));
        // Three consecutive NaN calls well after seeding: one observation's
        // full retry budget (1 + OBSERVATION_RETRIES) is exhausted and the
        // observation is quarantined, but the run completes.
        let start = 40;
        let mut flaky = FlakyProfiler::broken_during(
            toy_profiler(NoiseProfile::moderate(), 11),
            start..start + OBSERVATION_RETRIES + 1,
        );
        let mut learner = ActiveLearner::new(config, &mut flaky);
        let mut model = small_model(1);
        let run = learner.run(&mut model, &dataset, &split).unwrap();
        assert_eq!(run.ledger.quarantined(), 1);
        assert_eq!(run.iterations, config.max_iterations);
        assert!(run.curve.final_rmse().unwrap().is_finite());
    }

    #[test]
    fn a_dead_evaluator_during_seeding_is_an_evaluator_error() {
        let (_, dataset, split) = toy_setup(NoiseProfile::moderate());
        let config = small_config(SamplingPlan::sequential(5));
        let mut dead =
            FlakyProfiler::broken_during(toy_profiler(NoiseProfile::moderate(), 11), 0..usize::MAX);
        let mut learner = ActiveLearner::new(config, &mut dead);
        let mut model = small_model(1);
        assert!(matches!(
            learner.run(&mut model, &dataset, &split),
            Err(CoreError::Evaluator(_))
        ));
    }

    #[test]
    fn runs_are_reproducible_for_identical_seeds() {
        let run_once = || {
            let mut profiler = toy_profiler(NoiseProfile::moderate(), 21);
            let dataset = {
                let mut gen_profiler = toy_profiler(NoiseProfile::moderate(), 1);
                Dataset::generate(
                    &mut gen_profiler,
                    &DatasetConfig {
                        configurations: 150,
                        observations: 5,
                        seed: 2,
                    },
                )
            };
            let split = dataset.split(100, 3);
            let config = small_config(SamplingPlan::sequential(5));
            let mut learner = ActiveLearner::new(config, &mut profiler);
            let mut model = small_model(9);
            learner.run(&mut model, &dataset, &split).unwrap()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.ledger, b.ledger);
    }
}
