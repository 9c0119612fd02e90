//! Shared fixtures for the Criterion benchmark suite.
//!
//! The benches in `benches/` measure the computational cost of the library
//! itself (model updates, acquisition scoring, simulator throughput) and of
//! regenerating each of the paper's tables and figures at a reduced scale.
//! The end-to-end benchmark of record is `perfbench/` (declared in
//! `BENCHMARK.json`); these benches are the per-kernel microscope beside it.

use alic_core::experiment::ComparisonConfig;
use alic_core::learner::LearnerConfig;
use alic_core::plan::SamplingPlan;
use alic_core::runner::CampaignSpec;
use alic_data::dataset::DatasetConfig;
use alic_model::dynatree::{DynaTree, DynaTreeConfig};
use alic_model::{row_views, SurrogateModel, SurrogateSpec};
use alic_sim::noise::NoiseProfile;
use alic_sim::profiler::SimulatedProfiler;
use alic_sim::space::ParamSpec;
use alic_sim::KernelSpec;

/// A small synthetic kernel used by the micro-benchmarks (three unroll
/// parameters, moderate noise).
pub fn bench_kernel() -> KernelSpec {
    bench_kernel_named("bench", 77)
}

/// A [`bench_kernel`]-shaped synthetic kernel with an explicit name and
/// response-surface seed, for fixtures that need several distinct kernels
/// (most importantly the campaign-runner workloads).
pub fn bench_kernel_named(name: &str, surface_seed: u64) -> KernelSpec {
    KernelSpec::new(
        name,
        vec![
            ParamSpec::unroll("u1"),
            ParamSpec::unroll("u2"),
            ParamSpec::unroll("u3"),
        ],
        1.0,
        0.5,
        NoiseProfile::moderate(),
    )
    .expect("non-empty parameter list")
    .with_surface_seed(surface_seed)
}

/// A fully structured campaign over two [`bench_kernel_named`] kernels, one
/// dynamic-tree model and the paper's three sampling plans — the fixture the
/// campaign-runner benchmarks execute through
/// [`run_campaign`](alic_core::runner::run_campaign).
pub fn bench_campaign(
    iterations: usize,
    candidates: usize,
    particles: usize,
    pool: usize,
) -> CampaignSpec {
    let base = ComparisonConfig {
        learner: LearnerConfig {
            initial_examples: 4,
            initial_observations: 6,
            candidates_per_iteration: candidates,
            max_iterations: iterations,
            evaluate_every: (iterations / 4).max(1),
            ..Default::default()
        },
        plans: vec![
            SamplingPlan::fixed(6),
            SamplingPlan::one_observation(),
            SamplingPlan::sequential(6),
        ],
        repetitions: 1,
        model: SurrogateSpec::dynatree(particles),
        dataset: DatasetConfig {
            configurations: pool,
            observations: 5,
            seed: 2,
        },
        train_size: (pool * 3) / 4,
        grid_resolution: 50,
        seed: 9,
    };
    CampaignSpec::new(
        vec![
            bench_kernel_named("bench-a", 77),
            bench_kernel_named("bench-b", 78),
        ],
        vec![SurrogateSpec::dynatree(particles)],
        base,
    )
}

/// A profiler over [`bench_kernel`].
pub fn bench_profiler(seed: u64) -> SimulatedProfiler {
    SimulatedProfiler::new(bench_kernel(), seed)
}

/// Synthetic regression data `y = sin(4x0) + 0.5 x1` on the unit square.
pub fn synthetic_training_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let a = (i % 37) as f64 / 36.0;
        let b = (i % 11) as f64 / 10.0;
        xs.push(vec![a, b]);
        ys.push((4.0 * a).sin() + 0.5 * b);
    }
    (xs, ys)
}

/// A dynamic tree fitted on `n` synthetic points with `particles` particles.
pub fn fitted_dynatree(n: usize, particles: usize) -> DynaTree {
    let (xs, ys) = synthetic_training_data(n);
    let mut model = DynaTree::new(DynaTreeConfig {
        particles,
        seed: 9,
        ..Default::default()
    });
    model
        .fit(&row_views(&xs), &ys)
        .expect("synthetic data is well formed");
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_well_formed() {
        let model = fitted_dynatree(50, 20);
        assert_eq!(model.observation_count(), 50);
    }

    #[test]
    fn campaign_fixture_runs_through_the_runner() {
        let spec = bench_campaign(6, 15, 15, 120);
        // 2 kernels x 1 model x 3 plans x 1 repetition.
        assert_eq!(spec.unit_count(), 6);
        let report = alic_core::runner::run_campaign(&spec).unwrap();
        assert_eq!(report.entries.len(), 2);
        assert_eq!(report.kernels, vec!["bench-a", "bench-b"]);
    }
}
