//! Consistency guarantees of the batched scoring pipeline.
//!
//! Two properties guard the zero-copy batch APIs introduced with the
//! flat-feature pipeline:
//!
//! 1. For **every** surrogate family, `predict_batch` / `alm_scores` /
//!    `alc_scores` must agree with their single-point counterparts to
//!    1e-12 — batching is an implementation detail, never a semantic change.
//! 2. Learner runs must be bit-identical across worker-thread counts: the
//!    parallel scoring paths write back by index and accumulate in a fixed
//!    order, so 1 thread and 4 threads must produce the same run.
//! 3. `alc_rank` must equal a stable sort of `alc_scores` (descending,
//!    ties to the lower index) for every family and thread count, whether
//!    it ranks through the default or, like the dynamic tree, scores only
//!    the candidates that can reach the top `k`.

use alic::core::prelude::*;
use alic::data::dataset::{Dataset, DatasetConfig};
use alic::model::SurrogateSpec;
use alic::sim::noise::NoiseProfile;
use alic::sim::profiler::SimulatedProfiler;
use alic::sim::space::ParamSpec;
use alic::sim::KernelSpec;
use proptest::prelude::*;

/// Deterministic, well-spread 2-D training data (no degenerate kernel
/// matrices, so the Gaussian process always fits).
fn training_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let a = (i as f64 + (seed % 7) as f64 * 0.09) / n as f64;
        let b = ((i * 13 + seed as usize) % n) as f64 / n as f64;
        xs.push(vec![a, b]);
        ys.push((5.0 * a).sin() + 0.7 * b + 0.01 * ((seed % 11) as f64));
    }
    (xs, ys)
}

/// Every surrogate family, with ensemble sizes small enough for a property
/// test but covering each `SurrogateSpec` variant.
fn all_specs() -> Vec<SurrogateSpec> {
    SurrogateSpec::all()
        .into_iter()
        .map(|spec| match spec {
            SurrogateSpec::DynaTree(_) => SurrogateSpec::dynatree(30),
            other => other,
        })
        .collect()
}

proptest! {
    #[test]
    fn batch_apis_agree_with_single_point(n in 12usize..30, seed in 0u64..200, shift in 0.0f64..0.5) {
        let (xs, ys) = training_data(n, seed);
        let queries: Vec<Vec<f64>> = (0..17)
            .map(|i| vec![shift + i as f64 / 17.0, 1.0 - i as f64 / 17.0])
            .collect();
        let query_views: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let reference_views: Vec<&[f64]> = query_views[..5].to_vec();
        for spec in all_specs() {
            let mut model = spec.build(seed);
            let views = alic::model::row_views(&xs);
            model.fit(&views, &ys).unwrap_or_else(|e| panic!("{spec}: fit failed: {e}"));

            let batch = model.predict_batch(&query_views).unwrap();
            let alm = model.alm_scores(&query_views).unwrap();
            let alc = model.alc_scores(&query_views, &reference_views).unwrap();
            prop_assert_eq!(batch.len(), queries.len());
            for (i, view) in query_views.iter().enumerate() {
                let single = model.predict(view).unwrap();
                prop_assert!(
                    (batch[i].mean - single.mean).abs() <= 1e-12,
                    "{} mean: batch {} vs single {}", spec, batch[i].mean, single.mean
                );
                prop_assert!(
                    (batch[i].variance - single.variance).abs() <= 1e-12,
                    "{} variance: batch {} vs single {}", spec, batch[i].variance, single.variance
                );
                let alm_single = model.alm_score(view).unwrap();
                prop_assert!(
                    (alm[i] - alm_single).abs() <= 1e-12,
                    "{} alm: batch {} vs single {}", spec, alm[i], alm_single
                );
                let alc_single = model.alc_score(view, &reference_views).unwrap();
                prop_assert!(
                    (alc[i] - alc_single).abs() <= 1e-12,
                    "{} alc: batch {} vs single {}", spec, alc[i], alc_single
                );
            }
        }
    }
}

fn toy_profiler(seed: u64) -> SimulatedProfiler {
    let spec = KernelSpec::new(
        "toy",
        vec![ParamSpec::unroll("u1"), ParamSpec::unroll("u2")],
        1.0,
        0.5,
        NoiseProfile::moderate(),
    )
    .unwrap()
    .with_surface_seed(7);
    SimulatedProfiler::new(spec, seed)
}

fn run_learner(spec: SurrogateSpec) -> LearnerRun {
    let dataset = {
        let mut gen_profiler = toy_profiler(1);
        Dataset::generate(
            &mut gen_profiler,
            &DatasetConfig {
                configurations: 180,
                observations: 4,
                seed: 2,
            },
        )
    };
    let split = dataset.split(130, 3);
    let config = LearnerConfig {
        initial_examples: 5,
        initial_observations: 4,
        candidates_per_iteration: 40,
        max_iterations: 50,
        evaluate_every: 10,
        acquisition: Acquisition::Alc { reference_size: 25 },
        plan: SamplingPlan::sequential(4),
        criteria: CompletionCriteria::none(),
        seed: 9,
    };
    let mut profiler = toy_profiler(21);
    let mut learner = ActiveLearner::new(config, &mut profiler);
    let mut model = spec.build(13);
    learner.run(model.as_mut(), &dataset, &split).unwrap()
}

/// The `RAYON_NUM_THREADS=1` vs `4` determinism guarantee, for the dynamic
/// tree (parallel tree traversals) and the Gaussian process (parallel
/// blocked triangular solves). The shim's programmatic override stands in
/// for the environment variable because `setenv` concurrent with
/// worker-thread `getenv` is undefined behavior on glibc;
/// `current_num_threads` reads the override exactly where it would read
/// `RAYON_NUM_THREADS`.
#[test]
fn learner_runs_are_identical_across_thread_counts() {
    for spec in [
        SurrogateSpec::dynatree(50),
        SurrogateSpec::from_name("gp").unwrap(),
    ] {
        rayon::set_num_threads(1);
        let serial = run_learner(spec);
        rayon::set_num_threads(4);
        let parallel = run_learner(spec);
        rayon::set_num_threads(0);
        assert_eq!(serial.curve, parallel.curve, "{spec}: curve diverged");
        assert_eq!(serial.ledger, parallel.ledger, "{spec}: ledger diverged");
        assert_eq!(serial.visited, parallel.visited, "{spec}: visits diverged");
        assert_eq!(serial.iterations, parallel.iterations);
    }
}

/// The stable-sort oracle of `alc_rank`: indices by descending score, ties
/// in index order, cut to `k`.
fn stable_rank(scores: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
    order.truncate(k);
    order
}

/// `alc_rank` equals a stable sort of `alc_scores` for every family, at
/// `k` = 1, 3 and the full length, on candidate sets with duplicated rows
/// (exact ties) and more than one 64-row block, with reference sets of
/// one, several and more than one chunk (and none, the ALM fallback), at
/// one worker thread and at three.
#[test]
fn alc_rank_is_a_stable_sort_of_alc_scores() {
    for seed in 0..4u64 {
        let (xs, ys) = training_data(20 + 3 * seed as usize, seed);
        let mut queries: Vec<Vec<f64>> = (0..90)
            .map(|i| {
                let a = ((i * 37 + seed as usize) % 90) as f64 / 89.0;
                vec![a, 1.0 - ((i * 11) % 17) as f64 / 16.0]
            })
            .collect();
        // Duplicated candidates tie exactly; training rows sit on the
        // trees' data.
        queries.extend(queries[..25].to_vec());
        queries.extend(xs[..10].to_vec());
        let query_views: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        for spec in all_specs() {
            let mut model = spec.build(seed);
            model.fit(&alic::model::row_views(&xs), &ys).unwrap();
            for references in [0usize, 1, 7, 70] {
                let reference = &query_views[..references];
                let scores = model.alc_scores(&query_views, reference).unwrap();
                for k in [1, 3, query_views.len()] {
                    let expected = stable_rank(&scores, k);
                    for threads in [1, 3] {
                        rayon::set_num_threads(threads);
                        let ranked = model.alc_rank(&query_views, reference, k).unwrap();
                        rayon::set_num_threads(0);
                        assert_eq!(
                            ranked, expected,
                            "{spec}: seed {seed}, {references} references, k {k}, {threads} threads"
                        );
                    }
                }
            }
        }
    }
}
