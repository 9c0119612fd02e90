//! Profiled datasets.

use rand::Rng as _;
use serde::{Deserialize, Serialize};

use alic_sim::profiler::Profiler;
use alic_sim::space::Configuration;
use alic_stats::normalize::Normalizer;
use alic_stats::rng::seeded_stream;
use alic_stats::summary::Summary;
use alic_stats::FeatureMatrix;

use crate::split::TrainTestSplit;

/// How a dataset is generated from a profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Number of distinct configurations to profile (the paper uses 10,000).
    pub configurations: usize,
    /// Number of runtime observations per configuration (the paper uses 35).
    pub observations: usize,
    /// Seed for configuration selection.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            configurations: 10_000,
            observations: 35,
            seed: 0,
        }
    }
}

/// One profiled configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataPoint {
    /// The configuration that was profiled.
    pub configuration: Configuration,
    /// Mean runtime over the recorded observations, in seconds.
    pub mean_runtime: f64,
    /// Unbiased sample variance of the recorded observations.
    pub runtime_variance: f64,
    /// Number of observations behind the mean.
    pub observations: usize,
    /// Compilation time charged for this configuration, in seconds.
    pub compile_time: f64,
    /// Ground-truth mean runtime from the simulator (used only for
    /// evaluating models, never for training them).
    pub true_mean: f64,
}

/// A profiled dataset for one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    kernel: String,
    points: Vec<DataPoint>,
    normalizer: Normalizer,
}

impl Dataset {
    /// Profiles `config.configurations` distinct random configurations with
    /// `config.observations` runs each, mirroring §4.5 of the paper.
    pub fn generate<P: Profiler>(profiler: &mut P, config: &DatasetConfig) -> Self {
        let mut rng = seeded_stream(config.seed, 0xDA7A);
        let configurations = profiler
            .space()
            .sample_distinct(&mut rng, config.configurations);
        let mut points = Vec::with_capacity(configurations.len());
        for configuration in configurations {
            let mut runtimes = Vec::with_capacity(config.observations);
            let mut compile_time = 0.0;
            for _ in 0..config.observations.max(1) {
                let m = profiler.measure(&configuration);
                compile_time += m.compile_time;
                runtimes.push(m.runtime);
            }
            let summary = Summary::from_slice(&runtimes);
            points.push(DataPoint {
                true_mean: profiler.true_mean(&configuration),
                configuration,
                mean_runtime: summary.mean,
                runtime_variance: summary.variance,
                observations: summary.count,
                compile_time,
            });
        }
        let raw: Vec<Vec<f64>> = points
            .iter()
            .map(|p| p.configuration.to_features())
            .collect();
        let normalizer = Normalizer::fit(&raw).expect("dataset is never empty");
        Dataset {
            kernel: profiler.kernel_name().to_string(),
            points,
            normalizer,
        }
    }

    /// Kernel name this dataset was profiled from.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// The profiled points.
    pub fn points(&self) -> &[DataPoint] {
        &self.points
    }

    /// Number of profiled configurations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The feature normalizer fitted on this dataset (scaling and centring,
    /// §4.5).
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Normalized feature vector of point `index`.
    pub fn features(&self, index: usize) -> Vec<f64> {
        self.normalizer
            .transform_row(&self.points[index].configuration.to_features())
            .expect("points have consistent dimensionality")
    }

    /// Normalized feature vectors of every point, in order.
    pub fn all_features(&self) -> Vec<Vec<f64>> {
        (0..self.len()).map(|i| self.features(i)).collect()
    }

    /// Normalized features of the given points, gathered into flat row-major
    /// storage — the representation the learner keeps its pool and test sets
    /// in, so candidate sets can be zero-copy row views.
    pub fn features_matrix(&self, indices: &[usize]) -> FeatureMatrix {
        let dim = self.features(0).len();
        let mut matrix = FeatureMatrix::with_capacity(dim, indices.len());
        for &i in indices {
            matrix.push_row(&self.features(i));
        }
        matrix
    }

    /// Normalized features of every point as a flat row-major matrix.
    pub fn all_features_matrix(&self) -> FeatureMatrix {
        let indices: Vec<usize> = (0..self.len()).collect();
        self.features_matrix(&indices)
    }

    /// Normalized feature vector for an arbitrary configuration.
    pub fn features_of(&self, configuration: &Configuration) -> Vec<f64> {
        self.normalizer
            .transform_row(&configuration.to_features())
            .expect("configuration dimensionality matches the dataset")
    }

    /// Total profiling cost (compile + runs) that generating this dataset
    /// charged, in seconds.
    pub fn generation_cost(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.compile_time + p.mean_runtime * p.observations as f64)
            .sum()
    }

    /// Splits the dataset into `train_size` training points and the rest as
    /// test points, shuffled with `seed` (the paper uses 7,500 / 2,500).
    ///
    /// # Panics
    ///
    /// Panics if `train_size > len()`.
    pub fn split(&self, train_size: usize, seed: u64) -> TrainTestSplit {
        TrainTestSplit::new(self.len(), train_size, seed)
    }

    /// The point with the lowest mean runtime (the tuning goal).
    pub fn best_point(&self) -> Option<&DataPoint> {
        self.points.iter().min_by(|a, b| {
            a.mean_runtime
                .partial_cmp(&b.mean_runtime)
                .expect("finite runtimes")
        })
    }

    /// Draws `count` indices uniformly at random (with `seed`), useful for
    /// sub-sampling reference sets.
    pub fn sample_indices(&self, count: usize, seed: u64) -> Vec<usize> {
        let mut rng = seeded_stream(seed, 0x5a3e);
        (0..count.min(self.len()))
            .map(|_| rng.gen_range(0..self.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alic_sim::noise::NoiseProfile;
    use alic_sim::profiler::SimulatedProfiler;
    use alic_sim::space::ParamSpec;
    use alic_sim::KernelSpec;

    fn toy_profiler(noise: NoiseProfile) -> SimulatedProfiler {
        let spec = KernelSpec::new(
            "toy",
            vec![ParamSpec::unroll("u1"), ParamSpec::unroll("u2")],
            1.0,
            0.5,
            noise,
        )
        .unwrap()
        .with_surface_seed(5);
        SimulatedProfiler::new(spec, 3)
    }

    fn small_dataset() -> Dataset {
        let mut profiler = toy_profiler(NoiseProfile::quiet());
        Dataset::generate(
            &mut profiler,
            &DatasetConfig {
                configurations: 120,
                observations: 3,
                seed: 1,
            },
        )
    }

    #[test]
    fn generates_the_requested_number_of_distinct_points() {
        let dataset = small_dataset();
        assert_eq!(dataset.len(), 120);
        let unique: std::collections::HashSet<_> = dataset
            .points()
            .iter()
            .map(|p| p.configuration.clone())
            .collect();
        assert_eq!(unique.len(), 120);
        assert_eq!(dataset.kernel(), "toy");
    }

    #[test]
    fn quiet_noise_means_sample_mean_matches_truth() {
        let dataset = small_dataset();
        for p in dataset.points() {
            assert!((p.mean_runtime - p.true_mean).abs() < 1e-2);
            assert_eq!(p.observations, 3);
            assert!(p.compile_time > 0.0);
        }
    }

    #[test]
    fn features_are_normalized() {
        let dataset = small_dataset();
        let features = dataset.all_features();
        // Column means should be near zero after centring.
        for d in 0..2 {
            let column: Vec<f64> = features.iter().map(|f| f[d]).collect();
            let mean = column.iter().sum::<f64>() / column.len() as f64;
            assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn features_of_matches_indexed_features() {
        let dataset = small_dataset();
        let direct = dataset.features(7);
        let via_config = dataset.features_of(&dataset.points()[7].configuration);
        assert_eq!(direct, via_config);
    }

    #[test]
    fn features_matrix_matches_per_point_features() {
        let dataset = small_dataset();
        let indices = vec![3usize, 11, 7, 0];
        let matrix = dataset.features_matrix(&indices);
        assert_eq!(matrix.len(), indices.len());
        for (row, &i) in matrix.rows().zip(&indices) {
            assert_eq!(row, dataset.features(i).as_slice());
        }
        let all = dataset.all_features_matrix();
        assert_eq!(all.len(), dataset.len());
        assert_eq!(all.row(5), dataset.features(5).as_slice());
    }

    #[test]
    fn generation_cost_counts_compiles_and_runs() {
        let dataset = small_dataset();
        assert!(dataset.generation_cost() > 0.0);
        // Roughly: 120 configurations × (compile ~0.5 s + 3 runs × ~1 s).
        assert!(dataset.generation_cost() > 120.0 * 1.0);
    }

    #[test]
    fn best_point_has_minimum_runtime() {
        let dataset = small_dataset();
        let best = dataset.best_point().unwrap();
        assert!(dataset
            .points()
            .iter()
            .all(|p| p.mean_runtime >= best.mean_runtime));
    }

    #[test]
    fn generation_is_deterministic_in_seed_and_profiler_seed() {
        let make = || {
            let mut profiler = toy_profiler(NoiseProfile::moderate());
            Dataset::generate(
                &mut profiler,
                &DatasetConfig {
                    configurations: 40,
                    observations: 4,
                    seed: 9,
                },
            )
        };
        let a = make();
        let b = make();
        assert_eq!(a, b);
    }

    #[test]
    fn sample_indices_are_in_range() {
        let dataset = small_dataset();
        for i in dataset.sample_indices(30, 2) {
            assert!(i < dataset.len());
        }
    }
}
