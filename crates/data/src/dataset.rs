//! Profiled datasets.

use serde::{Deserialize, Serialize};

use alic_sim::profiler::Profiler;
use alic_sim::space::Configuration;
use alic_stats::features::FeatureMatrix;
use alic_stats::normalize::Normalizer;
use alic_stats::rng::seeded_stream;
use alic_stats::summary::Summary;

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

    /// Normalized feature vector of point `index`.
    pub fn features(&self, index: usize) -> Vec<f64> {
        self.normalizer
            .transform_row(&self.points[index].configuration.to_features())
            .expect("points have consistent dimensionality")
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

    /// Normalized feature vector for an arbitrary configuration.
    pub fn features_of(&self, configuration: &Configuration) -> Vec<f64> {
        self.normalizer
            .transform_row(&configuration.to_features())
            .expect("configuration dimensionality matches the dataset")
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
        assert_eq!(dataset.kernel, "toy");
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
        let features: Vec<Vec<f64>> = (0..dataset.len()).map(|i| dataset.features(i)).collect();
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
        let all = dataset.features_matrix(&(0..dataset.len()).collect::<Vec<_>>());
        assert_eq!(all.len(), dataset.len());
        assert_eq!(all.row(5), dataset.features(5).as_slice());
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
}
