//! The profiler interface and its simulated implementation.
//!
//! Iterative compilation interacts with the outside world through exactly two
//! operations: *compile a configuration* and *run the resulting binary once,
//! obtaining one (noisy) runtime*. The [`Profiler`] trait captures that
//! interface; [`SimulatedProfiler`] implements it on top of the synthetic
//! kernel models of this crate, and a real harness driving an actual compiler
//! could implement the same trait without touching the learning code.

use std::collections::HashSet;

use alic_stats::rng::{seeded_stream, Rng as StatsRng};

use crate::cost::CompileCostModel;
use crate::kernel::KernelSpec;
use crate::noise::NoiseModel;
use crate::space::{Configuration, ParameterSpace};
use crate::surface::ResponseSurface;

/// The result of compiling (if needed) and running a configuration once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// The observed runtime of this single run, in seconds.
    pub runtime: f64,
    /// The compilation time charged for this measurement, in seconds.
    ///
    /// Non-zero only for the first measurement of a configuration: binaries
    /// are cached afterwards, exactly as an iterative-compilation harness
    /// would cache them on disk.
    pub compile_time: f64,
    /// Whether this measurement triggered a (re)compilation.
    pub compiled: bool,
}

/// Source of runtime observations for an iterative-compilation learner.
///
/// Implementations must charge realistic costs: the paper's evaluation metric
/// is the *cumulative compilation and runtime cost* of all profiling work
/// (§4.3), so every [`measure`](Profiler::measure) call reports the cost it
/// incurred.
pub trait Profiler {
    /// The tunable parameter space of the benchmark being profiled.
    fn space(&self) -> &ParameterSpace;

    /// Name of the benchmark being profiled.
    fn kernel_name(&self) -> &str;

    /// Compiles `config` if necessary and runs it once, returning the
    /// observed runtime and the charged cost.
    fn measure(&mut self, config: &Configuration) -> Measurement;

    /// Ground-truth mean runtime of `config`.
    ///
    /// Only available because this is a simulator; it is used exclusively
    /// for *evaluating* learned models (computing RMSE against the truth),
    /// never by the learners themselves.
    fn true_mean(&self, config: &Configuration) -> f64;
}

/// Simulated profiler for one kernel.
///
/// Only the noise draw differs between runs of the same binary, so the
/// profiler keeps the last configuration it measured together with that
/// configuration's true mean and noise standard deviation. A run of repeated
/// measurements of one configuration — the 35 observations per point of the
/// paper's protocol — computes that fixed state once and then only draws
/// noise. The memo never changes a measurement: the random draws and their
/// order are the same as without it.
///
/// # Examples
///
/// ```
/// use alic_sim::profiler::{Profiler, SimulatedProfiler};
/// use alic_sim::spapt::{spapt_kernel, SpaptKernel};
///
/// let mut profiler = SimulatedProfiler::new(spapt_kernel(SpaptKernel::Mvt), 7);
/// let config = profiler.space().default_configuration();
/// let first = profiler.measure(&config);
/// let second = profiler.measure(&config);
/// assert!(first.compiled);
/// assert!(!second.compiled); // binary is cached
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedProfiler {
    spec: KernelSpec,
    surface: ResponseSurface,
    noise: NoiseModel,
    cost: CompileCostModel,
    rng: StatsRng,
    compiled: HashSet<Configuration>,
    runs: u64,
    total_cost: f64,
    last: Option<LastMeasured>,
}

/// The fixed state of the configuration a [`SimulatedProfiler`] measured
/// last, reused while the same configuration is measured again.
#[derive(Debug, Clone)]
struct LastMeasured {
    config: Configuration,
    true_mean: f64,
    sigma: f64,
}

impl SimulatedProfiler {
    /// Creates a profiler for `spec`. All randomness (measurement noise) is
    /// derived from `seed`, so two profilers with the same spec and seed
    /// produce identical measurement streams.
    pub fn new(spec: KernelSpec, seed: u64) -> Self {
        let surface = ResponseSurface::new(
            spec.space(),
            spec.base_runtime(),
            spec.surface_seed(),
            spec.shape_overrides(),
        );
        let noise = NoiseModel::new(spec.space(), *spec.noise(), spec.surface_seed());
        let cost = CompileCostModel::new(spec.base_compile_time());
        let rng = seeded_stream(seed, 0x9A0F);
        SimulatedProfiler {
            spec,
            surface,
            noise,
            cost,
            rng,
            compiled: HashSet::new(),
            runs: 0,
            total_cost: 0.0,
            last: None,
        }
    }

    /// Number of runs executed so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Cumulative compile + run cost charged so far, in seconds.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }
}

impl Profiler for SimulatedProfiler {
    fn space(&self) -> &ParameterSpace {
        self.spec.space()
    }

    fn kernel_name(&self) -> &str {
        self.spec.name()
    }

    fn measure(&mut self, config: &Configuration) -> Measurement {
        let (true_mean, sigma, compile_time, newly_compiled) = match &self.last {
            // A repeat: the binary is cached and its fixed state is known.
            Some(last) if last.config == *config => (last.true_mean, last.sigma, 0.0, false),
            _ => {
                let newly_compiled = !self.compiled.contains(config);
                let compile_time = if newly_compiled {
                    self.compiled.insert(config.clone());
                    self.cost.compile_time(self.spec.space(), config)
                } else {
                    0.0
                };
                let true_mean = self.surface.true_mean(config);
                let sigma = self.noise.sigma(config);
                self.last = Some(LastMeasured {
                    config: config.clone(),
                    true_mean,
                    sigma,
                });
                (true_mean, sigma, compile_time, newly_compiled)
            }
        };
        let runtime = self.noise.sample_at(&mut self.rng, sigma, true_mean);
        self.runs += 1;
        self.total_cost += runtime + compile_time;
        Measurement {
            runtime,
            compile_time,
            compiled: newly_compiled,
        }
    }

    fn true_mean(&self, config: &Configuration) -> f64 {
        match &self.last {
            Some(last) if last.config == *config => last.true_mean,
            _ => self.surface.true_mean(config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseProfile;
    use crate::space::ParamSpec;
    use alic_stats::summary::Summary;

    fn toy_spec(noise: NoiseProfile) -> KernelSpec {
        KernelSpec::new(
            "toy",
            vec![ParamSpec::unroll("u1"), ParamSpec::unroll("u2")],
            1.0,
            0.5,
            noise,
        )
        .unwrap()
        .with_surface_seed(3)
    }

    #[test]
    fn compile_cost_is_charged_only_once_per_configuration() {
        let mut profiler = SimulatedProfiler::new(toy_spec(NoiseProfile::quiet()), 1);
        let config = Configuration::new(vec![10, 20]);
        let first = profiler.measure(&config);
        let second = profiler.measure(&config);
        assert!(first.compiled && first.compile_time > 0.0);
        assert!(!second.compiled && second.compile_time == 0.0);
        assert_eq!(profiler.compiled.len(), 1);
        assert_eq!(profiler.runs(), 2);
    }

    #[test]
    fn measurements_follow_the_ground_truth_under_quiet_noise() {
        let mut profiler = SimulatedProfiler::new(toy_spec(NoiseProfile::quiet()), 2);
        let config = Configuration::new(vec![5, 5]);
        let truth = profiler.true_mean(&config);
        let m = profiler.measure(&config);
        assert!((m.runtime - truth).abs() < 1e-3);
    }

    #[test]
    fn identical_seed_and_spec_replay_identical_streams() {
        let mut a = SimulatedProfiler::new(toy_spec(NoiseProfile::moderate()), 77);
        let mut b = SimulatedProfiler::new(toy_spec(NoiseProfile::moderate()), 77);
        let config = Configuration::new(vec![3, 9]);
        for _ in 0..10 {
            assert_eq!(a.measure(&config), b.measure(&config));
        }
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let mut a = SimulatedProfiler::new(toy_spec(NoiseProfile::moderate()), 1);
        let mut b = SimulatedProfiler::new(toy_spec(NoiseProfile::moderate()), 2);
        let config = Configuration::new(vec![3, 9]);
        let ya: Vec<f64> = (0..5).map(|_| a.measure(&config).runtime).collect();
        let yb: Vec<f64> = (0..5).map(|_| b.measure(&config).runtime).collect();
        assert_ne!(ya, yb);
    }

    #[test]
    fn total_cost_accumulates_compile_and_run_time() {
        let mut profiler = SimulatedProfiler::new(toy_spec(NoiseProfile::quiet()), 5);
        let a = Configuration::new(vec![1, 1]);
        let b = Configuration::new(vec![30, 30]);
        let m1 = profiler.measure(&a);
        let m2 = profiler.measure(&b);
        let m3 = profiler.measure(&a);
        let expected: f64 = [m1, m2, m3]
            .iter()
            .map(|m| m.runtime + m.compile_time)
            .sum();
        assert!((profiler.total_cost() - expected).abs() < 1e-12);
    }

    #[test]
    fn repeated_measurements_average_to_the_truth() {
        let mut spec_noise = NoiseProfile::moderate();
        spec_noise.outlier_probability = 0.0;
        let mut profiler = SimulatedProfiler::new(toy_spec(spec_noise), 11);
        let config = Configuration::new(vec![15, 7]);
        let truth = profiler.true_mean(&config);
        let samples: Vec<f64> = (0..3000)
            .map(|_| profiler.measure(&config).runtime)
            .collect();
        let s = Summary::from_slice(&samples);
        assert!(
            (s.mean - truth).abs() < 0.02 * truth + 0.01,
            "sample mean {} vs truth {truth}",
            s.mean
        );
    }

    #[test]
    fn the_repeat_memo_never_changes_a_measurement() {
        use rand::Rng as _;

        let mut profiler = SimulatedProfiler::new(toy_spec(NoiseProfile::moderate()), 21);
        // The reference recomputes every configuration's fixed state on every
        // run, from clones taken before the first measure.
        let surface = profiler.surface.clone();
        let noise = profiler.noise.clone();
        let cost = profiler.cost;
        let mut rng = profiler.rng.clone();
        let mut compiled = HashSet::new();
        let (mut runs, mut total_cost) = (0u64, 0.0f64);

        let configs: Vec<Configuration> = [[1, 1], [30, 30], [7, 19], [15, 2]]
            .iter()
            .map(|v| Configuration::new(v.to_vec()))
            .collect();
        let mut script = seeded_stream(99, 1);
        for step in 0..600 {
            let config = &configs[script.gen_range(0..configs.len())];
            for _ in 0..script.gen_range(1..5) {
                let newly_compiled = compiled.insert(config.clone());
                let compile_time = if newly_compiled {
                    cost.compile_time(profiler.spec.space(), config)
                } else {
                    0.0
                };
                let runtime =
                    noise.sample_at(&mut rng, noise.sigma(config), surface.true_mean(config));
                runs += 1;
                total_cost += runtime + compile_time;

                let m = profiler.measure(config);
                assert_eq!(m.runtime.to_bits(), runtime.to_bits(), "step {step}");
                assert_eq!(m.compile_time.to_bits(), compile_time.to_bits());
                assert_eq!(m.compiled, newly_compiled);
                assert_eq!(profiler.true_mean(config), surface.true_mean(config));
            }
            assert_eq!(profiler.runs(), runs);
            assert_eq!(profiler.total_cost().to_bits(), total_cost.to_bits());
            assert_eq!(profiler.compiled.len(), compiled.len());
        }
        assert_eq!(profiler.compiled.len(), configs.len());
    }

    #[test]
    fn noise_scaling_increases_variance() {
        let config = Configuration::new(vec![8, 22]);
        let sample_variance = |factor: f64| {
            let noise = NoiseProfile::moderate().scaled(factor);
            let mut profiler = SimulatedProfiler::new(toy_spec(noise), 13);
            let xs: Vec<f64> = (0..800)
                .map(|_| profiler.measure(&config).runtime)
                .collect();
            Summary::from_slice(&xs).variance
        };
        assert!(sample_variance(4.0) > sample_variance(1.0));
    }
}
