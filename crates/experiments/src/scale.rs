//! Experiment scale presets.
//!
//! The paper's full protocol (10,000 profiled configurations per kernel,
//! 2,500 learning iterations, 5,000 particles, 10 repetitions) takes days of
//! compute. The harness therefore offers three presets that keep the
//! experimental *structure* identical while trading run time for statistical
//! resolution.

use alic_core::experiment::ComparisonConfig;
use alic_core::learner::LearnerConfig;
use alic_core::plan::SamplingPlan;
use alic_data::dataset::DatasetConfig;
use alic_model::dynatree::DynaTreeConfig;
use alic_model::SurrogateSpec;

/// How much work an experiment binary performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Smoke-test sizes; finishes in a few seconds. Used by integration
    /// tests.
    Quick,
    /// Laptop-scale sizes reproducing the qualitative shapes of the paper's
    /// results in minutes. The default.
    #[default]
    Laptop,
    /// Sizes approaching the paper's protocol; expect hours.
    Full,
}

impl Scale {
    /// Parses a scale name (`quick`, `laptop`, `full`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "quick" | "smoke" => Some(Scale::Quick),
            "laptop" | "default" => Some(Scale::Laptop),
            "full" | "paper" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Number of dynamic-tree particles appropriate for this scale (the
    /// paper's full protocol uses thousands; smoke tests get by with dozens).
    pub fn particles(self) -> usize {
        match self {
            Scale::Quick => 40,
            Scale::Laptop => 60,
            Scale::Full => 1_000,
        }
    }

    /// The default surrogate for this scale: the paper's dynamic tree with
    /// [`Scale::particles`] particles.
    pub fn default_model(self) -> SurrogateSpec {
        self.scaled_model(SurrogateSpec::default())
    }

    /// Adjusts a surrogate specification to this scale. Stochastic-ensemble
    /// hyper-parameters (the dynamic tree's particle count) follow the scale;
    /// every other family is already scale-independent and passes through
    /// unchanged.
    pub fn scaled_model(self, model: SurrogateSpec) -> SurrogateSpec {
        match model {
            SurrogateSpec::DynaTree(config) => SurrogateSpec::DynaTree(DynaTreeConfig {
                particles: self.particles(),
                ..config
            }),
            other => other,
        }
    }

    /// The plan-comparison configuration for this scale with an explicit
    /// surrogate model (used by the binaries' `--model` / `ALIC_MODEL`
    /// selection).
    pub fn comparison_config_for(self, model: SurrogateSpec) -> ComparisonConfig {
        ComparisonConfig {
            model: self.scaled_model(model),
            ..self.comparison_config()
        }
    }

    /// The plan-comparison configuration for this scale (used by Table 1,
    /// Figure 5, Figure 6 and the ablations).
    pub fn comparison_config(self) -> ComparisonConfig {
        match self {
            Scale::Quick => ComparisonConfig {
                learner: LearnerConfig {
                    initial_examples: 4,
                    initial_observations: 8,
                    candidates_per_iteration: 25,
                    max_iterations: 60,
                    evaluate_every: 10,
                    ..Default::default()
                },
                plans: default_plans(8),
                repetitions: 2,
                model: Scale::Quick.default_model(),
                dataset: DatasetConfig {
                    configurations: 300,
                    observations: 8,
                    seed: 0,
                },
                train_size: 220,
                grid_resolution: 60,
                seed: 0,
            },
            Scale::Laptop => ComparisonConfig {
                learner: LearnerConfig {
                    initial_examples: 5,
                    initial_observations: 35,
                    candidates_per_iteration: 60,
                    // Large enough that the 35-observation baseline completes
                    // a meaningful number of training examples within the
                    // cost window where all plans are simultaneously active.
                    max_iterations: 900,
                    evaluate_every: 15,
                    ..Default::default()
                },
                plans: default_plans(35),
                repetitions: 3,
                model: Scale::Laptop.default_model(),
                dataset: DatasetConfig {
                    configurations: 2_000,
                    observations: 35,
                    seed: 0,
                },
                train_size: 1_500,
                grid_resolution: 150,
                seed: 0,
            },
            Scale::Full => ComparisonConfig {
                learner: LearnerConfig {
                    initial_examples: 5,
                    initial_observations: 35,
                    candidates_per_iteration: 500,
                    max_iterations: 2_500,
                    evaluate_every: 25,
                    ..Default::default()
                },
                plans: default_plans(35),
                repetitions: 10,
                model: Scale::Full.default_model(),
                dataset: DatasetConfig {
                    configurations: 10_000,
                    observations: 35,
                    seed: 0,
                },
                train_size: 7_500,
                grid_resolution: 400,
                seed: 0,
            },
        }
    }

    /// Number of grid points per unroll axis for the Figure 1 study.
    pub fn fig1_grid(self) -> u32 {
        match self {
            Scale::Quick => 10,
            Scale::Laptop | Scale::Full => 30,
        }
    }

    /// Observations per configuration for the Figure 1 / Table 2 studies.
    pub fn observations(self) -> usize {
        match self {
            Scale::Quick => 15,
            Scale::Laptop | Scale::Full => 35,
        }
    }

    /// Number of random configurations sampled per kernel for Table 2.
    pub fn table2_configurations(self) -> usize {
        match self {
            Scale::Quick => 60,
            Scale::Laptop => 300,
            Scale::Full => 2_000,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Scale::Quick => "quick",
            Scale::Laptop => "laptop",
            Scale::Full => "full",
        };
        f.write_str(name)
    }
}

/// The paper's three sampling plans, with the fixed/"all observations" count
/// scaled alongside the rest of the preset.
fn default_plans(observations: usize) -> Vec<SamplingPlan> {
    vec![
        SamplingPlan::fixed(observations),
        SamplingPlan::one_observation(),
        SamplingPlan::sequential(observations),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        assert_eq!(Scale::from_name("quick"), Some(Scale::Quick));
        assert_eq!(Scale::from_name("LAPTOP"), Some(Scale::Laptop));
        assert_eq!(Scale::from_name("full"), Some(Scale::Full));
        assert_eq!(Scale::from_name("bogus"), None);
        assert_eq!(Scale::Laptop.to_string(), "laptop");
    }

    #[test]
    fn presets_grow_with_scale() {
        let quick = Scale::Quick.comparison_config();
        let laptop = Scale::Laptop.comparison_config();
        let full = Scale::Full.comparison_config();
        assert!(quick.learner.max_iterations < laptop.learner.max_iterations);
        assert!(laptop.learner.max_iterations < full.learner.max_iterations);
        assert!(quick.dataset.configurations < full.dataset.configurations);
        assert_eq!(full.learner.initial_observations, 35);
        assert_eq!(full.repetitions, 10);
    }

    #[test]
    fn every_preset_compares_the_papers_three_plans() {
        for scale in [Scale::Quick, Scale::Laptop, Scale::Full] {
            let config = scale.comparison_config();
            assert_eq!(config.plans.len(), 3);
            assert!(config.plans.iter().any(|p| p.allows_revisits()));
            assert!(config.plans.contains(&SamplingPlan::one_observation()));
        }
    }

    #[test]
    fn default_model_particles_grow_with_scale() {
        for scale in [Scale::Quick, Scale::Laptop, Scale::Full] {
            match scale.default_model() {
                SurrogateSpec::DynaTree(config) => assert_eq!(config.particles, scale.particles()),
                other => panic!("default model must be the dynamic tree, got {other}"),
            }
        }
        assert!(Scale::Quick.particles() < Scale::Full.particles());
    }

    #[test]
    fn scaled_model_leaves_deterministic_families_alone() {
        let cart = SurrogateSpec::from_name("cart").unwrap();
        assert_eq!(Scale::Full.scaled_model(cart), cart);
        let config = Scale::Quick.comparison_config_for(cart);
        assert_eq!(config.model, cart);
        // The rest of the preset is untouched by the model choice.
        assert_eq!(
            config.repetitions,
            Scale::Quick.comparison_config().repetitions
        );
    }
}
