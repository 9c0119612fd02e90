//! Model-agnostic surrogate specification.
//!
//! The experiment harness used to hard-wire the dynamic tree into every
//! protocol. [`SurrogateSpec`] decouples the two layers: an experiment
//! configuration carries a *description* of the surrogate (which family,
//! which hyper-parameters), and each repetition materializes a fresh model
//! from it via [`SurrogateSpec::build`]. Every model family of this crate is
//! representable, so benchmarking an active-learning strategy across model
//! families — the axis emphasized by the active-learning benchmarking
//! literature — becomes a configuration change instead of a code change.
//!
//! The spec is plain `Copy` data with string round-tripping through
//! [`SurrogateSpec::name`] / [`SurrogateSpec::from_name`] (the form the CLI
//! and `ALIC_MODEL` persist). It also carries the serde derives, but note
//! that the vendored offline `serde` is a no-op marker: full serde
//! serialization only becomes real once the genuine crate replaces the shim.

use serde::{Deserialize, Serialize};

use crate::baseline::ConstantMean;
use crate::cart::{CartConfig, RegressionTree};
use crate::dynatree::{DynaTree, DynaTreeConfig};
use crate::gp::{GaussianProcess, GpConfig};
use crate::knn::{KnnConfig, KnnRegressor};
use crate::traits::ActiveSurrogate;

/// A description of a surrogate model that can be stored in experiment
/// configurations and materialized on demand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SurrogateSpec {
    /// Particle-learning dynamic tree (the paper's model, §3.2).
    DynaTree(DynaTreeConfig),
    /// Static CART regression tree.
    Cart(CartConfig),
    /// Squared-exponential Gaussian process.
    Gp(GpConfig),
    /// k-nearest-neighbour regressor.
    Knn(KnnConfig),
    /// Constant-mean baseline (the floor every useful model must beat).
    Mean,
}

impl Default for SurrogateSpec {
    fn default() -> Self {
        SurrogateSpec::DynaTree(DynaTreeConfig::default())
    }
}

impl SurrogateSpec {
    /// Canonical lowercase name of the model family.
    pub fn name(&self) -> &'static str {
        match self {
            SurrogateSpec::DynaTree(_) => "dynatree",
            SurrogateSpec::Cart(_) => "cart",
            SurrogateSpec::Gp(_) => "gp",
            SurrogateSpec::Knn(_) => "knn",
            SurrogateSpec::Mean => "mean",
        }
    }

    /// The canonical names accepted by [`SurrogateSpec::from_name`], in
    /// presentation order.
    pub fn names() -> &'static [&'static str] {
        &["dynatree", "cart", "gp", "knn", "mean"]
    }

    /// Dynamic-tree spec with the given particle count and default priors —
    /// the constructor experiment presets use to size the ensemble without
    /// naming [`DynaTreeConfig`] themselves.
    pub fn dynatree(particles: usize) -> Self {
        SurrogateSpec::DynaTree(DynaTreeConfig {
            particles,
            ..Default::default()
        })
    }

    /// One default-configured spec per model family, in the order of
    /// [`SurrogateSpec::names`].
    pub fn all() -> [SurrogateSpec; 5] {
        [
            SurrogateSpec::DynaTree(DynaTreeConfig::default()),
            SurrogateSpec::Cart(CartConfig::default()),
            SurrogateSpec::Gp(GpConfig::default()),
            SurrogateSpec::Knn(KnnConfig::default()),
            SurrogateSpec::Mean,
        ]
    }

    /// Parses a model-family name (case-insensitive, with common aliases)
    /// into a default-configured spec.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "dynatree" | "dyna-tree" | "dynamic-tree" | "dt" => {
                Some(SurrogateSpec::DynaTree(DynaTreeConfig::default()))
            }
            "cart" | "tree" | "regression-tree" => Some(SurrogateSpec::Cart(CartConfig::default())),
            "gp" | "gaussian-process" => Some(SurrogateSpec::Gp(GpConfig::default())),
            "knn" | "k-nn" | "nearest-neighbour" | "nearest-neighbor" => {
                Some(SurrogateSpec::Knn(KnnConfig::default()))
            }
            "mean" | "baseline" | "constant" | "constant-mean" => Some(SurrogateSpec::Mean),
            _ => None,
        }
    }

    /// Materializes an unfitted surrogate from this description.
    ///
    /// `seed` feeds the model's internal randomness where the family has any
    /// (currently only the dynamic tree); deterministic families ignore it,
    /// so experiment harnesses can pass a per-repetition seed unconditionally.
    ///
    /// The box is `Send` so long-lived services (the serve daemon's engine)
    /// can hold sessions on any thread; every model family is plain owned
    /// data.
    pub fn build(&self, seed: u64) -> Box<dyn ActiveSurrogate + Send> {
        match *self {
            SurrogateSpec::DynaTree(config) => {
                Box::new(DynaTree::new(DynaTreeConfig { seed, ..config }))
            }
            SurrogateSpec::Cart(config) => Box::new(RegressionTree::new(config)),
            SurrogateSpec::Gp(config) => Box::new(GaussianProcess::new(config)),
            SurrogateSpec::Knn(config) => Box::new(KnnRegressor::new(config)),
            SurrogateSpec::Mean => Box::new(ConstantMean::new()),
        }
    }
}

impl std::fmt::Display for SurrogateSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_views;

    fn training_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 + x[0] * x[0]).collect();
        (xs, ys)
    }

    #[test]
    fn every_name_round_trips() {
        for &name in SurrogateSpec::names() {
            let spec = SurrogateSpec::from_name(name).expect("listed names must parse");
            assert_eq!(spec.name(), name);
            assert_eq!(spec.to_string(), name);
        }
        assert_eq!(
            SurrogateSpec::from_name("DynaTree").unwrap().name(),
            "dynatree"
        );
        assert!(SurrogateSpec::from_name("bogus").is_none());
    }

    #[test]
    fn all_covers_every_family_once() {
        let names: Vec<&str> = SurrogateSpec::all().iter().map(|s| s.name()).collect();
        assert_eq!(names, SurrogateSpec::names());
    }

    #[test]
    fn every_family_builds_fits_and_predicts() {
        let (xs, ys) = training_data();
        for spec in SurrogateSpec::all() {
            let mut model = spec.build(7);
            model
                .fit(&row_views(&xs), &ys)
                .unwrap_or_else(|e| panic!("{spec}: fit failed: {e}"));
            model.update(&[0.5], 1.3).unwrap();
            let pred = model.predict(&[0.25]).unwrap();
            assert!(pred.mean.is_finite(), "{spec}: non-finite mean");
            assert!(pred.variance >= 0.0, "{spec}: negative variance");
            assert!(model.observation_count() > 0);
            // The acquisition path must work through the trait object too.
            let score = model.alm_score(&[0.75]).unwrap();
            assert!(score.is_finite());
        }
    }

    #[test]
    fn build_seeds_only_stochastic_families() {
        let (xs, ys) = training_data();
        // A deterministic family must produce identical predictions for
        // different seeds.
        let cart = SurrogateSpec::Cart(CartConfig::default());
        let mut a = cart.build(1);
        let mut b = cart.build(2);
        a.fit(&row_views(&xs), &ys).unwrap();
        b.fit(&row_views(&xs), &ys).unwrap();
        assert_eq!(a.predict(&[0.4]).unwrap(), b.predict(&[0.4]).unwrap());
    }

    #[test]
    fn dynatree_spec_preserves_hyperparameters() {
        let spec = SurrogateSpec::DynaTree(DynaTreeConfig {
            particles: 33,
            ..Default::default()
        });
        match spec {
            SurrogateSpec::DynaTree(config) => assert_eq!(config.particles, 33),
            _ => unreachable!(),
        }
        let (xs, ys) = training_data();
        let mut model = spec.build(5);
        model.fit(&row_views(&xs), &ys).unwrap();
        assert!(model.predict(&[0.1]).unwrap().mean.is_finite());
    }
}
