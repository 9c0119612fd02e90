//! Tunable parameter spaces and configurations.
//!
//! Every SPAPT search problem is defined by a set of integer tuning
//! parameters — loop unroll factors, cache-tile sizes, register-tile factors
//! (§4.1 of the paper). A [`ParameterSpace`] describes those parameters and a
//! [`Configuration`] assigns each a concrete value.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Result, SimError};

/// The kind of code transformation a tunable parameter controls.
///
/// The kind determines both the ground-truth response shape used by the
/// simulator and the compile-cost contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParamKind {
    /// Loop unroll factor (the paper's i1/i2 unroll factors; Figures 1–2).
    Unroll,
    /// Cache tiling (blocking) factor, expressed as an exponent of two.
    CacheTile,
    /// Register tiling factor.
    RegisterTile,
}

impl ParamKind {
    /// Human-readable name of the transformation.
    pub fn label(self) -> &'static str {
        match self {
            ParamKind::Unroll => "unroll",
            ParamKind::CacheTile => "cache-tile",
            ParamKind::RegisterTile => "register-tile",
        }
    }

    /// The kind whose [`label`](ParamKind::label) is `label`, if any.
    pub fn from_label(label: &str) -> Option<ParamKind> {
        [
            ParamKind::Unroll,
            ParamKind::CacheTile,
            ParamKind::RegisterTile,
        ]
        .into_iter()
        .find(|kind| kind.label() == label)
    }
}

/// One tunable parameter: a named integer with an inclusive range.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamSpec {
    /// Parameter name, e.g. `"U_i1"`.
    pub name: String,
    /// Transformation kind.
    pub kind: ParamKind,
    /// Smallest allowed value (inclusive).
    pub min: u32,
    /// Largest allowed value (inclusive).
    pub max: u32,
}

impl ParamSpec {
    /// Creates a parameter specification.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(name: impl Into<String>, kind: ParamKind, min: u32, max: u32) -> Self {
        assert!(min <= max, "parameter range is empty ({min}..={max})");
        ParamSpec {
            name: name.into(),
            kind,
            min,
            max,
        }
    }

    /// Standard unroll-factor parameter `1..=30` as used in the paper's
    /// motivation study.
    pub fn unroll(name: impl Into<String>) -> Self {
        ParamSpec::new(name, ParamKind::Unroll, 1, 30)
    }

    /// Standard cache-tile exponent parameter `0..=11` (tile sizes 1–2048).
    pub fn cache_tile(name: impl Into<String>) -> Self {
        ParamSpec::new(name, ParamKind::CacheTile, 0, 11)
    }

    /// Standard register-tile parameter `1..=16`.
    pub fn register_tile(name: impl Into<String>) -> Self {
        ParamSpec::new(name, ParamKind::RegisterTile, 1, 16)
    }

    /// Number of distinct values the parameter can take.
    pub fn cardinality(&self) -> u64 {
        (self.max - self.min + 1) as u64
    }

    /// Whether `value` is inside the allowed range.
    pub fn contains(&self, value: u32) -> bool {
        (self.min..=self.max).contains(&value)
    }
}

/// A concrete assignment of one value per tunable parameter.
///
/// Configurations are plain value vectors; validity with respect to a space
/// is checked by [`ParameterSpace::validate`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Configuration {
    values: Vec<u32>,
}

impl Configuration {
    /// Creates a configuration from raw parameter values.
    pub fn new(values: Vec<u32>) -> Self {
        Configuration { values }
    }

    /// The raw parameter values.
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// Number of parameter values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the configuration has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The configuration as a feature vector of `f64`, suitable for model
    /// input (before normalization).
    pub fn to_features(&self) -> Vec<f64> {
        self.values.iter().map(|&v| v as f64).collect()
    }
}

impl From<Vec<u32>> for Configuration {
    fn from(values: Vec<u32>) -> Self {
        Configuration::new(values)
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// The full tunable search space of a kernel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParameterSpace {
    params: Vec<ParamSpec>,
}

impl ParameterSpace {
    /// Creates a space from its parameter specifications.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySpace`] when `params` is empty.
    pub fn new(params: Vec<ParamSpec>) -> Result<Self> {
        if params.is_empty() {
            return Err(SimError::EmptySpace);
        }
        Ok(ParameterSpace { params })
    }

    /// The parameter specifications.
    pub fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    /// Number of tunable parameters (the model's feature dimensionality).
    pub fn dimension(&self) -> usize {
        self.params.len()
    }

    /// Total number of distinct configurations (the paper's Table 1 "search
    /// space" column), saturating at `u64::MAX`.
    pub fn cardinality(&self) -> u64 {
        self.params
            .iter()
            .fold(1u64, |acc, p| acc.saturating_mul(p.cardinality()))
    }

    /// Total number of distinct configurations as a floating-point number
    /// (the spaces in the paper reach 1.33e27, far beyond `u64`).
    pub fn cardinality_f64(&self) -> f64 {
        self.params.iter().map(|p| p.cardinality() as f64).product()
    }

    /// The configuration with every parameter at its minimum (the untuned
    /// `-O2` baseline point).
    pub fn default_configuration(&self) -> Configuration {
        Configuration::new(self.params.iter().map(|p| p.min).collect())
    }

    /// Checks that `config` is valid for this space.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ArityMismatch`] or [`SimError::ValueOutOfRange`].
    pub fn validate(&self, config: &Configuration) -> Result<()> {
        if config.len() != self.dimension() {
            return Err(SimError::ArityMismatch {
                expected: self.dimension(),
                actual: config.len(),
            });
        }
        for (i, (&v, spec)) in config.values().iter().zip(&self.params).enumerate() {
            if !spec.contains(v) {
                return Err(SimError::ValueOutOfRange { param: i, value: v });
            }
        }
        Ok(())
    }

    /// Draws one configuration uniformly at random.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Configuration {
        Configuration::new(
            self.params
                .iter()
                .map(|p| rng.gen_range(p.min..=p.max))
                .collect(),
        )
    }

    /// Draws `count` *distinct* configurations uniformly at random.
    ///
    /// The paper profiles 10,000 distinct randomly selected configurations
    /// per kernel (§4.5). Distinctness is enforced by rejection, which is
    /// cheap because the spaces are many orders of magnitude larger than the
    /// requested sample.
    pub fn sample_distinct<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
    ) -> Vec<Configuration> {
        let mut seen = std::collections::HashSet::with_capacity(count);
        let mut out = Vec::with_capacity(count);
        // Bound the loop to avoid spinning forever on tiny spaces.
        let card = self.cardinality();
        let target = (count as u64).min(card) as usize;
        let mut attempts = 0u64;
        let max_attempts = (target as u64).saturating_mul(1000).max(10_000);
        while out.len() < target && attempts < max_attempts {
            attempts += 1;
            let config = self.sample(rng);
            if seen.insert(config.clone()) {
                out.push(config);
            }
        }
        // For pathological small spaces, fall back to enumeration.
        if out.len() < target {
            for config in self.enumerate() {
                if out.len() >= target {
                    break;
                }
                if seen.insert(config.clone()) {
                    out.push(config);
                }
            }
        }
        out
    }

    /// Exhaustively enumerates the space in lexicographic order.
    ///
    /// Intended for small sub-spaces such as the 30×30 unroll plane of the
    /// Figure 1 motivation study; enumerating one of the full SPAPT-sized
    /// spaces would never terminate in practice.
    pub fn enumerate(&self) -> Enumerate<'_> {
        Enumerate {
            space: self,
            next: Some(self.default_configuration()),
        }
    }

    /// Returns the neighbouring configurations of `config` (each parameter
    /// moved one step up or down), used by local-search baselines.
    pub fn neighbours(&self, config: &Configuration) -> Vec<Configuration> {
        let mut out = Vec::new();
        for (i, spec) in self.params.iter().enumerate() {
            let v = config.values()[i];
            if v > spec.min {
                let mut values = config.values().to_vec();
                values[i] = v - 1;
                out.push(Configuration::new(values));
            }
            if v < spec.max {
                let mut values = config.values().to_vec();
                values[i] = v + 1;
                out.push(Configuration::new(values));
            }
        }
        out
    }
}

/// Iterator over every configuration of a [`ParameterSpace`], in
/// lexicographic order. Produced by [`ParameterSpace::enumerate`].
#[derive(Debug)]
pub struct Enumerate<'a> {
    space: &'a ParameterSpace,
    next: Option<Configuration>,
}

impl Iterator for Enumerate<'_> {
    type Item = Configuration;

    fn next(&mut self) -> Option<Configuration> {
        let current = self.next.take()?;
        // Compute the successor.
        let mut values = current.values().to_vec();
        let mut idx = values.len();
        loop {
            if idx == 0 {
                self.next = None;
                break;
            }
            idx -= 1;
            let spec = &self.space.params()[idx];
            if values[idx] < spec.max {
                values[idx] += 1;
                self.next = Some(Configuration::new(values));
                break;
            }
            values[idx] = spec.min;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alic_stats::rng::seeded_rng;
    use std::collections::HashSet;

    fn small_space() -> ParameterSpace {
        ParameterSpace::new(vec![
            ParamSpec::new("U_i1", ParamKind::Unroll, 1, 3),
            ParamSpec::new("T_j", ParamKind::CacheTile, 0, 2),
        ])
        .unwrap()
    }

    #[test]
    fn kind_labels_round_trip_and_unknown_labels_are_rejected() {
        for kind in [
            ParamKind::Unroll,
            ParamKind::CacheTile,
            ParamKind::RegisterTile,
        ] {
            assert_eq!(ParamKind::from_label(kind.label()), Some(kind));
        }
        for label in ["", "tile", "Unroll", "cache_tile", "unroll "] {
            assert_eq!(ParamKind::from_label(label), None, "{label:?}");
        }
    }

    #[test]
    fn cardinality_is_product_of_ranges() {
        assert_eq!(small_space().cardinality(), 9);
        assert_eq!(small_space().cardinality_f64(), 9.0);
    }

    #[test]
    fn standard_parameter_constructors() {
        assert_eq!(ParamSpec::unroll("u").cardinality(), 30);
        assert_eq!(ParamSpec::cache_tile("t").cardinality(), 12);
        assert_eq!(ParamSpec::register_tile("r").cardinality(), 16);
    }

    #[test]
    fn empty_space_is_rejected() {
        assert_eq!(ParameterSpace::new(vec![]), Err(SimError::EmptySpace));
    }

    #[test]
    fn validation_catches_arity_and_range_errors() {
        let space = small_space();
        assert!(space.validate(&Configuration::new(vec![1, 0])).is_ok());
        assert_eq!(
            space.validate(&Configuration::new(vec![1])),
            Err(SimError::ArityMismatch {
                expected: 2,
                actual: 1
            })
        );
        assert_eq!(
            space.validate(&Configuration::new(vec![4, 0])),
            Err(SimError::ValueOutOfRange { param: 0, value: 4 })
        );
    }

    #[test]
    fn default_configuration_is_valid_and_minimal() {
        let space = small_space();
        let d = space.default_configuration();
        assert!(space.validate(&d).is_ok());
        assert_eq!(d.values(), &[1, 0]);
    }

    #[test]
    fn random_samples_are_valid() {
        let space = small_space();
        let mut rng = seeded_rng(1);
        for _ in 0..100 {
            let c = space.sample(&mut rng);
            assert!(space.validate(&c).is_ok());
        }
    }

    #[test]
    fn distinct_sampling_returns_unique_configs() {
        let space = ParameterSpace::new(vec![
            ParamSpec::unroll("a"),
            ParamSpec::unroll("b"),
            ParamSpec::unroll("c"),
        ])
        .unwrap();
        let mut rng = seeded_rng(7);
        let configs = space.sample_distinct(&mut rng, 500);
        assert_eq!(configs.len(), 500);
        let unique: HashSet<_> = configs.iter().collect();
        assert_eq!(unique.len(), 500);
    }

    #[test]
    fn distinct_sampling_caps_at_space_size() {
        let space = small_space();
        let mut rng = seeded_rng(3);
        let configs = space.sample_distinct(&mut rng, 100);
        assert_eq!(configs.len(), 9);
    }

    #[test]
    fn enumeration_visits_every_configuration_once() {
        let space = small_space();
        let all: Vec<Configuration> = space.enumerate().collect();
        assert_eq!(all.len(), 9);
        let unique: HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 9);
        assert_eq!(all[0].values(), &[1, 0]);
        assert_eq!(all[8].values(), &[3, 2]);
    }

    #[test]
    fn neighbours_respect_bounds() {
        let space = small_space();
        let corner = space.default_configuration();
        let n = space.neighbours(&corner);
        // Only upward moves exist at the minimum corner.
        assert_eq!(n.len(), 2);
        for c in &n {
            assert!(space.validate(c).is_ok());
        }
        let middle = Configuration::new(vec![2, 1]);
        assert_eq!(space.neighbours(&middle).len(), 4);
    }

    #[test]
    fn features_are_plain_float_copies() {
        let c = Configuration::new(vec![3, 7, 11]);
        assert_eq!(c.to_features(), vec![3.0, 7.0, 11.0]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(format!("{c}"), "[3, 7, 11]");
    }

    #[test]
    #[should_panic(expected = "range is empty")]
    fn param_spec_rejects_inverted_range() {
        ParamSpec::new("bad", ParamKind::Unroll, 5, 2);
    }
}
