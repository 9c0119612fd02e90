//! Kernel specifications.
//!
//! A [`KernelSpec`] bundles everything the simulator needs to stand in for
//! one benchmark of the paper's evaluation: the tunable parameter space, the
//! scale of its runtime and compile time, the calibration of its measurement
//! noise, and (optionally) pinned response shapes for specific parameters so
//! that the figures of the paper can be reproduced exactly.

use serde::{Deserialize, Serialize};

use crate::noise::NoiseProfile;
use crate::space::{ParamSpec, ParameterSpace};
use crate::surface::EffectShape;
use crate::Result;

/// Complete description of a simulated benchmark kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSpec {
    name: String,
    space: ParameterSpace,
    base_runtime: f64,
    base_compile_time: f64,
    noise: NoiseProfile,
    surface_seed: u64,
    shape_overrides: Vec<(usize, EffectShape)>,
}

impl KernelSpec {
    /// Creates a kernel specification.
    ///
    /// # Errors
    ///
    /// Returns an error if `params` is empty.
    pub fn new(
        name: impl Into<String>,
        params: Vec<ParamSpec>,
        base_runtime: f64,
        base_compile_time: f64,
        noise: NoiseProfile,
    ) -> Result<Self> {
        Ok(KernelSpec {
            name: name.into(),
            space: ParameterSpace::new(params)?,
            base_runtime,
            base_compile_time,
            noise,
            surface_seed: 0,
            shape_overrides: Vec::new(),
        })
    }

    /// Builder-style: sets the seed from which the ground-truth surface is
    /// derived. Kernels with different seeds have different surfaces.
    pub fn with_surface_seed(mut self, seed: u64) -> Self {
        self.surface_seed = seed;
        self
    }

    /// Builder-style: pins the response shape of the parameter at `index`.
    pub fn with_shape_override(mut self, index: usize, shape: EffectShape) -> Self {
        self.shape_overrides.push((index, shape));
        self
    }

    /// Builder-style: replaces the noise profile.
    pub fn with_noise(mut self, noise: NoiseProfile) -> Self {
        self.noise = noise;
        self
    }

    /// Kernel name (e.g. `"adi"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tunable parameter space.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// Runtime scale of the untuned kernel, in seconds.
    pub fn base_runtime(&self) -> f64 {
        self.base_runtime
    }

    /// Compile time of the untuned kernel, in seconds.
    pub fn base_compile_time(&self) -> f64 {
        self.base_compile_time
    }

    /// Noise calibration for this kernel.
    pub fn noise(&self) -> &NoiseProfile {
        &self.noise
    }

    /// Seed from which the ground-truth surface is derived.
    pub fn surface_seed(&self) -> u64 {
        self.surface_seed
    }

    /// Pinned response shapes, as `(parameter index, shape)` pairs.
    pub fn shape_overrides(&self) -> &[(usize, EffectShape)] {
        &self.shape_overrides
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ParamKind;

    #[test]
    fn builder_methods_compose() {
        let spec = KernelSpec::new(
            "toy",
            vec![ParamSpec::unroll("u")],
            1.5,
            0.5,
            NoiseProfile::quiet(),
        )
        .unwrap()
        .with_surface_seed(9)
        .with_shape_override(0, EffectShape::Flat { level: 0.2 })
        .with_noise(NoiseProfile::moderate());

        assert_eq!(spec.name(), "toy");
        assert_eq!(spec.surface_seed(), 9);
        assert_eq!(spec.shape_overrides().len(), 1);
        assert_eq!(spec.space().dimension(), 1);
        assert_eq!(spec.space().params()[0].kind, ParamKind::Unroll);
        assert!((spec.base_runtime() - 1.5).abs() < 1e-12);
        assert!((spec.base_compile_time() - 0.5).abs() < 1e-12);
        assert_eq!(spec.noise(), &NoiseProfile::moderate());
    }

    #[test]
    fn empty_parameter_list_is_rejected() {
        let err = KernelSpec::new("bad", vec![], 1.0, 1.0, NoiseProfile::quiet());
        assert!(err.is_err());
    }
}
