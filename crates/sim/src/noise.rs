//! Heteroskedastic measurement-noise model.
//!
//! The paper's central premise is that runtime measurements are noisy, that
//! the amount of noise varies wildly across the optimization space (Table 2
//! shows per-kernel variance spanning six to eight orders of magnitude
//! between configurations), and that the noise therefore has to be handled
//! rather than assumed away. This module models the noise sources discussed
//! in §1:
//!
//! * **Measurement jitter** — zero-mean Gaussian noise whose standard
//!   deviation varies *log-linearly* between a quiet end ([`NoiseProfile::
//!   sigma_quiet`]) and a loud end ([`NoiseProfile::sigma_loud`]) of a
//!   smooth, deterministic *noise field*, giving the orders-of-magnitude
//!   spread Table 2 reports,
//! * **High-noise pockets** — small regions of the space where the noise is
//!   several times larger still (the "some parts of the space suffer from
//!   extreme noise" observation of §5.2),
//! * **Interference spikes** — rare, strictly positive outliers modelling
//!   other processes stealing cores/caches/memory bandwidth,
//! * **Per-run layout perturbation** — a uniform relative perturbation
//!   modelling address-space layout randomization re-randomizing every run.

use rand::Rng;
use serde::{Deserialize, Serialize};

use alic_stats::rng::seeded_stream;

use crate::space::{Configuration, ParameterSpace};

/// Per-kernel calibration of the noise model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseProfile {
    /// Standard deviation of the Gaussian jitter at the quiet end of the
    /// noise field, in seconds.
    pub sigma_quiet: f64,
    /// Standard deviation at the loud end of the noise field, in seconds.
    pub sigma_loud: f64,
    /// Fraction of the space (approximately) covered by high-noise pockets.
    pub pocket_fraction: f64,
    /// Additional noise multiplier inside a pocket.
    pub pocket_multiplier: f64,
    /// Probability that a single run is hit by an interference spike.
    pub outlier_probability: f64,
    /// Mean size of an interference spike, as a fraction of the true mean.
    pub outlier_scale: f64,
    /// Half-width of the per-run layout perturbation, as a fraction of the
    /// true mean runtime.
    pub layout_jitter: f64,
}

impl NoiseProfile {
    /// A quiet profile suitable for tests that need near-deterministic
    /// measurements.
    pub fn quiet() -> Self {
        NoiseProfile {
            sigma_quiet: 1e-6,
            sigma_loud: 1e-6,
            pocket_fraction: 0.0,
            pocket_multiplier: 1.0,
            outlier_probability: 0.0,
            outlier_scale: 0.0,
            layout_jitter: 0.0,
        }
    }

    /// A moderate default profile (roughly the median kernel of Table 2).
    pub fn moderate() -> Self {
        NoiseProfile {
            sigma_quiet: 2e-4,
            sigma_loud: 0.02,
            pocket_fraction: 0.04,
            pocket_multiplier: 5.0,
            outlier_probability: 0.02,
            outlier_scale: 0.05,
            layout_jitter: 0.002,
        }
    }

    /// Returns a copy with every noise magnitude multiplied by `factor`.
    ///
    /// Used by the noise-robustness ablation (the paper's §7 proposes
    /// artificially introducing noise as future work).
    pub fn scaled(&self, factor: f64) -> Self {
        NoiseProfile {
            sigma_quiet: self.sigma_quiet * factor,
            sigma_loud: self.sigma_loud * factor,
            pocket_fraction: self.pocket_fraction,
            pocket_multiplier: self.pocket_multiplier,
            outlier_probability: (self.outlier_probability * factor).min(0.5),
            outlier_scale: self.outlier_scale * factor,
            layout_jitter: self.layout_jitter * factor,
        }
    }
}

impl Default for NoiseProfile {
    fn default() -> Self {
        NoiseProfile::moderate()
    }
}

/// Deterministic, seeded noise model over a parameter space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    profile: NoiseProfile,
    // Random projection weights defining the smooth noise field.
    field_weights: Vec<f64>,
    field_phase: f64,
    // Second projection defining pocket membership.
    pocket_weights: Vec<f64>,
    pocket_phase: f64,
    mins: Vec<u32>,
    maxs: Vec<u32>,
}

impl NoiseModel {
    /// Builds a noise model for `space`, deriving the noise field
    /// deterministically from `seed`.
    pub fn new(space: &ParameterSpace, profile: NoiseProfile, seed: u64) -> Self {
        let mut rng = seeded_stream(seed, 0x0153);
        let dim = space.dimension();
        let field_weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let pocket_weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect();
        NoiseModel {
            profile,
            field_weights,
            field_phase: rng.gen_range(0.0..std::f64::consts::TAU),
            pocket_weights,
            pocket_phase: rng.gen_range(0.0..std::f64::consts::TAU),
            mins: space.params().iter().map(|p| p.min).collect(),
            maxs: space.params().iter().map(|p| p.max).collect(),
        }
    }

    fn normalized_positions(&self, config: &Configuration) -> Vec<f64> {
        config
            .values()
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let min = self.mins[i];
                let max = self.maxs[i];
                if max == min {
                    0.0
                } else {
                    (v.saturating_sub(min)) as f64 / (max - min) as f64
                }
            })
            .collect()
    }

    fn field_at(&self, t: &[f64]) -> f64 {
        let projection: f64 = t
            .iter()
            .zip(&self.field_weights)
            .map(|(x, w)| x * w)
            .sum::<f64>()
            + self.field_phase;
        0.5 * (1.0 + projection.cos())
    }

    fn in_pocket_at(&self, t: &[f64]) -> bool {
        if self.profile.pocket_fraction <= 0.0 {
            return false;
        }
        let projection: f64 = t
            .iter()
            .zip(&self.pocket_weights)
            .map(|(x, w)| x * w)
            .sum::<f64>()
            + self.pocket_phase;
        // cos(projection) lands in [-1, 1]; configurations in the top
        // `pocket_fraction` slice of that range are "pockets".
        let u = 0.5 * (1.0 + projection.cos());
        u > 1.0 - self.profile.pocket_fraction
    }

    /// Standard deviation of the Gaussian jitter at `config`, in seconds.
    ///
    /// Interpolates log-linearly between `sigma_quiet` and `sigma_loud`
    /// according to the noise field, then applies the pocket multiplier.
    pub fn sigma(&self, config: &Configuration) -> f64 {
        let t = self.normalized_positions(config);
        let field = self.field_at(&t);
        let quiet = self.profile.sigma_quiet.max(1e-12);
        let loud = self.profile.sigma_loud.max(quiet);
        let mut sigma = quiet * (loud / quiet).powf(field);
        if self.in_pocket_at(&t) {
            sigma *= self.profile.pocket_multiplier;
        }
        sigma
    }

    /// Draws one noisy runtime observation around `true_mean` with jitter
    /// standard deviation `sigma`, as returned by [`sigma`](Self::sigma).
    ///
    /// The result is clamped to stay strictly positive. The draws do not
    /// depend on `sigma`, so a caller that keeps a configuration's `sigma`
    /// across repeated runs gets the same observations as one that
    /// recomputes it every time.
    pub fn sample_at<R: Rng + ?Sized>(&self, rng: &mut R, sigma: f64, true_mean: f64) -> f64 {
        // Box-Muller Gaussian.
        let gaussian = {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let mut runtime = true_mean + sigma * gaussian;
        // Per-run layout perturbation (ASLR re-randomizes every execution).
        if self.profile.layout_jitter > 0.0 {
            let jitter = rng.gen_range(-1.0..1.0) * self.profile.layout_jitter * true_mean;
            runtime += jitter;
        }
        // Interference spike: strictly positive, exponential tail.
        if self.profile.outlier_probability > 0.0
            && rng.gen::<f64>() < self.profile.outlier_probability
        {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            runtime += -u.ln() * self.profile.outlier_scale * true_mean;
        }
        runtime.max(1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamSpec, ParameterSpace};
    use alic_stats::rng::seeded_rng;
    use alic_stats::summary::Summary;

    fn space() -> ParameterSpace {
        ParameterSpace::new(vec![
            ParamSpec::unroll("a"),
            ParamSpec::unroll("b"),
            ParamSpec::cache_tile("t"),
        ])
        .unwrap()
    }

    #[test]
    fn quiet_profile_is_essentially_deterministic() {
        let space = space();
        let model = NoiseModel::new(&space, NoiseProfile::quiet(), 1);
        let sigma = model.sigma(&space.default_configuration());
        let mut rng = seeded_rng(5);
        for _ in 0..50 {
            let y = model.sample_at(&mut rng, sigma, 1.0);
            assert!((y - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn sample_mean_converges_to_true_mean() {
        let space = space();
        let mut profile = NoiseProfile::moderate();
        profile.outlier_probability = 0.0; // keep symmetric for this check
        let model = NoiseModel::new(&space, profile, 2);
        let sigma = model.sigma(&space.default_configuration());
        let mut rng = seeded_rng(7);
        let samples: Vec<f64> = (0..5000)
            .map(|_| model.sample_at(&mut rng, sigma, 2.0))
            .collect();
        let s = Summary::from_slice(&samples);
        assert!((s.mean - 2.0).abs() < 0.01, "mean drifted: {}", s.mean);
    }

    #[test]
    fn sigma_spans_orders_of_magnitude_across_the_space() {
        let space = space();
        let model = NoiseModel::new(&space, NoiseProfile::moderate(), 3);
        let mut rng = seeded_rng(11);
        let sigmas: Vec<f64> = (0..2000)
            .map(|_| model.sigma(&space.sample(&mut rng)))
            .collect();
        let s = Summary::from_slice(&sigmas);
        assert!(
            s.max / s.min > 20.0,
            "noise field should span a wide dynamic range, got {}..{}",
            s.min,
            s.max
        );
        assert!(sigmas.iter().all(|v| *v > 0.0));
    }

    #[test]
    fn pockets_cover_roughly_the_requested_fraction() {
        let space = space();
        let mut profile = NoiseProfile::moderate();
        profile.pocket_fraction = 0.1;
        let model = NoiseModel::new(&space, profile, 4);
        let mut rng = seeded_rng(13);
        let hits = (0..5000)
            .filter(|_| model.in_pocket_at(&model.normalized_positions(&space.sample(&mut rng))))
            .count();
        let frac = hits as f64 / 5000.0;
        assert!(
            frac > 0.02 && frac < 0.3,
            "pocket fraction {frac} out of band"
        );
    }

    #[test]
    fn outliers_skew_measurements_upwards() {
        let space = space();
        let mut profile = NoiseProfile::quiet();
        profile.outlier_probability = 0.3;
        profile.outlier_scale = 0.5;
        let model = NoiseModel::new(&space, profile, 5);
        let sigma = model.sigma(&space.default_configuration());
        let mut rng = seeded_rng(17);
        let samples: Vec<f64> = (0..4000)
            .map(|_| model.sample_at(&mut rng, sigma, 1.0))
            .collect();
        let s = Summary::from_slice(&samples);
        assert!(
            s.mean > 1.05,
            "interference should inflate the mean, got {}",
            s.mean
        );
        assert!(s.max > 1.3);
    }

    #[test]
    fn scaled_profile_scales_noise() {
        let base = NoiseProfile::moderate();
        let double = base.scaled(2.0);
        assert!((double.sigma_quiet - 2.0 * base.sigma_quiet).abs() < 1e-15);
        assert!((double.sigma_loud - 2.0 * base.sigma_loud).abs() < 1e-15);
        assert!(double.outlier_probability <= 0.5);
        let range = |p: &NoiseProfile| p.sigma_loud / p.sigma_quiet;
        assert!((range(&base) - range(&double)).abs() < 1e-9);
    }

    #[test]
    fn samples_are_always_positive() {
        let space = space();
        let mut profile = NoiseProfile::moderate();
        profile.sigma_quiet = 10.0;
        profile.sigma_loud = 10.0; // absurdly noisy
        let model = NoiseModel::new(&space, profile, 6);
        let sigma = model.sigma(&space.default_configuration());
        let mut rng = seeded_rng(19);
        for _ in 0..500 {
            assert!(model.sample_at(&mut rng, sigma, 0.01) > 0.0);
        }
    }

    #[test]
    fn noise_field_is_deterministic() {
        let space = space();
        let a = NoiseModel::new(&space, NoiseProfile::moderate(), 42);
        let b = NoiseModel::new(&space, NoiseProfile::moderate(), 42);
        let config = Configuration::new(vec![10, 20, 5]);
        assert_eq!(a.sigma(&config), b.sigma(&config));
    }

    #[test]
    fn sigma_interpolates_between_quiet_and_loud_ends() {
        let space = space();
        let profile = NoiseProfile {
            sigma_quiet: 1e-5,
            sigma_loud: 1e-2,
            pocket_fraction: 0.0,
            ..NoiseProfile::moderate()
        };
        let model = NoiseModel::new(&space, profile, 7);
        let mut rng = seeded_rng(23);
        for _ in 0..500 {
            let sigma = model.sigma(&space.sample(&mut rng));
            assert!(
                (1e-5 - 1e-12..=1e-2 + 1e-12).contains(&sigma),
                "sigma {sigma} out of bounds"
            );
        }
    }
}
