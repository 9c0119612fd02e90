//! Ground-truth response surfaces.
//!
//! A response surface maps a configuration to the *true mean runtime* of the
//! corresponding binary. The shapes follow what the paper observes on real
//! hardware:
//!
//! * unroll factors produce plateau-then-climb responses (Figure 2: `adi`
//!   stays near 2.1 s until an unroll factor of about 10, then climbs and
//!   levels off near 3.1 s),
//! * tiling factors produce U-shaped responses with a sweet spot,
//! * a few parameter pairs interact,
//! * and the surface carries a small deterministic per-binary "layout
//!   wiggle" representing code-layout effects that persist across runs of
//!   the same binary.
//!
//! Every coefficient is derived deterministically from a seed so a kernel's
//! surface is identical across processes and platforms.

use rand::Rng;
use serde::{Deserialize, Serialize};

use alic_stats::rng::{seeded_stream, Rng as StatsRng};

use crate::space::{Configuration, ParamKind, ParameterSpace};

/// Parametric shape of a single parameter's effect on runtime.
///
/// All shapes are evaluated on the *normalized* parameter position
/// `t ∈ [0, 1]` and return a relative runtime contribution (e.g. `0.3` means
/// "+30% of the base runtime").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EffectShape {
    /// Flat response: the parameter barely matters.
    Flat {
        /// Constant relative contribution.
        level: f64,
    },
    /// Sigmoid rise from ~0 to `amplitude` once `t` passes `threshold`
    /// (the Figure 2 unroll response).
    RisingPlateau {
        /// Normalized position of the rise.
        threshold: f64,
        /// Steepness of the sigmoid (larger is sharper).
        steepness: f64,
        /// Total rise in relative runtime.
        amplitude: f64,
    },
    /// Quadratic valley: performance improves towards `optimum` and degrades
    /// away from it (typical tiling response).
    Valley {
        /// Normalized position of the best value.
        optimum: f64,
        /// Depth of the valley (how much the optimum helps), as a relative
        /// runtime reduction.
        depth: f64,
        /// Penalty factor for moving away from the optimum.
        penalty: f64,
    },
}

impl EffectShape {
    /// Evaluates the shape at normalized position `t ∈ [0, 1]`.
    pub fn evaluate(&self, t: f64) -> f64 {
        match *self {
            EffectShape::Flat { level } => level,
            EffectShape::RisingPlateau {
                threshold,
                steepness,
                amplitude,
            } => {
                let z = steepness * (t - threshold);
                amplitude / (1.0 + (-z).exp())
            }
            EffectShape::Valley {
                optimum,
                depth,
                penalty,
            } => {
                let d = t - optimum;
                penalty * d * d - depth
            }
        }
    }
}

/// Pairwise interaction between two parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Interaction {
    left: usize,
    right: usize,
    coefficient: f64,
}

/// Deterministic ground-truth response surface over a parameter space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseSurface {
    base_runtime: f64,
    shapes: Vec<EffectShape>,
    interactions: Vec<Interaction>,
    layout_wiggle: f64,
    mins: Vec<u32>,
    maxs: Vec<u32>,
}

impl ResponseSurface {
    /// Builds a surface for `space` with base runtime `base_runtime` seconds.
    ///
    /// Per-parameter shapes are drawn deterministically from `seed`;
    /// `overrides` pins the shape of specific parameters (used to reproduce
    /// the exact responses shown in the paper's Figures 1 and 2).
    pub fn new(
        space: &ParameterSpace,
        base_runtime: f64,
        seed: u64,
        overrides: &[(usize, EffectShape)],
    ) -> Self {
        let mut rng = seeded_stream(seed, 0xa11c);
        let dim = space.dimension();
        let mut shapes = Vec::with_capacity(dim);
        for (i, spec) in space.params().iter().enumerate() {
            // Earlier (outer) loops matter more, mirroring how outer-loop
            // transformations dominate runtime in loop nests.
            let importance = 1.0 / (1.0 + 0.35 * i as f64);
            let shape = Self::draw_shape(&mut rng, spec.kind, importance);
            shapes.push(shape);
        }
        for (index, shape) in overrides {
            if *index < shapes.len() {
                shapes[*index] = *shape;
            }
        }
        // A handful of pairwise interactions.
        let n_inter = (dim / 2).min(6);
        let mut interactions = Vec::with_capacity(n_inter);
        for _ in 0..n_inter {
            if dim < 2 {
                break;
            }
            let left = rng.gen_range(0..dim);
            let mut right = rng.gen_range(0..dim);
            if right == left {
                right = (right + 1) % dim;
            }
            let coefficient = rng.gen_range(-0.06..0.12);
            interactions.push(Interaction {
                left,
                right,
                coefficient,
            });
        }
        ResponseSurface {
            base_runtime,
            shapes,
            interactions,
            layout_wiggle: 0.004,
            mins: space.params().iter().map(|p| p.min).collect(),
            maxs: space.params().iter().map(|p| p.max).collect(),
        }
    }

    fn draw_shape(rng: &mut StatsRng, kind: ParamKind, importance: f64) -> EffectShape {
        match kind {
            ParamKind::Unroll => {
                let roll: f64 = rng.gen();
                if roll < 0.45 {
                    EffectShape::RisingPlateau {
                        threshold: rng.gen_range(0.2..0.6),
                        steepness: rng.gen_range(8.0..18.0),
                        amplitude: importance * rng.gen_range(0.1..0.5),
                    }
                } else if roll < 0.75 {
                    EffectShape::Valley {
                        optimum: rng.gen_range(0.1..0.5),
                        depth: importance * rng.gen_range(0.02..0.12),
                        penalty: importance * rng.gen_range(0.1..0.4),
                    }
                } else {
                    EffectShape::Flat {
                        level: rng.gen_range(-0.01..0.01),
                    }
                }
            }
            ParamKind::CacheTile => EffectShape::Valley {
                optimum: rng.gen_range(0.3..0.8),
                depth: importance * rng.gen_range(0.05..0.2),
                penalty: importance * rng.gen_range(0.2..0.6),
            },
            ParamKind::RegisterTile => EffectShape::Valley {
                optimum: rng.gen_range(0.1..0.5),
                depth: importance * rng.gen_range(0.01..0.08),
                penalty: importance * rng.gen_range(0.05..0.2),
            },
        }
    }

    /// Normalized position of `value` within parameter `index`'s range.
    fn normalized(&self, index: usize, value: u32) -> f64 {
        let min = self.mins[index];
        let max = self.maxs[index];
        if max == min {
            0.0
        } else {
            (value.saturating_sub(min)) as f64 / (max - min) as f64
        }
    }

    /// True mean runtime (seconds) of the binary produced by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` has a different arity than the surface's space.
    pub fn true_mean(&self, config: &Configuration) -> f64 {
        assert_eq!(
            config.len(),
            self.shapes.len(),
            "configuration arity does not match surface dimensionality"
        );
        let mut relative = 0.0;
        let mut positions = Vec::with_capacity(config.len());
        for (i, &v) in config.values().iter().enumerate() {
            let t = self.normalized(i, v);
            positions.push(t);
            relative += self.shapes[i].evaluate(t);
        }
        for inter in &self.interactions {
            relative += inter.coefficient * positions[inter.left] * positions[inter.right];
        }
        // Deterministic per-binary layout wiggle in [-1, 1].
        let wiggle = hash_to_unit(config) * self.layout_wiggle;
        let runtime = self.base_runtime * (1.0 + relative + wiggle);
        runtime.max(0.05 * self.base_runtime)
    }
}

/// Hashes a configuration to a deterministic value in `[-1, 1]`.
fn hash_to_unit(config: &Configuration) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in config.values() {
        h ^= v as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // Map the top 53 bits to [0, 1), then to [-1, 1].
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    2.0 * unit - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamSpec, ParameterSpace};

    fn unroll_space(dim: usize) -> ParameterSpace {
        ParameterSpace::new(
            (0..dim)
                .map(|i| ParamSpec::unroll(format!("u{i}")))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn surface_is_deterministic_for_a_seed() {
        let space = unroll_space(4);
        let a = ResponseSurface::new(&space, 1.0, 7, &[]);
        let b = ResponseSurface::new(&space, 1.0, 7, &[]);
        let config = Configuration::new(vec![5, 10, 15, 20]);
        assert_eq!(a.true_mean(&config), b.true_mean(&config));
    }

    #[test]
    fn different_seeds_give_different_surfaces() {
        let space = unroll_space(4);
        let a = ResponseSurface::new(&space, 1.0, 1, &[]);
        let b = ResponseSurface::new(&space, 1.0, 2, &[]);
        let config = Configuration::new(vec![20, 20, 20, 20]);
        assert_ne!(a.true_mean(&config), b.true_mean(&config));
    }

    #[test]
    fn runtimes_are_positive_and_bounded() {
        let space = unroll_space(6);
        let surface = ResponseSurface::new(&space, 2.0, 3, &[]);
        let mut rng = alic_stats::rng::seeded_rng(9);
        for _ in 0..200 {
            let c = space.sample(&mut rng);
            let y = surface.true_mean(&c);
            assert!(y > 0.0);
            assert!(
                y < 2.0 * 6.0,
                "relative effects should stay moderate, got {y}"
            );
        }
    }

    #[test]
    fn rising_plateau_override_reproduces_figure2_shape() {
        // One unroll parameter with the adi-like response: flat then +~48%.
        let space = unroll_space(1);
        let shape = EffectShape::RisingPlateau {
            threshold: 0.33,
            steepness: 14.0,
            amplitude: 0.48,
        };
        let surface = ResponseSurface::new(&space, 2.1, 5, &[(0, shape)]);
        let low = surface.true_mean(&Configuration::new(vec![2]));
        let high = surface.true_mean(&Configuration::new(vec![30]));
        assert!(
            low < 2.25,
            "low unroll should stay near the base runtime, got {low}"
        );
        assert!(
            high > 2.9,
            "high unroll should climb towards ~3.1 s, got {high}"
        );
        // Monotone non-decreasing along the sweep.
        let mut prev = 0.0;
        for u in 1..=30u32 {
            let y = surface.true_mean(&Configuration::new(vec![u]));
            assert!(y + 1e-6 >= prev, "response must not decrease (u={u})");
            prev = y;
        }
    }

    #[test]
    fn valley_shape_has_interior_minimum() {
        let shape = EffectShape::Valley {
            optimum: 0.5,
            depth: 0.1,
            penalty: 0.4,
        };
        let at_opt = shape.evaluate(0.5);
        assert!(at_opt < shape.evaluate(0.0));
        assert!(at_opt < shape.evaluate(1.0));
    }

    #[test]
    fn effect_shapes_evaluate_reasonably() {
        assert_eq!(EffectShape::Flat { level: 0.02 }.evaluate(0.7), 0.02);
        let rp = EffectShape::RisingPlateau {
            threshold: 0.5,
            steepness: 10.0,
            amplitude: 0.4,
        };
        assert!(rp.evaluate(0.0) < 0.05);
        assert!(rp.evaluate(1.0) > 0.35);
    }

    #[test]
    fn layout_wiggle_is_small() {
        let space = unroll_space(3);
        let surface = ResponseSurface::new(&space, 1.0, 11, &[]);
        // Two configurations differing only in the least-important parameter
        // should have close but not identical runtimes.
        let a = surface.true_mean(&Configuration::new(vec![5, 5, 5]));
        let b = surface.true_mean(&Configuration::new(vec![5, 5, 6]));
        assert!((a - b).abs() < 0.3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn mismatched_configuration_panics() {
        let space = unroll_space(2);
        let surface = ResponseSurface::new(&space, 1.0, 1, &[]);
        surface.true_mean(&Configuration::new(vec![1]));
    }
}
