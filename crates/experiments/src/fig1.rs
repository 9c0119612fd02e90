//! Figure 1 — the motivation study on the `mm` unroll plane.
//!
//! The paper compiles the SPAPT matrix-multiplication kernel with every
//! combination of unroll factors for its two outer loops (30 × 30 points),
//! runs each binary 35 times, and asks two questions per point:
//!
//! * Figure 1a — what Mean Absolute Error would a *single* observation have
//!   incurred relative to the 35-sample mean?
//! * Figures 1b/1c — what is the *smallest* number of samples whose mean
//!   stays within 0.1 ms of the 35-sample mean, and what error does that
//!   optimal plan leave?
//!
//! The punchline is the total number of runs: 31,500 for the fixed plan
//! versus roughly half with "perfect knowledge" of the per-point optimum.

use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use alic_sim::profiler::{Profiler, SimulatedProfiler};
use alic_sim::space::Configuration;
use alic_sim::spapt::{spapt_kernel, SpaptKernel};
use alic_stats::error::mean_absolute_deviation;
use alic_stats::rng::{seeded_stream, Rng as StatsRng};
use alic_stats::summary::Summary;

use crate::scale::Scale;

/// The paper's MAE threshold for the "optimal" sampling plan (0.1 ms).
pub const MAE_THRESHOLD_SECONDS: f64 = 1e-4;

/// Statistics for one point of the unroll plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanePoint {
    /// Unroll factor of loop i1.
    pub unroll_i1: u32,
    /// Unroll factor of loop i2.
    pub unroll_i2: u32,
    /// Mean runtime over all observations (the reference value).
    pub mean_runtime: f64,
    /// MAE of a single-observation estimate (Figure 1a).
    pub mae_single: f64,
    /// MAE of the optimal-size estimate (Figure 1b).
    pub mae_optimal: f64,
    /// Optimal number of samples (Figure 1c).
    pub optimal_samples: usize,
}

/// Result of the Figure 1 study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Result {
    /// Per-point statistics over the unroll plane.
    pub points: Vec<PlanePoint>,
    /// Observations taken per point (35 in the paper).
    pub observations_per_point: usize,
    /// Total runs a fixed plan needs (`points × observations_per_point`).
    pub fixed_plan_runs: usize,
    /// Total runs the per-point optimal plan needs (Σ optimal samples).
    pub optimal_plan_runs: usize,
}

impl Fig1Result {
    /// Fraction of the fixed plan's runs that the optimal plan needs.
    pub fn optimal_fraction(&self) -> f64 {
        self.optimal_plan_runs as f64 / self.fixed_plan_runs as f64
    }
}

/// Expected absolute deviation of a `k`-sample mean from the full-sample
/// mean, estimated by drawing random subsets.
fn subset_mae(samples: &[f64], k: usize, reference: f64, rng: &mut StatsRng) -> f64 {
    if k >= samples.len() {
        return (Summary::from_slice(samples).mean - reference).abs();
    }
    const RESAMPLES: usize = 40;
    let mut indices: Vec<usize> = (0..samples.len()).collect();
    let mut deviations = Vec::with_capacity(RESAMPLES);
    for _ in 0..RESAMPLES {
        indices.shuffle(rng);
        let mean: f64 = indices[..k].iter().map(|&i| samples[i]).sum::<f64>() / k as f64;
        deviations.push((mean - reference).abs());
    }
    deviations.iter().sum::<f64>() / deviations.len() as f64
}

/// Runs the Figure 1 study at the given scale.
pub fn run(scale: Scale) -> Fig1Result {
    run_with(
        scale.fig1_grid(),
        scale.observations(),
        MAE_THRESHOLD_SECONDS,
        0,
    )
}

/// Runs the study with explicit parameters (exposed for tests).
pub fn run_with(grid: u32, observations: usize, threshold: f64, seed: u64) -> Fig1Result {
    let spec = spapt_kernel(SpaptKernel::Mm);
    let mut profiler = SimulatedProfiler::new(spec, seed);
    let default_values: Vec<u32> = profiler.space().default_configuration().values().to_vec();
    let mut rng = seeded_stream(seed, 0xF161);

    let mut points = Vec::with_capacity((grid * grid) as usize);
    for i1 in 1..=grid {
        for i2 in 1..=grid {
            let mut values = default_values.clone();
            values[0] = i1;
            values[1] = i2;
            let configuration = Configuration::new(values);
            let samples: Vec<f64> = (0..observations)
                .map(|_| profiler.measure(&configuration).runtime)
                .collect();
            let reference = Summary::from_slice(&samples).mean;
            let mae_single =
                mean_absolute_deviation(&samples, reference).expect("sample set is non-empty");
            // Smallest k whose subsampled mean stays within the threshold.
            let mut optimal_samples = observations;
            let mut mae_optimal = 0.0;
            for k in 1..=observations {
                let mae = subset_mae(&samples, k, reference, &mut rng);
                if mae <= threshold {
                    optimal_samples = k;
                    mae_optimal = mae;
                    break;
                }
                mae_optimal = mae;
            }
            points.push(PlanePoint {
                unroll_i1: i1,
                unroll_i2: i2,
                mean_runtime: reference,
                mae_single,
                mae_optimal,
                optimal_samples,
            });
        }
    }
    let fixed_plan_runs = points.len() * observations;
    let optimal_plan_runs = points.iter().map(|p| p.optimal_samples).sum();
    Fig1Result {
        points,
        observations_per_point: observations,
        fixed_plan_runs,
        optimal_plan_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_result() -> Fig1Result {
        run_with(6, 12, MAE_THRESHOLD_SECONDS, 1)
    }

    #[test]
    fn covers_the_whole_plane() {
        let result = small_result();
        assert_eq!(result.points.len(), 36);
        assert_eq!(result.fixed_plan_runs, 36 * 12);
        assert!(result.points.iter().all(|p| p.mean_runtime > 0.0));
    }

    #[test]
    fn optimal_plan_never_exceeds_the_fixed_plan() {
        let result = small_result();
        assert!(result.optimal_plan_runs <= result.fixed_plan_runs);
        assert!(result.optimal_fraction() <= 1.0);
        for p in &result.points {
            assert!(p.optimal_samples >= 1 && p.optimal_samples <= 12);
        }
    }

    #[test]
    fn noisier_points_need_more_samples() {
        // Correlation between single-sample MAE and the optimal sample count
        // should be positive: points that are noisy with one sample need more.
        let result = small_result();
        let mut noisy_needs: Vec<usize> = Vec::new();
        let mut quiet_needs: Vec<usize> = Vec::new();
        let median_mae = {
            let mut maes: Vec<f64> = result.points.iter().map(|p| p.mae_single).collect();
            maes.sort_by(|a, b| a.partial_cmp(b).unwrap());
            maes[maes.len() / 2]
        };
        for p in &result.points {
            if p.mae_single > median_mae {
                noisy_needs.push(p.optimal_samples);
            } else {
                quiet_needs.push(p.optimal_samples);
            }
        }
        let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        assert!(
            mean(&noisy_needs) >= mean(&quiet_needs),
            "noisy half should need at least as many samples ({} vs {})",
            mean(&noisy_needs),
            mean(&quiet_needs)
        );
    }

    #[test]
    fn some_points_get_away_with_a_single_sample() {
        // The mm plane has genuinely quiet regions (Table 2's min variance is
        // ~3e-10), so at least some points should need only one observation.
        let result = small_result();
        assert!(result.points.iter().any(|p| p.optimal_samples == 1));
    }
}
