//! Learning curves: model error as a function of profiling cost.
//!
//! The paper's headline evaluation (Table 1, Figures 5 and 6) is built on
//! curves of Root Mean Squared Error against cumulative profiling cost,
//! averaged over ten seeded repetitions. This module stores per-run curves,
//! resamples them onto a common cost grid and derives the Table 1 statistics
//! (lowest common error, cost to reach it, speed-up).

use serde::{Deserialize, Serialize};

/// One evaluation point of a learning run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Number of learning-loop iterations completed.
    pub iterations: usize,
    /// Number of distinct training examples visited so far.
    pub training_examples: usize,
    /// Number of profiling runs executed so far.
    pub observations: u64,
    /// Cumulative profiling cost (compile + run seconds).
    pub cost_seconds: f64,
    /// RMSE of the current model over the held-out test set.
    pub rmse: f64,
}

/// A sequence of evaluation points from one learning run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LearningCurve {
    points: Vec<CurvePoint>,
}

impl LearningCurve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        LearningCurve::default()
    }

    /// Appends an evaluation point.
    ///
    /// # Panics
    ///
    /// Panics if the cost is not non-decreasing with respect to the previous
    /// point (curves are monotone in cost by construction).
    pub fn push(&mut self, point: CurvePoint) {
        if let Some(last) = self.points.last() {
            assert!(
                point.cost_seconds >= last.cost_seconds,
                "curve points must have non-decreasing cost"
            );
        }
        self.points.push(point);
    }

    /// The evaluation points in chronological order.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Whether the curve has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// RMSE of the last evaluation, if any.
    pub fn final_rmse(&self) -> Option<f64> {
        self.points.last().map(|p| p.rmse)
    }

    /// Best (lowest) RMSE achieved during the run, if any.
    pub fn best_rmse(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.rmse)
            .min_by(|a, b| a.partial_cmp(b).expect("finite RMSE"))
    }

    /// Total cost of the run, if any evaluation was made.
    pub fn total_cost(&self) -> Option<f64> {
        self.points.last().map(|p| p.cost_seconds)
    }

    /// The RMSE in effect at cost `t` (the most recent evaluation at or
    /// before `t`); `None` if the curve has not started by `t`.
    fn rmse_at_cost(&self, t: f64) -> Option<f64> {
        self.points
            .iter()
            .take_while(|p| p.cost_seconds <= t)
            .last()
            .map(|p| p.rmse)
    }
}

impl FromIterator<CurvePoint> for LearningCurve {
    fn from_iter<I: IntoIterator<Item = CurvePoint>>(iter: I) -> Self {
        let mut curve = LearningCurve::new();
        for p in iter {
            curve.push(p);
        }
        curve
    }
}

/// An averaged curve over repeated runs, resampled on a common cost grid.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AveragedCurve {
    /// Cost grid, in seconds.
    pub costs: Vec<f64>,
    /// Mean RMSE across runs at each grid cost.
    pub mean_rmse: Vec<f64>,
}

impl AveragedCurve {
    /// Lowest mean RMSE attained on the grid.
    pub fn best_rmse(&self) -> Option<f64> {
        self.mean_rmse
            .iter()
            .copied()
            .min_by(|a, b| a.partial_cmp(b).expect("finite RMSE"))
    }

    /// First grid cost at which the mean RMSE is at or below `target`.
    pub fn cost_to_reach(&self, target: f64) -> Option<f64> {
        self.costs
            .iter()
            .zip(&self.mean_rmse)
            .find(|(_, r)| **r <= target)
            .map(|(c, _)| *c)
    }
}

/// Builds a linear cost grid covering the range where *all* curves are
/// active: from the largest first-evaluation cost to the smallest
/// final-evaluation cost (the "range of time over which all sampling plans
/// are simultaneously active", §5.2). Returns `None` when the ranges do not
/// overlap.
pub fn common_cost_grid(curve_sets: &[&[LearningCurve]], resolution: usize) -> Option<Vec<f64>> {
    let mut start: f64 = 0.0;
    let mut end = f64::INFINITY;
    for curves in curve_sets {
        for curve in curves.iter() {
            let first = curve.points().first()?.cost_seconds;
            let last = curve.points().last()?.cost_seconds;
            start = start.max(first);
            end = end.min(last);
        }
    }
    // `end` stays infinite when no curve set contributed a point (empty
    // outer slice, or only empty inner slices): there is no overlap to grid.
    if !end.is_finite()
        || end.partial_cmp(&start) != Some(std::cmp::Ordering::Greater)
        || resolution < 2
    {
        return None;
    }
    let step = (end - start) / (resolution - 1) as f64;
    Some((0..resolution).map(|i| start + step * i as f64).collect())
}

/// Averages repeated runs of one approach onto `grid` using
/// last-evaluation-carried-forward interpolation. Grid costs that precede a
/// run's first evaluation use that run's first RMSE.
pub fn average_curves(curves: &[LearningCurve], grid: &[f64]) -> AveragedCurve {
    let mut mean_rmse = Vec::with_capacity(grid.len());
    for &t in grid {
        let mut total = 0.0;
        let mut count = 0usize;
        for curve in curves {
            if curve.is_empty() {
                continue;
            }
            let rmse = curve
                .rmse_at_cost(t)
                .unwrap_or_else(|| curve.points()[0].rmse);
            total += rmse;
            count += 1;
        }
        mean_rmse.push(if count == 0 {
            f64::NAN
        } else {
            total / count as f64
        });
    }
    AveragedCurve {
        costs: grid.to_vec(),
        mean_rmse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(cost: f64, rmse: f64) -> CurvePoint {
        CurvePoint {
            iterations: 0,
            training_examples: 0,
            observations: 0,
            cost_seconds: cost,
            rmse,
        }
    }

    fn curve(points: &[(f64, f64)]) -> LearningCurve {
        points.iter().map(|&(c, r)| point(c, r)).collect()
    }

    #[test]
    fn basic_accessors() {
        let c = curve(&[(1.0, 0.5), (2.0, 0.3), (3.0, 0.35)]);
        assert_eq!(c.points().len(), 3);
        assert_eq!(c.final_rmse(), Some(0.35));
        assert_eq!(c.best_rmse(), Some(0.3));
        assert_eq!(c.total_cost(), Some(3.0));
    }

    #[test]
    fn rmse_at_cost_carries_the_last_evaluation_forward() {
        let c = curve(&[(1.0, 0.5), (2.0, 0.3)]);
        assert_eq!(c.rmse_at_cost(0.5), None);
        assert_eq!(c.rmse_at_cost(1.5), Some(0.5));
        assert_eq!(c.rmse_at_cost(10.0), Some(0.3));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_cost_is_rejected() {
        let mut c = curve(&[(2.0, 0.5)]);
        c.push(point(1.0, 0.4));
    }

    #[test]
    fn common_grid_covers_the_overlap() {
        let a = vec![curve(&[(1.0, 0.5), (10.0, 0.2)])];
        let b = vec![curve(&[(2.0, 0.6), (8.0, 0.3)])];
        let grid = common_cost_grid(&[&a, &b], 5).unwrap();
        assert_eq!(grid.len(), 5);
        assert!((grid[0] - 2.0).abs() < 1e-12);
        assert!((grid[4] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn non_overlapping_ranges_give_no_grid() {
        let a = vec![curve(&[(1.0, 0.5), (2.0, 0.2)])];
        let b = vec![curve(&[(5.0, 0.6), (8.0, 0.3)])];
        assert!(common_cost_grid(&[&a, &b], 5).is_none());
    }

    #[test]
    fn single_point_curves_have_no_common_grid() {
        // A curve whose first and last evaluation coincide spans a zero-width
        // cost range: there is no interval over which all curves are active.
        let a = vec![curve(&[(3.0, 0.5)])];
        let b = vec![curve(&[(1.0, 0.6), (8.0, 0.3)])];
        assert!(common_cost_grid(&[&a, &b], 5).is_none());
        // Two single-point curves at the same cost still give a degenerate
        // (zero-width) range.
        let c = vec![curve(&[(3.0, 0.7)])];
        assert!(common_cost_grid(&[&a, &c], 5).is_none());
    }

    #[test]
    fn empty_curve_sets_have_no_common_grid() {
        // No curve sets at all, and sets containing an empty curve, both
        // mean "no overlap", not an unbounded grid.
        assert!(common_cost_grid(&[], 5).is_none());
        let empty: Vec<LearningCurve> = vec![LearningCurve::new()];
        assert!(common_cost_grid(&[&empty], 5).is_none());
        let full = vec![curve(&[(1.0, 0.5), (2.0, 0.4)])];
        assert!(common_cost_grid(&[&full, &empty], 5).is_none());
    }

    #[test]
    fn resolution_below_two_gives_no_grid() {
        let a = vec![curve(&[(1.0, 0.5), (10.0, 0.2)])];
        assert!(common_cost_grid(&[&a], 1).is_none());
        assert!(common_cost_grid(&[&a], 0).is_none());
    }

    #[test]
    fn averaging_without_runs_gives_nan_means() {
        let averaged = average_curves(&[], &[1.0, 2.0]);
        assert_eq!(averaged.costs, vec![1.0, 2.0]);
        assert!(averaged.mean_rmse.iter().all(|r| r.is_nan()));
        // Empty curves are skipped, not counted as zero.
        let with_empty = vec![LearningCurve::new(), curve(&[(1.0, 0.4)])];
        let averaged = average_curves(&with_empty, &[1.5]);
        assert_eq!(averaged.mean_rmse, vec![0.4]);
    }

    #[test]
    fn averaging_on_an_empty_grid_is_empty() {
        let runs = vec![curve(&[(1.0, 0.4), (2.0, 0.2)])];
        let averaged = average_curves(&runs, &[]);
        assert!(averaged.costs.is_empty());
        assert!(averaged.mean_rmse.is_empty());
        assert!(averaged.best_rmse().is_none());
        assert!(averaged.cost_to_reach(0.1).is_none());
    }

    #[test]
    fn averaging_single_point_curves_carries_the_value_everywhere() {
        let runs = vec![curve(&[(2.0, 0.5)]), curve(&[(4.0, 0.3)])];
        // Before either curve starts, each contributes its first RMSE; after,
        // the single evaluation is carried forward.
        let averaged = average_curves(&runs, &[1.0, 3.0, 9.0]);
        assert_eq!(averaged.mean_rmse, vec![0.4, 0.4, 0.4]);
    }

    #[test]
    fn averaging_two_identical_curves_is_identity() {
        let runs = vec![
            curve(&[(1.0, 0.4), (2.0, 0.2)]),
            curve(&[(1.0, 0.4), (2.0, 0.2)]),
        ];
        let averaged = average_curves(&runs, &[1.0, 1.5, 2.0]);
        assert_eq!(averaged.mean_rmse, vec![0.4, 0.4, 0.2]);
        assert_eq!(averaged.best_rmse(), Some(0.2));
        assert_eq!(averaged.cost_to_reach(0.25), Some(2.0));
    }

    #[test]
    fn averaging_mixes_runs_pointwise() {
        let runs = vec![
            curve(&[(1.0, 0.4), (3.0, 0.2)]),
            curve(&[(1.0, 0.8), (2.0, 0.6)]),
        ];
        let averaged = average_curves(&runs, &[1.0, 2.5]);
        assert!((averaged.mean_rmse[0] - 0.6).abs() < 1e-12);
        assert!((averaged.mean_rmse[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn grid_costs_before_first_evaluation_use_first_rmse() {
        let runs = vec![curve(&[(5.0, 0.4), (6.0, 0.2)])];
        let averaged = average_curves(&runs, &[1.0, 5.5]);
        assert_eq!(averaged.mean_rmse[0], 0.4);
        assert_eq!(averaged.mean_rmse[1], 0.4);
    }
}
