//! Completion criteria.
//!
//! Algorithm 1 stops after a fixed number of training instances, but the
//! paper notes the criterion "could have been based on, for example,
//! wall-clock time or some estimate of error in the final model". All three
//! are supported and can be combined; the learner stops as soon as any one of
//! them is met.

use serde::{Deserialize, Serialize};

/// Stopping conditions for a learning run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CompletionCriteria {
    /// Stop after this many profiling-cost seconds have been spent.
    pub max_cost_seconds: Option<f64>,
    /// Stop once the evaluated RMSE drops to or below this value.
    pub target_rmse: Option<f64>,
}

impl CompletionCriteria {
    /// No additional criteria: run until the iteration budget is exhausted.
    pub fn none() -> Self {
        CompletionCriteria::default()
    }

    /// Whether the run should stop given the current cost and (optionally)
    /// the most recently evaluated RMSE.
    pub fn is_met(&self, cost_seconds: f64, latest_rmse: Option<f64>) -> bool {
        if let Some(max_cost) = self.max_cost_seconds {
            if cost_seconds >= max_cost {
                return true;
            }
        }
        if let (Some(target), Some(rmse)) = (self.target_rmse, latest_rmse) {
            if rmse <= target {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_criteria_never_stop() {
        let criteria = CompletionCriteria::none();
        assert!(!criteria.is_met(1e12, Some(0.0)));
    }

    #[test]
    fn cost_budget_stops_the_run() {
        let criteria = CompletionCriteria {
            max_cost_seconds: Some(100.0),
            ..CompletionCriteria::none()
        };
        assert!(!criteria.is_met(99.9, None));
        assert!(criteria.is_met(100.0, None));
    }

    #[test]
    fn rmse_target_requires_an_evaluation() {
        let criteria = CompletionCriteria {
            target_rmse: Some(0.05),
            ..CompletionCriteria::none()
        };
        assert!(!criteria.is_met(10.0, None));
        assert!(!criteria.is_met(10.0, Some(0.06)));
        assert!(criteria.is_met(10.0, Some(0.05)));
    }

    #[test]
    fn either_criterion_suffices() {
        let criteria = CompletionCriteria {
            max_cost_seconds: Some(50.0),
            target_rmse: Some(0.01),
        };
        assert!(criteria.is_met(60.0, Some(1.0)));
        assert!(criteria.is_met(1.0, Some(0.005)));
        assert!(!criteria.is_met(1.0, Some(1.0)));
    }
}
