//! Train/test splits.

use serde::{Deserialize, Serialize};

use alic_stats::rng::seeded_stream;
use alic_stats::sampling::split_indices;

/// Disjoint train/test index sets over a dataset.
///
/// The paper (§4.5) marks 7,500 of the 10,000 profiled configurations as the
/// training pool and evaluates on the remaining 2,500.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainTestSplit {
    train: Vec<usize>,
    test: Vec<usize>,
}

impl TrainTestSplit {
    /// Splits `0..population` into `train_size` training indices and the rest
    /// as test indices, shuffled deterministically by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `train_size > population`.
    pub fn new(population: usize, train_size: usize, seed: u64) -> Self {
        let mut rng = seeded_stream(seed, 0x5917);
        let (train, test) = split_indices(&mut rng, population, train_size);
        TrainTestSplit { train, test }
    }

    /// Indices available for training (the paper's pool `F`).
    pub fn train_indices(&self) -> &[usize] {
        &self.train
    }

    /// Held-out test indices.
    pub fn test_indices(&self) -> &[usize] {
        &self.test
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn paper_sized_split() {
        let split = TrainTestSplit::new(10_000, 7_500, 1);
        assert_eq!(split.train_indices().len(), 7_500);
        assert_eq!(split.test_indices().len(), 2_500);
        assert_eq!(
            split.train_indices().len() + split.test_indices().len(),
            10_000
        );
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let a = TrainTestSplit::new(100, 60, 7);
        let b = TrainTestSplit::new(100, 60, 7);
        let c = TrainTestSplit::new(100, 60, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #[test]
        fn prop_split_is_disjoint_and_complete(population in 1usize..400, seed in 0u64..100) {
            let train_size = population / 2;
            let split = TrainTestSplit::new(population, train_size, seed);
            let train: HashSet<_> = split.train_indices().iter().copied().collect();
            let test: HashSet<_> = split.test_indices().iter().copied().collect();
            prop_assert_eq!(train.len(), train_size);
            prop_assert_eq!(train.len() + test.len(), population);
            prop_assert!(train.is_disjoint(&test));
            prop_assert!(train.union(&test).all(|&i| i < population));
        }
    }
}
