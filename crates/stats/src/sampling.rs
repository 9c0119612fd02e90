//! Random subset selection.
//!
//! Algorithm 1 of the paper repeatedly needs uniform random subsets: the
//! initial `n_init` seed examples, and the `n_c` fresh candidates drawn from
//! the not-yet-visited pool at every iteration. These helpers provide
//! reproducible sampling without replacement over index ranges.

use rand::seq::SliceRandom;
use rand::Rng;

/// Draws `count` distinct indices uniformly at random from `0..population`.
///
/// When `count >= population` all indices are returned (shuffled).
///
/// # Examples
///
/// ```
/// let mut rng = alic_stats::rng::seeded_rng(1);
/// let picked = alic_stats::sampling::sample_indices(&mut rng, 100, 5);
/// assert_eq!(picked.len(), 5);
/// assert!(picked.iter().all(|&i| i < 100));
/// ```
pub fn sample_indices<R: Rng + ?Sized>(rng: &mut R, population: usize, count: usize) -> Vec<usize> {
    if count >= population {
        let mut all: Vec<usize> = (0..population).collect();
        all.shuffle(rng);
        return all;
    }
    // Floyd's algorithm: O(count) expected memory, no full shuffle.
    let mut chosen = std::collections::HashSet::with_capacity(count);
    let mut result = Vec::with_capacity(count);
    for j in (population - count)..population {
        let t = rng.gen_range(0..=j);
        if chosen.insert(t) {
            result.push(t);
        } else {
            chosen.insert(j);
            result.push(j);
        }
    }
    result.shuffle(rng);
    result
}

/// Splits `0..population` into two disjoint shuffled index sets of sizes
/// `first` and `population - first` (used for train/test splits).
///
/// # Panics
///
/// Panics if `first > population`.
pub fn split_indices<R: Rng + ?Sized>(
    rng: &mut R,
    population: usize,
    first: usize,
) -> (Vec<usize>, Vec<usize>) {
    assert!(
        first <= population,
        "cannot take {first} of {population} items"
    );
    let mut all: Vec<usize> = (0..population).collect();
    all.shuffle(rng);
    let second = all.split_off(first);
    (all, second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut rng = seeded_rng(11);
        let picked = sample_indices(&mut rng, 1000, 50);
        let unique: HashSet<_> = picked.iter().copied().collect();
        assert_eq!(unique.len(), 50);
        assert!(picked.iter().all(|&i| i < 1000));
    }

    #[test]
    fn oversampling_returns_whole_population() {
        let mut rng = seeded_rng(2);
        let picked = sample_indices(&mut rng, 5, 10);
        let unique: HashSet<_> = picked.iter().copied().collect();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn sampling_is_reproducible_for_a_seed() {
        let a = sample_indices(&mut seeded_rng(7), 100, 10);
        let b = sample_indices(&mut seeded_rng(7), 100, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let mut rng = seeded_rng(5);
        let (train, test) = split_indices(&mut rng, 10_000, 7_500);
        assert_eq!(train.len(), 7_500);
        assert_eq!(test.len(), 2_500);
        let train_set: HashSet<_> = train.iter().copied().collect();
        assert!(test.iter().all(|i| !train_set.contains(i)));
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn split_rejects_oversized_first_part() {
        split_indices(&mut seeded_rng(0), 3, 4);
    }

    #[test]
    fn sample_indices_is_roughly_uniform() {
        // Draw many small samples and check every index is hit.
        let mut rng = seeded_rng(123);
        let mut counts = [0usize; 10];
        for _ in 0..2000 {
            for i in sample_indices(&mut rng, 10, 3) {
                counts[i] += 1;
            }
        }
        // Expectation is 600 per index; allow generous slack.
        assert!(counts.iter().all(|&c| c > 400 && c < 800), "{counts:?}");
    }

    proptest! {
        #[test]
        fn prop_sample_size_and_range(population in 1usize..500, count in 0usize..100, seed in 0u64..1000) {
            let mut rng = seeded_rng(seed);
            let picked = sample_indices(&mut rng, population, count);
            prop_assert_eq!(picked.len(), count.min(population));
            let unique: HashSet<_> = picked.iter().copied().collect();
            prop_assert_eq!(unique.len(), picked.len());
            prop_assert!(picked.iter().all(|&i| i < population));
        }
    }
}
