//! Invariants of the arena-backed dynamic-tree storage.
//!
//! Three properties guard the arena and leaf-record storage:
//!
//! 1. **Cache and record freshness.** Every tree keeps its dense flat-node
//!    traversal array and its per-node root-path ids maintained, and every
//!    leaf holds a shared leaf record: its observation ids, their rows,
//!    statistics, bounds and moments. After *any* fit/update sequence —
//!    which exercises resampling, copy-on-write cloning, structural
//!    sharing, grow, prune and path-table compaction — every cached view
//!    must equal a bitwise-fresh recomputation, every path id must spell
//!    the steps of its node's root path in a freshly rebuilt table, and
//!    every record must list exactly the observations in its leaf's
//!    region, hold their rows bitwise, carry a refcount equal to the
//!    number of live leaves that hold it, and sit at one root path in all
//!    of them; no live tree may hold a freed record
//!    (`DynaTree::validate_caches`).
//! 2. **Thread-count bit-identity of training.** `fit` and `update` run
//!    their insert, decide, clone and move jobs on the thread pool with
//!    per-`(seed, observation, particle)` RNG streams; a model trained on
//!    1 worker thread must be bit-identical to one trained on 4.
//! 3. **Sharing accounting.** Structural sharing never loses or invents
//!    particles: multiplicities over unique trees always sum to the
//!    particle count, and the unique-tree count never exceeds it.

use alic::model::dynatree::{DynaTree, DynaTreeConfig};
use alic::model::{row_views, SurrogateModel};
use proptest::prelude::*;

fn config(particles: usize, seed: u64, min_leaf: usize, grow_attempts: usize) -> DynaTreeConfig {
    DynaTreeConfig {
        particles,
        min_leaf,
        grow_attempts,
        seed,
        ..Default::default()
    }
}

/// Deterministic but seed-shaped training data over the unit square.
fn training_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let a = ((i * 7 + seed as usize) % 23) as f64 / 22.0;
        let b = ((i * 13 + 3 * seed as usize) % 11) as f64 / 10.0;
        xs.push(vec![a, b]);
        ys.push((5.0 * a).sin() + 0.7 * b + 0.05 * ((i + seed as usize) % 5) as f64);
    }
    (xs, ys)
}

proptest! {
    /// Property 1 + 3: after an arbitrary fit/update sequence, the cached
    /// flat nodes and path ids of every live tree and every live leaf
    /// record equal a fresh recomputation, the record refcounts match
    /// their holders, and the sharing bookkeeping stays consistent.
    #[test]
    fn caches_match_fresh_recomputation_after_any_training_sequence(
        n_fit in 6usize..40,
        n_updates in 0usize..50,
        particles in 5usize..40,
        seed in 0u64..1000,
        min_leaf in 1usize..4,
        grow_attempts in 1usize..7,
    ) {
        let (xs, ys) = training_data(n_fit, seed);
        let mut model = DynaTree::new(config(particles, seed, min_leaf, grow_attempts));
        model.fit(&row_views(&xs), &ys).unwrap();
        if let Err(e) = model.validate_caches() {
            prop_assert!(false, "after fit: {}", e);
        }

        let (ux, uy) = training_data(n_updates, seed.wrapping_add(17));
        for (x, &y) in ux.iter().zip(&uy) {
            model.update(x, y).unwrap();
        }
        if let Err(e) = model.validate_caches() {
            prop_assert!(false, "after updates: {}", e);
        }
        prop_assert!(model.unique_tree_count() <= particles);
        prop_assert!(model.unique_tree_count() >= 1);
    }
}

/// Property 2: `fit` and `update` are bit-identical across worker-thread
/// counts. Compares the full predictive surface (means and variances) and
/// the ensemble shape, which pin every per-particle state that scoring can
/// observe.
#[test]
fn fit_and_update_are_bit_identical_across_thread_counts() {
    let train = |threads: usize| {
        rayon::set_num_threads(threads);
        let (xs, ys) = training_data(60, 3);
        let mut model = DynaTree::new(config(50, 21, 2, 4));
        model.fit(&row_views(&xs), &ys).unwrap();
        let (ux, uy) = training_data(25, 9);
        for (x, &y) in ux.iter().zip(&uy) {
            model.update(x, y).unwrap();
        }
        rayon::set_num_threads(0);
        let grid: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 20) as f64 / 19.0, (i / 20) as f64 / 9.0])
            .collect();
        let predictions = model.predict_batch(&row_views(&grid)).unwrap();
        (
            predictions,
            model.mean_leaf_count(),
            model.unique_tree_count(),
            model.observation_count(),
        )
    };
    let serial = train(1);
    let parallel = train(4);
    assert_eq!(serial.0.len(), parallel.0.len());
    for (i, (a, b)) in serial.0.iter().zip(&parallel.0).enumerate() {
        assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "mean diverged at {i}");
        assert_eq!(
            a.variance.to_bits(),
            b.variance.to_bits(),
            "variance diverged at {i}"
        );
    }
    assert_eq!(serial.1, parallel.1, "leaf counts diverged");
    assert_eq!(serial.2, parallel.2, "sharing diverged");
    assert_eq!(serial.3, parallel.3);
}

/// Structural sharing actually engages: a freshly fitted ensemble whose
/// particles all start from one shared root keeps at least some sharing
/// through a short fit (resample duplicates stay shared until a divergent
/// move), and every particle remains addressable.
#[test]
fn structural_sharing_is_bounded_and_scoring_still_works() {
    let (xs, ys) = training_data(12, 5);
    let mut model = DynaTree::new(config(64, 7, 2, 4));
    model.fit(&row_views(&xs), &ys).unwrap();
    let unique = model.unique_tree_count();
    assert!(unique <= 64);
    assert!(
        unique < 64,
        "a 12-point fit should leave some resample duplicates shared (got {unique} unique trees)"
    );
    let p = model.predict(&[0.4, 0.6]).unwrap();
    assert!(p.mean.is_finite() && p.variance >= 0.0);
    model.validate_caches().unwrap();
}
