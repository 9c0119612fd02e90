//! Bit-identity property tests for the split-scan kernels.
//!
//! The dynamic tree's grow move ranks candidate splits by leaf marginal
//! likelihoods computed from `(count, Σy, Σy²)` triples, and the committed
//! goldens pin its output byte-for-byte — so every scan kernel
//! (`Scalar`, `Simd`, the length-dispatching `Auto`, and the
//! no-copy direct stream) must produce **bit-identical** triples, not merely
//! close ones. These properties drive randomized leaf shapes through every
//! kernel and assert:
//!
//! 1. the `(n, Σy, Σy²)` triples agree to the bit across kernels, and
//! 2. therefore the grow move's likelihood scores and its selected split
//!    (argmax with first-wins tie-breaking, exactly like `propose_split`)
//!    agree to the bit as well — the property that keeps the committed
//!    dynatree goldens invariant under kernel selection.

use alic::model::dynatree::scan::{
    scan_left, scan_left_direct, LeafColumns, ScanKind, ATTEMPT_BATCH, BITSET_MIN_LEN,
};
use alic::model::leaf::{log_marginal_likelihood_of_sums, LeafPrior, LnGammaTable};
use proptest::prelude::*;

// The property runs leaves of 1..600 points, so both sides of the Auto
// dispatch (fused scalar below the cutover, SIMD bitset above) are exercised.
const _: () = assert!(
    BITSET_MIN_LEN < 600,
    "len range must reach the bitset regime"
);

/// Deterministic pseudo-random leaf data: `len` points of `dim` features in
/// `[0, 1)` plus targets in `[-2, 2)`. A seeded integer hash shrinks far
/// better than 600-element proptest vectors.
fn leaf_data(len: usize, dim: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let value = |tag: u64, i: usize, d: usize| {
        let mut h = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(tag)
            .wrapping_add((i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d))
            .wrapping_add((d as u64).wrapping_mul(0x27d4_eb2f_1656_67c5));
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h % 10_000) as f64 / 10_000.0
    };
    let xs: Vec<Vec<f64>> = (0..len)
        .map(|i| (0..dim).map(|d| value(1, i, d)).collect())
        .collect();
    let ys: Vec<f64> = (0..len).map(|i| 4.0 * value(2, i, 0) - 2.0).collect();
    (xs, ys)
}

/// The grow move's score of one attempt: left-child likelihood from the
/// scanned triple plus right-child likelihood from `totals − left`, the
/// exact arithmetic `propose_split` performs on the kernel outputs.
#[allow(clippy::too_many_arguments)]
fn attempt_score(
    len: usize,
    total_sum: f64,
    total_sum_sq: f64,
    n_left: f64,
    sum_left: f64,
    sum_sq_left: f64,
    prior: &LeafPrior,
    table: &LnGammaTable,
) -> f64 {
    let left =
        log_marginal_likelihood_of_sums(n_left as usize, sum_left, sum_sq_left, prior, table);
    let right = log_marginal_likelihood_of_sums(
        len - n_left as usize,
        total_sum - sum_left,
        total_sum_sq - sum_sq_left,
        prior,
        table,
    );
    left + right
}

proptest! {
    #[test]
    fn all_kernels_scan_bit_identically_and_pick_the_same_split(
        len in 1usize..600,
        dim in 1usize..4,
        live in 1usize..=ATTEMPT_BATCH,
        seed in 0u64..1_000_000,
    ) {
        let (xs, ys) = leaf_data(len, dim, seed);
        let mut columns = LeafColumns::default();
        columns.fill(
            dim,
            len,
            xs.iter().map(Vec::as_slice).zip(ys.iter().copied()),
        );

        // Attempt thresholds drawn from the data itself, so left sets range
        // from empty to full — including the exact-equality boundary.
        let mut dims = [0usize; ATTEMPT_BATCH];
        let mut thresholds = [0.0f64; ATTEMPT_BATCH];
        for k in 0..live {
            dims[k] = (seed as usize / 3 + k) % dim;
            thresholds[k] = xs[(seed as usize + k * 17) % len][dims[k]];
        }

        let reference = scan_left(ScanKind::Scalar, &columns, &dims, &thresholds, live);
        let direct = scan_left_direct(
            xs.iter().map(Vec::as_slice).zip(ys.iter().copied()),
            &dims,
            &thresholds,
            live,
        );
        let kinds = [ScanKind::Simd, ScanKind::Auto];
        let mut scanned: Vec<_> = kinds
            .iter()
            .map(|&kind| scan_left(kind, &columns, &dims, &thresholds, live))
            .collect();
        scanned.push(direct);

        let prior = LeafPrior::weakly_informative(0.0, 1.0);
        let mut table = LnGammaTable::new(&prior);
        table.ensure(len);
        let total_sum: f64 = ys.iter().sum();
        let total_sum_sq: f64 = ys.iter().map(|y| y * y).sum();
        let score = |triple: &([f64; 8], [f64; 8], [f64; 8]), k: usize| {
            attempt_score(
                len, total_sum, total_sum_sq,
                triple.0[k], triple.1[k], triple.2[k],
                &prior, &table,
            )
        };
        let argmax = |triple: &([f64; 8], [f64; 8], [f64; 8])| {
            (0..live).fold(0, |best, k| {
                if score(triple, k) > score(triple, best) { k } else { best }
            })
        };

        for (triple, label) in scanned.iter().zip(["bitset", "simd", "auto", "direct"]) {
            for k in 0..live {
                prop_assert_eq!(
                    triple.0[k].to_bits(), reference.0[k].to_bits(),
                    "{}: count diverged at attempt {} (len {})", label, k, len
                );
                prop_assert_eq!(
                    triple.1[k].to_bits(), reference.1[k].to_bits(),
                    "{}: Σy diverged at attempt {} (len {})", label, k, len
                );
                prop_assert_eq!(
                    triple.2[k].to_bits(), reference.2[k].to_bits(),
                    "{}: Σy² diverged at attempt {} (len {})", label, k, len
                );
                prop_assert_eq!(
                    score(triple, k).to_bits(), score(&reference, k).to_bits(),
                    "{}: likelihood diverged at attempt {}", label, k
                );
            }
            prop_assert_eq!(
                argmax(triple), argmax(&reference),
                "{}: selected a different split", label
            );
        }
    }
}
