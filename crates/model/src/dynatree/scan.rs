//! Split-proposal scan kernels: scalar and bitset+popcount (SIMD masks).
//!
//! A grow move evaluates a batch of candidate splits of one leaf. For each
//! candidate `(dimension, threshold)` the scorer needs the left child's
//! `(n, Σy, Σy²)`; the right child is `totals − left`. This module holds the
//! two interchangeable kernels that produce those triples from a
//! column-major copy of the leaf ([`LeafColumns`]):
//!
//! * [`ScanKind::Scalar`] — the reference: one branch-free pass per attempt
//!   accumulating `acc += mask * value` with a 0/1 comparison mask,
//! * [`ScanKind::Simd`] — packs the comparison mask into u64 words
//!   ([`alic_stats::bitset`]) built by SSE2 packed compares (`cfg`-gated to
//!   x86-64; elsewhere the scalar mask builder fills the same words), takes
//!   the count with `popcnt` and accumulates the sums over the set bits in
//!   ascending order.
//!
//! Both are **bit-identical** by construction — same comparisons, and
//! sums whose skipped terms are exact `±0.0` no-ops (see
//! [`alic_stats::bitset`] for the argument) — which
//! `tests/scan_identity.rs` pins with property tests and the committed
//! `scan_variants` bench races side by side. [`DEFAULT_SCAN_KIND`] selects
//! the winner on the benched host; changing it can never change results,
//! only speed.

use std::cell::RefCell;

use alic_stats::bitset;

/// Split-proposal attempts evaluated per fused scan of the gathered leaf.
pub const ATTEMPT_BATCH: usize = 8;

/// Which split-scan kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanKind {
    /// Reference mask-multiply scan: one fused pass with every live
    /// attempt's three accumulators carried simultaneously, so the
    /// independent add chains hide FP latency even at small leaf sizes.
    Scalar,
    /// u64 mask words (SSE2-packed construction on x86-64), `popcnt`
    /// counts, set-bit-ordered sums.
    Simd,
    /// Length dispatch: [`ScanKind::Scalar`] below
    /// [`BITSET_MIN_LEN`] points, [`ScanKind::Simd`] at or above it. The
    /// bitset kernel amortizes its mask-building pass only once a leaf
    /// spans several words; short leaves (the common case deep in a grown
    /// tree) stay on the fused scalar pass.
    Auto,
}

/// Leaf size at which [`ScanKind::Auto`] switches from the fused scalar
/// kernel to the SIMD bitset kernel — the crossover in the committed
/// `scan_variants` bench on the benched host.
pub const BITSET_MIN_LEN: usize = 256;

/// The kernel the dynamic tree uses in production: fastest in the committed
/// `scan_variants` bench on the benched host (see README "Performance").
/// All kinds are bit-identical, so this is purely a speed choice.
pub const DEFAULT_SCAN_KIND: ScanKind = ScanKind::Auto;

/// Column-major copy of one leaf's points: per-dimension feature columns
/// plus the target column, all contiguous and in point-list order.
///
/// Built once per (unique tree, update) by a single walk of the leaf's
/// intrusive point list; every subsequent proposal scan — one per sharing
/// particle — then reads contiguous columns instead of chasing list links
/// through the row-major training store. The buffers are reused across
/// updates, so steady-state refills allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct LeafColumns {
    /// Dimension-major features: column `d` is `cols[d * len..(d + 1) * len]`.
    cols: Vec<f64>,
    /// Targets in the same point order.
    ys: Vec<f64>,
    /// Squared targets, precomputed once per gather so every sharer's scan
    /// reads `y²` instead of recomputing it per attempt (`y * y` is the
    /// exact value the scalar reference multiplies by its mask).
    ys_sq: Vec<f64>,
    len: usize,
}

impl LeafColumns {
    /// Refills the columns from `len` `(features, target)` records in point
    /// order, keeping the allocations.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields fewer than `len` records or rows
    /// narrower than `n_dims`.
    pub fn fill<'a, I>(&mut self, n_dims: usize, len: usize, rows: I)
    where
        I: Iterator<Item = (&'a [f64], f64)>,
    {
        self.len = len;
        self.cols.clear();
        self.cols.resize(n_dims * len, 0.0);
        self.ys.clear();
        self.ys.resize(len, 0.0);
        self.ys_sq.clear();
        self.ys_sq.resize(len, 0.0);
        let mut count = 0;
        for (i, (row, y)) in rows.take(len).enumerate() {
            for (d, &value) in row[..n_dims].iter().enumerate() {
                self.cols[d * len + i] = value;
            }
            self.ys[i] = y;
            self.ys_sq[i] = y * y;
            count += 1;
        }
        assert_eq!(count, len, "leaf iterator yielded too few points");
    }

    /// Marks the buffer empty (no gathered points), keeping allocations.
    pub fn clear(&mut self) {
        self.len = 0;
        self.cols.clear();
        self.ys.clear();
        self.ys_sq.clear();
    }

    /// Number of gathered points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no points are gathered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The contiguous feature column of `dimension`.
    pub fn feature_column(&self, dimension: usize) -> &[f64] {
        &self.cols[dimension * self.len..(dimension + 1) * self.len]
    }

    /// The target column, in point order.
    pub fn targets(&self) -> &[f64] {
        &self.ys
    }

    /// The squared-target column, in point order.
    pub fn targets_sq(&self) -> &[f64] {
        &self.ys_sq
    }
}

thread_local! {
    /// Per-thread mask-word scratch for the bitset kernel; proposal scans
    /// run inside the parallel move-decision pass, so the scratch cannot
    /// live in the (shared) gathered columns.
    static MASK_WORDS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Runs the selected kernel over the first `live` attempts, returning each
/// attempt's left-side `(n, Σy, Σy²)` in the first `live` entries of the
/// three output arrays. Every kind accumulates per attempt in point order,
/// so the triples are bit-identical across kinds (and to an
/// attempt-at-a-time evaluation).
pub fn scan_left(
    kind: ScanKind,
    columns: &LeafColumns,
    dims: &[usize; ATTEMPT_BATCH],
    thresholds: &[f64; ATTEMPT_BATCH],
    live: usize,
) -> (
    [f64; ATTEMPT_BATCH],
    [f64; ATTEMPT_BATCH],
    [f64; ATTEMPT_BATCH],
) {
    let kind = match kind {
        ScanKind::Auto if columns.len() < BITSET_MIN_LEN => ScanKind::Scalar,
        ScanKind::Auto => ScanKind::Simd,
        other => other,
    };
    let mut n = [0.0f64; ATTEMPT_BATCH];
    let mut s = [0.0f64; ATTEMPT_BATCH];
    let mut q = [0.0f64; ATTEMPT_BATCH];
    match kind {
        ScanKind::Auto => unreachable!("resolved above"),
        ScanKind::Scalar => {
            // Monomorphize the fused pass on the live-attempt count so all
            // `3 × live` accumulators stay in registers.
            match live {
                1 => scan_scalar_fused::<1>(columns, dims, thresholds, &mut n, &mut s, &mut q),
                2 => scan_scalar_fused::<2>(columns, dims, thresholds, &mut n, &mut s, &mut q),
                3 => scan_scalar_fused::<3>(columns, dims, thresholds, &mut n, &mut s, &mut q),
                4 => scan_scalar_fused::<4>(columns, dims, thresholds, &mut n, &mut s, &mut q),
                5 => scan_scalar_fused::<5>(columns, dims, thresholds, &mut n, &mut s, &mut q),
                6 => scan_scalar_fused::<6>(columns, dims, thresholds, &mut n, &mut s, &mut q),
                7 => scan_scalar_fused::<7>(columns, dims, thresholds, &mut n, &mut s, &mut q),
                _ => scan_scalar_fused::<8>(columns, dims, thresholds, &mut n, &mut s, &mut q),
            }
        }
        ScanKind::Simd => {
            let ys = columns.targets();
            let ys_sq = columns.targets_sq();
            let word_count = columns.len().div_ceil(bitset::WORD_BITS);
            MASK_WORDS.with(|cell| {
                let words = &mut *cell.borrow_mut();
                // Stage 1: one mask strip per attempt (attempt `k` occupies
                // `words[k * word_count..]`), counts via popcount.
                words.clear();
                words.resize(live * word_count, 0);
                for k in 0..live {
                    let strip = &mut words[k * word_count..(k + 1) * word_count];
                    let col = columns.feature_column(dims[k]);
                    fill_mask(col, thresholds[k], strip);
                    n[k] = bitset::count_ones(strip) as f64;
                }
                // Stage 2: fused masked sums. Attempts are interleaved at
                // word granularity so their (independent) accumulator
                // chains overlap; within each attempt the set bits are
                // still visited in ascending point order, which keeps every
                // attempt's sums bit-identical to the scalar reference.
                for w in 0..word_count {
                    let base = w * bitset::WORD_BITS;
                    for k in 0..live {
                        let mut bits = words[k * word_count + w];
                        let mut sk = s[k];
                        let mut qk = q[k];
                        while bits != 0 {
                            let i = base + bits.trailing_zeros() as usize;
                            sk += ys[i];
                            qk += ys_sq[i];
                            bits &= bits - 1;
                        }
                        s[k] = sk;
                        q[k] = qk;
                    }
                }
            });
        }
    }
    (n, s, q)
}

/// Fused scalar scan over `(features, target)` records streamed straight
/// from a leaf's point list — the no-copy path for leaves only one particle
/// will ever scan, where materializing [`LeafColumns`] first would cost more
/// than the single scan it feeds. Point order is the stream order, so the
/// triples are bit-identical to every column-based kernel run on a gather of
/// the same stream.
pub fn scan_left_direct<'s, I>(
    rows: I,
    dims: &[usize; ATTEMPT_BATCH],
    thresholds: &[f64; ATTEMPT_BATCH],
    live: usize,
) -> (
    [f64; ATTEMPT_BATCH],
    [f64; ATTEMPT_BATCH],
    [f64; ATTEMPT_BATCH],
)
where
    I: Iterator<Item = (&'s [f64], f64)>,
{
    let mut n = [0.0f64; ATTEMPT_BATCH];
    let mut s = [0.0f64; ATTEMPT_BATCH];
    let mut q = [0.0f64; ATTEMPT_BATCH];
    match live {
        1 => scan_direct_fused::<1, _>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        2 => scan_direct_fused::<2, _>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        3 => scan_direct_fused::<3, _>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        4 => scan_direct_fused::<4, _>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        5 => scan_direct_fused::<5, _>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        6 => scan_direct_fused::<6, _>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        7 => scan_direct_fused::<7, _>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        _ => scan_direct_fused::<8, _>(rows, dims, thresholds, &mut n, &mut s, &mut q),
    }
    (n, s, q)
}

/// The streamed counterpart of [`scan_scalar_fused`]: identical accumulator
/// structure, rows read from the iterator instead of gathered columns.
fn scan_direct_fused<'s, const K: usize, I>(
    rows: I,
    dims: &[usize; ATTEMPT_BATCH],
    thresholds: &[f64; ATTEMPT_BATCH],
    n: &mut [f64; ATTEMPT_BATCH],
    s: &mut [f64; ATTEMPT_BATCH],
    q: &mut [f64; ATTEMPT_BATCH],
) where
    I: Iterator<Item = (&'s [f64], f64)>,
{
    let mut local_dims = [0usize; K];
    let mut thr = [0.0f64; K];
    local_dims.copy_from_slice(&dims[..K]);
    thr.copy_from_slice(&thresholds[..K]);
    let mut nk = [0.0f64; K];
    let mut sk = [0.0f64; K];
    let mut qk = [0.0f64; K];
    for (row, y) in rows {
        let y_sq = y * y;
        for k in 0..K {
            let mask = f64::from(row[local_dims[k]] <= thr[k]);
            nk[k] += mask;
            sk[k] += mask * y;
            qk[k] += mask * y_sq;
        }
    }
    n[..K].copy_from_slice(&nk);
    s[..K].copy_from_slice(&sk);
    q[..K].copy_from_slice(&qk);
}

/// The fused scalar pass: one sweep over the points, carrying every live
/// attempt's `(n, Σy, Σy²)` simultaneously. `K` is the live-attempt count,
/// monomorphized so the accumulator arrays live in registers; the summation
/// order per attempt is point order, identical to an attempt-at-a-time scan.
fn scan_scalar_fused<const K: usize>(
    columns: &LeafColumns,
    dims: &[usize; ATTEMPT_BATCH],
    thresholds: &[f64; ATTEMPT_BATCH],
    n: &mut [f64; ATTEMPT_BATCH],
    s: &mut [f64; ATTEMPT_BATCH],
    q: &mut [f64; ATTEMPT_BATCH],
) {
    let mut cols = [columns.feature_column(0); K];
    let mut thr = [0.0f64; K];
    for k in 0..K {
        cols[k] = columns.feature_column(dims[k]);
        thr[k] = thresholds[k];
    }
    let mut nk = [0.0f64; K];
    let mut sk = [0.0f64; K];
    let mut qk = [0.0f64; K];
    let ys = columns.targets();
    let ys_sq = columns.targets_sq();
    for (i, (&y, &y_sq)) in ys.iter().zip(ys_sq).enumerate() {
        for k in 0..K {
            let mask = f64::from(cols[k][i] <= thr[k]);
            nk[k] += mask;
            sk[k] += mask * y;
            qk[k] += mask * y_sq;
        }
    }
    n[..K].copy_from_slice(&nk);
    s[..K].copy_from_slice(&sk);
    q[..K].copy_from_slice(&qk);
}

/// Builds the `<= threshold` mask words: SSE2 packed compares on x86-64,
/// the scalar mask builder elsewhere.
#[inline]
fn fill_mask(column: &[f64], threshold: f64, words: &mut [u64]) {
    #[cfg(target_arch = "x86_64")]
    bitset::fill_mask_le_simd_into(column, threshold, words);
    #[cfg(not(target_arch = "x86_64"))]
    bitset::fill_mask_le_into(column, threshold, words);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_columns(len: usize, n_dims: usize) -> LeafColumns {
        let rows: Vec<Vec<f64>> = (0..len)
            .map(|i| {
                (0..n_dims)
                    .map(|d| ((i * 31 + d * 17 + 5) % 97) as f64 / 13.0 - 3.0)
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = (0..len)
            .map(|i| ((i * 23 + 7) % 89) as f64 / 11.0 - 4.0)
            .collect();
        let mut columns = LeafColumns::default();
        columns.fill(
            n_dims,
            len,
            rows.iter().map(|r| r.as_slice()).zip(ys.iter().copied()),
        );
        columns
    }

    #[test]
    fn fill_lays_out_columns_dimension_major() {
        let columns = sample_columns(5, 3);
        assert_eq!(columns.len(), 5);
        for d in 0..3 {
            let col = columns.feature_column(d);
            assert_eq!(col.len(), 5);
            for (i, &v) in col.iter().enumerate() {
                assert_eq!(v, ((i * 31 + d * 17 + 5) % 97) as f64 / 13.0 - 3.0);
            }
        }
        assert_eq!(columns.targets().len(), 5);
    }

    #[test]
    fn clear_empties_but_refill_works() {
        let mut columns = sample_columns(10, 2);
        columns.clear();
        assert!(columns.is_empty());
        let refilled = sample_columns(130, 2);
        assert_eq!(refilled.len(), 130);
    }

    #[test]
    fn all_kinds_produce_bit_identical_triples() {
        for len in [1, 2, 5, 63, 64, 65, 130] {
            let columns = sample_columns(len, 3);
            let dims = [0usize, 1, 2, 0, 1, 2, 0, 1];
            let thresholds = [-2.5, -1.0, 0.0, 0.5, 1.5, 2.5, 3.5, -4.0];
            let live = 8;
            let (n0, s0, q0) = scan_left(ScanKind::Scalar, &columns, &dims, &thresholds, live);
            for kind in [ScanKind::Simd, ScanKind::Auto] {
                let (n1, s1, q1) = scan_left(kind, &columns, &dims, &thresholds, live);
                for k in 0..live {
                    assert_eq!(
                        n0[k].to_bits(),
                        n1[k].to_bits(),
                        "{kind:?} n len={len} k={k}"
                    );
                    assert_eq!(
                        s0[k].to_bits(),
                        s1[k].to_bits(),
                        "{kind:?} s len={len} k={k}"
                    );
                    assert_eq!(
                        q0[k].to_bits(),
                        q1[k].to_bits(),
                        "{kind:?} q len={len} k={k}"
                    );
                }
            }
        }
    }
}
