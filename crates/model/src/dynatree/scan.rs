//! Split-proposal scan kernels over one leaf.
//!
//! A grow move evaluates a batch of candidate splits of one leaf. For each
//! candidate `(dimension, threshold)` the scorer needs the left child's
//! `(n, Σy, Σy²)`; the right child is `totals − left`. Two fused scalar
//! kernels produce those triples, both carrying every live attempt's
//! accumulators through one branch-free pass that adds `mask * value` with
//! a 0/1 comparison mask:
//!
//! * [`scan_left`] reads a column-major copy of the leaf ([`LeafColumns`]),
//!   gathered once and shared by every particle that scans the same leaf,
//! * [`scan_left_direct`] streams the leaf's point list without a copy, for
//!   leaves only one particle will scan.
//!
//! Both accumulate each attempt in point order, so their triples are
//! **bit-identical** — the property `tests/scan_identity.rs` pins, and the
//! one that lets the tree pick either path per leaf without changing
//! results.

/// Split-proposal attempts evaluated per fused scan of the gathered leaf.
pub const ATTEMPT_BATCH: usize = 8;

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

/// Runs the fused scalar pass over the gathered columns for the first
/// `live` attempts, returning each attempt's left-side `(n, Σy, Σy²)` in the
/// first `live` entries of the three output arrays. Each attempt accumulates
/// in point order, so the triples are bit-identical to an attempt-at-a-time
/// evaluation and to [`scan_left_direct`] over the same points.
pub fn scan_left(
    columns: &LeafColumns,
    dims: &[usize; ATTEMPT_BATCH],
    thresholds: &[f64; ATTEMPT_BATCH],
    live: usize,
) -> (
    [f64; ATTEMPT_BATCH],
    [f64; ATTEMPT_BATCH],
    [f64; ATTEMPT_BATCH],
) {
    let mut n = [0.0f64; ATTEMPT_BATCH];
    let mut s = [0.0f64; ATTEMPT_BATCH];
    let mut q = [0.0f64; ATTEMPT_BATCH];
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
    (n, s, q)
}

/// Fused scalar scan over `(features, target)` records streamed straight
/// from a leaf's point list — the no-copy path for leaves only one particle
/// will ever scan, where materializing [`LeafColumns`] first would cost more
/// than the single scan it feeds. Point order is the stream order, so the
/// triples are bit-identical to [`scan_left`] run on a gather of the same
/// stream.
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
}
