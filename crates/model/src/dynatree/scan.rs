//! Split-proposal scan kernel over one leaf.
//!
//! A grow move evaluates a batch of candidate splits of one leaf. For each
//! candidate `(dimension, threshold)` the scorer needs the left child's
//! `(n, Σy, Σy²)`; the right child is `totals − left`. [`scan_left`]
//! produces those triples in one branch-free pass over the leaf's
//! contiguous rows ([`LeafRows`]), carrying every live attempt's
//! accumulators at once and adding `mask * value` with a 0/1 comparison
//! mask.
//!
//! Each attempt accumulates in point order, so its triple is
//! **bit-identical** to an attempt-at-a-time stream over the same points —
//! the property `tests/scan_identity.rs` pins, and the one that keeps the
//! committed dynatree goldens independent of how the points are stored.

/// Split-proposal attempts evaluated per fused scan of a leaf.
pub const ATTEMPT_BATCH: usize = 8;

/// One leaf's points, in list order, as contiguous rows: each row holds a
/// point's features (`n_dims` values), then its target `y`, then `y²`,
/// then whatever else the owner keeps, `stride` values in all. A leaf
/// record keeps its points in exactly this layout, so a scan reads them in
/// place.
#[derive(Debug, Clone, Copy)]
pub struct LeafRows<'a> {
    /// Features per point.
    pub n_dims: usize,
    /// Values per row, at least `n_dims + 2`.
    pub stride: usize,
    /// The rows, one per point: point `i` is
    /// `rows[i * stride..(i + 1) * stride]`. `y²` is computed once when the
    /// point joins the leaf, so no scan recomputes it per attempt.
    pub rows: &'a [f64],
}

/// Runs the fused pass over `rows` for the first `live` attempts, returning
/// each attempt's left-side `(n, Σy, Σy²)` in the first `live` entries of
/// the three output arrays. Each attempt accumulates in point order, so the
/// triples are bit-identical to an attempt-at-a-time evaluation.
///
/// # Panics
///
/// Panics if an attempt's dimension is not below `rows.n_dims`, or a row
/// is narrower than `n_dims + 2`.
pub fn scan_left(
    rows: LeafRows<'_>,
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
        1 => scan_fused::<1>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        2 => scan_fused::<2>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        3 => scan_fused::<3>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        4 => scan_fused::<4>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        5 => scan_fused::<5>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        6 => scan_fused::<6>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        7 => scan_fused::<7>(rows, dims, thresholds, &mut n, &mut s, &mut q),
        _ => scan_fused::<8>(rows, dims, thresholds, &mut n, &mut s, &mut q),
    }
    (n, s, q)
}

/// The fused pass: one sweep over the rows, carrying every live attempt's
/// `(n, Σy, Σy²)` simultaneously. `K` is the live-attempt count,
/// monomorphized so the accumulator arrays live in registers; the summation
/// order per attempt is point order, identical to an attempt-at-a-time scan.
fn scan_fused<const K: usize>(
    rows: LeafRows<'_>,
    dims: &[usize; ATTEMPT_BATCH],
    thresholds: &[f64; ATTEMPT_BATCH],
    n: &mut [f64; ATTEMPT_BATCH],
    s: &mut [f64; ATTEMPT_BATCH],
    q: &mut [f64; ATTEMPT_BATCH],
) {
    let mut local_dims = [0usize; K];
    let mut thr = [0.0f64; K];
    local_dims.copy_from_slice(&dims[..K]);
    thr.copy_from_slice(&thresholds[..K]);
    let (y, y_sq) = (rows.n_dims, rows.n_dims + 1);
    assert!(
        y_sq < rows.stride && local_dims.iter().all(|&d| d < rows.n_dims),
        "attempt dimension or row width out of range"
    );
    let mut nk = [0.0f64; K];
    let mut sk = [0.0f64; K];
    let mut qk = [0.0f64; K];
    for row in rows.rows.chunks_exact(rows.stride) {
        let (y, y_sq) = (row[y], row[y_sq]);
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
