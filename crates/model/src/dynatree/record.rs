//! Leaf records: the payload of a dynamic-tree leaf, stored once and shared
//! by every arena that holds the leaf.
//!
//! A [`LeafRecord`] holds everything a leaf carries besides its place in
//! the tree: its observation ids in list order, a row-major copy of those
//! points' features next to `y` and `y²` ([`LeafRows`]), and its
//! [`LeafStats`], per-dimension bounds and cached [`LeafMoments`]. A tree
//! keeps one record id per leaf; the model owns the records in a
//! refcounted pool ([`LeafRecords`]), so a copy-on-write clone of a tree
//! copies its node columns and bumps one refcount per leaf.
//!
//! The pool rests on one invariant: several trees hold a record only when
//! they are copy-on-write copies of one tree, so every holder has it at the
//! same root path. A new observation lands in a leaf's region by that path
//! alone, so it lands in a shared record for every holder or for none of
//! them, and the update inserts it once per distinct record.

use alic_stats::features::FeatureMatrix;

use super::scan::LeafRows;
use super::tree::{MomentCtx, Split};
use crate::leaf::{LeafMoments, LeafStats};

/// Values per row of a record besides the point's features: `y`, `y²`
/// and the observation id.
const ROW_EXTRA: usize = 3;

/// Leaf statistics of the targets `ys` via a two-pass sum: the mean from
/// `Σy`, then `m2 = Σ(y − mean)²` — the numerically robust batch
/// counterpart of the online update, with no per-point division.
fn stats_of_targets(ys: impl ExactSizeIterator<Item = f64> + Clone) -> LeafStats {
    let count = ys.len();
    if count == 0 {
        return LeafStats::new();
    }
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for y in ys.clone() {
        sum += y;
        min = min.min(y);
        max = max.max(y);
    }
    let mean = sum / count as f64;
    let mut m2 = 0.0;
    for y in ys {
        let d = y - mean;
        m2 += d * d;
    }
    LeafStats::from_parts(count, mean, m2, min, max)
}

/// Widens interleaved `[lo, hi]` pairs by one point's features.
#[inline]
fn expand_bounds(bounds: &mut [f64], features: &[f64]) {
    for (pair, &v) in bounds.chunks_exact_mut(2).zip(features) {
        pair[0] = pair[0].min(v);
        pair[1] = pair[1].max(v);
    }
}

/// One leaf's points and the quantities derived from them. See the
/// [module documentation](self).
///
/// All per-point data sits in one buffer, so that an insert writes at one
/// tail and a grow or prune copies one stream. Aligned to a cache line:
/// the update builds and inserts into records that sit side by side in one
/// buffer on different threads, and two of them must never share a line.
#[derive(Debug, Clone, Default, PartialEq)]
#[repr(align(64))]
pub(crate) struct LeafRecord {
    /// Feature width.
    n_dims: usize,
    /// The per-dimension `[lo, hi]` pairs over the points (`2 * n_dims`
    /// values, exactly equal to a fresh scan of them), then one row per
    /// point in list order: its features, `y`, `y²` and its observation id
    /// (as the bits of an `f64`).
    data: Vec<f64>,
    stats: LeafStats,
    /// Derived from `stats`; refreshed whenever they change.
    moments: LeafMoments,
}

impl LeafRecord {
    /// Values per row.
    fn stride(&self) -> usize {
        self.n_dims + ROW_EXTRA
    }

    /// The rows, one per point.
    fn points(&self) -> &[f64] {
        &self.data[2 * self.n_dims..]
    }

    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.points().len() / self.stride()
    }

    /// Observation ids in list order.
    pub(crate) fn ids(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        let id = self.n_dims + 2;
        self.points()
            .chunks_exact(self.stride())
            .map(move |row| row[id].to_bits() as u32)
    }

    /// The leaf's target statistics.
    pub(crate) fn stats(&self) -> &LeafStats {
        &self.stats
    }

    /// Per-dimension `[lo, hi]` pairs over the points (interleaved:
    /// `[lo₀, hi₀, lo₁, hi₁, …]`).
    pub(crate) fn bounds(&self) -> &[f64] {
        &self.data[..2 * self.n_dims]
    }

    /// The cached derived quantities of `stats`.
    pub(crate) fn moments(&self) -> &LeafMoments {
        &self.moments
    }

    /// The points as contiguous rows, the input of a split scan.
    pub(crate) fn rows(&self) -> LeafRows<'_> {
        LeafRows {
            n_dims: self.n_dims,
            stride: self.stride(),
            rows: self.points(),
        }
    }

    /// The targets in list order.
    fn targets(&self) -> impl ExactSizeIterator<Item = f64> + Clone + '_ {
        let y = self.n_dims;
        self.points()
            .chunks_exact(self.stride())
            .map(move |row| row[y])
    }

    /// Empties the record for reuse at width `n_dims`, keeping its
    /// allocation.
    pub(crate) fn reset(&mut self, n_dims: usize) {
        self.n_dims = n_dims;
        self.data.clear();
        for _ in 0..n_dims {
            self.data.push(f64::INFINITY);
            self.data.push(f64::NEG_INFINITY);
        }
        self.stats = LeafStats::new();
        self.moments = LeafMoments::default();
    }

    /// Appends one point (observation `id` at `features` with target `y`)
    /// and widens the bounds. Leaves the statistics alone.
    #[inline]
    fn push_point(&mut self, id: u32, features: &[f64], y: f64) {
        expand_bounds(&mut self.data[..2 * self.n_dims], features);
        self.data.extend_from_slice(features);
        self.data
            .extend_from_slice(&[y, y * y, f64::from_bits(u64::from(id))]);
    }

    /// Appends a row copied from a record of the same width and widens
    /// the bounds.
    #[inline]
    fn push_row(&mut self, row: &[f64]) {
        let n = self.n_dims;
        expand_bounds(&mut self.data[..2 * n], &row[..n]);
        self.data.extend_from_slice(row);
    }

    /// Adds observation `id` at `features` with target `y` at the end of
    /// the list, with an online update of the statistics.
    pub(crate) fn insert(&mut self, id: usize, features: &[f64], y: f64, ctx: &MomentCtx<'_>) {
        self.push_point(id as u32, features, y);
        self.stats.push(y);
        self.moments = self.stats.moments(ctx.prior, ctx.table);
    }

    /// Writes the two children of a grow of this leaf with `split` into
    /// `left` and `right` (each emptied first): every point in list order
    /// goes left when `features[dimension] <= threshold`, and each child's
    /// statistics come from a two-pass sum over its targets.
    pub(crate) fn split_into(
        &self,
        split: Split,
        left: &mut LeafRecord,
        right: &mut LeafRecord,
        ctx: &MomentCtx<'_>,
    ) {
        left.reset(self.n_dims);
        right.reset(self.n_dims);
        for row in self.points().chunks_exact(self.stride()) {
            let side = if row[split.dimension] <= split.threshold {
                &mut *left
            } else {
                &mut *right
            };
            side.push_row(row);
        }
        for child in [left, right] {
            child.stats = stats_of_targets(child.targets());
            child.moments = child.stats.moments(ctx.prior, ctx.table);
        }
    }

    /// Writes the leaf a prune leaves behind into `out` (emptied first):
    /// `left`'s points, then `right`'s, the two statistics merged in O(1)
    /// and the union of the two bounds.
    pub(crate) fn merge_into(
        left: &LeafRecord,
        right: &LeafRecord,
        out: &mut LeafRecord,
        ctx: &MomentCtx<'_>,
    ) {
        out.n_dims = left.n_dims;
        out.data.clear();
        let pairs = left
            .bounds()
            .chunks_exact(2)
            .zip(right.bounds().chunks_exact(2));
        for (l, r) in pairs {
            out.data
                .extend_from_slice(&[l[0].min(r[0]), l[1].max(r[1])]);
        }
        out.data.extend_from_slice(left.points());
        out.data.extend_from_slice(right.points());
        out.stats = left.stats;
        out.stats.merge(&right.stats);
        out.moments = out.stats.moments(ctx.prior, ctx.table);
    }

    /// Checks the record against the training rows: its rows equal `xs`
    /// and `ys` at its ids, its statistics count them, and its bounds and
    /// moments equal a fresh computation, all bitwise.
    fn validate(&self, xs: &FeatureMatrix, ys: &[f64], ctx: &MomentCtx<'_>) -> Result<(), String> {
        let n = self.n_dims;
        if self.data.len() < 2 * n || !self.points().len().is_multiple_of(self.stride()) {
            return Err(format!("{} values do not make whole rows", self.data.len()));
        }
        if self.stats.count() != self.len() {
            return Err(format!(
                "{} rows but a count of {}",
                self.len(),
                self.stats.count()
            ));
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut fresh = LeafRecord::default();
        fresh.reset(n);
        for (i, (row, id)) in self
            .points()
            .chunks_exact(self.stride())
            .zip(self.ids())
            .enumerate()
        {
            let id = id as usize;
            if id >= ys.len() {
                return Err(format!("id {id} is past the training set"));
            }
            fresh.push_point(id as u32, xs.row(id), ys[id]);
            let expect = &fresh.points()[i * self.stride()..];
            if bits(row) != bits(&expect[..self.stride()]) {
                return Err(format!("row {i} differs from observation {id}"));
            }
        }
        if bits(fresh.bounds()) != bits(self.bounds()) {
            return Err(format!(
                "bounds {:?} diverged from a fresh scan {:?}",
                self.bounds(),
                fresh.bounds()
            ));
        }
        let expect = self.stats.moments(ctx.prior, ctx.table);
        if expect != self.moments {
            return Err(format!(
                "moments {:?} diverged from fresh {expect:?}",
                self.moments
            ));
        }
        Ok(())
    }
}

/// The model's refcounted pool of [`LeafRecord`]s. A record's refcount is
/// the number of live tree leaves that hold it; a record at zero sits on
/// the free list, its allocations kept for the next record built.
#[derive(Debug, Clone, Default)]
pub(crate) struct LeafRecords {
    records: Vec<LeafRecord>,
    refs: Vec<u32>,
    /// Zero-refcount ids, popped from the back.
    free: Vec<u32>,
    /// Feature width of every record.
    n_dims: usize,
}

impl std::ops::Index<u32> for LeafRecords {
    type Output = LeafRecord;

    #[inline]
    fn index(&self, id: u32) -> &LeafRecord {
        &self.records[id as usize]
    }
}

impl LeafRecords {
    /// Drops every record and sets the feature width, keeping the
    /// allocations of the pool itself.
    pub(crate) fn clear(&mut self, n_dims: usize) {
        self.records.clear();
        self.refs.clear();
        self.free.clear();
        self.n_dims = n_dims;
    }

    /// Number of record ids, free ones included.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Claims a free id (or a new one) and moves its record out, stale
    /// contents and allocations included, for a builder that empties it
    /// first ([`LeafRecord::reset`], [`LeafRecord::split_into`],
    /// [`LeafRecord::merge_into`]). The id's refcount stays zero until the
    /// caller [`put`]s the record back and [`retain`]s it.
    ///
    /// [`put`]: LeafRecords::put
    /// [`retain`]: LeafRecords::retain
    pub(crate) fn claim(&mut self) -> (u32, LeafRecord) {
        let id = self.free.pop().unwrap_or_else(|| {
            self.records.push(LeafRecord::default());
            self.refs.push(0);
            (self.records.len() - 1) as u32
        });
        (id, std::mem::take(&mut self.records[id as usize]))
    }

    /// Moves record `id` out, leaving an empty record in its place until
    /// it is [`put`](LeafRecords::put) back.
    pub(crate) fn take(&mut self, id: u32) -> LeafRecord {
        std::mem::take(&mut self.records[id as usize])
    }

    /// Puts a record moved out by [`take`](LeafRecords::take) or
    /// [`claim`](LeafRecords::claim) back at `id`.
    pub(crate) fn put(&mut self, id: u32, record: LeafRecord) {
        self.records[id as usize] = record;
    }

    /// Adds observation `point` at `row` with target `y` to record `id`
    /// ([`LeafRecord::insert`]).
    pub(crate) fn insert(
        &mut self,
        id: u32,
        point: usize,
        row: &[f64],
        y: f64,
        ctx: &MomentCtx<'_>,
    ) {
        self.records[id as usize].insert(point, row, y, ctx);
    }

    /// One more live leaf holds record `id`.
    #[inline]
    pub(crate) fn retain(&mut self, id: u32) {
        self.refs[id as usize] += 1;
    }

    /// One live leaf fewer holds record `id`; at zero it joins the free
    /// list.
    #[inline]
    pub(crate) fn release(&mut self, id: u32) {
        let refs = &mut self.refs[id as usize];
        debug_assert!(*refs > 0, "record {id} released more often than held");
        *refs -= 1;
        if *refs == 0 {
            self.free.push(id);
        }
    }

    /// A new record holding `ids` in list order, with their rows copied
    /// from `xs`/`ys` and the given statistics and bounds (a restore keeps
    /// the stored bits), held by one leaf.
    pub(crate) fn restore(
        &mut self,
        ids: &[u32],
        xs: &FeatureMatrix,
        ys: &[f64],
        stats: LeafStats,
        bounds: &[f64],
        ctx: &MomentCtx<'_>,
    ) -> u32 {
        let (id, mut record) = self.claim();
        record.reset(self.n_dims);
        for &p in ids {
            record.push_point(p, xs.row(p as usize), ys[p as usize]);
        }
        record.stats = stats;
        record.data[..bounds.len()].copy_from_slice(bounds);
        record.moments = stats.moments(ctx.prior, ctx.table);
        self.put(id, record);
        self.retain(id);
        id
    }

    /// Checks the pool against `holders`, the number of live leaves that
    /// hold each id: every refcount equals its holder count, the free list
    /// lists exactly the ids at zero, and every held record passes
    /// [`LeafRecord::validate`].
    pub(crate) fn validate(
        &self,
        holders: &[u32],
        xs: &FeatureMatrix,
        ys: &[f64],
        ctx: &MomentCtx<'_>,
    ) -> Result<(), String> {
        let mut free = vec![false; self.records.len()];
        for &id in &self.free {
            if std::mem::replace(&mut free[id as usize], true) {
                return Err(format!("record {id} is on the free list twice"));
            }
        }
        for (id, record) in self.records.iter().enumerate() {
            let (refs, held) = (self.refs[id], holders[id]);
            if refs != held {
                return Err(format!(
                    "record {id}: refcount {refs}, but {held} live leaves hold it"
                ));
            }
            if free[id] != (refs == 0) {
                return Err(format!(
                    "record {id}: refcount {refs}, on the free list: {}",
                    free[id]
                ));
            }
            if held > 0 {
                if record.n_dims != self.n_dims {
                    return Err(format!("record {id}: bounds of the wrong width"));
                }
                record
                    .validate(xs, ys, ctx)
                    .map_err(|e| format!("record {id}: {e}"))?;
            }
        }
        Ok(())
    }
}
