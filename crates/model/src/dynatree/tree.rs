//! Arena-backed storage for a single particle's tree.
//!
//! Each particle of the dynamic-tree model carries one regression tree. The
//! tree partitions the input space into axis-aligned hyper-rectangles; every
//! leaf holds the indices of the training observations that fall inside it
//! plus their sufficient statistics ([`LeafStats`]).
//!
//! The three structural moves of Taddy et al. (Figure 4 of the paper) are
//! implemented here: **stay** (no change), **grow** (split the leaf that
//! received the new observation) and **prune** (collapse the leaf's parent
//! back into a leaf).
//!
//! # Storage layout
//!
//! [`ParticleTree`] is a struct-of-arrays arena:
//!
//! * **Nodes** are parallel `u32`/`f64` columns (`dim`, `threshold`,
//!   `left`/`right`, `parent`, `depth`, `stats`) indexed by node id. A leaf
//!   is marked by `dim == LEAF_NODE`, a slot freed by a prune (and reusable
//!   by a later grow) by `dim == FREE_NODE`. No per-node heap allocation
//!   exists anywhere.
//! * **Points** live in one flat intrusive linked list: `next[p]` is the
//!   next observation index in the same leaf as observation `p`, and every
//!   node carries a `head`/`tail` pair. Inserting an observation is O(1),
//!   growing relinks the list in place, pruning concatenates two lists in
//!   O(1) — no per-leaf `Vec<usize>` is ever allocated or copied.
//!
//! Cloning a tree is therefore a handful of `memcpy`s, which is what makes
//! the copy-on-write particle resampling in [`super`] cheap.
//!
//! # Caches
//!
//! Three derived views are cached *on the tree* and kept fresh:
//!
//! * `flat` — the dense [`FlatNode`] traversal array of the single-point
//!   paths ([`find_leaf_flat`]). Rebuilt only when a structural move
//!   (grow/prune) lands; inserts do not touch the tree's shape, so
//!   steady-state scoring does zero flattening work.
//! * `moments` — one [`LeafMoments`] per node (valid for live leaves):
//!   predictive mean/variance, log marginal likelihood and the cached
//!   log-density constants. Refreshed per affected leaf on insert, grow and
//!   prune.
//! * `path` — one root-path id per node in the owning model's
//!   `PathTable`, the index every batch kernel reads a leaf's lanes
//!   through. An insert and a prune leave it unchanged (a pruned parent
//!   keeps its path; freed slots are never read), a copy copies it, and a
//!   grow leaves its two children for the model to intern
//!   (`ParticleTree::assign_child_paths`), which needs the shared table
//!   and so runs serially after a parallel batch of moves.
//!
//! Mutating methods take a [`MomentCtx`] (the shared prior plus the
//! `ln Γ` table) so the first two never go stale; `validate_caches`
//! recomputes both views from scratch and compares bitwise, and the
//! model's `validate_caches` checks every path id against a freshly
//! rebuilt table. The root-level property tests exercise both after
//! arbitrary fit/update sequences.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use alic_data::io::{self, JsonValue};
use alic_stats::FeatureMatrix;

use crate::leaf::{LeafMoments, LeafPrior, LeafStats, LnGammaTable};
use crate::snapshot;

/// A proposed axis-aligned split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Feature dimension the split tests.
    pub dimension: usize,
    /// Points with `x[dimension] <= threshold` go to the left child.
    pub threshold: f64,
}

/// Marker stored in the `dim` column for live leaves.
const LEAF_NODE: u32 = u32::MAX;
/// Marker stored in the `dim` column for freed (prunable-reusable) slots.
const FREE_NODE: u32 = u32::MAX - 1;
/// Linked-list terminator / "no node" sentinel.
const NONE: u32 = u32::MAX;

/// A compact, traversal-only copy of one tree node (24 bytes). The
/// single-point paths (weighting, `predict`) walk these dense arrays with
/// [`find_leaf_flat`]; the tree keeps its own copy cached and structurally
/// fresh, so no call ever re-flattens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatNode {
    /// Split dimension, or [`FLAT_LEAF`] when the node is a leaf.
    pub dimension: u32,
    /// Left child index (internal nodes only).
    pub left: u32,
    /// Right child index (internal nodes only).
    pub right: u32,
    /// Split threshold (internal nodes only).
    pub threshold: f64,
}

/// Marker stored in [`FlatNode::dimension`] for leaves (and free slots,
/// which a traversal can never reach).
pub const FLAT_LEAF: u32 = u32::MAX;

/// Index of the leaf containing `x` in a flattened tree.
#[inline]
pub fn find_leaf_flat(nodes: &[FlatNode], x: &[f64]) -> usize {
    let mut index = 0usize;
    loop {
        let node = nodes[index];
        if node.dimension == FLAT_LEAF {
            return index;
        }
        index = if x[node.dimension as usize] <= node.threshold {
            node.left as usize
        } else {
            node.right as usize
        };
    }
}

/// Width of a scoring block: one u64 reach word.
pub const TRAVERSE_BLOCK: usize = 64;

/// Reusable buffers of [`PathTable::route`]; after a route, [`reach`]
/// holds one reach word per path.
///
/// [`reach`]: Routing::reach
#[derive(Debug, Clone, Default)]
pub(crate) struct Routing {
    reach: Vec<u64>,
    /// One `<=` mask per split.
    masks: Vec<u64>,
    /// Word `r`: the lanes whose value exceeds exactly `r` thresholds of
    /// the dimension being routed.
    exceeding: Vec<u64>,
}

impl Routing {
    /// Bit `i` of word `p` is set iff row `i` of the last routed block
    /// passes every step of path `p`.
    #[inline]
    pub(crate) fn reach(&self) -> &[u64] {
        &self.reach
    }
}

/// Multiplicative hashing for [`PathTable`]'s entry keys, which are ids
/// the table assigns itself. Split keys carry threshold bits, which a
/// restored snapshot supplies, so they keep the default keyed hasher.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    }
}

/// The root paths of every tree of a [`super::DynaTree`], hash-consed into
/// one table that persists from call to call.
///
/// A node's root path is the sequence of `(split, side)` steps from the
/// root down to it. Entry `n` of the table is `(parent path, split id)`:
/// the internal node at `parent path` that tests `split`. Its children are
/// paths `2n + 1` (`x[dimension] <= threshold`) and `2n + 2` (`>`), and
/// the root is path 0. An entry is interned only after its parent path
/// exists, so parents always come before children and one in-order pass
/// over the entries routes a block ([`route`](PathTable::route)).
///
/// Copy-on-write particles keep their ancestors' nodes, so the trees of a
/// particle set share most of their paths: every tree stores one path id
/// per node ([`ParticleTree::path_ids`]), and a scoring pass reads each
/// leaf's lanes through its path instead of walking the tree. Splits are
/// interned too: two nodes share a split id iff they test the same
/// dimension against a threshold with the same bits.
///
/// Entries are never removed one by one. A prune or a retired tree leaves
/// its entries behind, and each dead split still costs one mask per block
/// until the model rebuilds the table from its live trees.
#[derive(Debug, Clone, Default)]
pub(crate) struct PathTable {
    /// Entry `n`: `(parent path, split id)`.
    entries: Vec<(u32, u32)>,
    entry_of: HashMap<(u32, u32), u32, BuildHasherDefault<IdHasher>>,
    /// Split dimension per split id.
    split_dims: Vec<u32>,
    /// Split threshold per split id.
    split_thresholds: Vec<f64>,
    /// `(dimension, threshold bits)` → split id.
    split_of: HashMap<(u32, u64), u32>,
    /// Per dimension, its splits' `(threshold, split id)` in ascending
    /// threshold order (a NaN threshold, which no value passes, is left
    /// out and keeps an empty mask).
    by_dim: Vec<Vec<(f64, u32)>>,
}

impl PathTable {
    /// Number of path ids: the root plus two children per entry.
    pub(crate) fn path_count(&self) -> usize {
        2 * self.entries.len() + 1
    }

    /// Number of entries (internal-node paths).
    pub(crate) fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct splits.
    pub(crate) fn split_count(&self) -> usize {
        self.split_dims.len()
    }

    /// Empties the table, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.entry_of.clear();
        self.split_dims.clear();
        self.split_thresholds.clear();
        self.split_of.clear();
        self.by_dim.iter_mut().for_each(Vec::clear);
    }

    /// The paths of the `<=` and `>` children of the node at `parent`
    /// that tests `x[dimension] <= threshold`, interning the entry (and the
    /// split) on first sight.
    pub(crate) fn children(&mut self, parent: u32, dimension: u32, threshold: f64) -> (u32, u32) {
        let next_split = self.split_dims.len() as u32;
        let split = *self
            .split_of
            .entry((dimension, threshold.to_bits()))
            .or_insert(next_split);
        if split == next_split {
            self.split_dims.push(dimension);
            self.split_thresholds.push(threshold);
            if !threshold.is_nan() {
                let d = dimension as usize;
                if self.by_dim.len() <= d {
                    self.by_dim.resize_with(d + 1, Vec::new);
                }
                let sorted = &mut self.by_dim[d];
                let at = sorted.partition_point(|&(t, _)| t < threshold);
                sorted.insert(at, (threshold, split));
            }
        }
        let next_entry = self.entries.len() as u32;
        let n = *self.entry_of.entry((parent, split)).or_insert(next_entry);
        if n == next_entry {
            debug_assert!(
                (parent as usize) < self.path_count(),
                "parent interned first"
            );
            self.entries.push((parent, split));
        }
        (2 * n + 1, 2 * n + 2)
    }

    /// Routes a block of at most [`TRAVERSE_BLOCK`] rows: computes one
    /// `<=` mask per split (bit `i` set iff `row_i[dimension] <=
    /// threshold`), then one reach word per path into
    /// [`routing.reach()`](Routing::reach) with one AND per path.
    ///
    /// The masks come one dimension at a time from the dimension's sorted
    /// thresholds: a value that exceeds exactly `r` of them (one binary
    /// search) passes the `<=` test of every split from the `r`-th
    /// threshold up, so a prefix OR over the per-`r` lane words yields
    /// every split's mask. For non-NaN values `v <= t` is `!(t < v)`, and
    /// a NaN value passes no test, so each bit is the comparison
    /// [`find_leaf_flat`] makes. A tree's leaf at path `p` therefore
    /// receives exactly the lanes of `reach[p]`: every lane lands in
    /// exactly the leaf `find_leaf_flat` returns.
    ///
    /// # Panics
    ///
    /// Panics if `rows` holds more than [`TRAVERSE_BLOCK`] rows or a row
    /// is narrower than a split's dimension.
    pub(crate) fn route(&self, rows: &[&[f64]], routing: &mut Routing) {
        assert!(rows.len() <= TRAVERSE_BLOCK, "a block is at most one word");
        let Routing {
            reach,
            masks,
            exceeding,
        } = routing;
        masks.clear();
        masks.resize(self.split_count(), 0);
        for (dimension, sorted) in self.by_dim.iter().enumerate() {
            if sorted.is_empty() {
                continue;
            }
            exceeding.clear();
            exceeding.resize(sorted.len() + 1, 0);
            for (lane, row) in rows.iter().enumerate() {
                let value = row[dimension];
                if !value.is_nan() {
                    exceeding[sorted.partition_point(|&(t, _)| t < value)] |= 1 << lane;
                }
            }
            let mut lanes = 0u64;
            for (&(_, split), &above) in sorted.iter().zip(exceeding.iter()) {
                lanes |= above;
                masks[split as usize] = lanes;
            }
        }
        reach.clear();
        reach.reserve(self.path_count());
        reach.push(match rows.len() {
            TRAVERSE_BLOCK => u64::MAX,
            n => (1u64 << n) - 1,
        });
        for &(parent, split) in &self.entries {
            let (lanes, mask) = (reach[parent as usize], masks[split as usize]);
            reach.push(lanes & mask);
            reach.push(lanes & !mask);
        }
    }

    /// The `(dimension, threshold bits, goes right)` steps from the root
    /// to `path`, root first.
    ///
    /// # Panics
    ///
    /// Panics if `path` is not below [`path_count`](PathTable::path_count).
    pub(crate) fn steps(&self, mut path: u32) -> Vec<(u32, u64, bool)> {
        let mut steps = Vec::new();
        while path != 0 {
            let n = (path - 1) / 2;
            let (parent, split) = self.entries[n as usize];
            let s = split as usize;
            steps.push((
                self.split_dims[s],
                self.split_thresholds[s].to_bits(),
                path.is_multiple_of(2),
            ));
            path = parent;
        }
        steps.reverse();
        steps
    }
}

std::thread_local! {
    /// Per-thread target buffers for the grow move's two-pass child
    /// statistics.
    static GROW_TARGETS: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Leaf statistics of a buffered target slice via a two-pass sum: the mean
/// from `Σy`, then `m2 = Σ(y − mean)²` — the numerically robust batch
/// counterpart of the online update, with no per-point division.
fn stats_of_targets(ys: &[f64]) -> LeafStats {
    if ys.is_empty() {
        return LeafStats::new();
    }
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &y in ys {
        sum += y;
        min = min.min(y);
        max = max.max(y);
    }
    let mean = sum / ys.len() as f64;
    let mut m2 = 0.0;
    for &y in ys {
        let d = y - mean;
        m2 += d * d;
    }
    LeafStats::from_parts(ys.len(), mean, m2, min, max)
}

/// Fresh `[∞, −∞]` per-dimension bound pairs.
fn empty_bounds(n_dims: usize) -> Vec<f64> {
    let mut b = Vec::with_capacity(2 * n_dims);
    for _ in 0..n_dims {
        b.push(f64::INFINITY);
        b.push(f64::NEG_INFINITY);
    }
    b
}

/// Expands interleaved `[lo, hi]` pairs with one feature row.
#[inline]
fn expand_bounds(bounds: &mut [f64], row: &[f64]) {
    for (pair, &v) in bounds.chunks_exact_mut(2).zip(row) {
        pair[0] = pair[0].min(v);
        pair[1] = pair[1].max(v);
    }
}

/// The shared inputs every cache refresh needs: the model's leaf prior and
/// its memoized `ln Γ` table (which must cover the tree's largest leaf
/// count).
#[derive(Debug, Clone, Copy)]
pub struct MomentCtx<'a> {
    /// Leaf prior shared by every particle.
    pub prior: &'a LeafPrior,
    /// `ln Γ` memo table, extended once per update by the model.
    pub table: &'a LnGammaTable,
}

/// One particle's regression tree in arena storage. See the [module
/// documentation](self) for the layout.
#[derive(Debug, PartialEq)]
pub struct ParticleTree {
    /// Split dimension per node, or [`LEAF_NODE`] / [`FREE_NODE`].
    dim: Vec<u32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
    /// Parent node id ([`NONE`] for the root).
    parent: Vec<u32>,
    depth: Vec<u32>,
    stats: Vec<LeafStats>,
    /// First observation index in the node's point list ([`NONE`] if empty).
    head: Vec<u32>,
    /// Last observation index in the node's point list.
    tail: Vec<u32>,
    /// Intrusive per-observation "next point in the same leaf" links.
    next: Vec<u32>,
    /// Node slots freed by prunes, reusable by grows (LIFO).
    free: Vec<u32>,
    /// Monotone upper bound on any node depth this tree has ever reached
    /// (prunes do not lower it). Lets the model size its per-depth
    /// split-prior table without scanning nodes.
    depth_bound: u32,
    /// Feature dimensionality (width of the `bounds` rows).
    n_dims: usize,
    /// Per-node, per-dimension `[lo, hi]` pairs over the node's points:
    /// `bounds[node*2*n_dims + 2*d]` is the minimum of feature `d`,
    /// `…+ 2*d + 1` the maximum. Maintained exactly: inserts expand, grows
    /// recompute during their partition walk, prunes take the children's
    /// union — so a leaf's bounds always equal a fresh scan of its points,
    /// and split proposals read min/max without touching the points at all.
    bounds: Vec<f64>,
    /// Cached dense traversal array (always structurally fresh).
    flat: Vec<FlatNode>,
    /// Cached per-node derived leaf quantities (fresh for live leaves).
    moments: Vec<LeafMoments>,
    /// Root-path id per node in the owning model's [`PathTable`] (fresh
    /// for live nodes once the model has interned a grow's children).
    path: Vec<u32>,
}

impl Clone for ParticleTree {
    fn clone(&self) -> Self {
        ParticleTree {
            dim: self.dim.clone(),
            threshold: self.threshold.clone(),
            left: self.left.clone(),
            right: self.right.clone(),
            parent: self.parent.clone(),
            depth: self.depth.clone(),
            stats: self.stats.clone(),
            head: self.head.clone(),
            tail: self.tail.clone(),
            next: self.next.clone(),
            free: self.free.clone(),
            depth_bound: self.depth_bound,
            n_dims: self.n_dims,
            bounds: self.bounds.clone(),
            flat: self.flat.clone(),
            moments: self.moments.clone(),
            path: self.path.clone(),
        }
    }

    /// Copy-assignment that reuses the destination's allocations — the
    /// copy-on-write resampler clones diverging particles into recycled
    /// arena slots through this, so steady-state updates allocate nothing.
    fn clone_from(&mut self, source: &Self) {
        self.dim.clone_from(&source.dim);
        self.threshold.clone_from(&source.threshold);
        self.left.clone_from(&source.left);
        self.right.clone_from(&source.right);
        self.parent.clone_from(&source.parent);
        self.depth.clone_from(&source.depth);
        self.stats.clone_from(&source.stats);
        self.head.clone_from(&source.head);
        self.tail.clone_from(&source.tail);
        self.next.clone_from(&source.next);
        self.free.clone_from(&source.free);
        self.depth_bound = source.depth_bound;
        self.n_dims = source.n_dims;
        self.bounds.clone_from(&source.bounds);
        self.flat.clone_from(&source.flat);
        self.moments.clone_from(&source.moments);
        self.path.clone_from(&source.path);
    }
}

/// Iterator over the observation indices stored in one leaf, in insertion
/// order.
#[derive(Debug, Clone)]
pub struct LeafPoints<'a> {
    next: &'a [u32],
    cursor: u32,
}

impl Iterator for LeafPoints<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.cursor == NONE {
            return None;
        }
        let point = self.cursor as usize;
        self.cursor = self.next[point];
        Some(point)
    }
}

impl ParticleTree {
    /// Creates a tree consisting of a single root leaf containing `points`.
    pub fn new_root(points: &[usize], xs: &FeatureMatrix, ys: &[f64], ctx: &MomentCtx<'_>) -> Self {
        let n_dims = xs.dim();
        let mut stats = LeafStats::new();
        let mut bounds = empty_bounds(n_dims);
        for &i in points {
            stats.push(ys[i]);
            expand_bounds(&mut bounds, xs.row(i));
        }
        let max_point = points.iter().copied().max().map_or(0, |m| m + 1);
        let mut next = vec![NONE; max_point];
        let mut head = NONE;
        let mut tail = NONE;
        for &p in points {
            let p = p as u32;
            if head == NONE {
                head = p;
            } else {
                next[tail as usize] = p;
            }
            tail = p;
        }
        let mut tree = ParticleTree {
            dim: vec![LEAF_NODE],
            threshold: vec![0.0],
            left: vec![NONE],
            right: vec![NONE],
            parent: vec![NONE],
            depth: vec![0],
            stats: vec![stats],
            head: vec![head],
            tail: vec![tail],
            next,
            free: Vec::new(),
            depth_bound: 0,
            n_dims,
            bounds,
            flat: Vec::new(),
            moments: vec![stats.moments(ctx.prior, ctx.table)],
            path: vec![0],
        };
        tree.refresh_flat();
        tree
    }

    /// A node-less placeholder used to move a tree out of its slot without
    /// allocating. Never traversed.
    pub(crate) fn placeholder() -> Self {
        ParticleTree {
            dim: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            parent: Vec::new(),
            depth: Vec::new(),
            stats: Vec::new(),
            head: Vec::new(),
            tail: Vec::new(),
            next: Vec::new(),
            free: Vec::new(),
            depth_bound: 0,
            n_dims: 0,
            bounds: Vec::new(),
            flat: Vec::new(),
            moments: Vec::new(),
            path: Vec::new(),
        }
    }

    /// The cached dense traversal array. Always structurally fresh; pass it
    /// to [`find_leaf_flat`].
    #[inline]
    pub fn flat_nodes(&self) -> &[FlatNode] {
        &self.flat
    }

    /// The cached per-node derived quantities (valid at live-leaf indices).
    #[inline]
    pub fn leaf_moments(&self) -> &[LeafMoments] {
        &self.moments
    }

    /// The per-node root-path ids in the owning model's [`PathTable`]
    /// (valid at live-node indices).
    #[inline]
    pub(crate) fn path_ids(&self) -> &[u32] {
        &self.path
    }

    /// Interns the paths of the two children of internal node `node`: the
    /// serial half of a grow, after the move itself ran on the pool.
    pub(crate) fn assign_child_paths(&mut self, node: usize, table: &mut PathTable) {
        let (left, right) = table.children(self.path[node], self.dim[node], self.threshold[node]);
        self.path[self.left[node] as usize] = left;
        self.path[self.right[node] as usize] = right;
    }

    /// Assigns every live node's path id by a walk from the root,
    /// interning into `table`.
    pub(crate) fn assign_paths(&mut self, table: &mut PathTable) {
        let mut path = std::mem::take(&mut self.path);
        self.walk_paths(table, &mut path);
        self.path = path;
    }

    /// Writes every live node's path id into `out` (one entry per node,
    /// [`NONE`] for free slots), parents before children.
    fn walk_paths(&self, table: &mut PathTable, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.dim.len(), NONE);
        out[0] = 0;
        let mut stack = vec![0usize];
        while let Some(node) = stack.pop() {
            if self.dim[node] < FREE_NODE {
                let (left, right) = (self.left[node] as usize, self.right[node] as usize);
                (out[left], out[right]) =
                    table.children(out[node], self.dim[node], self.threshold[node]);
                stack.extend([right, left]);
            }
        }
    }

    /// Checks every live node's path id against `fresh`, a table rebuilt
    /// from scratch: the maintained id must spell the same steps as the
    /// node's fresh id, and one fresh id must map to one maintained id
    /// across every tree checked with the same `seen` map.
    pub(crate) fn validate_paths(
        &self,
        table: &PathTable,
        fresh: &mut PathTable,
        seen: &mut HashMap<u32, u32>,
    ) -> Result<(), String> {
        let mut ids = Vec::new();
        self.walk_paths(fresh, &mut ids);
        for (node, &id) in ids.iter().enumerate() {
            if id == NONE {
                continue;
            }
            let kept = self.path[node];
            if kept as usize >= table.path_count() {
                return Err(format!("node {node}: path id {kept} is past the table"));
            }
            if table.steps(kept) != fresh.steps(id) {
                return Err(format!(
                    "node {node}: path {kept} spells {:?}, the node sits at {:?}",
                    table.steps(kept),
                    fresh.steps(id)
                ));
            }
            if *seen.entry(id).or_insert(kept) != kept {
                return Err(format!("node {node}: one root path has two ids"));
            }
        }
        Ok(())
    }

    /// Writes a freshly computed traversal copy of this tree into `out`
    /// (cleared first). Node indices are preserved, so flat leaf indices can
    /// be used with [`ParticleTree::leaf_stats`]. The cached
    /// [`flat_nodes`](ParticleTree::flat_nodes) view is maintained with
    /// exactly this computation.
    pub fn flatten_into(&self, out: &mut Vec<FlatNode>) {
        out.clear();
        out.extend((0..self.dim.len()).map(|i| {
            if self.dim[i] < FREE_NODE {
                FlatNode {
                    dimension: self.dim[i],
                    left: self.left[i],
                    right: self.right[i],
                    threshold: self.threshold[i],
                }
            } else {
                FlatNode {
                    dimension: FLAT_LEAF,
                    left: 0,
                    right: 0,
                    threshold: 0.0,
                }
            }
        }));
    }

    fn refresh_flat(&mut self) {
        let mut flat = std::mem::take(&mut self.flat);
        self.flatten_into(&mut flat);
        self.flat = flat;
    }

    /// Index of the leaf whose hyper-rectangle contains `x`.
    #[inline]
    pub fn find_leaf(&self, x: &[f64]) -> usize {
        find_leaf_flat(&self.flat, x)
    }

    /// Leaf statistics of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a live leaf.
    pub fn leaf_stats(&self, index: usize) -> &LeafStats {
        assert!(self.dim[index] == LEAF_NODE, "node {index} is not a leaf");
        &self.stats[index]
    }

    /// Observation indices stored in leaf `index`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a live leaf.
    pub fn leaf_points(&self, index: usize) -> LeafPoints<'_> {
        assert!(self.dim[index] == LEAF_NODE, "node {index} is not a leaf");
        LeafPoints {
            next: &self.next,
            cursor: self.head[index],
        }
    }

    /// Depth of node `index` (the root has depth 0).
    pub fn depth_of(&self, index: usize) -> usize {
        self.depth[index] as usize
    }

    /// Monotone upper bound on any depth this tree has ever reached.
    pub fn depth_bound(&self) -> usize {
        self.depth_bound as usize
    }

    /// Feature dimensionality the tree's splits and bounds range over.
    pub(crate) fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// Per-dimension `[lo, hi]` pairs over the points of leaf `index`
    /// (interleaved: `[lo₀, hi₀, lo₁, hi₁, …]`). Exactly equal to a fresh
    /// scan of the leaf's points.
    #[inline]
    pub fn leaf_bounds(&self, index: usize) -> &[f64] {
        &self.bounds[index * 2 * self.n_dims..(index + 1) * 2 * self.n_dims]
    }

    /// Parent of node `index`.
    pub fn parent_of(&self, index: usize) -> Option<usize> {
        match self.parent[index] {
            NONE => None,
            p => Some(p as usize),
        }
    }

    /// The sibling of leaf `index`, if the sibling is itself a leaf.
    pub fn leaf_sibling(&self, index: usize) -> Option<usize> {
        let parent = self.parent_of(index)?;
        if self.dim[parent] >= FREE_NODE {
            return None;
        }
        let sibling = if self.left[parent] as usize == index {
            self.right[parent] as usize
        } else {
            self.left[parent] as usize
        };
        (self.dim[sibling] == LEAF_NODE).then_some(sibling)
    }

    /// Number of live leaves.
    pub fn leaf_count(&self) -> usize {
        self.dim.iter().filter(|&&d| d == LEAF_NODE).count()
    }

    /// Maximum depth over live leaves.
    pub fn max_depth(&self) -> usize {
        (0..self.dim.len())
            .filter(|&i| self.dim[i] == LEAF_NODE)
            .map(|i| self.depth[i] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Total number of points stored across live leaves.
    #[cfg(test)]
    pub fn point_count(&self) -> usize {
        (0..self.dim.len())
            .filter(|&i| self.dim[i] == LEAF_NODE)
            .map(|i| self.stats[i].count())
            .sum()
    }

    /// Iterates over the indices of all live leaves.
    pub fn leaves(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.dim.len()).filter(|&i| self.dim[i] == LEAF_NODE)
    }

    /// Adds observation `point` at `x` (with target `y`) to the leaf
    /// containing `x` and returns that leaf's index.
    pub fn insert(&mut self, x: &[f64], point: usize, y: f64, ctx: &MomentCtx<'_>) -> usize {
        let leaf = self.find_leaf(x);
        self.insert_at(leaf, point, x, y, ctx);
        leaf
    }

    /// Adds observation `point` at `x` (with target `y`) to `leaf` directly —
    /// used when the caller already knows the leaf from the weighting
    /// traversal.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not a live leaf.
    pub fn insert_at(&mut self, leaf: usize, point: usize, x: &[f64], y: f64, ctx: &MomentCtx<'_>) {
        assert!(self.dim[leaf] == LEAF_NODE, "node {leaf} is not a leaf");
        if point >= self.next.len() {
            self.next.resize(point + 1, NONE);
        }
        let p = point as u32;
        self.next[point] = NONE;
        if self.head[leaf] == NONE {
            self.head[leaf] = p;
        } else {
            self.next[self.tail[leaf] as usize] = p;
        }
        self.tail[leaf] = p;
        self.stats[leaf].push(y);
        expand_bounds(
            &mut self.bounds[leaf * 2 * self.n_dims..(leaf + 1) * 2 * self.n_dims],
            x,
        );
        self.moments[leaf] = self.stats[leaf].moments(ctx.prior, ctx.table);
    }

    /// Log posterior-predictive density of `y` at the leaf containing `x`,
    /// evaluated from the cached flat traversal and leaf moments. The model
    /// weights its particles with the same two reads inline.
    #[cfg(test)]
    pub fn log_weight(&self, x: &[f64], y: f64) -> f64 {
        self.moments[self.find_leaf(x)].log_density(y)
    }

    /// Splits leaf `index` with `split`, distributing its points by the
    /// feature matrix `xs`. Returns `false` (and leaves the tree unchanged)
    /// if either child would receive fewer than `min_leaf` points.
    pub fn grow(
        &mut self,
        index: usize,
        split: Split,
        xs: &FeatureMatrix,
        ys: &[f64],
        min_leaf: usize,
        ctx: &MomentCtx<'_>,
    ) -> bool {
        if self.dim[index] != LEAF_NODE {
            return false;
        }
        // Count the partition without touching the links, so a rejected
        // split leaves the list intact.
        let mut left_count = 0usize;
        let mut total = 0usize;
        for p in self.leaf_points(index) {
            total += 1;
            if xs.get(p, split.dimension) <= split.threshold {
                left_count += 1;
            }
        }
        if left_count < min_leaf || total - left_count < min_leaf {
            return false;
        }
        self.grow_unchecked(index, split, xs, ys, ctx);
        true
    }

    /// [`grow`](ParticleTree::grow) without the child-size pre-pass, for
    /// callers whose split proposal already verified both children meet the
    /// minimum size (the particle-update apply path: `propose_split` counts
    /// with the exact same comparisons).
    ///
    /// Both children's path ids stay unassigned until the owning model
    /// interns them, which needs the model's shared path table and so runs
    /// serially after a parallel batch of moves.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a live leaf.
    pub fn grow_unchecked(
        &mut self,
        index: usize,
        split: Split,
        xs: &FeatureMatrix,
        ys: &[f64],
        ctx: &MomentCtx<'_>,
    ) {
        assert!(self.dim[index] == LEAF_NODE, "node {index} is not a leaf");
        // Relink the list into two chains, buffering each side's targets so
        // the child statistics come from a numerically robust two-pass sum
        // (mean first, then Σ(y − mean)²) without a per-point division, and
        // accumulating the children's exact per-dimension bounds.
        let depth = self.depth[index] + 1;
        self.depth_bound = self.depth_bound.max(depth);
        let n_dims = self.n_dims;
        let mut left_bounds = empty_bounds(n_dims);
        let mut right_bounds = empty_bounds(n_dims);
        let (mut lh, mut lt, mut rh, mut rt) = (NONE, NONE, NONE, NONE);
        let (left_stats, right_stats) = GROW_TARGETS.with(|cell| {
            let (left_ys, right_ys) = &mut *cell.borrow_mut();
            left_ys.clear();
            right_ys.clear();
            let mut cursor = self.head[index];
            while cursor != NONE {
                let p = cursor as usize;
                cursor = self.next[p];
                let row = xs.row(p);
                if row[split.dimension] <= split.threshold {
                    left_ys.push(ys[p]);
                    expand_bounds(&mut left_bounds, row);
                    if lh == NONE {
                        lh = p as u32;
                    } else {
                        self.next[lt as usize] = p as u32;
                    }
                    lt = p as u32;
                } else {
                    right_ys.push(ys[p]);
                    expand_bounds(&mut right_bounds, row);
                    if rh == NONE {
                        rh = p as u32;
                    } else {
                        self.next[rt as usize] = p as u32;
                    }
                    rt = p as u32;
                }
                // `p` is now the tail of its chain; appending the next point
                // to the same chain overwrites this link.
                self.next[p] = NONE;
            }
            (stats_of_targets(left_ys), stats_of_targets(right_ys))
        });
        let left = self.allocate(depth, index as u32, left_stats, &left_bounds, lh, lt, ctx);
        let right = self.allocate(depth, index as u32, right_stats, &right_bounds, rh, rt, ctx);
        self.dim[index] = split.dimension as u32;
        self.threshold[index] = split.threshold;
        self.left[index] = left;
        self.right[index] = right;
        self.head[index] = NONE;
        self.tail[index] = NONE;
        // Incremental flat-cache maintenance: a grow changes exactly the
        // split node and (re)uses two leaf slots — every other entry of the
        // dense traversal array is untouched, so rebuilding it would do
        // O(nodes) redundant work per move.
        self.flat.resize(
            self.dim.len(),
            FlatNode {
                dimension: FLAT_LEAF,
                left: 0,
                right: 0,
                threshold: 0.0,
            },
        );
        self.flat[index] = FlatNode {
            dimension: split.dimension as u32,
            left,
            right,
            threshold: split.threshold,
        };
        for child in [left, right] {
            self.flat[child as usize] = FlatNode {
                dimension: FLAT_LEAF,
                left: 0,
                right: 0,
                threshold: 0.0,
            };
        }
    }

    /// Collapses the parent of leaf `index` back into a leaf containing the
    /// union of its two children's points (left list first, then right).
    /// Returns `false` if `index` is the root or its sibling is not a leaf.
    pub fn prune(&mut self, index: usize, ctx: &MomentCtx<'_>) -> bool {
        let Some(parent) = self.parent_of(index) else {
            return false;
        };
        let Some(sibling) = self.leaf_sibling(index) else {
            return false;
        };
        let (left, right) = (self.left[parent] as usize, self.right[parent] as usize);
        // Concatenate the two point lists in left-then-right order and merge
        // the sufficient statistics in O(1).
        let (head, tail) = if self.head[left] == NONE {
            (self.head[right], self.tail[right])
        } else if self.head[right] == NONE {
            (self.head[left], self.tail[left])
        } else {
            self.next[self.tail[left] as usize] = self.head[right];
            (self.head[left], self.tail[right])
        };
        let mut stats = self.stats[left];
        stats.merge(&self.stats[right]);
        // The merged leaf's bounds are the union of the children's (exact:
        // every point is in one of the two children).
        let w = 2 * self.n_dims;
        for d in 0..self.n_dims {
            let lo = self.bounds[left * w + 2 * d].min(self.bounds[right * w + 2 * d]);
            let hi = self.bounds[left * w + 2 * d + 1].max(self.bounds[right * w + 2 * d + 1]);
            self.bounds[parent * w + 2 * d] = lo;
            self.bounds[parent * w + 2 * d + 1] = hi;
        }
        for child in [index, sibling] {
            self.dim[child] = FREE_NODE;
            self.head[child] = NONE;
            self.tail[child] = NONE;
            self.stats[child] = LeafStats::new();
            self.free.push(child as u32);
        }
        self.dim[parent] = LEAF_NODE;
        self.left[parent] = NONE;
        self.right[parent] = NONE;
        self.head[parent] = head;
        self.tail[parent] = tail;
        self.stats[parent] = stats;
        self.moments[parent] = stats.moments(ctx.prior, ctx.table);
        // Incremental flat-cache maintenance: the parent becomes a leaf and
        // the two freed children revert to the (never-traversed) leaf
        // encoding free slots share.
        for node in [parent, index, sibling] {
            self.flat[node] = FlatNode {
                dimension: FLAT_LEAF,
                left: 0,
                right: 0,
                threshold: 0.0,
            };
        }
        true
    }

    /// Allocates a leaf node (reusing a freed slot when available) and
    /// returns its id.
    #[allow(clippy::too_many_arguments)]
    fn allocate(
        &mut self,
        depth: u32,
        parent: u32,
        stats: LeafStats,
        bounds: &[f64],
        head: u32,
        tail: u32,
        ctx: &MomentCtx<'_>,
    ) -> u32 {
        let moments = stats.moments(ctx.prior, ctx.table);
        let w = 2 * self.n_dims;
        if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.dim[i] = LEAF_NODE;
            self.threshold[i] = 0.0;
            self.left[i] = NONE;
            self.right[i] = NONE;
            self.parent[i] = parent;
            self.depth[i] = depth;
            self.stats[i] = stats;
            self.head[i] = head;
            self.tail[i] = tail;
            self.bounds[i * w..(i + 1) * w].copy_from_slice(bounds);
            self.moments[i] = moments;
            self.path[i] = NONE;
            slot
        } else {
            self.dim.push(LEAF_NODE);
            self.threshold.push(0.0);
            self.left.push(NONE);
            self.right.push(NONE);
            self.parent.push(parent);
            self.depth.push(depth);
            self.stats.push(stats);
            self.head.push(head);
            self.tail.push(tail);
            self.bounds.extend_from_slice(bounds);
            self.moments.push(moments);
            self.path.push(NONE);
            (self.dim.len() - 1) as u32
        }
    }

    /// Recomputes every derived view — the flat traversal array, the leaf
    /// moments and the per-leaf bounds — from scratch and compares them
    /// bitwise against the maintained caches. Used by the root-level
    /// property tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence found.
    pub fn validate_caches(&self, xs: &FeatureMatrix, ctx: &MomentCtx<'_>) -> Result<(), String> {
        let mut fresh = Vec::new();
        self.flatten_into(&mut fresh);
        if fresh != self.flat {
            return Err(format!(
                "cached flat nodes diverged: cached {:?} vs fresh {:?}",
                self.flat, fresh
            ));
        }
        for leaf in self.leaves() {
            let expect = self.stats[leaf].moments(ctx.prior, ctx.table);
            if expect != self.moments[leaf] {
                return Err(format!(
                    "cached moments of leaf {leaf} diverged: cached {:?} vs fresh {expect:?}",
                    self.moments[leaf]
                ));
            }
        }
        // The linked lists must agree with the statistics counts, and the
        // incrementally maintained bounds with a fresh scan of the points.
        for leaf in self.leaves() {
            let listed = self.leaf_points(leaf).count();
            if listed != self.stats[leaf].count() {
                return Err(format!(
                    "leaf {leaf} lists {listed} points but counts {}",
                    self.stats[leaf].count()
                ));
            }
            let mut fresh = empty_bounds(self.n_dims);
            for p in self.leaf_points(leaf) {
                expand_bounds(&mut fresh, xs.row(p));
            }
            if fresh != self.leaf_bounds(leaf) {
                return Err(format!(
                    "cached bounds of leaf {leaf} diverged: cached {:?} vs fresh {fresh:?}",
                    self.leaf_bounds(leaf)
                ));
            }
        }
        Ok(())
    }

    /// Serializes the arena columns into a snapshot object (hex-packed via
    /// [`crate::snapshot`]). The cached flat traversal and per-node moments
    /// are derived views recomputed on restore, so only the defining columns
    /// are stored.
    pub(crate) fn to_snapshot(&self) -> crate::Result<JsonValue> {
        let n = self.dim.len();
        let mut stat_count = Vec::with_capacity(n);
        let mut stat_mean = Vec::with_capacity(n);
        let mut stat_m2 = Vec::with_capacity(n);
        let mut stat_min = Vec::with_capacity(n);
        let mut stat_max = Vec::with_capacity(n);
        for stats in &self.stats {
            let (count, mean, m2, min, max) = stats.parts();
            stat_count
                .push(u32::try_from(count).map_err(|_| snapshot::err("leaf count exceeds u32"))?);
            stat_mean.push(mean);
            stat_m2.push(m2);
            stat_min.push(min);
            stat_max.push(max);
        }
        Ok(io::object([
            ("dim", io::hex_u32s(self.dim.iter().copied())),
            ("threshold", io::hex_f64s(self.threshold.iter().copied())),
            ("left", io::hex_u32s(self.left.iter().copied())),
            ("right", io::hex_u32s(self.right.iter().copied())),
            ("parent", io::hex_u32s(self.parent.iter().copied())),
            ("depth", io::hex_u32s(self.depth.iter().copied())),
            ("stat_count", io::hex_u32s(stat_count)),
            ("stat_mean", io::hex_f64s(stat_mean)),
            ("stat_m2", io::hex_f64s(stat_m2)),
            ("stat_min", io::hex_f64s(stat_min)),
            ("stat_max", io::hex_f64s(stat_max)),
            ("head", io::hex_u32s(self.head.iter().copied())),
            ("tail", io::hex_u32s(self.tail.iter().copied())),
            ("next", io::hex_u32s(self.next.iter().copied())),
            ("free", io::hex_u32s(self.free.iter().copied())),
            ("depth_bound", io::int(u64::from(self.depth_bound))?),
            ("n_dims", io::int(self.n_dims as u64)?),
            ("bounds", io::hex_f64s(self.bounds.iter().copied())),
        ]))
    }

    /// Rebuilds a tree from [`to_snapshot`](ParticleTree::to_snapshot)
    /// columns, recomputing the flat traversal and the live-leaf moments.
    /// `ctx.table` must cover `max_count` observations; live leaves claiming
    /// more are rejected before the moment refresh could panic.
    pub(crate) fn from_snapshot(
        doc: &JsonValue,
        ctx: &MomentCtx<'_>,
        max_count: usize,
    ) -> crate::Result<Self> {
        let dim = io::field_hex_u32s(doc, "dim")?;
        let n = dim.len();
        if n == 0 {
            return Err(snapshot::err("tree snapshot has no nodes"));
        }
        let threshold = io::field_hex_f64s(doc, "threshold")?;
        let left = io::field_hex_u32s(doc, "left")?;
        let right = io::field_hex_u32s(doc, "right")?;
        let parent = io::field_hex_u32s(doc, "parent")?;
        let depth = io::field_hex_u32s(doc, "depth")?;
        let stat_count = io::field_hex_u32s(doc, "stat_count")?;
        let stat_mean = io::field_hex_f64s(doc, "stat_mean")?;
        let stat_m2 = io::field_hex_f64s(doc, "stat_m2")?;
        let stat_min = io::field_hex_f64s(doc, "stat_min")?;
        let stat_max = io::field_hex_f64s(doc, "stat_max")?;
        let head = io::field_hex_u32s(doc, "head")?;
        let tail = io::field_hex_u32s(doc, "tail")?;
        let next = io::field_hex_u32s(doc, "next")?;
        let free = io::field_hex_u32s(doc, "free")?;
        let depth_bound = io::field_usize(doc, "depth_bound")?;
        let n_dims = io::field_usize(doc, "n_dims")?;
        let bounds = io::field_hex_f64s(doc, "bounds")?;
        for (name, len) in [
            ("threshold", threshold.len()),
            ("left", left.len()),
            ("right", right.len()),
            ("parent", parent.len()),
            ("depth", depth.len()),
            ("stat_count", stat_count.len()),
            ("stat_mean", stat_mean.len()),
            ("stat_m2", stat_m2.len()),
            ("stat_min", stat_min.len()),
            ("stat_max", stat_max.len()),
            ("head", head.len()),
            ("tail", tail.len()),
        ] {
            if len != n {
                return Err(snapshot::err(format!(
                    "field {name}: expected {n} entries, got {len}"
                )));
            }
        }
        if bounds.len() != n * 2 * n_dims {
            return Err(snapshot::err(format!(
                "field bounds: expected {} entries, got {}",
                n * 2 * n_dims,
                bounds.len()
            )));
        }
        let stats: Vec<LeafStats> = (0..n)
            .map(|i| {
                LeafStats::from_parts(
                    stat_count[i] as usize,
                    stat_mean[i],
                    stat_m2[i],
                    stat_min[i],
                    stat_max[i],
                )
            })
            .collect();
        for i in 0..n {
            if dim[i] < FREE_NODE {
                if left[i] as usize >= n || right[i] as usize >= n {
                    return Err(snapshot::err(format!("node {i}: child out of range")));
                }
                if dim[i] as usize >= n_dims {
                    return Err(snapshot::err(format!(
                        "node {i}: split dimension out of range"
                    )));
                }
            }
            if dim[i] == LEAF_NODE && stats[i].count() > max_count {
                return Err(snapshot::err(format!(
                    "leaf {i}: count exceeds the training set"
                )));
            }
        }
        if free.iter().any(|&slot| slot as usize >= n) {
            return Err(snapshot::err("field free: slot out of range"));
        }
        let mut tree = ParticleTree {
            dim,
            threshold,
            left,
            right,
            parent,
            depth,
            stats,
            head,
            tail,
            next,
            free,
            depth_bound: u32::try_from(depth_bound)
                .map_err(|_| snapshot::err("field depth_bound: exceeds u32"))?,
            n_dims,
            bounds,
            flat: Vec::new(),
            moments: Vec::new(),
            path: vec![NONE; n],
        };
        tree.moments = (0..n)
            .map(|i| {
                if tree.dim[i] == LEAF_NODE {
                    tree.stats[i].moments(ctx.prior, ctx.table)
                } else {
                    LeafMoments::default()
                }
            })
            .collect();
        tree.refresh_flat();
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_parts() -> (LeafPrior, LnGammaTable) {
        let prior = LeafPrior::weakly_informative(1.5, 0.25);
        let mut table = LnGammaTable::new(&prior);
        table.ensure(64);
        (prior, table)
    }

    fn line_data(n: usize) -> (FeatureMatrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|x| if x[0] <= 0.5 { 1.0 } else { 2.0 })
            .collect();
        (FeatureMatrix::from_rows(&rows).unwrap(), ys)
    }

    fn root(n: usize, xs: &FeatureMatrix, ys: &[f64], ctx: &MomentCtx<'_>) -> ParticleTree {
        let points: Vec<usize> = (0..n).collect();
        ParticleTree::new_root(&points, xs, ys, ctx)
    }

    #[test]
    fn root_leaf_holds_all_points() {
        let (prior, table) = ctx_parts();
        let ctx = MomentCtx {
            prior: &prior,
            table: &table,
        };
        let (xs, ys) = line_data(10);
        let tree = root(10, &xs, &ys, &ctx);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.point_count(), 10);
        assert_eq!(tree.max_depth(), 0);
        assert_eq!(tree.find_leaf(&[0.3]), 0);
        assert_eq!(
            tree.leaf_points(0).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn grow_splits_points_by_threshold() {
        let (prior, table) = ctx_parts();
        let ctx = MomentCtx {
            prior: &prior,
            table: &table,
        };
        let (xs, ys) = line_data(10);
        let mut tree = root(10, &xs, &ys, &ctx);
        let ok = tree.grow(
            0,
            Split {
                dimension: 0,
                threshold: 0.5,
            },
            &xs,
            &ys,
            1,
            &ctx,
        );
        assert!(ok);
        assert_eq!(tree.leaf_count(), 2);
        assert_eq!(tree.point_count(), 10);
        let left = tree.find_leaf(&[0.1]);
        let right = tree.find_leaf(&[0.9]);
        assert_ne!(left, right);
        assert!((tree.leaf_stats(left).mean() - 1.0).abs() < 1e-12);
        assert!((tree.leaf_stats(right).mean() - 2.0).abs() < 1e-12);
        assert_eq!(tree.depth_of(left), 1);
        tree.validate_caches(&xs, &ctx).unwrap();
    }

    #[test]
    fn grow_rejects_undersized_children_and_keeps_the_list_intact() {
        let (prior, table) = ctx_parts();
        let ctx = MomentCtx {
            prior: &prior,
            table: &table,
        };
        let (xs, ys) = line_data(10);
        let mut tree = root(10, &xs, &ys, &ctx);
        let ok = tree.grow(
            0,
            Split {
                dimension: 0,
                threshold: -1.0,
            },
            &xs,
            &ys,
            1,
            &ctx,
        );
        assert!(!ok, "all points on one side must be rejected");
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(
            tree.leaf_points(0).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        tree.validate_caches(&xs, &ctx).unwrap();
    }

    #[test]
    fn prune_restores_the_parent_leaf() {
        let (prior, table) = ctx_parts();
        let ctx = MomentCtx {
            prior: &prior,
            table: &table,
        };
        let (xs, ys) = line_data(10);
        let mut tree = root(10, &xs, &ys, &ctx);
        tree.grow(
            0,
            Split {
                dimension: 0,
                threshold: 0.5,
            },
            &xs,
            &ys,
            1,
            &ctx,
        );
        let leaf = tree.find_leaf(&[0.1]);
        assert!(tree.prune(leaf, &ctx));
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.point_count(), 10);
        // The merged statistics equal an O(1) merge of the children.
        assert_eq!(tree.leaf_stats(0).count(), 10);
        // Freed slots are reused by the next grow.
        assert!(tree.grow(
            0,
            Split {
                dimension: 0,
                threshold: 0.3
            },
            &xs,
            &ys,
            1,
            &ctx,
        ));
        assert_eq!(tree.leaf_count(), 2);
        assert_eq!(tree.dim.len(), 3, "grow after prune reuses freed slots");
        tree.validate_caches(&xs, &ctx).unwrap();
    }

    #[test]
    fn prune_of_root_is_rejected() {
        let (prior, table) = ctx_parts();
        let ctx = MomentCtx {
            prior: &prior,
            table: &table,
        };
        let (xs, ys) = line_data(4);
        let mut tree = root(4, &xs, &ys, &ctx);
        assert!(!tree.prune(0, &ctx));
    }

    #[test]
    fn insert_updates_the_correct_leaf_and_its_moments() {
        let (prior, table) = ctx_parts();
        let ctx = MomentCtx {
            prior: &prior,
            table: &table,
        };
        let (mut xs, mut ys) = line_data(10);
        let mut tree = root(10, &xs, &ys, &ctx);
        tree.grow(
            0,
            Split {
                dimension: 0,
                threshold: 0.5,
            },
            &xs,
            &ys,
            1,
            &ctx,
        );
        // The inserted observation joins the training set like a model
        // update would, so cache validation can re-scan its features.
        xs.push_row(&[0.9]);
        ys.push(2.5);
        let target = tree.find_leaf(&[0.9]);
        let before = tree.leaf_stats(target).count();
        let leaf = tree.insert(&[0.9], 10, 2.5, &ctx);
        assert_eq!(leaf, target);
        assert_eq!(tree.leaf_stats(leaf).count(), before + 1);
        assert_eq!(tree.leaf_points(leaf).last(), Some(10));
        let _ = &ys;
        tree.validate_caches(&xs, &ctx).unwrap();
    }

    #[test]
    fn log_weight_is_higher_for_consistent_observations() {
        let (prior, table) = ctx_parts();
        let ctx = MomentCtx {
            prior: &prior,
            table: &table,
        };
        let (xs, ys) = line_data(20);
        let mut tree = root(20, &xs, &ys, &ctx);
        tree.grow(
            0,
            Split {
                dimension: 0,
                threshold: 0.5,
            },
            &xs,
            &ys,
            1,
            &ctx,
        );
        let consistent = tree.log_weight(&[0.2], 1.0);
        let surprising = tree.log_weight(&[0.2], 5.0);
        assert!(consistent > surprising);
    }

    #[test]
    fn sibling_detection() {
        let (prior, table) = ctx_parts();
        let ctx = MomentCtx {
            prior: &prior,
            table: &table,
        };
        let (xs, ys) = line_data(12);
        let mut tree = root(12, &xs, &ys, &ctx);
        tree.grow(
            0,
            Split {
                dimension: 0,
                threshold: 0.5,
            },
            &xs,
            &ys,
            1,
            &ctx,
        );
        let left = tree.find_leaf(&[0.0]);
        let right = tree.find_leaf(&[1.0]);
        assert_eq!(tree.leaf_sibling(left), Some(right));
        assert_eq!(tree.leaf_sibling(right), Some(left));
        assert_eq!(tree.parent_of(left), Some(0));
        // After growing the left leaf again, the right leaf's sibling is an
        // internal node, so prune must not be offered there.
        tree.grow(
            left,
            Split {
                dimension: 0,
                threshold: 0.25,
            },
            &xs,
            &ys,
            1,
            &ctx,
        );
        assert_eq!(tree.leaf_sibling(right), None);
    }

    #[test]
    fn leaves_iterator_matches_leaf_count() {
        let (prior, table) = ctx_parts();
        let ctx = MomentCtx {
            prior: &prior,
            table: &table,
        };
        let (xs, ys) = line_data(16);
        let mut tree = root(16, &xs, &ys, &ctx);
        tree.grow(
            0,
            Split {
                dimension: 0,
                threshold: 0.5,
            },
            &xs,
            &ys,
            1,
            &ctx,
        );
        let l = tree.find_leaf(&[0.2]);
        tree.grow(
            l,
            Split {
                dimension: 0,
                threshold: 0.25,
            },
            &xs,
            &ys,
            1,
            &ctx,
        );
        assert_eq!(tree.leaves().count(), tree.leaf_count());
        assert_eq!(tree.leaf_count(), 3);
    }

    #[test]
    fn cached_flat_traversal_matches_find_leaf_after_moves() {
        let (prior, table) = ctx_parts();
        let ctx = MomentCtx {
            prior: &prior,
            table: &table,
        };
        let (xs, ys) = line_data(16);
        let mut tree = root(16, &xs, &ys, &ctx);
        tree.grow(
            0,
            Split {
                dimension: 0,
                threshold: 0.5,
            },
            &xs,
            &ys,
            1,
            &ctx,
        );
        let l = tree.find_leaf(&[0.2]);
        tree.grow(
            l,
            Split {
                dimension: 0,
                threshold: 0.25,
            },
            &xs,
            &ys,
            1,
            &ctx,
        );
        // Pruning leaves a free slot behind, which the flattening must
        // encode harmlessly.
        let r = tree.find_leaf(&[0.05]);
        tree.prune(r, &ctx);
        let mut fresh = Vec::new();
        tree.flatten_into(&mut fresh);
        assert_eq!(fresh, tree.flat_nodes());
        for i in 0..32 {
            let x = [i as f64 / 31.0];
            let by_cache = find_leaf_flat(tree.flat_nodes(), &x);
            let by_fresh = find_leaf_flat(&fresh, &x);
            assert_eq!(by_cache, by_fresh);
            assert!(tree.dim[by_cache] == LEAF_NODE);
        }
        tree.validate_caches(&xs, &ctx).unwrap();
    }

    #[test]
    fn clone_from_reuses_storage_and_matches_clone() {
        let (prior, table) = ctx_parts();
        let ctx = MomentCtx {
            prior: &prior,
            table: &table,
        };
        let (xs, ys) = line_data(12);
        let mut tree = root(12, &xs, &ys, &ctx);
        tree.grow(
            0,
            Split {
                dimension: 0,
                threshold: 0.5,
            },
            &xs,
            &ys,
            1,
            &ctx,
        );
        let mut target = ParticleTree::placeholder();
        target.clone_from(&tree);
        assert_eq!(target, tree.clone());
        target.validate_caches(&xs, &ctx).unwrap();
    }

    #[test]
    fn split_mask_walk_matches_serial_traversal() {
        let (prior, table) = ctx_parts();
        let ctx = MomentCtx {
            prior: &prior,
            table: &table,
        };
        let (xs, ys) = line_data(64);
        let split = |threshold| Split {
            dimension: 0,
            threshold,
        };
        // An unbalanced three-level tree, so lanes finish at different
        // depths.
        let mut first = root(64, &xs, &ys, &ctx);
        for (leaf, threshold) in [(0usize, 0.5), (1, 0.25), (3, 0.125)] {
            assert!(first.grow(leaf, split(threshold), &xs, &ys, 1, &ctx));
        }
        // A copy-on-write descendant keeps every ancestor split and adds
        // one; a third tree reuses two of those thresholds at other nodes.
        let mut second = first.clone();
        let right = second.find_leaf(&[0.9]);
        assert!(second.grow(right, split(0.75), &xs, &ys, 1, &ctx));
        let mut third = root(64, &xs, &ys, &ctx);
        assert!(third.grow(0, split(0.25), &xs, &ys, 1, &ctx));
        let right = third.find_leaf(&[0.9]);
        assert!(third.grow(right, split(0.5), &xs, &ys, 1, &ctx));
        let mut paths = PathTable::default();
        for tree in [&mut first, &mut second, &mut third] {
            tree.assign_paths(&mut paths);
        }
        assert_eq!(paths.split_count(), 4, "shared splits intern once");
        assert_eq!(paths.entry_count(), 6, "shared paths intern once");
        assert_eq!(
            first.path_ids()[..first.dim.len()],
            second.path_ids()[..first.dim.len()],
            "a copy keeps its ancestor's path ids"
        );
        let trees = [&first, &second, &third];
        // Every eighth query sits exactly on a threshold.
        let queries: Vec<Vec<f64>> = (0..=130).map(|i| vec![i as f64 / 128.0]).collect();
        let views: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        let mut routing = Routing::default();
        for chunk in [1usize, 3, 63, 64].iter().flat_map(|&s| views.chunks(s)) {
            paths.route(chunk, &mut routing);
            let reach = routing.reach();
            assert_eq!(reach.len(), paths.path_count());
            for (t, tree) in trees.iter().enumerate() {
                let mut leaf_of = [usize::MAX; 64];
                for leaf in tree.leaves() {
                    let mut bits = reach[tree.path_ids()[leaf] as usize];
                    while bits != 0 {
                        let lane = bits.trailing_zeros() as usize;
                        assert_eq!(leaf_of[lane], usize::MAX, "lane {lane} lands twice");
                        leaf_of[lane] = leaf;
                        bits &= bits - 1;
                    }
                }
                for (i, q) in chunk.iter().enumerate() {
                    assert_eq!(
                        leaf_of[i],
                        find_leaf_flat(tree.flat_nodes(), q),
                        "tree {t}, query {q:?} in a {}-row block",
                        chunk.len()
                    );
                }
                assert!(leaf_of[chunk.len()..].iter().all(|&l| l == usize::MAX));
            }
        }
    }
}
