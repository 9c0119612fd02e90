//! Arena-backed node storage for a single particle's tree.
//!
//! Each particle of the dynamic-tree model carries one regression tree. The
//! tree partitions the input space into axis-aligned hyper-rectangles;
//! every leaf refers to one leaf record (the sibling `record` module) that
//! holds the training observations inside it and their sufficient
//! statistics.
//!
//! The three structural moves of Taddy et al. (Figure 4 of the paper) are
//! applied here: **stay** (no change), **grow** (split the leaf that
//! received the new observation) and **prune** (collapse the leaf's parent
//! back into a leaf). The model builds the records a move leaves behind;
//! the tree only rewires its nodes to them.
//!
//! # Storage layout
//!
//! [`ParticleTree`] is a struct-of-arrays arena of nodes and nothing else:
//! parallel `u32`/`f64` columns (`dim`, `threshold`, `left`/`right`,
//! `parent`, `depth`) indexed by node id, plus one leaf-record id per live
//! leaf. A leaf is marked by `dim == LEAF_NODE`, a slot freed by a prune
//! (and reusable by a later grow) by `dim == FREE_NODE`. No per-node heap
//! allocation exists anywhere, and no column grows with the number of
//! observations: a leaf's points (ids in list order, row-major features,
//! `y` and `y²`), statistics, bounds and moments live in its record, which
//! the model's pool shares between every arena that holds the leaf.
//!
//! Cloning a tree is therefore a handful of `memcpy`s of node columns plus
//! one refcount per leaf, which is what makes the copy-on-write particle
//! resampling in [`super`] cheap.
//!
//! Two more columns exist only so that snapshots keep their format: the
//! statistics and bounds an internal or freed node held when it stopped
//! being a leaf (a freed node's statistics empty). A grow copies them from
//! the leaf's record, a prune from the freed children's records, and only
//! a snapshot reads them.
//!
//! # Caches
//!
//! Two derived views are cached *on the tree* and kept fresh:
//!
//! * `flat` — the dense [`FlatNode`] traversal array of the single-point
//!   paths ([`find_leaf_flat`]). Maintained incrementally by grow and
//!   prune; an insert touches only a record, so steady-state scoring does
//!   zero flattening work.
//! * `path` — one root-path id per node in the owning model's
//!   `PathTable`, the index every batch kernel reads a leaf's lanes
//!   through. A prune leaves it unchanged (a pruned parent keeps its path;
//!   freed slots are never read), a copy copies it, a grow leaves its two
//!   children for the model to intern
//!   (`ParticleTree::assign_child_paths`), which needs the shared table
//!   and so runs serially after a parallel batch of moves, and a table
//!   compaction rewrites it through a renumbering.
//!
//! `validate_caches` recomputes the flat view from scratch and compares it
//! bitwise, and the model's `validate_caches` checks every path id against
//! a freshly rebuilt table and every record against the training rows. The
//! root-level property tests exercise both after arbitrary fit/update
//! sequences.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use alic_data::io::{self, JsonValue};
use alic_stats::features::FeatureMatrix;

use super::record::{LeafRecord, LeafRecords};
use crate::leaf::{LeafPrior, LeafStats, LnGammaTable};
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
/// until the model compacts the table ([`retain`](PathTable::retain)).
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

    /// Drops every entry `live` leaves unmarked and every split no kept
    /// entry tests, keeping the rest in their order, so parents still come
    /// before children and each dimension's thresholds stay sorted.
    /// Returns the new id of every old path ([`NONE`] for a dropped one),
    /// through which the trees rewrite theirs.
    ///
    /// `live` must be closed under parents: a kept entry's parent path must
    /// be the root or the child of a kept entry. Marking the entry of every
    /// live node's path ([`ParticleTree::mark_paths`]) gives exactly that,
    /// since a live node's parent is live.
    pub(crate) fn retain(&mut self, live: &[bool]) -> Vec<u32> {
        let mut entry_ids = vec![NONE; self.entries.len()];
        let mut split_ids = vec![NONE; self.split_dims.len()];
        let mut kept = 0;
        for (n, &(_, split)) in self.entries.iter().enumerate() {
            if live[n] {
                entry_ids[n] = kept;
                kept += 1;
                split_ids[split as usize] = 0;
            }
        }
        let mut splits = 0;
        for (old, id) in split_ids.iter_mut().enumerate() {
            if *id != NONE {
                *id = splits as u32;
                self.split_dims[splits] = self.split_dims[old];
                self.split_thresholds[splits] = self.split_thresholds[old];
                splits += 1;
            }
        }
        self.split_dims.truncate(splits);
        self.split_thresholds.truncate(splits);
        let renumber = |id: &mut u32| {
            *id = split_ids[*id as usize];
            *id != NONE
        };
        self.split_of.retain(|_, id| renumber(id));
        for sorted in &mut self.by_dim {
            sorted.retain_mut(|(_, id)| renumber(id));
        }
        let path_of = |path: u32| match path {
            0 => 0,
            path => match entry_ids[(path as usize - 1) / 2] {
                NONE => NONE,
                entry => 2 * entry + 2 - path % 2,
            },
        };
        self.entry_of.clear();
        let mut write = 0;
        for (n, &kept) in entry_ids.iter().enumerate() {
            if kept != NONE {
                let (parent, split) = self.entries[n];
                let entry = (path_of(parent), split_ids[split as usize]);
                debug_assert!(entry.0 != NONE, "a kept entry's parent is kept");
                self.entries[write] = entry;
                self.entry_of.insert(entry, write as u32);
                write += 1;
            }
        }
        self.entries.truncate(write);
        (0..2 * entry_ids.len() as u32 + 1).map(path_of).collect()
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

/// The shared inputs every leaf-moment refresh needs: the model's leaf
/// prior and its memoized `ln Γ` table (which must cover the largest leaf
/// count).
#[derive(Debug, Clone, Copy)]
pub struct MomentCtx<'a> {
    /// Leaf prior shared by every particle.
    pub prior: &'a LeafPrior,
    /// `ln Γ` memo table, extended once per update by the model.
    pub table: &'a LnGammaTable,
}

/// The flat encoding of a leaf and of a free slot, which a traversal never
/// reaches.
const FLAT_LEAF_NODE: FlatNode = FlatNode {
    dimension: FLAT_LEAF,
    left: 0,
    right: 0,
    threshold: 0.0,
};

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
    /// Leaf-record id per live leaf ([`NONE`] elsewhere).
    record: Vec<u32>,
    /// Per internal or free node, the statistics it held when it stopped
    /// being a leaf (empty for a freed one); read only by snapshots.
    past_stats: Vec<LeafStats>,
    /// Per internal or free node, the `[lo, hi]` pairs it held when it
    /// stopped being a leaf, `2 * n_dims` values per node; read only by
    /// snapshots.
    past_bounds: Vec<f64>,
    /// Node slots freed by prunes, reusable by grows (LIFO).
    free: Vec<u32>,
    /// Monotone upper bound on any node depth this tree has ever reached
    /// (prunes do not lower it). Lets the model size its per-depth
    /// split-prior table without scanning nodes.
    depth_bound: u32,
    /// Feature dimensionality (width of a `past_bounds` row).
    n_dims: usize,
    /// Cached dense traversal array (always structurally fresh).
    flat: Vec<FlatNode>,
    /// Root-path id per node in the owning model's [`PathTable`] (fresh
    /// for live nodes once the model has interned a grow's children).
    path: Vec<u32>,
}

impl Clone for ParticleTree {
    fn clone(&self) -> Self {
        let mut tree = ParticleTree::placeholder();
        tree.clone_from(self);
        tree
    }

    /// Copy-assignment that reuses the destination's allocations — the
    /// copy-on-write resampler clones diverging particles into recycled
    /// arena slots through this, so steady-state updates allocate nothing.
    /// Only node columns are copied; the caller retains the records the
    /// copy's leaves now also hold.
    fn clone_from(&mut self, source: &Self) {
        self.dim.clone_from(&source.dim);
        self.threshold.clone_from(&source.threshold);
        self.left.clone_from(&source.left);
        self.right.clone_from(&source.right);
        self.parent.clone_from(&source.parent);
        self.depth.clone_from(&source.depth);
        self.record.clone_from(&source.record);
        self.past_stats.clone_from(&source.past_stats);
        self.past_bounds.clone_from(&source.past_bounds);
        self.free.clone_from(&source.free);
        self.depth_bound = source.depth_bound;
        self.n_dims = source.n_dims;
        self.flat.clone_from(&source.flat);
        self.path.clone_from(&source.path);
    }
}

impl ParticleTree {
    /// A tree consisting of a single root leaf that holds `record`.
    pub(crate) fn new_root(record: u32, n_dims: usize) -> Self {
        ParticleTree {
            dim: vec![LEAF_NODE],
            threshold: vec![0.0],
            left: vec![NONE],
            right: vec![NONE],
            parent: vec![NONE],
            depth: vec![0],
            record: vec![record],
            past_stats: vec![LeafStats::new()],
            past_bounds: vec![0.0; 2 * n_dims],
            free: Vec::new(),
            depth_bound: 0,
            n_dims,
            flat: vec![FLAT_LEAF_NODE],
            path: vec![0],
        }
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
            record: Vec::new(),
            past_stats: Vec::new(),
            past_bounds: Vec::new(),
            free: Vec::new(),
            depth_bound: 0,
            n_dims: 0,
            flat: Vec::new(),
            path: Vec::new(),
        }
    }

    /// The cached dense traversal array. Always structurally fresh; pass it
    /// to [`find_leaf_flat`].
    #[inline]
    pub fn flat_nodes(&self) -> &[FlatNode] {
        &self.flat
    }

    /// The per-node root-path ids in the owning model's [`PathTable`]
    /// (valid at live-node indices).
    #[inline]
    pub(crate) fn path_ids(&self) -> &[u32] {
        &self.path
    }

    /// The per-node leaf-record ids in the owning model's pool (valid at
    /// live-leaf indices).
    #[inline]
    pub(crate) fn record_ids(&self) -> &[u32] {
        &self.record
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

    /// Marks in `live` the table entry behind every live non-root node's
    /// path, for [`PathTable::retain`].
    pub(crate) fn mark_paths(&self, live: &mut [bool]) {
        for (&dim, &path) in self.dim.iter().zip(&self.path) {
            if dim != FREE_NODE && path != 0 {
                live[(path as usize - 1) / 2] = true;
            }
        }
    }

    /// Rewrites every live node's path id through `remap`, the result of
    /// [`PathTable::retain`]; free slots get [`NONE`].
    pub(crate) fn remap_paths(&mut self, remap: &[u32]) {
        for (&dim, path) in self.dim.iter().zip(&mut self.path) {
            *path = if dim == FREE_NODE {
                NONE
            } else {
                remap[*path as usize]
            };
        }
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

    /// Checks every live leaf's record against the leaf's region: each of
    /// its observations routes to the leaf, and every observation of `xs`
    /// sits in exactly one leaf. Counts one holder per live leaf into
    /// `holders` (indexed by record id).
    pub(crate) fn validate_leaves(
        &self,
        records: &LeafRecords,
        xs: &FeatureMatrix,
        holders: &mut [u32],
    ) -> Result<(), String> {
        let mut seen = vec![false; xs.len()];
        for leaf in self.leaves() {
            let id = self.record[leaf];
            let Some(held) = holders.get_mut(id as usize) else {
                return Err(format!("leaf {leaf}: record {id} is past the pool"));
            };
            *held += 1;
            for p in records[id].ids() {
                let p = p as usize;
                if p >= seen.len() || std::mem::replace(&mut seen[p], true) {
                    return Err(format!(
                        "leaf {leaf}: observation {p} listed twice or unknown"
                    ));
                }
                if self.find_leaf(xs.row(p)) != leaf {
                    return Err(format!(
                        "leaf {leaf}: observation {p} lies outside its region"
                    ));
                }
            }
        }
        match seen.iter().position(|&s| !s) {
            Some(p) => Err(format!("observation {p} sits in no leaf")),
            None => Ok(()),
        }
    }

    /// Writes a freshly computed traversal copy of this tree into `out`
    /// (cleared first). Node indices are preserved. The cached
    /// [`flat_nodes`](ParticleTree::flat_nodes) view is maintained with
    /// exactly this computation.
    pub(crate) fn flatten_into(&self, out: &mut Vec<FlatNode>) {
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
                FLAT_LEAF_NODE
            }
        }));
    }

    /// Index of the leaf whose hyper-rectangle contains `x`.
    #[inline]
    pub(crate) fn find_leaf(&self, x: &[f64]) -> usize {
        find_leaf_flat(&self.flat, x)
    }

    /// Depth of node `index` (the root has depth 0).
    pub(crate) fn depth_of(&self, index: usize) -> usize {
        self.depth[index] as usize
    }

    /// Monotone upper bound on any depth this tree has ever reached.
    pub(crate) fn depth_bound(&self) -> usize {
        self.depth_bound as usize
    }

    /// Parent of node `index`.
    pub(crate) fn parent_of(&self, index: usize) -> Option<usize> {
        match self.parent[index] {
            NONE => None,
            p => Some(p as usize),
        }
    }

    /// The `<=` and `>` children of internal node `index`.
    pub(crate) fn children_of(&self, index: usize) -> (usize, usize) {
        (self.left[index] as usize, self.right[index] as usize)
    }

    /// The sibling of leaf `index`, if the sibling is itself a leaf.
    pub(crate) fn leaf_sibling(&self, index: usize) -> Option<usize> {
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
    pub(crate) fn leaf_count(&self) -> usize {
        self.dim.iter().filter(|&&d| d == LEAF_NODE).count()
    }

    /// Iterates over the indices of all live leaves.
    pub(crate) fn leaves(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.dim.len()).filter(|&i| self.dim[i] == LEAF_NODE)
    }

    /// Splits leaf `index` with `split` into two leaves holding `children`
    /// (`<=` side first), the records
    /// [`LeafRecord::split_into`]
    /// built from `parent`, the leaf's record. The split node keeps
    /// `parent`'s statistics and bounds as its past ones.
    ///
    /// Both children's path ids stay unassigned until the owning model
    /// interns them, which needs the model's shared path table and so runs
    /// serially after a parallel batch of moves.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a live leaf.
    pub(crate) fn grow(
        &mut self,
        index: usize,
        split: Split,
        parent: &LeafRecord,
        children: (u32, u32),
    ) {
        assert!(self.dim[index] == LEAF_NODE, "node {index} is not a leaf");
        let depth = self.depth[index] + 1;
        self.depth_bound = self.depth_bound.max(depth);
        let w = 2 * self.n_dims;
        self.past_stats[index] = *parent.stats();
        self.past_bounds[index * w..(index + 1) * w].copy_from_slice(parent.bounds());
        let left = self.allocate(depth, index as u32, children.0);
        let right = self.allocate(depth, index as u32, children.1);
        self.dim[index] = split.dimension as u32;
        self.threshold[index] = split.threshold;
        self.left[index] = left;
        self.right[index] = right;
        self.record[index] = NONE;
        // Incremental flat-cache maintenance: a grow changes exactly the
        // split node and (re)uses two leaf slots — every other entry of the
        // dense traversal array is untouched, so rebuilding it would do
        // O(nodes) redundant work per move.
        self.flat.resize(self.dim.len(), FLAT_LEAF_NODE);
        self.flat[index] = FlatNode {
            dimension: split.dimension as u32,
            left,
            right,
            threshold: split.threshold,
        };
        for child in [left, right] {
            self.flat[child as usize] = FLAT_LEAF_NODE;
        }
    }

    /// Collapses the parent of leaf `index` back into a leaf holding
    /// `merged`, the record
    /// [`LeafRecord::merge_into`]
    /// built from its two children's records in `records`. The freed
    /// children keep their records' bounds, and empty statistics, as their
    /// past ones. Returns `false` (and leaves the tree unchanged) if
    /// `index` is the root or its sibling is not a leaf.
    pub(crate) fn prune(&mut self, index: usize, merged: u32, records: &LeafRecords) -> bool {
        let Some(parent) = self.parent_of(index) else {
            return false;
        };
        let Some(sibling) = self.leaf_sibling(index) else {
            return false;
        };
        let w = 2 * self.n_dims;
        for child in [index, sibling] {
            let record = &records[self.record[child]];
            self.past_bounds[child * w..(child + 1) * w].copy_from_slice(record.bounds());
            self.past_stats[child] = LeafStats::new();
            self.dim[child] = FREE_NODE;
            self.record[child] = NONE;
            self.free.push(child as u32);
        }
        self.dim[parent] = LEAF_NODE;
        self.left[parent] = NONE;
        self.right[parent] = NONE;
        self.record[parent] = merged;
        // Incremental flat-cache maintenance: the parent becomes a leaf and
        // the two freed children revert to the (never-traversed) leaf
        // encoding free slots share.
        for node in [parent, index, sibling] {
            self.flat[node] = FLAT_LEAF_NODE;
        }
        true
    }

    /// Allocates a leaf node holding `record` (reusing a freed slot when
    /// available) and returns its id.
    fn allocate(&mut self, depth: u32, parent: u32, record: u32) -> u32 {
        if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.dim[i] = LEAF_NODE;
            self.threshold[i] = 0.0;
            self.left[i] = NONE;
            self.right[i] = NONE;
            self.parent[i] = parent;
            self.depth[i] = depth;
            self.record[i] = record;
            self.path[i] = NONE;
            slot
        } else {
            self.dim.push(LEAF_NODE);
            self.threshold.push(0.0);
            self.left.push(NONE);
            self.right.push(NONE);
            self.parent.push(parent);
            self.depth.push(depth);
            self.record.push(record);
            self.past_stats.push(LeafStats::new());
            self.past_bounds
                .resize(self.past_bounds.len() + 2 * self.n_dims, 0.0);
            self.path.push(NONE);
            (self.dim.len() - 1) as u32
        }
    }

    /// Recomputes the flat traversal array from scratch and compares it
    /// bitwise against the maintained cache.
    ///
    /// # Errors
    ///
    /// Returns a description of the divergence.
    pub(crate) fn validate_caches(&self) -> Result<(), String> {
        let mut fresh = Vec::new();
        self.flatten_into(&mut fresh);
        if fresh != self.flat {
            return Err(format!(
                "cached flat nodes diverged: cached {:?} vs fresh {:?}",
                self.flat, fresh
            ));
        }
        Ok(())
    }

    /// Serializes the tree into a snapshot object (hex-packed via
    /// [`crate::snapshot`]). A leaf's statistics, bounds and point list
    /// come from its record in `records`: the list as `head`/`tail` per
    /// node plus one `next` link per observation of the `n_points`, the
    /// layout of the per-tree linked lists this format was written from.
    /// The cached flat traversal, the moments and the rows are derived
    /// views recomputed on restore, so only the defining columns are
    /// stored.
    pub(crate) fn to_snapshot(
        &self,
        records: &LeafRecords,
        n_points: usize,
    ) -> crate::Result<JsonValue> {
        let n = self.dim.len();
        let w = 2 * self.n_dims;
        let mut head = vec![NONE; n];
        let mut tail = vec![NONE; n];
        let mut next = vec![NONE; n_points];
        let mut stat_count = Vec::with_capacity(n);
        let mut stat_mean = Vec::with_capacity(n);
        let mut stat_m2 = Vec::with_capacity(n);
        let mut stat_min = Vec::with_capacity(n);
        let mut stat_max = Vec::with_capacity(n);
        let mut bounds = Vec::with_capacity(n * w);
        for node in 0..n {
            let (stats, node_bounds) = if self.dim[node] == LEAF_NODE {
                let record = &records[self.record[node]];
                let mut ids = record.ids();
                if let Some(first) = ids.next() {
                    let last = ids.fold(first, |prev, id| {
                        next[prev as usize] = id;
                        id
                    });
                    (head[node], tail[node]) = (first, last);
                }
                (record.stats(), record.bounds())
            } else {
                (
                    &self.past_stats[node],
                    &self.past_bounds[node * w..(node + 1) * w],
                )
            };
            let (count, mean, m2, min, max) = stats.parts();
            stat_count
                .push(u32::try_from(count).map_err(|_| snapshot::err("leaf count exceeds u32"))?);
            stat_mean.push(mean);
            stat_m2.push(m2);
            stat_min.push(min);
            stat_max.push(max);
            bounds.extend_from_slice(node_bounds);
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
            ("head", io::hex_u32s(head)),
            ("tail", io::hex_u32s(tail)),
            ("next", io::hex_u32s(next)),
            ("free", io::hex_u32s(self.free.iter().copied())),
            ("depth_bound", io::int(u64::from(self.depth_bound))?),
            ("n_dims", io::int(self.n_dims as u64)?),
            ("bounds", io::hex_f64s(bounds)),
        ]))
    }

    /// Rebuilds a tree from [`to_snapshot`](ParticleTree::to_snapshot)
    /// columns, with one new record in `records` per live leaf: its point
    /// list walked from `head` through `next`, its rows copied from
    /// `xs`/`ys`, and its statistics and bounds as stored. `ctx.table` must
    /// cover `ys.len()` observations.
    ///
    /// The lists must be what `to_snapshot` writes, so that a restored
    /// tree serializes to the same bytes: one `next` link per observation,
    /// every observation in exactly one leaf, each leaf's list as long as
    /// its count and ending at its `tail`, and no list on any other node.
    pub(crate) fn from_snapshot(
        doc: &JsonValue,
        ctx: &MomentCtx<'_>,
        xs: &FeatureMatrix,
        ys: &[f64],
        records: &mut LeafRecords,
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
        if n_dims != xs.dim() {
            return Err(snapshot::err("tree width disagrees with the training rows"));
        }
        let w = 2 * n_dims;
        if bounds.len() != n * w {
            return Err(snapshot::err(format!(
                "field bounds: expected {} entries, got {}",
                n * w,
                bounds.len()
            )));
        }
        if next.len() != ys.len() {
            return Err(snapshot::err(format!(
                "field next: expected {} entries, got {}",
                ys.len(),
                next.len()
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
        }
        if free.iter().any(|&slot| slot as usize >= n) {
            return Err(snapshot::err("field free: slot out of range"));
        }
        let mut record = vec![NONE; n];
        let mut listed = vec![false; next.len()];
        let mut ids = Vec::new();
        for i in 0..n {
            let node_bounds = &bounds[i * w..(i + 1) * w];
            if dim[i] != LEAF_NODE {
                if head[i] != NONE || tail[i] != NONE {
                    return Err(snapshot::err(format!(
                        "node {i}: a point list on a node that is not a leaf"
                    )));
                }
                continue;
            }
            ids.clear();
            let mut cursor = head[i];
            for _ in 0..stats[i].count() {
                let p = cursor as usize;
                if p >= next.len() || std::mem::replace(&mut listed[p], true) {
                    return Err(snapshot::err(format!(
                        "leaf {i}: point list disagrees with its count"
                    )));
                }
                ids.push(cursor);
                cursor = next[p];
            }
            if cursor != NONE || tail[i] != ids.last().copied().unwrap_or(NONE) {
                return Err(snapshot::err(format!(
                    "leaf {i}: point list disagrees with its count"
                )));
            }
            record[i] = records.restore(&ids, xs, ys, stats[i], node_bounds, ctx);
        }
        if listed.contains(&false) {
            return Err(snapshot::err("field next: an observation sits in no leaf"));
        }
        let mut tree = ParticleTree {
            dim,
            threshold,
            left,
            right,
            parent,
            depth,
            record,
            past_stats: stats,
            past_bounds: bounds,
            free,
            depth_bound: u32::try_from(depth_bound)
                .map_err(|_| snapshot::err("field depth_bound: exceeds u32"))?,
            n_dims,
            flat: Vec::new(),
            path: vec![NONE; n],
        };
        let mut flat = Vec::new();
        tree.flatten_into(&mut flat);
        tree.flat = flat;
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-dimensional training rows over a record pool, with the model's
    /// two halves of every move (build the records, then rewire the nodes)
    /// done together and checked.
    struct Forest {
        prior: LeafPrior,
        table: LnGammaTable,
        xs: FeatureMatrix,
        ys: Vec<f64>,
        records: LeafRecords,
    }

    impl Forest {
        /// `n` evenly spaced points on [0, 1] with a step at 0.5.
        fn line(n: usize) -> Self {
            let prior = LeafPrior::weakly_informative(1.5, 0.25);
            let mut table = LnGammaTable::new(&prior);
            table.ensure(64);
            let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
            let ys = rows
                .iter()
                .map(|x| if x[0] <= 0.5 { 1.0 } else { 2.0 })
                .collect();
            let mut records = LeafRecords::default();
            records.clear(1);
            Forest {
                prior,
                table,
                xs: FeatureMatrix::from_rows(&rows).unwrap(),
                ys,
                records,
            }
        }

        /// A root leaf holding every point.
        fn root(&mut self) -> ParticleTree {
            let Forest {
                prior,
                table,
                xs,
                ys,
                records,
            } = self;
            let ctx = MomentCtx { prior, table };
            let (id, mut record) = records.claim();
            record.reset(1);
            for (p, &y) in ys.iter().enumerate() {
                record.insert(p, xs.row(p), y, &ctx);
            }
            records.put(id, record);
            records.retain(id);
            ParticleTree::new_root(id, 1)
        }

        /// A copy of `tree` that also holds its records.
        fn copy(&mut self, tree: &ParticleTree) -> ParticleTree {
            let mut copy = ParticleTree::placeholder();
            copy.clone_from(tree);
            for leaf in copy.leaves() {
                self.records.retain(copy.record_ids()[leaf]);
            }
            copy
        }

        /// Puts a move's records back, each held once.
        fn commit(&mut self, built: Vec<(u32, LeafRecord)>) -> Vec<u32> {
            built
                .into_iter()
                .map(|(id, record)| {
                    self.records.put(id, record);
                    self.records.retain(id);
                    id
                })
                .collect()
        }

        /// Splits `leaf` at `threshold` unless a side would be empty.
        fn grow(&mut self, tree: &mut ParticleTree, leaf: usize, threshold: f64) -> bool {
            let ((l, mut left), (r, mut right)) = (self.records.claim(), self.records.claim());
            let ctx = MomentCtx {
                prior: &self.prior,
                table: &self.table,
            };
            let split = Split {
                dimension: 0,
                threshold,
            };
            let parent = tree.record_ids()[leaf];
            self.records[parent].split_into(split, &mut left, &mut right, &ctx);
            let empty = left.len() == 0 || right.len() == 0;
            let ids = self.commit(vec![(l, left), (r, right)]);
            if empty {
                ids.into_iter().for_each(|id| self.records.release(id));
                return false;
            }
            tree.grow(leaf, split, &self.records[parent], (l, r));
            self.records.release(parent);
            true
        }

        /// Prunes the parent of `leaf`, if its sibling is a leaf.
        fn prune(&mut self, tree: &mut ParticleTree, leaf: usize) -> bool {
            let Some(parent) = tree.parent_of(leaf) else {
                return false;
            };
            if tree.leaf_sibling(leaf).is_none() {
                return false;
            }
            let (id, mut merged) = self.records.claim();
            let ctx = MomentCtx {
                prior: &self.prior,
                table: &self.table,
            };
            let (left, right) = tree.children_of(parent);
            let ids = tree.record_ids();
            let (l, r) = (ids[left], ids[right]);
            LeafRecord::merge_into(&self.records[l], &self.records[r], &mut merged, &ctx);
            self.commit(vec![(id, merged)]);
            assert!(tree.prune(leaf, id, &self.records));
            self.records.release(l);
            self.records.release(r);
            true
        }

        /// Adds an observation to the training rows and to its leaf.
        fn insert(&mut self, tree: &ParticleTree, x: f64, y: f64) -> usize {
            self.xs.push_row(&[x]);
            self.ys.push(y);
            let ctx = MomentCtx {
                prior: &self.prior,
                table: &self.table,
            };
            let leaf = tree.find_leaf(&[x]);
            let id = tree.record_ids()[leaf];
            let mut record = self.records.take(id);
            record.insert(self.ys.len() - 1, &[x], y, &ctx);
            self.records.put(id, record);
            leaf
        }

        fn record(&self, tree: &ParticleTree, leaf: usize) -> &LeafRecord {
            &self.records[tree.record_ids()[leaf]]
        }

        fn points(&self, tree: &ParticleTree, leaf: usize) -> Vec<usize> {
            let ids = self.record(tree, leaf).ids();
            ids.map(|p| p as usize).collect()
        }

        fn point_count(&self, tree: &ParticleTree) -> usize {
            tree.leaves().map(|l| self.points(tree, l).len()).sum()
        }

        /// Every cache, record and refcount of `trees` and the pool.
        fn validate(&self, trees: &[&ParticleTree]) {
            let ctx = MomentCtx {
                prior: &self.prior,
                table: &self.table,
            };
            let mut holders = vec![0; self.records.len()];
            for tree in trees {
                tree.validate_caches().unwrap();
                tree.validate_leaves(&self.records, &self.xs, &mut holders)
                    .unwrap();
            }
            self.records
                .validate(&holders, &self.xs, &self.ys, &ctx)
                .unwrap();
        }
    }

    #[test]
    fn root_leaf_holds_all_points() {
        let mut forest = Forest::line(10);
        let tree = forest.root();
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(forest.point_count(&tree), 10);
        assert_eq!(tree.depth_bound(), 0);
        assert_eq!(tree.find_leaf(&[0.3]), 0);
        assert_eq!(forest.points(&tree, 0), (0..10).collect::<Vec<_>>());
        forest.validate(&[&tree]);
    }

    #[test]
    fn grow_splits_points_by_threshold() {
        let mut forest = Forest::line(10);
        let mut tree = forest.root();
        assert!(forest.grow(&mut tree, 0, 0.5));
        assert_eq!(tree.leaf_count(), 2);
        assert_eq!(forest.point_count(&tree), 10);
        let left = tree.find_leaf(&[0.1]);
        let right = tree.find_leaf(&[0.9]);
        assert_ne!(left, right);
        assert!((forest.record(&tree, left).stats().mean() - 1.0).abs() < 1e-12);
        assert!((forest.record(&tree, right).stats().mean() - 2.0).abs() < 1e-12);
        assert_eq!(tree.depth_of(left), 1);
        // The split node keeps the statistics it held as a leaf.
        assert_eq!(tree.past_stats[0].count(), 10);
        forest.validate(&[&tree]);
    }

    #[test]
    fn prune_restores_the_parent_leaf() {
        let mut forest = Forest::line(10);
        let mut tree = forest.root();
        assert!(forest.grow(&mut tree, 0, 0.5));
        let leaf = tree.find_leaf(&[0.1]);
        assert!(forest.prune(&mut tree, leaf));
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(forest.point_count(&tree), 10);
        // The merged statistics equal an O(1) merge of the children, and
        // the list is the left child's followed by the right child's.
        assert_eq!(forest.record(&tree, 0).stats().count(), 10);
        assert_eq!(forest.points(&tree, 0), (0..10).collect::<Vec<_>>());
        // Freed slots are reused by the next grow.
        assert!(forest.grow(&mut tree, 0, 0.3));
        assert_eq!(tree.leaf_count(), 2);
        assert_eq!(tree.dim.len(), 3, "grow after prune reuses freed slots");
        forest.validate(&[&tree]);
    }

    #[test]
    fn prune_of_root_is_rejected() {
        let mut forest = Forest::line(4);
        let mut tree = forest.root();
        assert!(!forest.prune(&mut tree, 0));
        assert!(!tree.prune(0, 0, &forest.records));
    }

    #[test]
    fn insert_updates_the_correct_leaf_and_its_moments() {
        let mut forest = Forest::line(10);
        let mut tree = forest.root();
        assert!(forest.grow(&mut tree, 0, 0.5));
        let target = tree.find_leaf(&[0.9]);
        let before = forest.record(&tree, target).stats().count();
        let leaf = forest.insert(&tree, 0.9, 2.5);
        assert_eq!(leaf, target);
        assert_eq!(forest.record(&tree, leaf).stats().count(), before + 1);
        assert_eq!(forest.points(&tree, leaf).last(), Some(&10));
        forest.validate(&[&tree]);
    }

    #[test]
    fn log_weight_is_higher_for_consistent_observations() {
        let mut forest = Forest::line(20);
        let mut tree = forest.root();
        assert!(forest.grow(&mut tree, 0, 0.5));
        let moments = forest.record(&tree, tree.find_leaf(&[0.2])).moments();
        assert!(moments.log_density(1.0) > moments.log_density(5.0));
    }

    #[test]
    fn sibling_detection() {
        let mut forest = Forest::line(12);
        let mut tree = forest.root();
        assert!(forest.grow(&mut tree, 0, 0.5));
        let left = tree.find_leaf(&[0.0]);
        let right = tree.find_leaf(&[1.0]);
        assert_eq!(tree.leaf_sibling(left), Some(right));
        assert_eq!(tree.leaf_sibling(right), Some(left));
        assert_eq!(tree.parent_of(left), Some(0));
        // After growing the left leaf again, the right leaf's sibling is an
        // internal node, so prune must not be offered there.
        assert!(forest.grow(&mut tree, left, 0.25));
        assert_eq!(tree.leaf_sibling(right), None);
    }

    #[test]
    fn leaves_iterator_matches_leaf_count() {
        let mut forest = Forest::line(16);
        let mut tree = forest.root();
        assert!(forest.grow(&mut tree, 0, 0.5));
        let l = tree.find_leaf(&[0.2]);
        assert!(forest.grow(&mut tree, l, 0.25));
        assert_eq!(tree.leaves().count(), tree.leaf_count());
        assert_eq!(tree.leaf_count(), 3);
    }

    #[test]
    fn cached_flat_traversal_matches_find_leaf_after_moves() {
        let mut forest = Forest::line(16);
        let mut tree = forest.root();
        assert!(forest.grow(&mut tree, 0, 0.5));
        let l = tree.find_leaf(&[0.2]);
        assert!(forest.grow(&mut tree, l, 0.25));
        // Pruning leaves a free slot behind, which the flattening must
        // encode harmlessly.
        let r = tree.find_leaf(&[0.05]);
        assert!(forest.prune(&mut tree, r));
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
        forest.validate(&[&tree]);
    }

    #[test]
    fn clone_from_reuses_storage_and_matches_clone() {
        let mut forest = Forest::line(12);
        let mut tree = forest.root();
        assert!(forest.grow(&mut tree, 0, 0.5));
        let target = forest.copy(&tree);
        assert_eq!(target, tree.clone());
        forest.validate(&[&tree, &target]);
        // The copy shares its records: moving one tree leaves the other's
        // leaves and their refcounts intact.
        let mut target = target;
        let leaf = target.find_leaf(&[0.9]);
        assert!(forest.grow(&mut target, leaf, 0.75));
        assert_eq!(tree.leaf_count(), 2);
        forest.validate(&[&tree, &target]);
    }

    #[test]
    fn split_mask_walk_matches_serial_traversal() {
        let mut forest = Forest::line(64);
        // An unbalanced three-level tree, so lanes finish at different
        // depths.
        let mut first = forest.root();
        for (leaf, threshold) in [(0usize, 0.5), (1, 0.25), (3, 0.125)] {
            assert!(forest.grow(&mut first, leaf, threshold));
        }
        // A copy-on-write descendant keeps every ancestor split and adds
        // one; a third tree reuses two of those thresholds at other nodes.
        let mut second = forest.copy(&first);
        let right = second.find_leaf(&[0.9]);
        assert!(forest.grow(&mut second, right, 0.75));
        let mut third = forest.root();
        assert!(forest.grow(&mut third, 0, 0.25));
        let right = third.find_leaf(&[0.9]);
        assert!(forest.grow(&mut third, right, 0.5));
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
        assert_routes_like_find_leaf(&paths, &[&first, &second, &third]);
    }

    /// Every lane of every routed block reaches exactly the leaf
    /// `find_leaf_flat` returns, in each of `trees`.
    fn assert_routes_like_find_leaf(paths: &PathTable, trees: &[&ParticleTree]) {
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

    #[test]
    fn compaction_renumbers_live_paths_and_keeps_their_routes() {
        let mut forest = Forest::line(64);
        let mut first = forest.root();
        for (leaf, threshold) in [(0usize, 0.5), (1, 0.25), (2, 0.75)] {
            assert!(forest.grow(&mut first, leaf, threshold));
        }
        let mut second = forest.root();
        for (leaf, threshold) in [(0usize, 0.3), (2, 0.6)] {
            assert!(forest.grow(&mut second, leaf, threshold));
        }
        let mut paths = PathTable::default();
        for tree in [&mut first, &mut second] {
            tree.assign_paths(&mut paths);
        }
        // Prune `first` back to one split, so part of its subtree's
        // entries and the 0.25 split die with it; `second` retires.
        let leaf = first.find_leaf(&[0.1]);
        assert!(forest.prune(&mut first, leaf));
        let (entries, splits) = (paths.entry_count(), paths.split_count());
        let mut live = vec![false; entries];
        first.mark_paths(&mut live);
        let remap = paths.retain(&live);
        first.remap_paths(&remap);
        assert_eq!(remap.len(), 2 * entries + 1);
        assert!(paths.entry_count() < entries && paths.split_count() < splits);
        // The renumbered table holds exactly what a fresh walk interns.
        let mut fresh = PathTable::default();
        let mut walked = first.clone();
        walked.assign_paths(&mut fresh);
        assert_eq!(paths.entry_count(), fresh.entry_count());
        assert_eq!(paths.split_count(), fresh.split_count());
        first
            .validate_paths(&paths, &mut PathTable::default(), &mut HashMap::new())
            .unwrap();
        assert_routes_like_find_leaf(&paths, &[&first]);
    }
}
