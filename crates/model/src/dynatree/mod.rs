//! Dynamic trees via particle learning (Taddy, Gramacy & Polson).
//!
//! The dynamic tree is the surrogate model at the heart of the paper's
//! active learner (§3.2). It maintains a *set of particles*, each holding one
//! regression tree. When a new observation `(x, y)` arrives:
//!
//! 1. every particle is weighted by the posterior-predictive density of `y`
//!    at the leaf containing `x`,
//! 2. particles are resampled in proportion to those weights,
//! 3. each surviving particle stochastically applies one of the three moves
//!    of Figure 4 — **stay**, **grow** (split the leaf that received the new
//!    point) or **prune** (collapse the leaf's parent) — with probabilities
//!    proportional to the Bayesian-CART posterior of the resulting tree.
//!
//! Predictions average the per-particle Student-t posterior predictives, so
//! both a mean and a variance are available at any point of the space — the
//! ingredients the ALM/ALC acquisition criteria need (§3.3).
//!
//! # Performance
//!
//! The particle-learning step is built around five ideas:
//!
//! * **Structurally shared arenas and leaf records.** Trees live in a slot
//!   pool of arena-backed [`ParticleTree`]s ([`tree`] module) and particles
//!   hold slot indices. Systematic-resampling duplicates *share* their
//!   ancestor's arena, so the weighting runs **once per unique tree**, and
//!   a duplicate only pays for a copy when its first divergent grow/prune
//!   move lands. Below the trees, each leaf's payload (its observation
//!   ids, a row-major copy of their features with `y` and `y²`, its
//!   statistics, bounds and moments) lives in a refcounted leaf record
//!   (the `record` module) that every copy of the tree shares. A copy
//!   therefore copies node columns and bumps one refcount per leaf: it
//!   copies no observation data. Stay moves — the common case — keep
//!   sharing both.
//! * **One insert per distinct leaf.** Trees share a record only when they
//!   are copies of one tree, so every holder has it at the same root path
//!   and a new observation lands in it for all of them or for none. The
//!   weight pass groups the unique trees by the record of their receiving
//!   leaf (evaluating each record's predictive density once), and the
//!   update inserts the observation once per group that has a surviving
//!   tree.
//! * **Deterministic parallel updates.** Each particle's stochastic move is
//!   decided with an RNG stream derived from
//!   `(model seed, observation index, particle index)`
//!   ([`SmallRng::substream`]), so no decision depends on which thread
//!   makes it and `fit` and `update` are bit-identical across thread
//!   counts. The decide map runs one pool job per receiving record whose
//!   trees have at most `DECIDE_CHUNK` sharers: it inserts the observation
//!   and then forms each tree's prune odds and decides every sharer's move
//!   on the record's rows, so a record stays on one core while all its
//!   scans run. A record with more sharers is inserted serially first and
//!   its sharers are split into jobs of at most `DECIDE_CHUNK`, so that a
//!   record most particles share still spreads over the threads. The move
//!   map runs one job per mover: it builds the records of the move from the
//!   parent records, and a diverging sharer first clones the source tree
//!   into its recycled slot and rewires the copy. What stays serial is
//!   bookkeeping: the weight pass over the unique trees, systematic
//!   resampling (one draw from the master stream), the grouping by record,
//!   the copy-on-write slot assignment, the record ids and refcounts, the
//!   rewiring of trees that move in place (after the copies read them),
//!   and the interning of grown leaves' paths.
//! * **Persistent flat-node and leaf-moment caches.** Every arena keeps its
//!   dense traversal array and every record its derived quantities
//!   (predictive moments, log marginal likelihood, log-density constants
//!   backed by a memoized `ln Γ` table) eagerly fresh, so weighting is a
//!   flat traversal plus a few flops, move scoring reads cached
//!   likelihoods, and steady-state `predict`/`predict_batch`/`alc_scores`
//!   calls do **zero** flattening or posterior recomputation.
//! * **Fused split scans.** Every sharer's split-proposal batch runs
//!   through one fused mask-multiply pass over its leaf record's
//!   contiguous rows ([`scan::scan_left`]), carrying all attempts'
//!   accumulators at once. The rows are the record's own storage, so no
//!   scan gathers or chases a list, and each attempt accumulates in point
//!   order, bit-identical to an attempt-at-a-time stream
//!   (property-tested).
//!
//! # Persistent root paths and the batch kernels
//!
//! A node's root path is the sequence of `(split, side)` steps from the
//! root down to it. Copy-on-write particles keep their ancestors' nodes,
//! so the trees of a particle set lie on far fewer distinct paths than
//! they have nodes. The model hash-conses every path into one
//! `PathTable` and every tree stores each node's path id (a column kept
//! fresh like the flat and moment caches): a grow's two children are
//! interned in a serial pass after the parallel moves, in particle order;
//! a prune and a copy leave the ids as they are. `fit` resets the table,
//! and a restore rebuilds it by walking the live trees (it is never
//! serialized, so snapshots do not change). Retired trees and pruned
//! subtrees leave dead entries behind, so once the table holds twice the
//! entries it had after its last compaction, the update marks the entries
//! the live trees' path columns use, keeps those in their order, and
//! rewrites every live tree's ids through the renumbering.
//!
//! The batch entry points ([`predict_batch`](SurrogateModel::predict_batch),
//! [`alm_scores`](ActiveSurrogate::alm_scores),
//! [`alc_scores`](ActiveSurrogate::alc_scores),
//! [`alc_rank`](ActiveSurrogate::alc_rank)) share one routing mechanism.
//! Each 64-row block computes one `<=` mask per split of the table and
//! one AND per path (`PathTable::route`), which yields the word of rows
//! that reach every path; each unique tree then reads its leaves' lane
//! words through their path ids. Routing makes exactly the `<=` tests a
//! per-row [`find_leaf_flat`] walk makes, and every lane accumulates one
//! term per unique tree in first-seen particle order, the order of a
//! per-row loop — so results are bit-identical to the single-point
//! methods regardless of the thread count, and path ids never reach a
//! result. The ALC reference counts (the popcount of a path's reach) are
//! gathered serially; the candidate blocks run in parallel.
//!
//! [`alc_rank`](ActiveSurrogate::alc_rank) keeps one candidate of
//! hundreds, so it scores in three steps: a bound per candidate from sums
//! taken once per distinct leaf path, a cut that keeps only the
//! candidates whose bound can reach the top `k`, and the exact score of
//! those alone (see the method for the error argument). Its result equals
//! a stable sort of `alc_scores`.

mod record;
pub mod scan;
pub mod tree;

use rand::Rng;
use serde::{Deserialize, Serialize};

use alic_data::io::{self, JsonValue};
use alic_stats::features::FeatureMatrix;
use alic_stats::rng::{seeded_stream, Rng as StatsRng, SmallRng};
use rayon::prelude::*;

use crate::leaf::{log_marginal_likelihood_of_sums, LeafPrior, LnGammaTable};
use crate::snapshot::{self, Snapshot};
use crate::traits::{rank_scores, ActiveSurrogate, Prediction, SurrogateModel};
use crate::{validate_training_set, ModelError, Result};

use record::{LeafRecord, LeafRecords};
use scan::ATTEMPT_BATCH;

pub(crate) use tree::{find_leaf_flat, MomentCtx, ParticleTree, Split};

use tree::{PathTable, Routing};

/// Candidates per parallel scoring block: one reach word. Each block
/// accumulates its scores independently (per-candidate work is ordered by
/// particle index), so the block split affects only scheduling, never
/// results.
const SCORE_BLOCK: usize = tree::TRAVERSE_BLOCK;

/// "No group" sentinel in the arena→group scratch map.
const NO_GROUP: u32 = u32::MAX;

/// Most sharers a decide job takes: a receiving record with at most this
/// many sharers gets one job that inserts and decides, a larger one is
/// inserted up front and its sharers split into jobs of at most this many.
const DECIDE_CHUNK: usize = 16;

/// The path table is rebuilt from the live trees once it holds twice the
/// entries it had after its last rebuild, and never below this many.
const PATHS_COMPACT_FLOOR: usize = 32;

std::thread_local! {
    /// Per-thread buffers of [`with_route`].
    static ROUTING: std::cell::RefCell<Routing> = std::cell::RefCell::new(Routing::default());
}

/// Configuration of the dynamic-tree model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynaTreeConfig {
    /// Number of particles. The paper sets the R `dynaTree` package to 5,000
    /// particles; a few hundred are sufficient for the simulated workloads
    /// and keep the experiment harness fast.
    pub particles: usize,
    /// Base of the Chipman–George–McCulloch split prior
    /// `p_split(depth) = alpha (1 + depth)^(-beta)`.
    pub alpha: f64,
    /// Decay exponent of the split prior.
    pub beta: f64,
    /// Minimum number of observations in each child of a split.
    pub min_leaf: usize,
    /// Number of random split proposals considered per grow move.
    pub grow_attempts: usize,
    /// Seed for the model's internal randomness (resampling and moves).
    pub seed: u64,
}

impl Default for DynaTreeConfig {
    fn default() -> Self {
        DynaTreeConfig {
            particles: 200,
            alpha: 0.95,
            beta: 2.0,
            min_leaf: 2,
            grow_attempts: 4,
            seed: 0,
        }
    }
}

/// The stochastic move one particle chose for the current observation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Decision {
    Stay,
    Grow(Split),
    Prune,
}

impl Decision {
    /// Number of leaf records the move builds.
    fn records_built(self) -> usize {
        match self {
            Decision::Stay => 0,
            Decision::Grow(_) => 2,
            Decision::Prune => 1,
        }
    }
}

/// Reusable per-update workspace: after the first few updates no buffer here
/// is ever reallocated. What an update still allocates is a handful of
/// short lists: the per-tree weights, the job lists handed to the pool
/// (they borrow the trees and records, so they live for one update) and
/// the shim's per-call staging.
#[derive(Debug, Clone, Default)]
struct UpdateScratch {
    /// Per-particle log predictive densities of the new observation.
    log_weights: Vec<f64>,
    /// Normalized (shifted, exponentiated) weights.
    weights: Vec<f64>,
    /// Systematic-resampling ancestor indices.
    indices: Vec<usize>,
    /// Arena slot → group index for this update ([`NO_GROUP`] if unused).
    arena_group: Vec<u32>,
    /// Group index → arena slot, in first-seen particle order.
    unique: Vec<u32>,
    /// Group index → leaf that contains the new observation.
    group_leaf: Vec<u32>,
    /// Staging for the resampled particle→slot assignment.
    new_particles: Vec<u32>,
    /// Record id → index of its receiving group ([`NO_GROUP`] between
    /// updates).
    record_group: Vec<u32>,
    /// Receiving group → record id, in first-seen order over `unique`.
    receiving: Vec<u32>,
    /// Receiving group → log predictive density of the observation.
    group_weight: Vec<f64>,
    /// `(slot, leaf, group)` of each unique tree, in `unique` order; only
    /// the surviving ones once the particles are resampled.
    tree_group: Vec<(u32, u32, u32)>,
    /// Receiving group → end of its run in `holders`.
    group_end: Vec<u32>,
    /// `(slot, leaf, sharers)` of each surviving tree, grouped by
    /// receiving record.
    holders: Vec<(u32, u32, u32)>,
    /// `(slot, leaf, sharers)` runs of at most [`DECIDE_CHUNK`] sharers,
    /// cut from the trees of the groups too large for one decide job.
    chunks: Vec<(u32, u32, u32)>,
    /// Arena slot → next position of its run in `members` while they fill.
    member_cursor: Vec<u32>,
    /// Particle indices, one run per surviving slot in `holders` order and
    /// particles ascending within a run, so each group's sharers form one
    /// contiguous range.
    members: Vec<u32>,
    /// The move decided for each entry of `members`.
    member_moves: Vec<Decision>,
    /// The move decided for each particle.
    decisions: Vec<Decision>,
    /// Movers in particle order: `(own slot, leaf, decision)`.
    movers: Vec<(u32, u32, Decision)>,
    /// The receiving records of the small groups, moved out of the pool
    /// while their jobs insert into them, with their ids.
    taken: Vec<(u32, LeafRecord)>,
    /// Claimed ids and records the moves build into.
    shells: Vec<(u32, LeafRecord)>,
    /// Slots that received a clone this update.
    cloned: Vec<u32>,
    /// In-place movers: `(slot, leaf, decision, first shell)`.
    in_place: Vec<(u32, u32, Decision, u32)>,
    /// Records an in-place move built (gained) or gave up (lost).
    gained: Vec<u32>,
    lost: Vec<u32>,
}

/// The read-only inputs every pool job of one update shares.
struct UpdateEnv<'a> {
    config: &'a DynaTreeConfig,
    ctx: MomentCtx<'a>,
    split_prior: &'a [(f64, f64)],
    xs: &'a FeatureMatrix,
    /// Index of the observation being added.
    point: usize,
    /// Its target.
    y: f64,
}

/// Particle-learning dynamic-tree regressor.
///
/// See the [module documentation](self) for the algorithm and the crate
/// documentation for a usage example.
#[derive(Debug, Clone)]
pub struct DynaTree {
    config: DynaTreeConfig,
    prior: LeafPrior,
    /// Flat row-major training inputs. The placeholder width used before
    /// [`fit`](SurrogateModel::fit) is never read (`dimension` is `None`).
    xs: FeatureMatrix,
    ys: Vec<f64>,
    /// Arena slot pool. Slots with a zero refcount hold retired trees whose
    /// allocations are recycled by the next copy-on-write clone.
    arenas: Vec<ParticleTree>,
    /// The leaf records the live trees' leaves hold.
    records: LeafRecords,
    /// Number of particles currently sharing each slot.
    arena_refs: Vec<u32>,
    /// Zero-refcount slots, ascending; popped from the back.
    arena_free: Vec<u32>,
    /// Per-particle arena slot.
    particles: Vec<u32>,
    /// Master stream: consumed only by systematic resampling.
    rng: StatsRng,
    dimension: Option<usize>,
    /// Memoized `ln Γ` evaluations, extended once per update.
    table: LnGammaTable,
    /// Memoized per-depth `(ln p_split, ln(1 − p_split))` pairs.
    split_prior: Vec<(f64, f64)>,
    /// Monotone upper bound on any tree depth across the particle set;
    /// sizes `split_prior`.
    depth_bound: usize,
    /// Hash-consed root paths of every tree; each tree's nodes carry their
    /// ids. Never serialized: restore rebuilds it from the trees.
    paths: PathTable,
    /// Entry count of `paths` right after its last rebuild.
    paths_compacted: usize,
    scratch: UpdateScratch,
}

impl DynaTree {
    /// Creates an unfitted model with the given configuration.
    pub fn new(config: DynaTreeConfig) -> Self {
        let prior = LeafPrior::default();
        DynaTree {
            config,
            table: LnGammaTable::new(&prior),
            split_prior: Vec::new(),
            depth_bound: 0,
            prior,
            xs: FeatureMatrix::new(1),
            ys: Vec::new(),
            arenas: Vec::new(),
            records: LeafRecords::default(),
            arena_refs: Vec::new(),
            arena_free: Vec::new(),
            particles: Vec::new(),
            rng: seeded_stream(config.seed, 0xD14A),
            dimension: None,
            paths: PathTable::default(),
            paths_compacted: 0,
            scratch: UpdateScratch::default(),
        }
    }

    /// Average number of leaves across particles (a measure of model
    /// complexity).
    pub fn mean_leaf_count(&self) -> f64 {
        if self.particles.is_empty() {
            return 0.0;
        }
        self.particles
            .iter()
            .map(|&slot| self.arenas[slot as usize].leaf_count() as f64)
            .sum::<f64>()
            / self.particles.len() as f64
    }

    /// Number of *unique* trees behind the particle set. Structural sharing
    /// keeps this below the particle count whenever resampling duplicated a
    /// particle that has not diverged yet.
    pub fn unique_tree_count(&self) -> usize {
        self.arena_refs.iter().filter(|&&r| r > 0).count()
    }

    /// Recomputes every live tree's cached flat traversal and root-path ids,
    /// and every leaf record, from scratch and compares them against the
    /// maintained state: the flat nodes bitwise, each path id by the steps
    /// it spells in the maintained table against those of a freshly
    /// rebuilt table, and each record by these invariants:
    ///
    /// * it lists exactly the observations inside its leaf's region, each
    ///   observation in one leaf per tree (the list order is pinned by the
    ///   snapshot digests of the unit tests);
    /// * its rows equal `xs`/`ys` at those ids, and its statistics, bounds
    ///   and moments equal a fresh computation, bitwise;
    /// * its refcount equals the number of live leaves that hold it, and
    ///   no live tree holds a freed record;
    /// * all its holders hold it at one root path.
    ///
    /// Exercised by the root-level property tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence found.
    #[doc(hidden)]
    pub fn validate_caches(&self) -> std::result::Result<(), String> {
        let ctx = MomentCtx {
            prior: &self.prior,
            table: &self.table,
        };
        let mut fresh = PathTable::default();
        let mut seen = std::collections::HashMap::new();
        let mut holders = vec![0u32; self.records.len()];
        let mut record_path = vec![NO_GROUP; self.records.len()];
        for (slot, (tree, &refs)) in self.arenas.iter().zip(&self.arena_refs).enumerate() {
            if refs == 0 {
                continue;
            }
            tree.validate_caches()
                .and_then(|()| tree.validate_paths(&self.paths, &mut fresh, &mut seen))
                .and_then(|()| tree.validate_leaves(&self.records, &self.xs, &mut holders))
                .and_then(|()| {
                    for leaf in tree.leaves() {
                        let (id, path) = (tree.record_ids()[leaf], tree.path_ids()[leaf]);
                        let held_at = &mut record_path[id as usize];
                        if *held_at == NO_GROUP {
                            *held_at = path;
                        } else if *held_at != path {
                            return Err(format!("leaf {leaf}: record {id} sits at two root paths"));
                        }
                    }
                    Ok(())
                })
                .map_err(|e| format!("arena {slot}: {e}"))?;
        }
        self.records.validate(&holders, &self.xs, &self.ys, &ctx)
    }

    /// Rebuilds a model from a [`SurrogateModel::snapshot`] document. The
    /// restored model is behaviorally bit-identical to the serialized one:
    /// predictions, acquisition scores and every future update (including
    /// the master resampling stream, which resumes mid-sequence) continue
    /// exactly where it stopped. Retired zero-reference arena slots are
    /// stored as nulls and restored as placeholders — their contents are
    /// only ever overwritten, never read.
    pub(crate) fn from_snapshot(doc: &JsonValue) -> Result<Self> {
        let config = DynaTreeConfig {
            particles: io::field_usize(doc, "config_particles")?,
            alpha: io::field_hex_f64(doc, "config_alpha")?,
            beta: io::field_hex_f64(doc, "config_beta")?,
            min_leaf: io::field_usize(doc, "config_min_leaf")?,
            grow_attempts: io::field_usize(doc, "config_grow_attempts")?,
            seed: io::field_hex_u64(doc, "config_seed")?,
        };
        let prior = LeafPrior {
            mean: io::field_hex_f64(doc, "prior_mean")?,
            kappa: io::field_hex_f64(doc, "prior_kappa")?,
            shape: io::field_hex_f64(doc, "prior_shape")?,
            scale: io::field_hex_f64(doc, "prior_scale")?,
        };
        let xs = snapshot::get_rows(doc, "xs")?;
        let ys = io::field_hex_f64s(doc, "ys")?;
        if xs.len() != ys.len() {
            return Err(snapshot::err("fields xs/ys: row counts disagree"));
        }
        let particles = io::field_hex_u32s(doc, "particles")?;
        let rng_words = io::field_hex_u32s(doc, "rng")?;
        let rng = StatsRng::from_state_words(&rng_words)
            .ok_or_else(|| snapshot::err("field rng: malformed generator state"))?;
        let dimension = io::nullable(doc, "dimension", io::field_usize)?;
        if dimension.is_some_and(|d| d != xs.dim()) {
            return Err(snapshot::err(
                "field dimension: disagrees with the training rows",
            ));
        }
        let depth_bound = io::field_usize(doc, "depth_bound")?;
        let mut table = LnGammaTable::new(&prior);
        table.ensure(ys.len().max(1));
        let arena_docs = io::field_array(doc, "arenas")?;
        let mut arena_refs = vec![0u32; arena_docs.len()];
        for &slot in &particles {
            let Some(refs) = arena_refs.get_mut(slot as usize) else {
                return Err(snapshot::err(format!("particle slot {slot} out of range")));
            };
            *refs += 1;
        }
        let mut arenas = Vec::with_capacity(arena_docs.len());
        let mut records = LeafRecords::default();
        records.clear(xs.dim());
        {
            let ctx = MomentCtx {
                prior: &prior,
                table: &table,
            };
            for (slot, tree_doc) in arena_docs.iter().enumerate() {
                if arena_refs[slot] == 0 {
                    arenas.push(ParticleTree::placeholder());
                } else if tree_doc.is_null() {
                    return Err(snapshot::err(format!(
                        "arena slot {slot} is live but stored as null"
                    )));
                } else {
                    arenas.push(ParticleTree::from_snapshot(
                        tree_doc,
                        &ctx,
                        &xs,
                        &ys,
                        &mut records,
                    )?);
                }
            }
        }
        let arena_free: Vec<u32> = arena_refs
            .iter()
            .enumerate()
            .filter(|&(_, &refs)| refs == 0)
            .map(|(slot, _)| slot as u32)
            .collect();
        let mut model = DynaTree {
            config,
            prior,
            xs,
            ys,
            arenas,
            records,
            arena_refs,
            arena_free,
            particles,
            rng,
            dimension,
            table,
            split_prior: Vec::new(),
            depth_bound,
            paths: PathTable::default(),
            paths_compacted: 0,
            scratch: UpdateScratch::default(),
        };
        model.ensure_split_prior(model.depth_bound + 2);
        model.rebuild_paths();
        Ok(model)
    }

    fn check_dimension(&self, x: &[f64]) -> Result<()> {
        match self.dimension {
            None => Err(ModelError::NotFitted),
            Some(d) if d == x.len() => Ok(()),
            Some(d) => Err(ModelError::DimensionMismatch {
                expected: d,
                actual: x.len(),
            }),
        }
    }

    /// Unique `(slot, multiplicity)` pairs in first-seen particle order.
    /// Every scoring path iterates trees through this, so shared particles
    /// are traversed once and accumulated with their multiplicity — in the
    /// same order as a per-particle loop, which keeps single-point and
    /// batched results bit-identical.
    fn arena_groups(&self) -> Vec<(u32, u32)> {
        let mut groups: Vec<(u32, u32)> = Vec::new();
        let mut index_of = vec![NO_GROUP; self.arenas.len()];
        for &slot in &self.particles {
            let g = index_of[slot as usize];
            if g == NO_GROUP {
                index_of[slot as usize] = groups.len() as u32;
                groups.push((slot, 1));
            } else {
                groups[g as usize].1 += 1;
            }
        }
        groups
    }

    /// Rebuilds the path table from the live trees alone, walking them in
    /// first-seen particle order, and reassigns every live node's id: the
    /// table of a restored model. Retired slots keep stale ids; they are
    /// only ever overwritten.
    fn rebuild_paths(&mut self) {
        self.paths.clear();
        for (slot, _) in self.arena_groups() {
            self.arenas[slot as usize].assign_paths(&mut self.paths);
        }
        self.paths_compacted = self.paths.entry_count();
    }

    /// Drops the path-table entries no live tree uses, keeping the others
    /// in their order, and rewrites every live tree's ids through the
    /// renumbering ([`PathTable::retain`]). Leaves the same entries and
    /// splits as [`rebuild_paths`](Self::rebuild_paths), without
    /// re-interning a node. Retired slots keep stale ids.
    fn compact_paths(&mut self) {
        let mut live = vec![false; self.paths.entry_count()];
        for (tree, &refs) in self.arenas.iter().zip(&self.arena_refs) {
            if refs > 0 {
                tree.mark_paths(&mut live);
            }
        }
        let remap = self.paths.retain(&live);
        for (tree, &refs) in self.arenas.iter_mut().zip(&self.arena_refs) {
            if refs > 0 {
                tree.remap_paths(&remap);
            }
        }
        self.paths_compacted = self.paths.entry_count();
    }

    /// Routes every [`SCORE_BLOCK`]-row block of `rows` through the path
    /// table on the pool and maps `f(rows, reach)` over them, in block
    /// order.
    fn map_blocks<U, F>(&self, rows: &[&[f64]], f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(&[&[f64]], &[u64]) -> U + Sync,
    {
        (0..rows.len().div_ceil(SCORE_BLOCK))
            .into_par_iter()
            .map(|b| {
                let lo = b * SCORE_BLOCK;
                let block = &rows[lo..(lo + SCORE_BLOCK).min(rows.len())];
                with_route(&self.paths, block, |reach| f(block, reach))
            })
            .collect()
    }

    /// The ALC terms of the unique trees behind `groups`, trees in group
    /// order: `(path, k·table[leaf])` for every leaf whose term is non-zero,
    /// where `k` is the tree's multiplicity and `table[leaf]` is the leaf's
    /// variance added once per reference row that lands there, divided by
    /// `n_eff + 1`.
    ///
    /// Observing a candidate shrinks the predictive variance of its leaf by
    /// roughly a factor 1/(n_eff + 1), so the expected reduction in
    /// *average* variance over the reference set is (sum of the leaf's
    /// reference variance) / (n_eff + 1), averaged over particles. Leaves
    /// containing no reference mass contribute nothing — exactly like
    /// Cohn's criterion, which integrates the reduction over the input
    /// distribution.
    ///
    /// A leaf's reference count is the popcount of its path's reach,
    /// summed over the reference chunks; the table is built serially, each
    /// chunk routed once for every tree. Adding the variance that many
    /// times is the sum a per-reference loop forms. A leaf record sits at
    /// one path and carries one set of moments, so that sum is formed once
    /// per record and reused by every tree that holds it.
    fn alc_terms(&self, groups: &[(u32, u32)], reference: &[&[f64]]) -> Vec<(u32, f64)> {
        let mut counts = vec![0u32; self.paths.path_count()];
        for chunk in reference.chunks(SCORE_BLOCK) {
            with_route(&self.paths, chunk, |reach| {
                for (count, &lanes) in counts.iter_mut().zip(reach) {
                    *count += lanes.count_ones();
                }
            });
        }
        let mut tables: Vec<Option<f64>> = vec![None; self.records.len()];
        let mut terms = Vec::new();
        for &(slot, mult) in groups {
            let tree = &self.arenas[slot as usize];
            let (records, paths) = (tree.record_ids(), tree.path_ids());
            for leaf in tree.leaves() {
                let path = paths[leaf] as usize;
                let count = counts[path];
                if count == 0 {
                    continue;
                }
                let record = records[leaf];
                let table = *tables[record as usize].get_or_insert_with(|| {
                    let m = self.records[record].moments();
                    let mut table = 0.0f64;
                    for _ in 0..count {
                        table += m.variance;
                    }
                    if table > 0.0 {
                        table /= m.n_eff + 1.0;
                    }
                    table
                });
                let term = mult as f64 * table;
                // A zero term is skipped; adding it would leave a total
                // unchanged, since a total that starts at +0.0 is never
                // −0.0.
                if term != 0.0 {
                    terms.push((path as u32, term));
                }
            }
        }
        terms
    }

    /// The split prior `p_split(depth) = α (1 + depth)^(−β)`, clamped away
    /// from 0 and 1.
    fn p_split(config: &DynaTreeConfig, depth: usize) -> f64 {
        (config.alpha * (1.0 + depth as f64).powf(-config.beta)).clamp(1e-9, 1.0 - 1e-9)
    }

    /// Extends the memoized per-depth split-prior table to cover
    /// `0..=max_depth`: entry `d` is `(ln p_split(d), ln(1 − p_split(d)))`.
    /// The prior depends only on the (immutable) `alpha`/`beta`
    /// configuration, so the table never needs invalidation — the `powf`
    /// and `ln` calls leave the per-particle hot path entirely.
    fn ensure_split_prior(&mut self, max_depth: usize) {
        while self.split_prior.len() <= max_depth {
            let p = Self::p_split(&self.config, self.split_prior.len());
            self.split_prior.push((p.ln(), (1.0 - p).ln()));
        }
    }

    /// Proposes the best of `grow_attempts` random splits of the leaf,
    /// returning the split and the children's combined log marginal
    /// likelihood. Reads the leaf's maintained bounds, its statistics'
    /// totals and the particle's own RNG stream; the points themselves come
    /// from the leaf record's rows, in list order.
    ///
    /// All attempts of a batch (up to [`ATTEMPT_BATCH`]) are handed to one
    /// scan call, which returns each attempt's left-side `(n, Σy, Σy²)`
    /// summed in point order. The
    /// right side is `totals − left`, and the children's likelihoods come
    /// from [`log_marginal_likelihood_of_sums`], compared in attempt order
    /// so results match an attempt-at-a-time evaluation.
    #[allow(clippy::too_many_arguments)]
    fn propose_split<F>(
        config: &DynaTreeConfig,
        ctx: &MomentCtx<'_>,
        len: usize,
        totals: (f64, f64),
        bounds: &[f64],
        dim: usize,
        rng: &mut SmallRng,
        scan: F,
    ) -> Option<(Split, f64)>
    where
        F: Fn(
            &[usize; ATTEMPT_BATCH],
            &[f64; ATTEMPT_BATCH],
            usize,
        ) -> (
            [f64; ATTEMPT_BATCH],
            [f64; ATTEMPT_BATCH],
            [f64; ATTEMPT_BATCH],
        ),
    {
        if len < 2 * config.min_leaf {
            return None;
        }
        let (total_sum, total_sum_sq) = totals;
        let mut best: Option<(Split, f64)> = None;
        let mut remaining = config.grow_attempts;
        while remaining > 0 {
            let batch = remaining.min(ATTEMPT_BATCH);
            remaining -= batch;
            // Draw the batch's attempts in the same interleaved order an
            // attempt-at-a-time loop would (dimension, then threshold for
            // non-degenerate dimensions only).
            let mut dims = [0usize; ATTEMPT_BATCH];
            let mut thresholds = [0.0f64; ATTEMPT_BATCH];
            let mut live = 0usize;
            for _ in 0..batch {
                let d = rng.gen_index(dim);
                let (lo, hi) = (bounds[2 * d], bounds[2 * d + 1]);
                if hi <= lo {
                    continue;
                }
                dims[live] = d;
                thresholds[live] = rng.gen_range_f64(lo, hi);
                live += 1;
            }
            if live == 0 {
                continue;
            }
            let (n_left, sum_left, sum_sq_left) = scan(&dims, &thresholds, live);
            for k in 0..live {
                let left_count = n_left[k] as usize;
                let right_count = len - left_count;
                if left_count < config.min_leaf || right_count < config.min_leaf {
                    continue;
                }
                let lml = log_marginal_likelihood_of_sums(
                    left_count,
                    sum_left[k],
                    sum_sq_left[k],
                    ctx.prior,
                    ctx.table,
                ) + log_marginal_likelihood_of_sums(
                    right_count,
                    total_sum - sum_left[k],
                    total_sum_sq - sum_sq_left[k],
                    ctx.prior,
                    ctx.table,
                );
                let split = Split {
                    dimension: dims[k],
                    threshold: thresholds[k],
                };
                if best.as_ref().is_none_or(|(_, b)| lml > *b) {
                    best = Some((split, lml));
                }
            }
        }
        best
    }

    fn update_inner(&mut self, x: &[f64], y: f64) {
        let index = self.ys.len();
        self.xs.push_row(x);
        self.ys.push(y);
        self.table.ensure(self.ys.len());
        // Decide needs priors at `depth + 1` for every current leaf depth.
        self.ensure_split_prior(self.depth_bound + 2);
        let mut scratch = std::mem::take(&mut self.scratch);

        // 1. Group particles by unique arena (first-seen order). Everything
        //    that depends only on the tree runs once per group below.
        scratch.arena_group.clear();
        scratch.arena_group.resize(self.arenas.len(), NO_GROUP);
        scratch.unique.clear();
        for &slot in &self.particles {
            if scratch.arena_group[slot as usize] == NO_GROUP {
                scratch.arena_group[slot as usize] = scratch.unique.len() as u32;
                scratch.unique.push(slot);
            }
        }

        // 2. Weight pass: one flat traversal per unique tree, then one
        //    cached-density evaluation per distinct receiving record (trees
        //    that hold one record share its moments), broadcast to the
        //    particles. The records are grouped here, in first-seen order,
        //    for the insert below. Serial: a traversal costs less than
        //    handing it to another thread.
        scratch.record_group.resize(self.records.len(), NO_GROUP);
        scratch.receiving.clear();
        scratch.group_weight.clear();
        scratch.group_leaf.clear();
        scratch.tree_group.clear();
        for &slot in &scratch.unique {
            let tree = &self.arenas[slot as usize];
            let leaf = find_leaf_flat(tree.flat_nodes(), x);
            let record = tree.record_ids()[leaf];
            let group = &mut scratch.record_group[record as usize];
            if *group == NO_GROUP {
                *group = scratch.receiving.len() as u32;
                scratch.receiving.push(record);
                let moments = self.records[record].moments();
                scratch.group_weight.push(moments.log_density(y));
            }
            scratch.group_leaf.push(leaf as u32);
            scratch.tree_group.push((slot, leaf as u32, *group));
        }
        for &record in &scratch.receiving {
            scratch.record_group[record as usize] = NO_GROUP;
        }
        scratch.log_weights.clear();
        scratch
            .log_weights
            .extend(self.particles.iter().map(|&slot| {
                let (_, _, group) = scratch.tree_group[scratch.arena_group[slot as usize] as usize];
                scratch.group_weight[group as usize]
            }));

        // 3. Systematic resampling on the master stream (serial; one draw).
        systematic_resample(
            &mut self.rng,
            &scratch.log_weights,
            &mut scratch.weights,
            &mut scratch.indices,
        );

        // 4. Remap particles to their ancestors' slots and recount arena
        //    references. Duplicates share their ancestor's arena — no clone
        //    happens here. A tree no particle holds any more gives up its
        //    records, so that only live trees hold the records the insert
        //    below writes to.
        scratch.new_particles.clear();
        scratch
            .new_particles
            .extend(scratch.indices.iter().map(|&i| self.particles[i]));
        std::mem::swap(&mut self.particles, &mut scratch.new_particles);
        self.arena_refs.clear();
        self.arena_refs.resize(self.arenas.len(), 0);
        for &slot in &self.particles {
            self.arena_refs[slot as usize] += 1;
        }
        self.arena_free.clear();
        for slot in 0..self.arena_refs.len() {
            if self.arena_refs[slot] == 0 {
                self.arena_free.push(slot as u32);
            }
        }
        for &slot in &scratch.unique {
            if self.arena_refs[slot as usize] == 0 {
                let tree = &self.arenas[slot as usize];
                for leaf in tree.leaves() {
                    self.records.release(tree.record_ids()[leaf]);
                }
            }
        }

        // 5. Lay out each receiving record's surviving trees and each
        //    tree's sharers contiguously: a counting sort of the surviving
        //    trees by record, then of the particles by slot in that slot
        //    order, particle order within a slot.
        let survived = |&(slot, _, _): &(u32, u32, u32)| self.arena_refs[slot as usize] > 0;
        scratch.tree_group.retain(survived);
        scratch.group_end.clear();
        scratch.group_end.resize(scratch.receiving.len(), 0);
        for &(_, _, group) in &scratch.tree_group {
            scratch.group_end[group as usize] += 1;
        }
        let mut offset = 0;
        for end in &mut scratch.group_end {
            (*end, offset) = (offset, offset + *end);
        }
        scratch.holders.clear();
        scratch.holders.resize(scratch.tree_group.len(), (0, 0, 0));
        for &(slot, leaf, group) in &scratch.tree_group {
            let at = &mut scratch.group_end[group as usize];
            scratch.holders[*at as usize] = (slot, leaf, self.arena_refs[slot as usize]);
            *at += 1;
        }
        scratch.member_cursor.clear();
        scratch.member_cursor.resize(self.arenas.len(), 0);
        let mut offset = 0;
        for &(slot, _, sharers) in &scratch.holders {
            scratch.member_cursor[slot as usize] = offset;
            offset += sharers;
        }
        scratch.members.clear();
        scratch.members.resize(self.particles.len(), 0);
        for (i, &slot) in self.particles.iter().enumerate() {
            let cursor = &mut scratch.member_cursor[slot as usize];
            scratch.members[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        scratch.member_moves.clear();
        scratch
            .member_moves
            .resize(self.particles.len(), Decision::Stay);

        let env = UpdateEnv {
            config: &self.config,
            ctx: MomentCtx {
                prior: &self.prior,
                table: &self.table,
            },
            split_prior: &self.split_prior,
            xs: &self.xs,
            point: index,
            y,
        };
        let leaf_of = |slot: usize| scratch.group_leaf[scratch.arena_group[slot] as usize];

        // 6. Insert the observation once per receiving record and decide
        //    every sharer's move on its own `(seed, observation, particle)`
        //    stream, written back through the sharer's entry of
        //    `member_moves`. A group of at most `DECIDE_CHUNK` sharers is one
        //    pool job, which inserts into its record (moved out of the pool
        //    meanwhile) and then scans it for every sharer, so the record
        //    stays on one core. A larger group is inserted here, serially,
        //    and its trees' sharers are cut into jobs of at most
        //    `DECIDE_CHUNK`, so that a record most particles share still
        //    spreads over the threads. No job reads another's record: a
        //    record that receives the point is never a sibling's.
        scratch.chunks.clear();
        let mut start = 0;
        for (&record, &end) in scratch.receiving.iter().zip(&scratch.group_end) {
            let trees = &scratch.holders[start as usize..end as usize];
            start = end;
            match trees.iter().map(|&(_, _, n)| n as usize).sum::<usize>() {
                // Only retired trees held the record: it is free by now.
                0 => continue,
                sharers if sharers <= DECIDE_CHUNK => {
                    scratch.taken.push((record, self.records.take(record)));
                    continue;
                }
                _ => {}
            }
            self.records.insert(record, index, x, y, &env.ctx);
            for &(slot, leaf, sharers) in trees {
                let mut first = 0;
                while first < sharers {
                    let chunk = (sharers - first).min(DECIDE_CHUNK as u32);
                    scratch.chunks.push((slot, leaf, chunk));
                    first += chunk;
                }
            }
        }
        {
            let (arenas, records) = (&self.arenas, &self.records);
            let mut taken = scratch.taken.iter_mut().map(|(_, record)| record);
            let (mut holders, mut chunks) = (&scratch.holders[..], &scratch.chunks[..]);
            let mut specs = Vec::new();
            let mut start = 0;
            for &end in &scratch.group_end {
                let (trees, rest) = holders.split_at((end - start) as usize);
                (start, holders) = (end, rest);
                let sharers = trees.iter().map(|&(_, _, n)| n as usize).sum::<usize>();
                if sharers == 0 {
                    continue;
                }
                if sharers <= DECIDE_CHUNK {
                    specs.push((taken.next(), trees, sharers));
                    continue;
                }
                let mut left = sharers;
                while left > 0 {
                    let (chunk, rest) = chunks.split_at(1);
                    chunks = rest;
                    left -= chunk[0].2 as usize;
                    specs.push((None, chunk, chunk[0].2 as usize));
                }
            }
            let mut members = &scratch.members[..];
            let mut moves = &mut scratch.member_moves[..];
            let jobs: Vec<_> = specs
                .into_iter()
                .map(|(record, trees, sharers)| {
                    let (particles, rest) = members.split_at(sharers);
                    members = rest;
                    let (decided, rest) = std::mem::take(&mut moves).split_at_mut(sharers);
                    moves = rest;
                    (record, trees, particles, decided)
                })
                .collect();
            jobs.into_par_iter()
                .for_each(|(record, trees, particles, decided)| {
                    env.decide_job(arenas, records, record, trees, particles, decided)
                });
        }
        for (record, taken) in scratch.taken.drain(..) {
            self.records.put(record, taken);
        }

        // 7. Copy-on-write slot assignment (serial bookkeeping, particle
        //    order): a mover that still shares its arena claims a recycled
        //    slot; the last owner keeps its slot and moves in place.
        //    Stayers keep sharing.
        scratch.decisions.clear();
        scratch
            .decisions
            .resize(self.particles.len(), Decision::Stay);
        for (&i, &decision) in scratch.members.iter().zip(&scratch.member_moves) {
            scratch.decisions[i as usize] = decision;
        }
        scratch.movers.clear();
        for (i, &decision) in scratch.decisions.iter().enumerate() {
            if decision == Decision::Stay {
                continue;
            }
            let slot = self.particles[i] as usize;
            let own = if self.arena_refs[slot] > 1 {
                self.arena_refs[slot] -= 1;
                let dst = match self.arena_free.pop() {
                    Some(free) => free as usize,
                    None => {
                        self.arenas.push(ParticleTree::placeholder());
                        self.arena_refs.push(0);
                        self.arenas.len() - 1
                    }
                };
                self.arena_refs[dst] = 1;
                self.particles[i] = dst as u32;
                dst
            } else {
                slot
            };
            scratch.movers.push((own as u32, leaf_of(slot), decision));
        }

        // 8. One pool job per mover, each building its move's records into
        //    ids claimed here, from the parent records in the pool. A mover
        //    that diverges from its sharers first clones the source tree
        //    into its recycled slot and rewires the copy in its job; the
        //    last owner's tree is rewired after the map, serially, because
        //    the clones read it as it stood. The refcounts follow serially
        //    too: a clone holds its leaves' records once more, an in-place
        //    move trades the records it gave up for the ones it built.
        scratch.cloned.clear();
        scratch.in_place.clear();
        scratch.gained.clear();
        scratch.lost.clear();
        {
            let mut slots: Vec<Option<&mut ParticleTree>> =
                self.arenas.iter_mut().map(Some).collect();
            let mut specs = Vec::new();
            let mut start = 0;
            for &(source, leaf, sharers) in &scratch.holders {
                let (source, run) = (source as usize, start..start + sharers as usize);
                start = run.end;
                for (&i, &decision) in scratch.members[run.clone()]
                    .iter()
                    .zip(&scratch.member_moves[run])
                {
                    if decision == Decision::Stay {
                        continue;
                    }
                    let first = scratch.shells.len();
                    for _ in 0..decision.records_built() {
                        scratch.shells.push(self.records.claim());
                    }
                    let own = self.particles[i as usize] as usize;
                    if own == source {
                        let tree = slots[source].as_deref().expect("a source is never claimed");
                        let ids = tree.record_ids();
                        match decision {
                            Decision::Grow(_) => scratch.lost.push(ids[leaf as usize]),
                            _ => {
                                let parent = tree.parent_of(leaf as usize).expect("a pruned leaf");
                                let (left, right) = tree.children_of(parent);
                                scratch.lost.extend([ids[left], ids[right]]);
                            }
                        }
                        scratch
                            .gained
                            .extend(scratch.shells[first..].iter().map(|&(id, _)| id));
                        scratch
                            .in_place
                            .push((source as u32, leaf, decision, first as u32));
                        specs.push((None, source, leaf, decision));
                    } else {
                        let copy = slots[own].take().expect("a slot is cloned into once");
                        scratch.cloned.push(own as u32);
                        specs.push((Some(copy), source, leaf, decision));
                    }
                }
            }
            let sources: Vec<Option<&ParticleTree>> = slots
                .into_iter()
                .map(|slot| slot.map(|tree| &*tree))
                .collect();
            let records = &self.records;
            let mut shells = &mut scratch.shells[..];
            let jobs: Vec<_> = specs
                .into_iter()
                .map(|(copy, source, leaf, decision)| {
                    let built = decision.records_built();
                    let (mine, rest) = std::mem::take(&mut shells).split_at_mut(built);
                    shells = rest;
                    let source = sources[source].expect("a source is never claimed");
                    (copy, source, leaf as usize, decision, mine)
                })
                .collect();
            jobs.into_par_iter()
                .for_each(|(copy, source, leaf, decision, built)| {
                    env.build_move(records, source, leaf, decision, built);
                    if let Some(tree) = copy {
                        tree.clone_from(source);
                        rewire(records, tree, leaf, decision, built);
                    }
                });
        }
        for &(source, leaf, decision, first) in &scratch.in_place {
            let built = &scratch.shells[first as usize..][..decision.records_built()];
            let tree = &mut self.arenas[source as usize];
            rewire(&self.records, tree, leaf as usize, decision, built);
        }
        for (id, record) in scratch.shells.drain(..) {
            self.records.put(id, record);
        }
        // Every retain before any release, so no record still held passes
        // through zero onto the free list.
        for &slot in &scratch.cloned {
            let tree = &self.arenas[slot as usize];
            for leaf in tree.leaves() {
                self.records.retain(tree.record_ids()[leaf]);
            }
        }
        for &id in &scratch.gained {
            self.records.retain(id);
        }
        for &id in &scratch.lost {
            self.records.release(id);
        }

        // 9. Intern the children of every grown leaf into the shared path
        //    table (serial, in particle order), and compact the table once
        //    dead entries could make up half of it.
        let mut depth_bound = self.depth_bound;
        for &(own, leaf, decision) in &scratch.movers {
            let tree = &mut self.arenas[own as usize];
            if let Decision::Grow(_) = decision {
                tree.assign_child_paths(leaf as usize, &mut self.paths);
            }
            depth_bound = depth_bound.max(tree.depth_bound());
        }
        self.depth_bound = depth_bound;
        if self.paths.entry_count() >= 2 * self.paths_compacted.max(PATHS_COMPACT_FLOOR) {
            self.compact_paths();
        }

        self.scratch = scratch;
    }
}

impl UpdateEnv<'_> {
    /// One decide job: inserts the observation into `record` when the job
    /// owns its group's receiving record (moved out of `records`), then,
    /// for each `(slot, leaf, sharers)` of `trees` — a tree of `arenas`
    /// whose receiving leaf is `leaf` — forms the prune odds once and
    /// decides the moves of its next `sharers` particles of `particles`
    /// into the matching entries of `moves`.
    fn decide_job(
        &self,
        arenas: &[ParticleTree],
        records: &LeafRecords,
        mut record: Option<&mut LeafRecord>,
        trees: &[(u32, u32, u32)],
        particles: &[u32],
        moves: &mut [Decision],
    ) {
        let point = self.point;
        if let Some(record) = record.as_deref_mut() {
            record.insert(point, self.xs.row(point), self.y, &self.ctx);
        }
        let mut at = 0;
        for &(slot, leaf, sharers) in trees {
            let (tree, leaf) = (&arenas[slot as usize], leaf as usize);
            let record = match &record {
                Some(record) => &**record,
                None => &records[tree.record_ids()[leaf]],
            };
            let prune = self.prune_log_odds(tree, leaf, record, records);
            let run = at..at + sharers as usize;
            at = run.end;
            for (&particle, decision) in particles[run.clone()].iter().zip(&mut moves[run]) {
                let mut rng =
                    SmallRng::substream(self.config.seed, point as u64, u64::from(particle));
                *decision = self.decide_move(tree, leaf, record, prune, &mut rng);
            }
        }
    }

    /// Decides one sharer's stay/grow/prune move around the leaf that
    /// received the new observation, on the sharer's own RNG stream. Reads
    /// the tree and the leaf's record; `prune` is the prune move's
    /// log-odds, which depend on the tree alone
    /// ([`prune_log_odds`](Self::prune_log_odds)).
    fn decide_move(
        &self,
        tree: &ParticleTree,
        leaf: usize,
        record: &LeafRecord,
        prune: Option<f64>,
        rng: &mut SmallRng,
    ) -> Decision {
        let (config, ctx) = (self.config, &self.ctx);
        let depth = tree.depth_of(leaf);
        let leaf_lml = record.moments().lml;

        // Log-odds of the candidate moves relative to "stay" (whose log-odds
        // are zero by construction). At most three moves exist, so the
        // candidate list lives on the stack.
        let mut moves = [(Decision::Stay, 0.0); 3];
        let mut n_moves = 1;

        let stats = record.stats();
        let (len, totals) = (stats.count(), stats.sum_and_sum_sq());
        let dim = self.xs.dim();
        let proposal = DynaTree::propose_split(
            config,
            ctx,
            len,
            totals,
            record.bounds(),
            dim,
            rng,
            |d, t, live| scan::scan_left(record.rows(), d, t, live),
        );
        if let Some((split, children_lml)) = proposal {
            let (ln_p_here, ln_q_here) = self.split_prior[depth];
            let (_, ln_q_child) = self.split_prior[depth + 1];
            let log_odds = children_lml - leaf_lml + ln_p_here + 2.0 * ln_q_child - ln_q_here;
            moves[n_moves] = (Decision::Grow(split), log_odds);
            n_moves += 1;
        }
        if let Some(log_odds) = prune {
            moves[n_moves] = (Decision::Prune, log_odds);
            n_moves += 1;
        }

        // Sample a move with probability proportional to exp(log-odds).
        let moves = &moves[..n_moves];
        let max = moves
            .iter()
            .map(|(_, w)| *w)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut weights = [0.0f64; 3];
        for (w, (_, log_odds)) in weights.iter_mut().zip(moves) {
            *w = (log_odds - max).exp();
        }
        let weights = &weights[..n_moves];
        let total: f64 = weights.iter().sum();
        let mut pick = rng.gen_range_f64(0.0, total);
        let mut chosen = Decision::Stay;
        for (&(kind, _), &w) in moves.iter().zip(weights) {
            if pick < w {
                chosen = kind;
                break;
            }
            pick -= w;
        }
        chosen
    }

    /// Log-odds of collapsing `leaf`, which holds `record`, into its parent
    /// relative to staying, or `None` when its sibling is not a leaf. The
    /// sibling's record is read from `records`.
    fn prune_log_odds(
        &self,
        tree: &ParticleTree,
        leaf: usize,
        record: &LeafRecord,
        records: &LeafRecords,
    ) -> Option<f64> {
        let sibling = &records[tree.record_ids()[tree.leaf_sibling(leaf)?]];
        let depth = tree.depth_of(leaf);
        let leaf_lml = record.moments().lml;
        let sibling_lml = sibling.moments().lml;
        let mut merged = *record.stats();
        merged.merge(sibling.stats());
        let merged_lml = merged.log_marginal_likelihood_with(self.ctx.prior, self.ctx.table);
        let parent_depth = depth.saturating_sub(1);
        let (ln_p_parent, ln_q_parent) = self.split_prior[parent_depth];
        let (_, ln_q_here) = self.split_prior[depth];
        Some(merged_lml + ln_q_parent - (leaf_lml + sibling_lml + ln_p_parent + 2.0 * ln_q_here))
    }

    /// Builds the records a grow or a prune of `leaf` in `tree` leaves
    /// behind into `built` (claimed ids with their records,
    /// [`Decision::records_built`] of them), from the parent records in
    /// `records`.
    fn build_move(
        &self,
        records: &LeafRecords,
        tree: &ParticleTree,
        leaf: usize,
        decision: Decision,
        built: &mut [(u32, LeafRecord)],
    ) {
        let ids = tree.record_ids();
        match (decision, built) {
            (Decision::Grow(split), [(_, left), (_, right)]) => {
                // The proposal verified both children meet `min_leaf` with
                // these exact comparisons.
                records[ids[leaf]].split_into(split, left, right, &self.ctx);
            }
            (Decision::Prune, [(_, merged)]) => {
                let parent = tree.parent_of(leaf).expect("a pruned leaf has a parent");
                let (left, right) = tree.children_of(parent);
                LeafRecord::merge_into(
                    &records[ids[left]],
                    &records[ids[right]],
                    merged,
                    &self.ctx,
                );
            }
            _ => unreachable!("a move comes with the records it builds"),
        }
    }
}

/// Rewires `tree`'s nodes for a grow or a prune of `leaf` to the records
/// [`UpdateEnv::build_move`] built, whose ids `built` lists; the parent
/// records the nodes keep past statistics and bounds from are read from
/// `records`.
fn rewire(
    records: &LeafRecords,
    tree: &mut ParticleTree,
    leaf: usize,
    decision: Decision,
    built: &[(u32, LeafRecord)],
) {
    match (decision, built) {
        (Decision::Grow(split), [(left, _), (right, _)]) => {
            let parent = &records[tree.record_ids()[leaf]];
            tree.grow(leaf, split, parent, (*left, *right));
        }
        (Decision::Prune, [(merged, _)]) => {
            tree.prune(leaf, *merged, records);
        }
        _ => unreachable!("a move comes with the records it builds"),
    }
}

/// Routes one block of at most [`SCORE_BLOCK`] rows through `paths` in
/// this thread's buffers and hands `f` the reach word of every path
/// ([`PathTable::route`]).
fn with_route<U>(paths: &PathTable, rows: &[&[f64]], f: impl FnOnce(&[u64]) -> U) -> U {
    ROUTING.with(|cell| {
        let routing = &mut *cell.borrow_mut();
        paths.route(rows, routing);
        f(routing.reach())
    })
}

/// Adds each `(path, term)` to the lanes of `keep` that reach its path,
/// in list order.
#[inline]
fn add_terms(terms: &[(u32, f64)], reach: &[u64], keep: u64, totals: &mut [f64]) {
    for &(path, term) in terms {
        for_each_lane(reach[path as usize] & keep, |i| totals[i] += term);
    }
}

/// Calls `f(lane)` for every set bit of `lanes`, in ascending lane order.
#[inline]
fn for_each_lane(mut lanes: u64, mut f: impl FnMut(usize)) {
    while lanes != 0 {
        f(lanes.trailing_zeros() as usize);
        lanes &= lanes - 1;
    }
}

/// Systematic resampling of particle indices proportionally to the given log
/// weights, written into `indices` (the identity assignment when the weights
/// are degenerate). `weights` is a reusable workspace.
fn systematic_resample(
    rng: &mut StatsRng,
    log_weights: &[f64],
    weights: &mut Vec<f64>,
    indices: &mut Vec<usize>,
) {
    let n = log_weights.len();
    let max = log_weights
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    weights.clear();
    weights.extend(log_weights.iter().map(|w| (w - max).exp()));
    let total: f64 = weights.iter().sum();
    indices.clear();
    if !(total.is_finite()) || total <= 0.0 {
        indices.extend(0..n);
        return;
    }
    let step = total / n as f64;
    let start: f64 = rng.gen_range(0.0..step);
    let mut cumulative = weights[0];
    let mut j = 0;
    for i in 0..n {
        let target = start + i as f64 * step;
        while cumulative < target && j + 1 < n {
            j += 1;
            cumulative += weights[j];
        }
        indices.push(j);
    }
}

impl SurrogateModel for DynaTree {
    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<()> {
        let dim = validate_training_set(xs, ys)?;
        self.dimension = Some(dim);
        self.xs = FeatureMatrix::with_capacity(dim, xs.len());
        self.ys.clear();
        // Leaf prior derived from the initial targets: centre on their mean,
        // expect within-leaf variance to be a fraction of the overall spread.
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let variance = ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / ys.len() as f64;
        self.prior = LeafPrior::weakly_informative(mean, (0.25 * variance).max(1e-10));
        self.table = LnGammaTable::new(&self.prior);
        self.table.ensure(1);

        // Start from a *single* root tree shared by every particle: the
        // structural sharing machinery lets particles diverge only when
        // their moves do, so the early fit updates run once per unique tree
        // instead of once per particle.
        self.xs.push_row(xs[0]);
        self.ys.push(ys[0]);
        self.arenas.clear();
        self.records.clear(dim);
        self.arena_refs.clear();
        self.arena_free.clear();
        self.particles.clear();
        self.depth_bound = 0;
        self.paths.clear();
        self.paths_compacted = 0;
        if self.config.particles > 0 {
            let ctx = MomentCtx {
                prior: &self.prior,
                table: &self.table,
            };
            let (id, mut root) = self.records.claim();
            root.reset(dim);
            root.insert(0, self.xs.row(0), self.ys[0], &ctx);
            self.records.put(id, root);
            self.records.retain(id);
            self.arenas.push(ParticleTree::new_root(id, dim));
            self.arena_refs.push(self.config.particles as u32);
            self.particles = vec![0; self.config.particles];
        }
        for (x, &y) in xs.iter().zip(ys).skip(1) {
            self.update_inner(x, y);
        }
        Ok(())
    }

    fn update(&mut self, x: &[f64], y: f64) -> Result<()> {
        self.check_dimension(x)?;
        crate::validate_observation(x, y)?;
        self.update_inner(x, y);
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<Prediction> {
        self.check_dimension(x)?;
        if self.particles.is_empty() {
            return Err(ModelError::NotFitted);
        }
        let mut mean_acc = 0.0;
        let mut second_moment = 0.0;
        for &(slot, mult) in &self.arena_groups() {
            let tree = &self.arenas[slot as usize];
            let leaf = find_leaf_flat(tree.flat_nodes(), x);
            let m = self.records[tree.record_ids()[leaf]].moments();
            let k = mult as f64;
            mean_acc += k * m.mean;
            second_moment += k * (m.variance + m.mean * m.mean);
        }
        let n = self.particles.len() as f64;
        let mean = mean_acc / n;
        let variance = (second_moment / n - mean * mean).max(0.0);
        Ok(Prediction::new(mean, variance))
    }

    fn predict_batch(&self, inputs: &[&[f64]]) -> Result<Vec<Prediction>> {
        for x in inputs {
            self.check_dimension(x)?;
        }
        if self.particles.is_empty() {
            return Err(ModelError::NotFitted);
        }
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        // The cached record moments and path ids make this a pure read: no
        // flattening, no posterior computation. A leaf's two weighted
        // moment terms are formed once per call and added to each lane
        // that reaches its path. Leaves are listed tree by tree, unique
        // trees in first-seen particle order with multiplicity weights,
        // and each lane reaches one leaf per tree, so every lane forms the
        // sum `predict` forms, in the same order: results are
        // bit-identical to the single-point method and independent of the
        // thread count.
        let mut leaves: Vec<(u32, f64, f64)> = Vec::new();
        for (slot, mult) in self.arena_groups() {
            let tree = &self.arenas[slot as usize];
            let (records, paths) = (tree.record_ids(), tree.path_ids());
            let k = mult as f64;
            leaves.extend(tree.leaves().map(|leaf| {
                let m = self.records[records[leaf]].moments();
                (paths[leaf], k * m.mean, k * (m.variance + m.mean * m.mean))
            }));
        }
        let n = self.particles.len() as f64;
        let scored: Vec<Vec<Prediction>> = self.map_blocks(inputs, |block, reach| {
            let mut mean_acc = vec![0.0f64; block.len()];
            let mut second_moment = vec![0.0f64; block.len()];
            for &(path, mean, second) in &leaves {
                for_each_lane(reach[path as usize], |i| {
                    mean_acc[i] += mean;
                    second_moment[i] += second;
                });
            }
            mean_acc
                .iter()
                .zip(&second_moment)
                .map(|(&acc, &sm)| {
                    let mean = acc / n;
                    let variance = (sm / n - mean * mean).max(0.0);
                    Prediction::new(mean, variance)
                })
                .collect()
        });
        Ok(scored.into_iter().flatten().collect())
    }

    fn observation_count(&self) -> usize {
        self.ys.len()
    }

    fn dimension(&self) -> Option<usize> {
        self.dimension
    }

    fn snapshot(&self) -> Result<Snapshot> {
        let mut arenas = Vec::with_capacity(self.arenas.len());
        for (tree, &refs) in self.arenas.iter().zip(&self.arena_refs) {
            arenas.push(if refs == 0 {
                JsonValue::Null
            } else {
                tree.to_snapshot(&self.records, self.ys.len())?
            });
        }
        let mut fields = snapshot::header("dynatree");
        fields.extend([
            ("config_particles", io::int(self.config.particles as u64)?),
            ("config_alpha", io::hex_f64(self.config.alpha)),
            ("config_beta", io::hex_f64(self.config.beta)),
            ("config_min_leaf", io::int(self.config.min_leaf as u64)?),
            (
                "config_grow_attempts",
                io::int(self.config.grow_attempts as u64)?,
            ),
            ("config_seed", io::hex_u64(self.config.seed)),
            ("prior_mean", io::hex_f64(self.prior.mean)),
            ("prior_kappa", io::hex_f64(self.prior.kappa)),
            ("prior_shape", io::hex_f64(self.prior.shape)),
            ("prior_scale", io::hex_f64(self.prior.scale)),
            ("xs_dim", io::int(self.xs.dim() as u64)?),
            ("xs", io::hex_f64s(self.xs.rows().flatten().copied())),
            ("ys", io::hex_f64s(self.ys.iter().copied())),
            ("particles", io::hex_u32s(self.particles.iter().copied())),
            ("rng", io::hex_u32s(self.rng.state_words())),
            (
                "dimension",
                match self.dimension {
                    None => JsonValue::Null,
                    Some(d) => io::int(d as u64)?,
                },
            ),
            ("depth_bound", io::int(self.depth_bound as u64)?),
            ("arenas", JsonValue::Array(arenas)),
        ]);
        Ok(io::object(fields))
    }
}

impl DynaTree {
    /// Checks a scoring call's inputs: the model is fitted and every row
    /// has its width.
    fn check_scoring(&self, candidates: &[&[f64]], reference: &[&[f64]]) -> Result<()> {
        if self.particles.is_empty() {
            return Err(ModelError::NotFitted);
        }
        for row in candidates.iter().chain(reference) {
            self.check_dimension(row)?;
        }
        Ok(())
    }
}

impl ActiveSurrogate for DynaTree {
    fn alc_score(&self, candidate: &[f64], reference: &[&[f64]]) -> Result<f64> {
        Ok(self.alc_scores(&[candidate], reference)?[0])
    }

    fn alc_scores(&self, candidates: &[&[f64]], reference: &[&[f64]]) -> Result<Vec<f64>> {
        self.check_scoring(candidates, reference)?;
        // With no reference set there is nothing to average over; fall back
        // to the ALM criterion so the scores still order candidates usefully.
        if reference.is_empty() {
            return self.alm_scores(candidates);
        }
        if candidates.is_empty() {
            return Ok(Vec::new());
        }
        // The reference routing and the division are shared across all
        // candidates (and all particles of a shared tree); the per-candidate
        // work is one routed block and one add per unique tree. Terms are
        // listed tree by tree in first-seen particle order, and each lane
        // reaches one leaf per tree, so each lane's total is the same sum
        // in the same order as a per-candidate loop.
        let terms = self.alc_terms(&self.arena_groups(), reference);
        let denominator = reference.len() as f64 * self.particles.len() as f64;
        let scored: Vec<Vec<f64>> = self.map_blocks(candidates, |block, reach| {
            let mut totals = vec![0.0f64; block.len()];
            add_terms(&terms, reach, u64::MAX, &mut totals);
            totals.iter().map(|t| t / denominator).collect()
        });
        Ok(scored.into_iter().flatten().collect())
    }

    /// Ranks through bounds taken once per distinct leaf path, then scores
    /// exactly only the candidates whose bound can reach the top `k`.
    ///
    /// 1. `W_p`, the sum of the ALC terms of every tree with a leaf at path
    ///    `p`, is formed once per call. A candidate's bound `A_c` is the
    ///    sum of `W_p` over the distinct leaf paths its lane reaches: a
    ///    candidate that reaches path `p` lands in the leaf at `p` of every
    ///    tree that has one, so `A_c` and the exact score `S_c` sum the same
    ///    non-negative terms, grouped and rounded differently, and
    ///    `|A_c − S_c| ≤ γ·S_c` with `γ = (U + |R| + 8)·2⁻⁵²` for `U` unique
    ///    trees and `|R|` reference rows.
    /// 2. Every candidate with `A_c ≥ (1 − 4γ)·A_(k)`, `A_(k)` the `k`-th
    ///    largest bound, is kept. A candidate of the exact top `k` has
    ///    `A_c ≥ (1 − γ)/(1 + γ)·A_(k)`, so it is kept; one that is not
    ///    kept scores below the `k`-th exact score by more than the
    ///    division by the shared denominator can round away, so it cannot
    ///    tie its way in either. When every bound is 0, all are kept.
    /// 3. The kept candidates are scored with `alc_scores`' terms in its
    ///    order, reusing each block's routing, and sorted.
    ///
    /// The result equals the default (a stable sort of `alc_scores`). A
    /// negative or non-finite term, or an overflowing bound, which the
    /// argument above does not cover, falls back to that default.
    fn alc_rank(
        &self,
        candidates: &[&[f64]],
        reference: &[&[f64]],
        k: usize,
    ) -> Result<Vec<usize>> {
        self.check_scoring(candidates, reference)?;
        if reference.is_empty() {
            return rank_scores(&self.alm_scores(candidates)?, k);
        }
        let k = k.min(candidates.len());
        if k == 0 {
            return Ok(Vec::new());
        }
        let groups = self.arena_groups();
        let terms = self.alc_terms(&groups, reference);
        let exact = || rank_scores(&self.alc_scores(candidates, reference)?, k);
        let mut weight = vec![0.0f64; self.paths.path_count()];
        for &(path, term) in &terms {
            if !(term >= 0.0 && term.is_finite()) {
                return exact();
            }
            weight[path as usize] += term;
        }
        let weights: Vec<(u32, f64)> = weight
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0.0)
            .map(|(path, &w)| (path as u32, w))
            .collect();

        // 1. Bounds, one routed block at a time on the pool; each block
        //    keeps its reach words for step 3.
        let blocks: Vec<(Vec<f64>, Vec<u64>)> = self.map_blocks(candidates, |block, reach| {
            let mut bounds = vec![0.0f64; block.len()];
            add_terms(&weights, reach, u64::MAX, &mut bounds);
            (bounds, reach.to_vec())
        });
        let mut bounds: Vec<f64> = blocks.iter().flat_map(|(b, _)| b.iter().copied()).collect();
        if bounds.iter().any(|b| !b.is_finite()) {
            return exact();
        }

        // 2. The cut.
        let (_, &mut kth, _) = bounds.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
        let gamma = (groups.len() + reference.len() + 8) as f64 * f64::EPSILON;
        let cut = (1.0 - 4.0 * gamma) * kth;

        // 3. Exact scores of the kept candidates, in index order.
        let denominator = reference.len() as f64 * self.particles.len() as f64;
        let (mut kept, mut scores) = (Vec::new(), Vec::new());
        for (b, (block_bounds, reach)) in blocks.iter().enumerate() {
            let mut keep = 0u64;
            for (i, &bound) in block_bounds.iter().enumerate() {
                keep |= u64::from(bound >= cut) << i;
            }
            if keep == 0 {
                continue;
            }
            let mut totals = [0.0f64; SCORE_BLOCK];
            add_terms(&terms, reach, keep, &mut totals);
            for_each_lane(keep, |i| {
                kept.push(b * SCORE_BLOCK + i);
                scores.push(totals[i] / denominator);
            });
        }
        Ok(rank_scores(&scores, k)?
            .into_iter()
            .map(|i| kept[i])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit_on(f: impl Fn(f64) -> f64, n: usize, seed: u64) -> DynaTree {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| f(x[0])).collect();
        let mut model = DynaTree::new(DynaTreeConfig {
            particles: 80,
            seed,
            ..Default::default()
        });
        model.fit(&crate::row_views(&xs), &ys).unwrap();
        model
    }

    fn views(rows: &[Vec<f64>]) -> Vec<&[f64]> {
        rows.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn learns_a_step_function() {
        let model = fit_on(|x| if x <= 0.5 { 1.0 } else { 3.0 }, 60, 1);
        let low = model.predict(&[0.2]).unwrap();
        let high = model.predict(&[0.8]).unwrap();
        assert!((low.mean - 1.0).abs() < 0.4, "low mean {}", low.mean);
        assert!((high.mean - 3.0).abs() < 0.4, "high mean {}", high.mean);
        assert!(model.mean_leaf_count() > 1.0, "trees should have grown");
    }

    #[test]
    fn learns_a_smooth_trend() {
        let model = fit_on(|x| 2.0 + x, 80, 2);
        let a = model.predict(&[0.1]).unwrap().mean;
        let b = model.predict(&[0.9]).unwrap().mean;
        assert!(
            b > a + 0.3,
            "prediction should increase along the trend: {a} vs {b}"
        );
    }

    #[test]
    fn incremental_updates_track_new_information() {
        let mut model = fit_on(|_| 1.0, 30, 3);
        // Feed contradicting data on the right half of the space.
        for i in 0..60 {
            let x = 0.75 + 0.25 * (i % 10) as f64 / 10.0;
            model.update(&[x], 4.0).unwrap();
        }
        let right = model.predict(&[0.9]).unwrap().mean;
        let left = model.predict(&[0.1]).unwrap().mean;
        assert!(right > 2.5, "right half should have adapted, got {right}");
        assert!(left < 2.5, "left half should still be near 1.0, got {left}");
    }

    #[test]
    fn predictions_are_deterministic_for_a_seed() {
        let a = fit_on(|x| x * x, 40, 7);
        let b = fit_on(|x| x * x, 40, 7);
        assert_eq!(a.predict(&[0.3]).unwrap(), b.predict(&[0.3]).unwrap());
    }

    #[test]
    fn variance_is_higher_away_from_data() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 100.0]).collect(); // data in [0, 0.4]
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let mut model = DynaTree::new(DynaTreeConfig {
            particles: 80,
            seed: 5,
            ..Default::default()
        });
        model.fit(&crate::row_views(&xs), &ys).unwrap();
        let inside = model.predict(&[0.2]).unwrap().variance;
        let outside = model.predict(&[0.95]).unwrap().variance;
        assert!(
            outside >= inside * 0.5,
            "extrapolation should not be overconfident: inside {inside}, outside {outside}"
        );
    }

    #[test]
    fn noisy_region_gets_higher_predictive_variance() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..120 {
            let x = i as f64 / 119.0;
            xs.push(vec![x]);
            if x <= 0.5 {
                ys.push(1.0 + 0.002 * (i % 5) as f64);
            } else {
                ys.push(3.0 + ((i % 9) as f64 - 4.0) * 0.4);
            }
        }
        let mut model = DynaTree::new(DynaTreeConfig {
            particles: 100,
            seed: 11,
            ..Default::default()
        });
        model.fit(&crate::row_views(&xs), &ys).unwrap();
        let quiet = model.predict(&[0.25]).unwrap().variance;
        let noisy = model.predict(&[0.75]).unwrap().variance;
        assert!(noisy > quiet, "noisy {noisy} should exceed quiet {quiet}");
    }

    #[test]
    fn alm_and_alc_scores_are_finite_and_nonnegative() {
        let model = fit_on(|x| (6.0 * x).sin(), 50, 13);
        let reference: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let reference = views(&reference);
        for c in [0.05, 0.37, 0.77] {
            let alm = model.alm_score(&[c]).unwrap();
            let alc = model.alc_score(&[c], &reference).unwrap();
            assert!(alm.is_finite() && alm >= 0.0);
            assert!(alc.is_finite() && alc >= 0.0);
        }
    }

    #[test]
    fn alc_prefers_the_noisy_sparse_region() {
        // Dense quiet data on the left, sparse noisy data on the right.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..80 {
            let x = 0.5 * i as f64 / 79.0;
            xs.push(vec![x]);
            ys.push(1.0);
        }
        for i in 0..6 {
            let x = 0.6 + 0.4 * i as f64 / 5.0;
            xs.push(vec![x]);
            ys.push(2.0 + if i % 2 == 0 { 0.8 } else { -0.8 });
        }
        let mut model = DynaTree::new(DynaTreeConfig {
            particles: 100,
            seed: 17,
            ..Default::default()
        });
        model.fit(&crate::row_views(&xs), &ys).unwrap();
        let reference: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0]).collect();
        let scores = model
            .alc_scores(&[&[0.25], &[0.8]], &views(&reference))
            .unwrap();
        assert!(
            scores[1] > scores[0],
            "noisy sparse region should be more informative: {scores:?}"
        );
    }

    #[test]
    fn batch_and_single_alc_agree() {
        let model = fit_on(|x| x, 30, 19);
        let reference: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let reference = views(&reference);
        let batch = model.alc_scores(&[&[0.3], &[0.6]], &reference).unwrap();
        let single0 = model.alc_score(&[0.3], &reference).unwrap();
        let single1 = model.alc_score(&[0.6], &reference).unwrap();
        assert!((batch[0] - single0).abs() < 1e-12);
        assert!((batch[1] - single1).abs() < 1e-12);
    }

    /// Scalar oracle for `alc_scores`: one [`find_leaf_flat`] per (unique
    /// tree, row), trees in first-seen particle order, rows one at a time.
    fn oracle_alc(model: &DynaTree, candidates: &[&[f64]], reference: &[&[f64]]) -> Vec<f64> {
        let groups = model.arena_groups();
        let tables: Vec<Vec<f64>> = groups
            .iter()
            .map(|&(slot, _)| {
                let tree = &model.arenas[slot as usize];
                let moments = |leaf: usize| model.records[tree.record_ids()[leaf]].moments();
                let mut add = vec![0.0f64; tree.flat_nodes().len()];
                for r in reference {
                    let leaf = find_leaf_flat(tree.flat_nodes(), r);
                    add[leaf] += moments(leaf).variance;
                }
                for (leaf, affected) in add.iter_mut().enumerate() {
                    if *affected > 0.0 {
                        *affected /= moments(leaf).n_eff + 1.0;
                    }
                }
                add
            })
            .collect();
        let denominator = reference.len() as f64 * model.particles.len() as f64;
        candidates
            .iter()
            .map(|c| {
                let mut total = 0.0f64;
                for (&(slot, mult), add) in groups.iter().zip(&tables) {
                    let tree = &model.arenas[slot as usize];
                    total += mult as f64 * add[find_leaf_flat(tree.flat_nodes(), c)];
                }
                total / denominator
            })
            .collect()
    }

    /// Scalar oracle for `predict_batch`, with the same per-row order.
    fn oracle_predictions(model: &DynaTree, rows: &[&[f64]]) -> Vec<Prediction> {
        let groups = model.arena_groups();
        let n = model.particles.len() as f64;
        rows.iter()
            .map(|x| {
                let (mut mean_acc, mut second_moment) = (0.0f64, 0.0f64);
                for &(slot, mult) in &groups {
                    let tree = &model.arenas[slot as usize];
                    let leaf = find_leaf_flat(tree.flat_nodes(), x);
                    let m = model.records[tree.record_ids()[leaf]].moments();
                    let k = mult as f64;
                    mean_acc += k * m.mean;
                    second_moment += k * (m.variance + m.mean * m.mean);
                }
                let mean = mean_acc / n;
                Prediction::new(mean, (second_moment / n - mean * mean).max(0.0))
            })
            .collect()
    }

    /// Random rows in `[0, 1]^dim`; about a third of them have one
    /// coordinate moved exactly onto a split threshold of `splits`.
    fn rows_near_splits(
        rng: &mut SmallRng,
        count: usize,
        dim: usize,
        splits: &[(usize, f64)],
    ) -> Vec<Vec<f64>> {
        (0..count)
            .map(|_| {
                let mut row: Vec<f64> = (0..dim).map(|_| rng.gen_range_f64(0.0, 1.0)).collect();
                if !splits.is_empty() && rng.gen_index(3) == 0 {
                    let (d, threshold) = splits[rng.gen_index(splits.len())];
                    row[d] = threshold;
                }
                row
            })
            .collect()
    }

    /// A seeded property loop (the same deterministic-cases scheme as the
    /// workspace's `proptest!` shim): the path-routing kernels equal the
    /// scalar oracles bit for bit.
    #[test]
    fn batch_kernels_equal_the_scalar_oracle_bitwise() {
        for case in 0..24u64 {
            let mut rng = SmallRng::substream(0x0AC1E, case, 0);
            let dim = 1 + (case as usize % 6);
            let n = 20 + rng.gen_index(50);
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range_f64(0.0, 1.0)).collect())
                .collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|x| {
                    let step = if x[0] > 0.5 { 2.0 } else { 0.0 };
                    step + x.iter().sum::<f64>() + rng.gen_range_f64(-0.1, 0.1)
                })
                .collect();
            let mut model = DynaTree::new(DynaTreeConfig {
                particles: 30,
                seed: case,
                ..Default::default()
            });
            model.fit(&crate::row_views(&xs), &ys).unwrap();
            let splits: Vec<(usize, f64)> = model
                .arena_groups()
                .iter()
                .flat_map(|&(slot, _)| model.arenas[slot as usize].flat_nodes())
                .filter(|node| node.dimension != tree::FLAT_LEAF)
                .map(|node| (node.dimension as usize, node.threshold))
                .collect();
            assert!(!splits.is_empty(), "case {case}: no tree grew");
            let mut count = 1 + rng.gen_index(200);
            if count.is_multiple_of(SCORE_BLOCK) {
                count += 1;
            }
            let references = if case % 3 == 0 {
                1 + rng.gen_index(SCORE_BLOCK)
            } else {
                SCORE_BLOCK + 1 + rng.gen_index(100)
            };
            let candidates = rows_near_splits(&mut rng, count, dim, &splits);
            let reference = rows_near_splits(&mut rng, references, dim, &splits);
            let (candidates, reference) = (views(&candidates), views(&reference));

            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let alc = model.alc_scores(&candidates, &reference).unwrap();
            assert_eq!(
                bits(&alc),
                bits(&oracle_alc(&model, &candidates, &reference)),
                "case {case}: {dim}-D, {count} candidates, {references} references"
            );
            let predictions = model.predict_batch(&candidates).unwrap();
            let oracle = oracle_predictions(&model, &candidates);
            for (i, (p, o)) in predictions.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    (p.mean.to_bits(), p.variance.to_bits()),
                    (o.mean.to_bits(), o.variance.to_bits()),
                    "case {case}: prediction {i} of {count}"
                );
            }
        }
    }

    #[test]
    fn predict_batch_is_bit_identical_to_predict() {
        let model = fit_on(|x| (3.0 * x).cos(), 70, 29);
        let points: Vec<Vec<f64>> = (0..150).map(|i| vec![i as f64 / 149.0]).collect();
        let batch = model.predict_batch(&views(&points)).unwrap();
        for (x, p) in points.iter().zip(&batch) {
            assert_eq!(*p, model.predict(x).unwrap());
        }
    }

    #[test]
    fn batch_scores_are_independent_of_the_thread_count() {
        let model = fit_on(|x| (5.0 * x).sin(), 60, 31);
        let candidates: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 199.0]).collect();
        let reference: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let parallel_alc = model
            .alc_scores(&views(&candidates), &views(&reference))
            .unwrap();
        let parallel_alm = model.alm_scores(&views(&candidates)).unwrap();
        rayon::set_num_threads(1);
        let serial_alc = model
            .alc_scores(&views(&candidates), &views(&reference))
            .unwrap();
        let serial_alm = model.alm_scores(&views(&candidates)).unwrap();
        rayon::set_num_threads(0);
        assert_eq!(parallel_alc, serial_alc);
        assert_eq!(parallel_alm, serial_alm);
    }

    #[test]
    fn structural_sharing_survives_updates() {
        let model = fit_on(|x| (2.0 * x).sin(), 60, 37);
        let unique = model.unique_tree_count();
        assert!(unique <= 80, "at most one tree per particle");
        assert!(unique >= 1);
        // Sharing bookkeeping stays consistent with the particle set.
        let total: u32 = model.arena_groups().iter().map(|&(_, mult)| mult).sum();
        assert_eq!(total as usize, 80);
        model.validate_caches().unwrap();
    }

    #[test]
    fn path_ids_stay_valid_through_compactions() {
        let mut model = fit_on(|x| (9.0 * x).sin(), 30, 47);
        let mut compactions = 0;
        for i in 0..120 {
            let before = model.paths.entry_count();
            let x = [(i as f64 * 0.377) % 1.0];
            model
                .update(&x, (9.0 * x[0]).sin() + 0.05 * (i % 3) as f64)
                .unwrap();
            if model.paths.entry_count() < before {
                compactions += 1;
                assert_eq!(model.paths.entry_count(), model.paths_compacted);
            }
            model.validate_caches().unwrap();
        }
        assert!(compactions > 0, "no compaction in 120 updates");
        // Compaction never changes a score.
        let reference: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
        let candidates: Vec<Vec<f64>> = (0..70).map(|i| vec![i as f64 / 69.0]).collect();
        let (candidates, reference) = (views(&candidates), views(&reference));
        let before = model.alc_scores(&candidates, &reference).unwrap();
        model.rebuild_paths();
        assert_eq!(before, model.alc_scores(&candidates, &reference).unwrap());
    }

    #[test]
    fn errors_before_fit_and_on_bad_input() {
        let mut model = DynaTree::new(DynaTreeConfig::default());
        assert_eq!(model.predict(&[0.0]).unwrap_err(), ModelError::NotFitted);
        assert_eq!(
            model.update(&[0.0], 1.0).unwrap_err(),
            ModelError::NotFitted
        );
        let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
        let ys = vec![0.0, 1.0, 2.0];
        model.fit(&crate::row_views(&xs), &ys).unwrap();
        assert!(matches!(
            model.predict(&[0.0, 1.0]),
            Err(ModelError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            model.predict_batch(&[&[0.0], &[0.0, 1.0]]),
            Err(ModelError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            model.alc_scores(&[&[0.0]], &[&[0.0, 1.0]]),
            Err(ModelError::DimensionMismatch { .. })
        ));
        assert_eq!(
            model.update(&[f64::NAN], 1.0).unwrap_err(),
            ModelError::NonFiniteInput
        );
    }

    #[test]
    fn snapshot_round_trip_continues_bit_identically() {
        let mut a = fit_on(|x| (4.0 * x).sin(), 40, 41);
        let text = a.snapshot().unwrap().to_json_string().unwrap();
        let mut b = DynaTree::from_snapshot(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(a.predict(&[0.37]).unwrap(), b.predict(&[0.37]).unwrap());
        // Further stochastic updates stay in lockstep: the master resampling
        // stream resumes mid-sequence on the restored side.
        for i in 0..12 {
            let x = [(i as f64 * 0.083) % 1.0];
            let y = (4.0 * x[0]).sin() + 0.01 * i as f64;
            a.update(&x, y).unwrap();
            b.update(&x, y).unwrap();
        }
        for i in 0..16 {
            let x = [i as f64 / 15.0];
            assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
        }
        b.validate_caches().unwrap();
        let reference: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let reference = views(&reference);
        let candidates: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        assert_eq!(
            a.alc_scores(&views(&candidates), &reference).unwrap(),
            b.alc_scores(&views(&candidates), &reference).unwrap()
        );
    }

    /// Replaces field `name` of a JSON object.
    fn set_field(doc: &mut JsonValue, name: &str, value: JsonValue) {
        let JsonValue::Object(fields) = doc else {
            panic!("not an object");
        };
        let field = fields.iter_mut().find(|(k, _)| k == name).expect("field");
        field.1 = value;
    }

    #[test]
    fn snapshot_with_a_mismatched_width_is_rejected() {
        let xs: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![i as f64 / 29.0, (i % 7) as f64 / 6.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] + 2.0 * x[1]).collect();
        let mut model = DynaTree::new(DynaTreeConfig {
            particles: 20,
            seed: 43,
            ..Default::default()
        });
        model.fit(&crate::row_views(&xs), &ys).unwrap();
        let doc = model.snapshot().unwrap();
        assert!(DynaTree::from_snapshot(&doc).is_ok());

        // A 2-D model that claims to be 1-D would index past a 1-D query.
        let mut narrow = doc.clone();
        set_field(&mut narrow, "dimension", io::int(1).unwrap());
        assert!(matches!(
            DynaTree::from_snapshot(&narrow),
            Err(ModelError::Snapshot(_))
        ));

        // A live tree three features wide (with consistent bounds) next to
        // 2-D training rows.
        let mut wide = doc.clone();
        let JsonValue::Object(fields) = &mut wide else {
            panic!("not an object");
        };
        let (_, JsonValue::Array(arenas)) = fields.iter_mut().find(|(k, _)| k == "arenas").unwrap()
        else {
            panic!("arenas is not an array");
        };
        let tree = arenas.iter_mut().find(|t| !t.is_null()).unwrap();
        let bounds: Vec<f64> = io::field_hex_f64s(tree, "bounds")
            .unwrap()
            .chunks_exact(4)
            .flat_map(|node| {
                node.iter()
                    .copied()
                    .chain([f64::INFINITY, f64::NEG_INFINITY])
            })
            .collect();
        set_field(tree, "bounds", io::hex_f64s(bounds));
        set_field(tree, "n_dims", io::int(3).unwrap());
        assert!(matches!(
            DynaTree::from_snapshot(&wide),
            Err(ModelError::Snapshot(_))
        ));
    }

    #[test]
    fn observation_count_tracks_fit_and_updates() {
        let mut model = fit_on(|x| x, 25, 23);
        assert_eq!(model.observation_count(), 25);
        model.update(&[0.5], 0.5).unwrap();
        assert_eq!(model.observation_count(), 26);
        assert_eq!(model.dimension(), Some(1));
    }

    /// FNV-1a over `bytes`.
    fn fnv64(bytes: &[u8]) -> u64 {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// The snapshot digest after every update of seeded stream `case`, at
    /// `threads` pool threads: `(update index, FNV-1a of the JSON)`.
    /// Random configurations with repeated rows; `grow_attempts` reaches
    /// past [`ATTEMPT_BATCH`], so proposal batches split.
    fn update_digests(case: u64, threads: usize) -> Vec<(usize, u64)> {
        let mut rng = SmallRng::substream(0x7EE5, case, 0);
        let config = DynaTreeConfig {
            particles: 1 + rng.gen_index(64),
            min_leaf: 1 + rng.gen_index(3),
            grow_attempts: rng.gen_index(10),
            seed: case,
            ..Default::default()
        };
        let dim = 1 + rng.gen_index(4);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..20 + rng.gen_index(30) {
            let row = if !rows.is_empty() && rng.gen_index(4) == 0 {
                rows[rng.gen_index(rows.len())].clone()
            } else {
                (0..dim).map(|_| rng.gen_range_f64(0.0, 1.0)).collect()
            };
            let step = if row[0] > 0.5 { 2.0 } else { 0.0 };
            ys.push(step + row.iter().sum::<f64>() + rng.gen_range_f64(-0.2, 0.2));
            rows.push(row);
        }
        let mut model = DynaTree::new(config);
        model.fit(&[&rows[0]], &ys[..1]).unwrap();
        let mut digests = Vec::new();
        for (i, (row, &y)) in rows.iter().zip(&ys).enumerate().skip(1) {
            rayon::set_num_threads(threads);
            model.update(row, y).unwrap();
            rayon::set_num_threads(0);
            let json = model.snapshot().unwrap().to_json_string().unwrap();
            digests.push((i, fnv64(json.as_bytes())));
        }
        model.validate_caches().unwrap();
        digests
    }

    /// Every update of the 16 seeded streams reproduces the snapshot
    /// digests committed in `testdata/update_digests.txt`, at 1 and 3
    /// threads. The digests were recorded from the update this storage
    /// replaced (per-tree point lists), which the nine-step serial update
    /// before it had been checked against byte for byte; each line reads
    /// `<case> <update> <FNV-1a of the snapshot JSON>`.
    #[test]
    fn updates_reproduce_the_reference_digests_bytewise() {
        let expected: Vec<(u64, usize, u64)> = include_str!("testdata/update_digests.txt")
            .lines()
            .map(|line| {
                let mut fields = line.split(' ');
                let mut next = || fields.next().expect("three fields");
                let case = next().parse().unwrap();
                let update = next().parse().unwrap();
                let digest = u64::from_str_radix(next(), 16).unwrap();
                (case, update, digest)
            })
            .collect();
        assert_eq!(expected.len(), 548);
        for threads in [1, 3] {
            let got: Vec<(u64, usize, u64)> = (0..16u64)
                .flat_map(|case| {
                    update_digests(case, threads)
                        .into_iter()
                        .map(move |(update, digest)| (case, update, digest))
                })
                .collect();
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g, e, "case {}, update {}, {threads} threads", e.0, e.1);
            }
            assert_eq!(got.len(), expected.len(), "{threads} threads");
        }
    }

    #[test]
    fn two_dimensional_structure_is_recovered() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                let a = i as f64 / 11.0;
                let b = j as f64 / 11.0;
                xs.push(vec![a, b]);
                ys.push(if a > 0.5 && b > 0.5 { 5.0 } else { 1.0 });
            }
        }
        let mut model = DynaTree::new(DynaTreeConfig {
            particles: 100,
            seed: 29,
            ..Default::default()
        });
        model.fit(&crate::row_views(&xs), &ys).unwrap();
        assert!(model.predict(&[0.9, 0.9]).unwrap().mean > 3.0);
        assert!(model.predict(&[0.1, 0.1]).unwrap().mean < 2.5);
    }
}
