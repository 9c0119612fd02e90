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
//! The particle-learning step is built around three ideas:
//!
//! * **Structurally shared arenas.** Trees live in a slot pool of
//!   arena-backed [`ParticleTree`]s ([`tree`] module) and particles hold
//!   slot indices. Systematic-resampling duplicates *share* their ancestor's
//!   arena: the per-update weighting, point insertion and leaf gathering
//!   run **once per unique tree**, and a duplicate only pays for a copy (a
//!   handful of `memcpy`s into a recycled slot) when its first divergent
//!   grow/prune move lands. Stay moves — the common case — keep sharing.
//! * **Deterministic parallel updates.** Each particle's stochastic move is
//!   decided with an RNG stream derived from
//!   `(model seed, observation index, particle index)`
//!   ([`SmallRng::substream`]), so the weight pass, the per-arena insert pass
//!   and the per-particle move decisions all run on the rayon pool with
//!   by-index write-back — `fit` and `update` are bit-identical across
//!   thread counts. Only systematic resampling (one draw from the master
//!   stream) and the copy-on-write slot assignment are serial passes.
//! * **Persistent flat-node and leaf-moment caches.** Every arena keeps its
//!   dense traversal array and per-leaf derived quantities (predictive
//!   moments, log marginal likelihood, log-density constants backed by a
//!   memoized `ln Γ` table) eagerly fresh, so weighting is a flat traversal
//!   plus a few flops, move scoring reads cached likelihoods, and
//!   steady-state `predict`/`predict_batch`/`alc_scores` calls do **zero**
//!   flattening or posterior recomputation.
//! * **Fused split scans.** Each update gathers a leaf that several
//!   particles share once into column-major feature/target buffers; every
//!   sharer's split-proposal batch then runs through one fused
//!   mask-multiply pass over those columns ([`scan::scan_left`]), carrying
//!   all attempts' accumulators at once. A sole owner skips the copy and
//!   streams its point list through the same pass
//!   ([`scan::scan_left_direct`]); the two are bit-identical by
//!   construction (property-tested).
//!
//! The batch entry points ([`predict_batch`](SurrogateModel::predict_batch),
//! [`alm_scores`](ActiveSurrogate::alm_scores),
//! [`alc_scores`](ActiveSurrogate::alc_scores)) chunk candidates directly by
//! index (no per-call block collection), share per-leaf contribution tables
//! across candidates, traverse each **unique** tree once per candidate and
//! accumulate multiplicity-weighted contributions in first-seen particle
//! order — results are bit-identical to the single-point methods regardless
//! of the thread count.

pub mod scan;
pub mod tree;

use rand::Rng;
use serde::{Deserialize, Serialize};

use alic_data::io::{self, JsonValue};
use alic_stats::rng::{seeded_stream, Rng as StatsRng, SmallRng};
use alic_stats::FeatureMatrix;
use rayon::prelude::*;

use crate::leaf::{log_marginal_likelihood_of_sums, LeafPrior, LnGammaTable};
use crate::snapshot::{self, Snapshot};
use crate::traits::{ActiveSurrogate, Prediction, SurrogateModel};
use crate::{validate_training_set, ModelError, Result};

use scan::{LeafColumns, ATTEMPT_BATCH};

pub use tree::{
    find_leaf_flat, find_leaves_flat_block, for_each_block_leaf, FlatNode, MomentCtx, ParticleTree,
    QueryBlock, Split, FLAT_LEAF,
};

/// Candidates per parallel scoring block. Each block accumulates its scores
/// independently (per-candidate work is ordered by particle index), so the
/// block size affects only scheduling granularity, never results.
const SCORE_BLOCK: usize = 64;

/// "No group" sentinel in the arena→group scratch map.
const NO_GROUP: u32 = u32::MAX;

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

/// Reusable per-update workspace: after the first few updates no buffer here
/// is ever reallocated, which keeps the particle-learning step
/// allocation-free on the common path (the thread-pool shim's internal
/// per-call staging aside).
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
    /// Per-group gathered leaf columns for split proposals.
    gather: Vec<LeafColumns>,
    /// Movers staged for the parallel apply pass:
    /// `(particle, slot, leaf, decision)`.
    movers: Vec<(u32, u32, u32, Decision)>,
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
            arena_refs: Vec::new(),
            arena_free: Vec::new(),
            particles: Vec::new(),
            rng: seeded_stream(config.seed, 0xD14A),
            dimension: None,
            scratch: UpdateScratch::default(),
        }
    }

    /// Creates an unfitted model with default configuration and the given
    /// seed.
    pub fn with_seed(seed: u64) -> Self {
        DynaTree::new(DynaTreeConfig {
            seed,
            ..Default::default()
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &DynaTreeConfig {
        &self.config
    }

    /// The shared leaf prior (derived from the initial training targets).
    pub fn prior(&self) -> &LeafPrior {
        &self.prior
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

    /// Recomputes every live tree's cached flat traversal and leaf moments
    /// from scratch and compares them bitwise against the maintained
    /// caches. Exercised by the root-level property tests.
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
        for (slot, (tree, &refs)) in self.arenas.iter().zip(&self.arena_refs).enumerate() {
            if refs > 0 {
                tree.validate_caches(&self.xs, &ctx)
                    .map_err(|e| format!("arena {slot}: {e}"))?;
            }
        }
        Ok(())
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
                    arenas.push(ParticleTree::from_snapshot(tree_doc, &ctx, ys.len())?);
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
            arena_refs,
            arena_free,
            particles,
            rng,
            dimension,
            table,
            split_prior: Vec::new(),
            depth_bound,
            scratch: UpdateScratch::default(),
        };
        model.ensure_split_prior(model.depth_bound + 2);
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
    /// from the per-group column gather, which lists them in point-list
    /// order — the same sequence a direct walk of the tree would yield.
    ///
    /// All attempts of a batch (up to [`ATTEMPT_BATCH`]) are handed to one
    /// scan call: each attempt's left-side `(n, Σy, Σy²)` comes back
    /// bit-identical whether the gathered or the streamed kernel ran. The
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

    /// Decides one particle's stay/grow/prune move around the leaf that
    /// received the new observation. Pure read of the (possibly shared)
    /// tree plus the particle's own RNG stream; the chosen move is applied
    /// later, after copy-on-write slot assignment.
    #[allow(clippy::too_many_arguments)]
    fn decide_move(
        config: &DynaTreeConfig,
        ctx: &MomentCtx<'_>,
        split_prior: &[(f64, f64)],
        tree: &ParticleTree,
        leaf: usize,
        gather: &LeafColumns,
        xs: &FeatureMatrix,
        ys: &[f64],
        dim: usize,
        rng: &mut SmallRng,
    ) -> Decision {
        let depth = tree.depth_of(leaf);
        let leaf_lml = tree.leaf_moments()[leaf].lml;

        // Log-odds of the candidate moves relative to "stay" (whose log-odds
        // are zero by construction). At most three moves exist, so the
        // candidate list lives on the stack.
        let mut moves = [(Decision::Stay, 0.0); 3];
        let mut n_moves = 1;

        let stats = tree.leaf_stats(leaf);
        let (len, totals) = (stats.count(), stats.sum_and_sum_sq());
        let bounds = tree.leaf_bounds(leaf);
        // Sole-owner leaves stream the point list straight into the fused
        // scalar kernel (the gather is skipped for them — see phase 5);
        // shared leaves scan the gathered columns. Both paths visit points
        // in list order, so the proposals are bit-identical either way.
        let proposal = if gather.is_empty() {
            Self::propose_split(config, ctx, len, totals, bounds, dim, rng, |d, t, live| {
                scan::scan_left_direct(
                    tree.leaf_points(leaf).map(|p| (xs.row(p), ys[p])),
                    d,
                    t,
                    live,
                )
            })
        } else {
            debug_assert_eq!(gather.len(), len, "gather out of sync with leaf");
            Self::propose_split(config, ctx, len, totals, bounds, dim, rng, |d, t, live| {
                scan::scan_left(gather, d, t, live)
            })
        };
        if let Some((split, children_lml)) = proposal {
            let (ln_p_here, ln_q_here) = split_prior[depth];
            let (_, ln_q_child) = split_prior[depth + 1];
            let log_odds = children_lml - leaf_lml + ln_p_here + 2.0 * ln_q_child - ln_q_here;
            moves[n_moves] = (Decision::Grow(split), log_odds);
            n_moves += 1;
        }

        if let Some(sibling) = tree.leaf_sibling(leaf) {
            let sibling_lml = tree.leaf_moments()[sibling].lml;
            let mut merged = *tree.leaf_stats(leaf);
            merged.merge(tree.leaf_stats(sibling));
            let merged_lml = merged.log_marginal_likelihood_with(ctx.prior, ctx.table);
            let parent_depth = depth.saturating_sub(1);
            let (ln_p_parent, ln_q_parent) = split_prior[parent_depth];
            let (_, ln_q_here) = split_prior[depth];
            let log_odds =
                merged_lml + ln_q_parent - (leaf_lml + sibling_lml + ln_p_parent + 2.0 * ln_q_here);
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

    fn update_inner(&mut self, x: &[f64], y: f64) {
        let index = self.ys.len();
        self.xs.push_row(x);
        self.ys.push(y);
        self.table.ensure(self.ys.len());
        // Decide needs priors at `depth + 1` for every current leaf depth.
        self.ensure_split_prior(self.depth_bound + 2);
        let dim = self.xs.dim();
        let mut scratch = std::mem::take(&mut self.scratch);

        // 1. Group particles by unique arena (first-seen order). Everything
        //    that depends only on the tree — weighting, insertion, leaf
        //    gathering — runs once per group below.
        scratch.arena_group.clear();
        scratch.arena_group.resize(self.arenas.len(), NO_GROUP);
        scratch.unique.clear();
        for &slot in &self.particles {
            if scratch.arena_group[slot as usize] == NO_GROUP {
                scratch.arena_group[slot as usize] = scratch.unique.len() as u32;
                scratch.unique.push(slot);
            }
        }

        // 2. Weight pass: one flat traversal + cached-density evaluation per
        //    unique tree, then broadcast to the particles. Serial: a
        //    traversal costs less than handing it to another thread.
        let groups = scratch.unique.len();
        let weighted: Vec<(u32, f64)> = scratch
            .unique
            .iter()
            .map(|&slot| {
                let tree = &self.arenas[slot as usize];
                let leaf = find_leaf_flat(tree.flat_nodes(), x);
                (leaf as u32, tree.leaf_moments()[leaf].log_density(y))
            })
            .collect();
        scratch.group_leaf.clear();
        scratch.log_weights.clear();
        scratch.group_leaf.extend(weighted.iter().map(|&(l, _)| l));
        scratch.log_weights.extend(
            self.particles
                .iter()
                .map(|&slot| weighted[scratch.arena_group[slot as usize] as usize].1),
        );

        // 3. Systematic resampling on the master stream (serial; one draw).
        systematic_resample(
            &mut self.rng,
            &scratch.log_weights,
            &mut scratch.weights,
            &mut scratch.indices,
        );

        // 4. Remap particles to their ancestors' slots and recount arena
        //    references. Duplicates share their ancestor's arena — no clone
        //    happens here.
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

        // 5. Insert the observation and gather the receiving leaf once per
        //    *surviving* unique tree. Inserting is O(1) per tree; the
        //    column gather is one walk of the leaf's point list, after
        //    which every sharer's proposal scan reads contiguous columns.
        //    This pass runs serially in place — staging trees onto the
        //    thread pool costs more than the work itself.
        scratch.gather.resize_with(groups, LeafColumns::default);
        let ctx = MomentCtx {
            prior: &self.prior,
            table: &self.table,
        };
        let min_leaf = self.config.min_leaf;
        for g in 0..groups {
            let slot = scratch.unique[g] as usize;
            if self.arena_refs[slot] == 0 {
                continue;
            }
            let tree = &mut self.arenas[slot];
            let leaf = scratch.group_leaf[g] as usize;
            tree.insert_at(leaf, index, x, y, &ctx);
            // The column copy pays off only when several sharers will scan
            // it; a sole owner streams the list directly into the fused
            // kernel, and an unsplittable leaf never reaches the scan.
            let gather = &mut scratch.gather[g];
            let count = tree.leaf_stats(leaf).count();
            if self.arena_refs[slot] > 1 && count >= 2 * min_leaf {
                let (xs, ys) = (&self.xs, &self.ys);
                gather.fill(
                    dim,
                    count,
                    tree.leaf_points(leaf).map(|p| (xs.row(p), ys[p])),
                );
            } else {
                gather.clear();
            }
        }

        // 6. Decide every particle's move in parallel on its own
        //    `(seed, observation, particle)` RNG stream.
        let decisions: Vec<Decision> = {
            let arenas = &self.arenas;
            let particles = &self.particles;
            let arena_group = &scratch.arena_group;
            let group_leaf = &scratch.group_leaf;
            let gather = &scratch.gather;
            let config = &self.config;
            let split_prior = &self.split_prior;
            let xs = &self.xs;
            let ys = &self.ys;
            (0..particles.len())
                .into_par_iter()
                .map(|i| {
                    let slot = particles[i] as usize;
                    let g = arena_group[slot] as usize;
                    let mut rng = SmallRng::substream(config.seed, index as u64, i as u64);
                    Self::decide_move(
                        config,
                        &ctx,
                        split_prior,
                        &arenas[slot],
                        group_leaf[g] as usize,
                        &gather[g],
                        xs,
                        ys,
                        dim,
                        &mut rng,
                    )
                })
                .collect()
        };

        // 7. Copy-on-write slot assignment (serial): a mover that still
        //    shares its arena clones it into a recycled slot; the last owner
        //    mutates in place. Stayers keep sharing.
        scratch.movers.clear();
        for (i, &decision) in decisions.iter().enumerate() {
            if decision == Decision::Stay {
                continue;
            }
            let slot = self.particles[i] as usize;
            let leaf = scratch.group_leaf[scratch.arena_group[slot] as usize];
            let dst = if self.arena_refs[slot] > 1 {
                self.arena_refs[slot] -= 1;
                let dst = match self.arena_free.pop() {
                    Some(free) => free as usize,
                    None => {
                        self.arenas.push(ParticleTree::placeholder());
                        self.arena_refs.push(0);
                        self.arenas.len() - 1
                    }
                };
                clone_slot(&mut self.arenas, slot, dst);
                self.arena_refs[dst] = 1;
                self.particles[i] = dst as u32;
                dst
            } else {
                slot
            };
            scratch.movers.push((i as u32, dst as u32, leaf, decision));
        }

        // 8. Apply the divergent moves in parallel: every mover owns its
        //    arena exclusively now, so the trees are moved out, mutated and
        //    written back by slot.
        let mut mover_trees: Vec<(u32, ParticleTree, u32, Decision)> = scratch
            .movers
            .iter()
            .map(|&(_, slot, leaf, decision)| {
                (
                    slot,
                    std::mem::replace(&mut self.arenas[slot as usize], ParticleTree::placeholder()),
                    leaf,
                    decision,
                )
            })
            .collect();
        {
            let xs = &self.xs;
            let ys = &self.ys;
            mover_trees = mover_trees
                .into_par_iter()
                .map(|(slot, mut tree, leaf, decision)| {
                    match decision {
                        Decision::Stay => unreachable!("stayers are filtered out"),
                        Decision::Grow(split) => {
                            // The proposal verified both children meet
                            // `min_leaf` with these exact comparisons.
                            tree.grow_unchecked(leaf as usize, split, xs, ys, &ctx);
                        }
                        Decision::Prune => {
                            tree.prune(leaf as usize, &ctx);
                        }
                    }
                    (slot, tree, leaf, decision)
                })
                .collect();
        }
        let mut depth_bound = self.depth_bound;
        for (slot, tree, _, _) in mover_trees {
            depth_bound = depth_bound.max(tree.depth_bound());
            self.arenas[slot as usize] = tree;
        }
        self.depth_bound = depth_bound;

        self.scratch = scratch;
    }
}

/// Clones the arena in `src` into `dst` (disjoint slots of the same pool),
/// reusing `dst`'s allocations.
fn clone_slot(arenas: &mut [ParticleTree], src: usize, dst: usize) {
    debug_assert_ne!(src, dst);
    if src < dst {
        let (a, b) = arenas.split_at_mut(dst);
        b[0].clone_from(&a[src]);
    } else {
        let (a, b) = arenas.split_at_mut(src);
        a[dst].clone_from(&b[0]);
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
        self.arena_refs.clear();
        self.arena_free.clear();
        self.particles.clear();
        self.depth_bound = 0;
        if self.config.particles > 0 {
            let ctx = MomentCtx {
                prior: &self.prior,
                table: &self.table,
            };
            self.arenas
                .push(ParticleTree::new_root(&[0], &self.xs, &self.ys, &ctx));
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
            let m = &tree.leaf_moments()[find_leaf_flat(tree.flat_nodes(), x)];
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
        // The cached flat traversals and leaf moments make this a pure read:
        // no flattening, no posterior computation, just one traversal per
        // (unique tree, input) pair. Candidate blocks are chunked directly
        // by index; block `b` covers `inputs[b*SCORE_BLOCK..]`.
        let groups = self.arena_groups();
        let n = self.particles.len() as f64;
        let scored: Vec<Vec<Prediction>> = (0..inputs.len().div_ceil(SCORE_BLOCK))
            .into_par_iter()
            .map(|b| {
                let lo = b * SCORE_BLOCK;
                let block = &inputs[lo..(lo + SCORE_BLOCK).min(inputs.len())];
                // Accumulate over unique trees in first-seen particle order
                // with multiplicity weights, exactly like `predict`, so
                // results are bit-identical to the single-point method and
                // independent of the thread count. Each tree is applied in
                // two block-wide passes — resolve every candidate's leaf,
                // then gather that leaf's moments — so the traversal loop
                // carries no accumulator dependencies and the gather loop
                // is a tight indexed sweep (same adds in the same order as
                // a fused loop).
                let mut mean_acc = vec![0.0f64; block.len()];
                let mut second_moment = vec![0.0f64; block.len()];
                let mut staged = QueryBlock::default();
                staged.fill(block[0].len(), block);
                let mut stack = Vec::new();
                for &(slot, mult) in &groups {
                    let tree = &self.arenas[slot as usize];
                    let flat = tree.flat_nodes();
                    let moments = tree.leaf_moments();
                    let k = mult as f64;
                    for_each_block_leaf(flat, &staged, &mut stack, |i, leaf| {
                        let m = &moments[leaf as usize];
                        mean_acc[i] += k * m.mean;
                        second_moment[i] += k * (m.variance + m.mean * m.mean);
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
            })
            .collect();
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
                tree.to_snapshot()?
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

impl ActiveSurrogate for DynaTree {
    fn alc_score(&self, candidate: &[f64], reference: &[&[f64]]) -> Result<f64> {
        Ok(self.alc_scores(&[candidate], reference)?[0])
    }

    fn alc_scores(&self, candidates: &[&[f64]], reference: &[&[f64]]) -> Result<Vec<f64>> {
        if self.particles.is_empty() {
            return Err(ModelError::NotFitted);
        }
        for c in candidates {
            self.check_dimension(c)?;
        }
        for r in reference {
            self.check_dimension(r)?;
        }
        // With no reference set there is nothing to average over; fall back
        // to the ALM criterion so the scores still order candidates usefully.
        if reference.is_empty() {
            return self.alm_scores(candidates);
        }
        if candidates.is_empty() {
            return Ok(Vec::new());
        }
        // Pre-compute, per unique tree, each leaf's contribution to a
        // candidate landing in it. Observing a candidate shrinks the
        // predictive variance of its leaf by roughly a factor 1/(n_eff + 1),
        // so the expected reduction in *average* variance over the reference
        // set is (sum of the leaf's reference variance) / (n_eff + 1),
        // averaged over particles. Leaves containing no reference mass
        // contribute nothing — exactly like Cohn's criterion, which
        // integrates the reduction over the input distribution. The
        // reference traversals and the division are shared across all
        // candidates (and all particles of a shared tree); the per-candidate
        // work is one cached flat traversal and one table add per unique
        // tree.
        let groups = self.arena_groups();
        let tables: Vec<(u32, f64, Vec<f64>)> = groups
            .par_iter()
            .map(|&(slot, mult)| {
                let tree = &self.arenas[slot as usize];
                let flat = tree.flat_nodes();
                let moments = tree.leaf_moments();
                let mut add = vec![0.0f64; flat.len()];
                let mut staged = QueryBlock::default();
                let mut stack = Vec::new();
                for chunk in reference.chunks(SCORE_BLOCK) {
                    staged.fill(chunk[0].len(), chunk);
                    for_each_block_leaf(flat, &staged, &mut stack, |_, leaf| {
                        add[leaf as usize] += moments[leaf as usize].variance;
                    });
                }
                for (leaf, affected) in add.iter_mut().enumerate() {
                    if *affected > 0.0 {
                        *affected /= moments[leaf].n_eff + 1.0;
                    }
                }
                (slot, mult as f64, add)
            })
            .collect();
        let denominator = reference.len() as f64 * self.particles.len() as f64;
        let scored: Vec<Vec<f64>> = (0..candidates.len().div_ceil(SCORE_BLOCK))
            .into_par_iter()
            .map(|b| {
                let lo = b * SCORE_BLOCK;
                let block = &candidates[lo..(lo + SCORE_BLOCK).min(candidates.len())];
                // Two block-wide passes per tree, like `predict_batch`:
                // traverse, then gather from the contribution table.
                let mut totals = vec![0.0f64; block.len()];
                let mut staged = QueryBlock::default();
                staged.fill(block[0].len(), block);
                let mut stack = Vec::new();
                for (slot, k, add) in &tables {
                    let flat = self.arenas[*slot as usize].flat_nodes();
                    for_each_block_leaf(flat, &staged, &mut stack, |i, leaf| {
                        totals[i] += k * add[leaf as usize];
                    });
                }
                totals.iter().map(|t| t / denominator).collect()
            })
            .collect();
        Ok(scored.into_iter().flatten().collect())
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
    fn errors_before_fit_and_on_bad_input() {
        let mut model = DynaTree::with_seed(0);
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

    #[test]
    fn observation_count_tracks_fit_and_updates() {
        let mut model = fit_on(|x| x, 25, 23);
        assert_eq!(model.observation_count(), 25);
        model.update(&[0.5], 0.5).unwrap();
        assert_eq!(model.observation_count(), 26);
        assert_eq!(model.dimension(), Some(1));
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
