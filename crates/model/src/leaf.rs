//! Conjugate Gaussian leaf model.
//!
//! Every leaf of a (dynamic or static) regression tree models its targets as
//! draws from a Gaussian with unknown mean and variance under a
//! normal–inverse-gamma (NIG) prior. This gives, in closed form,
//!
//! * the posterior-predictive distribution of a new target (a Student-t),
//! * the log marginal likelihood of the targets in the leaf (used to weight
//!   the dynamic tree's stay/prune/grow moves), and
//! * the log predictive density of a single new observation (used as the
//!   particle weight during particle learning).

use serde::{Deserialize, Serialize};

use alic_stats::special::ln_gamma;
use alic_stats::summary::OnlineStats;

/// Normal–inverse-gamma prior shared by every leaf of a tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeafPrior {
    /// Prior mean of the leaf mean.
    pub mean: f64,
    /// Prior pseudo-observation count for the mean (`κ₀`).
    pub kappa: f64,
    /// Inverse-gamma shape (`a₀`).
    pub shape: f64,
    /// Inverse-gamma scale (`b₀`).
    pub scale: f64,
}

impl LeafPrior {
    /// A weakly informative prior centred on `mean` with a typical target
    /// variance of `variance`.
    pub fn weakly_informative(mean: f64, variance: f64) -> Self {
        let shape = 2.0;
        LeafPrior {
            mean,
            kappa: 0.1,
            shape,
            // E[σ²] = b / (a - 1) = variance  =>  b = variance (a - 1).
            scale: (variance.max(1e-12)) * (shape - 1.0),
        }
    }
}

impl Default for LeafPrior {
    fn default() -> Self {
        LeafPrior::weakly_informative(0.0, 1.0)
    }
}

/// Sufficient statistics of the targets currently assigned to a leaf.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LeafStats {
    stats: OnlineStats,
}

impl LeafStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        LeafStats {
            stats: OnlineStats::new(),
        }
    }

    /// Builds statistics from a slice of target values.
    pub fn from_targets(targets: &[f64]) -> Self {
        let mut leaf = LeafStats::new();
        for &y in targets {
            leaf.push(y);
        }
        leaf
    }

    /// Adds one target value.
    pub fn push(&mut self, y: f64) {
        self.stats.push(y);
    }

    /// Builds statistics directly from accumulator parts (`Σ(y−mean)²` as
    /// `m2`) — the dynamic tree's grow move computes child statistics with
    /// a two-pass sum instead of per-point online updates and materializes
    /// them through this.
    pub fn from_parts(count: usize, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        LeafStats {
            stats: OnlineStats::from_parts(count, mean, m2, min, max),
        }
    }

    /// The accumulator parts `(count, mean, m2, min, max)` in
    /// [`from_parts`](LeafStats::from_parts) order, so checkpointing codecs
    /// can round-trip a leaf bit-exactly.
    pub fn parts(&self) -> (usize, f64, f64, f64, f64) {
        (
            self.stats.count(),
            self.stats.mean(),
            self.stats.m2(),
            self.stats.min(),
            self.stats.max(),
        )
    }

    /// Number of targets in the leaf.
    pub fn count(&self) -> usize {
        self.stats.count()
    }

    /// Mean of the targets in the leaf (zero when empty).
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Sum of squared deviations from the mean.
    fn sum_sq_dev(&self) -> f64 {
        self.stats.variance() * (self.stats.count().saturating_sub(1)) as f64
    }

    /// `(Σy, Σy²)` recovered from the online statistics — the totals a
    /// split proposal needs to score the right child as `totals − left`.
    pub fn sum_and_sum_sq(&self) -> (f64, f64) {
        let n = self.count() as f64;
        let mean = self.mean();
        let sum = n * mean;
        (sum, self.sum_sq_dev() + sum * mean)
    }

    /// Posterior NIG parameters given `prior`.
    fn posterior(&self, prior: &LeafPrior) -> LeafPrior {
        let n = self.count() as f64;
        if n == 0.0 {
            return *prior;
        }
        let mean = self.mean();
        let kappa_n = prior.kappa + n;
        let mean_n = (prior.kappa * prior.mean + n * mean) / kappa_n;
        let shape_n = prior.shape + 0.5 * n;
        let scale_n = prior.scale
            + 0.5 * self.sum_sq_dev()
            + 0.5 * prior.kappa * n * (mean - prior.mean) * (mean - prior.mean) / kappa_n;
        LeafPrior {
            mean: mean_n,
            kappa: kappa_n,
            shape: shape_n,
            scale: scale_n,
        }
    }

    /// Posterior-predictive distribution of a new target: a Student-t with
    /// the returned `(mean, scale², degrees of freedom)`.
    fn posterior_predictive(&self, prior: &LeafPrior) -> (f64, f64, f64) {
        let post = self.posterior(prior);
        let df = 2.0 * post.shape;
        let scale_sq = post.scale * (post.kappa + 1.0) / (post.shape * post.kappa);
        (post.mean, scale_sq, df)
    }

    /// Posterior-predictive mean and *variance* of a new target.
    ///
    /// The variance of a Student-t with `df > 2` is `scale² · df / (df − 2)`;
    /// for `df ≤ 2` the scale² itself is returned as a conservative proxy.
    pub fn predictive_mean_variance(&self, prior: &LeafPrior) -> (f64, f64) {
        let (mean, scale_sq, df) = self.posterior_predictive(prior);
        let variance = if df > 2.0 {
            scale_sq * df / (df - 2.0)
        } else {
            scale_sq
        };
        (mean, variance)
    }

    /// Log marginal likelihood of the targets in this leaf under `prior`:
    /// the direct form, the tests' oracle of the table-based ones.
    #[cfg(test)]
    pub fn log_marginal_likelihood(&self, prior: &LeafPrior) -> f64 {
        let n = self.count() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let post = self.posterior(prior);
        ln_gamma(post.shape) - ln_gamma(prior.shape) + prior.shape * prior.scale.ln()
            - post.shape * post.scale.ln()
            + 0.5 * (prior.kappa.ln() - post.kappa.ln())
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// Log posterior-predictive density of a single new target `y`: the
    /// direct form, the tests' oracle of [`LeafMoments::log_density`].
    #[cfg(test)]
    pub fn log_predictive_density(&self, prior: &LeafPrior, y: f64) -> f64 {
        let (mean, scale_sq, df) = self.posterior_predictive(prior);
        let z = (y - mean) * (y - mean) / (df * scale_sq);
        ln_gamma(0.5 * (df + 1.0))
            - ln_gamma(0.5 * df)
            - 0.5 * (df * std::f64::consts::PI * scale_sq).ln()
            - 0.5 * (df + 1.0) * (1.0 + z).ln()
    }

    /// Merges another leaf's statistics into this one (used when pruning).
    pub fn merge(&mut self, other: &LeafStats) {
        self.stats.merge(&other.stats);
    }

    /// Log marginal likelihood of the targets in this leaf under `prior`,
    /// with the `ln Γ` evaluations served from a precomputed
    /// [`LnGammaTable`].
    ///
    /// Bit-identical to the direct computation (a unit test keeps it as the
    /// oracle): the table stores values of the exact same `ln_gamma` at the
    /// exact same arguments, and the same `a₀ ln b₀` product, so `table`
    /// must be built from `prior`.
    ///
    /// # Panics
    ///
    /// Panics if the table does not cover this leaf's count (see
    /// [`LnGammaTable::ensure`]).
    pub fn log_marginal_likelihood_with(&self, prior: &LeafPrior, table: &LnGammaTable) -> f64 {
        let n = self.count() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let post = self.posterior(prior);
        // `ln κ₀` and `ln κₙ` come from the table too: `κₙ = κ₀ + n` is the
        // same expression the table rows are built from, so the values are
        // bit-identical to computing the logarithms here.
        table.ln_gamma_shape(self.count()) - table.ln_gamma_shape(0) + table.shape_ln_scale
            - post.shape * post.scale.ln()
            + 0.5 * (table.ln_kappa(0) - table.ln_kappa(self.count()))
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// Computes the full set of derived per-leaf quantities the dynamic tree
    /// caches per node: predictive moments, log marginal likelihood and the
    /// observation-independent parts of the log predictive density.
    ///
    /// # Panics
    ///
    /// Panics if the table does not cover this leaf's count.
    pub fn moments(&self, prior: &LeafPrior, table: &LnGammaTable) -> LeafMoments {
        let n = self.count();
        // One posterior computation feeds the predictive moments, the
        // density constants *and* the marginal likelihood (same formula as
        // `log_marginal_likelihood_with`, which recomputes the posterior —
        // fused here because this runs once per leaf refresh on the update
        // hot path).
        let post = self.posterior(prior);
        let df = 2.0 * post.shape;
        let scale_sq = post.scale * (post.kappa + 1.0) / (post.shape * post.kappa);
        let variance = if df > 2.0 {
            scale_sq * df / (df - 2.0)
        } else {
            scale_sq
        };
        let lml = if n == 0 {
            0.0
        } else {
            table.ln_gamma_shape(n) - table.ln_gamma_shape(0) + table.shape_ln_scale
                - post.shape * post.scale.ln()
                + 0.5 * (table.ln_kappa(0) - table.ln_kappa(n))
                - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
        };
        // ln Γ(½(df+1)) = ln Γ(shape_n + ½) and ln Γ(½ df) = ln Γ(shape_n):
        // both depend on the data only through the count, so they come from
        // the shared table.
        let density_const = table.ln_gamma_shape_plus_half(n)
            - table.ln_gamma_shape(n)
            - 0.5 * (df * std::f64::consts::PI * scale_sq).ln();
        LeafMoments {
            mean: post.mean,
            variance,
            lml,
            n_eff: n as f64 + prior.kappa,
            density_const,
            half_df_plus_one: 0.5 * (df + 1.0),
            inv_df_scale_sq: 1.0 / (df * scale_sq),
        }
    }
}

/// Cached per-leaf derived quantities of the dynamic tree.
///
/// Everything a scoring or particle-learning step needs from a leaf — the
/// Student-t predictive moments, the log marginal likelihood that weights
/// structural moves, and the observation-independent parts of the log
/// predictive density — is a pure function of the leaf's [`LeafStats`], the
/// shared [`LeafPrior`] and the shared [`LnGammaTable`]. The dynamic tree
/// keeps one `LeafMoments` per node, refreshed whenever the leaf's
/// statistics change, so the hot paths never recompute posteriors or
/// `ln Γ` terms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LeafMoments {
    /// Posterior-predictive mean.
    pub mean: f64,
    /// Posterior-predictive variance.
    pub variance: f64,
    /// Log marginal likelihood of the leaf's targets.
    pub lml: f64,
    /// Effective observation count `n + κ₀` (the ALC shrinkage denominator
    /// is `n_eff + 1`).
    pub n_eff: f64,
    /// `ln Γ(½(df+1)) − ln Γ(½ df) − ½ ln(df π s²)`.
    density_const: f64,
    /// `½ (df + 1)`.
    half_df_plus_one: f64,
    /// `1 / (df s²)`.
    inv_df_scale_sq: f64,
}

impl LeafMoments {
    /// Log posterior-predictive density of a new target `y` — the particle
    /// weight of the resampling step, evaluated from cached constants with
    /// four flops and one `ln`.
    #[inline]
    pub fn log_density(&self, y: f64) -> f64 {
        let d = y - self.mean;
        self.density_const - self.half_df_plus_one * (1.0 + d * d * self.inv_df_scale_sq).ln()
    }
}

/// Memoized `ln Γ` evaluations at the only arguments the leaf model ever
/// needs.
///
/// Every `ln Γ` in the leaf posterior is evaluated at `a₀ + n/2` or
/// `a₀ + n/2 + ½` where `a₀` is the (fit-time frozen) prior shape and `n`
/// is a leaf count — an integer bounded by the total number of
/// observations. The dynamic tree keeps one table per model, extends it
/// once per update (serially, before the parallel phases read it), and
/// thereby removes every `ln Γ` evaluation from the per-particle hot path.
#[derive(Debug, Clone, Default)]
pub struct LnGammaTable {
    shape: f64,
    kappa: f64,
    /// `a₀ ln b₀`, the prior's term of every log marginal likelihood,
    /// formed once.
    shape_ln_scale: f64,
    /// `base[n] = ln Γ(shape + n/2)`.
    base: Vec<f64>,
    /// `half[n] = ln Γ(shape + n/2 + ½)`.
    half: Vec<f64>,
    /// `ln_kappa[n] = ln(κ₀ + n)` — not a `ln Γ`, but memoized by count for
    /// the same reason.
    ln_kappa: Vec<f64>,
}

impl LnGammaTable {
    /// Creates a table for the given prior's shape, scale and `κ₀`,
    /// covering count 0. Every method that reads the table alongside a
    /// prior expects this prior.
    pub fn new(prior: &LeafPrior) -> Self {
        let mut table = LnGammaTable {
            shape: prior.shape,
            kappa: prior.kappa,
            shape_ln_scale: prior.shape * prior.scale.ln(),
            base: Vec::new(),
            half: Vec::new(),
            ln_kappa: Vec::new(),
        };
        table.ensure(0);
        table
    }

    /// Extends the table to cover all counts `0..=max_count`.
    pub fn ensure(&mut self, max_count: usize) {
        while self.base.len() <= max_count {
            let n = self.base.len() as f64;
            // Same expression as `LeafStats::posterior`: shape_n = a₀ + n/2.
            let shape_n = self.shape + 0.5 * n;
            self.base.push(ln_gamma(shape_n));
            self.half.push(ln_gamma(shape_n + 0.5));
            self.ln_kappa.push((self.kappa + n).ln());
        }
    }

    /// `ln Γ(a₀ + count/2)` — the posterior shape for a leaf of `count`
    /// observations.
    #[inline]
    fn ln_gamma_shape(&self, count: usize) -> f64 {
        self.base[count]
    }

    /// `ln Γ(a₀ + count/2 + ½)`.
    #[inline]
    fn ln_gamma_shape_plus_half(&self, count: usize) -> f64 {
        self.half[count]
    }

    /// `ln(κ₀ + count)` — the posterior `ln κₙ`.
    #[inline]
    fn ln_kappa(&self, count: usize) -> f64 {
        self.ln_kappa[count]
    }
}

/// Log marginal likelihood of a hypothetical leaf described by its raw sums
/// `(count, Σy, Σy²)` under `prior`.
///
/// This is the proposal-scoring fast path of the dynamic tree's grow move:
/// a candidate split partitions a leaf with three fused accumulators per
/// side instead of a running Welford update, and the likelihood is
/// evaluated straight from the sums with one data-dependent `ln` (all other
/// logarithms come from the table). The accepted split's *actual* child
/// statistics are still built with the numerically robust online update in
/// `ParticleTree::grow`; this function only ranks proposals, where the
/// (tiny, `Σy²`-cancellation-sized) difference from the Welford route is
/// statistically irrelevant.
pub fn log_marginal_likelihood_of_sums(
    count: usize,
    sum: f64,
    sum_sq: f64,
    prior: &LeafPrior,
    table: &LnGammaTable,
) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let n = count as f64;
    let mean = sum / n;
    let sum_sq_dev = (sum_sq - sum * mean).max(0.0);
    let kappa_n = prior.kappa + n;
    let shape_n = prior.shape + 0.5 * n;
    let scale_n = prior.scale
        + 0.5 * sum_sq_dev
        + 0.5 * prior.kappa * n * (mean - prior.mean) * (mean - prior.mean) / kappa_n;
    table.ln_gamma_shape(count) - table.ln_gamma_shape(0) + table.shape_ln_scale
        - shape_n * scale_n.ln()
        + 0.5 * (table.ln_kappa(0) - table.ln_kappa(count))
        - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prior() -> LeafPrior {
        LeafPrior::weakly_informative(1.0, 0.25)
    }

    #[test]
    fn empty_leaf_predicts_the_prior() {
        let leaf = LeafStats::new();
        let (mean, var) = leaf.predictive_mean_variance(&prior());
        assert!((mean - 1.0).abs() < 1e-12);
        assert!(var > 0.0);
        assert_eq!(leaf.log_marginal_likelihood(&prior()), 0.0);
    }

    #[test]
    fn predictive_mean_approaches_sample_mean_with_data() {
        let targets: Vec<f64> = (0..50).map(|i| 3.0 + 0.01 * (i % 5) as f64).collect();
        let leaf = LeafStats::from_targets(&targets);
        let (mean, _) = leaf.predictive_mean_variance(&prior());
        assert!(
            (mean - leaf.mean()).abs() < 0.02,
            "mean {mean} vs {}",
            leaf.mean()
        );
    }

    #[test]
    fn predictive_variance_shrinks_with_more_data() {
        let few = LeafStats::from_targets(&[2.0, 2.1, 1.9]);
        let many = LeafStats::from_targets(
            &(0..60)
                .map(|i| 2.0 + 0.1 * ((i % 3) as f64 - 1.0))
                .collect::<Vec<_>>(),
        );
        let (_, var_few) = few.predictive_mean_variance(&prior());
        let (_, var_many) = many.predictive_mean_variance(&prior());
        assert!(var_many < var_few);
    }

    #[test]
    fn noisier_targets_have_larger_predictive_variance() {
        let quiet = LeafStats::from_targets(&[1.0, 1.01, 0.99, 1.0, 1.02, 0.98]);
        let noisy = LeafStats::from_targets(&[0.2, 1.8, 0.5, 1.5, 0.1, 1.9]);
        let (_, var_quiet) = quiet.predictive_mean_variance(&prior());
        let (_, var_noisy) = noisy.predictive_mean_variance(&prior());
        assert!(var_noisy > var_quiet);
    }

    #[test]
    fn marginal_likelihood_prefers_homogeneous_leaves() {
        // Same number of points; tight cluster should have higher marginal
        // likelihood than widely spread targets.
        let tight = LeafStats::from_targets(&[1.0, 1.02, 0.98, 1.01, 0.99]);
        let spread = LeafStats::from_targets(&[0.0, 2.0, -1.0, 3.0, 1.0]);
        assert!(tight.log_marginal_likelihood(&prior()) > spread.log_marginal_likelihood(&prior()));
    }

    #[test]
    fn predictive_density_peaks_at_the_leaf_mean() {
        let leaf = LeafStats::from_targets(&[2.0, 2.05, 1.95, 2.02, 1.98]);
        let at_mean = leaf.log_predictive_density(&prior(), 2.0);
        let far = leaf.log_predictive_density(&prior(), 5.0);
        assert!(at_mean > far);
    }

    #[test]
    fn merge_equals_fitting_on_concatenated_targets() {
        let a_targets = [1.0, 1.2, 0.8];
        let b_targets = [2.0, 2.2, 1.8, 2.1];
        let mut a = LeafStats::from_targets(&a_targets);
        let b = LeafStats::from_targets(&b_targets);
        a.merge(&b);
        let all: Vec<f64> = a_targets.iter().chain(b_targets.iter()).copied().collect();
        let combined = LeafStats::from_targets(&all);
        assert_eq!(a.count(), combined.count());
        assert!((a.mean() - combined.mean()).abs() < 1e-12);
        let (ma, va) = a.predictive_mean_variance(&prior());
        let (mc, vc) = combined.predictive_mean_variance(&prior());
        assert!((ma - mc).abs() < 1e-10);
        assert!((va - vc).abs() < 1e-10);
    }

    #[test]
    fn log_marginal_likelihood_is_consistent_with_sequential_predictives() {
        // Chain rule: LML(y1..yn) = Σ log p(y_i | y_1..y_{i-1}).
        let targets = [0.5, 0.7, 0.4, 0.6, 0.55];
        let p = prior();
        let mut sequential = 0.0;
        let mut leaf = LeafStats::new();
        for &y in &targets {
            sequential += leaf.log_predictive_density(&p, y);
            leaf.push(y);
        }
        let direct = leaf.log_marginal_likelihood(&p);
        assert!(
            (sequential - direct).abs() < 1e-8,
            "chain rule {sequential} vs direct {direct}"
        );
    }

    #[test]
    fn table_lml_is_bit_identical_to_direct_lml() {
        let p = prior();
        let mut table = LnGammaTable::new(&p);
        table.ensure(64);
        for n in [0usize, 1, 2, 5, 17, 64] {
            let targets: Vec<f64> = (0..n).map(|i| 1.0 + 0.3 * ((i % 7) as f64 - 3.0)).collect();
            let leaf = LeafStats::from_targets(&targets);
            assert_eq!(
                leaf.log_marginal_likelihood(&p),
                leaf.log_marginal_likelihood_with(&p, &table),
                "count {n}"
            );
        }
    }

    #[test]
    fn moments_agree_with_the_direct_computations() {
        let p = prior();
        let mut table = LnGammaTable::new(&p);
        table.ensure(40);
        let leaf = LeafStats::from_targets(
            &(0..40)
                .map(|i| 2.0 + 0.2 * ((i % 5) as f64 - 2.0))
                .collect::<Vec<_>>(),
        );
        let m = leaf.moments(&p, &table);
        let (mean, variance) = leaf.predictive_mean_variance(&p);
        assert_eq!(m.mean, mean);
        assert_eq!(m.variance, variance);
        assert_eq!(m.lml, leaf.log_marginal_likelihood(&p));
        assert_eq!(m.n_eff, 40.0 + p.kappa);
        for y in [1.5, 2.0, 2.7] {
            let direct = leaf.log_predictive_density(&p, y);
            let cached = m.log_density(y);
            assert!(
                (direct - cached).abs() < 1e-12,
                "density at {y}: direct {direct} vs cached {cached}"
            );
        }
    }

    #[test]
    fn lml_of_sums_matches_the_welford_route() {
        let p = prior();
        let mut table = LnGammaTable::new(&p);
        table.ensure(32);
        for n in [1usize, 2, 7, 32] {
            let targets: Vec<f64> = (0..n).map(|i| 1.3 + 0.4 * ((i % 6) as f64 - 2.5)).collect();
            let leaf = LeafStats::from_targets(&targets);
            let sum: f64 = targets.iter().sum();
            let sum_sq: f64 = targets.iter().map(|y| y * y).sum();
            let direct = leaf.log_marginal_likelihood(&p);
            let from_sums = log_marginal_likelihood_of_sums(n, sum, sum_sq, &p, &table);
            assert!(
                (direct - from_sums).abs() < 1e-9,
                "count {n}: welford {direct} vs sums {from_sums}"
            );
        }
        assert_eq!(
            log_marginal_likelihood_of_sums(0, 0.0, 0.0, &p, &table),
            0.0
        );
    }

    #[test]
    fn table_extends_lazily_and_reports_coverage() {
        let p = prior();
        let mut table = LnGammaTable::new(&p);
        assert_eq!(table.base.len(), 1);
        table.ensure(10);
        assert_eq!(table.base.len(), 11);
        table.ensure(3); // never shrinks
        assert_eq!(table.base.len(), 11);
        assert_eq!(table.ln_gamma_shape(0), ln_gamma(p.shape));
        assert_eq!(table.ln_gamma_shape(4), ln_gamma(p.shape + 2.0));
    }

    #[test]
    fn weakly_informative_prior_matches_requested_variance() {
        let p = LeafPrior::weakly_informative(0.0, 4.0);
        // E[σ²] = b/(a-1) = 4.
        assert!((p.scale / (p.shape - 1.0) - 4.0).abs() < 1e-12);
    }
}
