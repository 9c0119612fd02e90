//! Gaussian-process regression with incremental `O(n²)` updates.
//!
//! The paper notes (§3.2) that the "collective wisdom" choice for regression
//! with uncertainty is a Gaussian Process, but that its `O(n³)` inference is
//! too slow for an active-learning loop that refits after every observation.
//! This implementation exists (a) as a quality reference for the dynamic
//! tree, (b) to let the benchmark suite quantify exactly that cost gap, and
//! (c) as an alternative surrogate for small problems.
//!
//! The kernel is a squared-exponential (RBF) with a constant mean function
//! and a noise nugget; hyper-parameters are set by simple data-driven
//! heuristics (median-distance lengthscale) rather than marginal-likelihood
//! optimization, which is sufficient for the workloads in this workspace.
//!
//! # Incremental updates
//!
//! Naively, every [`update`](SurrogateModel::update) rebuilds the kernel
//! matrix and refactorizes it — the `O(n³)`-per-iteration cost the paper
//! complains about. This implementation instead keeps the Cholesky factor
//! **alive across updates**:
//!
//! * hyper-parameters (lengthscale, signal variance) are data-scale
//!   heuristics, not functions of `n`, so they are computed **once at fit
//!   time** and frozen — the kernel of old training pairs never changes;
//! * the train-side kernel rows are cached in packed lower-triangular form,
//!   so kernel values are computed exactly once per training pair;
//! * each update appends one kernel row to the cache and extends the live
//!   factor with a rank-1 [`Cholesky::append_row`] — `O(n²)`, and
//!   bit-identical to a cold factorization of the grown matrix;
//! * the constant mean and the weight vector `α = K⁻¹ (y − μ)` are
//!   recomputed from the live factor (`O(n²)` triangular solves);
//! * if the Schur complement of the appended row goes non-positive (the
//!   bordered matrix is numerically indefinite), the model falls back to a
//!   full refactorization from the kernel-row cache with **escalating
//!   diagonal jitter** until the factorization succeeds.
//!
//! The net effect: an update is `O(n²)` on the common path, and a model
//! grown by `fit(k)` + `m × update` is numerically identical to one cold
//! fitted on all `k + m` points with the same hyper-parameters (the root
//! test suite property-tests this to 1e-8).
//!
//! Prediction is batched: [`predict_batch`](SurrogateModel::predict_batch)
//! evaluates kernel vectors for blocks of query rows and pushes the whole
//! block through one blocked triangular solve
//! ([`Cholesky::forward_substitute_batch`]), instead of re-walking the
//! factor per query point. Blocks are scored in parallel with by-index
//! write-back, so results are bit-identical regardless of thread count.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use alic_stats::cholesky::Cholesky;
use alic_stats::matrix::squared_distance;
use alic_stats::FeatureMatrix;

use alic_data::io::{self, JsonValue};

use crate::snapshot::{self, Snapshot};
use crate::traits::{ActiveSurrogate, Prediction, SurrogateModel};
use crate::{validate_training_set, ModelError, Result};

/// Query rows per parallel prediction block. Each row's arithmetic is
/// independent, so the block size affects scheduling granularity only,
/// never results.
const PREDICT_BLOCK: usize = 64;

/// Factor-ladder escalation: jitter grows by 10× per attempt, at most this
/// many times, before the factorization is declared failed.
const MAX_JITTER_ATTEMPTS: u32 = 8;

/// Hyper-parameters of the squared-exponential Gaussian process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpConfig {
    /// Kernel lengthscale. `None` selects the median pairwise distance of the
    /// training inputs at fit time.
    pub lengthscale: Option<f64>,
    /// Signal variance (vertical scale). `None` selects the training-target
    /// variance at fit time.
    pub signal_variance: Option<f64>,
    /// Observation-noise variance added to the kernel diagonal.
    pub noise_variance: f64,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            lengthscale: None,
            signal_variance: None,
            noise_variance: 1e-4,
        }
    }
}

/// Squared-exponential Gaussian-process regressor with `O(n²)` incremental
/// updates.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    config: GpConfig,
    /// Training inputs in flat row-major storage.
    xs: FeatureMatrix,
    ys: Vec<f64>,
    mean: f64,
    lengthscale: f64,
    signal_variance: f64,
    /// Jitter added to the kernel diagonal of the current factorization
    /// (base value, possibly escalated by the fallback ladder).
    jitter: f64,
    /// Cached train-side kernel rows, packed lower-triangular, **without**
    /// jitter. Hyper-parameters are frozen at fit time, so these values
    /// never need recomputing; the fallback refactorization reads them back
    /// instead of re-evaluating `n²/2` kernels.
    kernel_rows: Vec<f64>,
    chol: Option<Cholesky>,
    alpha: Vec<f64>,
    dimension: Option<usize>,
    /// Number of full factorizations performed (fit + fallbacks). The
    /// common-path `O(n²)` guarantee is observable: a run of updates that
    /// never trips the jitter ladder leaves this at 1.
    refactorizations: usize,
}

impl GaussianProcess {
    /// Creates an unfitted Gaussian process with the given configuration.
    pub fn new(config: GpConfig) -> Self {
        GaussianProcess {
            config,
            xs: FeatureMatrix::new(1),
            ys: Vec::new(),
            mean: 0.0,
            lengthscale: 1.0,
            signal_variance: 1.0,
            jitter: 0.0,
            kernel_rows: Vec::new(),
            chol: None,
            alpha: Vec::new(),
            dimension: None,
            refactorizations: 0,
        }
    }

    /// Creates an unfitted Gaussian process with default configuration.
    pub fn with_defaults() -> Self {
        GaussianProcess::new(GpConfig::default())
    }

    /// The lengthscale actually in use after fitting.
    pub fn lengthscale(&self) -> f64 {
        self.lengthscale
    }

    /// The signal variance actually in use after fitting.
    pub fn signal_variance(&self) -> f64 {
        self.signal_variance
    }

    /// Diagonal jitter of the current factorization. Exceeds the base value
    /// (`noise_variance` plus a relative nugget) only when the fallback
    /// ladder had to escalate.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Number of full kernel-matrix factorizations performed so far: one for
    /// [`fit`](SurrogateModel::fit) plus one per jitter-ladder fallback. A
    /// sequence of updates that stays on the `O(n²)` rank-1 path leaves this
    /// count unchanged.
    pub fn refactorizations(&self) -> usize {
        self.refactorizations
    }

    /// Rebuilds a process from a [`SurrogateModel::snapshot`] document; the
    /// packed Cholesky factor is restored verbatim (never re-factorized), so
    /// the restored model predicts bit-identically.
    pub(crate) fn from_snapshot(doc: &JsonValue) -> Result<Self> {
        let config = GpConfig {
            lengthscale: io::nullable(doc, "config_lengthscale", io::field_hex_f64)?,
            signal_variance: io::nullable(doc, "config_signal_variance", io::field_hex_f64)?,
            noise_variance: io::field_hex_f64(doc, "config_noise_variance")?,
        };
        let xs = snapshot::get_rows(doc, "xs")?;
        let ys = io::field_hex_f64s(doc, "ys")?;
        let chol = io::nullable(doc, "chol", io::field_hex_f64s)?
            .map(|data| Cholesky::from_packed_factor(ys.len(), data))
            .transpose()
            .map_err(|e| snapshot::err(format!("field chol: {e}")))?;
        let dimension = io::nullable(doc, "dimension", io::field_usize)?;
        Ok(GaussianProcess {
            config,
            xs,
            ys,
            mean: io::field_hex_f64(doc, "mean")?,
            lengthscale: io::field_hex_f64(doc, "lengthscale")?,
            signal_variance: io::field_hex_f64(doc, "signal_variance")?,
            jitter: io::field_hex_f64(doc, "jitter")?,
            kernel_rows: io::field_hex_f64s(doc, "kernel_rows")?,
            chol,
            alpha: io::field_hex_f64s(doc, "alpha")?,
            dimension,
            refactorizations: io::field_usize(doc, "refactorizations")?,
        })
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        let d2 = squared_distance(a, b).expect("dimension already validated");
        self.signal_variance * (-0.5 * d2 / (self.lengthscale * self.lengthscale)).exp()
    }

    fn base_jitter(&self) -> f64 {
        self.config.noise_variance.max(1e-10) + 1e-8 * self.signal_variance
    }

    /// Full factorization from the kernel-row cache, escalating the diagonal
    /// jitter by 10× per failed attempt. Deterministic in the cached rows,
    /// which makes an update-triggered fallback land on exactly the
    /// factorization a cold fit of the same data would produce.
    fn refactorize(&mut self) -> Result<()> {
        // Chaos site: simulate the *complete* exhaustion of the jitter
        // ladder. Injecting per-rung instead would change which jitter the
        // surviving factorization uses — and therefore the numbers — so the
        // fault models only the terminal outcome.
        if alic_stats::fault::inject(alic_stats::fault::FaultSite::JitterExhaustion) {
            return Err(ModelError::Numerical(format!(
                "chaos: injected jitter-ladder exhaustion after {MAX_JITTER_ATTEMPTS} escalations"
            )));
        }
        let n = self.ys.len();
        self.refactorizations += 1;
        let mut jitter = self.base_jitter();
        for _ in 0..MAX_JITTER_ATTEMPTS {
            let mut packed = self.kernel_rows.clone();
            for i in 0..n {
                packed[i * (i + 1) / 2 + i] += jitter;
            }
            match Cholesky::decompose_packed(n, packed) {
                Ok(chol) => {
                    self.chol = Some(chol);
                    self.jitter = jitter;
                    return Ok(());
                }
                Err(_) => jitter *= 10.0,
            }
        }
        Err(ModelError::Numerical(format!(
            "kernel matrix not positive definite after {MAX_JITTER_ATTEMPTS} jitter escalations"
        )))
    }

    /// Recomputes the constant mean and `α = K⁻¹ (y − μ)` from the live
    /// factor — `O(n)` for the mean, `O(n²)` for the two triangular solves.
    fn resolve_weights(&mut self) -> Result<()> {
        let n = self.ys.len();
        self.mean = self.ys.iter().sum::<f64>() / n as f64;
        let centred: Vec<f64> = self.ys.iter().map(|y| y - self.mean).collect();
        self.alpha = self
            .chol
            .as_ref()
            .expect("factorization exists when weights are resolved")
            .solve(&centred)
            .map_err(|e| ModelError::Numerical(e.to_string()))?;
        Ok(())
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

    /// Predicts a block of query rows: kernel vectors for the whole block,
    /// means against `α`, then one blocked triangular solve for the
    /// variances. `predict` routes through this with a block of one, so
    /// single-point and batched predictions are bit-identical.
    fn predict_block(&self, inputs: &[&[f64]], chol: &Cholesky) -> Vec<Prediction> {
        let n = self.ys.len();
        let mut k_star = vec![0.0; inputs.len() * n];
        let mut means = Vec::with_capacity(inputs.len());
        for (row, x) in k_star.chunks_exact_mut(n).zip(inputs) {
            for (k, xi) in row.iter_mut().zip(self.xs.rows()) {
                *k = self.kernel(xi, x);
            }
            let weighted: f64 = row.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
            means.push(self.mean + weighted);
        }
        chol.forward_substitute_batch(&mut k_star, inputs.len())
            .expect("block shape matches the factorization by construction");
        k_star
            .chunks_exact(n)
            .zip(means)
            .map(|(v, mean)| {
                let explained: f64 = v.iter().map(|vi| vi * vi).sum();
                let variance =
                    (self.signal_variance + self.config.noise_variance - explained).max(0.0);
                Prediction::new(mean, variance)
            })
            .collect()
    }
}

/// Median pairwise distance over sub-sampled row pairs — the lengthscale
/// heuristic. A property of the data's scale, not of `n`: it is computed
/// once at fit time and reused unchanged by every incremental update. The
/// sparse variant ([`crate::sgp`]) shares it so both families resolve the
/// same hyper-parameters from the same data.
pub(crate) fn median_pairwise_distance(xs: &FeatureMatrix) -> f64 {
    let n = xs.len();
    let mut distances = Vec::new();
    // Sub-sample pairs for large training sets to keep this O(n) in practice.
    let stride = (n / 64).max(1);
    for i in (0..n).step_by(stride) {
        for j in ((i + 1)..n).step_by(stride) {
            let d2 = squared_distance(xs.row(i), xs.row(j)).expect("consistent dimensions");
            if d2 > 0.0 {
                distances.push(d2.sqrt());
            }
        }
    }
    if distances.is_empty() {
        return 1.0;
    }
    distances.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    distances[distances.len() / 2]
}

impl SurrogateModel for GaussianProcess {
    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<()> {
        let dim = validate_training_set(xs, ys)?;
        self.dimension = Some(dim);
        self.xs = FeatureMatrix::with_capacity(dim, xs.len());
        for x in xs {
            self.xs.push_row(x);
        }
        self.ys = ys.to_vec();
        let n = ys.len();

        // Hyper-parameters: data-scale heuristics, computed once and frozen.
        let mean = ys.iter().sum::<f64>() / n as f64;
        self.lengthscale = match self.config.lengthscale {
            Some(lengthscale) => lengthscale,
            None => median_pairwise_distance(&self.xs).max(1e-6),
        };
        self.signal_variance = match self.config.signal_variance {
            Some(signal_variance) => signal_variance,
            None => {
                let var = ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / n as f64;
                var.max(1e-10)
            }
        };

        // Train-side kernel rows, packed lower-triangular, evaluated exactly
        // once per pair.
        self.kernel_rows.clear();
        self.kernel_rows.reserve(n * (n + 1) / 2);
        for i in 0..n {
            let xi = self.xs.row(i);
            for j in 0..=i {
                self.kernel_rows.push(self.kernel(xi, self.xs.row(j)));
            }
        }

        self.refactorizations = 0;
        // Invalidate the factor of any previous fit first: if the ladder
        // fails, the model must read as unfitted instead of pairing the new
        // training data with a stale factorization.
        self.chol = None;
        self.refactorize().map_err(|e| {
            ModelError::Numerical(format!("kernel matrix decomposition failed: {e}"))
        })?;
        self.resolve_weights()
    }

    fn update(&mut self, x: &[f64], y: f64) -> Result<()> {
        self.check_dimension(x)?;
        crate::validate_observation(x, y)?;
        if self.chol.is_none() {
            return Err(ModelError::NotFitted);
        }
        let n = self.ys.len();
        // Extend the kernel-row cache with the new row (no jitter stored).
        for i in 0..n {
            self.kernel_rows.push(self.kernel(x, self.xs.row(i)));
        }
        self.kernel_rows.push(self.signal_variance);
        self.xs.push_row(x);
        self.ys.push(y);

        // The O(n²) common path: rank-1 extension of the live factor. The
        // appended diagonal carries the jitter of the current factorization,
        // so the grown factor matches a cold factorization bit for bit.
        let appended = {
            let chol = self.chol.as_mut().expect("presence checked above");
            let start = self.kernel_rows.len() - (n + 1);
            let mut row = self.kernel_rows[start..].to_vec();
            row[n] += self.jitter;
            chol.append_row(&row).is_ok()
        };
        if !appended {
            // The Schur complement went non-positive: fall back to a full
            // refactorization with the escalating jitter ladder. Should even
            // the ladder fail, roll the observation back so the model stays
            // consistent (the untouched factor still matches n points).
            if let Err(e) = self.refactorize() {
                self.kernel_rows.truncate(n * (n + 1) / 2);
                self.xs.truncate(n);
                self.ys.truncate(n);
                return Err(e);
            }
        }
        self.resolve_weights()
    }

    fn predict(&self, x: &[f64]) -> Result<Prediction> {
        self.check_dimension(x)?;
        let chol = self.chol.as_ref().ok_or(ModelError::NotFitted)?;
        Ok(self.predict_block(&[x], chol)[0])
    }

    fn predict_batch(&self, inputs: &[&[f64]]) -> Result<Vec<Prediction>> {
        for x in inputs {
            self.check_dimension(x)?;
        }
        let chol = self.chol.as_ref().ok_or(ModelError::NotFitted)?;
        // Blocks are independent and internally ordered, so parallel
        // evaluation with in-order collection is bit-deterministic.
        let blocks: Vec<&[&[f64]]> = inputs.chunks(PREDICT_BLOCK).collect();
        let scored: Vec<Vec<Prediction>> = blocks
            .into_par_iter()
            .map(|block| self.predict_block(block, chol))
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
        let mut fields = snapshot::header("gp");
        fields.extend([
            (
                "config_lengthscale",
                self.config.lengthscale.map_or(JsonValue::Null, io::hex_f64),
            ),
            (
                "config_signal_variance",
                self.config
                    .signal_variance
                    .map_or(JsonValue::Null, io::hex_f64),
            ),
            (
                "config_noise_variance",
                io::hex_f64(self.config.noise_variance),
            ),
            ("xs_dim", io::int(self.xs.dim() as u64)?),
            ("xs", io::hex_f64s(self.xs.rows().flatten().copied())),
            ("ys", io::hex_f64s(self.ys.iter().copied())),
            ("mean", io::hex_f64(self.mean)),
            ("lengthscale", io::hex_f64(self.lengthscale)),
            ("signal_variance", io::hex_f64(self.signal_variance)),
            ("jitter", io::hex_f64(self.jitter)),
            (
                "kernel_rows",
                io::hex_f64s(self.kernel_rows.iter().copied()),
            ),
            (
                "chol",
                match &self.chol {
                    None => JsonValue::Null,
                    Some(chol) => io::hex_f64s(chol.packed().iter().copied()),
                },
            ),
            ("alpha", io::hex_f64s(self.alpha.iter().copied())),
            (
                "dimension",
                match self.dimension {
                    None => JsonValue::Null,
                    Some(d) => io::int(d as u64)?,
                },
            ),
            ("refactorizations", io::int(self.refactorizations as u64)?),
        ]);
        Ok(io::object(fields))
    }
}

impl ActiveSurrogate for GaussianProcess {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_views;

    fn sine_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin()).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points_closely() {
        let (xs, ys) = sine_data(25);
        let mut gp = GaussianProcess::with_defaults();
        gp.fit(&row_views(&xs), &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x).unwrap();
            assert!((p.mean - y).abs() < 0.05, "at {x:?}: {} vs {y}", p.mean);
        }
    }

    #[test]
    fn predicts_between_training_points() {
        let (xs, ys) = sine_data(30);
        let mut gp = GaussianProcess::with_defaults();
        gp.fit(&row_views(&xs), &ys).unwrap();
        let p = gp.predict(&[0.5]).unwrap();
        assert!((p.mean - (1.5f64).sin()).abs() < 0.05);
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (xs, ys) = sine_data(15);
        let mut gp = GaussianProcess::new(GpConfig {
            lengthscale: Some(0.1),
            ..Default::default()
        });
        gp.fit(&row_views(&xs), &ys).unwrap();
        let near = gp.predict(&[0.5]).unwrap().variance;
        let far = gp.predict(&[3.0]).unwrap().variance;
        assert!(far > near);
        assert!((far - (gp.signal_variance + gp.config.noise_variance)).abs() < 1e-6);
    }

    #[test]
    fn update_refits_and_improves_locally() {
        let (xs, ys) = sine_data(10);
        let mut gp = GaussianProcess::with_defaults();
        gp.fit(&row_views(&xs), &ys).unwrap();
        let target = 2.0; // deliberately off the sine curve
        for _ in 0..5 {
            gp.update(&[2.0], target).unwrap();
        }
        let p = gp.predict(&[2.0]).unwrap();
        assert!((p.mean - target).abs() < 0.2);
        assert_eq!(gp.observation_count(), 15);
    }

    #[test]
    fn updates_stay_on_the_rank1_path() {
        // Well-spread data must never trip the fallback: exactly one full
        // factorization (the fit), all 50 updates via rank-1 appends.
        let (xs, ys) = sine_data(20);
        let mut gp = GaussianProcess::with_defaults();
        gp.fit(&row_views(&xs), &ys).unwrap();
        assert_eq!(gp.refactorizations(), 1);
        for i in 0..50 {
            let x = 1.1 + i as f64 * 0.013;
            gp.update(&[x], (3.0 * x).sin()).unwrap();
        }
        assert_eq!(
            gp.refactorizations(),
            1,
            "incremental updates must not refactorize"
        );
        assert_eq!(gp.observation_count(), 70);
    }

    #[test]
    fn incremental_updates_match_cold_refit_exactly() {
        let (xs, ys) = sine_data(30);
        let mut incremental = GaussianProcess::with_defaults();
        incremental.fit(&row_views(&xs[..20]), &ys[..20]).unwrap();
        for (x, &y) in xs[20..].iter().zip(&ys[20..]) {
            incremental.update(x, y).unwrap();
        }
        // Cold model with the incremental model's frozen hyper-parameters.
        let mut cold = GaussianProcess::new(GpConfig {
            lengthscale: Some(incremental.lengthscale()),
            signal_variance: Some(incremental.signal_variance()),
            noise_variance: incremental.config.noise_variance,
        });
        cold.fit(&row_views(&xs), &ys).unwrap();
        for q in [0.03, 0.4, 0.77, 1.4] {
            let a = incremental.predict(&[q]).unwrap();
            let b = cold.predict(&[q]).unwrap();
            assert_eq!(a, b, "at {q}: incremental {a:?} vs cold {b:?}");
        }
    }

    #[test]
    fn fallback_ladder_recovers_from_an_indefinite_append() {
        let (xs, ys) = sine_data(12);
        let mut gp = GaussianProcess::with_defaults();
        gp.fit(&row_views(&xs), &ys).unwrap();
        // Force the rank-1 append to fail deterministically: a negative
        // jitter on the appended diagonal drives the Schur complement of a
        // duplicated training point below zero, simulating the numerically
        // indefinite case the fallback exists for.
        gp.jitter = -gp.signal_variance();
        let duplicate = xs[4].clone();
        gp.update(&duplicate, ys[4]).unwrap();
        assert_eq!(
            gp.refactorizations(),
            2,
            "the failed append must trigger exactly one fallback refactorization"
        );
        assert!(gp.jitter() >= gp.base_jitter());
        let p = gp.predict(&duplicate).unwrap();
        assert!((p.mean - ys[4]).abs() < 0.05);
    }

    #[test]
    fn errors_before_fit_and_on_bad_input() {
        let gp = GaussianProcess::with_defaults();
        assert_eq!(gp.predict(&[0.0]).unwrap_err(), ModelError::NotFitted);
        let (xs, ys) = sine_data(5);
        let mut gp = GaussianProcess::with_defaults();
        gp.fit(&row_views(&xs), &ys).unwrap();
        assert!(matches!(
            gp.predict(&[0.0, 1.0]),
            Err(ModelError::DimensionMismatch { .. })
        ));
        assert_eq!(
            gp.update(&[0.1], f64::INFINITY).unwrap_err(),
            ModelError::NonFiniteInput
        );
    }

    #[test]
    fn duplicate_inputs_do_not_break_the_decomposition() {
        let xs = vec![vec![0.5]; 12];
        let ys = vec![1.0; 12];
        let mut gp = GaussianProcess::with_defaults();
        gp.fit(&row_views(&xs), &ys).unwrap();
        let p = gp.predict(&[0.5]).unwrap();
        assert!((p.mean - 1.0).abs() < 1e-3);
    }

    #[test]
    fn alm_score_equals_predictive_variance() {
        let (xs, ys) = sine_data(12);
        let mut gp = GaussianProcess::with_defaults();
        gp.fit(&row_views(&xs), &ys).unwrap();
        let p = gp.predict(&[0.3]).unwrap();
        assert_eq!(gp.alm_score(&[0.3]).unwrap(), p.variance);
    }

    #[test]
    fn predict_batch_is_bit_identical_to_predict() {
        let (xs, ys) = sine_data(40);
        let mut gp = GaussianProcess::with_defaults();
        gp.fit(&row_views(&xs), &ys).unwrap();
        let queries: Vec<Vec<f64>> = (0..150).map(|i| vec![i as f64 / 149.0]).collect();
        let views = row_views(&queries);
        let batch = gp.predict_batch(&views).unwrap();
        for (x, p) in views.iter().zip(&batch) {
            assert_eq!(*p, gp.predict(x).unwrap());
        }
    }

    #[test]
    fn fixed_hyperparameters_are_respected() {
        let (xs, ys) = sine_data(10);
        let mut gp = GaussianProcess::new(GpConfig {
            lengthscale: Some(0.42),
            signal_variance: Some(2.0),
            noise_variance: 1e-3,
        });
        gp.fit(&row_views(&xs), &ys).unwrap();
        assert_eq!(gp.lengthscale(), 0.42);
        assert_eq!(gp.signal_variance(), 2.0);
    }
}
