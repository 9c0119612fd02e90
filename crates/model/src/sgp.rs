//! Low-rank sparse Gaussian process for very large candidate pools.
//!
//! The dense [`GaussianProcess`](crate::gp::GaussianProcess) pays `O(n³)`
//! per fit and `O(n²)` per update/predict — the exact cost the paper rejects
//! for an active-learning loop (§3.2), and the reason the benchmark suite
//! caps its dense workloads around a thousand points. This module implements
//! the standard inducing-point (DTC / projected-process) approximation so a
//! GP-family surrogate stays usable on 50k–100k-point pools:
//!
//! * **`O(n·m²)` fit, `O(m²)` update, `O(m²)` predict** for `m` inducing
//!   points (`m ≪ n`, default 128), with `O(m²)` state — the training set
//!   itself is not retained after fitting;
//! * the same squared-exponential kernel, data-driven hyper-parameter
//!   heuristics, and determinism contract as the dense GP;
//! * **exactness at `m = n`**: with the inducing set equal to the training
//!   set, DTC's predictive mean *and* variance reduce algebraically to the
//!   dense GP posterior (push-through identity), which the root test suite
//!   checks numerically.
//!
//! # Formulation
//!
//! Fix `m` inducing inputs `Z` (an evenly-strided subset of the training
//! inputs, frozen at fit time) and let `Lm Lmᵀ = K_ZZ + εI`. Working in the
//! *whitened feature* `ψ(x) = Lm⁻¹ k_Z(x)` (so the prior feature covariance
//! is the identity), the DTC posterior over feature weights has precision
//! `P = I + σ⁻² Σᵢ ψ(xᵢ) ψ(xᵢ)ᵀ` and mean `ŵ = P⁻¹ σ⁻² Σᵢ ψ(xᵢ)(yᵢ − μ)`:
//!
//! * **fit** accumulates `ΨᵀΨ`, `u = Σ ψᵢ yᵢ` and `s = Σ ψᵢ` in one parallel
//!   pass over the training rows (blocks reduced in fixed order, so results
//!   are bit-identical for any thread count) and factorizes `P` once —
//!   `O(n·m²)` total;
//! * **update** is a rank-1 Cholesky update of `P`'s factor
//!   ([`Cholesky::rank_one_update`] with `σ⁻¹ψ`; a rank-1 *addition*, so the
//!   factor stays positive definite by construction — no jitter ladder on
//!   the update path) plus `O(m)` vector bookkeeping — `O(m²)`, independent
//!   of how many observations came before;
//! * **predict** is `mean = μ + ψ*ᵀŵ` and
//!   `var = k** − ‖ψ*‖² + ‖Lp⁻¹ψ*‖² + σ²` — the prior minus what the
//!   inducing set explains, plus back what the finite data cannot pin down.
//!   Since `P ⪰ I`, the correction never exceeds `‖ψ*‖²`, so the variance
//!   is bounded by the prior `k** + σ²` and non-negative up to rounding.
//!
//! Batched prediction pushes whole query blocks through
//! [`Cholesky::forward_substitute_batch`] twice (once against `Lm` for the
//! features, once against `Lp` for the variance correction) and scores
//! blocks in parallel with by-index write-back — bit-identical to the
//! single-point path regardless of thread count, like every other model in
//! this crate.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use alic_stats::cholesky::Cholesky;
use alic_stats::matrix::squared_distance;
use alic_stats::FeatureMatrix;

use alic_data::io::{self, JsonValue};

use crate::gp::median_pairwise_distance;
use crate::snapshot::{self, Snapshot};
use crate::traits::{ActiveSurrogate, Prediction, SurrogateModel};
use crate::{validate_training_set, ModelError, Result};

/// Query rows per parallel prediction block (scheduling granularity only;
/// results are block-size-independent).
const PREDICT_BLOCK: usize = 64;

/// Training rows per parallel fit block. Blocks are reduced serially in
/// block order, so the accumulated sums are bit-identical for any thread
/// count and any block count.
const FIT_BLOCK: usize = 256;

/// Inducing-kernel jitter ladder: 10× escalation, at most this many
/// attempts.
const MAX_JITTER_ATTEMPTS: u32 = 8;

/// Hyper-parameters of the sparse (inducing-point) Gaussian process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SparseGpConfig {
    /// Number of inducing points `m` (clamped to the training-set size at
    /// fit time). Fit cost grows as `O(n·m²)`, update and predict as
    /// `O(m²)`.
    pub inducing: usize,
    /// Kernel lengthscale. `None` selects the median pairwise distance of
    /// the training inputs at fit time (the dense GP's heuristic).
    pub lengthscale: Option<f64>,
    /// Signal variance (vertical scale). `None` selects the training-target
    /// variance at fit time.
    pub signal_variance: Option<f64>,
    /// Observation-noise variance `σ²`.
    pub noise_variance: f64,
}

impl Default for SparseGpConfig {
    fn default() -> Self {
        SparseGpConfig {
            inducing: 128,
            lengthscale: None,
            signal_variance: None,
            noise_variance: 1e-4,
        }
    }
}

/// Inducing-point sparse Gaussian process: `O(n·m²)` fit, `O(m²)` update
/// and predict, `O(m²)` state.
#[derive(Debug, Clone)]
pub struct SparseGaussianProcess {
    config: SparseGpConfig,
    /// The `m` inducing inputs, frozen at fit time.
    inducing: FeatureMatrix,
    /// Factor of `K_ZZ + εI` (the feature whitener).
    lm: Option<Cholesky>,
    /// Factor of the weight precision `P = I + σ⁻² ΨᵀΨ`.
    lp: Option<Cholesky>,
    /// `u = Σ ψ(xᵢ) yᵢ`.
    u: Vec<f64>,
    /// `s = Σ ψ(xᵢ)`.
    s: Vec<f64>,
    /// Posterior feature weights `ŵ = P⁻¹ σ⁻² (u − μ s)`.
    weights: Vec<f64>,
    mean: f64,
    y_sum: f64,
    count: usize,
    lengthscale: f64,
    signal_variance: f64,
    /// Jitter on the inducing kernel's diagonal (base value, possibly
    /// escalated by the fit-time ladder).
    kmm_jitter: f64,
    dimension: Option<usize>,
}

impl SparseGaussianProcess {
    /// Creates an unfitted sparse Gaussian process with the given
    /// configuration.
    pub fn new(config: SparseGpConfig) -> Self {
        SparseGaussianProcess {
            config,
            inducing: FeatureMatrix::new(1),
            lm: None,
            lp: None,
            u: Vec::new(),
            s: Vec::new(),
            weights: Vec::new(),
            mean: 0.0,
            y_sum: 0.0,
            count: 0,
            lengthscale: 1.0,
            signal_variance: 1.0,
            kmm_jitter: 0.0,
            dimension: None,
        }
    }

    /// Creates an unfitted sparse Gaussian process with default
    /// configuration.
    pub fn with_defaults() -> Self {
        SparseGaussianProcess::new(SparseGpConfig::default())
    }

    /// Number of inducing points actually in use after fitting.
    pub fn inducing_count(&self) -> usize {
        self.inducing.len()
    }

    /// Rebuilds a sparse process from a [`SurrogateModel::snapshot`]
    /// document; both packed factors are restored verbatim (never
    /// re-factorized), so the restored model predicts bit-identically.
    pub(crate) fn from_snapshot(doc: &JsonValue) -> Result<Self> {
        let config = SparseGpConfig {
            inducing: io::field_usize(doc, "config_inducing")?,
            lengthscale: io::nullable(doc, "config_lengthscale", io::field_hex_f64)?,
            signal_variance: io::nullable(doc, "config_signal_variance", io::field_hex_f64)?,
            noise_variance: io::field_hex_f64(doc, "config_noise_variance")?,
        };
        let inducing = snapshot::get_rows(doc, "inducing")?;
        let m = inducing.len();
        let factor = |name: &str| -> Result<Option<Cholesky>> {
            io::nullable(doc, name, io::field_hex_f64s)?
                .map(|data| Cholesky::from_packed_factor(m, data))
                .transpose()
                .map_err(|e| snapshot::err(format!("field {name}: {e}")))
        };
        let dimension = io::nullable(doc, "dimension", io::field_usize)?;
        Ok(SparseGaussianProcess {
            config,
            lm: factor("lm")?,
            lp: factor("lp")?,
            inducing,
            u: io::field_hex_f64s(doc, "u")?,
            s: io::field_hex_f64s(doc, "s")?,
            weights: io::field_hex_f64s(doc, "weights")?,
            mean: io::field_hex_f64(doc, "mean")?,
            y_sum: io::field_hex_f64(doc, "y_sum")?,
            count: io::field_usize(doc, "count")?,
            lengthscale: io::field_hex_f64(doc, "lengthscale")?,
            signal_variance: io::field_hex_f64(doc, "signal_variance")?,
            kmm_jitter: io::field_hex_f64(doc, "kmm_jitter")?,
            dimension,
        })
    }

    /// The lengthscale actually in use after fitting.
    pub fn lengthscale(&self) -> f64 {
        self.lengthscale
    }

    /// The signal variance actually in use after fitting.
    pub fn signal_variance(&self) -> f64 {
        self.signal_variance
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        let d2 = squared_distance(a, b).expect("dimension already validated");
        self.signal_variance * (-0.5 * d2 / (self.lengthscale * self.lengthscale)).exp()
    }

    /// Observation-noise variance, floored away from zero so `σ⁻²` stays
    /// finite.
    fn noise(&self) -> f64 {
        self.config.noise_variance.max(1e-10)
    }

    fn base_jitter(&self) -> f64 {
        self.config.noise_variance.max(1e-10) + 1e-8 * self.signal_variance
    }

    /// Kernel vector `k_Z(x)` against the inducing inputs.
    fn inducing_kernel_row(&self, x: &[f64], out: &mut [f64]) {
        for (k, z) in out.iter_mut().zip(self.inducing.rows()) {
            *k = self.kernel(z, x);
        }
    }

    /// Whitened feature `ψ(x) = Lm⁻¹ k_Z(x)`.
    fn feature(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut k = vec![0.0; self.inducing.len()];
        self.inducing_kernel_row(x, &mut k);
        self.lm
            .as_ref()
            .ok_or(ModelError::NotFitted)?
            .forward_substitute(&k)
            .map_err(|e| ModelError::Numerical(e.to_string()))
    }

    /// Recomputes `ŵ = P⁻¹ σ⁻² (u − μ s)` from the live factor — two `O(m²)`
    /// triangular solves.
    fn resolve_weights(&mut self) -> Result<()> {
        let inv_noise = 1.0 / self.noise();
        let rhs: Vec<f64> = self
            .u
            .iter()
            .zip(&self.s)
            .map(|(&u, &s)| inv_noise * (u - self.mean * s))
            .collect();
        self.weights = self
            .lp
            .as_ref()
            .expect("precision factor exists when weights are resolved")
            .solve(&rhs)
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

    /// Predicts a block of query rows: whitened features for the whole block
    /// via one batched solve against `Lm`, means against `ŵ`, then a second
    /// batched solve against `Lp` for the variance correction. `predict`
    /// routes through this with a block of one, so single-point and batched
    /// predictions are bit-identical.
    fn predict_block(&self, inputs: &[&[f64]], lm: &Cholesky, lp: &Cholesky) -> Vec<Prediction> {
        let m = self.inducing.len();
        let mut psi = vec![0.0; inputs.len() * m];
        for (row, x) in psi.chunks_exact_mut(m).zip(inputs) {
            self.inducing_kernel_row(x, row);
        }
        lm.forward_substitute_batch(&mut psi, inputs.len())
            .expect("block shape matches the whitener by construction");
        // Means and the prior-explained norms must be read before the second
        // solve overwrites the features in place.
        let mut means = Vec::with_capacity(inputs.len());
        let mut explained = Vec::with_capacity(inputs.len());
        for row in psi.chunks_exact(m) {
            let weighted: f64 = row.iter().zip(&self.weights).map(|(p, w)| p * w).sum();
            means.push(self.mean + weighted);
            explained.push(row.iter().map(|p| p * p).sum::<f64>());
        }
        lp.forward_substitute_batch(&mut psi, inputs.len())
            .expect("block shape matches the precision factor by construction");
        psi.chunks_exact(m)
            .zip(means)
            .zip(explained)
            .map(|((v, mean), explained)| {
                let recovered: f64 = v.iter().map(|vi| vi * vi).sum();
                let variance = self.signal_variance - explained + recovered + self.noise();
                Prediction::new(mean, variance)
            })
            .collect()
    }
}

impl SurrogateModel for SparseGaussianProcess {
    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<()> {
        let dim = validate_training_set(xs, ys)?;
        self.dimension = Some(dim);
        let n = ys.len();
        let m = self.config.inducing.max(1).min(n);

        // Hyper-parameters: the dense GP's data-scale heuristics, computed
        // once and frozen.
        self.y_sum = ys.iter().sum();
        self.count = n;
        self.mean = self.y_sum / n as f64;
        self.signal_variance = match self.config.signal_variance {
            Some(signal_variance) => signal_variance,
            None => {
                let mean = self.mean;
                let var = ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / n as f64;
                var.max(1e-10)
            }
        };

        // Inducing set: an evenly-strided subset of the training inputs
        // (indices `⌊i·n/m⌋`, strictly increasing for `m ≤ n`), frozen for
        // the lifetime of the fit. Deterministic in the input order, like
        // every other choice this model makes.
        self.inducing = FeatureMatrix::with_capacity(dim, m);
        for i in 0..m {
            self.inducing.push_row(xs[i * n / m]);
        }
        self.lengthscale = match self.config.lengthscale {
            Some(lengthscale) => lengthscale,
            None => median_pairwise_distance(&self.inducing).max(1e-6),
        };

        // Whitener: factor K_ZZ + εI with the escalating jitter ladder
        // (duplicate training inputs can make K_ZZ rank-deficient).
        self.lm = None;
        self.lp = None;
        let mut kmm = Vec::with_capacity(m * (m + 1) / 2);
        for i in 0..m {
            let zi = self.inducing.row(i);
            for j in 0..=i {
                kmm.push(self.kernel(zi, self.inducing.row(j)));
            }
        }
        // Chaos site: complete-exhaustion only, for the same reason as the
        // dense GP — a per-rung fault would perturb the surviving jitter.
        if alic_stats::fault::inject(alic_stats::fault::FaultSite::JitterExhaustion) {
            return Err(ModelError::Numerical(format!(
                "chaos: injected jitter-ladder exhaustion after {MAX_JITTER_ATTEMPTS} escalations"
            )));
        }
        let mut jitter = self.base_jitter();
        let mut lm = None;
        for _ in 0..MAX_JITTER_ATTEMPTS {
            let mut packed = kmm.clone();
            for i in 0..m {
                packed[i * (i + 1) / 2 + i] += jitter;
            }
            match Cholesky::decompose_packed(m, packed) {
                Ok(chol) => {
                    lm = Some(chol);
                    break;
                }
                Err(_) => jitter *= 10.0,
            }
        }
        let lm = lm.ok_or_else(|| {
            ModelError::Numerical(format!(
                "inducing kernel not positive definite after {MAX_JITTER_ATTEMPTS} jitter escalations"
            ))
        })?;
        self.kmm_jitter = jitter;

        // One parallel O(n·m²) sweep: per block, whiten the kernel rows with
        // a batched solve, then accumulate the packed Gram ΨᵀΨ, u = Σψy and
        // s = Σψ. Blocks are combined serially in block order, so the sums
        // are bit-identical however rayon schedules the map.
        let packed_len = m * (m + 1) / 2;
        let partials: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..n.div_ceil(FIT_BLOCK))
            .into_par_iter()
            .map(|b| {
                let lo = b * FIT_BLOCK;
                let hi = (lo + FIT_BLOCK).min(n);
                let (x_block, y_block) = (&xs[lo..hi], &ys[lo..hi]);
                let mut psi = vec![0.0; x_block.len() * m];
                for (row, x) in psi.chunks_exact_mut(m).zip(x_block) {
                    self.inducing_kernel_row(x, row);
                }
                lm.forward_substitute_batch(&mut psi, x_block.len())
                    .expect("block shape matches the whitener by construction");
                let mut gram = vec![0.0; packed_len];
                let mut u = vec![0.0; m];
                let mut s = vec![0.0; m];
                for (row, &y) in psi.chunks_exact(m).zip(y_block) {
                    for i in 0..m {
                        let pi = row[i];
                        let dst = &mut gram[i * (i + 1) / 2..i * (i + 1) / 2 + i + 1];
                        for (g, &pj) in dst.iter_mut().zip(&row[..=i]) {
                            *g += pi * pj;
                        }
                        u[i] += pi * y;
                        s[i] += pi;
                    }
                }
                (gram, u, s)
            })
            .collect();
        let mut gram = vec![0.0; packed_len];
        self.u = vec![0.0; m];
        self.s = vec![0.0; m];
        for (g, u, s) in &partials {
            for (acc, v) in gram.iter_mut().zip(g) {
                *acc += v;
            }
            for (acc, v) in self.u.iter_mut().zip(u) {
                *acc += v;
            }
            for (acc, v) in self.s.iter_mut().zip(s) {
                *acc += v;
            }
        }

        // Precision P = I + σ⁻² ΨᵀΨ: positive definite by construction, so
        // a failure here is a genuine numerical error, not a ladder case.
        let inv_noise = 1.0 / self.noise();
        let mut packed = gram;
        for v in packed.iter_mut() {
            *v *= inv_noise;
        }
        for i in 0..m {
            packed[i * (i + 1) / 2 + i] += 1.0;
        }
        let lp = Cholesky::decompose_packed(m, packed)
            .map_err(|e| ModelError::Numerical(format!("precision decomposition failed: {e}")))?;
        self.lm = Some(lm);
        self.lp = Some(lp);
        self.resolve_weights()
    }

    fn update(&mut self, x: &[f64], y: f64) -> Result<()> {
        self.check_dimension(x)?;
        crate::validate_observation(x, y)?;
        if self.lp.is_none() {
            return Err(ModelError::NotFitted);
        }
        // O(m²): whiten the new point, fold it into the sufficient
        // statistics, and rank-1-update the precision factor. Adding
        // σ⁻²ψψᵀ keeps P positive definite unconditionally, so unlike the
        // dense GP's row append there is no fallback path to take.
        let psi = self.feature(x)?;
        let inv_sigma = (1.0 / self.noise()).sqrt();
        let scaled: Vec<f64> = psi.iter().map(|p| p * inv_sigma).collect();
        self.lp
            .as_mut()
            .expect("presence checked above")
            .rank_one_update(&scaled)
            .map_err(|e| ModelError::Numerical(e.to_string()))?;
        for ((u, s), &p) in self.u.iter_mut().zip(&mut self.s).zip(&psi) {
            *u += p * y;
            *s += p;
        }
        self.y_sum += y;
        self.count += 1;
        self.mean = self.y_sum / self.count as f64;
        self.resolve_weights()
    }

    fn predict(&self, x: &[f64]) -> Result<Prediction> {
        self.check_dimension(x)?;
        let lm = self.lm.as_ref().ok_or(ModelError::NotFitted)?;
        let lp = self.lp.as_ref().ok_or(ModelError::NotFitted)?;
        Ok(self.predict_block(&[x], lm, lp)[0])
    }

    fn predict_batch(&self, inputs: &[&[f64]]) -> Result<Vec<Prediction>> {
        for x in inputs {
            self.check_dimension(x)?;
        }
        let lm = self.lm.as_ref().ok_or(ModelError::NotFitted)?;
        let lp = self.lp.as_ref().ok_or(ModelError::NotFitted)?;
        // Blocks are independent and internally ordered, so parallel
        // evaluation with in-order collection is bit-deterministic.
        let blocks: Vec<&[&[f64]]> = inputs.chunks(PREDICT_BLOCK).collect();
        let scored: Vec<Vec<Prediction>> = blocks
            .into_par_iter()
            .map(|block| self.predict_block(block, lm, lp))
            .collect();
        Ok(scored.into_iter().flatten().collect())
    }

    fn observation_count(&self) -> usize {
        self.count
    }

    fn dimension(&self) -> Option<usize> {
        self.dimension
    }

    fn snapshot(&self) -> Result<Snapshot> {
        let factor = |chol: &Option<Cholesky>| match chol {
            None => JsonValue::Null,
            Some(c) => io::hex_f64s(c.packed().iter().copied()),
        };
        let mut fields = snapshot::header("sgp");
        fields.extend([
            ("config_inducing", io::int(self.config.inducing as u64)?),
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
            ("inducing_dim", io::int(self.inducing.dim() as u64)?),
            (
                "inducing",
                io::hex_f64s(self.inducing.rows().flatten().copied()),
            ),
            ("lm", factor(&self.lm)),
            ("lp", factor(&self.lp)),
            ("u", io::hex_f64s(self.u.iter().copied())),
            ("s", io::hex_f64s(self.s.iter().copied())),
            ("weights", io::hex_f64s(self.weights.iter().copied())),
            ("mean", io::hex_f64(self.mean)),
            ("y_sum", io::hex_f64(self.y_sum)),
            ("count", io::int(self.count as u64)?),
            ("lengthscale", io::hex_f64(self.lengthscale)),
            ("signal_variance", io::hex_f64(self.signal_variance)),
            ("kmm_jitter", io::hex_f64(self.kmm_jitter)),
            (
                "dimension",
                match self.dimension {
                    None => JsonValue::Null,
                    Some(d) => io::int(d as u64)?,
                },
            ),
        ]);
        Ok(io::object(fields))
    }
}

impl ActiveSurrogate for SparseGaussianProcess {}

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
        let (xs, ys) = sine_data(60);
        let mut sgp = SparseGaussianProcess::new(SparseGpConfig {
            inducing: 20,
            ..Default::default()
        });
        sgp.fit(&row_views(&xs), &ys).unwrap();
        assert_eq!(sgp.inducing_count(), 20);
        for (x, y) in xs.iter().zip(&ys) {
            let p = sgp.predict(x).unwrap();
            assert!((p.mean - y).abs() < 0.05, "at {x:?}: {} vs {y}", p.mean);
        }
    }

    #[test]
    fn inducing_count_clamps_to_training_size() {
        let (xs, ys) = sine_data(10);
        let mut sgp = SparseGaussianProcess::with_defaults();
        sgp.fit(&row_views(&xs), &ys).unwrap();
        assert_eq!(sgp.inducing_count(), 10);
    }

    #[test]
    fn variance_grows_away_from_data_and_stays_below_prior() {
        let (xs, ys) = sine_data(40);
        let mut sgp = SparseGaussianProcess::new(SparseGpConfig {
            inducing: 15,
            lengthscale: Some(0.1),
            ..Default::default()
        });
        sgp.fit(&row_views(&xs), &ys).unwrap();
        let near = sgp.predict(&[0.5]).unwrap().variance;
        let far = sgp.predict(&[3.0]).unwrap().variance;
        assert!(far > near);
        let prior = sgp.signal_variance() + sgp.config.noise_variance;
        assert!(far <= prior + 1e-9, "{far} vs prior {prior}");
    }

    #[test]
    fn update_shifts_predictions_toward_new_observations() {
        let (xs, ys) = sine_data(50);
        let mut sgp = SparseGaussianProcess::new(SparseGpConfig {
            inducing: 25,
            ..Default::default()
        });
        sgp.fit(&row_views(&xs), &ys).unwrap();
        let x = vec![0.52];
        let before = sgp.predict(&x).unwrap();
        let target = before.mean + 1.0;
        for _ in 0..8 {
            sgp.update(&x, target).unwrap();
        }
        let after = sgp.predict(&x).unwrap();
        // The probe sits inside a dense training region, so the smooth GP
        // compromises between the 8 new observations and their strongly
        // correlated neighbours — require a substantial move toward the
        // target, not convergence onto it.
        assert!(
            after.mean - before.mean > 0.3 * (target - before.mean),
            "mean must move toward the repeated observation: {} -> {} (target {target})",
            before.mean,
            after.mean
        );
        assert!(after.variance <= before.variance + 1e-12);
        assert_eq!(sgp.observation_count(), 58);
    }

    #[test]
    fn incremental_updates_match_cold_refit_closely() {
        // Updates fold new points into the *existing* inducing basis while a
        // refit re-chooses it, so agreement is approximate — but with a basis
        // that already covers the region it must be tight.
        let (xs, ys) = sine_data(60);
        let mut incremental = SparseGaussianProcess::new(SparseGpConfig {
            inducing: 40,
            ..Default::default()
        });
        incremental.fit(&row_views(&xs[..40]), &ys[..40]).unwrap();
        for (x, &y) in xs[40..].iter().zip(&ys[40..]) {
            incremental.update(x, y).unwrap();
        }
        let mut cold = SparseGaussianProcess::new(SparseGpConfig {
            inducing: 40,
            lengthscale: Some(incremental.lengthscale()),
            signal_variance: Some(incremental.signal_variance()),
            noise_variance: incremental.config.noise_variance,
        });
        cold.fit(&row_views(&xs), &ys).unwrap();
        for q in [0.1, 0.33, 0.5, 0.9] {
            let a = incremental.predict(&[q]).unwrap();
            let b = cold.predict(&[q]).unwrap();
            assert!(
                (a.mean - b.mean).abs() < 0.05,
                "at {q}: incremental {a:?} vs cold {b:?}"
            );
        }
    }

    #[test]
    fn predict_batch_is_bit_identical_to_predict() {
        let (xs, ys) = sine_data(80);
        let mut sgp = SparseGaussianProcess::new(SparseGpConfig {
            inducing: 30,
            ..Default::default()
        });
        sgp.fit(&row_views(&xs), &ys).unwrap();
        let queries: Vec<Vec<f64>> = (0..150).map(|i| vec![i as f64 / 149.0]).collect();
        let views = row_views(&queries);
        let batch = sgp.predict_batch(&views).unwrap();
        for (x, p) in views.iter().zip(&batch) {
            assert_eq!(*p, sgp.predict(x).unwrap());
        }
    }

    #[test]
    fn refitting_multi_block_data_is_bit_deterministic() {
        // A training set spanning several FIT_BLOCK chunks exercises the
        // parallel sweep plus the serial in-order reduce; two fits of the
        // same data must agree to the bit (the thread-count half of the
        // contract lives in `tests/batch_consistency.rs`).
        let (xs, ys) = sine_data(3 * FIT_BLOCK + 17);
        let views = row_views(&xs);
        let mut a = SparseGaussianProcess::new(SparseGpConfig {
            inducing: 16,
            ..Default::default()
        });
        let mut b = a.clone();
        a.fit(&views, &ys).unwrap();
        b.fit(&views, &ys).unwrap();
        for q in [0.05, 0.37, 0.71] {
            assert_eq!(a.predict(&[q]).unwrap(), b.predict(&[q]).unwrap());
        }
    }

    #[test]
    fn errors_before_fit_and_on_bad_input() {
        let sgp = SparseGaussianProcess::with_defaults();
        assert_eq!(sgp.predict(&[0.0]).unwrap_err(), ModelError::NotFitted);
        let (xs, ys) = sine_data(12);
        let mut sgp = SparseGaussianProcess::with_defaults();
        sgp.fit(&row_views(&xs), &ys).unwrap();
        assert!(matches!(
            sgp.predict(&[0.0, 1.0]),
            Err(ModelError::DimensionMismatch { .. })
        ));
        assert_eq!(
            sgp.update(&[0.1], f64::NAN).unwrap_err(),
            ModelError::NonFiniteInput
        );
    }

    #[test]
    fn duplicate_inputs_do_not_break_the_decomposition() {
        // All-identical inputs make K_ZZ rank one; the jitter ladder must
        // still produce a usable whitener.
        let xs = vec![vec![0.5]; 30];
        let ys = vec![1.0; 30];
        let mut sgp = SparseGaussianProcess::new(SparseGpConfig {
            inducing: 8,
            ..Default::default()
        });
        sgp.fit(&row_views(&xs), &ys).unwrap();
        let p = sgp.predict(&[0.5]).unwrap();
        assert!((p.mean - 1.0).abs() < 1e-2);
    }

    #[test]
    fn alm_score_equals_predictive_variance() {
        let (xs, ys) = sine_data(25);
        let mut sgp = SparseGaussianProcess::with_defaults();
        sgp.fit(&row_views(&xs), &ys).unwrap();
        let p = sgp.predict(&[0.3]).unwrap();
        assert_eq!(sgp.alm_score(&[0.3]).unwrap(), p.variance);
    }

    #[test]
    fn fixed_hyperparameters_are_respected() {
        let (xs, ys) = sine_data(20);
        let mut sgp = SparseGaussianProcess::new(SparseGpConfig {
            inducing: 10,
            lengthscale: Some(0.42),
            signal_variance: Some(2.0),
            noise_variance: 1e-3,
        });
        sgp.fit(&row_views(&xs), &ys).unwrap();
        assert_eq!(sgp.lengthscale(), 0.42);
        assert_eq!(sgp.signal_variance(), 2.0);
    }
}
