//! Model traits: surrogate regression and active-learning scoring.

use crate::{ModelError, Result};

/// A posterior-predictive summary at one input point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predictive mean.
    pub mean: f64,
    /// Predictive variance (always non-negative).
    pub variance: f64,
}

impl Prediction {
    /// Creates a prediction, clamping the variance at zero.
    pub fn new(mean: f64, variance: f64) -> Self {
        Prediction {
            mean,
            variance: variance.max(0.0),
        }
    }
}

/// A regression model that predicts a scalar target with uncertainty and can
/// be updated one observation at a time.
///
/// The incremental [`update`](SurrogateModel::update) is the operation the
/// active-learning loop performs at every iteration; models that cannot
/// update incrementally (such as the Gaussian process) simply refit.
pub trait SurrogateModel: std::fmt::Debug {
    /// Fits the model from scratch on an initial training set of row views.
    ///
    /// The rows are borrowed (typically gathered from a flat
    /// `FeatureMatrix` pool); models copy what they need into their own flat
    /// storage, so no caller ever materializes a `Vec<Vec<f64>>` for
    /// training. Use [`crate::row_views`] to adapt nested data at the call
    /// site.
    ///
    /// # Errors
    ///
    /// Returns an error when the data are empty, inconsistently shaped, or
    /// contain non-finite values.
    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<()>;

    /// Incorporates one new observation `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns an error when the model has not been fitted or `x` has the
    /// wrong dimensionality.
    fn update(&mut self, x: &[f64], y: f64) -> Result<()>;

    /// Posterior-predictive mean and variance at `x`.
    ///
    /// # Errors
    ///
    /// Returns an error when the model has not been fitted or `x` has the
    /// wrong dimensionality.
    fn predict(&self, x: &[f64]) -> Result<Prediction>;

    /// Posterior-predictive summaries for a batch of row views.
    ///
    /// Must agree with [`predict`](SurrogateModel::predict) applied
    /// point-by-point; the default implementation does exactly that. Models
    /// with exploitable structure (such as the dynamic tree) override it to
    /// share per-model work across the batch and evaluate rows in parallel.
    ///
    /// # Determinism contract
    ///
    /// Overrides that parallelize **must** produce bit-identical results
    /// regardless of the worker-thread count: write results back by index
    /// and keep every floating-point accumulation in a fixed,
    /// thread-independent order. The experiment stack's reproducibility
    /// guarantees (golden reports, sharded-campaign merge equality, the
    /// `batch_consistency` suite) all lean on this; the same rule applies
    /// to parallel [`fit`](SurrogateModel::fit) /
    /// [`update`](SurrogateModel::update) implementations, which the
    /// dynamic tree realizes with per-`(seed, observation, particle)`
    /// derived RNG streams.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    fn predict_batch(&self, inputs: &[&[f64]]) -> Result<Vec<Prediction>> {
        inputs.iter().map(|x| self.predict(x)).collect()
    }

    /// Number of training observations the model currently holds.
    fn observation_count(&self) -> usize;

    /// Input dimensionality, or `None` before fitting.
    fn dimension(&self) -> Option<usize>;

    /// Serializes the complete trained state as a canonical-JSON snapshot
    /// that [`crate::snapshot::restore_snapshot`] turns back into a model
    /// whose every subsequent output (predictions, scores, RNG draws) is
    /// bit-identical to the original's.
    ///
    /// Floating-point state is hex-bit-encoded (see [`crate::snapshot`]) so
    /// the round-trip never loses a ULP. The default implementation refuses:
    /// only the five [`crate::SurrogateSpec`] families opt in.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::Snapshot`] when the model does not
    /// support snapshotting or is not in a serializable state.
    fn snapshot(&self) -> Result<crate::snapshot::Snapshot> {
        Err(crate::ModelError::Snapshot(
            "model family does not support snapshots".to_string(),
        ))
    }
}

/// A surrogate model that can score how useful it would be to observe a
/// candidate point next (§3.3 of the paper).
///
/// Both criteria are formulated so that **larger scores are better**.
pub trait ActiveSurrogate: SurrogateModel {
    /// MacKay's Active Learning–MacKay (ALM) criterion: the predictive
    /// variance at the candidate. Candidates where the model is most
    /// uncertain score highest.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    fn alm_score(&self, candidate: &[f64]) -> Result<f64> {
        Ok(self.predict(candidate)?.variance)
    }

    /// Scores many candidate row views with the ALM criterion.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    fn alm_scores(&self, candidates: &[&[f64]]) -> Result<Vec<f64>> {
        Ok(self
            .predict_batch(candidates)?
            .into_iter()
            .map(|p| p.variance)
            .collect())
    }

    /// Cohn's Active Learning–Cohn (ALC) criterion: the expected reduction in
    /// the *average* predictive variance over a reference set if the
    /// candidate were observed next. This is the criterion the paper uses,
    /// because it handles heteroskedastic spaces more robustly (§3.3).
    ///
    /// The default implementation is a generic finite approximation: it
    /// assumes observing the candidate mostly improves predictions near the
    /// candidate, weighting each reference point's predictive variance by an
    /// inverse-distance kernel (observing the candidate can at best halve
    /// the variance of nearby reference predictions; far points are barely
    /// affected). Models with structure (such as the dynamic tree) override
    /// this with a sharper estimate.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    fn alc_score(&self, candidate: &[f64], reference: &[&[f64]]) -> Result<f64> {
        if reference.is_empty() {
            return self.alm_score(candidate);
        }
        let mut total = 0.0;
        for r in reference {
            let pred = self.predict(r)?;
            let dist2: f64 = r
                .iter()
                .zip(candidate)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            let proximity = 1.0 / (1.0 + dist2);
            total += 0.5 * proximity * pred.variance;
        }
        Ok(total / reference.len() as f64)
    }

    /// Scores many candidate row views with the ALC criterion against a
    /// shared reference set.
    ///
    /// The default implementation computes the same values as
    /// [`alc_score`](ActiveSurrogate::alc_score) applied per candidate, but
    /// predicts the reference set **once** through
    /// [`predict_batch`](SurrogateModel::predict_batch) instead of
    /// re-predicting it for every candidate — for a model with an `O(n²)`
    /// predictor (the Gaussian process) this turns an `O(|C|·|R|·n²)`
    /// acquisition step into `O(|R|·n² + |C|·|R|·d)`. Models with
    /// exploitable structure (such as the dynamic tree) override it
    /// entirely.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    fn alc_scores(&self, candidates: &[&[f64]], reference: &[&[f64]]) -> Result<Vec<f64>> {
        if reference.is_empty() {
            return self.alm_scores(candidates);
        }
        if candidates.is_empty() {
            return Ok(Vec::new());
        }
        let ref_vars: Vec<f64> = self
            .predict_batch(reference)?
            .into_iter()
            .map(|p| p.variance)
            .collect();
        Ok(candidates
            .iter()
            .map(|candidate| {
                let mut total = 0.0;
                for (r, &ref_var) in reference.iter().zip(&ref_vars) {
                    let dist2: f64 = r
                        .iter()
                        .zip(*candidate)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    let proximity = 1.0 / (1.0 + dist2);
                    total += 0.5 * proximity * ref_var;
                }
                total / reference.len() as f64
            })
            .collect())
    }

    /// The first `min(k, candidates.len())` candidate indices, ordered by
    /// descending [`alc_scores`](ActiveSurrogate::alc_scores), ties going
    /// to the lower index: the learner's selection (`k = 1`) and a serve
    /// `suggest` (`k` = its count) in one call.
    ///
    /// The default ranks `alc_scores` through [`rank_scores`].
    /// `alc_scores` stays the exact oracle: an override must return what
    /// the default returns, and may skip scoring candidates that cannot
    /// reach the top `k` (the dynamic tree does).
    ///
    /// # Errors
    ///
    /// Propagates scoring errors, and returns [`ModelError::Numerical`]
    /// when a score is not finite.
    fn alc_rank(
        &self,
        candidates: &[&[f64]],
        reference: &[&[f64]],
        k: usize,
    ) -> Result<Vec<usize>> {
        rank_scores(&self.alc_scores(candidates, reference)?, k)
    }
}

/// The first `min(k, scores.len())` indices of `scores`, ordered by
/// descending score, ties going to the lower index.
///
/// # Errors
///
/// Returns [`ModelError::Numerical`] when a score is not finite: a NaN has
/// no rank, and letting one through would either win a first-max scan or
/// break the sort's total order.
pub fn rank_scores(scores: &[f64], k: usize) -> Result<Vec<usize>> {
    if let Some(i) = scores.iter().position(|s| !s.is_finite()) {
        return Err(ModelError::Numerical(format!(
            "acquisition score {i} is {}",
            scores[i]
        )));
    }
    let by_rank = |&a: &usize, &b: &usize| {
        scores[b]
            .partial_cmp(&scores[a])
            .expect("finite scores are ordered")
            .then(a.cmp(&b))
    };
    let k = k.min(scores.len());
    let mut order: Vec<usize> = (0..scores.len()).collect();
    if k > 0 && k < order.len() {
        order.select_nth_unstable_by(k - 1, by_rank);
    }
    order.truncate(k);
    order.sort_unstable_by(by_rank);
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelError;

    /// Minimal model used to exercise the default trait implementations.
    #[derive(Debug, Default)]
    struct FlatModel {
        n: usize,
        variance: f64,
    }

    impl SurrogateModel for FlatModel {
        fn fit(&mut self, xs: &[&[f64]], _ys: &[f64]) -> Result<()> {
            self.n = xs.len();
            Ok(())
        }
        fn update(&mut self, _x: &[f64], _y: f64) -> Result<()> {
            self.n += 1;
            Ok(())
        }
        fn predict(&self, x: &[f64]) -> Result<Prediction> {
            if x.is_empty() {
                return Err(ModelError::NotFitted);
            }
            // Variance grows with distance from the origin, to make the ALM
            // ordering observable.
            let d2: f64 = x.iter().map(|v| v * v).sum();
            Ok(Prediction::new(0.0, self.variance + d2))
        }
        fn observation_count(&self) -> usize {
            self.n
        }
        fn dimension(&self) -> Option<usize> {
            Some(1)
        }
    }

    impl ActiveSurrogate for FlatModel {}

    #[test]
    fn prediction_clamps_negative_variance() {
        let p = Prediction::new(1.0, -0.5);
        assert_eq!(p.variance, 0.0);
    }

    #[test]
    fn alm_prefers_the_most_uncertain_candidate() {
        let model = FlatModel {
            n: 0,
            variance: 0.1,
        };
        let near = model.alm_score(&[0.1]).unwrap();
        let far = model.alm_score(&[3.0]).unwrap();
        assert!(far > near);
    }

    #[test]
    fn alc_with_empty_reference_falls_back_to_alm() {
        let model = FlatModel {
            n: 0,
            variance: 0.2,
        };
        let alm = model.alm_score(&[1.0]).unwrap();
        let alc = model.alc_score(&[1.0], &[]).unwrap();
        assert_eq!(alm, alc);
    }

    #[test]
    fn alc_scores_candidates_near_uncertain_references_higher() {
        let model = FlatModel {
            n: 0,
            variance: 0.0,
        };
        // Reference point far from the origin has high variance; a candidate
        // near it should score higher than one near the origin.
        let reference: Vec<&[f64]> = vec![&[3.0]];
        let near_ref = model.alc_score(&[2.9], &reference).unwrap();
        let far_ref = model.alc_score(&[0.0], &reference).unwrap();
        assert!(near_ref > far_ref);
    }

    /// A model whose ALC scores are fixed, to drive `alc_rank`'s default.
    #[derive(Debug)]
    struct FixedScores(Vec<f64>);

    impl SurrogateModel for FixedScores {
        fn fit(&mut self, _xs: &[&[f64]], _ys: &[f64]) -> Result<()> {
            Ok(())
        }
        fn update(&mut self, _x: &[f64], _y: f64) -> Result<()> {
            Ok(())
        }
        fn predict(&self, _x: &[f64]) -> Result<Prediction> {
            Ok(Prediction::new(0.0, 1.0))
        }
        fn observation_count(&self) -> usize {
            0
        }
        fn dimension(&self) -> Option<usize> {
            Some(1)
        }
    }

    impl ActiveSurrogate for FixedScores {
        fn alc_scores(&self, _candidates: &[&[f64]], _reference: &[&[f64]]) -> Result<Vec<f64>> {
            Ok(self.0.clone())
        }
    }

    #[test]
    fn alc_rank_orders_by_descending_score_with_ties_to_the_lower_index() {
        let model = FixedScores(vec![0.5, 2.0, -0.0, 2.0, 0.0, 1.0]);
        let rows: Vec<&[f64]> = vec![&[0.0]; 6];
        assert_eq!(model.alc_rank(&rows, &rows, 1).unwrap(), vec![1]);
        assert_eq!(model.alc_rank(&rows, &rows, 3).unwrap(), vec![1, 3, 5]);
        // −0 and +0 tie, so they keep their index order.
        assert_eq!(
            model.alc_rank(&rows, &rows, 10).unwrap(),
            vec![1, 3, 5, 0, 2, 4]
        );
        assert_eq!(
            model.alc_rank(&rows, &rows, 0).unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn alc_rank_refuses_a_non_finite_score() {
        let rows: Vec<&[f64]> = vec![&[0.0]; 3];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // A NaN first would win a first-max scan; anywhere else it
            // breaks the sort's order. Both are refused, at every `k`.
            for at in 0..3 {
                let mut scores = vec![1.0, 3.0, 2.0];
                scores[at] = bad;
                let model = FixedScores(scores);
                for k in [1, 3] {
                    assert!(
                        matches!(
                            model.alc_rank(&rows, &rows, k),
                            Err(ModelError::Numerical(_))
                        ),
                        "{bad} at {at}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn default_batch_implementations_agree_with_single_point() {
        let model = FlatModel {
            n: 0,
            variance: 0.3,
        };
        let points: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 2.0]).collect();
        let views: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
        let batch = model.predict_batch(&views).unwrap();
        let alm = model.alm_scores(&views).unwrap();
        let alc = model.alc_scores(&views, &views[..2]).unwrap();
        for (i, view) in views.iter().enumerate() {
            assert_eq!(batch[i], model.predict(view).unwrap());
            assert_eq!(alm[i], model.alm_score(view).unwrap());
            assert_eq!(alc[i], model.alc_score(view, &views[..2]).unwrap());
        }
    }
}
