//! Acquisition strategies (§3.3 — "Quantifying Usefulness").
//!
//! At every iteration the learner scores the candidate set and profiles the
//! candidate predicted to be most informative. Two principled criteria are
//! available through the surrogate model, plus a random baseline:
//!
//! * **ALC** (Cohn) — expected reduction of the *average* predictive variance
//!   over a reference set drawn from the space. The paper selects this one
//!   because it copes better with heteroskedastic noise, at `O(|C|²)`-ish
//!   cost.
//! * **ALM** (MacKay) — the candidate with the largest predictive variance,
//!   at `O(|C|)` cost.
//! * **Random** — uniform selection, the "iterative compilation without
//!   active learning" ablation.

use rand::Rng as _;
use serde::{Deserialize, Serialize};

use alic_model::traits::rank_scores;
use alic_model::ActiveSurrogate;
use alic_stats::features::FeatureMatrix;
use alic_stats::rng::Rng as StatsRng;
use alic_stats::sampling::sample_indices;

use crate::Result;

/// Strategy for scoring candidate configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Acquisition {
    /// Cohn's expected average-variance reduction over a random reference
    /// set of the given size (the paper's choice).
    Alc {
        /// Number of reference points drawn from the pool per iteration.
        reference_size: usize,
    },
    /// MacKay's maximum-predictive-variance criterion.
    Alm,
    /// Uniform random selection.
    Random,
}

impl Acquisition {
    /// The paper's configuration: ALC with a moderate reference set.
    pub fn default_alc() -> Self {
        Acquisition::Alc { reference_size: 50 }
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Acquisition::Alc { .. } => "ALC",
            Acquisition::Alm => "ALM",
            Acquisition::Random => "random",
        }
    }

    /// Selects the index of the best candidate from `candidates` (zero-copy
    /// row views, typically gathered from the pool) according to this
    /// strategy.
    ///
    /// `pool` is the flat matrix of (normalized) feature vectors representing
    /// the whole decision space; ALC draws its reference set from it as row
    /// views, without copying any features.
    ///
    /// Ties favour the earliest candidate. The learner lists fresh (unseen)
    /// candidates before revisit candidates, which makes ties resolve
    /// towards exploration. ALC ranks through
    /// [`ActiveSurrogate::alc_rank`] with `k = 1`, so a model may skip
    /// scoring candidates that cannot win.
    ///
    /// # Errors
    ///
    /// Propagates surrogate-model errors, including
    /// [`alic_model::ModelError::Numerical`] for a non-finite score.
    /// Returns `Ok(None)` when `candidates` is empty.
    pub fn select<M: ActiveSurrogate + ?Sized>(
        &self,
        model: &M,
        candidates: &[&[f64]],
        pool: &FeatureMatrix,
        rng: &mut StatsRng,
    ) -> Result<Option<usize>> {
        if candidates.is_empty() {
            return Ok(None);
        }
        let best = match self {
            Acquisition::Alc { reference_size } => {
                let reference: Vec<&[f64]> = if pool.is_empty() {
                    Vec::new()
                } else {
                    pool.gather(sample_indices(rng, pool.len(), *reference_size))
                };
                model.alc_rank(candidates, &reference, 1)?
            }
            Acquisition::Alm => rank_scores(&model.alm_scores(candidates)?, 1)?,
            Acquisition::Random => {
                let scores: Vec<f64> = (0..candidates.len()).map(|_| rng.gen::<f64>()).collect();
                rank_scores(&scores, 1)?
            }
        };
        Ok(best.first().copied())
    }
}

impl Default for Acquisition {
    fn default() -> Self {
        Acquisition::default_alc()
    }
}

impl std::fmt::Display for Acquisition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alic_model::dynatree::{DynaTree, DynaTreeConfig};
    use alic_model::SurrogateModel;
    use alic_stats::rng::seeded_rng;

    /// A model trained densely on the left half of [0, 1] and sparsely on the
    /// noisy right half.
    fn lopsided_model() -> DynaTree {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
            let x = 0.5 * i as f64 / 59.0;
            xs.push(vec![x]);
            ys.push(1.0);
        }
        for i in 0..5 {
            let x = 0.6 + 0.4 * i as f64 / 4.0;
            xs.push(vec![x]);
            ys.push(2.0 + if i % 2 == 0 { 0.7 } else { -0.7 });
        }
        let mut model = DynaTree::new(DynaTreeConfig {
            particles: 60,
            seed: 3,
            ..Default::default()
        });
        model.fit(&alic_model::row_views(&xs), &ys).unwrap();
        model
    }

    fn grid(n: usize) -> FeatureMatrix {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        FeatureMatrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn empty_candidate_set_selects_nothing() {
        let model = lopsided_model();
        let mut rng = seeded_rng(1);
        let choice = Acquisition::Alm
            .select(&model, &[], &grid(10), &mut rng)
            .unwrap();
        assert_eq!(choice, None);
    }

    #[test]
    fn alm_and_alc_prefer_the_uncertain_region() {
        let model = lopsided_model();
        let mut rng = seeded_rng(2);
        // Candidate 0 is in the dense quiet region, candidate 1 in the sparse
        // noisy region.
        let candidates: Vec<&[f64]> = vec![&[0.25], &[0.85]];
        for acquisition in [Acquisition::Alm, Acquisition::default_alc()] {
            let choice = acquisition
                .select(&model, &candidates, &grid(40), &mut rng)
                .unwrap();
            assert_eq!(choice, Some(1), "{acquisition} picked the wrong candidate");
        }
    }

    #[test]
    fn random_selection_eventually_picks_everything() {
        let model = lopsided_model();
        let mut rng = seeded_rng(3);
        let pool = grid(5);
        let candidates = pool.row_views();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            if let Some(i) = Acquisition::Random
                .select(&model, &candidates, &FeatureMatrix::new(1), &mut rng)
                .unwrap()
            {
                seen.insert(i);
            }
        }
        assert_eq!(seen.len(), candidates.len());
    }

    #[test]
    fn ties_favour_the_earliest_candidate() {
        // A constant-mean model scores every candidate identically, so both
        // criteria tie everywhere; the argmax must resolve to the earliest
        // (fresh) candidate. ALC over an empty pool exercises its ALM
        // fallback through the same argmax.
        let mut model = alic_model::baseline::ConstantMean::new();
        model
            .fit(&[&[0.0], &[0.5], &[1.0]], &[1.0, 2.0, 3.0])
            .unwrap();
        let candidates: Vec<&[f64]> = vec![&[0.9], &[0.1], &[0.4]];
        let mut rng = seeded_rng(4);
        for acquisition in [Acquisition::Alm, Acquisition::default_alc()] {
            let choice = acquisition
                .select(&model, &candidates, &FeatureMatrix::new(1), &mut rng)
                .unwrap();
            assert_eq!(choice, Some(0), "{acquisition} must break ties earliest");
        }
    }

    /// A model whose predictive variance is NaN everywhere, so both ALM
    /// and the default ALC score every candidate NaN.
    #[derive(Debug)]
    struct NanVariance;

    impl SurrogateModel for NanVariance {
        fn fit(&mut self, _xs: &[&[f64]], _ys: &[f64]) -> alic_model::Result<()> {
            Ok(())
        }
        fn update(&mut self, _x: &[f64], _y: f64) -> alic_model::Result<()> {
            Ok(())
        }
        fn predict(&self, _x: &[f64]) -> alic_model::Result<alic_model::traits::Prediction> {
            Ok(alic_model::traits::Prediction {
                mean: 0.0,
                variance: f64::NAN,
            })
        }
        fn observation_count(&self) -> usize {
            0
        }
        fn dimension(&self) -> Option<usize> {
            Some(1)
        }
    }

    impl ActiveSurrogate for NanVariance {}

    #[test]
    fn a_non_finite_score_is_refused_not_selected() {
        let candidates: Vec<&[f64]> = vec![&[0.1], &[0.5]];
        let mut rng = seeded_rng(5);
        for acquisition in [Acquisition::Alm, Acquisition::default_alc()] {
            let result = acquisition.select(&NanVariance, &candidates, &grid(10), &mut rng);
            assert!(
                matches!(
                    result,
                    Err(crate::CoreError::Model(alic_model::ModelError::Numerical(
                        _
                    )))
                ),
                "{acquisition}: {result:?}"
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Acquisition::default_alc().label(), "ALC");
        assert_eq!(Acquisition::Alm.to_string(), "ALM");
        assert_eq!(Acquisition::Random.label(), "random");
    }
}
