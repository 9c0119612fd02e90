//! k-nearest-neighbour regression.
//!
//! A distance-based sanity-check baseline: its prediction at `x` is the mean
//! of the `k` nearest training targets and its variance is their sample
//! variance. Useful for validating datasets and as a cheap comparison point
//! for the tree models.
//!
//! Training inputs live in a flat row-major [`FeatureMatrix`], and each
//! query selects its `k` nearest neighbours with partial selection
//! (`select_nth_unstable_by`) — `O(n)` expected per query instead of the
//! `O(n log n)` full sort — with a `(distance, index)` total order that
//! reproduces the stable-sort tie-break (lower index wins) exactly.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use alic_stats::matrix::squared_distance;
use alic_stats::summary::Summary;
use alic_stats::FeatureMatrix;

use alic_data::io::{self, JsonValue};

use crate::snapshot::{self, Snapshot};
use crate::traits::{ActiveSurrogate, Prediction, SurrogateModel};
use crate::{validate_training_set, ModelError, Result};

/// Configuration of the k-NN regressor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnnConfig {
    /// Number of neighbours to average.
    pub k: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig { k: 5 }
    }
}

/// k-nearest-neighbour regressor.
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    config: KnnConfig,
    /// Flat row-major training inputs. The placeholder width used before
    /// [`fit`](SurrogateModel::fit) is never read (`dimension` is `None`).
    xs: FeatureMatrix,
    ys: Vec<f64>,
    dimension: Option<usize>,
}

impl Default for KnnRegressor {
    fn default() -> Self {
        KnnRegressor::new(KnnConfig::default())
    }
}

impl KnnRegressor {
    /// Creates an unfitted regressor with the given configuration.
    pub fn new(config: KnnConfig) -> Self {
        KnnRegressor {
            config,
            xs: FeatureMatrix::new(1),
            ys: Vec::new(),
            dimension: None,
        }
    }

    /// Creates an unfitted regressor averaging `k` neighbours.
    pub fn with_k(k: usize) -> Self {
        KnnRegressor::new(KnnConfig { k })
    }

    /// Rebuilds a regressor from a [`SurrogateModel::snapshot`] document.
    pub(crate) fn from_snapshot(doc: &JsonValue) -> Result<Self> {
        let xs = snapshot::get_rows(doc, "xs")?;
        let dimension = io::nullable(doc, "dimension", io::field_usize)?;
        Ok(KnnRegressor {
            config: KnnConfig {
                k: io::field_usize(doc, "k")?,
            },
            xs,
            ys: io::field_hex_f64s(doc, "ys")?,
            dimension,
        })
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
}

/// Total order on `(squared distance, training index)` pairs. Ordering by
/// index second reproduces the tie-break of a stable sort on distance alone:
/// among equidistant neighbours, the earliest training point wins.
fn by_distance_then_index(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0)
        .expect("finite distances")
        .then(a.1.cmp(&b.1))
}

impl SurrogateModel for KnnRegressor {
    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<()> {
        let dim = validate_training_set(xs, ys)?;
        self.dimension = Some(dim);
        self.xs = FeatureMatrix::with_capacity(dim, xs.len());
        for x in xs {
            self.xs.push_row(x);
        }
        self.ys = ys.to_vec();
        Ok(())
    }

    fn update(&mut self, x: &[f64], y: f64) -> Result<()> {
        self.check_dimension(x)?;
        crate::validate_observation(x, y)?;
        self.xs.push_row(x);
        self.ys.push(y);
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<Prediction> {
        self.check_dimension(x)?;
        let mut indexed: Vec<(f64, usize)> = self
            .xs
            .rows()
            .enumerate()
            .map(|(i, xi)| {
                (
                    squared_distance(xi, x).expect("dimension already validated"),
                    i,
                )
            })
            .collect();
        let k = self.config.k.max(1).min(indexed.len());
        // Partial selection: O(n) expected to isolate the k nearest, then a
        // sort of only those k to fix the averaging order. The
        // distance-then-index order makes both steps deterministic and
        // matches what a full stable sort on distance produced.
        if k < indexed.len() {
            indexed.select_nth_unstable_by(k - 1, by_distance_then_index);
        }
        let neighbours = &mut indexed[..k];
        neighbours.sort_unstable_by(by_distance_then_index);
        let neighbours: Vec<f64> = neighbours.iter().map(|&(_, i)| self.ys[i]).collect();
        let summary = Summary::from_slice(&neighbours);
        Ok(Prediction::new(summary.mean, summary.variance))
    }

    fn predict_batch(&self, inputs: &[&[f64]]) -> Result<Vec<Prediction>> {
        // Each neighbour search scans the full training set; batches are
        // evaluated in parallel with order-preserving write-back.
        inputs.par_iter().map(|x| self.predict(x)).collect()
    }

    fn observation_count(&self) -> usize {
        self.ys.len()
    }

    fn dimension(&self) -> Option<usize> {
        self.dimension
    }

    fn snapshot(&self) -> Result<Snapshot> {
        let mut fields = snapshot::header("knn");
        fields.extend([
            ("k", io::int(self.config.k as u64)?),
            ("xs_dim", io::int(self.xs.dim() as u64)?),
            ("xs", io::hex_f64s(self.xs.rows().flatten().copied())),
            ("ys", io::hex_f64s(self.ys.iter().copied())),
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

impl ActiveSurrogate for KnnRegressor {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_views;

    #[test]
    fn nearest_neighbour_recovers_local_structure() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let mut knn = KnnRegressor::with_k(3);
        knn.fit(&row_views(&xs), &ys).unwrap();
        assert!((knn.predict(&[2.0]).unwrap().mean - 1.0).abs() < 1e-12);
        assert!((knn.predict(&[17.0]).unwrap().mean - 5.0).abs() < 1e-12);
    }

    #[test]
    fn variance_reflects_neighbour_disagreement() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys = vec![1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 6.0, 2.0, 6.0, 2.0];
        let mut knn = KnnRegressor::with_k(3);
        knn.fit(&row_views(&xs), &ys).unwrap();
        let quiet = knn.predict(&[1.0]).unwrap().variance;
        let noisy = knn.predict(&[7.0]).unwrap().variance;
        assert!(noisy > quiet);
    }

    #[test]
    fn update_adds_neighbours() {
        let xs = vec![vec![0.0], vec![10.0]];
        let ys = vec![0.0, 10.0];
        let mut knn = KnnRegressor::with_k(1);
        knn.fit(&row_views(&xs), &ys).unwrap();
        knn.update(&[5.0], 5.0).unwrap();
        assert!((knn.predict(&[5.1]).unwrap().mean - 5.0).abs() < 1e-12);
        assert_eq!(knn.observation_count(), 3);
    }

    #[test]
    fn k_larger_than_dataset_uses_all_points() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![2.0, 4.0];
        let mut knn = KnnRegressor::with_k(10);
        knn.fit(&row_views(&xs), &ys).unwrap();
        assert!((knn.predict(&[0.5]).unwrap().mean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn equidistant_ties_resolve_to_the_earliest_training_point() {
        // Five training points all at the same location with different
        // targets: with k = 2 the partial selection must pick indices 0 and
        // 1 (the stable-sort tie-break), never a later duplicate.
        let xs = vec![vec![1.0]; 5];
        let ys = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        let mut knn = KnnRegressor::with_k(2);
        knn.fit(&row_views(&xs), &ys).unwrap();
        let p = knn.predict(&[1.0]).unwrap();
        assert!((p.mean - 15.0).abs() < 1e-12, "mean {} != 15", p.mean);
        // Symmetric neighbours at equal distance: index order decides.
        let xs = vec![vec![0.0], vec![2.0], vec![0.0], vec![2.0]];
        let ys = vec![1.0, 3.0, 5.0, 7.0];
        let mut knn = KnnRegressor::with_k(2);
        knn.fit(&row_views(&xs), &ys).unwrap();
        let p = knn.predict(&[1.0]).unwrap();
        assert!((p.mean - 2.0).abs() < 1e-12, "mean {} != 2", p.mean);
    }

    #[test]
    fn errors_before_fit() {
        let knn = KnnRegressor::with_k(3);
        assert_eq!(knn.predict(&[0.0]).unwrap_err(), ModelError::NotFitted);
    }
}
