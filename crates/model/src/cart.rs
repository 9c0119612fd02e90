//! Static CART-style regression tree.
//!
//! This is the classical decision-tree regressor of Breiman et al. that the
//! dynamic tree generalizes (§3.2: "The static model used within the dynamic
//! tree framework is a traditional decision tree for regression
//! applications"). It is built once by greedy variance-reduction splitting
//! and serves both as a standalone baseline model and as a reference point
//! for the dynamic tree's behaviour in tests.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use alic_data::io::{self, JsonValue};

use crate::leaf::{LeafPrior, LeafStats};
use crate::snapshot::{self, Snapshot};
use crate::traits::{ActiveSurrogate, Prediction, SurrogateModel};
use crate::{validate_training_set, ModelError, Result};

/// Configuration of the static regression tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CartConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of observations required in each child of a split.
    pub min_leaf: usize,
    /// Minimum relative variance reduction for a split to be accepted.
    pub min_gain: f64,
}

impl Default for CartConfig {
    fn default() -> Self {
        CartConfig {
            max_depth: 12,
            min_leaf: 3,
            min_gain: 1e-4,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        stats: LeafStats,
    },
    Split {
        dimension: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Greedy variance-reduction regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    config: CartConfig,
    nodes: Vec<Node>,
    prior: LeafPrior,
    dimension: Option<usize>,
    observations: usize,
}

impl RegressionTree {
    /// Creates an unfitted tree with the given configuration.
    pub fn new(config: CartConfig) -> Self {
        RegressionTree {
            config,
            nodes: Vec::new(),
            prior: LeafPrior::default(),
            dimension: None,
            observations: 0,
        }
    }

    /// Creates an unfitted tree with default configuration.
    pub fn with_defaults() -> Self {
        RegressionTree::new(CartConfig::default())
    }

    /// Number of leaves in the fitted tree (zero before fitting).
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Depth of the fitted tree (zero before fitting).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], index: usize) -> usize {
            match &nodes[index] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    fn build(&mut self, xs: &[&[f64]], ys: &[f64], indices: Vec<usize>, depth: usize) -> usize {
        let stats = LeafStats::from_targets(&indices.iter().map(|&i| ys[i]).collect::<Vec<_>>());
        let node_variance = variance_of(&indices, ys);
        if depth >= self.config.max_depth
            || indices.len() < 2 * self.config.min_leaf
            || node_variance <= 1e-18
        {
            self.nodes.push(Node::Leaf { stats });
            return self.nodes.len() - 1;
        }
        // Greedy best split over all dimensions and midpoints. (`xs` is
        // indexed by example, not by `d`; the lint misreads the loop.)
        let dim = xs[0].len();
        let mut best: Option<(usize, f64, f64)> = None; // (dimension, threshold, gain)
        #[allow(clippy::needless_range_loop)]
        for d in 0..dim {
            let mut values: Vec<f64> = indices.iter().map(|&i| xs[i][d]).collect();
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            values.dedup();
            if values.len() < 2 {
                continue;
            }
            for w in values.windows(2) {
                let threshold = 0.5 * (w[0] + w[1]);
                let (left, right): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| xs[i][d] <= threshold);
                if left.len() < self.config.min_leaf || right.len() < self.config.min_leaf {
                    continue;
                }
                let weighted = (left.len() as f64 * variance_of(&left, ys)
                    + right.len() as f64 * variance_of(&right, ys))
                    / indices.len() as f64;
                let gain = node_variance - weighted;
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((d, threshold, gain));
                }
            }
        }
        match best {
            Some((dimension, threshold, gain))
                if gain > self.config.min_gain * node_variance.max(1e-12) =>
            {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .iter()
                    .partition(|&&i| xs[i][dimension] <= threshold);
                let placeholder = self.nodes.len();
                self.nodes.push(Node::Leaf {
                    stats: LeafStats::new(),
                });
                let left = self.build(xs, ys, left_idx, depth + 1);
                let right = self.build(xs, ys, right_idx, depth + 1);
                self.nodes[placeholder] = Node::Split {
                    dimension,
                    threshold,
                    left,
                    right,
                };
                placeholder
            }
            _ => {
                self.nodes.push(Node::Leaf { stats });
                self.nodes.len() - 1
            }
        }
    }

    /// Rebuilds a tree from a [`SurrogateModel::snapshot`] document. Nodes
    /// are stored as parallel columns with a kind discriminator (0 = leaf,
    /// 1 = split); non-applicable columns hold zeros.
    pub(crate) fn from_snapshot(doc: &JsonValue) -> Result<Self> {
        let kinds = io::field_hex_u32s(doc, "node_kind")?;
        let dims = io::field_hex_u32s(doc, "node_dimension")?;
        let thresholds = io::field_hex_f64s(doc, "node_threshold")?;
        let lefts = io::field_hex_u32s(doc, "node_left")?;
        let rights = io::field_hex_u32s(doc, "node_right")?;
        let counts = io::field_hex_u32s(doc, "leaf_count")?;
        let means = io::field_hex_f64s(doc, "leaf_mean")?;
        let m2s = io::field_hex_f64s(doc, "leaf_m2")?;
        let mins = io::field_hex_f64s(doc, "leaf_min")?;
        let maxs = io::field_hex_f64s(doc, "leaf_max")?;
        let n = kinds.len();
        for (name, len) in [
            ("node_dimension", dims.len()),
            ("node_threshold", thresholds.len()),
            ("node_left", lefts.len()),
            ("node_right", rights.len()),
            ("leaf_count", counts.len()),
            ("leaf_mean", means.len()),
            ("leaf_m2", m2s.len()),
            ("leaf_min", mins.len()),
            ("leaf_max", maxs.len()),
        ] {
            if len != n {
                return Err(snapshot::err(format!(
                    "field {name}: {len} entries for {n} nodes"
                )));
            }
        }
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            nodes.push(match kinds[i] {
                0 => Node::Leaf {
                    stats: LeafStats::from_parts(
                        counts[i] as usize,
                        means[i],
                        m2s[i],
                        mins[i],
                        maxs[i],
                    ),
                },
                1 => {
                    let (left, right) = (lefts[i] as usize, rights[i] as usize);
                    if left >= n || right >= n {
                        return Err(snapshot::err(format!("node {i}: child out of range")));
                    }
                    Node::Split {
                        dimension: dims[i] as usize,
                        threshold: thresholds[i],
                        left,
                        right,
                    }
                }
                other => return Err(snapshot::err(format!("node {i}: unknown kind {other}"))),
            });
        }
        let dimension = io::nullable(doc, "dimension", io::field_usize)?;
        Ok(RegressionTree {
            config: CartConfig {
                max_depth: io::field_usize(doc, "max_depth")?,
                min_leaf: io::field_usize(doc, "min_leaf")?,
                min_gain: io::field_hex_f64(doc, "min_gain")?,
            },
            nodes,
            prior: LeafPrior {
                mean: io::field_hex_f64(doc, "prior_mean")?,
                kappa: io::field_hex_f64(doc, "prior_kappa")?,
                shape: io::field_hex_f64(doc, "prior_shape")?,
                scale: io::field_hex_f64(doc, "prior_scale")?,
            },
            dimension,
            observations: io::field_usize(doc, "observations")?,
        })
    }

    fn leaf_for(&self, x: &[f64]) -> Result<&LeafStats> {
        if self.nodes.is_empty() {
            return Err(ModelError::NotFitted);
        }
        let mut index = 0;
        loop {
            match &self.nodes[index] {
                Node::Leaf { stats } => return Ok(stats),
                Node::Split {
                    dimension,
                    threshold,
                    left,
                    right,
                } => {
                    index = if x[*dimension] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
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

fn variance_of(indices: &[usize], ys: &[f64]) -> f64 {
    if indices.len() < 2 {
        return 0.0;
    }
    let mean = indices.iter().map(|&i| ys[i]).sum::<f64>() / indices.len() as f64;
    indices
        .iter()
        .map(|&i| (ys[i] - mean) * (ys[i] - mean))
        .sum::<f64>()
        / (indices.len() - 1) as f64
}

impl SurrogateModel for RegressionTree {
    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<()> {
        let dim = validate_training_set(xs, ys)?;
        self.nodes.clear();
        self.dimension = Some(dim);
        self.observations = ys.len();
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let var = ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / ys.len() as f64;
        self.prior = LeafPrior::weakly_informative(mean, (var * 0.25).max(1e-12));
        let indices: Vec<usize> = (0..ys.len()).collect();
        self.build(xs, ys, indices, 0);
        Ok(())
    }

    fn update(&mut self, x: &[f64], y: f64) -> Result<()> {
        // A static tree cannot restructure itself; the new observation is
        // absorbed into the leaf that contains it. (This limitation is
        // exactly why the dynamic tree exists.)
        self.check_dimension(x)?;
        crate::validate_observation(x, y)?;
        let mut index = 0;
        loop {
            match &mut self.nodes[index] {
                Node::Leaf { stats } => {
                    stats.push(y);
                    self.observations += 1;
                    return Ok(());
                }
                Node::Split {
                    dimension,
                    threshold,
                    left,
                    right,
                } => {
                    index = if x[*dimension] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn predict(&self, x: &[f64]) -> Result<Prediction> {
        self.check_dimension(x)?;
        let stats = self.leaf_for(x)?;
        let (mean, variance) = stats.predictive_mean_variance(&self.prior);
        Ok(Prediction::new(mean, variance))
    }

    fn predict_batch(&self, inputs: &[&[f64]]) -> Result<Vec<Prediction>> {
        // Tree traversals are independent; evaluate the batch in parallel
        // with order-preserving write-back.
        inputs.par_iter().map(|x| self.predict(x)).collect()
    }

    fn observation_count(&self) -> usize {
        self.observations
    }

    fn dimension(&self) -> Option<usize> {
        self.dimension
    }

    fn snapshot(&self) -> Result<Snapshot> {
        let n = self.nodes.len();
        let mut kinds = Vec::with_capacity(n);
        let mut dims = Vec::with_capacity(n);
        let mut thresholds = Vec::with_capacity(n);
        let mut lefts = Vec::with_capacity(n);
        let mut rights = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        let mut means = Vec::with_capacity(n);
        let mut m2s = Vec::with_capacity(n);
        let mut mins = Vec::with_capacity(n);
        let mut maxs = Vec::with_capacity(n);
        for node in &self.nodes {
            match node {
                Node::Leaf { stats } => {
                    let (count, mean, m2, min, max) = stats.parts();
                    kinds.push(0u32);
                    dims.push(0);
                    thresholds.push(0.0);
                    lefts.push(0);
                    rights.push(0);
                    counts.push(u32::try_from(count).map_err(|_| {
                        snapshot::err("leaf count exceeds the u32 snapshot column")
                    })?);
                    means.push(mean);
                    m2s.push(m2);
                    mins.push(min);
                    maxs.push(max);
                }
                Node::Split {
                    dimension,
                    threshold,
                    left,
                    right,
                } => {
                    kinds.push(1);
                    dims.push(*dimension as u32);
                    thresholds.push(*threshold);
                    lefts.push(*left as u32);
                    rights.push(*right as u32);
                    counts.push(0);
                    means.push(0.0);
                    m2s.push(0.0);
                    mins.push(0.0);
                    maxs.push(0.0);
                }
            }
        }
        let mut fields = snapshot::header("cart");
        fields.extend([
            ("max_depth", io::int(self.config.max_depth as u64)?),
            ("min_leaf", io::int(self.config.min_leaf as u64)?),
            ("min_gain", io::hex_f64(self.config.min_gain)),
            ("node_kind", io::hex_u32s(kinds)),
            ("node_dimension", io::hex_u32s(dims)),
            ("node_threshold", io::hex_f64s(thresholds)),
            ("node_left", io::hex_u32s(lefts)),
            ("node_right", io::hex_u32s(rights)),
            ("leaf_count", io::hex_u32s(counts)),
            ("leaf_mean", io::hex_f64s(means)),
            ("leaf_m2", io::hex_f64s(m2s)),
            ("leaf_min", io::hex_f64s(mins)),
            ("leaf_max", io::hex_f64s(maxs)),
            ("prior_mean", io::hex_f64(self.prior.mean)),
            ("prior_kappa", io::hex_f64(self.prior.kappa)),
            ("prior_shape", io::hex_f64(self.prior.shape)),
            ("prior_scale", io::hex_f64(self.prior.scale)),
            (
                "dimension",
                match self.dimension {
                    None => JsonValue::Null,
                    Some(d) => io::int(d as u64)?,
                },
            ),
            ("observations", io::int(self.observations as u64)?),
        ]);
        Ok(io::object(fields))
    }
}

impl ActiveSurrogate for RegressionTree {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_views;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // A step function: 1.0 below x = 0.5, 3.0 above.
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] <= 0.5 { 1.0 } else { 3.0 })
            .collect();
        (xs, ys)
    }

    #[test]
    fn learns_a_step_function() {
        let (xs, ys) = step_data();
        let mut tree = RegressionTree::with_defaults();
        tree.fit(&row_views(&xs), &ys).unwrap();
        assert!((tree.predict(&[0.2]).unwrap().mean - 1.0).abs() < 0.1);
        assert!((tree.predict(&[0.8]).unwrap().mean - 3.0).abs() < 0.1);
        assert!(tree.leaf_count() >= 2);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![5.0; 20];
        let mut tree = RegressionTree::with_defaults();
        tree.fit(&row_views(&xs), &ys).unwrap();
        assert_eq!(tree.leaf_count(), 1);
        assert!((tree.predict(&[7.5]).unwrap().mean - 5.0).abs() < 0.05);
    }

    #[test]
    fn respects_max_depth() {
        let (xs, ys) = step_data();
        let mut tree = RegressionTree::new(CartConfig {
            max_depth: 1,
            ..Default::default()
        });
        tree.fit(&row_views(&xs), &ys).unwrap();
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn update_shifts_leaf_predictions() {
        let (xs, ys) = step_data();
        let mut tree = RegressionTree::with_defaults();
        tree.fit(&row_views(&xs), &ys).unwrap();
        let before = tree.predict(&[0.2]).unwrap().mean;
        for _ in 0..200 {
            tree.update(&[0.2], 2.0).unwrap();
        }
        let after = tree.predict(&[0.2]).unwrap().mean;
        assert!(after > before, "leaf mean should move towards the new data");
        assert_eq!(tree.observation_count(), 40 + 200);
    }

    #[test]
    fn predict_before_fit_is_an_error() {
        let tree = RegressionTree::with_defaults();
        assert_eq!(tree.predict(&[1.0]).unwrap_err(), ModelError::NotFitted);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let (xs, ys) = step_data();
        let mut tree = RegressionTree::with_defaults();
        tree.fit(&row_views(&xs), &ys).unwrap();
        assert!(matches!(
            tree.predict(&[1.0, 2.0]),
            Err(ModelError::DimensionMismatch {
                expected: 1,
                actual: 2
            })
        ));
    }

    #[test]
    fn two_dimensional_interaction_is_partially_captured() {
        // y depends on both dimensions; check the tree differentiates the corners.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..15 {
            for j in 0..15 {
                let a = i as f64 / 14.0;
                let b = j as f64 / 14.0;
                xs.push(vec![a, b]);
                ys.push(if a > 0.5 && b > 0.5 { 4.0 } else { 1.0 });
            }
        }
        let mut tree = RegressionTree::with_defaults();
        tree.fit(&row_views(&xs), &ys).unwrap();
        assert!(tree.predict(&[0.9, 0.9]).unwrap().mean > 3.0);
        assert!(tree.predict(&[0.1, 0.9]).unwrap().mean < 2.0);
    }

    #[test]
    fn variance_is_higher_in_noisy_regions() {
        // Left half is quiet, right half is noisy.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
            let x = i as f64 / 59.0;
            xs.push(vec![x]);
            if x <= 0.5 {
                ys.push(1.0 + 0.001 * (i % 3) as f64);
            } else {
                ys.push(3.0 + ((i % 7) as f64 - 3.0) * 0.5);
            }
        }
        let mut tree = RegressionTree::with_defaults();
        tree.fit(&row_views(&xs), &ys).unwrap();
        let quiet = tree.predict(&[0.25]).unwrap().variance;
        let noisy = tree.predict(&[0.75]).unwrap().variance;
        assert!(noisy > quiet);
    }
}
