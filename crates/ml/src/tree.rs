//! CART decision tree for weighted binary classification.
//!
//! Splits minimize weighted Gini impurity. Supports the random feature
//! subsetting (`mtry`) that Random Forests rely on for decorrelation.

use crate::dataset::Dataset;
use rand::prelude::*;

/// Tree-growing configuration.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum total instance weight in a leaf.
    pub min_leaf_weight: f64,
    /// Number of random features considered per split; `0` = all.
    pub mtry: usize,
    /// Minimum Gini improvement to accept a split. The default of 0
    /// accepts zero-gain splits (needed for XOR-like interactions, and the
    /// standard behaviour of fully-grown Random Forest trees).
    pub min_gain: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_leaf_weight: 2.0,
            mtry: 0,
            min_gain: 0.0,
        }
    }
}

/// One node of a [`DecisionTree`]; children are indices into
/// [`DecisionTree::nodes`].
#[derive(Debug, Clone)]
pub enum Node {
    /// A terminal node.
    Leaf {
        /// Weighted fraction of positive examples in the leaf.
        prob: f64,
    },
    /// An internal node.
    Split {
        /// Index of the feature tested.
        feature: usize,
        /// Examples with `x[feature] <= threshold` go left.
        threshold: f64,
        /// Index of the left child.
        left: usize,
        /// Index of the right child.
        right: usize,
    },
}

/// A trained decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

struct Builder<'d> {
    data: &'d Dataset,
    cfg: TreeConfig,
    nodes: Vec<Node>,
    /// Feature filter: features with `keep(f) == false` are never chosen
    /// as splits. Identical to zeroing those columns (a constant column
    /// yields no valid split) without copying the matrix.
    keep: &'d dyn Fn(usize) -> bool,
}

impl DecisionTree {
    /// Grow a tree on `data` (all rows).
    pub fn fit(data: &Dataset, cfg: TreeConfig, rng: &mut impl Rng) -> DecisionTree {
        let indices: Vec<usize> = (0..data.len()).collect();
        Self::fit_on(data, &indices, cfg, rng)
    }

    /// Grow a tree on the given row indices (bootstrap sample).
    pub fn fit_on(
        data: &Dataset,
        indices: &[usize],
        cfg: TreeConfig,
        rng: &mut impl Rng,
    ) -> DecisionTree {
        Self::fit_on_masked(data, indices, cfg, rng, &|_| true)
    }

    /// [`DecisionTree::fit_on`] with a feature filter: splits only consider
    /// features where `keep(f)` holds. Bit-identical (structure and RNG
    /// stream) to fitting on a copy of `data` with the dropped columns
    /// zeroed, without materializing that copy.
    pub fn fit_on_masked(
        data: &Dataset,
        indices: &[usize],
        cfg: TreeConfig,
        rng: &mut impl Rng,
        keep: &dyn Fn(usize) -> bool,
    ) -> DecisionTree {
        let mut b = Builder {
            data,
            cfg,
            nodes: Vec::new(),
            keep,
        };
        let mut idx = indices.to_vec();
        b.grow(&mut idx, 0, rng);
        DecisionTree { nodes: b.nodes }
    }

    /// Probability that `x` belongs to the positive class (leaf fraction).
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { prob } => return *prob,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Number of nodes (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Raw node storage, root first: the input of the flattened layout
    /// in [`crate::flat`] and of its test-only reference.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

impl<'d> Builder<'d> {
    /// Grow the subtree for `indices`; returns its node id.
    fn grow(&mut self, indices: &mut [usize], depth: usize, rng: &mut impl Rng) -> usize {
        let (w_total, w_pos) = self.mass(indices);
        let prob = if w_total > 0.0 { w_pos / w_total } else { 0.5 };

        let pure = w_pos <= f64::EPSILON || (w_total - w_pos) <= f64::EPSILON;
        if depth >= self.cfg.max_depth || pure || w_total < 2.0 * self.cfg.min_leaf_weight {
            return self.leaf(prob);
        }
        match self.best_split(indices, rng) {
            Some((feature, threshold, gain)) if gain >= self.cfg.min_gain => {
                // Partition indices in place.
                let mid = partition(indices, |&i| self.data.features[i][feature] <= threshold);
                if mid == 0 || mid == indices.len() {
                    return self.leaf(prob);
                }
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf { prob }); // placeholder
                let (l_idx, r_idx) = indices.split_at_mut(mid);
                let left = self.grow(l_idx, depth + 1, rng);
                let right = self.grow(r_idx, depth + 1, rng);
                self.nodes[id] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                id
            }
            _ => self.leaf(prob),
        }
    }

    fn leaf(&mut self, prob: f64) -> usize {
        self.nodes.push(Node::Leaf { prob });
        self.nodes.len() - 1
    }

    fn mass(&self, indices: &[usize]) -> (f64, f64) {
        let mut t = 0.0;
        let mut p = 0.0;
        for &i in indices {
            let w = self.data.weights[i];
            t += w;
            if self.data.labels[i] {
                p += w;
            }
        }
        (t, p)
    }

    /// Find the best (feature, threshold, gain) over a random feature
    /// subset. When the sampled subset yields no valid split (all selected
    /// features constant on this node), fall back to the full feature set
    /// — the usual remedy for sparse feature spaces.
    fn best_split(&self, indices: &[usize], rng: &mut impl Rng) -> Option<(usize, f64, f64)> {
        let n_features = self.data.n_features();
        let mtry = if self.cfg.mtry == 0 {
            n_features
        } else {
            self.cfg.mtry.min(n_features)
        };
        if mtry < n_features {
            let mut feats: Vec<usize> = (0..n_features).collect();
            feats.shuffle(rng);
            feats.truncate(mtry);
            if let Some(found) = self.best_split_over(indices, &feats) {
                return Some(found);
            }
        }
        let all: Vec<usize> = (0..n_features).collect();
        self.best_split_over(indices, &all)
    }

    fn best_split_over(&self, indices: &[usize], feats: &[usize]) -> Option<(usize, f64, f64)> {
        let (w_total, w_pos) = self.mass(indices);
        let parent_gini = gini(w_pos, w_total);
        let mut best: Option<(usize, f64, f64)> = None;

        let mut order: Vec<usize> = indices.to_vec();
        for &f in feats {
            if !(self.keep)(f) {
                // A dropped feature behaves like a constant column: it can
                // never produce a valid split, so skip the work outright.
                continue;
            }
            order.sort_by(|&a, &b| {
                self.data.features[a][f]
                    .partial_cmp(&self.data.features[b][f])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut lw = 0.0;
            let mut lp = 0.0;
            for k in 0..order.len().saturating_sub(1) {
                let i = order[k];
                lw += self.data.weights[i];
                if self.data.labels[i] {
                    lp += self.data.weights[i];
                }
                let v = self.data.features[i][f];
                let v_next = self.data.features[order[k + 1]][f];
                if v == v_next {
                    continue; // can't split between equal values
                }
                let rw = w_total - lw;
                let rp = w_pos - lp;
                if lw < self.cfg.min_leaf_weight || rw < self.cfg.min_leaf_weight {
                    continue;
                }
                let child = (lw / w_total) * gini(lp, lw) + (rw / w_total) * gini(rp, rw);
                let gain = parent_gini - child;
                let threshold = 0.5 * (v + v_next);
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, threshold, gain));
                }
            }
        }
        best
    }
}

/// Weighted Gini impurity of a node with positive mass `p` of total `t`.
fn gini(p: f64, t: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    let q = p / t;
    2.0 * q * (1.0 - q)
}

/// Stable in-place partition; returns the number of elements satisfying
/// the predicate (moved to the front).
fn partition<T: Copy, F: Fn(&T) -> bool>(xs: &mut [T], pred: F) -> usize {
    let mut buf: Vec<T> = Vec::with_capacity(xs.len());
    let mut mid = 0;
    for &x in xs.iter() {
        if pred(&x) {
            buf.insert(mid, x);
            mid += 1;
        } else {
            buf.push(x);
        }
    }
    xs.copy_from_slice(&buf);
    mid
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// Linearly separable on feature 0.
    fn separable() -> Dataset {
        let mut d = Dataset::new();
        for i in 0..50 {
            d.push(vec![i as f64, (i % 7) as f64], i >= 25);
        }
        d
    }

    #[test]
    fn learns_separable_data() {
        let d = separable();
        let t = DecisionTree::fit(&d, TreeConfig::default(), &mut rng());
        for i in 0..50 {
            assert_eq!(t.predict(&[i as f64, 0.0]), i >= 25, "at {i}");
        }
    }

    #[test]
    fn leaf_probability_reflects_mixture() {
        // No split possible (all features equal) → single leaf with the
        // positive fraction.
        let mut d = Dataset::new();
        for i in 0..10 {
            d.push(vec![1.0], i < 3);
        }
        let t = DecisionTree::fit(&d, TreeConfig::default(), &mut rng());
        assert!((t.predict_proba(&[1.0]) - 0.3).abs() < 1e-9);
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn respects_max_depth() {
        let d = separable();
        let cfg = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let t = DecisionTree::fit(&d, cfg, &mut rng());
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn weights_shift_the_decision() {
        // Same features, conflicting labels; weights decide the leaf prob.
        let mut d = Dataset::new();
        d.push_weighted(vec![0.0], true, 9.0);
        d.push_weighted(vec![0.0], false, 1.0);
        let t = DecisionTree::fit(&d, TreeConfig::default(), &mut rng());
        assert!((t.predict_proba(&[0.0]) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn xor_needs_depth_two() {
        let mut d = Dataset::new();
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            for _ in 0..5 {
                d.push(vec![a, b], (a == 1.0) != (b == 1.0));
            }
        }
        let cfg = TreeConfig {
            min_leaf_weight: 1.0,
            ..Default::default()
        };
        let t = DecisionTree::fit(&d, cfg, &mut rng());
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            assert_eq!(t.predict(&[a, b]), (a == 1.0) != (b == 1.0));
        }
    }

    #[test]
    fn empty_dataset_predicts_half() {
        let d = Dataset::new();
        let t = DecisionTree::fit(&d, TreeConfig::default(), &mut rng());
        assert_eq!(t.predict_proba(&[]), 0.5);
    }

    #[test]
    fn partition_is_stable() {
        let mut xs = [5, 2, 8, 1, 9, 3];
        let mid = partition(&mut xs, |&x| x < 5);
        assert_eq!(mid, 3);
        assert_eq!(&xs[..3], &[2, 1, 3]);
        assert_eq!(&xs[3..], &[5, 8, 9]);
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(0.0, 10.0), 0.0);
        assert_eq!(gini(10.0, 10.0), 0.0);
        assert!((gini(5.0, 10.0) - 0.5).abs() < 1e-12);
    }
}

briq_json::json_struct!(TreeConfig {
    max_depth,
    min_leaf_weight,
    mtry,
    min_gain
});

impl briq_json::ToJson for DecisionTree {
    fn to_json(&self) -> briq_json::Value {
        briq_json::Value::Object(vec![("nodes".to_string(), self.nodes.to_json())])
    }
}

// Hand-written so a malformed model file is an `Err`, never a panic or
// an endless walk: the scoring and flattening code follows child indices
// without checking them.
impl briq_json::FromJson for DecisionTree {
    fn from_json(v: &briq_json::Value) -> briq_json::Result<Self> {
        let obj = v
            .as_object()
            .ok_or_else(|| briq_json::JsonError::new("expected DecisionTree object"))?;
        let nodes: Vec<Node> = briq_json::field(obj, "nodes")?;
        check_shape(&nodes).map_err(briq_json::JsonError::new)?;
        Ok(DecisionTree { nodes })
    }
}

/// Accept `nodes` only if it is a tree rooted at index 0: non-empty,
/// every child index greater than its parent's and in range, and every
/// non-root node referenced exactly once. Those three make every node
/// reachable from the root along strictly increasing indices, so any
/// walk from the root terminates and visits each node at most once.
fn check_shape(nodes: &[Node]) -> Result<(), String> {
    if nodes.is_empty() {
        return Err("decision tree has no nodes".to_string());
    }
    let mut referenced = vec![false; nodes.len()];
    for (id, node) in nodes.iter().enumerate() {
        if let Node::Split { left, right, .. } = *node {
            for child in [left, right] {
                if child <= id || child >= nodes.len() {
                    return Err(format!(
                        "split {id} has child {child} outside {}..{}",
                        id + 1,
                        nodes.len()
                    ));
                }
                if std::mem::replace(&mut referenced[child], true) {
                    return Err(format!("node {child} has more than one parent"));
                }
            }
        }
    }
    match referenced[1..].iter().position(|r| !r) {
        Some(orphan) => Err(format!("node {} has no parent", orphan + 1)),
        None => Ok(()),
    }
}

// `Node` has struct variants, which the derive-style macros don't cover;
// the encoding mirrors json_enum!'s externally-tagged form.
impl briq_json::ToJson for Node {
    fn to_json(&self) -> briq_json::Value {
        use briq_json::Value;
        match self {
            Node::Leaf { prob } => Value::Object(vec![(
                "Leaf".to_string(),
                Value::Object(vec![("prob".to_string(), prob.to_json())]),
            )]),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => Value::Object(vec![(
                "Split".to_string(),
                Value::Object(vec![
                    ("feature".to_string(), feature.to_json()),
                    ("threshold".to_string(), threshold.to_json()),
                    ("left".to_string(), left.to_json()),
                    ("right".to_string(), right.to_json()),
                ]),
            )]),
        }
    }
}

impl briq_json::FromJson for Node {
    fn from_json(v: &briq_json::Value) -> briq_json::Result<Self> {
        if let Some(inner) = v.get_variant("Leaf") {
            let obj = inner
                .as_object()
                .ok_or_else(|| briq_json::JsonError::new("expected Leaf object"))?;
            Ok(Node::Leaf {
                prob: briq_json::field(obj, "prob")?,
            })
        } else if let Some(inner) = v.get_variant("Split") {
            let obj = inner
                .as_object()
                .ok_or_else(|| briq_json::JsonError::new("expected Split object"))?;
            Ok(Node::Split {
                feature: briq_json::field(obj, "feature")?,
                threshold: briq_json::field(obj, "threshold")?,
                left: briq_json::field(obj, "left")?,
                right: briq_json::field(obj, "right")?,
            })
        } else {
            Err(briq_json::JsonError::new("unknown Node variant"))
        }
    }
}
