//! Vote-compiled, packed forest layout for allocation-free scoring.
//!
//! [`crate::tree::DecisionTree`] stores an enum-per-node `Vec`, which is
//! the right shape for growing but costs a discriminant branch and a
//! scattered load per hop when scoring. [`FlatForest`] re-lays every tree
//! of a [`RandomForest`] into one `Vec` of 16-byte nodes — threshold,
//! right-child offset, feature index (with [`LEAF`] as the sentinel) and
//! leaf vote — written in pre-order, so a split's left child is always
//! the next node and a traversal is a tight loop over one array with no
//! enum matching and no per-call allocation.
//!
//! Scores only count votes (`leaf probability >= 0.5`), so each leaf is
//! *compiled* to its vote at flatten time, and every split whose two
//! children compile to the same vote collapses into that leaf. A tree
//! that can never vote "related" becomes a single "no" leaf, which is
//! what the bounded kernel's remaining-vote bound counts.
//!
//! The flattening can also *bake in* a feature mask: a split on a dropped
//! feature is resolved at build time by splicing in whichever child the
//! zeroed feature value would select (`0.0 <= threshold` goes left). This
//! is bit-identical to zeroing the masked columns of the input row before
//! a recursive traversal, for any forest.
//!
//! Three scoring entry points share the layout:
//!
//! * [`FlatForest::predict_proba_slice`] — one row, trees in index
//!   order;
//! * [`FlatForest::score_block`] — a whole row block with the **tree
//!   loop outermost**, so each tree's nodes stay hot across the block;
//!   summation order per row matches `predict_proba_slice` exactly, so
//!   block scores are bit-identical to row-at-a-time scores;
//! * [`FlatForest::score_block_bounded`] — `score_block` plus exact
//!   early abandonment: per-tree `suffix_possible` vote bounds let a row
//!   stop as soon as its final score *provably* falls below a
//!   caller-supplied cut. Trees stay the outer loop over a compacting
//!   list of live rows. Rows at or above the cut come out bit-identical;
//!   rows below it are reported as pruned, never mis-scored.
//!
//! `briq_core`'s scoring engine drives the block kernels on the
//! alignment hot path and reports their effect through the
//! observability counters `rows_deduped` / `pairs_pruned` /
//! `rows_scored_exhaustive` / `rows_scored_bounded` (DESIGN.md §11).

use crate::forest::RandomForest;
use crate::tree::Node;

/// Sentinel feature index marking a leaf node.
pub const LEAF: u16 = u16::MAX;

/// One packed node. On a split, rows with `x[feature] <= threshold` go
/// to the next node and the rest to `right`; on a leaf (`feature ==
/// LEAF`) only `vote` is meaningful.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    threshold: f64,
    right: u32,
    feature: u16,
    vote: bool,
}

const _: () = assert!(std::mem::size_of::<FlatNode>() == 16);

impl FlatNode {
    fn leaf(vote: bool) -> FlatNode {
        FlatNode {
            threshold: 0.0,
            right: 0,
            feature: LEAF,
            vote,
        }
    }

    fn is_leaf(&self) -> bool {
        self.feature == LEAF
    }
}

/// A [`RandomForest`] compiled to votes and packed for scoring.
///
/// Invariants: every entry of `roots` and every `right` offset of a
/// split is a valid index into `nodes`; a split's left child is the node
/// right after it; no split has two leaf children with the same vote.
#[derive(Debug, Clone, Default)]
pub struct FlatForest {
    nodes: Vec<FlatNode>,
    roots: Vec<u32>,
    /// `suffix_possible[t]` = number of trees in `t..n_trees` whose root
    /// is not a "no" leaf, i.e. an upper bound on the votes the
    /// remaining trees can still contribute. Length `n_trees + 1` (last
    /// entry 0).
    suffix_possible: Vec<u32>,
}

impl FlatForest {
    /// Flatten `forest` keeping every feature.
    pub fn from_forest(forest: &RandomForest) -> FlatForest {
        Self::from_forest_masked(forest, |_| true)
    }

    /// Flatten `forest`, baking the feature mask `keep` into the layout:
    /// splits on features with `keep(feature) == false` are replaced by
    /// the subtree a zeroed feature value would reach.
    pub fn from_forest_masked(forest: &RandomForest, keep: impl Fn(usize) -> bool) -> FlatForest {
        let mut flat = FlatForest::default();
        for tree in forest.trees() {
            debug_assert!(!tree.nodes().is_empty(), "a grown tree always has a root");
            let root = flat.emit(tree.nodes(), 0, &keep);
            flat.roots.push(root);
        }
        flat.suffix_possible = vec![0; flat.roots.len() + 1];
        for t in (0..flat.roots.len()).rev() {
            let root = flat.nodes[flat.roots[t] as usize];
            let possible = (!root.is_leaf() || root.vote) as u32;
            flat.suffix_possible[t] = flat.suffix_possible[t + 1] + possible;
        }
        flat
    }

    /// Emit the subtree rooted at `id` in pre-order, compiled to votes;
    /// returns its flat offset. Recursion depth is bounded by the
    /// tree-growing `max_depth`, which is small by construction.
    fn emit(&mut self, nodes: &[Node], id: usize, keep: &impl Fn(usize) -> bool) -> u32 {
        let at = self.nodes.len();
        assert!(at < u32::MAX as usize, "forest exceeds the u32 layout");
        match &nodes[id] {
            Node::Leaf { prob } => self.nodes.push(FlatNode::leaf(*prob >= 0.5)),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if !keep(*feature) {
                    // A masked feature reads as 0.0; resolve the branch now.
                    let next = if 0.0 <= *threshold { *left } else { *right };
                    return self.emit(nodes, next, keep);
                }
                assert!(
                    *feature < LEAF as usize,
                    "feature index {feature} exceeds the u16 layout"
                );
                self.nodes.push(FlatNode {
                    threshold: *threshold,
                    right: 0,
                    feature: *feature as u16,
                    vote: false,
                });
                let l = self.emit(nodes, *left, keep) as usize;
                let r = self.emit(nodes, *right, keep);
                let (ln, rn) = (self.nodes[l], self.nodes[r as usize]);
                if ln.is_leaf() && rn.is_leaf() && ln.vote == rn.vote {
                    // Both branches vote alike: the split cannot matter.
                    self.nodes.truncate(at);
                    self.nodes.push(FlatNode::leaf(ln.vote));
                } else {
                    self.nodes[at].right = r;
                }
            }
        }
        at as u32
    }

    /// Whether tree `tree` votes "related" for `x` — exactly
    /// `DecisionTree::predict` on the (mask-zeroed) row. No allocation.
    pub fn tree_vote(&self, tree: usize, x: &[f64]) -> bool {
        self.vote_from(self.roots[tree] as usize, x)
    }

    /// Fraction of trees voting "related" — identical arithmetic to
    /// [`RandomForest::predict_proba`], with no copy and no allocation.
    /// An empty forest returns the uninformative 0.5.
    pub fn predict_proba_slice(&self, x: &[f64]) -> f64 {
        if self.roots.is_empty() {
            return 0.5;
        }
        let votes = (0..self.roots.len())
            .filter(|&t| self.tree_vote(t, x))
            .count();
        votes as f64 / self.roots.len() as f64
    }

    /// Hard prediction at threshold 0.5 (majority vote).
    pub fn predict_slice(&self, x: &[f64]) -> bool {
        self.predict_proba_slice(x) >= 0.5
    }

    /// The vote of the compiled subtree at flat offset `at` for `x`.
    #[inline]
    fn vote_from(&self, mut at: usize, x: &[f64]) -> bool {
        loop {
            let node = self.nodes[at];
            if node.is_leaf() {
                return node.vote;
            }
            at = if x[node.feature as usize] <= node.threshold {
                at + 1
            } else {
                node.right as usize
            };
        }
    }

    /// Score a block of rows laid out row-major with the given `stride`
    /// (`rows.len() == out.len() * stride`). Trees form the outer loop so
    /// each tree's nodes stay hot across the whole block; per-row results
    /// are bit-identical to [`FlatForest::predict_proba_slice`] (votes
    /// accumulate as exact small integers in f64, divided once at the
    /// end). An empty forest scores every row 0.5.
    pub fn score_block(&self, rows: &[f64], stride: usize, out: &mut [f64]) {
        assert!(stride > 0, "stride must be positive");
        assert_eq!(rows.len(), out.len() * stride, "rows/out shape mismatch");
        if self.roots.is_empty() {
            out.fill(0.5);
            return;
        }
        out.fill(0.0);
        for &root in &self.roots {
            for (o, row) in out.iter_mut().zip(rows.chunks_exact(stride)) {
                if self.vote_from(root as usize, row) {
                    *o += 1.0;
                }
            }
        }
        let n_trees = self.roots.len() as f64;
        for o in out.iter_mut() {
            *o /= n_trees;
        }
    }

    /// Score a block of rows with per-row pruning cuts: row `i` is
    /// abandoned (`pruned[i] = true`, `out[i]` unspecified) as soon as
    /// `(votes_so_far + suffix_possible) / n_trees` falls strictly below
    /// `cuts[i]`, which proves the exact score would also be `< cuts[i]`.
    /// The bound is checked for every row before every tree, in tree
    /// order. Rows that survive receive their exact score, bit-identical
    /// to [`FlatForest::predict_proba_slice`]. Returns the number of rows
    /// pruned. A cut of `f64::NEG_INFINITY` disables pruning for a row;
    /// `f64::INFINITY` prunes it before any tree is evaluated.
    ///
    /// Trees form the outer loop over `live`, the caller's scratch list
    /// of not-yet-pruned rows, which is compacted after every tree; votes
    /// accumulate in `out`. Nothing is allocated once `live` has grown to
    /// the block size.
    pub fn score_block_bounded(
        &self,
        rows: &[f64],
        stride: usize,
        cuts: &[f64],
        out: &mut [f64],
        pruned: &mut [bool],
        live: &mut Vec<u32>,
    ) -> usize {
        assert!(stride > 0, "stride must be positive");
        assert_eq!(rows.len(), out.len() * stride, "rows/out shape mismatch");
        assert_eq!(cuts.len(), out.len(), "cuts/out shape mismatch");
        assert_eq!(pruned.len(), out.len(), "pruned/out shape mismatch");
        assert!(
            out.len() <= u32::MAX as usize,
            "block exceeds the u32 row index"
        );
        pruned.fill(false);
        if self.roots.is_empty() {
            out.fill(0.5);
            return 0;
        }
        out.fill(0.0);
        live.clear();
        live.extend(0..out.len() as u32);
        let n_trees = self.roots.len() as f64;
        for (&root, &possible) in self.roots.iter().zip(&self.suffix_possible) {
            let possible = possible as f64;
            let mut kept = 0;
            for k in 0..live.len() {
                let r = live[k] as usize;
                // Upper bound on the final score before evaluating this
                // tree: every not-yet-scored tree that *can* vote does.
                if (out[r] + possible) / n_trees < cuts[r] {
                    pruned[r] = true;
                    continue;
                }
                if self.vote_from(root as usize, &rows[r * stride..(r + 1) * stride]) {
                    out[r] += 1.0;
                }
                live[kept] = r as u32;
                kept += 1;
            }
            live.truncate(kept);
            if live.is_empty() {
                break;
            }
        }
        for &r in live.iter() {
            out[r as usize] /= n_trees;
        }
        out.len() - live.len()
    }

    /// Number of flattened trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total node count across all trees (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::RandomForestConfig;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn noisy(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            let x: f64 = rng.random_range(0.0..1.0);
            let y: f64 = rng.random_range(0.0..1.0);
            let z: f64 = rng.random_range(0.0..1.0);
            d.push(vec![x, y, z], x + 0.3 * y > 0.6);
        }
        d
    }

    #[test]
    fn flat_matches_recursive_on_random_probes() {
        let data = noisy(300, 11);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig {
                n_trees: 24,
                ..Default::default()
            },
        );
        let flat = FlatForest::from_forest(&rf);
        assert_eq!(flat.n_trees(), rf.n_trees());
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..500 {
            let x = [
                rng.random_range(-0.2..1.2),
                rng.random_range(-0.2..1.2),
                rng.random_range(-0.2..1.2),
            ];
            assert_eq!(flat.predict_proba_slice(&x), rf.predict_proba(&x));
            assert_eq!(flat.predict_slice(&x), rf.predict(&x));
        }
    }

    #[test]
    fn mask_baking_equals_zeroing_features() {
        let data = noisy(300, 13);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig {
                n_trees: 24,
                ..Default::default()
            },
        );
        // Drop feature 1: baked traversal must equal a recursive traversal
        // over the row with that column zeroed.
        let flat = FlatForest::from_forest_masked(&rf, |f| f != 1);
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..500 {
            let x = [
                rng.random_range(-0.2..1.2),
                rng.random_range(-0.2..1.2),
                rng.random_range(-0.2..1.2),
            ];
            let zeroed = [x[0], 0.0, x[2]];
            assert_eq!(flat.predict_proba_slice(&x), rf.predict_proba(&zeroed));
        }
    }

    #[test]
    fn compilation_never_adds_nodes_and_keeps_every_tree() {
        let data = noisy(300, 17);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig {
                n_trees: 24,
                ..Default::default()
            },
        );
        let recursive: usize = rf.trees().iter().map(|t| t.n_nodes()).sum();
        for flat in [
            FlatForest::from_forest(&rf),
            FlatForest::from_forest_masked(&rf, |f| f != 0),
        ] {
            assert_eq!(flat.n_trees(), rf.n_trees());
            assert!(
                flat.n_nodes() <= recursive,
                "{} > {recursive}",
                flat.n_nodes()
            );
            // No split survives with two leaf children voting alike.
            for (at, node) in flat.nodes.iter().enumerate() {
                if !node.is_leaf() {
                    let (l, r) = (flat.nodes[at + 1], flat.nodes[node.right as usize]);
                    assert!(
                        !(l.is_leaf() && r.is_leaf() && l.vote == r.vote),
                        "node {at}"
                    );
                }
            }
        }
        let compiled = FlatForest::from_forest(&rf).n_nodes();
        assert!(
            compiled < recursive,
            "noisy trees have same-vote sibling leaves"
        );
    }

    #[test]
    fn empty_forest_predicts_half() {
        let flat = FlatForest::default();
        assert_eq!(flat.predict_proba_slice(&[1.0]), 0.5);
    }

    fn random_block(n_rows: usize, stride: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_rows * stride)
            .map(|_| rng.random_range(-0.2..1.2))
            .collect()
    }

    #[test]
    fn score_block_matches_per_row_scoring() {
        let data = noisy(300, 21);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig {
                n_trees: 24,
                ..Default::default()
            },
        );
        let flat = FlatForest::from_forest(&rf);
        for n_rows in [0usize, 1, 7, 64, 200] {
            let rows = random_block(n_rows, 3, 22 + n_rows as u64);
            let mut out = vec![f64::NAN; n_rows];
            flat.score_block(&rows, 3, &mut out);
            for (o, row) in out.iter().zip(rows.chunks_exact(3)) {
                assert_eq!(o.to_bits(), flat.predict_proba_slice(row).to_bits());
            }
        }
    }

    #[test]
    fn bounded_scoring_is_exact_or_provably_below_cut() {
        let data = noisy(300, 23);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig {
                n_trees: 17,
                ..Default::default()
            },
        );
        let flat = FlatForest::from_forest(&rf);
        let n_rows = 150;
        let rows = random_block(n_rows, 3, 24);
        let mut rng = StdRng::seed_from_u64(25);
        let cuts: Vec<f64> = (0..n_rows)
            .map(|i| match i % 4 {
                0 => f64::NEG_INFINITY,
                1 => f64::INFINITY,
                _ => rng.random_range(0.0..1.0),
            })
            .collect();
        let mut out = vec![f64::NAN; n_rows];
        let mut pruned = vec![false; n_rows];
        let mut live = Vec::new();
        let n_pruned = flat.score_block_bounded(&rows, 3, &cuts, &mut out, &mut pruned, &mut live);
        assert_eq!(n_pruned, pruned.iter().filter(|&&p| p).count());
        assert!(n_pruned > 0, "infinite cuts must prune");
        let mut saw_survivor_above_cut = false;
        for i in 0..n_rows {
            let exact = flat.predict_proba_slice(&rows[i * 3..(i + 1) * 3]);
            if pruned[i] {
                assert!(exact < cuts[i], "pruned row {i} had score {exact} >= cut");
            } else {
                assert_eq!(out[i].to_bits(), exact.to_bits(), "row {i}");
                if exact >= cuts[i] {
                    saw_survivor_above_cut = true;
                }
            }
            if cuts[i] == f64::NEG_INFINITY {
                assert!(!pruned[i], "NEG_INFINITY cut must never prune");
            }
            if cuts[i] == f64::INFINITY {
                assert!(pruned[i], "INFINITY cut must always prune");
            }
        }
        assert!(saw_survivor_above_cut);
    }

    #[test]
    fn empty_forest_block_paths() {
        let flat = FlatForest::default();
        let rows = [0.0, 1.0];
        let mut out = [f64::NAN; 2];
        flat.score_block(&rows, 1, &mut out);
        assert_eq!(out, [0.5, 0.5]);
        let mut pruned = [true; 2];
        let n = flat.score_block_bounded(
            &rows,
            1,
            &[0.9, 0.1],
            &mut out,
            &mut pruned,
            &mut Vec::new(),
        );
        assert_eq!(n, 0);
        assert_eq!(out, [0.5, 0.5]);
        assert_eq!(pruned, [false, false]);
    }
}
