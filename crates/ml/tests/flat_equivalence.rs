//! Property tests: the vote-compiled forest layout ([`FlatForest`]) is
//! observationally identical to the recursive tree representation — for
//! arbitrary fitted forests, arbitrary probes, and arbitrary feature
//! masks baked at flatten time — and its tree-outer bounded kernel
//! prunes exactly the rows, and returns exactly the scores, of the
//! row-outer reference below.

use briq_ml::flat::FlatForest;
use briq_ml::tree::{DecisionTree, Node};
use briq_ml::{Dataset, RandomForest, RandomForestConfig};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// A random binary-labeled dataset with `n` rows over `nf` features.
fn random_dataset(n: usize, nf: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dataset::new();
    for _ in 0..n {
        let row: Vec<f64> = (0..nf).map(|_| rng.random_range(-1.0..1.0)).collect();
        // Label correlates with the first feature, with noise, so trees
        // actually grow splits.
        let label = row[0] + rng.random_range(-0.4..0.4) > 0.0;
        d.push(row, label);
    }
    d
}

/// `x` with the features `keep` drops read as 0.0 — what a baked mask
/// does to a recursive traversal.
fn zeroed(x: &[f64], keep: &impl Fn(usize) -> bool) -> Vec<f64> {
    x.iter()
        .enumerate()
        .map(|(f, &v)| if keep(f) { v } else { 0.0 })
        .collect()
}

/// Whether the subtree at `id` holds a leaf that votes "related" and is
/// reachable with the dropped features read as 0.0.
fn can_vote(nodes: &[Node], id: usize, keep: &impl Fn(usize) -> bool) -> bool {
    match &nodes[id] {
        Node::Leaf { prob } => *prob >= 0.5,
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            if !keep(*feature) {
                let next = if 0.0 <= *threshold { *left } else { *right };
                can_vote(nodes, next, keep)
            } else {
                can_vote(nodes, *left, keep) || can_vote(nodes, *right, keep)
            }
        }
    }
}

/// Reference bounded scorer: rows outermost, each row walking the
/// recursive trees in order and stopping once the votes so far plus every
/// remaining tree that can still vote "related" fall strictly below its
/// cut. Returns the pruned flags and the survivors' scores (`NaN` for a
/// pruned row).
fn reference_bounded(
    trees: &[DecisionTree],
    keep: &impl Fn(usize) -> bool,
    rows: &[f64],
    stride: usize,
    cuts: &[f64],
) -> (Vec<bool>, Vec<f64>) {
    if trees.is_empty() {
        return (vec![false; cuts.len()], vec![0.5; cuts.len()]);
    }
    let n_trees = trees.len() as f64;
    let mut suffix_possible = vec![0u32; trees.len() + 1];
    for t in (0..trees.len()).rev() {
        suffix_possible[t] = suffix_possible[t + 1] + can_vote(trees[t].nodes(), 0, keep) as u32;
    }
    rows.chunks_exact(stride)
        .zip(cuts)
        .map(|(row, &cut)| {
            let x = zeroed(row, keep);
            let mut votes = 0u32;
            for (tree, &possible) in trees.iter().zip(&suffix_possible) {
                if ((votes + possible) as f64) / n_trees < cut {
                    return (true, f64::NAN);
                }
                votes += tree.predict(&x) as u32;
            }
            (false, votes as f64 / n_trees)
        })
        .unzip()
}

proptest! {
    /// Flat traversal of an arbitrary fitted forest returns exactly the
    /// recursive probability on arbitrary probes.
    #[test]
    fn flat_forest_equals_recursive(
        seed in 0u64..500,
        n in 12usize..80,
        nf in 1usize..6,
        n_trees in 1usize..12,
        probe_seed in 0u64..100,
    ) {
        let data = random_dataset(n, nf, seed);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig { n_trees, seed, ..Default::default() },
        );
        let flat = FlatForest::from_forest(&rf);
        prop_assert_eq!(flat.n_trees(), rf.n_trees());
        let mut rng = StdRng::seed_from_u64(probe_seed);
        for _ in 0..25 {
            let x: Vec<f64> = (0..nf).map(|_| rng.random_range(-2.0..2.0)).collect();
            prop_assert_eq!(
                flat.predict_proba_slice(&x).to_bits(),
                rf.predict_proba(&x).to_bits()
            );
            prop_assert_eq!(flat.predict_slice(&x), rf.predict(&x));
        }
    }

    /// Each compiled tree votes exactly as its recursive tree predicts,
    /// with or without a baked mask.
    #[test]
    fn tree_vote_equals_recursive_predict(
        seed in 0u64..500,
        n in 5usize..60,
        nf in 1usize..5,
        n_trees in 1usize..8,
        mask_bits in 0usize..31,
    ) {
        let data = random_dataset(n, nf, seed);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig { n_trees, seed, ..Default::default() },
        );
        let keep = |f: usize| mask_bits & (1 << f) != 0;
        let flat = FlatForest::from_forest_masked(&rf, keep);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..25 {
            let x: Vec<f64> = (0..nf).map(|_| rng.random_range(-2.0..2.0)).collect();
            for (t, tree) in rf.trees().iter().enumerate() {
                prop_assert_eq!(flat.tree_vote(t, &x), tree.predict(&zeroed(&x, &keep)));
            }
        }
    }

    /// Block-wise scoring (trees outer, rows inner) is bit-identical to
    /// per-row scoring for arbitrary forests and block sizes.
    #[test]
    fn score_block_equals_per_row_score(
        seed in 0u64..400,
        n in 12usize..80,
        nf in 1usize..6,
        n_trees in 1usize..12,
        n_rows in 0usize..64,
    ) {
        let data = random_dataset(n, nf, seed);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig { n_trees, seed, ..Default::default() },
        );
        let flat = FlatForest::from_forest(&rf);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB10C);
        let rows: Vec<f64> = (0..n_rows * nf).map(|_| rng.random_range(-2.0..2.0)).collect();
        let mut out = vec![f64::NAN; n_rows];
        flat.score_block(&rows, nf, &mut out);
        for (o, row) in out.iter().zip(rows.chunks_exact(nf)) {
            prop_assert_eq!(o.to_bits(), flat.predict_proba_slice(row).to_bits());
        }
    }

    /// The tree-outer bounded kernel prunes exactly the rows the
    /// row-outer reference prunes and gives every survivor the same bits,
    /// for arbitrary forests, masks and cuts (including both infinities);
    /// a pruned row's exact score is below its cut.
    #[test]
    fn bounded_block_matches_row_outer_reference(
        seed in 0u64..400,
        n in 12usize..80,
        nf in 1usize..6,
        n_trees in 1usize..12,
        n_rows in 0usize..48,
        cut_seed in 0u64..100,
        mask_bits in 0usize..63,
    ) {
        let data = random_dataset(n, nf, seed);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig { n_trees, seed, ..Default::default() },
        );
        let keep = |f: usize| mask_bits & (1 << f) != 0;
        let flat = FlatForest::from_forest_masked(&rf, keep);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC07);
        let rows: Vec<f64> = (0..n_rows * nf).map(|_| rng.random_range(-2.0..2.0)).collect();
        let mut cut_rng = StdRng::seed_from_u64(cut_seed);
        let cuts: Vec<f64> = (0..n_rows)
            .map(|i| match i % 5 {
                0 => f64::NEG_INFINITY,
                1 => f64::INFINITY,
                _ => cut_rng.random_range(-0.1..1.1),
            })
            .collect();
        let mut out = vec![f64::NAN; n_rows];
        let mut pruned = vec![false; n_rows];
        let mut live = Vec::new();
        let n_pruned = flat.score_block_bounded(&rows, nf, &cuts, &mut out, &mut pruned, &mut live);
        let (want_pruned, want) = reference_bounded(rf.trees(), &keep, &rows, nf, &cuts);
        prop_assert_eq!(&pruned, &want_pruned);
        prop_assert_eq!(n_pruned, want_pruned.iter().filter(|&&p| p).count());
        for i in 0..n_rows {
            if pruned[i] {
                let exact = flat.predict_proba_slice(&rows[i * nf..(i + 1) * nf]);
                prop_assert!(exact < cuts[i], "row {} score {} >= cut {}", i, exact, cuts[i]);
            } else {
                prop_assert_eq!(out[i].to_bits(), want[i].to_bits(), "row {}", i);
            }
        }
    }

    /// Baking a feature mask into the flat layout equals zeroing the
    /// masked features of every probe before recursive traversal.
    #[test]
    fn mask_baking_equals_input_zeroing(
        seed in 0u64..300,
        n in 12usize..60,
        nf in 2usize..6,
        mask_bits in 0usize..63,
    ) {
        let data = random_dataset(n, nf, seed);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig { n_trees: 6, seed, ..Default::default() },
        );
        let keep = |f: usize| mask_bits & (1 << f) != 0;
        let flat = FlatForest::from_forest_masked(&rf, keep);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        for _ in 0..25 {
            let x: Vec<f64> = (0..nf).map(|_| rng.random_range(-2.0..2.0)).collect();
            prop_assert_eq!(
                flat.predict_proba_slice(&x).to_bits(),
                rf.predict_proba(&zeroed(&x, &keep)).to_bits()
            );
        }
    }
}
