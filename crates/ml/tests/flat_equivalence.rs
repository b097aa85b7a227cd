//! Property tests: the flattened SoA forest layout ([`FlatForest`]) is
//! observationally identical to the recursive tree representation — for
//! arbitrary fitted forests, arbitrary probes, and arbitrary feature
//! masks baked at flatten time.

use briq_ml::flat::FlatForest;
use briq_ml::tree::{DecisionTree, TreeConfig};
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

    /// A single fitted tree flattens to the same leaf probability as its
    /// recursive traversal.
    #[test]
    fn flat_tree_equals_recursive(
        seed in 0u64..500,
        n in 5usize..60,
        nf in 1usize..5,
    ) {
        let data = random_dataset(n, nf, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let tree = DecisionTree::fit(&data, TreeConfig::default(), &mut rng);
        let flat = FlatForest::from_tree(&tree);
        for _ in 0..25 {
            let x: Vec<f64> = (0..nf).map(|_| rng.random_range(-2.0..2.0)).collect();
            prop_assert_eq!(
                flat.tree_leaf(0, &x).to_bits(),
                tree.predict_proba(&x).to_bits()
            );
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

    /// Bounded block scoring either returns the exact per-row score or
    /// prunes a row whose exact score is provably below its cut.
    #[test]
    fn bounded_block_prunes_only_below_cut(
        seed in 0u64..400,
        n in 12usize..80,
        nf in 1usize..6,
        n_trees in 1usize..12,
        n_rows in 1usize..48,
        cut_seed in 0u64..100,
    ) {
        let data = random_dataset(n, nf, seed);
        let rf = RandomForest::fit(
            &data,
            RandomForestConfig { n_trees, seed, ..Default::default() },
        );
        let flat = FlatForest::from_forest(&rf);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC07);
        let rows: Vec<f64> = (0..n_rows * nf).map(|_| rng.random_range(-2.0..2.0)).collect();
        let mut cut_rng = StdRng::seed_from_u64(cut_seed);
        let cuts: Vec<f64> = (0..n_rows)
            .map(|i| match i % 3 {
                0 => f64::NEG_INFINITY,
                _ => cut_rng.random_range(-0.1..1.1),
            })
            .collect();
        let mut out = vec![f64::NAN; n_rows];
        let mut pruned = vec![false; n_rows];
        let n_pruned = flat.score_block_bounded(&rows, nf, &cuts, &mut out, &mut pruned);
        prop_assert_eq!(n_pruned, pruned.iter().filter(|&&p| p).count());
        for i in 0..n_rows {
            let exact = flat.predict_proba_slice(&rows[i * nf..(i + 1) * nf]);
            if pruned[i] {
                prop_assert!(exact < cuts[i], "row {} score {} >= cut {}", i, exact, cuts[i]);
            } else {
                prop_assert_eq!(out[i].to_bits(), exact.to_bits());
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
            let zeroed: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(f, &v)| if keep(f) { v } else { 0.0 })
                .collect();
            prop_assert_eq!(
                flat.predict_proba_slice(&x).to_bits(),
                rf.predict_proba(&zeroed).to_bits()
            );
        }
    }
}
