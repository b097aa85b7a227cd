//! Bit-for-bit equivalence of the classifier hot path: the precomputed
//! [`PairFeaturizer`] + flat-forest scoring pipeline must reproduce the
//! naive reference path (`feature_vector` per pair, copy + mask +
//! recursive `predict_proba`) exactly — same f64 bits, not "close".
//!
//! Coverage: well-formed seeded corpus documents (>= 1000 pairs) and one
//! document per adversarial chaos family under a tight budget. The
//! alignment hot path (retrieval index + dedup cache + exact bound-based
//! pruning, see `briq_core::scoring`) is additionally held to the same
//! standard against the exhaustive score-everything reference, through
//! graph construction and resolution.
//! Graph construction's text-text edges, which lowercase each mention
//! once, are held to the per-pair lowercasing they replaced.

use briq_core::classifier::PairClassifier;
use briq_core::features::{feature_vector, FeatureMask, PairFeaturizer, FEATURE_COUNT};
use briq_core::filtering::{Candidate, FilterStats};
use briq_core::graph_builder::{build_graph_budgeted, GraphConfig};
use briq_core::jaro::jaro_winkler;
use briq_core::mention::Alignment;
use briq_core::pipeline::{
    heuristic_prior, heuristic_prior_masked, AlignOptions, Briq, BriqConfig, ScoredDocument,
};
use briq_core::resolution::resolve_budgeted;
use briq_core::Budget;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::perturb::{adversarial_documents, Adversary};
use briq_ml::{Dataset, RandomForestConfig};
use briq_table::Document;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Tight enough that the hostile chaos families actually hit the caps.
fn tight_budget() -> Budget {
    Budget {
        max_regex_steps: 10_000,
        max_virtual_cells_per_table: 120,
        max_graph_edges: 1_500,
        max_rwr_iterations: 40,
    }
}

/// Every mask combination the ablation study can request.
fn all_masks() -> Vec<FeatureMask> {
    let mut out = Vec::new();
    for surface in [false, true] {
        for context in [false, true] {
            for quantity in [false, true] {
                out.push(FeatureMask {
                    surface,
                    context,
                    quantity,
                });
            }
        }
    }
    out
}

/// Compare the featurizer against the naive per-pair reference on every
/// (mention, target) pair of `sd`, returning the number of pairs checked.
fn assert_featurizer_matches(sd: &ScoredDocument, scope: &str) -> usize {
    let mut fz = PairFeaturizer::new(&sd.mentions, &sd.targets, &sd.ctx);
    let mut row = [0.0f64; FEATURE_COUNT];
    let mut rows: Vec<f64> = Vec::new();
    let mut pairs = 0usize;
    for (mi, x) in sd.mentions.iter().enumerate() {
        fz.fill_mention_rows(mi, &mut rows);
        assert_eq!(rows.len(), sd.targets.len() * FEATURE_COUNT, "{scope}");
        for (ti, t) in sd.targets.iter().enumerate() {
            let naive = feature_vector(x, t, &sd.ctx);
            fz.fill(mi, ti, &mut row);
            let batch = &rows[ti * FEATURE_COUNT..(ti + 1) * FEATURE_COUNT];
            for f in 0..FEATURE_COUNT {
                assert_eq!(
                    naive[f].to_bits(),
                    row[f].to_bits(),
                    "{scope}: fill() f{} mention {mi} target {ti}: {} vs {}",
                    f + 1,
                    naive[f],
                    row[f]
                );
                assert_eq!(
                    naive[f].to_bits(),
                    batch[f].to_bits(),
                    "{scope}: fill_mention_rows() f{} mention {mi} target {ti}",
                    f + 1
                );
            }
            pairs += 1;
        }
    }
    pairs
}

#[test]
fn featurizer_matches_naive_on_seeded_corpus() {
    let briq = Briq::untrained(BriqConfig::default());
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 24,
        seed: 20190408,
        ..Default::default()
    });
    let mut pairs = 0usize;
    for (i, ld) in corpus.documents.iter().enumerate() {
        let sd = briq.score_document(&ld.document);
        pairs += assert_featurizer_matches(&sd, &format!("corpus doc {i}"));
        if pairs >= 1000 && i >= 8 {
            break;
        }
    }
    assert!(
        pairs >= 1000,
        "only {pairs} pairs checked — corpus too small"
    );
}

#[test]
fn featurizer_matches_naive_on_chaos_documents() {
    let briq = Briq::untrained(BriqConfig::default());
    let budget = tight_budget();
    for kind in Adversary::ALL {
        for doc in adversarial_documents(kind, 20190408) {
            let (sd, _diag) = briq.score_document_budgeted(&doc, &budget);
            assert_featurizer_matches(&sd, kind.name());
        }
    }
}

#[test]
fn heuristic_prior_masked_matches_copy_mask_score() {
    let mut rng = StdRng::seed_from_u64(99);
    for mask in all_masks() {
        for _ in 0..200 {
            let row: Vec<f64> = (0..FEATURE_COUNT)
                .map(|_| rng.random_range(-1.0..2.0))
                .collect();
            let mut masked = row.clone();
            mask.apply(&mut masked);
            assert_eq!(
                heuristic_prior_masked(&row, &mask).to_bits(),
                heuristic_prior(&masked).to_bits(),
                "mask {mask:?} row {row:?}"
            );
        }
    }
}

#[test]
fn flat_classifier_matches_recursive_forest_on_every_mask() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut data = Dataset::new();
    for _ in 0..300 {
        let related = rng.random_bool(0.4);
        let mut row = vec![0.0; FEATURE_COUNT];
        for v in row.iter_mut() {
            *v = rng.random_range(0.0..1.0);
        }
        if related {
            row[0] = rng.random_range(0.6..1.0);
        }
        data.push(row, related);
    }
    data.apply_class_weights();
    let rf = RandomForestConfig {
        n_trees: 24,
        ..Default::default()
    };
    for mask in all_masks() {
        let clf = PairClassifier::train(&data, rf, mask);
        for _ in 0..150 {
            let row: Vec<f64> = (0..FEATURE_COUNT)
                .map(|_| rng.random_range(-0.5..1.5))
                .collect();
            let mut masked = row.clone();
            mask.apply(&mut masked);
            assert_eq!(
                clf.score(&row).to_bits(),
                clf.forest().predict_proba(&masked).to_bits(),
                "mask {mask:?}"
            );
        }
    }
}

/// Compare two per-mention candidate lists for bit-exact equality.
fn assert_candidates_bit_equal(a: &[Vec<Candidate>], b: &[Vec<Candidate>], scope: &str) {
    assert_eq!(a.len(), b.len(), "{scope}: mention count");
    for (mi, (ca, cb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ca.len(), cb.len(), "{scope}: mention {mi} candidate count");
        for (x, y) in ca.iter().zip(cb) {
            assert_eq!(x.target, y.target, "{scope}: mention {mi}");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{scope}: mention {mi} target {} score {} vs {}",
                x.target,
                x.score,
                y.score
            );
        }
    }
}

/// Compare two alignment lists for bit-exact equality (PartialEq on
/// `Alignment` compares scores by value; pin the bits too).
fn assert_alignments_bit_equal(a: &[Alignment], b: &[Alignment], scope: &str) {
    assert_eq!(a, b, "{scope}: alignments differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{scope}: score bits differ for {:?}",
            x.mention_raw
        );
    }
}

/// The test-only reference for the alignment hot path: the exhaustive
/// score matrix ([`Briq::score_document_budgeted`]) through the plain
/// [`Briq::filter`], then graph construction and Algorithm 1 on the
/// filtered candidates. With an unlimited budget this is
/// `graph_builder::build_graph` + `resolution::resolve`.
fn reference_alignment(
    briq: &Briq,
    doc: &Document,
    budget: &Budget,
) -> (Vec<Alignment>, FilterStats, Vec<Vec<Candidate>>) {
    let (sd, _) = briq.score_document_budgeted(doc, budget);
    let (candidates, stats) = briq.filter(&sd);
    let positions: Vec<usize> = sd.ctx.mentions.iter().map(|m| m.token_index).collect();
    let (ag, _) = build_graph_budgeted(
        &sd.mentions,
        &positions,
        sd.ctx.tokens.len(),
        &sd.targets,
        &candidates,
        &briq.cfg.graph,
        budget.max_graph_edges,
    );
    let (resolved, _) = resolve_budgeted(
        ag,
        &candidates,
        &briq.cfg.resolution,
        budget.max_rwr_iterations,
    );
    let alignments = resolved
        .into_iter()
        .map(|r| {
            let x = &sd.mentions[r.mention];
            Alignment {
                mention_start: x.quantity.start,
                mention_end: x.quantity.end,
                mention_raw: x.quantity.raw.clone(),
                target: sd.targets[r.target].clone(),
                score: r.score,
            }
        })
        .collect();
    (alignments, stats, candidates)
}

#[test]
fn pruned_path_matches_exhaustive_filtering() {
    // The retrieval + dedup + bound-based-pruning engine on the
    // alignment hot path must be unobservable: identical filtering
    // survivors (same targets, same f64 bits), identical stats,
    // identical final alignments — against the exhaustive
    // score-everything reference above.
    // A trained classifier so bound-based pruning actually engages (the
    // untrained heuristic path only dedups).
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 40,
        seed: 20190408,
        ..Default::default()
    });
    let mut docs = corpus.documents;
    briq_corpus::annotate::annotate(
        &mut docs,
        &briq_corpus::annotate::AnnotatorConfig::default(),
    );
    let split = briq_ml::split::random_split(docs.len(), 0.15, 0.25, 1);
    let train: Vec<_> = split.train.iter().map(|&i| docs[i].clone()).collect();
    let val: Vec<_> = split.validation.iter().map(|&i| docs[i].clone()).collect();
    let cfg = BriqConfig {
        forest: RandomForestConfig {
            n_trees: 24,
            ..Default::default()
        },
        tagger_forest: RandomForestConfig {
            n_trees: 12,
            ..Default::default()
        },
        ..Default::default()
    };
    let briq = Briq::train(cfg, &train, &val);
    assert!(briq.is_trained());

    let check = |doc: &Document, budget: &Budget, scope: &str| {
        let opts = AlignOptions {
            budget: *budget,
            ..AlignOptions::default()
        };
        let out = briq.align_with(doc, &opts);
        let (al_ref, stats_ref, cand_ref) = reference_alignment(&briq, doc, budget);
        assert_candidates_bit_equal(&out.candidates, &cand_ref, scope);
        assert_eq!(out.stats, stats_ref, "{scope}: stats");
        assert_alignments_bit_equal(&out.alignments, &al_ref, scope);
        out.timings
    };

    let (mut pairs, mut pruned) = (0u64, 0u64);
    for (i, ld) in docs.iter().enumerate() {
        let timings = check(
            &ld.document,
            &Budget::unlimited(),
            &format!("corpus doc {i}"),
        );
        pairs += timings.pairs_scored;
        pruned += timings.pairs_pruned;
    }
    assert!(pairs >= 1000, "only {pairs} pairs exercised");
    assert!(pruned > 0, "pruning never engaged over {pairs} pairs");

    // Every adversarial chaos family, under the tight budget: the hot
    // path must match the reference even on degraded documents.
    let budget = tight_budget();
    for kind in Adversary::ALL {
        for (i, doc) in adversarial_documents(kind, 20190408).iter().enumerate() {
            check(doc, &budget, &format!("{} doc {i}", kind.name()));
        }
    }
}

#[test]
fn end_to_end_scores_match_naive_recomputation() {
    // The pipeline's own scored matrix (built through the featurizer)
    // must equal scoring naive vectors through the masked prior.
    let briq = Briq::untrained(BriqConfig::default());
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 6,
        seed: 7,
        ..Default::default()
    });
    for ld in &corpus.documents {
        let sd = briq.score_document(&ld.document);
        for (mi, x) in sd.mentions.iter().enumerate() {
            for (ti, t) in sd.targets.iter().enumerate() {
                let f = feature_vector(x, t, &sd.ctx);
                let expect = heuristic_prior_masked(&f, &briq.cfg.mask);
                let (target, got) = sd.scored[mi][ti];
                assert_eq!(target, ti);
                assert_eq!(got.to_bits(), expect.to_bits());
            }
        }
    }
}

/// Text-text edges `(i, j, weight bits)` as graph construction computed
/// them with per-pair lowercasing: two `to_lowercase` calls and one
/// string Jaro-Winkler per pair, in pair order, cut after `max_edges`
/// and keeping only the weights the graph accepts (positive, finite).
fn reference_text_text_edges(
    sd: &ScoredDocument,
    cfg: &GraphConfig,
    max_edges: usize,
) -> Vec<(usize, usize, u64)> {
    let positions: Vec<usize> = sd.ctx.mentions.iter().map(|m| m.token_index).collect();
    let len = sd.ctx.tokens.len().max(1) as f64;
    let m = sd.mentions.len();
    let (mut taken, mut edges) = (0usize, Vec::new());
    for i in 0..m {
        for j in (i + 1)..m {
            let dist = positions[i].abs_diff(positions[j]);
            let sim = jaro_winkler(
                &sd.mentions[i].quantity.raw.to_lowercase(),
                &sd.mentions[j].quantity.raw.to_lowercase(),
            );
            if dist <= cfg.proximity_window || sim >= cfg.similarity_threshold {
                if taken == max_edges {
                    return edges;
                }
                taken += 1;
                let f_prox = 1.0 - (dist as f64 / len).min(1.0);
                let w = cfg.lambda_proximity * f_prox + cfg.lambda_similarity * sim;
                if w > 0.0 && w.is_finite() {
                    edges.push((i, j, w.to_bits()));
                }
            }
        }
    }
    edges
}

/// Text-text edges of the graph the builder produces for `sd`.
fn built_text_text_edges(
    sd: &ScoredDocument,
    cfg: &GraphConfig,
    max_edges: usize,
) -> Vec<(usize, usize, u64)> {
    let positions: Vec<usize> = sd.ctx.mentions.iter().map(|m| m.token_index).collect();
    let m = sd.mentions.len();
    let (ag, _) = build_graph_budgeted(
        &sd.mentions,
        &positions,
        sd.ctx.tokens.len(),
        &sd.targets,
        &vec![Vec::new(); m],
        cfg,
        max_edges,
    );
    let mut edges = Vec::new();
    for i in 0..m {
        for &(j, w) in ag.graph.neighbors(i) {
            if i < j && j < m {
                edges.push((i, j, w.to_bits()));
            }
        }
    }
    edges
}

#[test]
fn text_text_edges_match_per_pair_lowercasing() {
    let briq = Briq::untrained(BriqConfig::default());
    let cfg = GraphConfig::default();
    let mut checked = 0usize;
    let mut check = |sd: &ScoredDocument, max_edges: usize, scope: &str| {
        let want = reference_text_text_edges(sd, &cfg, max_edges);
        assert_eq!(built_text_text_edges(sd, &cfg, max_edges), want, "{scope}");
        checked += want.len();
    };
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 24,
        seed: 20190408,
        ..Default::default()
    });
    for (i, ld) in corpus.documents.iter().enumerate() {
        let sd = briq.score_document(&ld.document);
        check(&sd, usize::MAX, &format!("corpus doc {i}"));
    }
    // Mentions that differ only in case: the similarity of each such
    // pair depends on lowercasing both sides.
    let mixed_case = Document::new(
        0,
        "Sales reached $12.5M in 2018 against $12.5m a year earlier, \
         shipments hit 3.2 Billion after 3.2 billion, and routes grew \
         from 40 KM to 40 km.",
        Vec::new(),
    );
    check(
        &briq.score_document(&mixed_case),
        usize::MAX,
        "mixed-case mentions",
    );
    let budget = tight_budget();
    for kind in Adversary::ALL {
        for (i, doc) in adversarial_documents(kind, 20190408).iter().enumerate() {
            let (sd, _diag) = briq.score_document_budgeted(doc, &budget);
            let scope = format!("{} doc {i}", kind.name());
            check(&sd, usize::MAX, &scope);
            check(&sd, budget.max_graph_edges, &format!("{scope}, budgeted"));
        }
    }
    assert!(checked >= 100, "only {checked} text-text edges compared");
}
