//! The retrieval index must be unobservable in output: for every
//! document, the indexed path (`use_index: true`, the default) and the
//! exhaustive oracle (`use_index: false`) must produce bit-identical
//! alignments, candidates, and filter statistics — same f64 bits, not
//! "close". This is the recall contract of `briq_core::retrieval`
//! (DESIGN.md §13) checked on real pipeline output.
//!
//! Coverage: seeded well-formed corpus documents, every adversarial
//! chaos family, and both the untrained heuristic prior and a trained
//! forest (the two scoring entry points have separate selected-path
//! implementations).

use briq_core::pipeline::{AlignOptions, AlignOutput, Briq, BriqConfig};
use briq_core::Budget;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::perturb::{adversarial_documents, Adversary};
use briq_table::Document;

/// Tight budget for adversarial documents (some families are quadratic
/// unbudgeted); identical for both paths, so degradation is symmetric.
fn adversarial_budget() -> Budget {
    Budget {
        max_regex_steps: 10_000,
        max_virtual_cells_per_table: 120,
        max_graph_edges: 1_500,
        max_rwr_iterations: 40,
    }
}

/// The same system with the index flipped off — identical model, so any
/// output difference is the index's fault alone.
fn without_index(briq: &Briq) -> Briq {
    let mut oracle = briq.clone();
    oracle.cfg.use_index = false;
    oracle
}

/// `doc` aligned under `budget`.
fn align_under(briq: &Briq, doc: &Document, budget: Budget) -> AlignOutput {
    let opts = AlignOptions {
        budget,
        ..AlignOptions::default()
    };
    briq.align_with(doc, &opts)
}

/// Assert bit-identical `align_with` output across the two paths.
/// Debug formatting prints f64s shortest-round-trip, so any bit drift
/// in a score (beyond NaN payloads, which filtering's total order would
/// surface as reordering anyway) fails the comparison.
fn assert_identical(briq: &Briq, oracle: &Briq, doc: &Document, label: &str) {
    let idx = align_under(briq, doc, Budget::unlimited());
    let ora = align_under(oracle, doc, Budget::unlimited());
    assert_eq!(
        format!("{:?}", idx.alignments),
        format!("{:?}", ora.alignments),
        "alignments diverge on {label} doc {}",
        doc.id
    );
    assert_eq!(
        format!("{:?}", idx.candidates),
        format!("{:?}", ora.candidates),
        "candidates diverge on {label} doc {}",
        doc.id
    );
    assert_eq!(
        idx.stats, ora.stats,
        "filter statistics diverge on {label} doc {}",
        doc.id
    );
}

#[test]
fn untrained_indexed_path_matches_oracle_on_corpus() {
    let briq = Briq::untrained(BriqConfig::default());
    assert!(briq.cfg.use_index, "index is the default path");
    let oracle = without_index(&briq);
    let docs = generate_corpus(&CorpusConfig {
        n_documents: 24,
        seed: 41,
        ..Default::default()
    })
    .documents;
    for ld in &docs {
        assert_identical(&briq, &oracle, &ld.document, "corpus");
    }
}

#[test]
fn untrained_indexed_path_matches_oracle_on_adversarial_families() {
    let briq = Briq::untrained(BriqConfig::default());
    let oracle = without_index(&briq);
    let budget = adversarial_budget();
    for kind in Adversary::ALL {
        for seed in [1u64, 2] {
            for doc in adversarial_documents(kind, seed) {
                let a_idx = align_under(&briq, &doc, budget).alignments;
                let a_ora = align_under(&oracle, &doc, budget).alignments;
                assert_eq!(
                    format!("{a_idx:?}"),
                    format!("{a_ora:?}"),
                    "alignments diverge on {kind:?} seed {seed} doc {}",
                    doc.id
                );
            }
        }
    }
}

#[test]
fn trained_indexed_path_matches_oracle() {
    let corpus = generate_corpus(&CorpusConfig::small(53));
    let docs = corpus.documents;
    let (train, rest) = docs.split_at(docs.len() * 2 / 3);
    let briq = Briq::train(BriqConfig::default(), train, rest);
    assert!(briq.is_trained());
    let oracle = without_index(&briq);
    for ld in &docs {
        assert_identical(&briq, &oracle, &ld.document, "trained corpus");
    }
    let budget = adversarial_budget();
    for kind in [
        Adversary::NonFiniteNumerics,
        Adversary::MixedLocale,
        Adversary::VirtualCellFanout,
    ] {
        for doc in adversarial_documents(kind, 5) {
            let a_idx = align_under(&briq, &doc, budget).alignments;
            let a_ora = align_under(&oracle, &doc, budget).alignments;
            assert_eq!(
                format!("{a_idx:?}"),
                format!("{a_ora:?}"),
                "alignments diverge on trained {kind:?} doc {}",
                doc.id
            );
        }
    }
}
