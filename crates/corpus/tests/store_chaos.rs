//! Chaos-family equivalence suite for the alignment store (DESIGN.md
//! §15): across all 8 adversarial perturbation families, incremental
//! re-alignment through a warm [`AlignmentStore`] must be bit-identical
//! to a cold full recompute — alignments, filter-stat totals, kept
//! candidates, and diagnostics. The store is only allowed to change
//! *when* work happens, never what it produces, and the adversarial
//! generators (truncated HTML, colspan bombs, non-finite numerics,
//! regex-hostile text, …) are exactly the inputs where a stale or
//! miskeyed cache would slip through a clean-corpus test.

use briq_core::pipeline::{AlignOptions, AlignOutput, Briq, BriqConfig};
use briq_core::store::{text_fingerprint, AlignmentStore};
use briq_core::Budget;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::perturb::{adversarial_documents, perturb_document, Adversary, Perturbation};
use briq_table::Document;

/// `doc` aligned through `store` under `key`, default budget.
fn stored(briq: &Briq, store: &AlignmentStore, key: u64, doc: &Document) -> AlignOutput {
    let opts = AlignOptions {
        budget: Budget::default(),
        store: Some((store, key)),
        ..AlignOptions::default()
    };
    briq.align_with(doc, &opts)
}

/// [`stored`], asserting every output surface but the timings equals a
/// full recompute: the same system with no store.
fn assert_matches_recompute(
    briq: &Briq,
    store: &AlignmentStore,
    key: u64,
    doc: &Document,
    what: &str,
) -> AlignOutput {
    let got = stored(briq, store, key, doc);
    let opts = AlignOptions {
        budget: Budget::default(),
        ..AlignOptions::default()
    };
    let full = briq.align_with(doc, &opts);
    let surfaces = |o: &AlignOutput| {
        let o = o.clone();
        (o.alignments, o.stats, o.candidates, o.diagnostics.items)
    };
    assert_eq!(surfaces(&got), surfaces(&full), "{what}");
    got
}

fn briq() -> Briq {
    Briq::untrained(BriqConfig::default())
}

/// Warm-unchanged: every chaos family's documents, aligned cold through
/// the store and then re-aligned warm, match the full recompute on
/// every output surface — and the warm pass skips classify, filter,
/// and resolve entirely (stage timings stay exactly zero).
#[test]
fn warm_unchanged_matches_full_recompute_across_all_families() {
    let briq = briq();
    for kind in Adversary::ALL {
        for seed in [11u64, 29] {
            let docs = adversarial_documents(kind, seed);
            let store = AlignmentStore::for_system(&briq);
            for (i, doc) in docs.iter().enumerate() {
                // Cold pass populates the cache.
                stored(&briq, &store, i as u64, doc);
            }
            for (i, doc) in docs.iter().enumerate() {
                let warm = assert_matches_recompute(
                    &briq,
                    &store,
                    i as u64,
                    doc,
                    &format!("{}: seed {seed} doc {i}", kind.name()),
                );

                let timings = warm.timings;
                assert_eq!(
                    (
                        timings.classify_s,
                        timings.filter_s,
                        timings.resolve_s,
                        timings.pairs_scored
                    ),
                    (0.0, 0.0, 0.0, 0),
                    "{}: seed {seed} doc {i} warm hit must skip classify/filter/resolve",
                    kind.name()
                );
            }
            if !docs.is_empty() {
                assert!(
                    store.hits() > 0,
                    "{}: seed {seed} no warm hits",
                    kind.name()
                );
            }
        }
    }
}

/// Mutation under stable identity: warm the store on one seed of each
/// family, then serve the *next* seed's documents under the same keys —
/// every content difference must invalidate and re-align to exactly the
/// full recompute, across every output surface.
#[test]
fn mutated_documents_match_full_recompute_across_all_families() {
    let briq = briq();
    for kind in Adversary::ALL {
        let seed = 43u64;
        let store = AlignmentStore::for_system(&briq);
        for (i, doc) in adversarial_documents(kind, seed).iter().enumerate() {
            stored(&briq, &store, i as u64, doc);
        }
        let mutated = adversarial_documents(kind, seed + 1);
        for (i, doc) in mutated.iter().enumerate() {
            assert_matches_recompute(
                &briq,
                &store,
                i as u64,
                doc,
                &format!("{}: mutated doc {i}", kind.name()),
            );
        }
    }
}

/// The numeral-perturbation families feed the fingerprint contract:
/// perturbing a document changes its text fingerprint iff it changed
/// the text (Original is a no-op; Truncated/Rounded may be no-ops on
/// documents whose numerals are fixed points of the transform).
#[test]
fn perturbation_families_move_text_fingerprint_iff_text_changes() {
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 24,
        seed: 97,
        ..Default::default()
    });
    let mut changed = 0usize;
    for ld in &corpus.documents {
        for p in Perturbation::ALL {
            let perturbed = perturb_document(ld, p);
            assert_eq!(
                ld.document.text == perturbed.document.text,
                text_fingerprint(&ld.document.text) == text_fingerprint(&perturbed.document.text),
                "{}: fingerprint must change iff text changes",
                p.name()
            );
            if ld.document.text != perturbed.document.text {
                changed += 1;
            }
        }
    }
    assert!(changed > 0, "perturbations never changed any document");
}
