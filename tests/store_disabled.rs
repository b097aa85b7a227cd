//! A disabled store is never touched. With `use_store: false`, a store
//! handed to `align_with` or `align_batch_stored` sees no lookup and
//! caches nothing, and the output is byte-equal to the same call without
//! a store. The `--no-store` oracle runs in CI rely on this.

use briq::pipeline::{AlignOptions, Briq, BriqConfig};
use briq::substrates::corpus::corpus::{generate_corpus, CorpusConfig};
use briq::substrates::ml::RandomForestConfig;
use briq::{BatchConfig, Budget, Document};
use briq_core::AlignmentStore;

#[test]
fn disabled_store_is_never_touched() {
    let docs = generate_corpus(&CorpusConfig::small(53)).documents;
    let (train, rest) = docs.split_at(docs.len() * 2 / 3);
    let cfg = BriqConfig {
        forest: RandomForestConfig {
            n_trees: 24,
            ..Default::default()
        },
        use_store: false,
        ..Default::default()
    };
    let briq = Briq::train(cfg, train, rest);
    assert!(briq.is_trained());
    let store = AlignmentStore::for_system(&briq);

    // Debug prints every f64 shortest-round-trip, so equal strings mean
    // bit-equal outputs.
    let surface = |doc: &Document, opts: &AlignOptions| {
        let out = briq.align_with(doc, opts);
        format!(
            "{:?}",
            (out.alignments, out.stats, out.candidates, out.diagnostics)
        )
    };
    for (i, ld) in docs.iter().enumerate() {
        let with_store = AlignOptions {
            budget: Budget::default(),
            store: Some((&store, i as u64)),
            ..AlignOptions::default()
        };
        let without = AlignOptions {
            budget: Budget::default(),
            ..AlignOptions::default()
        };
        assert_eq!(
            surface(&ld.document, &with_store),
            surface(&ld.document, &without),
            "doc {i}"
        );
    }

    let pages: Vec<Document> = docs.iter().map(|ld| ld.document.clone()).collect();
    let batch = BatchConfig::with_jobs(2);
    let stored = briq.align_batch_stored(&pages, &batch, &store, None);
    let plain = briq.align_batch(&pages, &batch);
    for (s, p) in stored.documents.iter().zip(&plain.documents) {
        assert_eq!(
            format!("{:?}", (&s.alignments, &s.diagnostics)),
            format!("{:?}", (&p.alignments, &p.diagnostics)),
            "batch doc {}",
            s.index
        );
    }

    assert_eq!(store.lookups(), 0);
    assert!(store.is_empty());
    // The same store under `use_store: true` is consulted and filled, so
    // the zero counts above are not vacuous.
    let mut enabled = briq.clone();
    enabled.cfg.use_store = true;
    enabled.align_batch_stored(&pages, &batch, &store, None);
    assert_eq!(store.lookups(), pages.len() as u64);
    assert!(!store.is_empty());
}
