//! Model files written before the resolution walk had a single kernel
//! carry a walk-kernel switch in their resolution config. Loading ignores
//! the stale key, so such a file still loads and aligns byte-identically
//! to the same model without it.

use briq_core::pipeline::{Briq, BriqConfig};
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_ml::RandomForestConfig;

#[test]
fn model_with_stale_walk_switch_loads_and_aligns_identically() {
    let docs = generate_corpus(&CorpusConfig::small(7)).documents;
    let (train, rest) = docs.split_at(40);
    let cfg = BriqConfig {
        forest: RandomForestConfig {
            n_trees: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let current = Briq::train(cfg, train, rest)
        .to_json()
        .expect("model serializes");
    // `max_iterations` is a resolution config key and appears nowhere else.
    assert_eq!(current.matches("\"max_iterations\":").count(), 1);
    let legacy = current.replace(
        "\"max_iterations\":",
        "\"use_csr\":false,\"max_iterations\":",
    );

    let old = Briq::from_json(&legacy).expect("model with the stale key loads");
    let new = Briq::from_json(&current).expect("model loads");
    assert_eq!(old.to_json().expect("reserializes"), current);
    let mut aligned = 0usize;
    for (i, ld) in rest.iter().enumerate() {
        let (a, b) = (old.align(&ld.document), new.align(&ld.document));
        assert_eq!(
            briq_json::to_string(&a),
            briq_json::to_string(&b),
            "doc {i}: alignments differ"
        );
        aligned += b.len();
    }
    assert!(aligned > 0, "the corpus produced no alignments to compare");
}
