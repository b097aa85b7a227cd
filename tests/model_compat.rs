//! Model files: what loads, and what is refused.
//!
//! Files written before the resolution walk had a single kernel carry a
//! walk-kernel switch in their resolution config. Loading ignores the
//! stale key, so such a file still loads and aligns byte-identically to
//! the same model without it.
//!
//! A model file is outside input: its trees are followed by child index
//! when the forest is flattened and scored. Every malformed tree shape
//! and every split on a feature the model does not have must be an
//! `Err` from `Briq::from_json`, never a panic, an endless walk or a
//! stack overflow.

use briq_core::pipeline::{Briq, BriqConfig};
use briq_core::tagger::TAGGER_FEATURE_COUNT;
use briq_core::FEATURE_COUNT;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_json::Value;
use briq_ml::RandomForestConfig;
use briq_table::{Document, Table};

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

fn split(feature: usize, threshold: f64, left: usize, right: usize) -> String {
    format!(
        r#"{{"Split":{{"feature":{feature},"threshold":{threshold},"left":{left},"right":{right}}}}}"#
    )
}

fn leaf(prob: f64) -> String {
    format!(r#"{{"Leaf":{{"prob":{prob}}}}}"#)
}

/// A one-tree forest over `nodes`, as a model file writes it.
fn forest(nodes: &[String]) -> String {
    format!(r#"{{"trees":[{{"nodes":[{}]}}]}}"#, nodes.join(","))
}

/// The default untrained model file with its `classifier` and the
/// tagger's `forests` replaced by the given JSON.
fn model(classifier: &str, tagger_forests: &str) -> String {
    let json = Briq::untrained(BriqConfig::default())
        .to_json()
        .expect("model serializes");
    let Value::Object(mut fields) = briq_json::parse(&json).expect("valid JSON") else {
        panic!("a model file is an object");
    };
    for (key, value) in &mut fields {
        match (key.as_str(), value) {
            ("classifier", value) => *value = briq_json::parse(classifier).expect("valid JSON"),
            ("tagger", Value::Object(tagger)) => {
                for (key, value) in tagger {
                    if key == "forests" {
                        *value = briq_json::parse(tagger_forests).expect("valid JSON");
                    }
                }
            }
            _ => {}
        }
    }
    Value::Object(fields).to_string_compact()
}

/// A model whose pair forest is one tree over `nodes`.
fn pair_model(nodes: &[String]) -> String {
    model(
        &format!(
            r#"{{"forest":{},"mask":{{"surface":true,"context":true,"quantity":true}}}}"#,
            forest(nodes)
        ),
        "[]",
    )
}

/// A model whose four tagger forests are each one tree over `nodes`.
fn tagger_model(nodes: &[String]) -> String {
    let one = forest(nodes);
    model("null", &format!("[{one},{one},{one},{one}]"))
}

#[test]
fn malformed_trees_are_refused() {
    let (no, yes) = (leaf(0.1), leaf(0.9));
    let valid = [split(0, 0.5, 1, 2), yes.clone(), no.clone()];
    Briq::from_json(&pair_model(&valid)).expect("a well-formed tree loads");
    let cases: [(&str, Vec<String>); 6] = [
        ("an empty tree", vec![]),
        (
            "a split that is its own child",
            vec![split(0, 0.5, 0, 2), yes.clone(), no.clone()],
        ),
        (
            "a child index before its parent",
            vec![
                split(0, 0.5, 1, 2),
                split(0, 0.5, 0, 3),
                no.clone(),
                yes.clone(),
            ],
        ),
        (
            "a child index out of range",
            vec![split(0, 0.5, 999_999, 2), yes.clone(), no.clone()],
        ),
        (
            "a node with two parents",
            vec![split(0, 0.5, 1, 1), yes.clone()],
        ),
        (
            "a node with no parent",
            vec![split(0, 0.5, 1, 2), yes.clone(), no.clone(), yes.clone()],
        ),
    ];
    for (shape, nodes) in &cases {
        assert!(
            Briq::from_json(&pair_model(nodes)).is_err(),
            "a pair forest with {shape} loaded"
        );
        assert!(
            Briq::from_json(&tagger_model(nodes)).is_err(),
            "a tagger forest with {shape} loaded"
        );
    }
}

#[test]
fn splits_beyond_the_feature_width_are_refused() {
    let tree = |feature| [split(feature, 0.5, 1, 2), leaf(0.9), leaf(0.1)];
    Briq::from_json(&pair_model(&tree(FEATURE_COUNT - 1))).expect("the last pair feature loads");
    assert!(Briq::from_json(&pair_model(&tree(FEATURE_COUNT))).is_err());
    Briq::from_json(&tagger_model(&tree(TAGGER_FEATURE_COUNT - 1)))
        .expect("the last tagger feature loads");
    assert!(Briq::from_json(&tagger_model(&tree(TAGGER_FEATURE_COUNT))).is_err());
}

#[test]
fn a_deep_chain_tree_loads_and_scores() {
    // 100,000 splits, each with a "yes" leaf on the left and the next
    // split on the right, ending in a "no" leaf: as deep as it is long.
    // No pair feature is below -1, so every row walks the whole chain.
    const SPLITS: usize = 100_000;
    let mut nodes = Vec::with_capacity(2 * SPLITS + 1);
    for k in 0..SPLITS {
        nodes.push(split(0, -1.0, 2 * k + 1, 2 * k + 2));
        nodes.push(leaf(1.0));
    }
    nodes.push(leaf(0.0));
    let briq = Briq::from_json(&pair_model(&nodes)).expect("a deep but well-formed tree loads");
    let doc = Document::new(
        0,
        "Depression was reported by 38 patients and rash by 35.",
        vec![Table::from_grid(
            "",
            vec![
                vec!["effect".into(), "patients".into()],
                vec!["Rash".into(), "35".into()],
                vec!["Depression".into(), "38".into()],
            ],
        )],
    );
    // Every tree votes "no", so nothing clears the classifier.
    assert!(briq.align(&doc).is_empty());
}
