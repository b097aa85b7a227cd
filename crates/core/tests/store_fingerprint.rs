//! Property tests for the alignment store's content fingerprints
//! (DESIGN.md §15): deterministic across runs and processes, and
//! changing **iff** the fingerprinted content changes. These are the
//! invariants the store's invalidation logic rests on — a fingerprint
//! that drifted between runs would poison every warm entry, and one
//! that missed a content change would serve stale artifacts.

use briq_core::store::{
    budget_fingerprint, model_fingerprint, table_fingerprint, text_fingerprint, Fingerprint,
};
use briq_core::training::LabeledDocument;
use briq_core::{Briq, BriqConfig, Budget, GoldAlignment};
use briq_json::Value;
use briq_table::{Document, Table, TableMentionKind};
use briq_text::AggregationKind;
use proptest::prelude::*;

/// Pinned fingerprints of fixed inputs. FNV-1a with its standard
/// constants has no per-process state (no ASLR-dependent hashing, no
/// random seeds), so these exact values must reproduce on every run,
/// host, and build — the cross-run half of the stability contract. If
/// this test ever fails, the hash function changed and every persisted
/// expectation about store behavior changed with it.
#[test]
fn fingerprints_are_stable_across_processes() {
    assert_eq!(
        text_fingerprint("A total of 123 patients reported side effects."),
        0x4c85bba71f0d2e2d
    );
    let t = Table::from_grid(
        "effects",
        vec![
            vec!["effect".into(), "patients".into()],
            vec!["Rash".into(), "35".into()],
        ],
    );
    assert_eq!(table_fingerprint(&t), 0xaeb38e467d2c170f);
    assert_eq!(budget_fingerprint(&Budget::default()), 0xc844d1be94213faa);
}

/// A labeled page whose numbers vary with `seed`: the paragraph states a
/// column total (a sum) and one cell of a three-row table.
fn labeled(seed: usize) -> LabeledDocument {
    let cells: Vec<[usize; 2]> = (0..3)
        .map(|r| [10 + (seed * 7 + r * 13) % 40, 11 + (seed * 5 + r * 17) % 40])
        .collect();
    let totals: Vec<usize> = cells.iter().map(|c| c[0] + c[1]).collect();
    let total: usize = totals.iter().sum();
    let text = format!(
        "A total of {total} patients reported side effects; depression was \
         reported by {} patients.",
        totals[1]
    );
    let mut grid = vec![vec![
        "effect".to_string(),
        "male".to_string(),
        "female".to_string(),
        "total".to_string(),
    ]];
    for (name, (c, t)) in ["Rash", "Depression", "Nausea"]
        .iter()
        .zip(cells.iter().zip(&totals))
    {
        grid.push(vec![
            name.to_string(),
            c[0].to_string(),
            c[1].to_string(),
            t.to_string(),
        ]);
    }
    let span = |n: usize| {
        let start = text.find(&format!(" {n} ")).expect("number in text") + 1;
        (start, start + n.to_string().len())
    };
    let (sum_start, sum_end) = span(total);
    let (cell_start, cell_end) = span(totals[1]);
    LabeledDocument {
        document: Document::new(seed, &text, vec![Table::from_grid("", grid)]),
        gold: vec![
            GoldAlignment {
                mention_start: sum_start,
                mention_end: sum_end,
                table: 0,
                kind: TableMentionKind::Aggregate(AggregationKind::Sum),
                cells: vec![(1, 3), (2, 3), (3, 3)],
            },
            GoldAlignment {
                mention_start: cell_start,
                mention_end: cell_end,
                table: 0,
                kind: TableMentionKind::SingleCell,
                cells: vec![(2, 3)],
            },
        ],
    }
}

/// A small trained system: a few-tree pair forest and trained tagger
/// forests, seeded, so every part of the model's content is present.
fn small_trained() -> Briq {
    let docs: Vec<LabeledDocument> = (0..6).map(labeled).collect();
    let mut cfg = BriqConfig::default();
    cfg.forest.n_trees = 3;
    cfg.forest.tree.max_depth = 3;
    cfg.tagger_forest.n_trees = 1;
    cfg.tagger_forest.tree.max_depth = 2;
    let briq = Briq::train(cfg, &docs, &docs);
    assert!(briq.is_trained());
    briq
}

/// Pinned model fingerprints. They change only when what the fingerprint
/// hashes changes, which rebuilds every durable store on first open
/// (OPERATIONS.md §13), so a change here must be deliberate.
#[test]
fn model_fingerprints_are_pinned() {
    let untrained = Briq::untrained(BriqConfig::default());
    assert_eq!(model_fingerprint(&untrained), 0xf9b9_b2c9_3aca_c2de);
    assert_eq!(model_fingerprint(&small_trained()), 0x914b_8faf_0d79_2d9a);
}

/// Saving and loading a model keeps its fingerprint, so a store written
/// by one process is warm for another that loaded the same model file.
#[test]
fn model_fingerprint_survives_a_json_round_trip() {
    for briq in [Briq::untrained(BriqConfig::default()), small_trained()] {
        let json = briq.to_json().expect("model serializes");
        let loaded = Briq::from_json(&json).expect("model loads");
        assert_eq!(model_fingerprint(&loaded), model_fingerprint(&briq));
    }
}

/// Every numeric or boolean leaf of `v` with its path of object keys
/// and array indices.
fn scalars(v: &Value, path: &mut Vec<String>, out: &mut Vec<(Vec<String>, Value)>) {
    match v {
        Value::Num(_) | Value::Bool(_) => out.push((path.clone(), v.clone())),
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(i.to_string());
                scalars(item, path, out);
                path.pop();
            }
        }
        Value::Object(fields) => {
            for (k, item) in fields {
                path.push(k.clone());
                scalars(item, path, out);
                path.pop();
            }
        }
        Value::Null | Value::Str(_) => {}
    }
}

fn leaf_mut<'v>(v: &'v mut Value, path: &[String]) -> &'v mut Value {
    path.iter().fold(v, |v, key| match v {
        Value::Array(items) => &mut items[key.parse::<usize>().expect("array index")],
        Value::Object(fields) => {
            &mut fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("object key")
                .1
        }
        _ => panic!("path runs through a scalar"),
    })
}

/// Changing any single number or flag of a model file to another value
/// the loader accepts changes the fingerprint: every config field, the
/// classifier mask, every node's feature, threshold and leaf
/// probability, and the tagger's forests and threshold. A fingerprint
/// that skipped any of them would let a store serve artifacts computed
/// by a different model. Child indices admit no other valid value (each
/// node has exactly one parent), so each of their perturbations must be
/// rejected by the loader instead.
#[test]
fn model_fingerprint_tracks_every_value_of_the_model_file() {
    let briq = small_trained();
    let base = model_fingerprint(&briq);
    let json = briq_json::parse(&briq.to_json().expect("model serializes")).expect("valid JSON");
    let mut leaves = Vec::new();
    scalars(&json, &mut Vec::new(), &mut leaves);
    let mut checked = std::collections::BTreeSet::new();
    for (path, original) in &leaves {
        let key = path.last().expect("leaf has a key").as_str();
        let candidates = match *original {
            Value::Num(x) => [x + 1.0, x - 1.0, 0.0, 1.0]
                .into_iter()
                .filter(|&y| y != x)
                .map(Value::Num)
                .collect(),
            Value::Bool(b) => vec![Value::Bool(!b)],
            _ => unreachable!("scalar paths end at numbers and flags"),
        };
        let mut loaded = 0;
        for candidate in candidates {
            let mut edited = json.clone();
            *leaf_mut(&mut edited, path) = candidate;
            let Ok(variant) = Briq::from_json(&edited.to_string_compact()) else {
                continue;
            };
            loaded += 1;
            assert_ne!(
                model_fingerprint(&variant),
                base,
                "changing {} did not change the fingerprint",
                path.join(".")
            );
        }
        if key == "left" || key == "right" {
            assert_eq!(loaded, 0, "an edited {} loaded", path.join("."));
        } else {
            assert!(loaded > 0, "no valid perturbation of {}", path.join("."));
        }
        checked.insert(key.to_string());
    }
    for key in [
        "sigma_min",
        "use_store",
        "surface",
        "feature",
        "threshold",
        "prob",
        "left",
    ] {
        assert!(
            checked.contains(key),
            "the model file has no {key} to check"
        );
    }
    let tagger_nodes = leaves
        .iter()
        .filter(|(p, _)| p[0] == "tagger" && p.iter().any(|k| k == "prob"))
        .count();
    assert!(
        tagger_nodes > 0,
        "the small model has no trained tagger forest"
    );
}

/// The fingerprint is recomputed from the live model, never cached: the
/// config is public and callers change it after construction (tuning
/// sets `sigma_min`, callers flip `use_store`).
#[test]
fn model_fingerprint_follows_config_edits_after_construction() {
    let mut briq = small_trained();
    let base = model_fingerprint(&briq);
    briq.cfg.resolution.sigma_min += 0.125;
    let tuned = model_fingerprint(&briq);
    assert_ne!(tuned, base);
    briq.cfg.use_store = !briq.cfg.use_store;
    assert_ne!(model_fingerprint(&briq), tuned);
    briq.cfg.use_store = !briq.cfg.use_store;
    briq.cfg.resolution.sigma_min -= 0.125;
    assert_eq!(model_fingerprint(&briq), base);
}

fn grid_strategy() -> impl Strategy<Value = Vec<Vec<String>>> {
    (1usize..4, 1usize..4).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            proptest::collection::vec("[a-z0-9 .$%]{0,8}", cols..=cols),
            rows..=rows,
        )
    })
}

proptest! {
    /// Same text, same fingerprint — and the builder API agrees with the
    /// convenience function, so incremental code paths can mix them.
    #[test]
    fn text_fingerprint_is_deterministic(s in "[ -~]{0,64}") {
        prop_assert_eq!(text_fingerprint(&s), text_fingerprint(&s));
        let mut f = Fingerprint::new();
        f.str(&s);
        prop_assert_eq!(f.finish(), text_fingerprint(&s));
    }

    /// Different text, different fingerprint (FNV-1a collisions on short
    /// strings are astronomically unlikely; a failure here means the
    /// hashing lost input bytes, not that we got unlucky).
    #[test]
    fn text_fingerprint_tracks_content(a in "[ -~]{0,64}", b in "[ -~]{0,64}") {
        prop_assert_eq!(a == b, text_fingerprint(&a) == text_fingerprint(&b));
    }

    /// Rebuilding a table from the same grid and caption reproduces the
    /// fingerprint; every cell edit, caption edit, or shape change
    /// flips it.
    #[test]
    fn table_fingerprint_tracks_content(
        grid in grid_strategy(),
        caption in "[a-z ]{0,12}",
        edit_row in 0usize..4,
        edit_col in 0usize..4,
    ) {
        let table = Table::from_grid(&caption, grid.clone());
        prop_assert_eq!(
            table_fingerprint(&table),
            table_fingerprint(&Table::from_grid(&caption, grid.clone()))
        );

        // Caption edit.
        let recaptioned = Table::from_grid(&format!("{caption}!"), grid.clone());
        prop_assert_ne!(table_fingerprint(&table), table_fingerprint(&recaptioned));

        // Cell edit (append a marker so the cell definitely differs).
        let r = edit_row % grid.len();
        let c = edit_col % grid[0].len();
        let mut edited = grid.clone();
        edited[r][c].push('#');
        let edited = Table::from_grid(&caption, edited);
        prop_assert_ne!(table_fingerprint(&table), table_fingerprint(&edited));

        // Shape change: one extra row.
        let mut grown = grid.clone();
        grown.push(grid[0].clone());
        let grown = Table::from_grid(&caption, grown);
        prop_assert_ne!(table_fingerprint(&table), table_fingerprint(&grown));
    }

    /// Budget fingerprints are equal iff every budget field is equal —
    /// a budget change must invalidate (different budgets can truncate
    /// differently), and must do so deterministically.
    #[test]
    fn budget_fingerprint_tracks_every_field(
        a in (1usize..1000, 1usize..100, 1usize..1000, 1usize..50),
        b in (1usize..1000, 1usize..100, 1usize..1000, 1usize..50),
    ) {
        let budget = |(regex, cells, edges, iters): (usize, usize, usize, usize)| Budget {
            max_regex_steps: regex,
            max_virtual_cells_per_table: cells,
            max_graph_edges: edges,
            max_rwr_iterations: iters,
        };
        let (ba, bb) = (budget(a), budget(b));
        prop_assert_eq!(budget_fingerprint(&ba), budget_fingerprint(&ba));
        prop_assert_eq!(a == b, budget_fingerprint(&ba) == budget_fingerprint(&bb));
    }

    /// The builder mixes every piece it is fed: permuting the order of
    /// two distinct writes changes the digest (positional hashing, not
    /// a commutative checksum).
    #[test]
    fn fingerprint_builder_is_order_sensitive(x in 0u64..1_000_000_000_000, y in 0u64..1_000_000_000_000) {
        let digest = |a: u64, b: u64| {
            let mut f = Fingerprint::new();
            f.u64(a);
            f.u64(b);
            f.finish()
        };
        prop_assert_eq!(digest(x, y), digest(x, y));
        if x != y {
            prop_assert_ne!(digest(x, y), digest(y, x));
        }
    }
}
