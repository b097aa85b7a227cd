//! Proof that per-pair scoring performs zero heap allocations: a counting
//! global allocator wraps the system allocator, and after one warm-up
//! pass (which sizes the reused row matrix and scratch buffers) a full
//! scoring sweep over every mention/target pair must allocate nothing —
//! for the untrained heuristic prior, a trained flat forest row by row,
//! and the trained [`ScoringEngine`] path the pipeline runs (dedup cache,
//! exhaustive phase A and the bounded phase-B kernel).
//!
//! One `#[test]` only: the counter is process-global, and a second
//! concurrently-running test would pollute it.

use briq_core::classifier::PairClassifier;
use briq_core::features::{FeatureMask, PairFeaturizer, FEATURE_COUNT};
use briq_core::obs::{names, Recorder};
use briq_core::pipeline::{heuristic_prior_masked, Briq, BriqConfig};
use briq_core::scoring::ScoringEngine;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_ml::{Dataset, RandomForestConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn scoring_sweep_is_allocation_free_after_warmup() {
    let briq = Briq::untrained(BriqConfig::default());
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 4,
        seed: 11,
        ..Default::default()
    });
    let sd = corpus
        .documents
        .iter()
        .map(|ld| briq.score_document(&ld.document))
        .max_by_key(|sd| sd.mentions.len() * sd.targets.len())
        .expect("non-empty corpus");
    let pairs = sd.mentions.len() * sd.targets.len();
    assert!(pairs > 100, "need a real workload, got {pairs} pairs");

    // Train a small forest so the flat-forest path is exercised too.
    let clf = {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut data = Dataset::new();
        for _ in 0..200 {
            let related = rng.random_bool(0.4);
            let mut row = vec![0.0; FEATURE_COUNT];
            for v in row.iter_mut() {
                *v = rng.random_range(0.0..1.0);
            }
            data.push(row, related);
        }
        data.apply_class_weights();
        PairClassifier::train(
            &data,
            RandomForestConfig {
                n_trees: 16,
                ..Default::default()
            },
            FeatureMask::all(),
        )
    };

    // Featurizer construction and the first sweep may allocate: invariant
    // precomputation, the row matrix, the engine's buffers and dedup
    // cache, and Jaro scratch growth.
    let mut fz = PairFeaturizer::new(&sd.mentions, &sd.targets, &sd.ctx);
    let mut rows: Vec<f64> = Vec::new();
    let mut engine = ScoringEngine::new();
    let sweep = |fz: &mut PairFeaturizer, rows: &mut Vec<f64>, engine: &mut ScoringEngine| {
        let mut acc = 0.0f64;
        for mi in 0..sd.mentions.len() {
            fz.fill_mention_rows(mi, rows);
            for row in rows.chunks_exact(FEATURE_COUNT) {
                acc += heuristic_prior_masked(row, &briq.cfg.mask);
                acc += clf.score(row);
            }
        }
        // The engine keeps its capacity across `reset`, which empties the
        // dedup cache so every row is scored again.
        engine.reset();
        for (mi, x) in sd.mentions.iter().enumerate() {
            engine.fill_rows(fz, mi);
            engine.score_trained(x, &sd.targets, &sd.tags[mi], &clf, &briq.cfg.filter);
            acc += engine.computed().iter().map(|&(_, s)| s).sum::<f64>();
            acc += engine.pruned_targets().len() as f64;
        }
        acc
    };
    let warm = sweep(&mut fz, &mut rows, &mut engine);

    let before = allocations();
    let hot = sweep(&mut fz, &mut rows, &mut engine);
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "hot scoring sweep allocated {} times over {pairs} pairs",
        after - before
    );
    assert_eq!(
        warm.to_bits(),
        hot.to_bits(),
        "sweeps must be deterministic"
    );

    // The measured sweep really ran both engine phases, including the
    // bounded kernel's pruning.
    let rec = Recorder::enabled();
    engine.record_into(&rec);
    let m = rec.finish().expect("enabled recorder").metrics;
    for name in [
        names::ROWS_SCORED_EXHAUSTIVE,
        names::ROWS_SCORED_BOUNDED,
        names::PAIRS_PRUNED,
    ] {
        assert!(m.counter(name) > 0, "engine counter {name} is zero");
    }
}
