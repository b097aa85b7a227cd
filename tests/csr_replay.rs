//! The resolution walk runs only on the frozen [`CsrGraph`]; the dense
//! [`Graph`] walk survives as the test-only reference. This suite takes
//! the real alignment graph of every document of a seeded trained
//! corpus and of every adversarial chaos family (under a tight budget),
//! replays Algorithm 1's walk-then-delete sequence on both layouts —
//! `Graph::remove_edge` on the dense side, `CsrGraph::zero_edge` on the
//! CSR side — and requires bit-identical distributions and identical
//! convergence reports before every deletion.

use briq_core::graph_builder::build_graph_budgeted;
use briq_core::pipeline::{Briq, BriqConfig};
use briq_core::resolution::resolve_budgeted;
use briq_core::Budget;
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::perturb::{adversarial_documents, Adversary};
use briq_graph::{try_random_walk_with_restart, CsrGraph, CsrScratch, RwrConfig};
use briq_ml::entropy::normalized_entropy;
use briq_ml::RandomForestConfig;
use briq_table::Document;

/// Replay Algorithm 1 on both walk layouts over `doc`'s real alignment
/// graph: mentions in ascending prior entropy, one walk each, then the
/// decision's edge deletions. The decisions are the production
/// resolver's own, so the replay deletes exactly the edges the pipeline
/// deletes. Returns the walks compared and the edges deleted.
fn replay(briq: &Briq, doc: &Document, budget: &Budget, scope: &str) -> (usize, usize) {
    let (sd, _) = briq.score_document_budgeted(doc, budget);
    let (candidates, _) = briq.filter(&sd);
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
    let cfg = &briq.cfg.resolution;
    let mut chosen = vec![None; candidates.len()];
    for r in resolve_budgeted(ag.clone(), &candidates, cfg, budget.max_rwr_iterations).0 {
        chosen[r.mention] = Some(r.target);
    }
    let rwr = RwrConfig {
        restart: cfg.restart,
        tolerance: cfg.tolerance,
        max_iterations: cfg.max_iterations.min(budget.max_rwr_iterations),
    };
    let entropy: Vec<f64> = candidates
        .iter()
        .map(|cs| normalized_entropy(&cs.iter().map(|c| c.score).collect::<Vec<_>>()))
        .collect();
    let mut order: Vec<usize> = (0..candidates.len())
        .filter(|&i| !candidates[i].is_empty())
        .collect();
    order.sort_by(|&a, &b| {
        entropy[a]
            .partial_cmp(&entropy[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut dense = ag.graph.clone();
    let mut csr = CsrGraph::from_graph(&ag.graph);
    let mut scratch = CsrScratch::default();
    let mut deleted = 0usize;
    for (step, &x) in order.iter().enumerate() {
        let scope = format!("{scope} step {step} mention {x}");
        let source = ag.text_nodes[x];
        match (
            try_random_walk_with_restart(&dense, source, &rwr),
            csr.walk_into(source, &rwr, &mut scratch),
        ) {
            (Ok((pi, dense_report)), Ok(csr_report)) => {
                assert_eq!(dense_report, csr_report, "{scope}: convergence report");
                let (r_dense, r_csr) = (dense_report.residual, csr_report.residual);
                assert_eq!(r_dense.to_bits(), r_csr.to_bits(), "{scope}: residual");
                let csr_pi = scratch.distribution();
                assert_eq!(pi.len(), csr_pi.len(), "{scope}: distribution length");
                for (node, (a, b)) in pi.iter().zip(csr_pi).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{scope}: π[{node}] {a} vs {b}");
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{scope}: walk error"),
            (a, b) => panic!("{scope}: dense {a:?} vs CSR {b:?}"),
        }
        for c in candidates[x].iter().filter(|c| chosen[x] != Some(c.target)) {
            if let Some(tn) = ag.table_node(c.target) {
                let removed = dense.remove_edge(source, tn);
                assert_eq!(removed, csr.zero_edge(source, tn), "{scope}: delete {tn}");
                deleted += usize::from(removed);
            }
        }
    }
    (order.len(), deleted)
}

#[test]
fn csr_walks_replay_dense_reference_on_real_graphs() {
    let docs = generate_corpus(&CorpusConfig::small(53)).documents;
    let (train, rest) = docs.split_at(docs.len() * 2 / 3);
    let cfg = BriqConfig {
        forest: RandomForestConfig {
            n_trees: 16,
            ..Default::default()
        },
        ..Default::default()
    };
    let briq = Briq::train(cfg, train, rest);
    assert!(briq.is_trained());

    let (mut walks, mut deleted) = (0usize, 0usize);
    for (i, ld) in docs.iter().enumerate() {
        let scope = format!("corpus doc {i}");
        let (w, d) = replay(&briq, &ld.document, &Budget::unlimited(), &scope);
        walks += w;
        deleted += d;
    }
    assert!(walks >= 100, "only {walks} walks replayed on the corpus");
    assert!(deleted >= 100, "only {deleted} edges deleted on the corpus");

    let budget = Budget {
        max_regex_steps: 10_000,
        max_virtual_cells_per_table: 120,
        max_graph_edges: 1_500,
        max_rwr_iterations: 40,
    };
    for kind in Adversary::ALL {
        for (i, doc) in adversarial_documents(kind, 20190408).iter().enumerate() {
            replay(&briq, doc, &budget, &format!("{} doc {i}", kind.name()));
        }
    }
}
