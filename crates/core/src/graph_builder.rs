//! Candidate alignment graph construction (§VI-A).
//!
//! Nodes are quantity mentions: the document's text mentions, its
//! single-cell table mentions, and any virtual-cell mentions that survived
//! adaptive filtering. Three edge families:
//!
//! * **text–text** — mentions in textual proximity or with similar surface
//!   forms; weight `λ1·f_prox + λ2·f_strsim`;
//! * **table–table** — table mentions sharing a row or column of the same
//!   table (uniform weight); virtual cells additionally connect to their
//!   member cells;
//! * **text–table** — the surviving candidate pairs, weighted by the
//!   classifier confidence (the informed prior).
//!
//! After construction the walk normalizes each node's outgoing weights.

use briq_graph::Graph;
use briq_table::{TableMention, TableMentionKind};
use std::collections::BTreeMap;

use crate::filtering::Candidate;
use crate::jaro::JaroScratch;
use crate::mention::TextMention;

/// Graph-construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct GraphConfig {
    /// Weight of textual proximity in text-text edges (λ1).
    pub lambda_proximity: f64,
    /// Weight of surface similarity in text-text edges (λ2).
    pub lambda_similarity: f64,
    /// Maximum token distance for proximity edges.
    pub proximity_window: usize,
    /// Minimum Jaro-Winkler similarity for similarity-only edges.
    pub similarity_threshold: f64,
    /// Uniform weight of table-table edges.
    pub table_edge_weight: f64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            lambda_proximity: 0.6,
            lambda_similarity: 0.4,
            proximity_window: 40,
            similarity_threshold: 0.85,
            table_edge_weight: 1.0,
        }
    }
}

/// The constructed graph plus the node-id mapping.
#[derive(Debug, Clone)]
pub struct AlignmentGraph {
    /// The undirected weighted graph.
    pub graph: Graph,
    /// Node id of text mention `i` (identity: text mentions come first).
    pub text_nodes: Vec<usize>,
    /// Node id per table-mention index (only for included mentions).
    pub table_nodes: BTreeMap<usize, usize>,
}

impl AlignmentGraph {
    /// Node id for table-mention index `ti`, if included.
    pub fn table_node(&self, ti: usize) -> Option<usize> {
        self.table_nodes.get(&ti).copied()
    }
}

/// Build the alignment graph.
///
/// * `mentions` — the document's text mentions (with token indices in
///   `token_positions`, parallel).
/// * `doc_tokens` — total token count of the document (proximity scaling).
/// * `targets` — all table mentions of the document.
/// * `candidates` — per text mention, the surviving scored candidates.
pub fn build_graph(
    mentions: &[TextMention],
    token_positions: &[usize],
    doc_tokens: usize,
    targets: &[TableMention],
    candidates: &[Vec<Candidate>],
    cfg: &GraphConfig,
) -> AlignmentGraph {
    build_graph_budgeted(
        mentions,
        token_positions,
        doc_tokens,
        targets,
        candidates,
        cfg,
        usize::MAX,
    )
    .0
}

/// Tracks how many more edges construction may add. The text-text family
/// is quadratic in the mention count, so a pathological page (thousands
/// of numerals in one paragraph) would otherwise allocate millions of
/// edges before the walk even starts.
struct EdgeBudget {
    left: usize,
    truncated: bool,
}

impl EdgeBudget {
    /// Charge one edge; `false` once the budget is exhausted.
    fn take(&mut self) -> bool {
        if self.left == 0 {
            self.truncated = true;
            return false;
        }
        self.left -= 1;
        true
    }
}

/// Budgeted variant of [`build_graph`]: stops adding edges once
/// `max_edges` exist and reports whether it had to. Edge families are
/// inserted in the same order as the unbudgeted builder (text-text,
/// table-table, text-table), so an unlimited budget is bit-identical.
pub fn build_graph_budgeted(
    mentions: &[TextMention],
    token_positions: &[usize],
    doc_tokens: usize,
    targets: &[TableMention],
    candidates: &[Vec<Candidate>],
    cfg: &GraphConfig,
    max_edges: usize,
) -> (AlignmentGraph, bool) {
    let mut budget = EdgeBudget {
        left: max_edges,
        truncated: false,
    };
    let m = mentions.len();
    let mut graph = Graph::new(m);
    let text_nodes: Vec<usize> = (0..m).collect();

    // Which table mentions become nodes: all single cells + kept virtuals.
    let mut include: Vec<usize> = targets
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == TableMentionKind::SingleCell)
        .map(|(i, _)| i)
        .collect();
    for cands in candidates {
        for c in cands {
            if targets[c.target].kind != TableMentionKind::SingleCell {
                include.push(c.target);
            }
        }
    }
    include.sort_unstable();
    include.dedup();

    let mut table_nodes = BTreeMap::new();
    for &ti in &include {
        table_nodes.insert(ti, graph.add_node());
    }

    // text-text edges. Each mention is lowercased into chars once; the
    // scratch scorer is bit-identical to `jaro_winkler` on the lowercased
    // strings.
    let lowered: Vec<Vec<char>> = mentions
        .iter()
        .map(|x| x.quantity.raw.to_lowercase().chars().collect())
        .collect();
    let mut jaro = JaroScratch::new();
    let len = doc_tokens.max(1) as f64;
    'text_text: for i in 0..m {
        for j in (i + 1)..m {
            let dist = token_positions[i].abs_diff(token_positions[j]);
            let sim = jaro.jaro_winkler_chars(&lowered[i], &lowered[j]);
            let near = dist <= cfg.proximity_window;
            let similar = sim >= cfg.similarity_threshold;
            if near || similar {
                if !budget.take() {
                    break 'text_text;
                }
                let f_prox = 1.0 - (dist as f64 / len).min(1.0);
                let w = cfg.lambda_proximity * f_prox + cfg.lambda_similarity * sim;
                graph.add_edge(i, j, w);
            }
        }
    }

    // table-table edges: same row or same column of the same table.
    'table_table: for (a_pos, &a) in include.iter().enumerate() {
        for &b in include.iter().skip(a_pos + 1) {
            let (ta, tb) = (&targets[a], &targets[b]);
            if ta.table != tb.table {
                continue;
            }
            let related = share_line(ta, tb) || member_of(ta, tb) || member_of(tb, ta);
            if related {
                if !budget.take() {
                    break 'table_table;
                }
                graph.add_edge(table_nodes[&a], table_nodes[&b], cfg.table_edge_weight);
            }
        }
    }

    // text-table edges: classifier priors.
    'text_table: for (i, cands) in candidates.iter().enumerate() {
        for c in cands {
            if let Some(&tn) = table_nodes.get(&c.target) {
                if !budget.take() {
                    break 'text_table;
                }
                // scores can be 0 for heuristic priors; keep a tiny floor
                graph.add_edge(i, tn, c.score.max(1e-6));
            }
        }
    }

    (
        AlignmentGraph {
            graph,
            text_nodes,
            table_nodes,
        },
        budget.truncated,
    )
}

/// Two single-cell mentions share a row or column.
fn share_line(a: &TableMention, b: &TableMention) -> bool {
    if a.kind != TableMentionKind::SingleCell || b.kind != TableMentionKind::SingleCell {
        return false;
    }
    let (ar, ac) = a.cells[0];
    let (br, bc) = b.cells[0];
    ar == br || ac == bc
}

/// Is `cell` one of aggregate `agg`'s member cells?
fn member_of(agg: &TableMention, cell: &TableMention) -> bool {
    agg.kind != TableMentionKind::SingleCell
        && cell.kind == TableMentionKind::SingleCell
        && agg.cells.contains(&cell.cells[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use briq_text::cues::AggregationKind;
    use briq_text::quantity::QuantityMention;
    use briq_text::units::Unit;

    fn mention(id: usize, value: f64, start: usize) -> TextMention {
        TextMention {
            id,
            quantity: QuantityMention {
                raw: format!("{value}"),
                value,
                unnormalized: value,
                unit: Unit::None,
                precision: 0,
                approx: Default::default(),
                start,
                end: start + 2,
            },
        }
    }

    fn cell(table: usize, r: usize, c: usize, value: f64) -> TableMention {
        TableMention {
            table,
            kind: TableMentionKind::SingleCell,
            cells: vec![(r, c)],
            value,
            unnormalized: value,
            raw: format!("{value}"),
            unit: Unit::None,
            precision: 0,
            orientation: None,
        }
    }

    fn agg(table: usize, cells: Vec<(usize, usize)>, value: f64) -> TableMention {
        TableMention {
            table,
            kind: TableMentionKind::Aggregate(AggregationKind::Sum),
            cells,
            value,
            unnormalized: value,
            raw: "sum".into(),
            unit: Unit::None,
            precision: 0,
            orientation: Some(briq_table::Orientation::Column(1)),
        }
    }

    fn setup() -> (Vec<TextMention>, Vec<TableMention>, Vec<Vec<Candidate>>) {
        let mentions = vec![mention(0, 5.0, 0), mention(1, 11.0, 10)];
        let targets = vec![
            cell(0, 1, 1, 5.0),
            cell(0, 2, 1, 6.0),
            cell(0, 1, 2, 7.0),
            agg(0, vec![(1, 1), (2, 1)], 11.0),
        ];
        let candidates = vec![
            vec![Candidate {
                target: 0,
                score: 0.9,
            }],
            vec![Candidate {
                target: 3,
                score: 0.7,
            }],
        ];
        (mentions, targets, candidates)
    }

    #[test]
    fn nodes_cover_text_singles_and_kept_virtuals() {
        let (mentions, targets, candidates) = setup();
        let g = build_graph(
            &mentions,
            &[0, 3],
            20,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        // 2 text + 3 single cells + 1 kept aggregate
        assert_eq!(g.graph.len(), 6);
        assert!(g.table_node(3).is_some());
    }

    #[test]
    fn unkept_virtuals_not_nodes() {
        let (mentions, targets, mut candidates) = setup();
        candidates[1].clear();
        let g = build_graph(
            &mentions,
            &[0, 3],
            20,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        assert_eq!(g.graph.len(), 5);
        assert!(g.table_node(3).is_none());
    }

    #[test]
    fn text_text_edge_for_near_mentions() {
        let (mentions, targets, candidates) = setup();
        let g = build_graph(
            &mentions,
            &[0, 3],
            20,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        assert!(g.graph.edge_weight(0, 1).is_some());
    }

    #[test]
    fn far_dissimilar_mentions_not_connected() {
        let (mut mentions, targets, candidates) = setup();
        mentions[1].quantity.raw = "99999".into();
        let g = build_graph(
            &mentions,
            &[0, 500],
            1000,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        assert!(g.graph.edge_weight(0, 1).is_none());
    }

    #[test]
    fn table_table_edges_same_row_or_col() {
        let (mentions, targets, candidates) = setup();
        let g = build_graph(
            &mentions,
            &[0, 3],
            20,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        let n0 = g.table_node(0).unwrap(); // (1,1)
        let n1 = g.table_node(1).unwrap(); // (2,1) same column
        let n2 = g.table_node(2).unwrap(); // (1,2) same row as (1,1)
        assert!(g.graph.edge_weight(n0, n1).is_some());
        assert!(g.graph.edge_weight(n0, n2).is_some());
        // (2,1) and (1,2): no shared line
        assert!(g.graph.edge_weight(n1, n2).is_none());
    }

    #[test]
    fn aggregate_connects_to_members() {
        let (mentions, targets, candidates) = setup();
        let g = build_graph(
            &mentions,
            &[0, 3],
            20,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        let sum_node = g.table_node(3).unwrap();
        let member = g.table_node(0).unwrap();
        let nonmember = g.table_node(2).unwrap();
        assert!(g.graph.edge_weight(sum_node, member).is_some());
        assert!(g.graph.edge_weight(sum_node, nonmember).is_none());
    }

    #[test]
    fn edge_budget_truncates_construction() {
        let (mentions, targets, candidates) = setup();
        let cfg = GraphConfig::default();
        let (full, t_full) = build_graph_budgeted(
            &mentions,
            &[0, 3],
            20,
            &targets,
            &candidates,
            &cfg,
            usize::MAX,
        );
        assert!(!t_full);
        let total = full.graph.edge_count();
        assert!(total > 1, "setup should produce several edges, got {total}");
        let (capped, truncated) =
            build_graph_budgeted(&mentions, &[0, 3], 20, &targets, &candidates, &cfg, 1);
        assert!(truncated);
        assert_eq!(capped.graph.edge_count(), 1);
        // Zero budget still yields a usable (edgeless) graph.
        let (bare, truncated) =
            build_graph_budgeted(&mentions, &[0, 3], 20, &targets, &candidates, &cfg, 0);
        assert!(truncated);
        assert_eq!(bare.graph.edge_count(), 0);
        assert_eq!(bare.graph.len(), full.graph.len());
    }

    #[test]
    fn text_table_edges_use_scores() {
        let (mentions, targets, candidates) = setup();
        let g = build_graph(
            &mentions,
            &[0, 3],
            20,
            &targets,
            &candidates,
            &GraphConfig::default(),
        );
        let n0 = g.table_node(0).unwrap();
        assert_eq!(g.graph.edge_weight(0, n0), Some(0.9));
    }
}

briq_json::json_struct!(GraphConfig {
    lambda_proximity,
    lambda_similarity,
    proximity_window,
    similarity_threshold,
    table_edge_weight,
});
