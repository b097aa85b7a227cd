//! Precomputed context structures for feature computation.
//!
//! Feature extraction compares the textual surroundings of a text mention
//! against the row/column/table content of a candidate table mention
//! (§IV-B). Contexts are computed once per document and reused across the
//! many candidate pairs.

use briq_table::{Document, TableMention};
use briq_text::chunker::noun_phrase_strings;
use briq_text::cues::{infer_aggregation, AggregationKind};
use briq_text::sentence::{sentence_containing, split_sentences};
use briq_text::token::{light_stem, tokenize, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

use crate::mention::TextMention;

/// Context-window parameters (tuned on validation data in the paper).
#[derive(Debug, Clone, Copy)]
pub struct ContextConfig {
    /// Words before/after the mention forming the local window (feature
    /// f2's `n`).
    pub local_window: usize,
    /// Distance step at which word weights are discounted.
    pub step_size: usize,
    /// Weight discount per step.
    pub step_weight: f64,
    /// Window (words) used to infer the aggregation function (f12; the
    /// paper defaults to five).
    pub aggregation_window: usize,
    /// Window (words) for the tagger's immediate context (§V-A: ten).
    pub immediate_window: usize,
}

impl Default for ContextConfig {
    fn default() -> Self {
        ContextConfig {
            local_window: 8,
            step_size: 2,
            step_weight: 0.2,
            aggregation_window: 5,
            immediate_window: 10,
        }
    }
}

fn stem_set(text: &str) -> BTreeSet<String> {
    tokenize(text)
        .into_iter()
        .filter(|t| t.is_wordlike() || t.kind == TokenKind::Number)
        .map(|t| light_stem(&t.text))
        .collect()
}

/// Precomputed per-table context: stemmed word sets and noun phrases for
/// every row, every column, and the table as a whole.
#[derive(Debug, Clone)]
pub struct TableContext {
    /// Stemmed words per row (headers included).
    pub row_words: Vec<BTreeSet<String>>,
    /// Stemmed words per column.
    pub col_words: Vec<BTreeSet<String>>,
    /// All stemmed words of the table plus caption.
    pub table_words: BTreeSet<String>,
    /// Noun phrases per row.
    pub row_phrases: Vec<BTreeSet<String>>,
    /// Noun phrases per column.
    pub col_phrases: Vec<BTreeSet<String>>,
    /// All noun phrases of the table plus caption.
    pub table_phrases: BTreeSet<String>,
}

impl TableContext {
    /// Build the context of one table. Pure in the table's caption and
    /// cell grid — the alignment store relies on this purity to reuse
    /// cached table contexts across page versions (DESIGN.md §15).
    pub fn build(table: &briq_table::Table) -> TableContext {
        let row_words: Vec<_> = (0..table.n_rows)
            .map(|r| stem_set(&table.row_text(r)))
            .collect();
        let col_words: Vec<_> = (0..table.n_cols)
            .map(|c| stem_set(&table.col_text(c)))
            .collect();
        let table_words = stem_set(&table.full_text());
        let row_phrases: Vec<_> = (0..table.n_rows)
            .map(|r| {
                noun_phrase_strings(&table.row_text(r))
                    .into_iter()
                    .collect()
            })
            .collect();
        let col_phrases: Vec<_> = (0..table.n_cols)
            .map(|c| {
                noun_phrase_strings(&table.col_text(c))
                    .into_iter()
                    .collect()
            })
            .collect();
        let table_phrases = noun_phrase_strings(&table.full_text())
            .into_iter()
            .collect();
        TableContext {
            row_words,
            col_words,
            table_words,
            row_phrases,
            col_phrases,
            table_phrases,
        }
    }

    /// Local context of a table mention: union of the rows and columns of
    /// its member cells (§IV-B: "for the table mention it is the full row
    /// and the full column content").
    pub fn local_words(&self, m: &TableMention) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for &(r, c) in &m.cells {
            if let Some(w) = self.row_words.get(r) {
                out.extend(w.iter().cloned());
            }
            if let Some(w) = self.col_words.get(c) {
                out.extend(w.iter().cloned());
            }
        }
        out
    }

    /// Local noun phrases of a table mention (rows + columns of members).
    pub fn local_phrases(&self, m: &TableMention) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for &(r, c) in &m.cells {
            if let Some(p) = self.row_phrases.get(r) {
                out.extend(p.iter().cloned());
            }
            if let Some(p) = self.col_phrases.get(c) {
                out.extend(p.iter().cloned());
            }
        }
        out
    }
}

/// Per-text-mention context view.
#[derive(Debug, Clone)]
pub struct MentionContext {
    /// Stemmed word → positional weight, over the local window (f2).
    pub local_weights: BTreeMap<String, f64>,
    /// Noun phrases of the containing sentence (f4).
    pub sentence_phrases: BTreeSet<String>,
    /// Lowercased words of the immediate window (tagger features).
    pub immediate_words: Vec<String>,
    /// Lowercased words of the containing sentence (tagger local scope).
    pub sentence_words: Vec<String>,
    /// Aggregation inferred from cue words near the mention (f12).
    pub inferred_aggregation: Option<AggregationKind>,
    /// Token index of the mention's first token (proximity features).
    pub token_index: usize,
}

/// Precomputed per-document context.
#[derive(Debug, Clone)]
pub struct DocContext {
    /// Document tokens.
    pub tokens: Vec<Token>,
    /// Stemmed words of the whole paragraph (f3).
    pub paragraph_words: BTreeSet<String>,
    /// Lowercased words of the whole paragraph (tagger global scope).
    pub paragraph_word_list: Vec<String>,
    /// Noun phrases of the whole paragraph (f5).
    pub paragraph_phrases: BTreeSet<String>,
    /// Per-table contexts.
    pub tables: Vec<TableContext>,
    /// Per-text-mention contexts, parallel to the extracted mentions.
    pub mentions: Vec<MentionContext>,
}

impl DocContext {
    /// Build the full context for `doc` and its extracted `mentions`.
    pub fn build(doc: &Document, mentions: &[TextMention], cfg: &ContextConfig) -> DocContext {
        let tables = doc.tables.iter().map(TableContext::build).collect();
        let tokens = tokenize(&doc.text);
        let sentences = split_sentences(&doc.text);
        let paragraph_words = stem_set(&doc.text);
        let paragraph_word_list: Vec<String> = tokens
            .iter()
            .filter(|t| t.is_wordlike())
            .map(|t| t.lower())
            .collect();
        let paragraph_phrases: BTreeSet<String> =
            noun_phrase_strings(&doc.text).into_iter().collect();

        let mention_ctx = mentions
            .iter()
            .map(|m| Self::mention_context(&doc.text, &tokens, &sentences, m, cfg))
            .collect();

        DocContext {
            tokens,
            paragraph_words,
            paragraph_word_list,
            paragraph_phrases,
            tables,
            mentions: mention_ctx,
        }
    }

    fn mention_context(
        text: &str,
        tokens: &[Token],
        sentences: &[(usize, usize)],
        m: &TextMention,
        cfg: &ContextConfig,
    ) -> MentionContext {
        let q = &m.quantity;
        // Index of the first token at/after the mention start.
        let tix = tokens.partition_point(|t| t.end <= q.start);

        // Word tokens around the mention, with distances (in word tokens).
        let mut local_weights: BTreeMap<String, f64> = BTreeMap::new();
        let mut immediate_words = Vec::new();
        let mut agg_words = Vec::new();
        let add = |list: &mut Vec<String>, word: &str| list.push(word.to_string());

        // walk left
        let mut d = 0usize;
        let mut i = tix;
        while i > 0 && d < cfg.local_window.max(cfg.immediate_window) {
            i -= 1;
            let t = &tokens[i];
            if t.end <= q.start && t.is_wordlike() {
                d += 1;
                let lower = t.lower();
                if d <= cfg.immediate_window {
                    add(&mut immediate_words, &lower);
                }
                if d <= cfg.aggregation_window {
                    add(&mut agg_words, &lower);
                }
                if d <= cfg.local_window {
                    let w = weight_at(d, cfg);
                    let stem = light_stem(&t.text);
                    let e = local_weights.entry(stem).or_insert(0.0);
                    *e = e.max(w);
                }
            }
        }
        immediate_words.reverse();
        agg_words.reverse();
        // walk right
        let mut d = 0usize;
        let mut i = tix;
        while i < tokens.len() && d < cfg.local_window.max(cfg.immediate_window) {
            let t = &tokens[i];
            i += 1;
            if t.start >= q.end && t.is_wordlike() {
                d += 1;
                let lower = t.lower();
                if d <= cfg.immediate_window {
                    add(&mut immediate_words, &lower);
                }
                if d <= cfg.aggregation_window {
                    add(&mut agg_words, &lower);
                }
                if d <= cfg.local_window {
                    let w = weight_at(d, cfg);
                    let stem = light_stem(&t.text);
                    let e = local_weights.entry(stem).or_insert(0.0);
                    *e = e.max(w);
                }
            }
        }

        // containing sentence
        let (ss, se) = sentence_containing(sentences, q.start).unwrap_or((0, text.len()));
        let sentence = &text[ss..se];
        let sentence_phrases: BTreeSet<String> =
            noun_phrase_strings(sentence).into_iter().collect();
        let sentence_words: Vec<String> = tokenize(sentence)
            .into_iter()
            .filter(|t| t.is_wordlike())
            .map(|t| t.lower())
            .collect();

        let agg_refs: Vec<&str> = agg_words.iter().map(|s| s.as_str()).collect();
        let inferred_aggregation = infer_aggregation(&agg_refs);

        MentionContext {
            local_weights,
            sentence_phrases,
            immediate_words,
            sentence_words,
            inferred_aggregation,
            token_index: tix,
        }
    }
}

/// Positional weight of a word at distance `d` (in words) from the
/// mention: `1 − (d / stepSize) · stepWeight`, floored at 0.05 (§IV-B).
fn weight_at(d: usize, cfg: &ContextConfig) -> f64 {
    (1.0 - (d as f64 / cfg.step_size as f64) * cfg.step_weight).max(0.05)
}

/// Weighted overlap coefficient between the mention's weighted words and a
/// table mention's word set (table words weigh 1).
pub fn weighted_overlap(weights: &BTreeMap<String, f64>, table_words: &BTreeSet<String>) -> f64 {
    if weights.is_empty() || table_words.is_empty() {
        return 0.0;
    }
    let inter: f64 = weights
        .iter()
        .filter(|(w, _)| table_words.contains(*w))
        .map(|(_, &v)| v)
        .sum();
    let text_mass: f64 = weights.values().sum();
    let denom = text_mass.min(table_words.len() as f64);
    if denom <= 0.0 {
        0.0
    } else {
        (inter / denom).min(1.0)
    }
}

/// Plain overlap coefficient between two sets.
pub fn overlap(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    a.intersection(b).count() as f64 / a.len().min(b.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mention::text_mentions;
    use briq_table::Table;

    fn doc() -> Document {
        Document::new(
            0,
            "Overall, a total of 123 patients reported side effects. \
             Depression was reported by 38 patients.",
            vec![Table::from_grid(
                "",
                vec![
                    vec!["side effects".into(), "patients".into()],
                    vec!["Rash".into(), "35".into()],
                    vec!["Depression".into(), "38".into()],
                ],
            )],
        )
    }

    fn ctx() -> (Document, Vec<TextMention>, DocContext) {
        let d = doc();
        let ms = text_mentions(&d);
        let c = DocContext::build(&d, &ms, &ContextConfig::default());
        (d, ms, c)
    }

    #[test]
    fn mentions_and_contexts_parallel() {
        let (_, ms, c) = ctx();
        assert_eq!(ms.len(), 2);
        assert_eq!(c.mentions.len(), 2);
    }

    #[test]
    fn sum_cue_inferred_for_total() {
        let (_, _, c) = ctx();
        assert_eq!(
            c.mentions[0].inferred_aggregation,
            Some(AggregationKind::Sum)
        );
        assert_eq!(c.mentions[1].inferred_aggregation, None);
    }

    #[test]
    fn local_weights_decay_with_distance() {
        let (_, _, c) = ctx();
        let w = &c.mentions[0].local_weights;
        // "of" is adjacent, "overall" is farther away
        let near = w.get("of").copied().unwrap_or(0.0);
        let far = w.get("overall").copied().unwrap_or(0.0);
        assert!(near > far, "near={near} far={far}");
        assert!(far > 0.0);
    }

    #[test]
    fn immediate_window_contains_cues() {
        let (_, _, c) = ctx();
        assert!(c.mentions[0].immediate_words.contains(&"total".to_string()));
        assert!(c.mentions[1]
            .immediate_words
            .contains(&"depression".to_string()));
    }

    #[test]
    fn sentence_scoping() {
        let (_, _, c) = ctx();
        // Mention 2's sentence has "depression" but not "total".
        assert!(c.mentions[1]
            .sentence_words
            .contains(&"depression".to_string()));
        assert!(!c.mentions[1].sentence_words.contains(&"total".to_string()));
    }

    #[test]
    fn table_context_row_col_words() {
        let (_, _, c) = ctx();
        let t = &c.tables[0];
        assert!(t.row_words[2].contains("depression"));
        assert!(t.col_words[1].contains("patient")); // stemmed
        assert!(t.table_words.contains("rash"));
    }

    #[test]
    fn table_mention_local_context_unions_row_and_col() {
        let (_, _, c) = ctx();
        let tm = TableMention {
            table: 0,
            kind: briq_table::TableMentionKind::SingleCell,
            cells: vec![(2, 1)],
            value: 38.0,
            unnormalized: 38.0,
            raw: "38".into(),
            unit: briq_text::Unit::None,
            precision: 0,
            orientation: None,
        };
        let words = c.tables[0].local_words(&tm);
        assert!(words.contains("depression")); // row
        assert!(words.contains("patient")); // column header
        assert!(!words.contains("rash")); // different row, different col? no:
                                          // "rash" is in column 0... cell (2,1)'s column is 1, so rash (row 1,
                                          // col 0) is absent.
    }

    #[test]
    fn overlap_functions() {
        let a: BTreeSet<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let b: BTreeSet<String> = ["y", "z", "w"].iter().map(|s| s.to_string()).collect();
        assert!((overlap(&a, &b) - 0.5).abs() < 1e-12);
        let mut w = BTreeMap::new();
        w.insert("y".to_string(), 0.8);
        w.insert("q".to_string(), 0.2);
        let v = weighted_overlap(&w, &b);
        assert!((v - 0.8).abs() < 1e-12);
        assert_eq!(weighted_overlap(&BTreeMap::new(), &b), 0.0);
    }
}

briq_json::json_struct!(ContextConfig {
    local_window,
    step_size,
    step_weight,
    aggregation_window,
    immediate_window,
});
