//! The end-to-end BriQ pipeline (Fig. 2).

use briq_ml::RandomForestConfig;
use briq_table::virtual_cells::{all_table_mentions_capped, VirtualCellConfig};
use briq_table::{Document, TableError, TableMention};
use briq_text::cues::AggregationKind;

use crate::batch::{BatchConfig, BatchReport, StageTimings};
use crate::classifier::PairClassifier;
use crate::context::{ContextConfig, DocContext, TableContext};
use crate::error::{
    BriqError, Budget, CancelCause, CancelToken, DegradedAction, Diagnostics, Stage,
};
use crate::features::{FeatureMask, PairFeaturizer, FEATURE_COUNT};
use crate::filtering::{
    filter_mention, filter_mention_pruned, Candidate, FilterConfig, FilterStats,
};
use crate::graph_builder::{build_graph_budgeted, GraphConfig};
use crate::mention::{text_mentions, Alignment, TextMention};
use crate::obs::{names, Recorder};
use crate::resolution::{resolve_observed, ResolutionConfig, ResolutionEvent};
use crate::retrieval::CandidateIndex;
use crate::span;
use crate::store::AlignmentStore;
use crate::tagger::{tagger_features, MentionTagger, TaggerExample};
use crate::training::{
    build_training_examples, examples_to_dataset, tagger_label, LabeledDocument,
};
use std::time::Instant;

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct BriqConfig {
    /// Context-window parameters (§IV-B).
    pub context: ContextConfig,
    /// Virtual-cell generation (§II-A).
    pub virtual_cells: VirtualCellConfig,
    /// Adaptive filtering (§V).
    pub filter: FilterConfig,
    /// Graph construction (§VI-A).
    pub graph: GraphConfig,
    /// Global resolution (§VI-B).
    pub resolution: ResolutionConfig,
    /// Random-forest settings for the pair classifier.
    pub forest: RandomForestConfig,
    /// Random-forest settings for the tagger.
    pub tagger_forest: RandomForestConfig,
    /// Tagger confidence threshold (§V-A, precision-oriented).
    pub tagger_threshold: f64,
    /// Feature-ablation mask (§VIII-B).
    pub mask: FeatureMask,
    /// Retrieve candidates through the per-document
    /// [`crate::retrieval::CandidateIndex`] instead of pairing every
    /// mention with every target (DESIGN.md §13). Output is bit-identical
    /// either way (`--no-index` turns it off).
    pub use_index: bool,
    /// Serve repeated alignments of unchanged (or partially changed)
    /// documents from the versioned [`crate::store::AlignmentStore`]
    /// when one is attached (DESIGN.md §15). Output is bit-identical
    /// either way (`--no-store` turns it off).
    pub use_store: bool,
}

impl Default for BriqConfig {
    fn default() -> Self {
        BriqConfig {
            context: ContextConfig::default(),
            virtual_cells: VirtualCellConfig::default(),
            filter: FilterConfig::default(),
            graph: GraphConfig::default(),
            resolution: ResolutionConfig::default(),
            forest: RandomForestConfig::default(),
            tagger_forest: RandomForestConfig {
                n_trees: 32,
                ..Default::default()
            },
            tagger_threshold: 0.6,
            mask: FeatureMask::all(),
            use_index: true,
            use_store: true,
        }
    }
}

/// A document prepared for alignment: mentions, context, targets, and the
/// full classifier score matrix. Shared by BriQ and the baselines.
pub struct ScoredDocument {
    /// Extracted text mentions.
    pub mentions: Vec<TextMention>,
    /// Precomputed document context.
    pub ctx: DocContext,
    /// All table mentions (single + virtual cells).
    pub targets: Vec<TableMention>,
    /// Per mention, every `(target index, prior score)` pair.
    pub scored: Vec<Vec<(usize, f64)>>,
    /// Per mention, the tagger's predicted aggregation kinds (empty =
    /// single cell).
    pub tags: Vec<Vec<AggregationKind>>,
    /// The budget this document was scored under (and that downstream
    /// stages should keep honouring).
    pub budget: Budget,
}

/// The BriQ system: trained classifier + tagger + configuration.
#[derive(Debug, Clone)]
pub struct Briq {
    /// Configuration in force.
    pub cfg: BriqConfig,
    classifier: Option<PairClassifier>,
    tagger: MentionTagger,
}

/// How one [`Briq::align_with`] call runs. The default is what
/// [`Briq::align`] does: unlimited budget, disabled recorder, no cancel
/// token, no store.
pub struct AlignOptions<'a> {
    /// Resource caps for this document.
    pub budget: Budget,
    /// Span and metrics sink (observation only).
    pub rec: Recorder,
    /// Cooperative cancellation (deadline and/or shutdown flag).
    pub cancel: CancelToken,
    /// The versioned store and this document's key in it. Consulted
    /// only when `cfg.use_store` is also true.
    pub store: Option<(&'a AlignmentStore, u64)>,
}

impl Default for AlignOptions<'_> {
    fn default() -> Self {
        AlignOptions {
            budget: Budget::unlimited(),
            rec: Recorder::disabled(),
            cancel: CancelToken::none(),
            store: None,
        }
    }
}

/// Everything one [`Briq::align_with`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignOutput {
    /// The resolved alignments.
    pub alignments: Vec<Alignment>,
    /// Filtering totals (Table VI).
    pub stats: FilterStats,
    /// Per mention, the candidates kept by adaptive filtering.
    pub candidates: Vec<Vec<Candidate>>,
    /// Everything that degraded while aligning.
    pub diagnostics: Diagnostics,
    /// Per-stage wall-clock (the only field that varies run to run).
    pub timings: StageTimings,
}

/// Uniform-weight combination of the 12 features into a `[0, 1]` score —
/// the prior used before training and by the RWR-only baseline ("these
/// features are combined using uniform weights", §VII-D).
pub fn heuristic_prior(f: &[f64]) -> f64 {
    let surface = f[0];
    let ctx = (f[1] + f[2] + f[3] + f[4]) / 4.0;
    let value = 1.0 - f[5].min(1.0);
    let value_raw = 1.0 - f[6].min(1.0);
    let unit = (3.0 - f[7]) / 3.0;
    let scale = (1.0 - f[8] / 4.0).max(0.0);
    let precision = (1.0 - f[9] / 4.0).max(0.0);
    let agg = (3.0 - f[11]) / 3.0;
    ((surface + ctx + value + value_raw + unit + scale + precision + agg) / 8.0).clamp(0.0, 1.0)
}

/// [`heuristic_prior`] under a feature mask, without copying the row:
/// masked features read as 0.0, exactly as if `mask.apply` had zeroed a
/// copy first — same expressions, same evaluation order, bit-identical.
pub fn heuristic_prior_masked(f: &[f64], mask: &FeatureMask) -> f64 {
    let g = |i: usize| if mask.keeps(i) { f[i] } else { 0.0 };
    let surface = g(0);
    let ctx = (g(1) + g(2) + g(3) + g(4)) / 4.0;
    let value = 1.0 - g(5).min(1.0);
    let value_raw = 1.0 - g(6).min(1.0);
    let unit = (3.0 - g(7)) / 3.0;
    let scale = (1.0 - g(8) / 4.0).max(0.0);
    let precision = (1.0 - g(9) / 4.0).max(0.0);
    let agg = (3.0 - g(11)) / 3.0;
    ((surface + ctx + value + value_raw + unit + scale + precision + agg) / 8.0).clamp(0.0, 1.0)
}

impl Briq {
    /// A BriQ instance without a trained classifier: the heuristic prior
    /// replaces the Random Forest and a lexical tagger replaces the
    /// trained one. Useful for exploration and doc examples.
    pub fn untrained(cfg: BriqConfig) -> Briq {
        let tagger = MentionTagger::lexical(cfg.tagger_threshold);
        Briq {
            cfg,
            classifier: None,
            tagger,
        }
    }

    /// Train the classifier on `train_docs` and the tagger on
    /// `tagger_docs` (the paper withholds a separate small set for the
    /// tagger, §V-A).
    pub fn train(
        cfg: BriqConfig,
        train_docs: &[LabeledDocument],
        tagger_docs: &[LabeledDocument],
    ) -> Briq {
        Self::train_observed(cfg, train_docs, tagger_docs, &Recorder::disabled())
    }

    /// [`Briq::train`] with observability: spans for example building,
    /// forest training, and tagger training, plus the `train_*` counters,
    /// are recorded into `rec`. The recorder only observes — the trained
    /// model is bit-identical with it enabled or disabled.
    fn train_observed(
        cfg: BriqConfig,
        train_docs: &[LabeledDocument],
        tagger_docs: &[LabeledDocument],
        rec: &Recorder,
    ) -> Briq {
        let _train_guard = span!(rec, names::SPAN_TRAIN);
        let (examples, data) = {
            let _g = span!(rec, names::SPAN_TRAIN_EXAMPLES);
            let (examples, _) =
                build_training_examples(train_docs, &cfg.virtual_cells, &cfg.context);
            let data = examples_to_dataset(&examples);
            (examples, data)
        };
        rec.count(names::TRAIN_EXAMPLES_BUILT, examples.len() as u64);
        rec.count(
            names::TRAIN_POSITIVES,
            examples.iter().filter(|e| e.label).count() as u64,
        );
        let classifier = {
            let _g = span!(rec, names::SPAN_TRAIN_FOREST);
            PairClassifier::train(&data, cfg.forest, cfg.mask)
        };
        let tagger = {
            let _g = span!(rec, names::SPAN_TRAIN_TAGGER);
            Self::train_tagger(&cfg, tagger_docs)
        };
        Briq {
            cfg,
            classifier: Some(classifier),
            tagger,
        }
    }

    /// Train and then tune the resolution hyper-parameters (α/β mix and
    /// acceptance threshold ε of Eq. 1) by grid search on the validation
    /// documents (§VII-C: "we use grid search to choose the best values
    /// for the hyper-parameters, for the classifiers as well as for the
    /// graph-based algorithm"). Returns the tuned system and the selected
    /// parameters' validation F1.
    ///
    /// The training spans and counters of [`Briq::train`] are recorded
    /// into `rec` (pass [`Recorder::disabled`] to record nothing). The
    /// validation grid search runs after the `train` span closes and is
    /// deliberately not traced per point — it aligns every validation
    /// document dozens of times and would dwarf the registry.
    pub fn train_tuned(
        cfg: BriqConfig,
        train_docs: &[LabeledDocument],
        validation_docs: &[LabeledDocument],
        rec: &Recorder,
    ) -> (Briq, f64) {
        let mut briq = Self::train_observed(cfg, train_docs, validation_docs, rec);

        let alphas = [0.3, 0.5, 0.7];
        let epsilons = [0.05, 0.12, 0.2];
        let sigma_mins = [0.0, 0.1, 0.25];
        let mut grid: Vec<(f64, f64, f64)> = Vec::new();
        for &a in &alphas {
            for &e in &epsilons {
                for &m in &sigma_mins {
                    grid.push((a, e, m));
                }
            }
        }

        let f1_of = |briq: &Briq| {
            let mut report = crate::evaluate::EvalReport::default();
            for ld in validation_docs {
                report.add_document(&briq.align(&ld.document), &ld.gold);
            }
            report.overall().f1
        };

        let best = briq_ml::gridsearch::grid_search(&grid, |&(alpha, epsilon, sigma_min)| {
            let mut candidate = briq.clone();
            candidate.cfg.resolution.alpha = alpha;
            candidate.cfg.resolution.beta = 1.0 - alpha;
            candidate.cfg.resolution.epsilon = epsilon;
            candidate.cfg.resolution.sigma_min = sigma_min;
            f1_of(&candidate)
        });
        if let Some((i, f1)) = best {
            let (alpha, epsilon, sigma_min) = grid[i];
            briq.cfg.resolution.alpha = alpha;
            briq.cfg.resolution.beta = 1.0 - alpha;
            briq.cfg.resolution.epsilon = epsilon;
            briq.cfg.resolution.sigma_min = sigma_min;
            (briq, f1)
        } else {
            let f1 = f1_of(&briq);
            (briq, f1)
        }
    }

    fn train_tagger(cfg: &BriqConfig, docs: &[LabeledDocument]) -> MentionTagger {
        let mut examples = Vec::new();
        for ld in docs {
            let mentions = text_mentions(&ld.document);
            if mentions.is_empty() {
                continue;
            }
            let ctx = DocContext::build(&ld.document, &mentions, &cfg.context);
            for x in &mentions {
                let gold = ld
                    .gold
                    .iter()
                    .find(|g| x.quantity.start < g.mention_end && g.mention_start < x.quantity.end);
                let Some(g) = gold else { continue };
                examples.push(TaggerExample {
                    features: tagger_features(x, &ctx, &ld.document),
                    label: tagger_label(g.kind),
                });
            }
        }
        if examples.is_empty() {
            MentionTagger::lexical(cfg.tagger_threshold)
        } else {
            MentionTagger::train(&examples, cfg.tagger_forest, cfg.tagger_threshold)
        }
    }

    /// Is a trained classifier in force?
    pub fn is_trained(&self) -> bool {
        self.classifier.is_some()
    }

    /// The trained pair classifier, if any (read by the store's model
    /// fingerprint).
    pub(crate) fn classifier(&self) -> Option<&PairClassifier> {
        self.classifier.as_ref()
    }

    /// The mention tagger in force (read by the store's model
    /// fingerprint).
    pub(crate) fn tagger(&self) -> &MentionTagger {
        &self.tagger
    }

    /// Serialize the whole system (configuration, classifier forest,
    /// tagger forests) to JSON for later reuse.
    pub fn to_json(&self) -> briq_json::Result<String> {
        Ok(briq_json::to_string(self))
    }

    /// Restore a system saved with [`Briq::to_json`].
    pub fn from_json(s: &str) -> briq_json::Result<Briq> {
        briq_json::from_str(s)
    }

    /// Prior score of a feature vector (trained RF or heuristic). Both
    /// paths honour the ablation mask without copying the row, so scoring
    /// a pair performs no heap allocation.
    pub fn prior(&self, features: &[f64]) -> f64 {
        match &self.classifier {
            Some(c) => c.score(features),
            None => heuristic_prior_masked(features, &self.cfg.mask),
        }
    }

    /// Stage 1+2: extract mentions/targets and score every pair.
    pub fn score_document(&self, doc: &Document) -> ScoredDocument {
        self.score_document_budgeted(doc, &Budget::unlimited()).0
    }

    /// Budgeted stage 1+2 with per-table fault isolation: degenerate
    /// tables are skipped (with a diagnostic), and virtual-cell
    /// generation for each table is truncated at the budget instead of
    /// exploding quadratically. An unlimited budget is bit-identical to
    /// [`Briq::score_document`].
    pub fn score_document_budgeted(
        &self,
        doc: &Document,
        budget: &Budget,
    ) -> (ScoredDocument, Diagnostics) {
        let (mentions, ctx, targets, diags) = self.extract_stage(doc, budget);
        let (scored, tags) = self.classify_stage(doc, &mentions, &ctx, &targets);
        (
            ScoredDocument {
                mentions,
                ctx,
                targets,
                scored,
                tags,
                budget: *budget,
            },
            diags,
        )
    }

    /// Stage 1: text mentions, document context, and (budget-capped)
    /// table mentions, with per-table degradation diagnostics.
    #[allow(clippy::type_complexity)]
    fn extract_stage(
        &self,
        doc: &Document,
        budget: &Budget,
    ) -> (Vec<TextMention>, DocContext, Vec<TableMention>, Diagnostics) {
        let mentions = text_mentions(doc);
        let (tables, targets, diags) = self.extract_table_side(doc, budget);
        let ctx = DocContext::build_with_tables(doc, &mentions, &self.cfg.context, tables);
        (mentions, ctx, targets, diags)
    }

    /// The table half of extraction: per-table contexts, alignment
    /// targets (single + capped virtual cells), and the degenerate-table
    /// / budget-truncation diagnostics they produce. Pure in
    /// `doc.tables` + config + budget, which is what lets the alignment
    /// store reuse it verbatim when only the paragraph text of a page
    /// changed (DESIGN.md §15).
    pub(crate) fn extract_table_side(
        &self,
        doc: &Document,
        budget: &Budget,
    ) -> (Vec<TableContext>, Vec<TableMention>, Diagnostics) {
        let mut diags = Diagnostics::default();
        let tables: Vec<TableContext> = doc.tables.iter().map(TableContext::build).collect();

        for (i, t) in doc.tables.iter().enumerate() {
            if t.data_rows().is_empty() || t.data_cols().is_empty() {
                diags.record(
                    Stage::Extraction,
                    format!("table {i}"),
                    &BriqError::Table(TableError::DegenerateTable { table: i }),
                    DegradedAction::Skipped,
                );
            }
        }

        let (targets, truncated_tables) = all_table_mentions_capped(
            &doc.tables,
            &self.cfg.virtual_cells,
            budget.max_virtual_cells_per_table,
        );
        for &t in &truncated_tables {
            diags.record(
                Stage::VirtualCells,
                format!("table {t}"),
                &BriqError::Table(TableError::VirtualCellBudgetExceeded {
                    table: t,
                    max_cells: budget.max_virtual_cells_per_table,
                }),
                DegradedAction::Truncated,
            );
        }
        (tables, targets, diags)
    }

    /// Stage 2: score every mention/target pair and tag each mention's
    /// likely aggregation kinds.
    ///
    /// The hot loop: invariants are hoisted into a [`PairFeaturizer`]
    /// built once per document, each mention's candidate rows are written
    /// into one reused flat feature matrix, and [`Briq::prior`] scores
    /// each row in place — no allocation per pair.
    #[allow(clippy::type_complexity)]
    fn classify_stage(
        &self,
        doc: &Document,
        mentions: &[TextMention],
        ctx: &DocContext,
        targets: &[TableMention],
    ) -> (Vec<Vec<(usize, f64)>>, Vec<Vec<AggregationKind>>) {
        let mut featurizer = PairFeaturizer::new(mentions, targets, ctx);
        let mut rows: Vec<f64> = Vec::new();
        let mut block_out: Vec<f64> = Vec::new();
        let scored: Vec<Vec<(usize, f64)>> = (0..mentions.len())
            .map(|mi| {
                featurizer.fill_mention_rows(mi, &mut rows);
                match &self.classifier {
                    // Trained: block-wise traversal (trees outer, rows
                    // inner) — bit-identical to `self.prior` per row.
                    Some(clf) => {
                        block_out.clear();
                        block_out.resize(targets.len(), 0.0);
                        clf.flat().score_block(&rows, FEATURE_COUNT, &mut block_out);
                        block_out.iter().copied().enumerate().collect()
                    }
                    None => rows
                        .chunks_exact(FEATURE_COUNT)
                        .enumerate()
                        .map(|(ti, row)| (ti, heuristic_prior_masked(row, &self.cfg.mask)))
                        .collect(),
                }
            })
            .collect();

        let tags: Vec<Vec<AggregationKind>> = mentions
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let mut tags = self.tagger.tags(&tagger_features(x, ctx, doc));
                if self.cfg.virtual_cells.extended {
                    tags.extend(crate::tagger::extended_lexical_tags(
                        &ctx.mentions[i].immediate_words,
                    ));
                }
                tags
            })
            .collect();
        (scored, tags)
    }

    /// Fused stages 2+3 for the alignment path: per mention, retrieve
    /// the viable candidate set through the per-document
    /// [`CandidateIndex`] (DESIGN.md §13), fill only those feature rows,
    /// score them through the batched [`crate::scoring::ScoringEngine`] (unique-row
    /// dedup + block-wise flat-forest traversal + exact bound-based
    /// pruning, DESIGN.md §10), and filter the partially scored
    /// candidate set. Byte-identical to exhaustive
    /// [`Briq::classify_stage`] + [`Briq::filter`] by the engine's
    /// exactness contract and the index's recall contract;
    /// `tests/hot_path_equivalence.rs` pins the former and
    /// `use_index: false` (CI's `--no-index` run) the latter.
    ///
    /// [`Briq::score_document`] deliberately does NOT use this path: its
    /// consumers (baselines, training, evaluation) read the full score
    /// matrix, which pruning by design does not materialize.
    #[allow(clippy::too_many_arguments)]
    fn classify_filter_stage(
        &self,
        doc: &Document,
        mentions: &[TextMention],
        ctx: &DocContext,
        targets: &[TableMention],
        timings: &mut StageTimings,
        rec: &Recorder,
        cancel: &CancelToken,
    ) -> Result<(Vec<Vec<Candidate>>, FilterStats), CancelCause> {
        let mut pass = ClassifyPass::new(self, doc, mentions, ctx, targets, timings, rec);
        let mut stats = FilterStats::default();
        let mut candidates = Vec::with_capacity(mentions.len());
        for mi in 0..mentions.len() {
            if let Some(cause) = cancel.cause() {
                return Err(cause);
            }
            let (cands, delta) = pass.run_mention(mi, timings, rec);
            // Per-mention deltas merged in mention order reproduce the
            // direct accumulation exactly: `FilterStats` is a pair of
            // count maps and merge is entrywise addition.
            stats.merge(&delta);
            candidates.push(cands);
        }
        pass.finish(timings, &stats, rec);
        Ok((candidates, stats))
    }

    /// Stage 3: adaptive filtering of a scored document.
    pub fn filter(&self, sd: &ScoredDocument) -> (Vec<Vec<Candidate>>, FilterStats) {
        let mut stats = FilterStats::default();
        let candidates = sd
            .mentions
            .iter()
            .zip(&sd.scored)
            .zip(&sd.tags)
            .map(|((x, scored), tags)| {
                filter_mention(x, scored, &sd.targets, tags, &self.cfg.filter, &mut stats)
            })
            .collect();
        (candidates, stats)
    }

    /// Full pipeline: align a document's text mentions to table mentions
    /// under an unlimited budget — [`Briq::align_with`] with the default
    /// [`AlignOptions`], keeping only the alignments.
    pub fn align(&self, doc: &Document) -> Vec<Alignment> {
        self.align_with(doc, &AlignOptions::default()).alignments
    }

    /// The one alignment entry point. Every other way of aligning a
    /// document (`align`, the batch engine, the server) runs through it.
    ///
    /// * **Budget** — stages degrade instead of exploding: every degraded
    ///   table, mention, or stage is isolated and reported in
    ///   [`AlignOutput::diagnostics`]. On documents that stay within the
    ///   budget the output is bit-identical to an unlimited run.
    /// * **Recorder** — spans for every pipeline stage plus the
    ///   DESIGN.md §11 counters and histograms. It only *observes*: the
    ///   output is bit-identical whether it is enabled or disabled (CI
    ///   byte-compares a traced run to hold this).
    /// * **Cancel token** — polled at every stage boundary and once per
    ///   mention inside the classification and resolution loops. When it
    ///   fires the call returns **no partial state**: no alignments, no
    ///   candidates, and exactly one [`DegradedAction::Cancelled`]
    ///   diagnostic naming the stage that observed it (diagnostics
    ///   recorded before the cut are kept: they describe work that really
    ///   happened). Cancelled runs are never cached.
    /// * **Store** — with `Some((store, key))` *and* `cfg.use_store`,
    ///   unchanged documents are served from the versioned
    ///   [`AlignmentStore`], only the dirty mentions of partially changed
    ///   ones are re-aligned, and cold keys are computed and cached.
    ///   Output is bit-identical for every cache state — the store only
    ///   replays artifacts whose inputs fingerprint-match. With
    ///   `use_store: false` the store is neither consulted nor populated.
    pub fn align_with(&self, doc: &Document, opts: &AlignOptions<'_>) -> AlignOutput {
        match opts.store.filter(|_| self.cfg.use_store) {
            Some((store, key)) => store.align(self, key, doc, opts),
            None => self.align_uncached(doc, opts),
        }
    }

    /// Align a whole batch of documents on a work-stealing worker pool —
    /// see [`crate::batch`] for the engine and its determinism contract.
    pub fn align_batch(&self, docs: &[Document], cfg: &BatchConfig) -> BatchReport {
        crate::batch::align_batch(self, docs, cfg, None)
    }

    /// [`Briq::align_batch`] against a shared [`AlignmentStore`]: one
    /// store serves every worker, and document `i` is keyed by `keys[i]`
    /// (or by `i` when `keys` is `None`). Output stays input-order
    /// deterministic and bit-identical to [`Briq::align_batch`] for every
    /// cache state; with `use_store: false` the store is not touched.
    pub fn align_batch_stored(
        &self,
        docs: &[Document],
        cfg: &BatchConfig,
        store: &AlignmentStore,
        keys: Option<&[u64]>,
    ) -> BatchReport {
        debug_assert!(keys.is_none_or(|k| k.len() == docs.len()));
        crate::batch::align_batch(self, docs, cfg, Some((store, keys)))
    }

    /// The stateless pipeline behind [`Briq::align_with`]: every stage
    /// runs from scratch.
    fn align_uncached(&self, doc: &Document, opts: &AlignOptions<'_>) -> AlignOutput {
        let (budget, rec, cancel) = (&opts.budget, &opts.rec, &opts.cancel);
        let mut timings = StageTimings::default();
        if let Some(cause) = cancel.cause() {
            return cancelled_result(Stage::Extraction, cause, Default::default(), timings, rec);
        }
        let t_extract = Instant::now();
        let (mentions, ctx, targets, mut diags) = {
            let _g = span!(rec, names::SPAN_EXTRACT);
            self.extract_stage(doc, budget)
        };
        timings.extract_s += t_extract.elapsed().as_secs_f64();
        rec.count(names::MENTIONS, mentions.len() as u64);
        rec.count(names::TARGETS, targets.len() as u64);

        let (candidates, stats) = match self.classify_filter_stage(
            doc,
            &mentions,
            &ctx,
            &targets,
            &mut timings,
            rec,
            cancel,
        ) {
            Ok(out) => out,
            Err(cause) => {
                return cancelled_result(Stage::Classification, cause, diags, timings, rec)
            }
        };
        timings.pairs_scored += (mentions.len() * targets.len()) as u64;
        rec.count(names::PAIRS_SCORED, (mentions.len() * targets.len()) as u64);

        let alignments = match self.graph_resolve_stage(
            &mentions,
            &ctx,
            &targets,
            &candidates,
            &mut diags,
            budget,
            &mut timings,
            rec,
            cancel,
        ) {
            Ok(a) => a,
            Err((stage, cause)) => return cancelled_result(stage, cause, diags, timings, rec),
        };
        record_budget_exhaustions(&diags, rec);
        AlignOutput {
            alignments,
            stats,
            candidates,
            diagnostics: diags,
            timings,
        }
    }

    /// Stages 4+5: budgeted graph construction and global resolution,
    /// then the final alignment mapping. Shared verbatim between
    /// [`Briq::align_uncached`] and the alignment store's
    /// incremental path (DESIGN.md §15) — resolution is a global
    /// algorithm (each decision updates the graph the next walk runs
    /// on), so any changed document re-runs this stage in full, from
    /// identical inputs, and can never drift from the full recompute.
    /// A fired cancel token surfaces as `Err((stage, cause))`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn graph_resolve_stage(
        &self,
        mentions: &[TextMention],
        ctx: &DocContext,
        targets: &[TableMention],
        candidates: &[Vec<Candidate>],
        diags: &mut Diagnostics,
        budget: &Budget,
        timings: &mut StageTimings,
        rec: &Recorder,
        cancel: &CancelToken,
    ) -> Result<Vec<Alignment>, (Stage, CancelCause)> {
        if let Some(cause) = cancel.cause() {
            return Err((Stage::GraphConstruction, cause));
        }
        let t1 = Instant::now();
        let positions: Vec<usize> = ctx.mentions.iter().map(|m| m.token_index).collect();
        let (ag, edges_truncated) = {
            let _g = span!(rec, names::SPAN_GRAPH);
            build_graph_budgeted(
                mentions,
                &positions,
                ctx.tokens.len(),
                targets,
                candidates,
                &self.cfg.graph,
                budget.max_graph_edges,
            )
        };
        if edges_truncated {
            diags.record(
                Stage::GraphConstruction,
                "document".into(),
                &BriqError::EdgeBudgetExceeded {
                    max_edges: budget.max_graph_edges,
                },
                DegradedAction::Truncated,
            );
        }
        let (resolved, events) = {
            let _g = span!(rec, names::SPAN_RESOLVE);
            resolve_observed(
                ag,
                candidates,
                &self.cfg.resolution,
                budget.max_rwr_iterations,
                rec,
                cancel,
            )
        };
        if let Some(&ResolutionEvent::Cancelled { cause }) = events.first() {
            return Err((Stage::Resolution, cause));
        }
        for ev in events {
            match ev {
                // Handled above: a cancelled resolution emits exactly one
                // event and no resolutions.
                ResolutionEvent::Cancelled { .. } => {}
                ResolutionEvent::NotConverged { mention, report } => diags.record(
                    Stage::Resolution,
                    format!("mention {mention}"),
                    &BriqError::RwrNotConverged {
                        mention,
                        iterations: report.iterations,
                        residual: report.residual,
                    },
                    DegradedAction::Truncated,
                ),
                ResolutionEvent::PriorFallback { mention, error } => diags.record(
                    Stage::Resolution,
                    format!("mention {mention}"),
                    &BriqError::Graph(error),
                    DegradedAction::Fallback,
                ),
            }
        }
        let alignments: Vec<Alignment> = resolved
            .into_iter()
            .map(|r| {
                let x = &mentions[r.mention];
                Alignment {
                    mention_start: x.quantity.start,
                    mention_end: x.quantity.end,
                    mention_raw: x.quantity.raw.clone(),
                    target: targets[r.target].clone(),
                    score: r.score,
                }
            })
            .collect();
        timings.resolve_s += t1.elapsed().as_secs_f64();
        rec.count(names::ALIGNMENTS, alignments.len() as u64);
        Ok(alignments)
    }
}

/// The fused classify+filter stage, factored into a per-mention unit so
/// the alignment store can re-run it for exactly the dirty mentions of a
/// changed page version (DESIGN.md §15) while [`Briq::classify_filter_stage`]
/// drives it over every mention. One instance per document: the
/// featurizer, scoring engine, retrieval index, and scratch buffers are
/// built once and shared across `run_mention` calls, exactly as the
/// former monolithic loop did.
pub(crate) struct ClassifyPass<'a> {
    briq: &'a Briq,
    doc: &'a Document,
    mentions: &'a [TextMention],
    ctx: &'a DocContext,
    targets: &'a [TableMention],
    featurizer: PairFeaturizer<'a>,
    engine: crate::scoring::ScoringEngine,
    scratch: crate::retrieval::RetrievalScratch,
    index: Option<CandidateIndex>,
}

impl<'a> ClassifyPass<'a> {
    /// Build the per-document machinery. All of it — featurizer, arena
    /// takes and retrieval-index build — is charged to the classify stage
    /// and runs inside a `classify` span, so throughput artifacts, the
    /// perf-trend gate and traces see its cost.
    pub(crate) fn new(
        briq: &'a Briq,
        doc: &'a Document,
        mentions: &'a [TextMention],
        ctx: &'a DocContext,
        targets: &'a [TableMention],
        timings: &mut StageTimings,
        rec: &Recorder,
    ) -> ClassifyPass<'a> {
        let t0 = Instant::now();
        let _g = span!(rec, names::SPAN_CLASSIFY);
        let featurizer = PairFeaturizer::new(mentions, targets, ctx);
        // Pooled per-worker scratch (DESIGN.md §14): reset engine and
        // retrieval buffers from this thread's arena instead of cold
        // construction. An early cancellation return simply drops them;
        // the arena refills on the next document.
        let engine = crate::arena::take_engine();
        // Built once per document (tokenless: `retrieve` never consults
        // postings, so the hot path must not pay for them); retrieval
        // per mention is then allocation-free and bounded by the viable
        // candidate set.
        let index = briq
            .cfg
            .use_index
            .then(|| CandidateIndex::build(targets, briq.cfg.filter.value_diff_threshold));
        let scratch = crate::arena::take_retrieval_scratch();
        timings.classify_s += t0.elapsed().as_secs_f64();
        ClassifyPass {
            briq,
            doc,
            mentions,
            ctx,
            targets,
            featurizer,
            engine,
            scratch,
            index,
        }
    }

    /// Classify + filter one mention. Returns its kept candidates and a
    /// fresh [`FilterStats`] delta holding exactly this mention's
    /// contribution to the document totals (filter counts plus
    /// retrieval-dropped counts) — pure per mention, so the store can
    /// cache and replay it.
    pub(crate) fn run_mention(
        &mut self,
        mi: usize,
        timings: &mut StageTimings,
        rec: &Recorder,
    ) -> (Vec<Candidate>, FilterStats) {
        let x = &self.mentions[mi];
        let mut delta = FilterStats::default();
        let t0 = Instant::now();
        let tags = {
            let _g = span!(rec, names::SPAN_CLASSIFY, mention = mi);
            let mut tags = self
                .briq
                .tagger
                .tags(&tagger_features(x, self.ctx, self.doc));
            if self.briq.cfg.virtual_cells.extended {
                tags.extend(crate::tagger::extended_lexical_tags(
                    &self.ctx.mentions[mi].immediate_words,
                ));
            }
            match &self.index {
                Some(idx) => {
                    idx.retrieve(x.quantity.value, x.quantity.unit, &tags, &mut self.scratch);
                    self.engine.fill_rows_selected(
                        &mut self.featurizer,
                        mi,
                        &self.scratch.near,
                        &self.scratch.far,
                    );
                    match &self.briq.classifier {
                        Some(clf) => self.engine.score_trained_selected(
                            x,
                            self.targets,
                            &tags,
                            clf,
                            &self.briq.cfg.filter,
                        ),
                        None => self.engine.score_heuristic_selected(&self.briq.cfg.mask),
                    }
                    // Keep Table-VI totals identical to the oracle's.
                    idx.record_dropped(&self.scratch, &mut delta);
                    let retrieved = self.scratch.retrieved() as u64;
                    let skipped = self.targets.len() as u64 - retrieved;
                    timings.candidates_retrieved += retrieved;
                    timings.pairs_skipped_retrieval += skipped;
                    rec.count(names::RETRIEVAL_CANDIDATES, retrieved);
                    rec.count(names::RETRIEVAL_PAIRS_DROPPED, skipped);
                    rec.observe(names::RETRIEVAL_CANDIDATES_PER_MENTION, retrieved as f64);
                }
                None => {
                    self.engine.fill_rows(&mut self.featurizer, mi);
                    match &self.briq.classifier {
                        Some(clf) => self.engine.score_trained(
                            x,
                            self.targets,
                            &tags,
                            clf,
                            &self.briq.cfg.filter,
                        ),
                        None => self.engine.score_heuristic(&self.briq.cfg.mask),
                    }
                }
            }
            tags
        };
        timings.classify_s += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let cands;
        {
            let _g = span!(rec, names::SPAN_FILTER, mention = mi);
            cands = filter_mention_pruned(
                x,
                self.engine.computed(),
                self.engine.pruned_targets(),
                self.targets,
                &tags,
                &self.briq.cfg.filter,
                &mut delta,
            );
        }
        timings.filter_s += t1.elapsed().as_secs_f64();
        (cands, delta)
    }

    /// Flush engine totals and recycle the scratch buffers. `stats` is
    /// the document's final (merged) filter totals, recorded exactly
    /// where the former monolithic loop recorded them.
    pub(crate) fn finish(self, timings: &mut StageTimings, stats: &FilterStats, rec: &Recorder) {
        timings.rows_deduped += self.engine.rows_deduped();
        timings.pairs_pruned += self.engine.pairs_pruned();
        self.engine.record_into(rec);
        stats.record_into(rec);
        crate::arena::put_engine(self.engine);
        crate::arena::put_retrieval_scratch(self.scratch);
        rec.observe(names::ARENA_BYTES_PEAK, crate::arena::bytes_peak() as f64);
    }
}

/// Shared early-return shape for a cancelled request: no alignments, no
/// candidates, previously recorded diagnostics kept, plus exactly one
/// [`DegradedAction::Cancelled`] entry naming the stage that observed the
/// token. Discarding the stage outputs wholesale is what "no partial
/// state" means — a cancelled response can never leak a half-resolved
/// alignment set. The timings of the work done before the cut are kept.
pub(crate) fn cancelled_result(
    stage: Stage,
    cause: CancelCause,
    mut diagnostics: Diagnostics,
    timings: StageTimings,
    rec: &Recorder,
) -> AlignOutput {
    diagnostics.record(
        stage,
        "document".into(),
        &BriqError::Cancelled { stage, cause },
        DegradedAction::Cancelled,
    );
    rec.count(names::CANCELLATIONS, 1);
    AlignOutput {
        alignments: Vec::new(),
        stats: FilterStats::default(),
        candidates: Vec::new(),
        diagnostics,
        timings,
    }
}

/// Count the budget-truncation diagnostics of a finished document.
pub(crate) fn record_budget_exhaustions(diags: &Diagnostics, rec: &Recorder) {
    rec.count(
        names::BUDGET_EXHAUSTIONS,
        diags
            .items
            .iter()
            .filter(|d| d.action == DegradedAction::Truncated)
            .count() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use briq_table::Table;

    fn health_doc() -> Document {
        Document::new(
            0,
            "A total of 123 patients reported side effects; depression was \
             the most common, reported by 38 patients, and eye disorders \
             the least common, reported by 5 patients.",
            vec![Table::from_grid(
                "",
                vec![
                    vec![
                        "side effects".into(),
                        "male".into(),
                        "female".into(),
                        "total".into(),
                    ],
                    vec!["Rash".into(), "15".into(), "20".into(), "35".into()],
                    vec!["Depression".into(), "13".into(), "25".into(), "38".into()],
                    vec!["Hypertension".into(), "19".into(), "15".into(), "34".into()],
                    vec!["Nausea".into(), "5".into(), "6".into(), "11".into()],
                    vec!["Eye Disorders".into(), "2".into(), "3".into(), "5".into()],
                ],
            )],
        )
    }

    #[test]
    fn untrained_pipeline_aligns_fig1a() {
        let briq = Briq::untrained(BriqConfig::default());
        let doc = health_doc();
        let alignments = briq.align(&doc);
        assert!(!alignments.is_empty());
        // "38" should go to the Depression row's total cell (2,3).
        let a38 = alignments
            .iter()
            .find(|a| a.mention_raw.starts_with("38"))
            .expect("38 aligned");
        assert_eq!(a38.target.cells, vec![(2, 3)]);
        // "total of 123" should map to the sum of the total column.
        let a123 = alignments.iter().find(|a| a.mention_raw.starts_with("123"));
        if let Some(a) = a123 {
            assert!(a.target.is_aggregate(), "{a:?}");
            assert_eq!(a.target.value, 123.0);
        }
    }

    #[test]
    fn score_document_shapes() {
        let briq = Briq::untrained(BriqConfig::default());
        let sd = briq.score_document(&health_doc());
        assert_eq!(sd.mentions.len(), sd.scored.len());
        assert_eq!(sd.mentions.len(), sd.tags.len());
        assert!(!sd.targets.is_empty());
        for row in &sd.scored {
            assert_eq!(row.len(), sd.targets.len());
            for &(_, s) in row {
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn filtering_reduces_candidates() {
        let briq = Briq::untrained(BriqConfig::default());
        let sd = briq.score_document(&health_doc());
        let (candidates, stats) = briq.filter(&sd);
        let total_pairs: usize = sd.scored.iter().map(Vec::len).sum();
        let kept: usize = candidates.iter().map(Vec::len).sum();
        assert!(kept < total_pairs / 2, "kept {kept} of {total_pairs}");
        assert!(stats.overall_selectivity() < 0.5);
    }

    #[test]
    fn empty_document_no_alignments() {
        let briq = Briq::untrained(BriqConfig::default());
        let doc = Document::new(0, "no numbers here at all", vec![]);
        assert!(briq.align(&doc).is_empty());
    }

    fn budgeted(briq: &Briq, doc: &Document, budget: Budget) -> AlignOutput {
        let opts = AlignOptions {
            budget,
            ..AlignOptions::default()
        };
        briq.align_with(doc, &opts)
    }

    #[test]
    fn default_budget_matches_align_on_clean_input() {
        let briq = Briq::untrained(BriqConfig::default());
        let doc = health_doc();
        let plain = briq.align(&doc);
        let out = budgeted(&briq, &doc, Budget::default());
        assert_eq!(plain, out.alignments);
        assert!(out.diagnostics.is_clean(), "{:?}", out.diagnostics);
    }

    #[test]
    fn tight_budgets_degrade_with_diagnostics_not_panics() {
        let briq = Briq::untrained(BriqConfig::default());
        let doc = health_doc();
        let budget = crate::error::Budget {
            max_regex_steps: 1,
            max_virtual_cells_per_table: 3,
            max_graph_edges: 2,
            max_rwr_iterations: 1,
        };
        let diags = budgeted(&briq, &doc, budget).diagnostics;
        assert!(!diags.is_clean());
        let stages: Vec<Stage> = diags.items.iter().map(|d| d.stage).collect();
        assert!(stages.contains(&Stage::VirtualCells), "{diags:?}");
        assert!(stages.contains(&Stage::GraphConstruction), "{diags:?}");
        // Budget enforcement: no more virtual-cell targets than allowed.
        let (sd, _) = briq.score_document_budgeted(&doc, &budget);
        let virtuals = sd
            .targets
            .iter()
            .filter(|t| t.kind != briq_table::TableMentionKind::SingleCell)
            .count();
        assert!(virtuals <= budget.max_virtual_cells_per_table);
    }

    #[test]
    fn degenerate_tables_are_skipped_with_diagnostics() {
        let briq = Briq::untrained(BriqConfig::default());
        let doc = Document::new(
            0,
            "There were 38 patients in total.",
            vec![Table::from_grid("", Vec::new())],
        );
        let diags = budgeted(&briq, &doc, Budget::default()).diagnostics;
        assert!(
            diags.items.iter().any(|d| d.stage == Stage::Extraction
                && d.action == crate::error::DegradedAction::Skipped),
            "{diags:?}"
        );
    }

    #[test]
    fn heuristic_prior_ranges() {
        let perfect = vec![1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let terrible = vec![0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 3.0, 6.0, 4.0, 0.0, 3.0];
        assert!(heuristic_prior(&perfect) > 0.9);
        assert!(heuristic_prior(&terrible) < 0.2);
        assert!(heuristic_prior(&perfect) <= 1.0);
        assert!(heuristic_prior(&terrible) >= 0.0);
    }

    #[test]
    fn train_tuned_selects_valid_parameters() {
        let doc = health_doc();
        let s38 = doc.text.find("38").unwrap();
        let gold = vec![crate::mention::GoldAlignment {
            mention_start: s38,
            mention_end: s38 + 2,
            table: 0,
            kind: briq_table::TableMentionKind::SingleCell,
            cells: vec![(2, 3)],
        }];
        let ld = LabeledDocument {
            document: doc,
            gold,
        };
        let mut cfg = BriqConfig::default();
        cfg.forest.n_trees = 16;
        cfg.tagger_forest.n_trees = 8;
        let (briq, f1) = Briq::train_tuned(
            cfg,
            std::slice::from_ref(&ld),
            std::slice::from_ref(&ld),
            &Recorder::disabled(),
        );
        assert!(briq.cfg.resolution.alpha + briq.cfg.resolution.beta > 0.99);
        assert!((0.0..=1.0).contains(&f1));
    }

    #[test]
    fn trained_pipeline_runs() {
        // Minimal training corpus from the health example itself.
        let doc = health_doc();
        let s38 = doc.text.find("38").unwrap();
        let gold = vec![crate::mention::GoldAlignment {
            mention_start: s38,
            mention_end: s38 + 2,
            table: 0,
            kind: briq_table::TableMentionKind::SingleCell,
            cells: vec![(2, 3)],
        }];
        let ld = LabeledDocument {
            document: doc.clone(),
            gold,
        };
        let briq = Briq::train(
            BriqConfig::default(),
            std::slice::from_ref(&ld),
            std::slice::from_ref(&ld),
        );
        assert!(briq.is_trained());
        let alignments = briq.align(&doc);
        // The trained system still produces alignments on its train doc.
        assert!(!alignments.is_empty());
    }
}

// Hand-written (not `json_struct!`) so `use_index` can default to `true`
// on model files serialized before the field existed.
impl briq_json::ToJson for BriqConfig {
    fn to_json(&self) -> briq_json::Value {
        briq_json::Value::Object(vec![
            ("context".to_string(), self.context.to_json()),
            ("virtual_cells".to_string(), self.virtual_cells.to_json()),
            ("filter".to_string(), self.filter.to_json()),
            ("graph".to_string(), self.graph.to_json()),
            ("resolution".to_string(), self.resolution.to_json()),
            ("forest".to_string(), self.forest.to_json()),
            ("tagger_forest".to_string(), self.tagger_forest.to_json()),
            (
                "tagger_threshold".to_string(),
                self.tagger_threshold.to_json(),
            ),
            ("mask".to_string(), self.mask.to_json()),
            ("use_index".to_string(), self.use_index.to_json()),
            ("use_store".to_string(), self.use_store.to_json()),
        ])
    }
}
impl briq_json::FromJson for BriqConfig {
    fn from_json(v: &briq_json::Value) -> briq_json::Result<Self> {
        let obj = v
            .as_object()
            .ok_or_else(|| briq_json::JsonError::new("expected BriqConfig object"))?;
        Ok(BriqConfig {
            context: briq_json::field(obj, "context")?,
            virtual_cells: briq_json::field(obj, "virtual_cells")?,
            filter: briq_json::field(obj, "filter")?,
            graph: briq_json::field(obj, "graph")?,
            resolution: briq_json::field(obj, "resolution")?,
            forest: briq_json::field(obj, "forest")?,
            tagger_forest: briq_json::field(obj, "tagger_forest")?,
            tagger_threshold: briq_json::field(obj, "tagger_threshold")?,
            mask: briq_json::field(obj, "mask")?,
            use_index: briq_json::field_or(obj, "use_index", true)?,
            use_store: briq_json::field_or(obj, "use_store", true)?,
        })
    }
}
briq_json::json_struct!(Briq {
    cfg,
    classifier,
    tagger
});
