//! Shared experiment machinery: corpus setup, training, evaluation of the
//! three systems (RF-only, RWR-only, BriQ) under the three mention
//! variants (original, truncated, rounded).

use briq_core::baselines::{rf_only_scored, rwr_only_scored};
use briq_core::evaluate::{EvalReport, FilterRecall};
use briq_core::filtering::FilterStats;
use briq_core::obs::{names, Recorder};
use briq_core::pipeline::{Briq, BriqConfig};
use briq_core::training::{build_training_examples, LabeledDocument, TrainingBreakdown};
use briq_core::FeatureMask;
use briq_corpus::annotate::{annotate, AnnotatorConfig};
use briq_corpus::corpus::{generate_corpus_observed, CorpusConfig};
use briq_corpus::{perturb_document, Domain, Perturbation};
use briq_ml::split::{random_split, Split};

/// Which system to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Classifier-only baseline.
    Rf,
    /// Random-walk-only baseline.
    Rwr,
    /// The full BriQ pipeline.
    Briq,
}

impl SystemKind {
    /// All three systems in the paper's column order.
    pub const ALL: [SystemKind; 3] = [SystemKind::Rf, SystemKind::Rwr, SystemKind::Briq];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Rf => "RF",
            SystemKind::Rwr => "RWR",
            SystemKind::Briq => "BriQ",
        }
    }
}

/// A prepared experiment: annotated corpus, split, trained system.
pub struct ExperimentSetup {
    /// Annotated labeled documents.
    pub documents: Vec<LabeledDocument>,
    /// Domain per document.
    pub domains: Vec<Domain>,
    /// Document-level 80/10/10 split.
    pub split: Split,
    /// The trained BriQ instance.
    pub briq: Briq,
    /// Measured inter-annotator kappa.
    pub kappa: f64,
    /// Training-data breakdown (Table I).
    pub breakdown: TrainingBreakdown,
}

/// Experiment-setup parameters.
#[derive(Debug, Clone)]
pub struct SetupConfig {
    /// Number of corpus documents.
    pub n_documents: usize,
    /// Corpus seed.
    pub seed: u64,
    /// Feature-ablation mask.
    pub mask: FeatureMask,
}

impl Default for SetupConfig {
    fn default() -> Self {
        SetupConfig {
            n_documents: 400,
            seed: 20190408,
            mask: FeatureMask::all(),
        }
    }
}

/// Generate, annotate, split, and train.
pub fn prepare(cfg: &SetupConfig) -> ExperimentSetup {
    prepare_observed(cfg, &Recorder::disabled())
}

/// [`prepare`] with observability: the corpus-generation span/counters
/// and the training spans/counters are recorded into `rec`. The
/// recorder only observes — the prepared setup is bit-identical with it
/// enabled or disabled.
pub fn prepare_observed(cfg: &SetupConfig, rec: &Recorder) -> ExperimentSetup {
    let corpus_cfg = CorpusConfig {
        n_documents: cfg.n_documents,
        seed: cfg.seed,
        ..Default::default()
    };
    let corpus = generate_corpus_observed(&corpus_cfg, rec);
    let mut documents = corpus.documents;
    let domains = corpus.domains;
    let outcome = annotate(&mut documents, &AnnotatorConfig::default());

    // 80/10/10 document split (§VII-B).
    let split = random_split(documents.len(), 0.1, 0.1, cfg.seed ^ 0x5eed);

    let mut train_docs: Vec<LabeledDocument> =
        split.train.iter().map(|&i| documents[i].clone()).collect();
    // The tagger trains on a withheld slice — we use the validation split
    // (disjoint from both training and test).
    let mut tagger_docs: Vec<LabeledDocument> = split
        .validation
        .iter()
        .map(|&i| documents[i].clone())
        .collect();
    // Training-side labels carry the annotation noise that survives
    // consensus (κ = 0.6854 is substantial, not perfect); the evaluation
    // measures against the synthesized truth.
    briq_corpus::annotate::corrupt_labels(&mut train_docs, &AnnotatorConfig::default());
    briq_corpus::annotate::corrupt_labels(&mut tagger_docs, &AnnotatorConfig::default());

    let briq_cfg = BriqConfig {
        mask: cfg.mask,
        ..Default::default()
    };
    let (_, breakdown) =
        build_training_examples(&train_docs, &briq_cfg.virtual_cells, &briq_cfg.context);
    // Hyper-parameters (α/β mix and ε of Eq. 1) are grid-searched on the
    // validation split, as in §VII-C.
    let (briq, _) = Briq::train_tuned(briq_cfg, &train_docs, &tagger_docs, rec);

    ExperimentSetup {
        documents,
        domains,
        split,
        briq,
        kappa: outcome.kappa,
        breakdown,
    }
}

/// The test documents of a setup, under a perturbation.
pub fn test_documents(setup: &ExperimentSetup, p: Perturbation) -> Vec<LabeledDocument> {
    setup
        .split
        .test
        .iter()
        .map(|&i| perturb_document(&setup.documents[i], p))
        .collect()
}

/// Evaluate one system over the given labeled documents.
pub fn evaluate_system(briq: &Briq, system: SystemKind, docs: &[LabeledDocument]) -> EvalReport {
    evaluate_system_observed(briq, system, docs, &Recorder::disabled())
}

/// [`evaluate_system`] under an `evaluate` span, counting evaluated
/// documents into `rec`. Scores are bit-identical either way.
pub fn evaluate_system_observed(
    briq: &Briq,
    system: SystemKind,
    docs: &[LabeledDocument],
    rec: &Recorder,
) -> EvalReport {
    let _g = briq_core::span!(rec, names::SPAN_EVAL);
    rec.count(names::EVAL_DOCUMENTS, docs.len() as u64);
    let mut report = EvalReport::default();
    for ld in docs {
        let predictions = match system {
            SystemKind::Rf => {
                let sd = briq.score_document(&ld.document);
                rf_only_scored(&sd)
            }
            SystemKind::Rwr => {
                let sd = briq.score_document(&ld.document);
                rwr_only_scored(briq, &sd)
            }
            SystemKind::Briq => briq.align(&ld.document),
        };
        report.add_document(&predictions, &ld.gold);
    }
    report
}

/// Filtering selectivity + post-filter recall over documents (Table VI).
pub fn filtering_stats(briq: &Briq, docs: &[LabeledDocument]) -> (FilterStats, FilterRecall) {
    let mut stats = FilterStats::default();
    let mut recall = FilterRecall::default();
    for ld in docs {
        let sd = briq.score_document(&ld.document);
        let (candidates, s) = briq.filter(&sd);
        stats.merge(&s);
        recall.add_document(&sd.mentions, &candidates, &sd.targets, &ld.gold);
    }
    (stats, recall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_setup() -> ExperimentSetup {
        prepare(&SetupConfig {
            n_documents: 60,
            seed: 42,
            mask: FeatureMask::all(),
        })
    }

    #[test]
    fn setup_trains_and_splits() {
        let s = small_setup();
        assert!(s.briq.is_trained());
        assert_eq!(s.split.test.len(), 6);
        assert_eq!(s.split.validation.len(), 6);
        assert_eq!(s.split.train.len(), 48);
        assert!(s.kappa > 0.4);
        let (pos, neg) = s.breakdown.totals();
        assert!(pos > 0 && neg > 0);
    }

    #[test]
    fn briq_competitive_with_rf_and_beats_it_on_precision() {
        // At small test scales BriQ's F1 margin over RF fluctuates with
        // the seed (EXPERIMENTS.md discusses the variance); the robust
        // invariants are competitiveness on F1 and the precision edge
        // from ε-rejection of unalignable mentions.
        let s = prepare(&SetupConfig {
            n_documents: 200,
            seed: 20190408,
            mask: FeatureMask::all(),
        });
        let docs = test_documents(&s, Perturbation::Original);
        let briq = evaluate_system(&s.briq, SystemKind::Briq, &docs);
        let rf = evaluate_system(&s.briq, SystemKind::Rf, &docs);
        assert!(
            briq.overall().f1 >= rf.overall().f1 - 0.05,
            "BriQ {} vs RF {}",
            briq.overall().f1,
            rf.overall().f1
        );
        assert!(
            briq.overall().precision >= rf.overall().precision,
            "BriQ precision {} vs RF precision {}",
            briq.overall().precision,
            rf.overall().precision
        );
        assert!(briq.overall().f1 > 0.3, "BriQ F1 {}", briq.overall().f1);
    }

    #[test]
    fn filtering_keeps_most_gold() {
        let s = small_setup();
        let docs = test_documents(&s, Perturbation::Original);
        let (stats, recall) = filtering_stats(&s.briq, &docs);
        assert!(stats.overall_selectivity() < 0.3);
        assert!(
            recall.overall() > 0.5,
            "post-filter recall {}",
            recall.overall()
        );
    }
}
