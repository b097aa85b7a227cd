//! Input preparation: the trained model, seeded page corpora and their
//! edits, plus the shared steps every workload times (page loading,
//! output serialization) and the gold-standard scoring.

use briq_core::batch::BatchReport;
use briq_core::evaluate::EvalReport;
use briq_core::mention::GoldAlignment;
use briq_core::pipeline::{Briq, BriqConfig};
use briq_core::store::Fingerprint;
use briq_corpus::annotate::{annotate, AnnotatorConfig};
use briq_corpus::corpus::{generate_corpus, CorpusConfig};
use briq_corpus::domain::Domain;
use briq_corpus::page::render_page;
use briq_ml::split::random_split;
use briq_table::html::parse_page;
use briq_table::segment::{segment_page, SegmentConfig};
use briq_table::Document;
use std::collections::HashMap;

use crate::trace::Tracer;

/// Trees in the demo recipe's pair forest (`briq-align --train-demo`).
pub const DEMO_TREES: usize = 128;

/// SplitMix64: a small seeded generator for schedules and edits.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Train the system with the `briq-align --train-demo` recipe, with
/// `n_trees` trees in the pair forest. With [`DEMO_TREES`] its
/// `to_json` output is the demo model file byte for byte.
pub fn train_demo(n_trees: usize) -> Briq {
    let corpus = generate_corpus(&CorpusConfig {
        n_documents: 200,
        seed: 1,
        ..Default::default()
    });
    let mut docs = corpus.documents;
    annotate(&mut docs, &AnnotatorConfig::default());
    let split = random_split(docs.len(), 0.1, 0.0, 1);
    let train: Vec<_> = split.train.iter().map(|&i| docs[i].clone()).collect();
    let val: Vec<_> = split.validation.iter().map(|&i| docs[i].clone()).collect();
    let mut cfg = BriqConfig::default();
    cfg.forest.n_trees = n_trees;
    Briq::train(cfg, &train, &val)
}

/// Documents generated per page, as `briq-align --gen-corpus` renders them.
pub const DOCS_PER_PAGE: usize = 3;

/// A seeded page corpus with the gold standard of every generated
/// document, in the default domain mix.
pub struct Corpus {
    /// Rendered HTML pages.
    pub pages: Vec<String>,
    gold: Vec<Vec<GoldAlignment>>,
    domains: Vec<Domain>,
    tables: Vec<Vec<Vec<Vec<String>>>>,
    by_text: HashMap<String, usize>,
}

impl Corpus {
    /// `n_docs` generated documents from `seed`, three to a page.
    pub fn generate(seed: u64, n_docs: usize) -> Corpus {
        let c = generate_corpus(&CorpusConfig {
            n_documents: n_docs,
            seed,
            ..Default::default()
        });
        let pages = c
            .documents
            .chunks(DOCS_PER_PAGE)
            .map(|chunk| render_page(&chunk.iter().collect::<Vec<_>>()))
            .collect();
        let by_text = c
            .documents
            .iter()
            .enumerate()
            .map(|(i, d)| (d.document.text.clone(), i))
            .collect();
        Corpus {
            pages,
            tables: c
                .documents
                .iter()
                .map(|d| d.document.tables.iter().map(|t| t.cells.clone()).collect())
                .collect(),
            gold: c.documents.into_iter().map(|d| d.gold).collect(),
            domains: c.domains,
            by_text,
        }
    }

    /// Total page bytes.
    pub fn bytes(&self) -> usize {
        self.pages.iter().map(String::len).sum()
    }

    /// The generated document a segmented one reproduces exactly (same
    /// paragraph, same tables in the same order), if any. Only those
    /// have a gold standard that applies.
    pub fn generated(&self, doc: &Document) -> Option<usize> {
        let &i = self.by_text.get(&doc.text)?;
        let same = self.tables[i].len() == doc.tables.len()
            && self.tables[i]
                .iter()
                .zip(&doc.tables)
                .all(|(a, b)| *a == b.cells);
        same.then_some(i)
    }

    /// Domain of generated document `i`.
    pub fn domain(&self, i: usize) -> Domain {
        self.domains[i]
    }

    /// Add the alignments of segmented `doc` to `eval` when it has gold.
    pub fn score(
        &self,
        eval: &mut EvalReport,
        doc: &Document,
        alignments: &[briq_core::mention::Alignment],
    ) {
        if let Some(i) = self.generated(doc) {
            eval.add_document(alignments, &self.gold[i]);
        }
    }
}

/// Segmented documents of a page list, with one store key per document:
/// the page's name mixed with the segment index, as `briq-align` keys
/// them.
pub struct Loaded {
    /// Documents in page order.
    pub docs: Vec<Document>,
    /// Store key of each document.
    pub keys: Vec<u64>,
}

/// Parse and segment `pages`, timing each call under `parent`.
pub fn load(pages: &[String], tr: &Tracer, parent: Option<usize>) -> Loaded {
    let mut out = Loaded {
        docs: Vec::new(),
        keys: Vec::new(),
    };
    for (p, html) in pages.iter().enumerate() {
        let page = tr.time("html.parse_page", parent, p as u64, || parse_page(html));
        let segmented = tr.time("segment.segment_page", parent, p as u64, || {
            segment_page(&page, &SegmentConfig::default(), out.docs.len())
        });
        let base = {
            let mut f = Fingerprint::new();
            f.str(&format!("page_{p:04}.html"));
            f.finish()
        };
        for (si, doc) in segmented.into_iter().enumerate() {
            let mut f = Fingerprint::new();
            f.u64(base);
            f.usize(si);
            out.keys.push(f.finish());
            out.docs.push(doc);
        }
    }
    out
}

/// Serialize every document's alignments the way `briq-align --json`
/// writes them, one compact line per document.
pub fn serialize(report: &BatchReport, tr: &Tracer, parent: Option<usize>) -> Vec<String> {
    report
        .documents
        .iter()
        .map(|d| {
            tr.time("json.to_string", parent, d.index as u64, || {
                briq_json::to_string(&d.alignments)
            })
        })
        .collect()
}

/// Change digits in the paragraph text of a quarter of `pages` (tables
/// untouched). Each chosen page gets one digit changed in every
/// paragraph that has one.
pub fn edit_quarter(pages: &[String], rng: &mut Rng) -> Vec<String> {
    let n = pages.len();
    let mut chosen: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        chosen.swap(i, rng.below(i + 1));
    }
    chosen.truncate(n.div_ceil(4));
    let mut out = pages.to_vec();
    for i in chosen {
        out[i] = edit_paragraph_digits(&pages[i], rng);
    }
    out
}

/// Replace one digit inside every `<p>…</p>` of `html` by another digit.
pub fn edit_paragraph_digits(html: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(html.len());
    let mut rest = html;
    while let Some(open) = rest.find("<p>") {
        let body_start = open + 3;
        let Some(close) = rest[body_start..].find("</p>") else {
            break;
        };
        let body = &rest[body_start..body_start + close];
        out.push_str(&rest[..body_start]);
        let digits: Vec<usize> = body
            .char_indices()
            .filter(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        if digits.is_empty() {
            out.push_str(body);
        } else {
            let at = digits[rng.below(digits.len())];
            let old = body.as_bytes()[at] - b'0';
            let new = (old + 1 + rng.below(9) as u8) % 10;
            out.push_str(&body[..at]);
            out.push(char::from(b'0' + new));
            out.push_str(&body[at + 1..]);
        }
        rest = &rest[body_start + close..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_touch_paragraph_digits_only() {
        let html = "<p>Sold 120 units in 2019.</p><table><tr><td>120</td></tr></table><p>none</p>";
        let mut rng = Rng::new(7, 0);
        let edited = edit_paragraph_digits(html, &mut rng);
        assert_ne!(edited, html);
        assert_eq!(edited.len(), html.len());
        let tail = "</p><table><tr><td>120</td></tr></table><p>none</p>";
        assert!(edited.ends_with(tail), "{edited}");
        let changed = html
            .bytes()
            .zip(edited.bytes())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(changed, 1);
    }

    #[test]
    fn a_quarter_of_pages_change_and_the_seed_fixes_which() {
        let pages: Vec<String> = (0..8)
            .map(|i| format!("<p>page {i} has 10 rows</p>"))
            .collect();
        let a = edit_quarter(&pages, &mut Rng::new(3, 1));
        let b = edit_quarter(&pages, &mut Rng::new(3, 1));
        assert_eq!(a, b);
        assert_eq!(a.iter().zip(&pages).filter(|(x, y)| x != y).count(), 2);
    }

    #[test]
    fn generated_documents_match_their_segmented_pages() {
        let c = Corpus::generate(11, 12);
        let loaded = load(&c.pages, &Tracer::new(false), None);
        let matched = loaded
            .docs
            .iter()
            .filter(|d| c.generated(d).is_some())
            .count();
        assert!(
            matched * 2 >= loaded.docs.len(),
            "{matched} of {}",
            loaded.docs.len()
        );
    }
}
