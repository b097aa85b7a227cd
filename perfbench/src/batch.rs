//! `batch-trained`: seeded pages through `align_batch_stored` with a
//! fresh in-memory store per pass, the way `briq-align --batch` runs
//! it — every document is new, so the store only inserts. Each pass
//! (store open, parse, segment, align, serialize) takes the next chunk
//! of a corpus larger than a run gets through, so a run's figures
//! average over thousands of distinct documents.

use std::collections::BTreeMap;
use std::time::Instant;

use briq_core::batch::{BatchConfig, BatchReport};
use briq_core::evaluate::EvalReport;
use briq_core::store::{AlignmentStore, StoreOptions};

use crate::metrics::{batch_layers, domain_rates};
use crate::prep::{self, Corpus, Loaded, DEMO_TREES, DOCS_PER_PAGE};
use crate::{latency_metrics, stats, Ctx, Outcome};

/// Pages per pass.
pub const CHUNK_PAGES: usize = 24;
/// Chunks in the corpus; a run that gets through all of them starts
/// over with fresh stores.
pub const CHUNKS: usize = 72;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tr = &ctx.tracer;
    let t = Instant::now();
    let briq = prep::train_demo(DEMO_TREES);
    let train_s = t.elapsed().as_secs_f64();
    let corpus = Corpus::generate(ctx.seed, CHUNKS * CHUNK_PAGES * DOCS_PER_PAGE);
    let chunks: Vec<&[String]> = corpus.pages.chunks(CHUNK_PAGES).collect();
    let cfg = |trace| BatchConfig {
        trace,
        ..BatchConfig::with_jobs(ctx.nproc)
    };

    let mut out = Outcome::new();
    let mut setup = Vec::new();
    let mut pass_s = Vec::new();
    let (mut docs, mut pages, mut bytes) = (0usize, 0usize, 0usize);
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut traced: Vec<(BatchReport, Loaded)> = Vec::new();
    let mut first_output: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut eval = EvalReport::default();
    let (mut lookups, mut hits, mut resident_peak) = (0.0, 0.0, 0.0f64);

    let window = (tr.now(), Instant::now());
    let mut i = 0usize;
    while i == 0 || window.1.elapsed().as_secs_f64() < ctx.seconds {
        let c = i % chunks.len();
        // With tracing on, every other pass also runs the program's own
        // per-document tracing; the untraced ones give the overhead.
        let trace_pass = tr.on() && i.is_multiple_of(2);
        let pass = tr.open("batch.pass", None, i as u64);
        let s0 = Instant::now();
        let store = tr
            .time("store.with_options", pass.index(), i as u64, || {
                AlignmentStore::with_options(&briq, &StoreOptions::default())
            })
            .map_err(|e| format!("in-memory store: {e}"))?;
        setup.push(s0.elapsed().as_secs_f64());
        let p0 = Instant::now();
        let loaded = prep::load(chunks[c], tr, pass.index());
        let report = tr.time("batch.align_batch_stored", pass.index(), i as u64, || {
            briq.align_batch_stored(&loaded.docs, &cfg(trace_pass), &store, Some(&loaded.keys))
        });
        let lines = prep::serialize(&report, tr, pass.index());
        let secs = p0.elapsed().as_secs_f64();
        tr.close(pass);

        pass_s.push(secs);
        if tr.on() {
            if trace_pass {
                &mut traced_s
            } else {
                &mut untraced_s
            }
            .push(secs);
        }
        docs += loaded.docs.len();
        pages += chunks[c].len();
        bytes += chunks[c].iter().map(String::len).sum::<usize>();
        out.attempted += loaded.docs.len() as u64;
        lookups += store.lookups() as f64;
        hits += store.hits() as f64;
        resident_peak = resident_peak.max(store.bytes_peak() as f64);
        match first_output.get(&c) {
            None => {
                for (doc, d) in loaded.docs.iter().zip(&report.documents) {
                    corpus.score(&mut eval, doc, &d.alignments);
                }
                first_output.insert(c, lines);
            }
            Some(r) if *r != lines => out.fail(
                loaded.docs.len() as u64,
                format!("pass {i}: chunk {c} output changed"),
            ),
            Some(_) => {}
        }
        if trace_pass {
            traced.push((report, loaded));
        }
        i += 1;
    }
    let window_end = tr.now();
    let passes = i as f64;

    // Traced and untraced alignments must match; an untraced run checks
    // one traced pass after the window.
    if !tr.on() {
        let store = AlignmentStore::for_system(&briq);
        let loaded = prep::load(chunks[0], tr, None);
        let report = briq.align_batch_stored(&loaded.docs, &cfg(true), &store, Some(&loaded.keys));
        out.attempted += loaded.docs.len() as u64;
        if Some(&prep::serialize(&report, tr, None)) != first_output.get(&0) {
            out.fail(
                loaded.docs.len() as u64,
                "traced pass output differs from untraced".into(),
            );
        }
    }
    if !briq.is_trained() {
        out.fail(1, "the system is not trained".into());
    }

    let busy: f64 = pass_s.iter().sum();
    out.e2e
        .insert("setup_s".into(), stats::median(&setup).unwrap_or(f64::NAN));
    out.e2e.insert("docs_per_s".into(), docs as f64 / busy);
    latency_metrics(&mut out, &pass_s);
    out.e2e.insert("f1".into(), eval.overall().f1);
    eprintln!("perfbench: batch-trained aligned {docs} documents from {pages} pages in {i} passes");

    let l = &mut out.layers;
    let refs: Vec<(&BatchReport, &Loaded)> = traced.iter().map(|(r, d)| (r, d)).collect();
    batch_layers(l, &refs.iter().map(|(r, _)| *r).collect::<Vec<_>>());
    domain_rates(l, &refs, &corpus);
    l.insert(
        "html.parse_s".into(),
        tr.total("html.parse_page").0 / passes,
    );
    l.insert("html.bytes".into(), bytes as f64 / passes);
    l.insert(
        "segment.s".into(),
        tr.total("segment.segment_page").0 / passes,
    );
    l.insert("segment.docs".into(), docs as f64 / passes);
    l.insert(
        "json.response_write_s".into(),
        tr.total("json.to_string").0 / passes,
    );
    l.insert("store.lookups".into(), lookups / passes);
    l.insert(
        "store.hit_ratio".into(),
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    l.insert("store.resident_bytes_peak".into(), resident_peak);
    l.insert("ml.train_s".into(), train_s);
    l.insert(
        "trace.unaccounted_s".into(),
        tr.unaccounted(window.0, window_end),
    );
    if let (Some(a), Some(b)) = (stats::median(&traced_s), stats::median(&untraced_s)) {
        l.insert("trace.overhead_ratio".into(), a / b - 1.0);
    }
    Ok(out)
}
