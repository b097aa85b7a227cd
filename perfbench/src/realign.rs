//! `realign-edit`: restarting against existing durable state. Each
//! cycle takes the next chunk of the corpus and
//! 1. ingests it cold into a fresh durable store, then snapshots it;
//! 2. drops the store and reopens it, replaying snapshot and log;
//! 3. aligns an edited copy of the chunk in which a quarter of the
//!    pages had a digit of paragraph text changed.
//!
//! Documents are keyed by page plus segment index, so unedited pages
//! are store hits and edited ones re-align incrementally.

use std::path::Path;
use std::time::Instant;

use briq_core::batch::{BatchConfig, BatchReport};
use briq_core::evaluate::EvalReport;
use briq_core::store::{AlignmentStore, StoreOptions};

use crate::metrics::batch_layers;
use crate::prep::{self, Corpus, Rng, DEMO_TREES, DOCS_PER_PAGE};
use crate::{latency_metrics, procfs, stats, Ctx, Outcome};

/// Pages per cycle.
pub const CHUNK_PAGES: usize = 12;
/// Chunks in the corpus; a run that gets through all of them starts
/// over (each cycle has a fresh store either way).
pub const CHUNKS: usize = 64;

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Sums over cycles, for the per-layer means.
#[derive(Default)]
struct Tally {
    written: f64,
    written_missing: bool,
    compactions: f64,
    log_bytes: f64,
    snapshot_bytes: f64,
    snapshot_s: f64,
    disk: f64,
    input: f64,
    resident_peak: f64,
    recover_s: f64,
    recovered: f64,
    lookups: f64,
    hits: f64,
    invalidations: f64,
    realigned: f64,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tr = &ctx.tracer;
    let t = Instant::now();
    let briq = prep::train_demo(DEMO_TREES);
    let train_s = t.elapsed().as_secs_f64();
    let corpus = Corpus::generate(ctx.seed, CHUNKS * CHUNK_PAGES * DOCS_PER_PAGE);
    let chunks: Vec<&[String]> = corpus.pages.chunks(CHUNK_PAGES).collect();
    let mut rng = Rng::new(ctx.seed, 2);
    let edits: Vec<Vec<String>> = chunks
        .iter()
        .map(|c| prep::edit_quarter(c, &mut rng))
        .collect();
    let cfg = |trace| BatchConfig {
        trace,
        ..BatchConfig::with_jobs(ctx.nproc)
    };
    let open = |dir: &Path| {
        AlignmentStore::with_options(
            &briq,
            &StoreOptions {
                dir: Some(dir.to_path_buf()),
                ..StoreOptions::default()
            },
        )
        .map_err(|e| format!("store {}: {e}", dir.display()))
    };

    let mut out = Outcome::new();
    let mut sum = Tally::default();
    let (mut ingest_s, mut ingest_docs) = (0.0, 0usize);
    let (mut reopen_s, mut edit_s, mut edit_docs) = (Vec::new(), Vec::new(), 0usize);
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut traced: Vec<BatchReport> = Vec::new();
    let mut eval = EvalReport::default();
    let mut checks: Vec<(usize, Vec<String>)> = Vec::new();
    let mut loads = 0.0;

    let window = (tr.now(), Instant::now());
    let mut i = 0usize;
    while i == 0 || window.1.elapsed().as_secs_f64() < ctx.seconds {
        let c = i % chunks.len();
        let dir = ctx.work.join(format!("store-{i}"));
        let trace_pass = tr.on() && i.is_multiple_of(2);
        let cycle = tr.open("realign.cycle", None, i as u64);
        let at = cycle.index();

        // 1. Cold ingest into a fresh durable store, then snapshot.
        let w0 = procfs::bytes_written();
        let t0 = Instant::now();
        let store = tr.time("store.with_options", at, i as u64, || open(&dir))?;
        let loaded = prep::load(chunks[c], tr, at);
        let report = tr.time("batch.align_batch_stored", at, i as u64, || {
            briq.align_batch_stored(&loaded.docs, &cfg(false), &store, Some(&loaded.keys))
        });
        prep::serialize(&report, tr, at);
        // The novelty log as the pass left it, before the snapshot resets it.
        sum.log_bytes += store.log_bytes() as f64;
        let s0 = Instant::now();
        tr.time("store.snapshot", at, i as u64, || store.snapshot())
            .map_err(|e| format!("snapshot: {e}"))?;
        sum.snapshot_s += s0.elapsed().as_secs_f64();
        ingest_s += t0.elapsed().as_secs_f64();
        match (w0, procfs::bytes_written()) {
            (Some(a), Some(b)) => sum.written += (b - a) as f64,
            _ => sum.written_missing = true,
        }
        ingest_docs += loaded.docs.len();
        out.attempted += loaded.docs.len() as u64;
        sum.compactions += store.compactions() as f64;
        sum.snapshot_bytes += store.snapshot_bytes() as f64;
        sum.resident_peak = sum.resident_peak.max(store.bytes_peak() as f64);
        if store.persist_errors() > 0 {
            out.fail(
                loaded.docs.len() as u64,
                format!("cycle {i}: {} persistence errors", store.persist_errors()),
            );
        }
        drop(store);
        sum.disk += dir_bytes(&dir) as f64;
        sum.input += chunks[c].iter().map(String::len).sum::<usize>() as f64;
        if i < chunks.len() {
            for (doc, d) in loaded.docs.iter().zip(&report.documents) {
                corpus.score(&mut eval, doc, &d.alignments);
            }
        }

        // 2. Restart: reopen the store, replaying snapshot and log.
        let t0 = Instant::now();
        let store = tr.time("store.with_options", at, i as u64, || open(&dir))?;
        reopen_s.push(t0.elapsed().as_secs_f64());
        sum.recover_s += store.recover_seconds();
        sum.recovered += store.recovered_entries() as f64;

        // 3. Align the edited chunk against the recovered store.
        let p0 = Instant::now();
        let loaded = prep::load(&edits[c], tr, at);
        let report = tr.time("batch.align_batch_stored", at, i as u64, || {
            briq.align_batch_stored(&loaded.docs, &cfg(trace_pass), &store, Some(&loaded.keys))
        });
        let lines = prep::serialize(&report, tr, at);
        let secs = p0.elapsed().as_secs_f64();
        tr.close(cycle);
        edit_s.push(secs);
        if tr.on() {
            if trace_pass {
                &mut traced_s
            } else {
                &mut untraced_s
            }
            .push(secs);
        }
        loads += 2.0;
        edit_docs += loaded.docs.len();
        out.attempted += loaded.docs.len() as u64;
        sum.lookups += store.lookups() as f64;
        sum.hits += store.hits() as f64;
        sum.invalidations += store.invalidations() as f64;
        sum.realigned += store.mentions_realigned() as f64;
        sum.resident_peak = sum.resident_peak.max(store.bytes_peak() as f64);
        if store.persist_errors() > 0 {
            out.fail(
                loaded.docs.len() as u64,
                format!("cycle {i}: {} persistence errors", store.persist_errors()),
            );
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        // Keep the first and the latest edit for the recompute check.
        if checks.len() < 2 {
            checks.push((c, lines));
        } else {
            checks[1] = (c, lines);
        }
        if trace_pass {
            traced.push(report);
        }
        i += 1;
    }
    let window_end = tr.now();
    let cycles = i as f64;

    // The incremental output must equal a full recompute without the
    // store; with tracing off the recompute is traced, which also checks
    // that traced and untraced alignments agree.
    let mut oracle = briq.clone();
    oracle.cfg.use_store = false;
    for (c, lines) in &checks {
        let loaded = prep::load(&edits[*c], tr, None);
        let store = AlignmentStore::for_system(&oracle);
        let report =
            oracle.align_batch_stored(&loaded.docs, &cfg(!tr.on()), &store, Some(&loaded.keys));
        out.attempted += loaded.docs.len() as u64;
        if prep::serialize(&report, tr, None) != *lines {
            out.fail(
                loaded.docs.len() as u64,
                format!("chunk {c}: stored edit output differs from a recompute"),
            );
        }
    }
    let hit_share = if sum.lookups > 0.0 {
        sum.hits / sum.lookups
    } else {
        0.0
    };
    eprintln!("perfbench: realign-edit store hit share {hit_share:.3} over {i} cycles, {ingest_docs} documents ingested");

    out.e2e.insert(
        "setup_s".into(),
        stats::median(&reopen_s).unwrap_or(f64::NAN),
    );
    out.e2e
        .insert("docs_per_s".into(), ingest_docs as f64 / ingest_s);
    latency_metrics(&mut out, &edit_s);
    out.e2e.insert("f1".into(), eval.overall().f1);

    let mut l = std::mem::take(&mut out.layers);
    batch_layers(&mut l, &traced.iter().collect::<Vec<_>>());
    l.insert("html.parse_s".into(), tr.total("html.parse_page").0 / loads);
    l.insert("html.bytes".into(), sum.input / cycles);
    l.insert(
        "segment.s".into(),
        tr.total("segment.segment_page").0 / loads,
    );
    l.insert("segment.docs".into(), ingest_docs as f64 / cycles);
    l.insert(
        "json.response_write_s".into(),
        tr.total("json.to_string").0 / loads,
    );
    l.insert("store.lookups".into(), sum.lookups / cycles);
    l.insert("store.hit_ratio".into(), hit_share);
    l.insert("store.invalidations".into(), sum.invalidations / cycles);
    l.insert("store.mentions_realigned".into(), sum.realigned / cycles);
    if sum.written_missing {
        l.remove("store.bytes_written");
        eprintln!("perfbench: /proc/self/io unreadable; store.bytes_written missing");
    } else {
        l.insert("store.bytes_written".into(), sum.written / cycles);
    }
    l.insert("store.compactions".into(), sum.compactions / cycles);
    l.insert("store.log_bytes".into(), sum.log_bytes / cycles);
    l.insert("store.snapshot_bytes".into(), sum.snapshot_bytes / cycles);
    l.insert("store.snapshot_s".into(), sum.snapshot_s / cycles);
    l.insert("store.resident_bytes_peak".into(), sum.resident_peak);
    l.insert("store.recover_s".into(), sum.recover_s / cycles);
    l.insert("store.recovered_entries".into(), sum.recovered / cycles);
    l.insert(
        "store.ingest_docs_per_s".into(),
        ingest_docs as f64 / ingest_s,
    );
    l.insert(
        "store.realign_docs_per_s".into(),
        edit_docs as f64 / edit_s.iter().sum::<f64>(),
    );
    l.insert(
        "store.disk_bytes_per_input_byte".into(),
        sum.disk / sum.input,
    );
    l.insert("ml.train_s".into(), train_s);
    l.insert(
        "trace.unaccounted_s".into(),
        tr.unaccounted(window.0, window_end),
    );
    if let (Some(a), Some(b)) = (stats::median(&traced_s), stats::median(&untraced_s)) {
        l.insert("trace.overhead_ratio".into(), a / b - 1.0);
    }
    out.layers = l;
    Ok(out)
}
