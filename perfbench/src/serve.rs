//! `serve-open`: `serve::Server` in-process, loaded with
//! `Briq::from_json` from a model file as `briq-serve serve --model`
//! does, driven by an open-loop generator at fixed rates. One request
//! in four resends an earlier page under the same id, so the server's
//! in-memory store serves hits beside misses.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use briq_core::batch::BatchConfig;
use briq_core::evaluate::EvalReport;
use briq_core::pipeline::Briq;
use briq_core::serve::{parse_request, ServeConfig, Server};
use briq_core::store::model_fingerprint;
use briq_json::Value;

use crate::metrics::RATES;
use crate::prep::{self, Corpus, Rng, DOCS_PER_PAGE};
use crate::stats::{self, RatePhase, Timed};
use crate::{Ctx, Outcome};

/// Trees in the served model's pair forest. The demo recipe's 128-tree
/// model parses in about 100 s (the JSON scanner is quadratic), more
/// than a run may take; this model keeps the recipe otherwise.
pub const SERVE_TREES: usize = 8;
/// Pages in the request pool.
pub const POOL_PAGES: usize = 300;
/// The rate whose latency is the workload's end-to-end latency: the
/// middle one.
pub const E2E_RATE: usize = 1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Tail-latency limit for `serve.max_rate_rps`.
pub const LATENCY_LIMIT_S: f64 = 0.25;
/// Resident budget of the server's alignment store, as an operator of a
/// long-lived server sets it (`--store-max-bytes`).
pub const STORE_MAX_BYTES: u64 = 128 << 20;
/// Resends pick among this many most recent new requests, so the page
/// they repeat is still resident.
const RESEND_WINDOW: usize = 64;
/// Blocks each rate is split into.
pub const BLOCKS_PER_RATE: usize = 4;
/// How long to wait for outstanding responses after a block.
const DRAIN_S: f64 = 5.0;

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Planned {
    /// Due time, seconds after its block starts.
    due: f64,
    /// Pool page it sends.
    page: usize,
    /// Client id (repeated ids are store hits).
    id: u64,
}

/// One stretch of load at a single rate.
struct Block {
    /// Index into [`RATES`].
    rate: usize,
    /// Requests, due times relative to the block's start.
    reqs: Vec<Planned>,
}

/// The seeded arrival schedule: the rates take turns in blocks of equal
/// length, so each rate's samples spread over the whole run. Within a
/// block at rate r there are `r × block` arrivals, the k-th at a
/// uniformly random time within its own slot `[k, k + 1) / r` — open
/// loop at a fixed rate, with gaps from zero to two slots. Every fourth
/// request resends an earlier request's page and id.
fn schedule(seed: u64, block: f64, pool: usize) -> Vec<Block> {
    let mut rng = Rng::new(seed, 3);
    let mut order: Vec<usize> = (0..pool).collect();
    for i in (1..pool).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut fresh: Vec<(u64, usize)> = Vec::new();
    let mut n = 0usize;
    let mut blocks = Vec::new();
    for _ in 0..BLOCKS_PER_RATE {
        for (r, &rate) in RATES.iter().enumerate() {
            let rate = f64::from(rate);
            let count = (rate * block).round().max(1.0) as usize;
            let mut reqs = Vec::with_capacity(count);
            for k in 0..count {
                let due = (k as f64 + rng.unit()) / rate;
                n += 1;
                let (id, page) = if n.is_multiple_of(4) && !fresh.is_empty() {
                    let recent = &fresh[fresh.len().saturating_sub(RESEND_WINDOW)..];
                    recent[rng.below(recent.len())]
                } else {
                    let id = fresh.len() as u64;
                    fresh.push((id, order[id as usize % pool]));
                    fresh[fresh.len() - 1]
                };
                reqs.push(Planned { due, page, id });
            }
            blocks.push(Block { rate: r, reqs });
        }
    }
    blocks
}

/// What one connection saw for one request.
struct Seen {
    timed: Timed,
    response: Option<String>,
}

/// Drive one connection through `plan`, sending each request when due
/// and timing each response from that due time.
fn drive(addr: SocketAddr, plan: &[(Planned, &str)], t0: Instant) -> Result<Vec<Seen>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let now = || t0.elapsed().as_secs_f64();
    let mut seen: Vec<Seen> = plan
        .iter()
        .map(|(p, _)| Seen {
            timed: Timed {
                due: p.due,
                sent: f64::NAN,
                done: None,
                ok: false,
            },
            response: None,
        })
        .collect();
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let last_due = plan.last().map_or(0.0, |(p, _)| p.due);
    let mut next = 0;
    loop {
        if next < plan.len() && now() >= plan[next].0.due {
            stream
                .write_all(plan[next].1.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            seen[next].timed.sent = now();
            waiting.push_back(next);
            next += 1;
            continue;
        }
        if next == plan.len() && (waiting.is_empty() || now() > last_due + DRAIN_S) {
            break;
        }
        let wait = if next < plan.len() {
            plan[next].0.due - now()
        } else {
            0.005
        };
        let wait = wait.clamp(0.000_05, 0.005);
        stream
            .set_read_timeout(Some(Duration::from_secs_f64(wait)))
            .map_err(|e| e.to_string())?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=nl).collect();
                    let done = now();
                    if let Some(i) = waiting.pop_front() {
                        seen[i].timed.done = Some(done);
                        seen[i].response = Some(String::from_utf8_lossy(&line[..nl]).into_owned());
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
    Ok(seen)
}

/// Send one control line and return its response line.
fn control(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let mut b = [0u8; 4096];
    while !out.contains(&b'\n') {
        match s.read(&mut b) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&b[..n]),
            Err(e) => return Err(format!("control read: {e}")),
        }
    }
    Ok(String::from_utf8_lossy(&out).trim_end().to_string())
}

/// Outcome class of one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Ok,
    Shed,
    Cancelled,
    Failed,
}

fn classify(v: Option<&Value>) -> Class {
    let Some(v) = v else { return Class::Failed };
    match v.get("status").and_then(Value::as_str) {
        Some("ok") => {
            let cancelled = v
                .get("documents")
                .and_then(Value::as_array)
                .is_some_and(|docs| {
                    docs.iter().any(|d| {
                        d.get("diagnostics")
                            .and_then(Value::as_array)
                            .is_some_and(|ds| {
                                ds.iter().any(|x| {
                                    x.get("action").and_then(Value::as_str) == Some("Cancelled")
                                })
                            })
                    })
                });
            if cancelled {
                Class::Cancelled
            } else {
                Class::Ok
            }
        }
        Some("shed") => Class::Shed,
        _ => Class::Failed,
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tr = &ctx.tracer;
    let t = Instant::now();
    let trained = prep::train_demo(SERVE_TREES);
    let train_s = t.elapsed().as_secs_f64();
    let model_json = trained
        .to_json()
        .map_err(|e| format!("model to_json: {e}"))?;
    let model_path = ctx.work.join("model.json");
    std::fs::write(&model_path, &model_json).map_err(|e| format!("write model: {e}"))?;
    // Set-up: read and parse the model file, bind the server — several
    // boots in a row, as a restarted process would; the last one serves.
    let mut out = Outcome::new();
    let mut setup_s = Vec::new();
    let mut parse_s = 0.0;
    let mut boot = |k: u64| -> Result<(Briq, Server), String> {
        let sp = tr.open("serve.setup", None, k);
        let t0 = Instant::now();
        let text = std::fs::read_to_string(&model_path).map_err(|e| format!("read model: {e}"))?;
        let p0 = Instant::now();
        let briq = tr
            .time("json.model_parse", sp.index(), k, || Briq::from_json(&text))
            .map_err(|e| format!("model from_json: {e}"))?;
        parse_s += p0.elapsed().as_secs_f64();
        let cfg = ServeConfig {
            workers: ctx.nproc,
            store_max_bytes: STORE_MAX_BYTES,
            ..ServeConfig::default()
        };
        let server = tr
            .time("serve.bind", sp.index(), k, || Server::bind(cfg))
            .map_err(|e| format!("bind: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        tr.close(sp);
        Ok((briq, server))
    };
    let mut booted = boot(0)?;
    for k in 1..SETUPS as u64 {
        drop(booted); // release the previous server and model first
        booted = boot(k)?;
    }
    let (briq, server) = booted;
    let corpus = Corpus::generate(ctx.seed, POOL_PAGES * DOCS_PER_PAGE);
    let block = ctx.seconds / (RATES.len() * BLOCKS_PER_RATE) as f64;
    let blocks = schedule(ctx.seed, block, corpus.pages.len());
    let wire: Vec<Vec<String>> = blocks
        .iter()
        .map(|b| {
            b.reqs
                .iter()
                .map(|p| {
                    let req = Value::Object(vec![
                        ("op".into(), Value::Str("align".into())),
                        ("id".into(), Value::Num(p.id as f64)),
                        ("html".into(), Value::Str(corpus.pages[p.page].clone())),
                    ]);
                    let mut line = req.to_string_compact();
                    line.push('\n');
                    line
                })
                .collect()
        })
        .collect();

    if model_fingerprint(&briq) != model_fingerprint(&trained) {
        out.fail(
            1,
            "model loaded from file differs from the one trained in-process".into(),
        );
    }
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let drain = server.shutdown_flag();
    let connections = ctx.nproc.max(1);

    // Open-loop load, block by block; the generator uses one thread and
    // one connection per core.
    let mut seen_by_block: Vec<Vec<(Planned, Seen)>> = Vec::new();
    let mut block_walls = Vec::new();
    let mut metrics_line = String::new();
    let window_start = tr.now();
    let serve_result = std::thread::scope(|s| -> Result<(), String> {
        let srv = s.spawn(|| server.run(&briq));
        let load = (|| -> Result<(), String> {
            for (k, (block, lines)) in blocks.iter().zip(&wire).enumerate() {
                let per_conn: Vec<Vec<(Planned, &str)>> = (0..connections)
                    .map(|c| {
                        block
                            .reqs
                            .iter()
                            .zip(lines)
                            .enumerate()
                            .filter(|(i, _)| i % connections == c)
                            .map(|(_, (p, l))| (*p, l.as_str()))
                            .collect()
                    })
                    .collect();
                let ph = tr.open("serve.block", None, k as u64);
                let t0 = Instant::now();
                let t0_trace = tr.now();
                let results: Vec<Result<Vec<Seen>, String>> = std::thread::scope(|g| {
                    let others: Vec<_> = per_conn[1..]
                        .iter()
                        .map(|p| g.spawn(move || drive(addr, p, t0)))
                        .collect();
                    let mut all = vec![drive(addr, &per_conn[0], t0)];
                    all.extend(others.into_iter().map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("generator thread panicked".into()))
                    }));
                    all
                });
                block_walls.push(t0.elapsed().as_secs_f64());
                tr.close(ph);
                let mut seen = Vec::new();
                for (c, r) in results.into_iter().enumerate() {
                    for ((p, _), s) in per_conn[c].iter().zip(r?) {
                        if tr.on() {
                            if let Some(done) = s.timed.done {
                                tr.record(
                                    "serve.request",
                                    t0_trace + s.timed.due,
                                    t0_trace + done,
                                    ph.index(),
                                    p.id,
                                );
                            }
                        }
                        seen.push((*p, s));
                    }
                }
                seen.sort_by(|a, b| a.0.due.total_cmp(&b.0.due));
                seen_by_block.push(seen);
            }
            metrics_line = control(addr, "{\"op\":\"metrics\"}\n")?;
            Ok(())
        })();
        // Drain the server whatever happened to the load.
        let _ = control(addr, "{\"op\":\"shutdown\"}\n");
        drain.store(true, Ordering::SeqCst);
        let report = srv
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        if report.panics > 0 {
            out.fail(
                report.panics,
                format!("{} documents panicked in the server", report.panics),
            );
        }
        load
    });
    let window_end = tr.now();
    serve_result?;

    // Batch serialization of every pool page, for the byte-identity check.
    let batch_cfg = BatchConfig::with_jobs(ctx.nproc);
    let mut batch_pages: Vec<Vec<String>> = Vec::new();
    let mut page_eval: Vec<EvalReport> = Vec::new();
    for html in &corpus.pages {
        let loaded = prep::load(std::slice::from_ref(html), tr, None);
        let report = briq.align_batch(&loaded.docs, &batch_cfg);
        let mut eval = EvalReport::default();
        for (doc, d) in loaded.docs.iter().zip(&report.documents) {
            corpus.score(&mut eval, doc, &d.alignments);
        }
        page_eval.push(eval);
        batch_pages.push(
            report
                .documents
                .iter()
                .map(|d| briq_json::to_string(&d.alignments))
                .collect(),
        );
    }

    // Classify and check every response.
    let mut counts: BTreeMap<Class, u64> = BTreeMap::new();
    let mut per_rate: Vec<BTreeMap<Class, u64>> = vec![BTreeMap::new(); RATES.len()];
    let mut served_pages = std::collections::BTreeSet::new();
    let mut ok_docs = 0usize;
    let (mut req_parse_s, mut resp_write_s, mut lag) = (0.0, 0.0, Vec::new());
    let mut rate_phases: Vec<RatePhase> = RATES
        .iter()
        .map(|&r| RatePhase::empty(f64::from(r)))
        .collect();
    for (seen, block) in seen_by_block.iter_mut().zip(&blocks) {
        let rate = RATES[block.rate];
        for (p, s) in seen.iter_mut() {
            out.attempted += 1;
            lag.push(s.timed.lag() * 1e3);
            let v = s.response.as_deref().and_then(|r| briq_json::parse(r).ok());
            let class = classify(v.as_ref());
            *counts.entry(class).or_default() += 1;
            *per_rate[block.rate].entry(class).or_default() += 1;
            s.timed.ok = class == Class::Ok;
            if class != Class::Ok {
                out.fail(1, format!("request id {} at {rate} req/s: {class:?}", p.id));
                continue;
            }
            let docs = v
                .as_ref()
                .and_then(|v| v.get("documents"))
                .and_then(Value::as_array)
                .unwrap_or(&[]);
            let payload: Vec<String> = docs
                .iter()
                .map(|d| {
                    let a = d.get("alignments").cloned().unwrap_or(Value::Null);
                    let w0 = Instant::now();
                    let text = tr.time("json.to_string", None, p.id, || a.to_string_compact());
                    resp_write_s += w0.elapsed().as_secs_f64();
                    text
                })
                .collect();
            if payload != batch_pages[p.page] {
                s.timed.ok = false;
                out.fail(
                    1,
                    format!(
                        "request id {} payload differs from the batch serialization",
                        p.id
                    ),
                );
                continue;
            }
            ok_docs += payload.len();
            served_pages.insert(p.page);
        }
        let timed: Vec<Timed> = seen.iter().map(|(_, s)| s.timed).collect();
        rate_phases[block.rate].merge(RatePhase::from_requests(f64::from(rate), &timed));
    }
    if tr.on() {
        // Time the server's request parser on every line sent.
        for (block, lines) in blocks.iter().zip(&wire) {
            for (p, line) in block.reqs.iter().zip(lines) {
                let t0 = Instant::now();
                let parsed = tr.time("serve.parse_request", None, p.id, || {
                    parse_request(line.trim_end())
                });
                req_parse_s += t0.elapsed().as_secs_f64();
                if parsed.is_err() {
                    out.fail(1, format!("request id {} does not parse", p.id));
                }
            }
        }
    }

    // End-to-end: the middle rate's latency, goodput over all blocks,
    // F1 over every pool page served.
    let mid = rate_phases
        .get(E2E_RATE)
        .ok_or("a rate phase did not run")?;
    out.e2e.insert(
        "setup_s".into(),
        stats::median(&setup_s).unwrap_or(f64::NAN),
    );
    out.e2e.insert(
        "docs_per_s".into(),
        ok_docs as f64 / block_walls.iter().sum::<f64>(),
    );
    crate::latency_metrics(&mut out, &mid.latencies);
    let mut eval = EvalReport::default();
    for (page, e) in page_eval.iter().enumerate() {
        if served_pages.contains(&page) {
            eval.merge(e);
        }
    }
    out.e2e.insert("f1".into(), eval.overall().f1);

    let mut l = std::mem::take(&mut out.layers);
    let served = counts.get(&Class::Ok).copied().unwrap_or(0) as f64;
    let sent = out.attempted as f64;
    for (k, ph) in rate_phases.iter().enumerate() {
        let r = RATES[k];
        if let Some(m) = stats::median(&ph.latencies) {
            l.insert(format!("serve.latency_p50_ms.r{r}"), m * 1e3);
        }
        match ph.tail_with_misses() {
            Some(t) => {
                l.insert(format!("serve.latency_tail_ms.r{r}"), t.value * 1e3);
                eprintln!(
                    "perfbench: {r} req/s: {:?}; p50 {:.2} ms, tail p{:.1} of {} samples {:.2} ms, backlog at end {}, holds {}",
                    per_rate[k],
                    stats::median(&ph.latencies).unwrap_or(f64::NAN) * 1e3,
                    t.percentile,
                    t.samples,
                    t.value * 1e3,
                    ph.backlog_at_end,
                    ph.holds(LATENCY_LIMIT_S, connections)
                );
            }
            None => {
                l.remove(&format!("serve.latency_tail_ms.r{r}"));
            }
        }
    }
    l.insert(
        "serve.max_rate_rps".into(),
        stats::max_rate(&rate_phases, LATENCY_LIMIT_S, connections),
    );
    l.insert("serve.sent".into(), sent);
    l.insert("serve.ok".into(), served);
    l.insert(
        "serve.shed".into(),
        counts.get(&Class::Shed).copied().unwrap_or(0) as f64,
    );
    l.insert(
        "serve.cancelled".into(),
        counts.get(&Class::Cancelled).copied().unwrap_or(0) as f64,
    );
    l.insert(
        "serve.failed".into(),
        counts.get(&Class::Failed).copied().unwrap_or(0) as f64,
    );
    if let Some(t) = stats::tail(&lag) {
        l.insert("serve.generator_lag_ms".into(), t.value);
    }
    server_layers(&mut l, &metrics_line, served, ok_docs as f64);
    l.insert("json.model_parse_s".into(), parse_s / setup_s.len() as f64);
    l.insert("json.model_bytes".into(), model_json.len() as f64);
    l.insert("json.request_parse_s".into(), req_parse_s / sent.max(1.0));
    l.insert(
        "json.response_write_s".into(),
        resp_write_s / served.max(1.0),
    );
    let (parse_total, parses) = tr.total("html.parse_page");
    let (seg_total, _) = tr.total("segment.segment_page");
    if parses > 0 {
        l.insert("html.parse_s".into(), parse_total / parses as f64);
        l.insert("segment.s".into(), seg_total / parses as f64);
    }
    l.insert(
        "html.bytes".into(),
        corpus.bytes() as f64 / corpus.pages.len() as f64,
    );
    l.insert(
        "segment.docs".into(),
        batch_pages.iter().map(Vec::len).sum::<usize>() as f64 / corpus.pages.len() as f64,
    );
    l.insert("ml.train_s".into(), train_s);
    l.insert(
        "trace.unaccounted_s".into(),
        tr.unaccounted(window_start, window_end),
    );
    // Tracing records its spans between blocks and replays the parser
    // after the load, so it adds no work while requests are timed; the
    // overhead ratio stays at zero.
    out.layers = l;
    Ok(out)
}

/// Per-request means of the server's own counters, from its `metrics`
/// response.
fn server_layers(l: &mut crate::metrics::Values, line: &str, served: f64, docs: f64) {
    let Ok(v) = briq_json::parse(line) else {
        return;
    };
    let Some(m) = v.get("metrics") else { return };
    let counter = |k: &str| {
        m.get("counters")
            .and_then(|c| c.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let hist = |k: &str, f: &str| {
        m.get("histograms")
            .and_then(|h| h.get(k))
            .and_then(|h| h.get(f))
            .and_then(Value::as_f64)
    };
    let per = |x: f64| if served > 0.0 { x / served } else { 0.0 };
    for (name, key) in [
        ("batch.extract_s", "span_extract_s"),
        ("batch.classify_s", "span_classify_s"),
        ("batch.filter_s", "span_filter_s"),
        ("batch.resolve_s", "span_resolve_s"),
    ] {
        if let Some(mean) = hist(key, "mean") {
            l.insert(name.into(), mean);
        }
    }
    for (name, key) in [
        ("scoring.pairs_scored", "pairs_scored"),
        ("scoring.rows_deduped", "rows_deduped"),
        ("scoring.pairs_pruned", "pairs_pruned"),
        ("retrieval.candidates", "retrieval_candidates"),
        ("retrieval.pairs_dropped", "retrieval_pairs_dropped"),
    ] {
        l.insert(name.into(), per(counter(key)));
    }
    l.insert(
        "serve.queue_wait_ms".into(),
        hist("serve_queue_wait_s", "mean").unwrap_or(0.0) * 1e3,
    );
    l.insert(
        "serve.request_ms".into(),
        hist("serve_request_s", "mean").unwrap_or(0.0) * 1e3,
    );
    l.insert(
        "serve.queue_depth_peak".into(),
        hist("serve_queue_depth", "max").unwrap_or(0.0),
    );
    l.insert(
        "serve.deadline_misses".into(),
        counter("serve_deadline_misses"),
    );
    l.insert("store.lookups".into(), per(docs));
    l.insert(
        "store.hit_ratio".into(),
        if docs > 0.0 {
            counter("store_hits") / docs
        } else {
            0.0
        },
    );
    l.insert(
        "store.invalidations".into(),
        per(counter("store_invalidations")),
    );
    l.insert(
        "store.mentions_realigned".into(),
        per(counter("mentions_realigned")),
    );
    l.insert(
        "store.resident_bytes_peak".into(),
        hist("store_bytes_peak", "max").unwrap_or(0.0),
    );
}
