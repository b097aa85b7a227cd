//! Versioned alignment store: a per-document output memo (DESIGN.md §15).
//!
//! The batch pipeline is stateless: every run recomputes every document
//! from scratch, even though real workloads re-align near-identical page
//! versions over and over. The [`AlignmentStore`] memoizes each
//! document's *output* — alignments, per-mention kept candidates,
//! diagnostics and filter totals — under a stable per-document key,
//! guarded by fingerprints of exactly the inputs that output is a pure
//! function of: the model and budget, the paragraph text, and every
//! table.
//!
//! - **Hit** — every fingerprint matches: the memo is served verbatim.
//!   Extraction, classify, filter, and resolution do not run at all.
//! - **Miss or stale** — the document runs through the same stateless
//!   pipeline `use_store: false` runs, and its output replaces the memo
//!   (unless the run was cancelled: cancelled output is never cached).
//!
//! There is no partial reuse. Resolution (Algorithm 1) is global to a
//! document — every accepted alignment updates the graph the next walk
//! runs on — so a changed document re-runs graph construction and every
//! walk anyway, and an earlier per-mention replay tier reused no mention
//! at all after paragraph edits while making the durable state ~95× the
//! input (DESIGN.md §15 has the measurements). Bit identity is immediate:
//! a hit replays what the pipeline produced from the same fingerprinted
//! inputs. `use_store: false` (`--no-store`) is the CI oracle that
//! byte-compares the two paths on real corpora every run.
//!
//! With [`StoreOptions::dir`] set, the store is additionally backed by
//! the [`persist`] layer (DESIGN.md §16): every memo is appended to an
//! on-disk novelty log, periodically compacted into snapshots, and
//! recovered on the next open — so warm starts survive process restarts.
//! [`StoreOptions::max_bytes`] bounds resident memory with LRU eviction.
//! Neither changes any output: persistence and eviction only move work
//! between "served from cache" and "recomputed", never alter a result.

pub mod persist;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use briq_ml::tree::Node;
use briq_ml::RandomForest;
use briq_table::{Document, Table};

use crate::batch::StageTimings;
use crate::error::{Budget, Diagnostics, Stage};
use crate::filtering::{Candidate, FilterStats};
use crate::mention::Alignment;
use crate::obs::{names, Recorder};
use crate::pipeline::{cancelled_result, AlignOptions, AlignOutput, Briq};

/// Incremental FNV-1a hasher used for every content fingerprint. FNV is
/// fully deterministic — no per-process seed — so fingerprints are
/// stable across runs, processes, and hosts, which the store's
/// versioning contract (and the fingerprint proptests) require.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// Start a fresh fingerprint.
    pub fn new() -> Fingerprint {
        Fingerprint { state: FNV_OFFSET }
    }

    /// Fold raw bytes into the fingerprint.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold a `u64` (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a `usize` (widened; stable across pointer widths).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Fold an `f64` via its bit pattern — the store's equality is bit
    /// equality, exactly like the pipeline's determinism contract.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold a bool.
    pub fn bool(&mut self, v: bool) {
        self.bytes(&[v as u8]);
    }

    /// Fold a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// cannot collide structurally.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// Fold any `Debug` value through its formatting — used for small
    /// enums (units, approximation indicators, aggregation kinds) whose
    /// derived `Debug` output is stable and total.
    pub fn debug<T: std::fmt::Debug>(&mut self, v: &T) {
        self.str(&format!("{v:?}"));
    }

    /// The 64-bit fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Fingerprint of a paragraph's raw text. Everything the text side of
/// extraction produces (tokens, stem sets, phrases, mention contexts) is
/// a pure function of this string plus the context config.
pub fn text_fingerprint(text: &str) -> u64 {
    let mut fp = Fingerprint::new();
    fp.str(text);
    fp.finish()
}

/// Fingerprint of one table: caption, shape, detected header split, and
/// every cell string. All other [`Table`] state (parsed quantities, unit
/// and scale hints) is derived deterministically from these, so two
/// tables with equal fingerprints produce identical contexts, targets,
/// and tagger counts.
pub fn table_fingerprint(t: &Table) -> u64 {
    let mut fp = Fingerprint::new();
    fp.str(&t.caption);
    fp.usize(t.n_rows);
    fp.usize(t.n_cols);
    fp.usize(t.header_rows);
    fp.usize(t.header_cols);
    fp.usize(t.cells.len());
    for row in &t.cells {
        fp.usize(row.len());
        for cell in row {
            fp.str(cell);
        }
    }
    fp.finish()
}

/// Fingerprint of the per-call [`Budget`]. Budgets change which targets
/// are generated and when graph/resolution truncate, so they are part of
/// the store's config fingerprint.
pub fn budget_fingerprint(b: &Budget) -> u64 {
    let mut fp = Fingerprint::new();
    fp.usize(b.max_regex_steps);
    fp.usize(b.max_virtual_cells_per_table);
    fp.usize(b.max_graph_edges);
    fp.usize(b.max_rwr_iterations);
    fp.finish()
}

/// Fingerprint of the whole system identity: configuration, trained
/// classifier, and tagger. Any retrain or config change flips it,
/// invalidating every entry.
///
/// It hashes the model's content, not its serialized text: the config
/// through its (small) JSON form, then the classifier's presence and
/// mask, every node of the pair forest and of each tagger forest, and
/// the tagger threshold. Node and tree counts are folded in as length
/// prefixes, so two forests with the same node stream but a different
/// shape cannot collide structurally. The walk is linear in the node
/// count and never builds the multi-megabyte model JSON. The value is
/// recomputed on every call, never cached: `cfg` is public and callers
/// mutate it after construction.
pub fn model_fingerprint(briq: &Briq) -> u64 {
    let mut fp = Fingerprint::new();
    fp.str(&briq_json::to_string(&briq.cfg));
    match briq.classifier() {
        Some(c) => {
            fp.bool(true);
            let mask = c.mask();
            fp.bool(mask.surface);
            fp.bool(mask.context);
            fp.bool(mask.quantity);
            forest_fingerprint(&mut fp, c.forest());
        }
        None => fp.bool(false),
    }
    let tagger = briq.tagger();
    fp.usize(tagger.forests().len());
    for forest in tagger.forests() {
        forest_fingerprint(&mut fp, forest);
    }
    fp.f64(tagger.threshold);
    fp.finish()
}

/// Fold every node of every tree of `forest` into `fp`.
fn forest_fingerprint(fp: &mut Fingerprint, forest: &RandomForest) {
    fp.usize(forest.trees().len());
    for tree in forest.trees() {
        fp.usize(tree.nodes().len());
        for node in tree.nodes() {
            match *node {
                Node::Leaf { prob } => {
                    fp.bytes(&[0]);
                    fp.f64(prob);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    fp.bytes(&[1]);
                    fp.usize(feature);
                    fp.f64(threshold);
                    fp.usize(left);
                    fp.usize(right);
                }
            }
        }
    }
}

/// Everything the store remembers about one document version: the
/// fingerprints a hit must match and the output it serves.
#[derive(Debug)]
pub(crate) struct DocMemo {
    config_fp: u64,
    text_fp: u64,
    table_fps: Vec<u64>,
    alignments: Vec<Alignment>,
    /// Kept candidates per text mention; its length is the mention count
    /// a hit reports.
    candidates: Vec<Vec<Candidate>>,
    diagnostics: Diagnostics,
    stats: FilterStats,
    /// Alignment targets (single and virtual cells) of the document, for
    /// the `targets` counter a hit reports.
    targets: u64,
    approx_bytes: u64,
    /// LRU clock value of the last lookup that touched this entry
    /// (monotone per-store counter, not wall time). Not persisted.
    last_used: u64,
}

impl DocMemo {
    /// True when the memo was computed from exactly these inputs.
    fn matches(&self, config_fp: u64, text_fp: u64, table_fps: &[u64]) -> bool {
        self.config_fp == config_fp && self.text_fp == text_fp && self.table_fps == table_fps
    }

    /// Coarse resident-size estimate for the `store_bytes_peak` gauge:
    /// string payloads plus shallow container sizes. Observational only.
    fn estimate_bytes(&self) -> u64 {
        let mut n = std::mem::size_of::<DocMemo>() + self.table_fps.len() * 8;
        for a in &self.alignments {
            n += std::mem::size_of::<Alignment>() + a.mention_raw.len() + a.target.raw.len();
            n += a.target.cells.len() * 16;
        }
        for c in &self.candidates {
            n += std::mem::size_of_val(c.as_slice()) + 24;
        }
        n += self.diagnostics.items.len() * 128;
        n += (self.stats.total.len() + self.stats.kept.len()) * 64;
        n as u64
    }
}

/// Construction options for an [`AlignmentStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Directory for the durable backing (novelty log + snapshots +
    /// manifest). `None` (the default) keeps the store in-memory only.
    pub dir: Option<PathBuf>,
    /// Resident-memory budget in (estimated) bytes; entries beyond it
    /// are evicted least-recently-used. `0` means unbounded.
    pub max_bytes: u64,
    /// Novelty-log size that triggers a compacting snapshot. Only
    /// meaningful with `dir` set.
    pub compact_log_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            dir: None,
            max_bytes: 0,
            compact_log_bytes: 4 << 20,
        }
    }
}

/// Pure LRU eviction planner: given `(key, last_used, bytes)` per entry
/// and a byte budget, return the keys to evict — least-recently-used
/// first (key order breaks ties deterministically) until the survivors
/// fit. The most-recently-used entry is never evicted, so the entry a
/// lookup just produced cannot be dropped before it is ever served.
pub(crate) fn evict_plan(items: &[(u64, u64, u64)], max_bytes: u64) -> Vec<u64> {
    let total: u64 = items.iter().map(|&(_, _, b)| b).sum();
    if max_bytes == 0 || total <= max_bytes || items.is_empty() {
        return Vec::new();
    }
    let mut order: Vec<&(u64, u64, u64)> = items.iter().collect();
    order.sort_by_key(|&&(key, used, _)| (used, key));
    let mut resident = total;
    let mut evict = Vec::new();
    // `order.len() - 1`: the last (most-recently-used) entry survives
    // even when it alone exceeds the budget.
    for &&(key, _, bytes) in order.iter().take(order.len() - 1) {
        if resident <= max_bytes {
            break;
        }
        resident -= bytes;
        evict.push(key);
    }
    evict
}

/// A versioned, thread-shared memo of per-document alignment outputs.
///
/// The store is deliberately **not** part of [`Briq`]: the system stays
/// `Send + Sync + Clone` and batch/serve configs stay `Copy`; callers
/// that want incremental re-alignment pass a store (and a stable
/// per-document key) alongside the system. Interior mutability — one
/// mutex around the entry map plus atomic counters — makes one store
/// shareable across every batch worker and serve worker; output stays
/// input-order deterministic because cache state can only ever change
/// *which work is skipped*, never *what any document's output is*.
#[derive(Debug)]
pub struct AlignmentStore {
    model_fp: u64,
    entries: Mutex<HashMap<u64, DocMemo>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    invalidations: AtomicU64,
    mentions_realigned: AtomicU64,
    bytes: AtomicU64,
    bytes_peak: AtomicU64,
    /// Monotone LRU clock; bumped on every touch of an entry.
    tick: AtomicU64,
    max_bytes: u64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    persist_errors: AtomicU64,
    recovered: u64,
    recover_s: f64,
    recover_truncated: bool,
    recover_rebuilt: bool,
    persist: Option<persist::Persistence>,
}

impl AlignmentStore {
    /// Create an empty in-memory store bound to `briq`'s identity. The
    /// model fingerprint is computed once here; aligning through the
    /// store with a *different* (retrained/reconfigured) system
    /// invalidates entries on contact rather than serving stale
    /// memos.
    pub fn for_system(briq: &Briq) -> AlignmentStore {
        // Infallible: `with_options` touches the filesystem only when a
        // persistence directory is set, and the defaults set none.
        match AlignmentStore::with_options(briq, &StoreOptions::default()) {
            Ok(store) => store,
            Err(_) => unreachable!("in-memory store construction cannot fail"),
        }
    }

    /// Create a store with explicit [`StoreOptions`]. With a `dir` set,
    /// opens (or creates) the durable backing and recovers every entry
    /// it holds — replaying the snapshot then the novelty log, last
    /// write per key winning — before the store serves its first
    /// lookup. Fails only on real I/O errors; corrupt or incompatible
    /// on-disk state recovers to a smaller (possibly empty) store
    /// instead of failing (see [`persist`]).
    pub fn with_options(briq: &Briq, opts: &StoreOptions) -> std::io::Result<AlignmentStore> {
        let model_fp = model_fingerprint(briq);
        let mut map = HashMap::new();
        let mut clock = 0u64;
        let mut resident = 0u64;
        let mut recovered = 0u64;
        let mut recover_s = 0.0;
        let mut recover_truncated = false;
        let mut recover_rebuilt = false;
        let mut backing = None;
        if let Some(dir) = &opts.dir {
            let t = Instant::now();
            let (p, rec) = persist::Persistence::open(dir, model_fp, opts.compact_log_bytes)?;
            recover_truncated = rec.truncated;
            recover_rebuilt = rec.rebuilt;
            for (key, mut entry) in rec.entries {
                clock += 1;
                entry.last_used = clock;
                resident += entry.approx_bytes;
                if let Some(old) = map.insert(key, entry) {
                    resident -= old.approx_bytes;
                }
            }
            // Apply the memory budget to the recovered set too: a
            // restart must not resurrect more than a live server would
            // have kept resident.
            if opts.max_bytes > 0 {
                let items: Vec<(u64, u64, u64)> = map
                    .iter()
                    .map(|(&k, e)| (k, e.last_used, e.approx_bytes))
                    .collect();
                for key in evict_plan(&items, opts.max_bytes) {
                    if let Some(old) = map.remove(&key) {
                        resident -= old.approx_bytes;
                    }
                }
            }
            recovered = map.len() as u64;
            recover_s = t.elapsed().as_secs_f64();
            backing = Some(p);
        }
        Ok(AlignmentStore {
            model_fp,
            entries: Mutex::new(map),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            mentions_realigned: AtomicU64::new(0),
            bytes: AtomicU64::new(resident),
            bytes_peak: AtomicU64::new(resident),
            tick: AtomicU64::new(clock),
            max_bytes: opts.max_bytes,
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            persist_errors: AtomicU64::new(0),
            recovered,
            recover_s,
            recover_truncated,
            recover_rebuilt,
            persist: backing,
        })
    }

    /// Number of cached documents.
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups (one per aligned document).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Full-document hits served verbatim from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found an entry but could not serve it verbatim
    /// (some fingerprint changed) — the entry was invalidated and
    /// replaced by the recomputed document's memo.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Text mentions of every document the store recomputed (missed or
    /// stale lookups that ran to completion); 0 when every lookup hit.
    pub fn mentions_realigned(&self) -> u64 {
        self.mentions_realigned.load(Ordering::Relaxed)
    }

    /// High-water mark of the store's estimated resident bytes.
    pub fn bytes_peak(&self) -> u64 {
        self.bytes_peak.load(Ordering::Relaxed)
    }

    /// True when this store has a durable on-disk backing.
    pub fn persisted(&self) -> bool {
        self.persist.is_some()
    }

    /// Store directory of the durable backing, if any.
    pub fn store_dir(&self) -> Option<&std::path::Path> {
        self.persist.as_ref().map(|p| p.dir())
    }

    /// Entries recovered from disk when this store was opened.
    pub fn recovered_entries(&self) -> u64 {
        self.recovered
    }

    /// Wall-clock seconds spent recovering the on-disk state at open.
    pub fn recover_seconds(&self) -> f64 {
        self.recover_s
    }

    /// True if recovery truncated a torn tail record in the snapshot or
    /// log (a crash interrupted a write; the valid prefix was kept).
    pub fn recover_truncated(&self) -> bool {
        self.recover_truncated
    }

    /// True if recovery discarded incompatible or foreign on-disk state
    /// (format-version bump, model/config change, unmanifested files)
    /// and rebuilt the directory from scratch.
    pub fn recover_rebuilt(&self) -> bool {
        self.recover_rebuilt
    }

    /// Entries evicted to stay under the memory budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Estimated bytes released by eviction.
    pub fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes.load(Ordering::Relaxed)
    }

    /// Current novelty-log size in bytes (0 without persistence).
    pub fn log_bytes(&self) -> u64 {
        self.persist.as_ref().map_or(0, |p| p.log_bytes())
    }

    /// Current snapshot size in bytes (0 without persistence or before
    /// the first snapshot).
    pub fn snapshot_bytes(&self) -> u64 {
        self.persist.as_ref().map_or(0, |p| p.snapshot_bytes())
    }

    /// Compacting snapshots written by this process.
    pub fn compactions(&self) -> u64 {
        self.persist.as_ref().map_or(0, |p| p.compactions())
    }

    /// Persistence I/O failures. Append/snapshot errors degrade the
    /// store to best-effort (the in-memory cache and all outputs are
    /// unaffected); this counter is how operators notice.
    pub fn persist_errors(&self) -> u64 {
        self.persist_errors.load(Ordering::Relaxed)
    }

    /// Write a compacting snapshot of the current entries and reset the
    /// novelty log. No-op without persistence. Called on graceful drain
    /// and after warm-up passes; also triggered automatically when the
    /// log outgrows [`StoreOptions::compact_log_bytes`].
    pub fn snapshot(&self) -> std::io::Result<()> {
        let Some(p) = &self.persist else {
            return Ok(());
        };
        // Hold the entry lock across the write so the snapshot is a
        // consistent point-in-time view. write_snapshot takes the snap
        // and log locks *inside* this — the lock order entries → snap →
        // log is the only one used anywhere (appends take log alone).
        let map = lock(&self.entries);
        let mut payloads: Vec<(u64, Vec<u8>)> = map
            .iter()
            .map(|(&k, e)| (k, persist::encode_record(k, e)))
            .collect();
        payloads.sort_by_key(|&(k, _)| k);
        let payloads: Vec<Vec<u8>> = payloads.into_iter().map(|(_, p)| p).collect();
        p.write_snapshot(&payloads)
    }

    /// Fsync the novelty log. No-op without persistence.
    pub fn sync(&self) -> std::io::Result<()> {
        self.persist.as_ref().map_or(Ok(()), |p| p.sync())
    }

    /// Encoded record payloads of every resident entry, key-ordered.
    /// Test/diagnostic surface for the persistence layer.
    #[cfg(test)]
    pub(crate) fn encoded_entries(&self) -> Vec<Vec<u8>> {
        let map = lock(&self.entries);
        let mut payloads: Vec<(u64, Vec<u8>)> = map
            .iter()
            .map(|(&k, e)| (k, persist::encode_record(k, e)))
            .collect();
        payloads.sort_by_key(|&(k, _)| k);
        payloads.into_iter().map(|(_, p)| p).collect()
    }

    /// Evict least-recently-used entries until the resident estimate
    /// fits the budget. Eviction only removes cache entries — a later
    /// lookup for an evicted key recomputes (or recovers from disk on
    /// the next restart) and produces identical output.
    fn evict_to_budget(&self, rec: &Recorder) {
        if self.max_bytes == 0 || self.bytes.load(Ordering::Relaxed) <= self.max_bytes {
            return;
        }
        let mut map = lock(&self.entries);
        let items: Vec<(u64, u64, u64)> = map
            .iter()
            .map(|(&k, e)| (k, e.last_used, e.approx_bytes))
            .collect();
        for key in evict_plan(&items, self.max_bytes) {
            if let Some(old) = map.remove(&key) {
                self.bytes_sub(old.approx_bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.evicted_bytes
                    .fetch_add(old.approx_bytes, Ordering::Relaxed);
                rec.count(names::STORE_EVICTIONS, 1);
            }
        }
    }

    /// Fraction of lookups served verbatim from cache (0.0 when no
    /// lookups happened yet).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / lookups as f64
        }
    }

    /// Reset the hit/lookup/invalidation/realignment counters (entries
    /// and byte gauges stay). Lets callers measure one pass — e.g. one
    /// `--repeat` iteration — in isolation.
    pub fn reset_counters(&self) {
        self.lookups.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
        self.mentions_realigned.store(0, Ordering::Relaxed);
    }

    fn bytes_add(&self, n: u64) {
        let now = self.bytes.fetch_add(n, Ordering::Relaxed) + n;
        self.bytes_peak.fetch_max(now, Ordering::Relaxed);
    }

    fn bytes_sub(&self, n: u64) {
        self.bytes
            .fetch_sub(n.min(self.bytes.load(Ordering::Relaxed)), Ordering::Relaxed);
    }

    /// Align `doc` through the store (the store branch of
    /// [`Briq::align_with`]): the same [`AlignOutput`], bit-identical to
    /// the full recompute for every possible cache state. Cancelled runs
    /// return the no-partial-state shape and leave the cache untouched.
    pub(crate) fn align(
        &self,
        briq: &Briq,
        key: u64,
        doc: &Document,
        opts: &AlignOptions<'_>,
    ) -> AlignOutput {
        let rec = &opts.rec;
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(cause) = opts.cancel.cause() {
            let timings = StageTimings::default();
            return cancelled_result(Stage::Extraction, cause, Default::default(), timings, rec);
        }

        // Fingerprint the inputs. Charged to the extract stage: on a hit
        // it replaces the whole pipeline.
        let t_fp = Instant::now();
        let mut cfp = Fingerprint::new();
        cfp.u64(self.model_fp);
        cfp.u64(budget_fingerprint(&opts.budget));
        let config_fp = cfp.finish();
        let text_fp = text_fingerprint(&doc.text);
        let table_fps: Vec<u64> = doc.tables.iter().map(table_fingerprint).collect();

        // Hit: serve the memo verbatim. Classify, filter, and resolution
        // are skipped entirely — `timings` shows zero for all three. An
        // entry whose fingerprints differ is stale and is taken out.
        let stale = {
            let mut map = lock(&self.entries);
            if let Some(e) = map.get_mut(&key) {
                if e.matches(config_fp, text_fp, &table_fps) {
                    e.last_used = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    rec.count(names::STORE_HITS, 1);
                    rec.count(names::MENTIONS, e.candidates.len() as u64);
                    rec.count(names::TARGETS, e.targets);
                    let timings = StageTimings {
                        extract_s: t_fp.elapsed().as_secs_f64(),
                        ..StageTimings::default()
                    };
                    return AlignOutput {
                        alignments: e.alignments.clone(),
                        stats: e.stats.clone(),
                        candidates: e.candidates.clone(),
                        diagnostics: e.diagnostics.clone(),
                        timings,
                    };
                }
            }
            map.remove(&key)
        };
        if let Some(old) = stale {
            self.bytes_sub(old.approx_bytes);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            rec.count(names::STORE_INVALIDATIONS, 1);
        }
        let fp_s = t_fp.elapsed().as_secs_f64();

        // Miss or stale: recompute through the stateless pipeline.
        let (mut out, targets) = briq.align_uncached(doc, opts);
        out.timings.extract_s += fp_s;
        let Some(targets) = targets else {
            return out;
        };
        let mentions = out.candidates.len() as u64;
        self.mentions_realigned
            .fetch_add(mentions, Ordering::Relaxed);
        rec.count(names::MENTIONS_REALIGNED, mentions);

        let mut memo = DocMemo {
            config_fp,
            text_fp,
            table_fps,
            alignments: out.alignments.clone(),
            candidates: out.candidates.clone(),
            diagnostics: out.diagnostics.clone(),
            stats: out.stats.clone(),
            targets,
            approx_bytes: 0,
            last_used: self.tick.fetch_add(1, Ordering::Relaxed) + 1,
        };
        memo.approx_bytes = memo.estimate_bytes();
        // Encode for the novelty log before the memo moves into the map;
        // the append itself happens after the lock drops so disk I/O
        // never serializes other workers' lookups.
        let payload = self
            .persist
            .as_ref()
            .map(|_| persist::encode_record(key, &memo));
        self.bytes_add(memo.approx_bytes);
        {
            let mut map = lock(&self.entries);
            if let Some(old) = map.insert(key, memo) {
                self.bytes_sub(old.approx_bytes);
            }
        }
        if let (Some(p), Some(payload)) = (&self.persist, payload) {
            // Persistence is best-effort on the hot path: an append or
            // snapshot failure costs durability (counted), never
            // correctness — the in-memory memo is already cached.
            if p.append(&payload).is_err() {
                self.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
            if p.wants_compact() && self.snapshot().is_err() {
                self.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
            rec.observe(names::STORE_LOG_BYTES, p.log_bytes() as f64);
        }
        self.evict_to_budget(rec);
        rec.observe(names::STORE_BYTES_PEAK, self.bytes_peak() as f64);
        out
    }
}

/// Poison-tolerant lock, mirroring the batch engine: a panicked worker
/// (already isolated by `catch_unwind`) must not wedge the store for
/// every other worker.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::BriqConfig;

    /// `doc` aligned through `store` under `key`, timings zeroed so whole
    /// outputs compare.
    fn stored(
        briq: &Briq,
        store: &AlignmentStore,
        key: u64,
        doc: &Document,
        budget: &Budget,
    ) -> AlignOutput {
        let opts = AlignOptions {
            budget: *budget,
            store: Some((store, key)),
            ..AlignOptions::default()
        };
        AlignOutput {
            timings: StageTimings::default(),
            ..briq.align_with(doc, &opts)
        }
    }

    fn doc(text: &str, grid: Vec<Vec<String>>) -> Document {
        Document::new(0, text, vec![Table::from_grid("", grid)])
    }

    fn sample() -> Document {
        doc(
            "Overall, a total of 123 patients reported side effects. \
             Depression was reported by 38 patients.",
            vec![
                vec!["side effects".into(), "patients".into()],
                vec!["Rash".into(), "35".into()],
                vec!["Depression".into(), "38".into()],
            ],
        )
    }

    #[test]
    fn fingerprints_are_deterministic() {
        let d = sample();
        assert_eq!(text_fingerprint(&d.text), text_fingerprint(&d.text));
        assert_eq!(
            table_fingerprint(&d.tables[0]),
            table_fingerprint(&d.tables[0].clone())
        );
        let briq = Briq::untrained(BriqConfig::default());
        assert_eq!(model_fingerprint(&briq), model_fingerprint(&briq));
    }

    #[test]
    fn fingerprints_track_content() {
        let d = sample();
        let edited = doc(
            &d.text,
            vec![
                vec!["side effects".into(), "patients".into()],
                vec!["Rash".into(), "36".into()],
                vec!["Depression".into(), "38".into()],
            ],
        );
        assert_ne!(
            table_fingerprint(&d.tables[0]),
            table_fingerprint(&edited.tables[0])
        );
        assert_ne!(
            text_fingerprint(&d.text),
            text_fingerprint("Depression was reported by 39 patients.")
        );
    }

    #[test]
    fn full_hit_serves_verbatim_and_skips_stages() {
        let briq = Briq::untrained(BriqConfig::default());
        let store = AlignmentStore::for_system(&briq);
        let d = sample();
        let budget = Budget::default();
        let cold = stored(&briq, &store, 7, &d, &budget);
        assert_eq!(store.hits(), 0);
        assert_eq!(store.lookups(), 1);
        let opts = AlignOptions {
            budget,
            store: Some((&store, 7)),
            ..AlignOptions::default()
        };
        let mut warm = briq.align_with(&d, &opts);
        assert_eq!(store.hits(), 1);
        let timings = std::mem::take(&mut warm.timings);
        assert_eq!(cold, warm);
        assert_eq!(timings.classify_s, 0.0);
        assert_eq!(timings.filter_s, 0.0);
        assert_eq!(timings.resolve_s, 0.0);
        assert_eq!(timings.pairs_scored, 0);
    }

    #[test]
    fn store_matches_full_recompute_after_cell_edit() {
        let briq = Briq::untrained(BriqConfig::default());
        let store = AlignmentStore::for_system(&briq);
        let budget = Budget::unlimited();
        let d = sample();
        stored(&briq, &store, 1, &d, &budget);
        let edited = doc(
            &d.text,
            vec![
                vec!["side effects".into(), "patients".into()],
                vec!["Rash".into(), "41".into()],
                vec!["Depression".into(), "38".into()],
            ],
        );
        let incremental = stored(&briq, &store, 1, &edited, &budget);
        let full = briq.align_with(&edited, &AlignOptions::default());
        assert_eq!(incremental.alignments, full.alignments);
        assert_eq!(incremental.stats, full.stats);
        assert_eq!(incremental.candidates, full.candidates);
        assert_eq!(store.invalidations(), 1);
    }

    #[test]
    fn stale_memo_is_recomputed_in_full_and_replaced() {
        let briq = Briq::untrained(BriqConfig::default());
        let store = AlignmentStore::for_system(&briq);
        let budget = Budget::default();
        let d = sample();
        let cold = stored(&briq, &store, 3, &d, &budget);
        assert_eq!(store.mentions_realigned(), cold.candidates.len() as u64);
        let edited = doc(&d.text.replace("38", "39"), d.tables[0].cells.clone());
        store.reset_counters();
        let changed = stored(&briq, &store, 3, &edited, &budget);
        // A changed document re-runs every mention and replaces the memo.
        assert_eq!(store.invalidations(), 1);
        assert_eq!(store.hits(), 0);
        assert_eq!(store.mentions_realigned(), changed.candidates.len() as u64);
        assert_eq!(store.len(), 1);
        // The new version is now the hit; the old one is stale.
        assert_eq!(stored(&briq, &store, 3, &edited, &budget), changed);
        assert_eq!(store.hits(), 1);
        assert_eq!(stored(&briq, &store, 3, &d, &budget), cold);
        assert_eq!(store.invalidations(), 2);
    }

    #[test]
    fn budget_is_part_of_the_memo_key() {
        let briq = Briq::untrained(BriqConfig::default());
        let store = AlignmentStore::for_system(&briq);
        let d = sample();
        let tight = Budget {
            max_virtual_cells_per_table: 1,
            ..Budget::default()
        };
        stored(&briq, &store, 5, &d, &Budget::default());
        let out = stored(&briq, &store, 5, &d, &tight);
        assert_eq!(
            store.hits(),
            0,
            "another budget must not be served the memo"
        );
        assert_eq!(store.invalidations(), 1);
        let full = briq.align_with(
            &d,
            &AlignOptions {
                budget: tight,
                ..AlignOptions::default()
            },
        );
        assert_eq!(out.diagnostics, full.diagnostics);
        assert_eq!(out.candidates, full.candidates);
    }

    #[test]
    fn cancelled_lookup_is_never_memoized() {
        let briq = Briq::untrained(BriqConfig::default());
        let store = AlignmentStore::for_system(&briq);
        let d = sample();
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let opts = AlignOptions {
            store: Some((&store, 9)),
            cancel: crate::error::CancelToken::with_flag(fired),
            ..AlignOptions::default()
        };
        let out = briq.align_with(&d, &opts);
        assert!(out.alignments.is_empty() && out.candidates.is_empty());
        assert_eq!(store.len(), 0);
        assert_eq!(store.mentions_realigned(), 0);
        stored(&briq, &store, 9, &d, &Budget::default());
        assert_eq!(store.hits(), 0, "the next lookup computes cold");
        assert_eq!(store.len(), 1);
    }

    /// Brute-force LRU oracle: evict globally-least-recently-used
    /// entries one at a time (key breaks ties) until the survivors fit,
    /// always sparing the most-recently-used entry.
    fn evict_oracle(items: &[(u64, u64, u64)], max_bytes: u64) -> Vec<u64> {
        let mut live: Vec<(u64, u64, u64)> = items.to_vec();
        let mut evicted = Vec::new();
        if max_bytes == 0 {
            return evicted;
        }
        while live.len() > 1 && live.iter().map(|&(_, _, b)| b).sum::<u64>() > max_bytes {
            let victim = live
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(key, used, _))| (used, key))
                .map(|(i, _)| i)
                .expect("non-empty");
            evicted.push(live.remove(victim).0);
        }
        evicted
    }

    #[test]
    fn evict_plan_matches_brute_force_oracle() {
        // Deterministic pseudo-random item sets: keys, ages, and sizes
        // from a simple LCG, budgets sweeping empty → everything-fits.
        let mut state = 0x2019_0408_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for n in 0..24usize {
            let items: Vec<(u64, u64, u64)> = (0..n)
                .map(|_| (next(), next() % 7, next() % 512 + 1))
                .collect();
            let total: u64 = items.iter().map(|&(_, _, b)| b).sum();
            for max_bytes in [0, 1, 64, total / 2, total, total + 1] {
                assert_eq!(
                    evict_plan(&items, max_bytes),
                    evict_oracle(&items, max_bytes),
                    "items={items:?} max_bytes={max_bytes}"
                );
            }
        }
    }

    #[test]
    fn eviction_bounds_memory_and_keeps_output_identical() {
        let briq = Briq::untrained(BriqConfig::default());
        // A 1-byte budget: after every insert, everything but the
        // newest entry is evicted.
        let bounded = AlignmentStore::with_options(
            &briq,
            &StoreOptions {
                max_bytes: 1,
                ..StoreOptions::default()
            },
        )
        .expect("in-memory store");
        let oracle = AlignmentStore::for_system(&briq);
        let budget = Budget::default();
        let d1 = sample();
        let d2 = doc(
            "Revenue grew to $12.5 million in 2018.",
            vec![
                vec!["year".into(), "revenue".into()],
                vec!["2018".into(), "$12.5M".into()],
            ],
        );
        for _ in 0..2 {
            for (k, d) in [(1u64, &d1), (2u64, &d2)] {
                assert_eq!(
                    stored(&briq, &bounded, k, d, &budget),
                    stored(&briq, &oracle, k, d, &budget),
                );
            }
        }
        assert_eq!(bounded.len(), 1, "budget keeps only the newest entry");
        assert!(bounded.evictions() >= 3);
        assert!(bounded.evicted_bytes() > 0);
        // The unbounded oracle store served round 2 from cache; the
        // bounded store recomputed — outputs matched regardless.
        assert_eq!(oracle.hits(), 2);
        assert_eq!(bounded.hits(), 0);
    }
}
