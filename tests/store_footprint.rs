//! The durable alignment store keeps each document's output, not its
//! pipeline intermediates (DESIGN.md §15–16). Two checks over a seeded
//! page corpus, segmented and keyed the way `briq-align` does it:
//!
//! - footprint: after a cold ingest and a snapshot, the store directory
//!   holds at most 3× the HTML it was built from;
//! - upgrade: a directory written by format version 1 is rebuilt on
//!   open, and the rebuilt store aligns byte-identically to the
//!   store-free pipeline, then recovers fully on the next open.

use std::fs;
use std::path::{Path, PathBuf};

use briq_core::pipeline::{AlignOptions, Briq, BriqConfig};
use briq_core::store::persist::{snapshot_file, FORMAT_VERSION, LOG_FILE, MANIFEST_FILE};
use briq_core::store::{AlignmentStore, Fingerprint, StoreOptions};
use briq_core::Budget;
use briq_corpus::corpus::CorpusConfig;
use briq_corpus::page::corpus_pages;
use briq_table::html::parse_page;
use briq_table::segment::{segment_page, SegmentConfig};
use briq_table::Document;

/// Largest store directory allowed per byte of input HTML.
const MAX_DISK_PER_INPUT_BYTE: f64 = 3.0;

/// A scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("briq-footprint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Seeded pages (three documents each), their total HTML bytes, and the
/// segmented documents with their store keys.
fn corpus(seed: u64) -> (usize, Vec<(u64, Document)>) {
    let pages = corpus_pages(
        &CorpusConfig {
            n_documents: 36,
            seed,
            ..Default::default()
        },
        3,
    );
    let mut docs = Vec::new();
    for (p, html) in pages.iter().enumerate() {
        let segmented = segment_page(&parse_page(html), &SegmentConfig::default(), docs.len());
        for (si, doc) in segmented.into_iter().enumerate() {
            let mut key = Fingerprint::new();
            key.str(&format!("page_{p:04}.html"));
            key.usize(si);
            docs.push((key.finish(), doc));
        }
    }
    (pages.iter().map(String::len).sum(), docs)
}

fn open(briq: &Briq, dir: &Path) -> AlignmentStore {
    AlignmentStore::with_options(
        briq,
        &StoreOptions {
            dir: Some(dir.to_path_buf()),
            ..StoreOptions::default()
        },
    )
    .expect("open durable store")
}

/// Every output surface of `doc`, through `store` when given. Debug
/// prints each f64 shortest-round-trip, so equal strings mean bit-equal
/// outputs.
fn surface(briq: &Briq, doc: &Document, store: Option<(&AlignmentStore, u64)>) -> String {
    let out = briq.align_with(
        doc,
        &AlignOptions {
            budget: Budget::default(),
            store,
            ..AlignOptions::default()
        },
    );
    format!(
        "{:?}",
        (out.alignments, out.stats, out.candidates, out.diagnostics)
    )
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .expect("read store dir")
        .flatten()
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum()
}

#[test]
fn durable_store_stays_within_three_times_its_input() {
    let briq = Briq::untrained(BriqConfig::default());
    let (input, docs) = corpus(20190408);
    assert!(docs.len() >= 30, "only {} documents segmented", docs.len());
    let dir = TempDir::new("ratio");
    {
        let store = open(&briq, dir.path());
        for (key, doc) in &docs {
            surface(&briq, doc, Some((&store, *key)));
        }
        store.snapshot().expect("snapshot");
        assert_eq!(store.len(), docs.len());
    }
    let disk = dir_bytes(dir.path());
    let ratio = disk as f64 / input as f64;
    assert!(
        ratio <= MAX_DISK_PER_INPUT_BYTE,
        "store holds {disk} bytes for {input} bytes of HTML ({ratio:.1}x, bound {MAX_DISK_PER_INPUT_BYTE}x)"
    );
}

#[test]
fn format_version_1_directory_is_rebuilt_and_aligns_identically() {
    assert_eq!(FORMAT_VERSION, 2);
    let briq = Briq::untrained(BriqConfig::default());
    let (_, docs) = corpus(7);
    let oracle: Vec<String> = docs.iter().map(|(_, d)| surface(&briq, d, None)).collect();
    let dir = TempDir::new("v1");
    {
        let store = open(&briq, dir.path());
        for (key, doc) in &docs[..docs.len() / 2] {
            surface(&briq, doc, Some((&store, *key)));
        }
        store.snapshot().expect("snapshot");
        for (key, doc) in &docs[docs.len() / 2..] {
            surface(&briq, doc, Some((&store, *key)));
        }
    }
    // Make the directory one that format version 1 wrote: the manifest
    // names version 1, and so do the snapshot and log file headers
    // (magic, then the little-endian version).
    let manifest = dir.path().join(MANIFEST_FILE);
    let text = fs::read_to_string(&manifest).expect("read manifest");
    assert!(text.contains("format_version 2\n"), "{text}");
    fs::write(
        &manifest,
        text.replace("format_version 2\n", "format_version 1\n"),
    )
    .expect("rewrite manifest");
    for file in [snapshot_file(1), LOG_FILE.to_string()] {
        let path = dir.path().join(file);
        let mut bytes = fs::read(&path).expect("read store file");
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&path, bytes).expect("rewrite header");
    }

    let store = open(&briq, dir.path());
    assert!(
        store.recover_rebuilt(),
        "a version 1 directory must be rebuilt"
    );
    assert_eq!(store.recovered_entries(), 0);
    for ((key, doc), want) in docs.iter().zip(&oracle) {
        assert_eq!(&surface(&briq, doc, Some((&store, *key))), want);
    }
    assert_eq!(store.hits(), 0);
    drop(store);

    // Rebuilt once: the next open trusts the directory and serves it.
    let store = open(&briq, dir.path());
    assert!(!store.recover_rebuilt());
    assert_eq!(store.recovered_entries(), docs.len() as u64);
    for ((key, doc), want) in docs.iter().zip(&oracle) {
        assert_eq!(&surface(&briq, doc, Some((&store, *key))), want);
    }
    assert_eq!(store.hits(), docs.len() as u64);
}
