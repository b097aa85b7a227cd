//! Every parser that reads outside input must run in time linear in it:
//! `briq_json::parse` reads megabyte model files and serve request lines,
//! `html::parse_page` reads the page HTML those requests carry, and
//! `extract_quantities` scans the paragraph text it yields; the
//! numeral parser reads every number token, the regex engine
//! compiles and runs patterns over text, and a durable alignment store
//! decodes its whole novelty log when it is reopened. Each
//! shape is parsed at `n` and `8n` bytes; a linear parser takes about 8×
//! as long on the larger input, a quadratic one about 64×. The bound
//! sits well between the two. The smaller input keeps the fastest of
//! several runs, and the larger one gets several tries to land inside
//! the bound, so scheduler noise cannot trip the check — while a
//! quadratic parser fails on its first, already over-budget try.

use std::path::Path;
use std::time::{Duration, Instant};

use briq_core::pipeline::{AlignOptions, Briq, BriqConfig};
use briq_core::store::persist::LOG_FILE;
use briq_core::store::{AlignmentStore, StoreOptions};
use briq_table::{Document, Table};

const N: usize = 32 * 1024;
const RUNS: u32 = 7;
const MAX_RATIO: f64 = 24.0;

fn time_parse(parse: &impl Fn(&str), input: &str) -> Duration {
    let t = Instant::now();
    parse(input);
    t.elapsed()
}

fn json(input: &str) {
    std::hint::black_box(briq_json::parse(input).expect("scaling input parses"));
}

fn html(input: &str) {
    std::hint::black_box(briq_table::html::parse_page(input));
}

fn quantities(input: &str) {
    std::hint::black_box(briq_text::extract_quantities(input));
}

fn numeral(input: &str) {
    std::hint::black_box(briq_text::numparse::parse_numeral(input));
}

fn regex_compile(pattern: &str) {
    std::hint::black_box(briq_regex::Regex::new(pattern).expect("scaling pattern compiles"));
}

fn regex_matches(input: &str) {
    let re = briq_regex::Regex::new(r"\d+(,\d{3})*").expect("pattern compiles");
    std::hint::black_box(re.find_iter(input).count());
}

fn assert_linear(shape: &str, parse: impl Fn(&str), make: impl Fn(usize) -> String) {
    assert_linear_sized(shape, N, parse, make, str::len);
}

/// [`assert_linear`] at `n` and `8n` bytes, with the input's byte size
/// read by `size` — for inputs that name their bytes rather than hold
/// them, such as a store directory.
fn assert_linear_sized(
    shape: &str,
    n: usize,
    parse: impl Fn(&str),
    make: impl Fn(usize) -> String,
    size: impl Fn(&str) -> usize,
) {
    let (small, large) = (make(n), make(8 * n));
    assert!(
        size(&small) >= n && size(&large) >= 8 * n,
        "{shape}: inputs too small"
    );
    let t_small = (0..RUNS)
        .map(|_| time_parse(&parse, &small))
        .min()
        .expect("at least one run")
        .max(Duration::from_micros(1));
    // Retry the larger input until one run lands inside the bound, for
    // at most the time RUNS runs right at the bound would take.
    let budget = t_small.mul_f64(MAX_RATIO) * RUNS;
    let (mut best, mut spent) = (Duration::MAX, Duration::ZERO);
    while spent < budget && best.as_secs_f64() >= MAX_RATIO * t_small.as_secs_f64() {
        let t = time_parse(&parse, &large);
        best = best.min(t);
        spent += t;
    }
    let ratio = best.as_secs_f64() / t_small.as_secs_f64();
    assert!(
        ratio < MAX_RATIO,
        "{shape}: parsing 8x the input took {ratio:.1}x as long \
         ({:.4}s at {} bytes, {:.4}s at {} bytes)",
        t_small.as_secs_f64(),
        size(&small),
        best.as_secs_f64(),
        size(&large)
    );
}

#[test]
fn long_string_parses_in_linear_time() {
    // Mostly ASCII with a multi-byte char and an escape now and then, as
    // in a page's HTML carried inside a request.
    assert_linear("long string", json, |n| {
        let mut s = String::with_capacity(n + 16);
        s.push('"');
        while s.len() < n {
            s.push_str("<td>1,200 jobs</td> ± \\n ");
        }
        s.push('"');
        s
    });
}

#[test]
fn model_shaped_object_parses_in_linear_time() {
    // Many short keys, the shape of a serialized forest.
    assert_linear("model object", json, |n| {
        let mut s = String::from("{\"trees\":[");
        let mut i = 0usize;
        while s.len() < n {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"Split\":{{\"feature\":{},\"threshold\":0.{i},\"left\":{},\"right\":{}}}}}",
                i % 12,
                2 * i + 1,
                2 * i + 2
            ));
            i += 1;
        }
        s.push_str("]}");
        s
    });
}

/// `<p>` of `n` bytes repeating `unit`.
fn paragraph_of(unit: &str, n: usize) -> String {
    let mut s = String::from("<p>");
    while s.len() < n {
        s.push_str(unit);
    }
    s.push_str("</p>");
    s
}

#[test]
fn html_bare_ampersands_parse_in_linear_time() {
    assert_linear("bare ampersands", html, |n| paragraph_of("&", n));
}

#[test]
fn html_ampersand_prose_parses_in_linear_time() {
    assert_linear("ampersand prose", html, |n| paragraph_of("a & b ", n));
}

#[test]
fn html_unterminated_comment_parses_in_linear_time() {
    assert_linear("unterminated comment", html, |n| {
        let mut s = String::from("<p>12 units</p><!-- ");
        while s.len() < n {
            s.push_str("note -- almost - > closed ");
        }
        s
    });
}

/// Text of `n` bytes repeating `unit`.
fn text_of(unit: &str, n: usize) -> String {
    unit.repeat(n.div_ceil(unit.len()))
}

#[test]
fn bare_numbers_extract_in_linear_time() {
    // No word tokens at all: every mention's approximation window must
    // not scan back to the start of the text.
    assert_linear("bare numbers", quantities, |n| text_of("1 ", n));
}

#[test]
fn currency_numbers_extract_in_linear_time() {
    assert_linear("currency numbers", quantities, |n| text_of("$1 ", n));
}

#[test]
fn grouped_numerals_parse_in_linear_time() {
    assert_linear("comma-grouped numeral", numeral, |n| {
        let mut s = String::from("1");
        while s.len() < n {
            s.push_str(",234");
        }
        s
    });
    assert_linear("dot-grouped numeral", numeral, |n| {
        let mut s = String::from("1");
        while s.len() < n {
            s.push_str(".234");
        }
        s
    });
    assert_linear("grouped decimal numeral", numeral, |n| {
        let mut s = String::from("1");
        while s.len() + 3 < n {
            s.push_str(",234");
        }
        s.push_str(".56");
        s
    });
}

#[test]
fn regex_long_class_compiles_in_linear_time() {
    assert_linear("long class", regex_compile, |n| {
        let mut s = String::from("[");
        while s.len() < n {
            s.push_str("a-z0-9,.%$ ");
        }
        s.push(']');
        s
    });
}

#[test]
fn regex_matches_long_text_in_linear_time() {
    assert_linear("numbers in prose", regex_matches, |n| {
        text_of("about 1,234 of ", n)
    });
}

/// Bytes of the store file header (magic, format version, model
/// fingerprint, generation; DESIGN.md §16) ahead of the first frame.
const STORE_HEADER_BYTES: usize = 24;

/// A durable store directory whose novelty log holds at least `n` bytes
/// of memo records and no snapshot, so a reopen decodes every record.
/// A few documents are aligned for real; their logged frames are then
/// repeated, which recovery replays last-write-wins per key. Returns the
/// directory path.
fn store_dir(n: usize) -> String {
    let dir = std::env::temp_dir().join(format!("briq-scaling-store-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let briq = Briq::untrained(BriqConfig::default());
    let store = AlignmentStore::with_options(&briq, &store_options(&dir)).expect("open store");
    let doc = Document::new(
        0,
        "Revenue grew to $12.5 million in 2018, up from $9.1 million, \
         while 38 of 123 stores reported losses.",
        vec![Table::from_grid(
            "Revenue",
            vec![
                vec!["year".into(), "revenue".into(), "stores".into()],
                vec!["2017".into(), "$9.1M".into(), "123".into()],
                vec!["2018".into(), "$12.5M".into(), "38".into()],
            ],
        )],
    );
    for key in 0..8 {
        let opts = AlignOptions {
            store: Some((&store, key)),
            ..AlignOptions::default()
        };
        briq.align_with(&doc, &opts);
    }
    drop(store);
    let log = dir.join(LOG_FILE);
    let logged = std::fs::read(&log).expect("read log");
    let (header, frames) = logged.split_at(STORE_HEADER_BYTES);
    let mut bytes = header.to_vec();
    while bytes.len() < n {
        bytes.extend_from_slice(frames);
    }
    std::fs::write(&log, bytes).expect("write log");
    dir.to_string_lossy().into_owned()
}

/// A durable store at `dir` that never compacts its log.
fn store_options(dir: &Path) -> StoreOptions {
    StoreOptions {
        dir: Some(dir.to_path_buf()),
        compact_log_bytes: u64::MAX,
        ..StoreOptions::default()
    }
}

fn store_reopen(dir: &str) {
    let briq = Briq::untrained(BriqConfig::default());
    let store =
        AlignmentStore::with_options(&briq, &store_options(Path::new(dir))).expect("reopen store");
    assert!(store.recovered_entries() > 0);
    std::hint::black_box(store);
}

fn log_size(dir: &str) -> usize {
    std::fs::metadata(Path::new(dir).join(LOG_FILE)).map_or(0, |m| m.len() as usize)
}

#[test]
fn store_recovery_replays_its_log_in_linear_time() {
    // Large enough that decoding, not the manifest write and fsync every
    // open pays, dominates both reopens.
    let n = 1024 * 1024;
    let (small, large) = (store_dir(n), store_dir(8 * n));
    let pick = |m: usize| if m == n { small.clone() } else { large.clone() };
    assert_linear_sized("store reopen", n, store_reopen, pick, log_size);
    for dir in [small, large] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
