//! Every parser that reads outside input must run in time linear in it:
//! `briq_json::parse` reads megabyte model files and serve request lines,
//! `html::parse_page` reads the page HTML those requests carry, and
//! `extract_quantities` scans the paragraph text it yields. Each
//! shape is parsed at `n` and `8n` bytes; a linear parser takes about 8×
//! as long on the larger input, a quadratic one about 64×. The bound
//! sits well between the two. The smaller input keeps the fastest of
//! several runs, and the larger one gets several tries to land inside
//! the bound, so scheduler noise cannot trip the check — while a
//! quadratic parser fails on its first, already over-budget try.

use std::time::{Duration, Instant};

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

fn assert_linear(shape: &str, parse: impl Fn(&str), make: impl Fn(usize) -> String) {
    let (small, large) = (make(N), make(8 * N));
    assert!(
        small.len() >= N && large.len() >= 8 * N,
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
        small.len(),
        best.as_secs_f64(),
        large.len()
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
