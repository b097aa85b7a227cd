//! Durable on-disk backing for the [`AlignmentStore`](super::AlignmentStore)
//! (DESIGN.md §16): an append-only novelty log plus periodically compacted
//! snapshots, so warm starts survive process restarts.
//!
//! The layer is std-only and deliberately small:
//!
//! - **Novelty log** (`novelty.log`) — every entry the store caches is
//!   appended as one length-prefixed frame whose payload (store key +
//!   full [`DocEntry`](super::AlignmentStore) encoding) is checksummed
//!   with the same FNV-1a the content fingerprints use. Appends are the
//!   only write on the hot path.
//! - **Snapshot** (`snapshot-<gen>.briq`) — a compaction of the resident
//!   entries into one file, written to a temp file, fsynced, and renamed
//!   into place; the log is then reset. Snapshots happen when the log
//!   outgrows its compaction threshold and on graceful drain/exit.
//! - **Manifest** (`MANIFEST`) — a tiny text file naming the format
//!   version, the model/config fingerprint, and the current snapshot
//!   generation. Any mismatch (foreign file, version bump, retrained
//!   model) marks the directory incompatible: its store files are
//!   rebuilt from scratch rather than trusted.
//! - **Recovery** — replay snapshot then log, last write per key wins.
//!   A torn tail frame (short header, short payload, or checksum
//!   mismatch) truncates the file at the last valid frame boundary
//!   instead of failing: everything before the tear is served warm,
//!   everything after is recomputed cold.
//!
//! The codec is a bespoke binary encoding, not JSON: the store's
//! contract is *bit* identity, and `briq_json` degrades non-finite
//! floats to `null`. Every `f64` round-trips through `to_bits()`, every
//! string is length-prefixed UTF-8, every enum is a fixed `u8` tag, and
//! every map/set is a `BTree*` whose iteration order is deterministic —
//! so encode∘decode is the identity on every entry the pipeline can
//! produce, including NaN/∞ values from the non-finite chaos family.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use briq_table::{Orientation, TableMention, TableMentionKind};
use briq_text::cues::{AggregationKind, ApproxIndicator};
use briq_text::quantity::QuantityMention;
use briq_text::token::{Token, TokenKind};
use briq_text::units::{Currency, Measure, Unit};

use super::{DocEntry, Fingerprint, MentionArtifact};
use crate::context::{DocContext, MentionContext, TableContext};
use crate::error::{DegradedAction, Diagnostic, Diagnostics, Stage};
use crate::filtering::{Candidate, FilterStats};
use crate::mention::{Alignment, TextMention};

/// On-disk format version. Bumped on any incompatible codec or layout
/// change; a manifest naming a different version marks the whole
/// directory incompatible and it is rebuilt from scratch.
pub const FORMAT_VERSION: u32 = 1;

/// File name of the append-only novelty log inside the store directory.
pub const LOG_FILE: &str = "novelty.log";

/// File name of the manifest inside the store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// File name of the compacted snapshot for generation `gen` (`gen >= 1`).
pub fn snapshot_file(gen: u64) -> String {
    format!("snapshot-{gen}.briq")
}

/// Magic bytes opening every snapshot/log file.
const MAGIC: [u8; 4] = *b"BQST";

/// First line of the manifest.
const MANIFEST_MAGIC: &str = "briq-store";

/// Fixed binary file header: magic + format version + model fingerprint
/// + snapshot generation.
const HEADER_LEN: u64 = 4 + 4 + 8 + 8;

/// Per-frame header: payload length (u32) + FNV-1a checksum (u64).
const FRAME_HEADER_LEN: usize = 4 + 8;

/// Sanity cap on one frame's payload; anything larger is treated as a
/// corrupt length field (= torn tail).
const MAX_FRAME_BYTES: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// Append-only byte encoder. All integers are little-endian; lengths are
/// `u32`; `usize` values (byte offsets, indices) widen to `u64`; floats
/// are stored as their IEEE-754 bit patterns.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn len(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize);
        self.u32(n as u32);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Decode failure: the payload is structurally invalid (short read, bad
/// enum tag, non-UTF-8 string, trailing garbage). Recovery treats it
/// like a checksum mismatch — the frame and everything after it are
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(&'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Cursor over one frame payload.
struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Dec<'a> {
        Dec { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError("overflow"))?;
        if end > self.b.len() {
            return Err(DecodeError("short payload"));
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError("usize overflow"))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A container/string length. Bounded by the remaining payload (every
    /// element occupies at least one byte), so a corrupt length cannot
    /// trigger a huge allocation.
    fn len(&mut self) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.b.len() - self.pos {
            return Err(DecodeError("length exceeds payload"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.len()?;
        let s = std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError("invalid utf-8"))?;
        Ok(s.to_string())
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(DecodeError("trailing garbage"))
        }
    }
}

// --- leaf encoders/decoders -------------------------------------------------

fn enc_string_vec(e: &mut Enc, v: &[String]) {
    e.len(v.len());
    for s in v {
        e.str(s);
    }
}

fn dec_string_vec(d: &mut Dec<'_>) -> Result<Vec<String>, DecodeError> {
    let n = d.len()?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.str()?);
    }
    Ok(v)
}

fn enc_string_set(e: &mut Enc, v: &std::collections::BTreeSet<String>) {
    e.len(v.len());
    for s in v {
        e.str(s);
    }
}

fn dec_string_set(d: &mut Dec<'_>) -> Result<std::collections::BTreeSet<String>, DecodeError> {
    let n = d.len()?;
    let mut v = std::collections::BTreeSet::new();
    for _ in 0..n {
        v.insert(d.str()?);
    }
    Ok(v)
}

fn enc_set_vec(e: &mut Enc, v: &[std::collections::BTreeSet<String>]) {
    e.len(v.len());
    for s in v {
        enc_string_set(e, s);
    }
}

fn dec_set_vec(d: &mut Dec<'_>) -> Result<Vec<std::collections::BTreeSet<String>>, DecodeError> {
    let n = d.len()?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(dec_string_set(d)?);
    }
    Ok(v)
}

fn enc_weight_map(e: &mut Enc, m: &BTreeMap<String, f64>) {
    e.len(m.len());
    for (k, &v) in m {
        e.str(k);
        e.f64(v);
    }
}

fn dec_weight_map(d: &mut Dec<'_>) -> Result<BTreeMap<String, f64>, DecodeError> {
    let n = d.len()?;
    let mut m = BTreeMap::new();
    for _ in 0..n {
        let k = d.str()?;
        let v = d.f64()?;
        m.insert(k, v);
    }
    Ok(m)
}

fn enc_count_map(e: &mut Enc, m: &BTreeMap<String, usize>) {
    e.len(m.len());
    for (k, &v) in m {
        e.str(k);
        e.usize(v);
    }
}

fn dec_count_map(d: &mut Dec<'_>) -> Result<BTreeMap<String, usize>, DecodeError> {
    let n = d.len()?;
    let mut m = BTreeMap::new();
    for _ in 0..n {
        let k = d.str()?;
        let v = d.usize()?;
        m.insert(k, v);
    }
    Ok(m)
}

fn enc_token_kind(e: &mut Enc, k: TokenKind) {
    e.u8(match k {
        TokenKind::Word => 0,
        TokenKind::Number => 1,
        TokenKind::Alphanumeric => 2,
        TokenKind::Punct => 3,
        TokenKind::Symbol => 4,
    });
}

fn dec_token_kind(d: &mut Dec<'_>) -> Result<TokenKind, DecodeError> {
    Ok(match d.u8()? {
        0 => TokenKind::Word,
        1 => TokenKind::Number,
        2 => TokenKind::Alphanumeric,
        3 => TokenKind::Punct,
        4 => TokenKind::Symbol,
        _ => return Err(DecodeError("bad token kind")),
    })
}

fn enc_unit(e: &mut Enc, u: Unit) {
    match u {
        Unit::Currency(c) => {
            e.u8(0);
            e.u8(match c {
                Currency::Usd => 0,
                Currency::Eur => 1,
                Currency::Gbp => 2,
                Currency::Cad => 3,
                Currency::Inr => 4,
                Currency::Jpy => 5,
                Currency::Other => 6,
            });
        }
        Unit::Percent => e.u8(1),
        Unit::BasisPoints => e.u8(2),
        Unit::Measure(m) => {
            e.u8(3);
            e.u8(match m {
                Measure::Mpge => 0,
                Measure::GramsPerKm => 1,
                Measure::KWh => 2,
                Measure::Mg => 3,
                Measure::Km => 4,
                Measure::Count => 5,
            });
        }
        Unit::None => e.u8(4),
    }
}

fn dec_unit(d: &mut Dec<'_>) -> Result<Unit, DecodeError> {
    Ok(match d.u8()? {
        0 => Unit::Currency(match d.u8()? {
            0 => Currency::Usd,
            1 => Currency::Eur,
            2 => Currency::Gbp,
            3 => Currency::Cad,
            4 => Currency::Inr,
            5 => Currency::Jpy,
            6 => Currency::Other,
            _ => return Err(DecodeError("bad currency")),
        }),
        1 => Unit::Percent,
        2 => Unit::BasisPoints,
        3 => Unit::Measure(match d.u8()? {
            0 => Measure::Mpge,
            1 => Measure::GramsPerKm,
            2 => Measure::KWh,
            3 => Measure::Mg,
            4 => Measure::Km,
            5 => Measure::Count,
            _ => return Err(DecodeError("bad measure")),
        }),
        4 => Unit::None,
        _ => return Err(DecodeError("bad unit")),
    })
}

fn enc_approx(e: &mut Enc, a: ApproxIndicator) {
    e.u8(match a {
        ApproxIndicator::Exact => 0,
        ApproxIndicator::Approximate => 1,
        ApproxIndicator::UpperBound => 2,
        ApproxIndicator::LowerBound => 3,
        ApproxIndicator::None => 4,
    });
}

fn dec_approx(d: &mut Dec<'_>) -> Result<ApproxIndicator, DecodeError> {
    Ok(match d.u8()? {
        0 => ApproxIndicator::Exact,
        1 => ApproxIndicator::Approximate,
        2 => ApproxIndicator::UpperBound,
        3 => ApproxIndicator::LowerBound,
        4 => ApproxIndicator::None,
        _ => return Err(DecodeError("bad approx indicator")),
    })
}

fn agg_tag(a: AggregationKind) -> u8 {
    match a {
        AggregationKind::Sum => 0,
        AggregationKind::Difference => 1,
        AggregationKind::Percentage => 2,
        AggregationKind::ChangeRatio => 3,
        AggregationKind::Average => 4,
        AggregationKind::Max => 5,
        AggregationKind::Min => 6,
    }
}

fn dec_agg(d: &mut Dec<'_>) -> Result<AggregationKind, DecodeError> {
    Ok(match d.u8()? {
        0 => AggregationKind::Sum,
        1 => AggregationKind::Difference,
        2 => AggregationKind::Percentage,
        3 => AggregationKind::ChangeRatio,
        4 => AggregationKind::Average,
        5 => AggregationKind::Max,
        6 => AggregationKind::Min,
        _ => return Err(DecodeError("bad aggregation kind")),
    })
}

fn enc_text_mention(e: &mut Enc, m: &TextMention) {
    e.usize(m.id);
    let q: &QuantityMention = &m.quantity;
    e.str(&q.raw);
    e.f64(q.value);
    e.f64(q.unnormalized);
    enc_unit(e, q.unit);
    e.u8(q.precision);
    enc_approx(e, q.approx);
    e.usize(q.start);
    e.usize(q.end);
}

fn dec_text_mention(d: &mut Dec<'_>) -> Result<TextMention, DecodeError> {
    let id = d.usize()?;
    let raw = d.str()?;
    let value = d.f64()?;
    let unnormalized = d.f64()?;
    let unit = dec_unit(d)?;
    let precision = d.u8()?;
    let approx = dec_approx(d)?;
    let start = d.usize()?;
    let end = d.usize()?;
    Ok(TextMention {
        id,
        quantity: QuantityMention {
            raw,
            value,
            unnormalized,
            unit,
            precision,
            approx,
            start,
            end,
        },
    })
}

fn enc_token(e: &mut Enc, t: &Token) {
    e.str(&t.text);
    e.usize(t.start);
    e.usize(t.end);
    enc_token_kind(e, t.kind);
}

fn dec_token(d: &mut Dec<'_>) -> Result<Token, DecodeError> {
    Ok(Token {
        text: d.str()?,
        start: d.usize()?,
        end: d.usize()?,
        kind: dec_token_kind(d)?,
    })
}

fn enc_mention_ctx(e: &mut Enc, m: &MentionContext) {
    enc_weight_map(e, &m.local_weights);
    enc_string_set(e, &m.sentence_phrases);
    enc_string_vec(e, &m.immediate_words);
    enc_string_vec(e, &m.sentence_words);
    match m.inferred_aggregation {
        None => e.u8(0),
        Some(a) => {
            e.u8(1);
            e.u8(agg_tag(a));
        }
    }
    e.usize(m.token_index);
}

fn dec_mention_ctx(d: &mut Dec<'_>) -> Result<MentionContext, DecodeError> {
    Ok(MentionContext {
        local_weights: dec_weight_map(d)?,
        sentence_phrases: dec_string_set(d)?,
        immediate_words: dec_string_vec(d)?,
        sentence_words: dec_string_vec(d)?,
        inferred_aggregation: match d.u8()? {
            0 => None,
            1 => Some(dec_agg(d)?),
            _ => return Err(DecodeError("bad option tag")),
        },
        token_index: d.usize()?,
    })
}

fn enc_table_ctx(e: &mut Enc, t: &TableContext) {
    enc_set_vec(e, &t.row_words);
    enc_set_vec(e, &t.col_words);
    enc_string_set(e, &t.table_words);
    enc_set_vec(e, &t.row_phrases);
    enc_set_vec(e, &t.col_phrases);
    enc_string_set(e, &t.table_phrases);
}

fn dec_table_ctx(d: &mut Dec<'_>) -> Result<TableContext, DecodeError> {
    Ok(TableContext {
        row_words: dec_set_vec(d)?,
        col_words: dec_set_vec(d)?,
        table_words: dec_string_set(d)?,
        row_phrases: dec_set_vec(d)?,
        col_phrases: dec_set_vec(d)?,
        table_phrases: dec_string_set(d)?,
    })
}

fn enc_doc_ctx(e: &mut Enc, c: &DocContext) {
    e.len(c.tokens.len());
    for t in &c.tokens {
        enc_token(e, t);
    }
    enc_string_set(e, &c.paragraph_words);
    enc_string_vec(e, &c.paragraph_word_list);
    enc_string_set(e, &c.paragraph_phrases);
    e.len(c.tables.len());
    for t in &c.tables {
        enc_table_ctx(e, t);
    }
    e.len(c.mentions.len());
    for m in &c.mentions {
        enc_mention_ctx(e, m);
    }
}

fn dec_doc_ctx(d: &mut Dec<'_>) -> Result<DocContext, DecodeError> {
    let n = d.len()?;
    let mut tokens = Vec::with_capacity(n);
    for _ in 0..n {
        tokens.push(dec_token(d)?);
    }
    let paragraph_words = dec_string_set(d)?;
    let paragraph_word_list = dec_string_vec(d)?;
    let paragraph_phrases = dec_string_set(d)?;
    let n = d.len()?;
    let mut tables = Vec::with_capacity(n);
    for _ in 0..n {
        tables.push(dec_table_ctx(d)?);
    }
    let n = d.len()?;
    let mut mentions = Vec::with_capacity(n);
    for _ in 0..n {
        mentions.push(dec_mention_ctx(d)?);
    }
    Ok(DocContext {
        tokens,
        paragraph_words,
        paragraph_word_list,
        paragraph_phrases,
        tables,
        mentions,
    })
}

fn enc_table_mention(e: &mut Enc, t: &TableMention) {
    e.usize(t.table);
    match t.kind {
        TableMentionKind::SingleCell => e.u8(0),
        TableMentionKind::Aggregate(a) => {
            e.u8(1);
            e.u8(agg_tag(a));
        }
    }
    e.len(t.cells.len());
    for &(r, c) in &t.cells {
        e.usize(r);
        e.usize(c);
    }
    e.f64(t.value);
    e.f64(t.unnormalized);
    e.str(&t.raw);
    enc_unit(e, t.unit);
    e.u8(t.precision);
    match t.orientation {
        None => e.u8(0),
        Some(Orientation::Row(i)) => {
            e.u8(1);
            e.usize(i);
        }
        Some(Orientation::Column(i)) => {
            e.u8(2);
            e.usize(i);
        }
    }
}

fn dec_table_mention(d: &mut Dec<'_>) -> Result<TableMention, DecodeError> {
    let table = d.usize()?;
    let kind = match d.u8()? {
        0 => TableMentionKind::SingleCell,
        1 => TableMentionKind::Aggregate(dec_agg(d)?),
        _ => return Err(DecodeError("bad table mention kind")),
    };
    let n = d.len()?;
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        let r = d.usize()?;
        let c = d.usize()?;
        cells.push((r, c));
    }
    Ok(TableMention {
        table,
        kind,
        cells,
        value: d.f64()?,
        unnormalized: d.f64()?,
        raw: d.str()?,
        unit: dec_unit(d)?,
        precision: d.u8()?,
        orientation: match d.u8()? {
            0 => None,
            1 => Some(Orientation::Row(d.usize()?)),
            2 => Some(Orientation::Column(d.usize()?)),
            _ => return Err(DecodeError("bad orientation")),
        },
    })
}

fn enc_candidates(e: &mut Enc, v: &[Candidate]) {
    e.len(v.len());
    for c in v {
        e.usize(c.target);
        e.f64(c.score);
    }
}

fn dec_candidates(d: &mut Dec<'_>) -> Result<Vec<Candidate>, DecodeError> {
    let n = d.len()?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let target = d.usize()?;
        let score = d.f64()?;
        v.push(Candidate { target, score });
    }
    Ok(v)
}

fn enc_filter_stats(e: &mut Enc, s: &FilterStats) {
    enc_count_map(e, &s.total);
    enc_count_map(e, &s.kept);
}

fn dec_filter_stats(d: &mut Dec<'_>) -> Result<FilterStats, DecodeError> {
    Ok(FilterStats {
        total: dec_count_map(d)?,
        kept: dec_count_map(d)?,
    })
}

fn enc_alignment(e: &mut Enc, a: &Alignment) {
    e.usize(a.mention_start);
    e.usize(a.mention_end);
    e.str(&a.mention_raw);
    enc_table_mention(e, &a.target);
    e.f64(a.score);
}

fn dec_alignment(d: &mut Dec<'_>) -> Result<Alignment, DecodeError> {
    Ok(Alignment {
        mention_start: d.usize()?,
        mention_end: d.usize()?,
        mention_raw: d.str()?,
        target: dec_table_mention(d)?,
        score: d.f64()?,
    })
}

fn enc_diagnostics(e: &mut Enc, ds: &Diagnostics) {
    e.len(ds.items.len());
    for item in &ds.items {
        e.u8(match item.stage {
            Stage::Extraction => 0,
            Stage::VirtualCells => 1,
            Stage::Classification => 2,
            Stage::GraphConstruction => 3,
            Stage::Resolution => 4,
            Stage::Batch => 5,
            Stage::Admission => 6,
        });
        e.str(&item.scope);
        e.str(&item.error);
        e.u8(match item.action {
            DegradedAction::Skipped => 0,
            DegradedAction::Truncated => 1,
            DegradedAction::Fallback => 2,
            DegradedAction::Cancelled => 3,
        });
    }
}

fn dec_diagnostics(d: &mut Dec<'_>) -> Result<Diagnostics, DecodeError> {
    let n = d.len()?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let stage = match d.u8()? {
            0 => Stage::Extraction,
            1 => Stage::VirtualCells,
            2 => Stage::Classification,
            3 => Stage::GraphConstruction,
            4 => Stage::Resolution,
            5 => Stage::Batch,
            6 => Stage::Admission,
            _ => return Err(DecodeError("bad stage")),
        };
        let scope = d.str()?;
        let error = d.str()?;
        let action = match d.u8()? {
            0 => DegradedAction::Skipped,
            1 => DegradedAction::Truncated,
            2 => DegradedAction::Fallback,
            3 => DegradedAction::Cancelled,
            _ => return Err(DecodeError("bad degraded action")),
        };
        items.push(Diagnostic {
            stage,
            scope,
            error,
            action,
        });
    }
    Ok(Diagnostics { items })
}

/// Encode one log/snapshot record payload: store key + full entry.
/// `approx_bytes` and the LRU clock are *not* encoded — both are
/// recomputed on recovery, so the on-disk format stays a pure function
/// of the cached artifact values.
pub(crate) fn encode_record(key: u64, e: &DocEntry) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u64(key);
    enc.u64(e.config_fp);
    enc.u64(e.text_fp);
    enc.u64(e.aggregate_fp);
    enc.len(e.table_fps.len());
    for &fp in &e.table_fps {
        enc.u64(fp);
    }
    enc.len(e.text_mentions.len());
    for m in &e.text_mentions {
        enc_text_mention(&mut enc, m);
    }
    enc_doc_ctx(&mut enc, &e.text_ctx);
    enc.len(e.table_contexts.len());
    for t in &e.table_contexts {
        enc_table_ctx(&mut enc, t);
    }
    enc.len(e.targets.len());
    for t in &e.targets {
        enc_table_mention(&mut enc, t);
    }
    enc_diagnostics(&mut enc, &e.extract_diags);
    enc.len(e.artifacts.len());
    for a in &e.artifacts {
        enc.u64(a.fp);
        enc_candidates(&mut enc, &a.candidates);
        enc_filter_stats(&mut enc, &a.stats);
    }
    enc.len(e.alignments.len());
    for a in &e.alignments {
        enc_alignment(&mut enc, a);
    }
    enc_diagnostics(&mut enc, &e.diagnostics);
    enc_filter_stats(&mut enc, &e.stats);
    enc.buf
}

/// Decode one record payload back into `(key, entry)`. Strict: the
/// payload must be consumed exactly; any slack or structural error is a
/// decode failure (treated as corruption by recovery).
pub(crate) fn decode_record(payload: &[u8]) -> Result<(u64, DocEntry), DecodeError> {
    let mut d = Dec::new(payload);
    let key = d.u64()?;
    let config_fp = d.u64()?;
    let text_fp = d.u64()?;
    let aggregate_fp = d.u64()?;
    let n = d.len()?;
    let mut table_fps = Vec::with_capacity(n);
    for _ in 0..n {
        table_fps.push(d.u64()?);
    }
    let n = d.len()?;
    let mut text_mentions = Vec::with_capacity(n);
    for _ in 0..n {
        text_mentions.push(dec_text_mention(&mut d)?);
    }
    let text_ctx = dec_doc_ctx(&mut d)?;
    let n = d.len()?;
    let mut table_contexts = Vec::with_capacity(n);
    for _ in 0..n {
        table_contexts.push(dec_table_ctx(&mut d)?);
    }
    let n = d.len()?;
    let mut targets = Vec::with_capacity(n);
    for _ in 0..n {
        targets.push(dec_table_mention(&mut d)?);
    }
    let extract_diags = dec_diagnostics(&mut d)?;
    let n = d.len()?;
    let mut artifacts = Vec::with_capacity(n);
    for _ in 0..n {
        let fp = d.u64()?;
        let candidates = dec_candidates(&mut d)?;
        let stats = dec_filter_stats(&mut d)?;
        artifacts.push(MentionArtifact {
            fp,
            candidates,
            stats,
        });
    }
    let n = d.len()?;
    let mut alignments = Vec::with_capacity(n);
    for _ in 0..n {
        alignments.push(dec_alignment(&mut d)?);
    }
    let diagnostics = dec_diagnostics(&mut d)?;
    let stats = dec_filter_stats(&mut d)?;
    d.finish()?;
    let mut entry = DocEntry {
        config_fp,
        text_fp,
        aggregate_fp,
        table_fps,
        text_mentions,
        text_ctx,
        table_contexts,
        targets,
        extract_diags,
        artifacts,
        alignments,
        diagnostics,
        stats,
        approx_bytes: 0,
        last_used: 0,
    };
    entry.approx_bytes = entry.estimate_bytes();
    Ok((key, entry))
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

fn checksum(payload: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.bytes(payload);
    fp.finish()
}

/// Frame a payload: `len (u32 LE) | fnv1a(payload) (u64 LE) | payload`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn file_header(model_fp: u64, gen: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN as usize);
    h.extend_from_slice(&MAGIC);
    h.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    h.extend_from_slice(&model_fp.to_le_bytes());
    h.extend_from_slice(&gen.to_le_bytes());
    h
}

/// Validate a file header against this process's identity. `Ok(gen)`
/// means the file was written by a compatible store; anything else is
/// incompatible (foreign magic, version bump, retrained model).
fn check_header(bytes: &[u8], model_fp: u64) -> Option<u64> {
    if bytes.len() < HEADER_LEN as usize || bytes[..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    let fp = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let gen = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
    (version == FORMAT_VERSION && fp == model_fp).then_some(gen)
}

/// Walk frames from `bytes[start..]`, decoding entries until the first
/// invalid frame. Returns the decoded entries, the byte offset of the
/// end of the last valid frame (= where a writer may safely resume
/// appending), and whether a tear was found.
fn read_frames(bytes: &[u8], start: usize) -> (Vec<(u64, DocEntry)>, u64, bool) {
    let mut entries = Vec::new();
    let mut pos = start;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return (entries, pos as u64, false);
        }
        if rest.len() < FRAME_HEADER_LEN {
            return (entries, pos as u64, true);
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap_or([0; 4]));
        let sum = u64::from_le_bytes(rest[4..12].try_into().unwrap_or([0; 8]));
        if len > MAX_FRAME_BYTES || rest.len() - FRAME_HEADER_LEN < len as usize {
            return (entries, pos as u64, true);
        }
        let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len as usize];
        if checksum(payload) != sum {
            return (entries, pos as u64, true);
        }
        match decode_record(payload) {
            Ok(kv) => entries.push(kv),
            Err(_) => return (entries, pos as u64, true),
        }
        pos += FRAME_HEADER_LEN + len as usize;
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

struct Manifest {
    model_fp: u64,
    snapshot_gen: u64,
}

enum ManifestState {
    Missing,
    Incompatible,
    Valid(Manifest),
}

fn read_manifest(dir: &Path) -> ManifestState {
    let text = match fs::read_to_string(dir.join(MANIFEST_FILE)) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return ManifestState::Missing,
        Err(_) => return ManifestState::Incompatible,
    };
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return ManifestState::Incompatible;
    }
    let (mut version, mut model_fp, mut snapshot_gen) = (None, None, None);
    for line in lines {
        match line.split_once(' ') {
            Some(("format_version", v)) => version = v.parse::<u32>().ok(),
            Some(("model_fp", v)) => model_fp = u64::from_str_radix(v, 16).ok(),
            Some(("snapshot_gen", v)) => snapshot_gen = v.parse::<u64>().ok(),
            _ => {}
        }
    }
    match (version, model_fp, snapshot_gen) {
        (Some(v), Some(fp), Some(gen)) if v == FORMAT_VERSION => ManifestState::Valid(Manifest {
            model_fp: fp,
            snapshot_gen: gen,
        }),
        _ => ManifestState::Incompatible,
    }
}

fn manifest_text(model_fp: u64, snapshot_gen: u64) -> String {
    format!("{MANIFEST_MAGIC}\nformat_version {FORMAT_VERSION}\nmodel_fp {model_fp:016x}\nsnapshot_gen {snapshot_gen}\n")
}

// ---------------------------------------------------------------------------
// Atomic file helpers
// ---------------------------------------------------------------------------

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename into place, then fsync the directory so the rename
/// itself is durable.
fn write_atomic(dir: &Path, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_dir(dir);
    Ok(())
}

/// Best-effort directory fsync (makes renames durable on Linux; a no-op
/// error elsewhere is acceptable — the files themselves are synced).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Remove every file this layer owns (manifest, log, snapshots, temps).
/// Called when the directory's contents are incompatible and must be
/// rebuilt; foreign files that merely *live* in the directory are left
/// alone.
fn wipe_store_files(dir: &Path) {
    let _ = fs::remove_file(dir.join(MANIFEST_FILE));
    let _ = fs::remove_file(dir.join(LOG_FILE));
    if let Ok(rd) = fs::read_dir(dir) {
        for entry in rd.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if (name.starts_with("snapshot-") && name.ends_with(".briq")) || name.ends_with(".tmp")
            {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Persistence handle
// ---------------------------------------------------------------------------

/// What recovery found in the store directory.
pub(crate) struct Recovered {
    /// Entries in replay order (snapshot first, then log); the caller
    /// inserts them last-wins per key.
    pub entries: Vec<(u64, DocEntry)>,
    /// True if a torn tail was truncated in the snapshot or log.
    pub truncated: bool,
    /// True if incompatible/foreign files were discarded and the
    /// directory rebuilt from scratch.
    pub rebuilt: bool,
}

struct LogFile {
    file: File,
    bytes: u64,
}

/// The durable backing of one [`AlignmentStore`](super::AlignmentStore):
/// open log handle, snapshot generation, and byte accounting. All file
/// writes go through this handle; the in-memory entry map stays in the
/// store itself.
pub(crate) struct Persistence {
    dir: PathBuf,
    model_fp: u64,
    compact_log_bytes: u64,
    log: Mutex<LogFile>,
    /// Serializes snapshot writers (the log mutex alone protects appends).
    snap: Mutex<()>,
    gen: AtomicU64,
    log_records: AtomicU64,
    snapshot_bytes: AtomicU64,
    compactions: AtomicU64,
}

impl std::fmt::Debug for Persistence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Persistence")
            .field("dir", &self.dir)
            .field("gen", &self.gen.load(Ordering::Relaxed))
            .finish()
    }
}

impl Persistence {
    /// Open (or create) a store directory and recover its contents.
    /// Never fails on *corrupt* data — torn tails truncate, incompatible
    /// files rebuild; only real I/O errors (permissions, full disk on
    /// the initial log create) surface as `Err`.
    pub(crate) fn open(
        dir: &Path,
        model_fp: u64,
        compact_log_bytes: u64,
    ) -> std::io::Result<(Persistence, Recovered)> {
        fs::create_dir_all(dir)?;
        let mut entries = Vec::new();
        let mut truncated = false;
        let mut rebuilt = false;

        // Manifest decides whether anything on disk can be trusted.
        let mut gen = match read_manifest(dir) {
            ManifestState::Valid(m) if m.model_fp == model_fp => m.snapshot_gen,
            ManifestState::Missing => {
                // A missing manifest with store files present means an
                // unknown writer left them; never trust unmanifested data.
                if dir.join(LOG_FILE).exists() {
                    rebuilt = true;
                    wipe_store_files(dir);
                }
                0
            }
            _ => {
                // Foreign magic, version bump, or model/config change.
                rebuilt = true;
                wipe_store_files(dir);
                0
            }
        };

        // Snapshot: replayed first, so the log wins per key.
        if gen > 0 {
            let path = dir.join(snapshot_file(gen));
            match fs::read(&path) {
                Ok(bytes) if check_header(&bytes, model_fp) == Some(gen) => {
                    let (snap_entries, _, torn) = read_frames(&bytes, HEADER_LEN as usize);
                    truncated |= torn;
                    entries.extend(snap_entries);
                }
                _ => {
                    // Named by the manifest but unreadable or incompatible:
                    // nothing on disk can be trusted any more.
                    rebuilt = true;
                    entries.clear();
                    wipe_store_files(dir);
                    gen = 0;
                }
            }
        }

        // Novelty log: replayed on top of the snapshot, then physically
        // truncated at the last valid frame so appends resume cleanly.
        let log_path = dir.join(LOG_FILE);
        let mut log_valid_len = None;
        if let Ok(bytes) = fs::read(&log_path) {
            match check_header(&bytes, model_fp) {
                Some(log_gen) if log_gen == gen => {
                    let (log_entries, valid_len, torn) = read_frames(&bytes, HEADER_LEN as usize);
                    truncated |= torn;
                    entries.extend(log_entries);
                    log_valid_len = Some(valid_len);
                }
                // A log for another generation (crash between manifest
                // update and log reset) or an incompatible header: its
                // content is already in the snapshot or untrustworthy.
                _ => {
                    let _ = fs::remove_file(&log_path);
                }
            }
        }

        // Open the log for append, creating it (with a header) if needed.
        let log_records = entries.len() as u64;
        let (file, bytes) = match log_valid_len {
            Some(valid) => {
                let f = OpenOptions::new().append(true).open(&log_path)?;
                f.set_len(valid)?;
                (f, valid)
            }
            None => {
                let header = file_header(model_fp, gen);
                write_atomic(dir, &log_path, &header)?;
                (OpenOptions::new().append(true).open(&log_path)?, HEADER_LEN)
            }
        };

        // Always leave a valid manifest behind, so the next process can
        // trust (or reject) the directory without guessing.
        write_atomic(
            dir,
            &dir.join(MANIFEST_FILE),
            manifest_text(model_fp, gen).as_bytes(),
        )?;
        cleanup_stale(dir, gen);

        let snapshot_bytes = if gen > 0 {
            fs::metadata(dir.join(snapshot_file(gen)))
                .map(|m| m.len())
                .unwrap_or(0)
        } else {
            0
        };
        let p = Persistence {
            dir: dir.to_path_buf(),
            model_fp,
            compact_log_bytes,
            log: Mutex::new(LogFile { file, bytes }),
            snap: Mutex::new(()),
            gen: AtomicU64::new(gen),
            log_records: AtomicU64::new(log_records),
            snapshot_bytes: AtomicU64::new(snapshot_bytes),
            compactions: AtomicU64::new(0),
        };
        Ok((
            p,
            Recovered {
                entries,
                truncated,
                rebuilt,
            },
        ))
    }

    /// Append one encoded record payload to the novelty log.
    pub(crate) fn append(&self, payload: &[u8]) -> std::io::Result<()> {
        let framed = frame(payload);
        let mut log = lock(&self.log);
        log.file.write_all(&framed)?;
        log.bytes += framed.len() as u64;
        self.log_records.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// True when the log has outgrown the compaction threshold and the
    /// store should write a snapshot.
    pub(crate) fn wants_compact(&self) -> bool {
        self.log_bytes() > self.compact_log_bytes
    }

    /// Write a compacted snapshot of `payloads` (pre-encoded records),
    /// atomically advance the manifest, and reset the log. The caller
    /// holds the entry-map lock, so the payload set is a consistent view.
    pub(crate) fn write_snapshot(&self, payloads: &[Vec<u8>]) -> std::io::Result<()> {
        let _guard = lock(&self.snap);
        let old_gen = self.gen.load(Ordering::Relaxed);
        let next = old_gen + 1;

        // 1. Snapshot file: temp + fsync + rename + dir fsync.
        let mut body = file_header(self.model_fp, next);
        for p in payloads {
            body.extend_from_slice(&frame(p));
        }
        let snap_path = self.dir.join(snapshot_file(next));
        write_atomic(&self.dir, &snap_path, &body)?;

        // 2. Manifest: after this rename, recovery reads the new snapshot.
        write_atomic(
            &self.dir,
            &self.dir.join(MANIFEST_FILE),
            manifest_text(self.model_fp, next).as_bytes(),
        )?;

        // 3. Fresh log for the new generation, swapped under the log
        // lock so in-flight appends land either in the old log (whose
        // records the snapshot already covers) or the new one.
        {
            let mut log = lock(&self.log);
            write_atomic(
                &self.dir,
                &self.dir.join(LOG_FILE),
                &file_header(self.model_fp, next),
            )?;
            log.file = OpenOptions::new()
                .append(true)
                .open(self.dir.join(LOG_FILE))?;
            log.bytes = HEADER_LEN;
        }
        self.log_records.store(0, Ordering::Relaxed);

        // 4. The old snapshot is now unreachable from the manifest.
        if old_gen > 0 {
            let _ = fs::remove_file(self.dir.join(snapshot_file(old_gen)));
        }
        self.gen.store(next, Ordering::Relaxed);
        self.snapshot_bytes
            .store(body.len() as u64, Ordering::Relaxed);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flush buffered log appends to the OS and fsync the log file.
    pub(crate) fn sync(&self) -> std::io::Result<()> {
        let log = lock(&self.log);
        log.file.sync_all()
    }

    /// Store directory path.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current novelty-log size in bytes (header included).
    pub(crate) fn log_bytes(&self) -> u64 {
        lock(&self.log).bytes
    }

    /// Size in bytes of the current snapshot (0 before the first one).
    pub(crate) fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes.load(Ordering::Relaxed)
    }

    /// Compactions (snapshot writes) performed by this process.
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }
}

/// Remove temp files and snapshots other than the current generation —
/// debris from crashes between protocol steps.
fn cleanup_stale(dir: &Path, gen: u64) {
    let keep = snapshot_file(gen);
    if let Ok(rd) = fs::read_dir(dir) {
        for entry in rd.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let stale_snapshot =
                name.starts_with("snapshot-") && name.ends_with(".briq") && *name != *keep;
            if stale_snapshot || name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::super::{AlignmentStore, StoreOptions};
    use super::*;
    use crate::error::Budget;
    use crate::pipeline::{AlignOptions, AlignOutput, Briq, BriqConfig};
    use briq_table::{Document, Table};
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A unique scratch directory, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("briq-persist-{tag}-{}-{n}", std::process::id()));
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

    fn briq() -> Briq {
        Briq::untrained(BriqConfig::default())
    }

    fn persistent(briq: &Briq, dir: &Path) -> AlignmentStore {
        AlignmentStore::with_options(
            briq,
            &StoreOptions {
                dir: Some(dir.to_path_buf()),
                ..StoreOptions::default()
            },
        )
        .expect("open persistent store")
    }

    fn docs() -> Vec<Document> {
        vec![
            Document::new(
                0,
                "Overall, a total of 123 patients reported side effects. \
                 Depression was reported by 38 patients.",
                vec![Table::from_grid(
                    "",
                    vec![
                        vec!["side effects".into(), "patients".into()],
                        vec!["Rash".into(), "35".into()],
                        vec!["Depression".into(), "38".into()],
                    ],
                )],
            ),
            Document::new(
                1,
                "Revenue grew to $12.5 million in 2018, up from $9.1 million.",
                vec![Table::from_grid(
                    "Revenue",
                    vec![
                        vec!["year".into(), "revenue".into()],
                        vec!["2017".into(), "$9.1M".into()],
                        vec!["2018".into(), "$12.5M".into()],
                    ],
                )],
            ),
        ]
    }

    /// Align `docs` through `store` and return every output surface
    /// (timings zeroed, so whole outputs compare).
    fn align_all(briq: &Briq, store: &AlignmentStore, docs: &[Document]) -> Vec<AlignOutput> {
        docs.iter()
            .enumerate()
            .map(|(i, d)| {
                let opts = AlignOptions {
                    budget: Budget::default(),
                    store: Some((store, i as u64)),
                    ..AlignOptions::default()
                };
                AlignOutput {
                    timings: Default::default(),
                    ..briq.align_with(d, &opts)
                }
            })
            .collect()
    }

    #[test]
    fn restart_recovers_from_log_alone() {
        let briq = briq();
        let dir = TempDir::new("log-only");
        let docs = docs();
        let cold = {
            let store = persistent(&briq, dir.path());
            let out = align_all(&briq, &store, &docs);
            assert_eq!(store.len(), docs.len());
            // No snapshot was ever written: recovery must come from the
            // novelty log alone (the SIGKILL-without-drain case).
            assert_eq!(store.snapshot_bytes(), 0);
            out
        };
        let store = persistent(&briq, dir.path());
        assert_eq!(store.recovered_entries(), docs.len() as u64);
        let warm = align_all(&briq, &store, &docs);
        assert_eq!(store.hits(), docs.len() as u64, "restart must serve warm");
        assert_eq!(cold, warm, "recovered output must be bit-identical");
    }

    #[test]
    fn restart_recovers_from_snapshot_plus_log() {
        let briq = briq();
        let dir = TempDir::new("snap-log");
        let docs = docs();
        let cold = {
            let store = persistent(&briq, dir.path());
            let out = align_all(&briq, &store, &docs[..1]);
            store.snapshot().expect("snapshot");
            assert!(store.snapshot_bytes() > 0);
            // One more document lands in the post-snapshot log.
            let mut out2 = align_all(&briq, &store, &docs);
            assert_eq!(out2.remove(0), out[0]);
            (out, out2)
        };
        let store = persistent(&briq, dir.path());
        assert_eq!(store.recovered_entries(), docs.len() as u64);
        let warm = align_all(&briq, &store, &docs);
        assert_eq!(store.hits(), docs.len() as u64);
        assert_eq!(warm[0], cold.0[0]);
        assert_eq!(warm[1], cold.1[0]);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let briq = briq();
        let dir = TempDir::new("torn");
        let docs = docs();
        {
            let store = persistent(&briq, dir.path());
            align_all(&briq, &store, &docs);
        }
        // Tear the last record: chop bytes off the log tail, simulating
        // a crash mid-write.
        let log = dir.path().join(LOG_FILE);
        let bytes = fs::read(&log).expect("read log");
        fs::write(&log, &bytes[..bytes.len() - 7]).expect("tear log");

        let store = persistent(&briq, dir.path());
        assert_eq!(
            store.recovered_entries(),
            docs.len() as u64 - 1,
            "the torn record is dropped, the prefix survives"
        );
        // The torn document recomputes cold; output is still identical
        // to a fresh run, and the log accepts new appends after the tear.
        let briq2 = briq;
        let warm = align_all(&briq2, &store, &docs);
        let oracle_store = AlignmentStore::for_system(&briq2);
        let oracle = align_all(&briq2, &oracle_store, &docs);
        assert_eq!(warm, oracle);
        let store2 = persistent(&briq2, dir.path());
        assert_eq!(store2.recovered_entries(), docs.len() as u64);
    }

    #[test]
    fn corrupt_mid_log_byte_keeps_valid_prefix() {
        let briq = briq();
        let dir = TempDir::new("flip");
        let docs = docs();
        {
            let store = persistent(&briq, dir.path());
            align_all(&briq, &store, &docs);
        }
        let log = dir.path().join(LOG_FILE);
        let mut bytes = fs::read(&log).expect("read log");
        // Flip one byte inside the *second* record's payload: checksum
        // catches it, the first record survives.
        let second_start = {
            let after_header = &bytes[HEADER_LEN as usize..];
            let len = u32::from_le_bytes(after_header[..4].try_into().unwrap()) as usize;
            HEADER_LEN as usize + FRAME_HEADER_LEN + len
        };
        bytes[second_start + FRAME_HEADER_LEN + 20] ^= 0xFF;
        fs::write(&log, &bytes).expect("corrupt log");

        let store = persistent(&briq, dir.path());
        assert_eq!(store.recovered_entries(), 1);
        let warm = align_all(&briq, &store, &docs);
        let oracle_store = AlignmentStore::for_system(&briq);
        assert_eq!(warm, align_all(&briq, &oracle_store, &docs));
    }

    #[test]
    fn version_mismatch_rebuilds_instead_of_trusting() {
        let briq = briq();
        let dir = TempDir::new("version");
        {
            let store = persistent(&briq, dir.path());
            align_all(&briq, &store, &docs());
            store.snapshot().expect("snapshot");
        }
        // Rewrite the manifest to a future format version.
        let manifest = dir.path().join(MANIFEST_FILE);
        let text = fs::read_to_string(&manifest).expect("read manifest");
        fs::write(
            &manifest,
            text.replace("format_version 1", "format_version 999"),
        )
        .expect("rewrite manifest");

        let store = persistent(&briq, dir.path());
        assert_eq!(store.recovered_entries(), 0, "incompatible data is rebuilt");
        assert!(
            !dir.path().join(snapshot_file(1)).exists(),
            "stale snapshot wiped"
        );
        // The rebuilt directory works normally again.
        align_all(&briq, &store, &docs());
        let store2 = persistent(&briq, dir.path());
        assert_eq!(store2.recovered_entries(), 2);
    }

    #[test]
    fn model_change_invalidates_directory() {
        let dir = TempDir::new("model");
        let briq_a = briq();
        {
            let store = persistent(&briq_a, dir.path());
            align_all(&briq_a, &store, &docs());
        }
        let mut cfg = BriqConfig::default();
        cfg.filter.k_exact += 1; // any config change flips the model fp
        let briq_b = Briq::untrained(cfg);
        let store = persistent(&briq_b, dir.path());
        assert_eq!(
            store.recovered_entries(),
            0,
            "a retrained/reconfigured model must not trust old artifacts"
        );
    }

    #[test]
    fn foreign_file_is_not_trusted() {
        let dir = TempDir::new("foreign");
        fs::write(dir.path().join(MANIFEST_FILE), "some other tool\n").expect("write foreign");
        fs::write(dir.path().join(LOG_FILE), b"not a briq log at all").expect("write foreign");
        let briq = briq();
        let store = persistent(&briq, dir.path());
        assert_eq!(store.recovered_entries(), 0);
        // And the directory is usable afterwards.
        align_all(&briq, &store, &docs());
        let store2 = persistent(&briq, dir.path());
        assert_eq!(store2.recovered_entries(), 2);
    }

    #[test]
    fn compaction_resets_log_and_survives_restart() {
        let briq = briq();
        let dir = TempDir::new("compact");
        let docs = docs();
        {
            // A 1-byte compaction threshold: every append triggers one.
            let store = AlignmentStore::with_options(
                &briq,
                &StoreOptions {
                    dir: Some(dir.path().to_path_buf()),
                    compact_log_bytes: 1,
                    ..StoreOptions::default()
                },
            )
            .expect("open");
            align_all(&briq, &store, &docs);
            assert!(store.compactions() >= 2);
            assert_eq!(store.log_bytes(), HEADER_LEN, "log reset after compaction");
            assert!(store.snapshot_bytes() > 0);
        }
        let store = persistent(&briq, dir.path());
        assert_eq!(store.recovered_entries(), docs.len() as u64);
        align_all(&briq, &store, &docs);
        assert_eq!(store.hits(), docs.len() as u64);
    }

    // -- proptest round-trip ------------------------------------------------

    /// Strategy for strings that stress the codec: unicode, embedded
    /// NULs, quote/backslash soup, empty.
    fn any_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u32..0x110000, 0..12).prop_map(|cs| {
            cs.into_iter()
                .filter_map(char::from_u32)
                .collect::<String>()
        })
    }

    /// Any f64 bit pattern: negative zero, NaN payloads, infinities,
    /// subnormals — bit identity must hold for all of them.
    fn any_f64() -> impl Strategy<Value = f64> {
        (0u64..=u64::MAX).prop_map(f64::from_bits)
    }

    fn any_unit() -> impl Strategy<Value = Unit> {
        (0u8..5, 0u8..7, 0u8..6).prop_map(|(t, c, m)| match t {
            0 => Unit::Currency(match c {
                0 => Currency::Usd,
                1 => Currency::Eur,
                2 => Currency::Gbp,
                3 => Currency::Cad,
                4 => Currency::Inr,
                5 => Currency::Jpy,
                _ => Currency::Other,
            }),
            1 => Unit::Percent,
            2 => Unit::BasisPoints,
            3 => Unit::Measure(match m {
                0 => Measure::Mpge,
                1 => Measure::GramsPerKm,
                2 => Measure::KWh,
                3 => Measure::Mg,
                4 => Measure::Km,
                _ => Measure::Count,
            }),
            _ => Unit::None,
        })
    }

    fn any_artifact() -> impl Strategy<Value = MentionArtifact> {
        (
            (0u64..=u64::MAX),
            proptest::collection::vec((0usize..4096, any_f64()), 0..8),
            proptest::collection::vec((any_string(), 0usize..1000), 0..4),
        )
            .prop_map(|(fp, cands, counts)| MentionArtifact {
                fp,
                candidates: cands
                    .into_iter()
                    .map(|(target, score)| Candidate { target, score })
                    .collect(),
                stats: FilterStats {
                    total: counts.iter().cloned().collect(),
                    kept: counts.into_iter().map(|(k, v)| (k, v / 2)).collect(),
                },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// encode → decode is the identity on arbitrary artifact sets —
        /// checked in byte space (decode then re-encode reproduces the
        /// exact payload) and on the artifact values themselves.
        #[test]
        fn record_roundtrip_is_identity(
            key in (0u64..=u64::MAX),
            fps in proptest::collection::vec(0u64..=u64::MAX, 0..4),
            artifacts in proptest::collection::vec(any_artifact(), 0..6),
            raw in any_string(),
            value in any_f64(),
            unit in any_unit(),
            scope in any_string(),
        ) {
            let quantity = QuantityMention {
                raw: raw.clone(),
                value,
                unnormalized: value,
                unit,
                precision: 3,
                approx: ApproxIndicator::Approximate,
                start: 7,
                end: 7 + raw.len(),
            };
            let target = TableMention {
                table: 1,
                kind: TableMentionKind::Aggregate(AggregationKind::Sum),
                cells: vec![(0, 1), (2, 3)],
                value,
                unnormalized: value,
                raw: raw.clone(),
                unit,
                precision: 2,
                orientation: Some(Orientation::Row(4)),
            };
            let mut entry = DocEntry {
                config_fp: key.rotate_left(17),
                text_fp: key.rotate_left(31),
                aggregate_fp: key.rotate_left(43),
                table_fps: fps,
                text_mentions: vec![TextMention { id: 0, quantity: quantity.clone() }],
                text_ctx: DocContext {
                    tokens: vec![Token {
                        text: raw.clone(),
                        start: 0,
                        end: raw.len(),
                        kind: TokenKind::Number,
                    }],
                    paragraph_words: [raw.clone()].into_iter().collect(),
                    paragraph_word_list: vec![raw.clone(), scope.clone()],
                    paragraph_phrases: [scope.clone()].into_iter().collect(),
                    tables: Vec::new(),
                    mentions: vec![MentionContext {
                        local_weights: [(raw.clone(), value)].into_iter().collect(),
                        sentence_phrases: [scope.clone()].into_iter().collect(),
                        immediate_words: vec![raw.clone()],
                        sentence_words: vec![scope.clone()],
                        inferred_aggregation: Some(AggregationKind::ChangeRatio),
                        token_index: 5,
                    }],
                },
                table_contexts: vec![TableContext {
                    row_words: vec![[raw.clone()].into_iter().collect()],
                    col_words: vec![[scope.clone()].into_iter().collect()],
                    table_words: [raw.clone(), scope.clone()].into_iter().collect(),
                    row_phrases: vec![Default::default()],
                    col_phrases: vec![[raw.clone()].into_iter().collect()],
                    table_phrases: Default::default(),
                }],
                targets: vec![target.clone()],
                extract_diags: Diagnostics {
                    items: vec![Diagnostic {
                        stage: Stage::VirtualCells,
                        scope: scope.clone(),
                        error: raw.clone(),
                        action: DegradedAction::Truncated,
                    }],
                },
                artifacts,
                alignments: vec![Alignment {
                    mention_start: 7,
                    mention_end: 9,
                    mention_raw: raw,
                    target,
                    score: value,
                }],
                diagnostics: Diagnostics::default(),
                stats: FilterStats::default(),
                approx_bytes: 0,
                last_used: 0,
            };
            entry.approx_bytes = entry.estimate_bytes();

            let payload = encode_record(key, &entry);
            let (key2, decoded) = decode_record(&payload).expect("decode");
            prop_assert_eq!(key, key2);
            // Byte-space identity: re-encoding the decoded entry must
            // reproduce the payload exactly.
            prop_assert_eq!(encode_record(key2, &decoded), payload);
            // Spot-check value-space identity on the surfaces that carry
            // floats (bit equality, so NaN payloads count too).
            prop_assert_eq!(decoded.alignments.len(), entry.alignments.len());
            prop_assert_eq!(
                decoded.alignments[0].score.to_bits(),
                entry.alignments[0].score.to_bits()
            );
            prop_assert_eq!(decoded.artifacts.len(), entry.artifacts.len());
            for (a, b) in decoded.artifacts.iter().zip(&entry.artifacts) {
                prop_assert_eq!(a.fp, b.fp);
                prop_assert_eq!(a.candidates.len(), b.candidates.len());
                for (x, y) in a.candidates.iter().zip(&b.candidates) {
                    prop_assert_eq!(x.target, y.target);
                    prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                }
                prop_assert_eq!(&a.stats, &b.stats);
            }
            prop_assert_eq!(decoded.approx_bytes, entry.approx_bytes);
        }

        /// Truncating a valid record stream at ANY byte offset recovers
        /// the longest valid prefix and never errors.
        #[test]
        fn any_truncation_point_recovers_prefix(cut_frac in 0.0f64..1.0) {
            let briq = Briq::untrained(BriqConfig::default());
            let entry_docs = docs();
            let mut stream = file_header(1234, 0);
            let store = AlignmentStore::for_system(&briq);
            align_all(&briq, &store, &entry_docs);
            let payloads = store.encoded_entries();
            for p in &payloads {
                stream.extend_from_slice(&frame(p));
            }
            let cut = HEADER_LEN as usize
                + ((stream.len() - HEADER_LEN as usize) as f64 * cut_frac) as usize;
            let (entries, valid_len, torn) = read_frames(&stream[..cut], HEADER_LEN as usize);
            prop_assert!(valid_len as usize <= cut);
            prop_assert!(entries.len() <= payloads.len());
            prop_assert_eq!(torn, valid_len as usize != cut);
            // The recovered prefix re-encodes to the stream prefix.
            let mut replay = Vec::new();
            for (k, e) in &entries {
                replay.extend_from_slice(&frame(&encode_record(*k, e)));
            }
            prop_assert_eq!(&stream[HEADER_LEN as usize..valid_len as usize], &replay[..]);
        }
    }
}
