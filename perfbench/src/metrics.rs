//! Metric declarations (mirrored in `BENCHMARK.json`) and the per-layer
//! numbers read from the program's own batch counters.

use briq_core::batch::BatchReport;
use briq_core::obs::names;
use briq_core::{DegradedAction, Stage};
use std::collections::BTreeMap;

use crate::prep::{Corpus, Loaded};

/// End-to-end metrics, reported on every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("docs_per_s", "docs/s"),
    ("latency_p50_ms", "ms"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Offered rates of the `serve-open` workload, requests per second: a
/// quarter, a half and two thirds of the 128-tree server's closed-loop
/// capacity, and lighter still for the 8-tree model served here, so that
/// queueing does not amplify the host's own speed swings.
pub const RATES: [u32; 3] = [10, 20, 30];

/// Per-layer metrics, reported on every workload with tracing on.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("html.parse_s", "s"),
    ("html.bytes", "bytes"),
    ("segment.s", "s"),
    ("segment.docs", "count"),
    ("batch.extract_s", "s"),
    ("virtual_cells.targets", "count"),
    ("virtual_cells.truncated_tables", "count"),
    ("mention.count", "count"),
    ("batch.classify_s", "s"),
    ("retrieval.candidates", "count"),
    ("retrieval.pairs_dropped", "count"),
    ("retrieval.candidates_per_mention", "count"),
    ("scoring.pairs_scored", "count"),
    ("scoring.rows_deduped", "count"),
    ("scoring.pairs_pruned", "count"),
    ("scoring.rows_scored_bounded", "count"),
    ("scoring.useful_ratio", "ratio"),
    ("batch.filter_s", "s"),
    ("filtering.kept", "count"),
    ("filtering.selectivity", "ratio"),
    ("batch.resolve_s", "s"),
    ("resolution.rwr_walks", "count"),
    ("resolution.rwr_iterations", "count"),
    ("resolution.not_converged", "count"),
    ("resolution.csr_nnz", "count"),
    ("batch.wall_s", "s"),
    ("batch.utilization", "ratio"),
    ("batch.docs_per_s.environment", "docs/s"),
    ("batch.docs_per_s.finance", "docs/s"),
    ("batch.docs_per_s.health", "docs/s"),
    ("batch.docs_per_s.politics", "docs/s"),
    ("batch.docs_per_s.sports", "docs/s"),
    ("batch.docs_per_s.others", "docs/s"),
    ("store.lookups", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.invalidations", "count"),
    ("store.mentions_realigned", "count"),
    ("store.bytes_written", "bytes"),
    ("store.compactions", "count"),
    ("store.log_bytes", "bytes"),
    ("store.snapshot_bytes", "bytes"),
    ("store.snapshot_s", "s"),
    ("store.resident_bytes_peak", "bytes"),
    ("store.recover_s", "s"),
    ("store.recovered_entries", "count"),
    ("store.ingest_docs_per_s", "docs/s"),
    ("store.realign_docs_per_s", "docs/s"),
    ("store.disk_bytes_per_input_byte", "ratio"),
    ("json.model_parse_s", "s"),
    ("json.model_bytes", "bytes"),
    ("json.request_parse_s", "s"),
    ("json.response_write_s", "s"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.queue_depth_peak", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_misses", "count"),
    ("serve.sent", "count"),
    ("serve.ok", "count"),
    ("serve.cancelled", "count"),
    ("serve.failed", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.latency_p50_ms.r10", "ms"),
    ("serve.latency_p50_ms.r20", "ms"),
    ("serve.latency_p50_ms.r30", "ms"),
    ("serve.latency_tail_ms.r10", "ms"),
    ("serve.latency_tail_ms.r20", "ms"),
    ("serve.latency_tail_ms.r30", "ms"),
    ("serve.max_rate_rps", "1/s"),
    ("ml.train_s", "s"),
    ("latency.tail_ms", "ms"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Metric values of one run, by name.
pub type Values = BTreeMap<String, f64>;

/// Every per-layer metric at zero: a layer the workload never calls did
/// no work. Counters that could not be read are removed again by the
/// workload, so they show as missing rather than zero.
pub fn zero_layers() -> Values {
    PER_LAYER
        .iter()
        .map(|(n, _)| (n.to_string(), 0.0))
        .collect()
}

/// Per-operation means of the program's batch counters over `reports`
/// (traced batches), into `out`.
pub fn batch_layers(out: &mut Values, reports: &[&BatchReport]) {
    if reports.is_empty() {
        return;
    }
    let n = reports.len() as f64;
    let mut sum = |name: &str, v: f64| *out.entry(name.to_string()).or_default() += v / n;
    let mut kept = 0.0;
    let mut rows_scored = 0.0;
    let mut filtered = 0.0;
    let mut per_mention = (0.0, 0.0);
    for r in reports {
        let t = &r.stage_totals;
        let m = r.merged_metrics();
        sum("batch.extract_s", t.extract_s);
        sum("batch.classify_s", t.classify_s);
        sum("batch.filter_s", t.filter_s);
        sum("batch.resolve_s", t.resolve_s);
        sum("batch.wall_s", r.wall_s);
        sum("batch.utilization", r.mean_utilization());
        sum("virtual_cells.targets", m.counter(names::TARGETS) as f64);
        let truncated = r
            .combined_diagnostics()
            .items
            .iter()
            .filter(|d| d.stage == Stage::VirtualCells && d.action == DegradedAction::Truncated)
            .count();
        sum("virtual_cells.truncated_tables", truncated as f64);
        sum("mention.count", m.counter(names::MENTIONS) as f64);
        sum(
            "retrieval.candidates",
            m.counter(names::RETRIEVAL_CANDIDATES) as f64,
        );
        sum(
            "retrieval.pairs_dropped",
            m.counter(names::RETRIEVAL_PAIRS_DROPPED) as f64,
        );
        if let Some(h) = m.histogram(names::RETRIEVAL_CANDIDATES_PER_MENTION) {
            per_mention.0 += h.sum();
            per_mention.1 += h.count() as f64;
        }
        sum(
            "scoring.pairs_scored",
            m.counter(names::PAIRS_SCORED) as f64,
        );
        sum(
            "scoring.rows_deduped",
            m.counter(names::ROWS_DEDUPED) as f64,
        );
        sum(
            "scoring.pairs_pruned",
            m.counter(names::PAIRS_PRUNED) as f64,
        );
        sum(
            "scoring.rows_scored_bounded",
            m.counter(names::ROWS_SCORED_BOUNDED) as f64,
        );
        sum("filtering.kept", m.counter(names::CANDIDATES_KEPT) as f64);
        sum("resolution.rwr_walks", m.counter(names::RWR_WALKS) as f64);
        sum(
            "resolution.rwr_iterations",
            m.counter(names::RWR_MATVEC_ITERATIONS) as f64,
        );
        sum(
            "resolution.not_converged",
            m.counter(names::RWR_NOT_CONVERGED) as f64,
        );
        sum("resolution.csr_nnz", m.counter(names::CSR_NNZ) as f64);
        kept += m.counter(names::CANDIDATES_KEPT) as f64;
        rows_scored += (m.counter(names::ROWS_SCORED_EXHAUSTIVE)
            + m.counter(names::ROWS_SCORED_BOUNDED)) as f64;
        filtered += m
            .counters()
            .filter(|(k, _)| k.starts_with(names::FILTER_TOTAL_PREFIX))
            .map(|(_, v)| v as f64)
            .sum::<f64>();
    }
    out.insert("scoring.useful_ratio".into(), ratio(kept, rows_scored));
    out.insert("filtering.selectivity".into(), ratio(kept, filtered));
    out.insert(
        "retrieval.candidates_per_mention".into(),
        ratio(per_mention.0, per_mention.1),
    );
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Documents per busy second by domain (the shape of Table VIII): each
/// document's own align time, summed per domain of the generated
/// document it reproduces.
pub fn domain_rates(out: &mut Values, reports: &[(&BatchReport, &Loaded)], corpus: &Corpus) {
    let mut by_domain: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (r, loaded) in reports {
        for (doc, d) in loaded.docs.iter().zip(&r.documents) {
            if let Some(i) = corpus.generated(doc) {
                let e = by_domain.entry(corpus.domain(i).name()).or_default();
                e.0 += 1.0;
                e.1 += d.timings.total_s();
            }
        }
    }
    for (domain, (docs, busy)) in by_domain {
        out.insert(format!("batch.docs_per_s.{domain}"), ratio(docs, busy));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rate_has_its_latency_metrics() {
        for r in RATES {
            for kind in ["p50", "tail"] {
                let name = format!("serve.latency_{kind}_ms.r{r}");
                assert!(
                    PER_LAYER.iter().any(|(n, _)| *n == name),
                    "{name} not declared"
                );
            }
        }
    }
}
