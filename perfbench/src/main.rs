//! End-to-end and per-layer benchmark of the trained BriQ system.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-trained|serve-open|realign-edit> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed`; the
//! run measures for `--seconds`, checks the program's outputs, and
//! prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/workloads.json` for what each workload
//! measures and why.

mod batch;
mod metrics;
mod prep;
mod procfs;
mod realign;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Values;
use trace::Tracer;

/// Everything a workload needs.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Span recorder (on with `--trace 1`).
    pub tracer: Tracer,
    /// Cores available; batch jobs and generator threads use this many.
    pub nproc: usize,
    /// Working directory for this run, removed at the end.
    pub work: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (documents aligned or requests sent).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Description of every failed check.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Values,
    /// Per-layer metrics.
    pub layers: Values,
}

impl Outcome {
    /// Nothing attempted yet; every per-layer metric at zero.
    pub fn new() -> Outcome {
        Outcome {
            layers: metrics::zero_layers(),
            ..Outcome::default()
        }
    }

    /// Record a failed check covering `ops` operations.
    pub fn fail(&mut self, ops: u64, problem: String) {
        self.failed += ops;
        self.problems.push(problem);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let args = Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed: not a whole number")?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|_| "--seconds: not a number")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other}")),
        },
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // The program reads these escape hatches at run time; the benchmark
    // measures the default configuration only.
    for var in ["BRIQ_NO_STORE", "BRIQ_NO_INDEX"] {
        std::env::remove_var(var);
    }
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work,
    };
    let run = match args.workload.as_str() {
        "batch-trained" => batch::run(&ctx),
        "serve-open" => serve::run(&ctx),
        "realign-edit" => realign::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            let _ = std::fs::remove_dir_all(&ctx.work);
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(".bench_work"); // only if no other run uses it
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    match procfs::peak_rss_bytes() {
        Some(b) => {
            out.e2e
                .insert("peak_rss_mb".into(), b as f64 / (1024.0 * 1024.0));
        }
        None => eprintln!("perfbench: /proc/self/status unreadable; peak_rss_mb missing"),
    }
    if args.trace {
        if let Err(e) = write_spans(&ctx, &args) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    if out.attempted == 0 {
        out.problems.push("no operation was attempted".into());
    }
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let declared = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let values = if args.trace { &out.layers } else { &out.e2e };
    println!("{}", result_line(&out, declared, values));
    ExitCode::SUCCESS
}

fn write_spans(ctx: &Ctx, args: &Args) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/spans-{}-seed{}.jsonl", args.workload, args.seed);
    std::fs::write(&path, ctx.tracer.to_jsonl())?;
    eprintln!("perfbench: spans written to {path}");
    Ok(())
}

/// The result object. A declared metric without a finite value is left
/// out (missing) and named on standard error.
fn result_line(out: &Outcome, declared: &[(&str, &str)], values: &Values) -> String {
    let mut fields = Vec::new();
    for (name, unit) in declared {
        match values.get(*name).filter(|v| v.is_finite()) {
            Some(v) => fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")),
            None => eprintln!("perfbench: metric {name} missing"),
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        fields.join(",")
    )
}

/// Median latency of the workload's operations (seconds) as the
/// end-to-end `latency_p50_ms`; their tail — the highest percentile with
/// ten samples beyond it — as the per-layer `latency.tail_ms`, too noisy
/// between runs on a shared two-core host to gate on.
pub fn latency_metrics(out: &mut Outcome, op_s: &[f64]) {
    if let Some(m) = stats::median(op_s) {
        out.e2e.insert("latency_p50_ms".into(), m * 1e3);
    }
    match stats::tail(op_s) {
        Some(t) => {
            eprintln!(
                "perfbench: latency p50 {:.2} ms; tail p{:.1} of {} samples ({} beyond) {:.2} ms",
                stats::median(op_s).unwrap_or(f64::NAN) * 1e3,
                t.percentile,
                t.samples,
                t.beyond,
                t.value * 1e3
            );
            out.layers.insert("latency.tail_ms".into(), t.value * 1e3);
        }
        None => {
            out.layers.remove("latency.tail_ms");
            eprintln!(
                "perfbench: {} samples are too few for a tail percentile",
                op_s.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = briq_json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|x| x.as_str())
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |d: &[(&str, &str)]| -> Vec<(String, String)> {
            d.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(metrics::END_TO_END));
        assert_eq!(listed("per_layer"), own(metrics::PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(|a| a.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|x| x.as_str())
                    .expect("workload name")
            })
            .collect();
        assert_eq!(workloads, ["batch-trained", "serve-open", "realign-edit"]);
    }

    #[test]
    fn result_line_leaves_out_missing_values() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.e2e.insert("setup_s".into(), 0.5);
        out.e2e.insert("f1".into(), f64::NAN);
        let line = result_line(&out, &[("setup_s", "s"), ("f1", "ratio")], &out.e2e);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
