//! The repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path benches/perfbench/Cargo.toml -- \
//!     --workload catalog_cold --seed 6037508 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics with tracing off;
//! `--trace 1` runs the workload's traced phase plus the per-layer probes and
//! reports every per-layer metric. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Detail (tail
//! percentiles, sample counts, span self times) goes to standard error, and a
//! traced run writes its spans to `benches/perfbench/out/`. See the README there.

mod catalog;
mod layers;
mod service;
mod stats;
mod trace;

use pim_harness::DEFAULT_SEED;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use trace::Tracer;

/// The benchmark's directory, relative to the repository root (the working
/// directory of every run).
const HOME: &str = "benches/perfbench";

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["catalog_cold", "catalog_warm", "serve_mixed"];

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Workload seed: the catalog base seed and the serve request mix.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    pub tracer: Tracer,
    /// `nproc`: batch `jobs`, server workers and jobs, generator threads.
    pub jobs: usize,
    /// Scratch directory for caches and artifacts, removed at exit.
    pub work: PathBuf,
}

impl Ctx {
    /// A fresh path under the scratch directory.
    pub fn dir(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// What one run reports: operation accounting, named metrics and detail.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check.
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Detail printed to stderr (tail percentiles, sample counts, ...).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Count one operation or check; a failure records `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The end-to-end metrics every workload shares, from its set-up samples,
    /// its timed-operation latencies and its throughput. The tail (the highest
    /// percentile with ten samples beyond it) is reported beside them, with
    /// its percentile and sample count, but not as a gated metric: on a shared
    /// two-core host it does not repeat within the largest allowed bound.
    pub fn end_to_end(&mut self, what: &str, setup_s: &[f64], op_ms: &[f64], ops_per_s: f64) {
        let setup = stats::summarize(setup_s);
        let ops = stats::summarize(op_ms);
        self.metric("setup_s", setup.p50, "s");
        self.metric("op_p50_ms", ops.p50, "ms");
        self.metric("ops_per_s", ops_per_s, "1/s");
        self.note(format!(
            "setup: median of {} set-ups; op = {what}: {} samples, p50 {:.4} ms, tail {:.4} ms at p{:.2}{}",
            setup.count,
            ops.count,
            ops.p50,
            ops.tail.value,
            ops.tail.percentile,
            if ops.tail.ranked {
                ""
            } else {
                " (fewer than 11 samples: the maximum)"
            }
        ));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got '{value}'"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got '{value}'"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got '{}'",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// The metric names `BENCHMARK.json` declares for this mode.
fn declared_metrics(trace: bool) -> Result<BTreeSet<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc =
        serde_json::value_from_str(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    match doc.get(key) {
        Some(serde::Value::Seq(entries)) => entries
            .iter()
            .map(|e| match e.get("name") {
                Some(serde::Value::Str(name)) => Ok(name.clone()),
                _ => Err(format!("BENCHMARK.json {key} entry without a name")),
            })
            .collect(),
        _ => Err(format!("BENCHMARK.json has no {key} list")),
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn result_line(report: &Report) -> Result<String, String> {
    let correct = report.failed == 0 && report.attempted > 0;
    let mut metrics = Vec::with_capacity(report.metrics.len());
    for (name, value, unit) in &report.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn run(args: Args) -> Result<String, String> {
    if !Path::new(HOME).join("Cargo.toml").is_file() {
        return Err(format!(
            "run from the repository root ({HOME}/Cargo.toml not found)"
        ));
    }
    let declared = declared_metrics(args.trace)?;
    let work = Path::new(HOME).join("work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let _cleanup = WorkDir(work.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        jobs: pim_harness::exec::resolve_jobs(0),
        work,
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {}",
        args.workload, ctx.seed, ctx.seconds, args.trace as u8, ctx.jobs
    );

    let mut report = Report::default();
    match (args.workload.as_str(), args.trace) {
        ("catalog_cold", false) => catalog::cold(&ctx, &mut report)?,
        ("catalog_warm", false) => catalog::warm(&ctx, &mut report)?,
        ("serve_mixed", false) => service::mixed(&ctx, &mut report)?,
        ("catalog_cold", true) => catalog::cold_traced(&ctx, &mut report)?,
        ("catalog_warm", true) => catalog::warm_traced(&ctx, &mut report)?,
        ("serve_mixed", true) => service::mixed_traced(&ctx, &mut report)?,
        _ => unreachable!("workload names were validated"),
    }
    if args.trace {
        layers::probe(&ctx, &mut report)?;
        write_trace(&ctx, &args.workload)?;
    } else {
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.metric("ok_ratio", ok, "ratio");
        report.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    }

    for line in &report.notes {
        eprintln!("  {line}");
    }
    for line in report.problems.iter().take(20) {
        eprintln!("  FAILED: {line}");
    }
    if report.problems.len() > 20 {
        eprintln!("  ... {} more failures", report.problems.len() - 20);
    }
    let emitted: BTreeSet<String> = report.metrics.iter().map(|m| m.0.clone()).collect();
    if emitted != declared || emitted.len() != report.metrics.len() {
        return Err(format!(
            "emitted metrics do not match BENCHMARK.json: missing {:?}, undeclared {:?}",
            declared.difference(&emitted).collect::<Vec<_>>(),
            emitted.difference(&declared).collect::<Vec<_>>()
        ));
    }
    result_line(&report)
}

/// Write the spans and the self-time table of a traced run.
fn write_trace(ctx: &Ctx, workload: &str) -> Result<(), String> {
    let dir = Path::new(HOME).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}-{}.json", ctx.seed));
    std::fs::write(&path, ctx.tracer.chrome_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("  spans written to {}", path.display());
    eprintln!(
        "  {:<34} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in ctx.tracer.self_times() {
        eprintln!(
            "  {name:<34} {:>8} {:>12.3} {:>12.3}",
            t.count, t.total_ms, t.self_ms
        );
    }
    Ok(())
}

fn main() {
    let outcome = parse_args().and_then(run);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("perfbench: error: {message}");
            std::process::exit(1);
        }
    }
}
