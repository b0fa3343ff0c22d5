//! The `catalog_cold` and `catalog_warm` workloads: `run_batch` over all 13
//! builtins, against a fresh cache (the write side of the unit cache) or a
//! cache filled during set-up (the read side).

use crate::{stats, Ctx, Report};
use pim_harness::cache::{ensure_writable_dir, CacheCounts, UnitCache};
use pim_harness::exec::UnitPool;
use pim_harness::golden::{diff_json, Tolerance};
use pim_harness::registry::Registry;
use pim_harness::runner::{run_batch, write_artifacts, BatchOptions};
use pim_harness::scenario::SeedPolicy;
use pim_harness::DEFAULT_SEED;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where the committed golden artifacts live, relative to the repository root.
const GOLDEN_DIR: &str = "crates/pim-harness/tests/golden";

/// Passes a timed phase runs at least, however long they take.
const MIN_PASSES: usize = 3;
/// Cold fills `catalog_warm` sets up per run; `setup_s` is their median.
const WARM_FILLS: usize = 3;
/// Set-ups (catalog plus one warm-up pass) `catalog_cold` times per run;
/// `setup_s` is their median.
const COLD_SETUPS: usize = 2;
/// Passes of the traced phases.
const TRACED_COLD_PASSES: usize = 2;
const TRACED_WARM_PASSES: usize = 200;
/// Consecutive warm passes per throughput chunk (about a quarter second).
const WARM_CHUNK: usize = 20;

/// One scenario artifact, by file name.
type Artifacts = Vec<(String, Vec<u8>)>;

/// The catalog as a batch sees it: every builtin name and the total unit count.
pub struct Catalog {
    pub registry: Registry,
    pub names: Vec<String>,
    pub units: u64,
    pub seeds: SeedPolicy,
}

impl Catalog {
    pub fn new(seed: u64) -> Catalog {
        let registry = Registry::builtin();
        let seeds = SeedPolicy::new(seed);
        let names: Vec<String> = registry.names().iter().map(|n| n.to_string()).collect();
        let units = registry
            .iter()
            .map(|s| s.plan(&seeds).unit_count() as u64)
            .sum();
        Catalog {
            registry,
            names,
            units,
            seeds,
        }
    }

    fn options(&self, jobs: usize, cache: &Path, out: &Path) -> BatchOptions {
        BatchOptions {
            jobs,
            seeds: self.seeds,
            out_dir: Some(out.to_path_buf()),
            cache_dir: Some(cache.to_path_buf()),
            shard: None,
        }
    }
}

fn total(counts: &[CacheCounts]) -> CacheCounts {
    counts
        .iter()
        .fold(CacheCounts::default(), |a, c| CacheCounts {
            hits: a.hits + c.hits,
            misses: a.misses + c.misses,
            recomputed: a.recomputed + c.recomputed,
        })
}

/// Read the 13 scenario artifacts (not the manifest) a pass wrote.
fn read_artifacts(catalog: &Catalog, out: &Path) -> Result<Artifacts, String> {
    catalog
        .names
        .iter()
        .map(|name| {
            let file = format!("{name}.json");
            let path = out.join(&file);
            std::fs::read(&path)
                .map(|bytes| (file, bytes))
                .map_err(|e| format!("read {}: {e}", path.display()))
        })
        .collect()
}

/// Diff artifacts against every committed golden of a builtin. Only meaningful
/// at the default seed, which the goldens pin.
fn golden_diffs(artifacts: &Artifacts) -> Result<Vec<String>, String> {
    let tol = Tolerance {
        rtol: 1e-6,
        atol: 1e-9,
    };
    let mut diffs = Vec::new();
    let mut compared = 0;
    for (file, bytes) in artifacts {
        let golden = Path::new(GOLDEN_DIR).join(file);
        let Ok(expected) = std::fs::read_to_string(&golden) else {
            continue;
        };
        compared += 1;
        let expected = serde_json::value_from_str(&expected)
            .map_err(|e| format!("parse {}: {e}", golden.display()))?;
        let actual = std::str::from_utf8(bytes)
            .ok()
            .and_then(|t| serde_json::value_from_str(t).ok())
            .ok_or_else(|| format!("artifact {file} is not JSON"))?;
        diffs.extend(
            diff_json(&expected, &actual, tol)
                .into_iter()
                .map(|d| format!("{file} vs golden: {d}")),
        );
    }
    if compared == 0 {
        return Err(format!("no golden artifacts found under {GOLDEN_DIR}"));
    }
    Ok(diffs)
}

/// The output checks every pass shares: its cache accounting, and its
/// artifacts byte-identical to the reference (or, for the first pass, to the
/// goldens at the default seed). Returns the pass's artifacts.
#[allow(clippy::too_many_arguments)]
fn check_pass(
    ctx: &Ctx,
    report: &mut Report,
    catalog: &Catalog,
    what: &str,
    counts: CacheCounts,
    expected: CacheCounts,
    out: &Path,
    reference: Option<&Artifacts>,
) -> Result<Artifacts, String> {
    let artifacts = read_artifacts(catalog, out)?;
    let mut bad = Vec::new();
    if counts != expected {
        bad.push(format!("cache counts {counts:?}, expected {expected:?}"));
    }
    match reference {
        Some(reference) => {
            for ((file, bytes), (_, want)) in artifacts.iter().zip(reference) {
                if bytes != want {
                    bad.push(format!("{file} differs from the cold artifact"));
                }
            }
        }
        None if ctx.seed == DEFAULT_SEED => bad.extend(golden_diffs(&artifacts)?),
        None => {}
    }
    if !bad.is_empty() {
        report.fail(format!("{what}: {}", bad.join("; ")));
    }
    Ok(artifacts)
}

fn cold_counts(catalog: &Catalog) -> CacheCounts {
    CacheCounts {
        hits: 0,
        misses: catalog.units,
        recomputed: 0,
    }
}

fn warm_counts(catalog: &Catalog) -> CacheCounts {
    CacheCounts {
        hits: catalog.units,
        misses: 0,
        recomputed: 0,
    }
}

/// One timed `run_batch`. Returns wall seconds and the summed cache counts.
fn timed_batch(
    ctx: &Ctx,
    catalog: &Catalog,
    cache: &Path,
    out: &Path,
) -> Result<(f64, CacheCounts), String> {
    let opts = catalog.options(ctx.jobs, cache, out);
    let start = Instant::now();
    let outcome = run_batch(&catalog.registry, &catalog.names, &opts)?;
    let wall = start.elapsed().as_secs_f64();
    Ok((wall, total(&outcome.cache_counts)))
}

/// One checked cold pass into fresh directories (kept until the run ends, so
/// no deletion runs inside a later timed pass). Returns its wall, ms.
fn cold_pass(
    ctx: &Ctx,
    report: &mut Report,
    catalog: &Catalog,
    what: &str,
    reference: &mut Option<Artifacts>,
) -> Result<f64, String> {
    let pass = ctx.dir(what);
    let (cache, out) = (pass.join("cache"), pass.join("out"));
    report.attempted += 1;
    let (wall, counts) = timed_batch(ctx, catalog, &cache, &out)?;
    let expected = cold_counts(catalog);
    let artifacts = check_pass(
        ctx,
        report,
        catalog,
        what,
        counts,
        expected,
        &out,
        reference.as_ref(),
    )?;
    reference.get_or_insert(artifacts);
    Ok(wall * 1e3)
}

/// `catalog_cold`: every pass is a first `run --all --cache DIR` — fresh cache
/// and out directories, every unit computed and stored. Set-up builds the
/// catalog and runs one warm-up pass (timed as set-up), so lazy
/// initialization and first-touch allocation land in `setup_s`.
pub fn cold(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut reference: Option<Artifacts> = None;
    let mut catalog = None;
    for i in 0..COLD_SETUPS {
        let start = Instant::now();
        let c = Catalog::new(ctx.seed);
        cold_pass(ctx, report, &c, &format!("warm-up-{i}"), &mut reference)?;
        setups.push(start.elapsed().as_secs_f64());
        catalog = Some(c);
    }
    let catalog = catalog.expect("at least one set-up ran");

    let mut walls_ms = Vec::new();
    let started = Instant::now();
    while walls_ms.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        let what = format!("cold-{}", walls_ms.len() + 1);
        walls_ms.push(cold_pass(ctx, report, &catalog, &what, &mut reference)?);
    }
    let units_per_s =
        catalog.units as f64 * walls_ms.len() as f64 / walls_ms.iter().sum::<f64>() * 1e3;
    report.end_to_end(
        &format!("one cold {}-unit run_batch", catalog.units),
        &setups,
        &walls_ms,
        units_per_s,
    );
    Ok(())
}

/// A filled cache plus the cold artifacts it was filled with.
struct Filled {
    cache: PathBuf,
    artifacts: Artifacts,
}

/// Fill `WARM_FILLS` fresh caches with cold batches (timing each as set-up),
/// keep the last, and check every fill's artifacts.
fn fill(
    ctx: &Ctx,
    report: &mut Report,
    catalog: &Catalog,
    fills: usize,
) -> Result<(Filled, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut kept: Option<Filled> = None;
    for i in 0..fills {
        let dir = ctx.dir(&format!("fill-{i}"));
        let (cache, out) = (dir.join("cache"), dir.join("out"));
        let (wall, counts) = timed_batch(ctx, catalog, &cache, &out)?;
        setups.push(wall);
        let what = format!("cold fill {}", i + 1);
        report.attempted += 1;
        let reference = kept.as_ref().map(|k| &k.artifacts);
        let artifacts = check_pass(
            ctx,
            report,
            catalog,
            &what,
            counts,
            cold_counts(catalog),
            &out,
            reference,
        )?;
        if let Some(previous) = kept.replace(Filled { cache, artifacts }) {
            let _ = std::fs::remove_dir_all(previous.cache.parent().expect("cache has a parent"));
        }
    }
    Ok((kept.expect("at least one fill ran"), setups))
}

/// `catalog_warm`: every pass is a fresh `run_batch` (fresh pool) against the
/// cache filled in set-up, so every unit is a verified disk hit.
pub fn warm(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let catalog = Catalog::new(ctx.seed);
    let (filled, setups) = fill(ctx, report, &catalog, WARM_FILLS)?;
    let out = ctx.dir("warm-out");
    let mut walls_ms = Vec::new();
    let started = Instant::now();
    while walls_ms.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        report.attempted += 1;
        let (wall, counts) = timed_batch(ctx, &catalog, &filled.cache, &out)?;
        walls_ms.push(wall * 1e3);
        let what = format!("warm pass {}", walls_ms.len());
        check_pass(
            ctx,
            report,
            &catalog,
            &what,
            counts,
            warm_counts(&catalog),
            &out,
            Some(&filled.artifacts),
        )?;
    }
    // Units per second of each chunk of consecutive passes, and their median:
    // a pass lasts ~10 ms, so one stall of the shared host's disk or CPU would
    // otherwise move a run's mean.
    let rates: Vec<f64> = walls_ms
        .chunks(WARM_CHUNK)
        .map(|c| catalog.units as f64 * c.len() as f64 / c.iter().sum::<f64>() * 1e3)
        .collect();
    report.end_to_end(
        &format!("one warm {}-unit run_batch", catalog.units),
        &setups,
        &walls_ms,
        stats::median(&rates),
    );
    Ok(())
}

/// One pass decomposed into the public calls `run_batch` makes, each in a
/// span: plan the catalog, open the cache, run the plans on a fresh pool,
/// write the artifacts and manifest.
fn traced_pass(
    ctx: &Ctx,
    seeds: &SeedPolicy,
    cache_dir: &Path,
    out: &Path,
    pass: u64,
) -> Result<(f64, CacheCounts), String> {
    let t = &ctx.tracer;
    let root = t.reserve();
    let start = Instant::now();
    let registry = t.span("scenario.registry", root, pass, Registry::builtin);
    let plans = t.span("scenario.plan", root, pass, || {
        registry.iter().map(|s| s.plan(seeds)).collect::<Vec<_>>()
    });
    let cache = t.span("cache.open", root, pass, || {
        ensure_writable_dir(out)?;
        UnitCache::open(cache_dir)
    })?;
    let outcomes = t.span("exec.run_plans_cached", root, pass, || {
        UnitPool::new(ctx.jobs).run_plans_cached(plans, Some(&cache))
    })?;
    let (reports, counts): (Vec<_>, Vec<_>) =
        outcomes.into_iter().map(|o| (o.report, o.cache)).unzip();
    t.span("runner.write_artifacts", root, pass, || {
        write_artifacts(out, seeds, &reports, true, &counts)
    })?;
    let end = Instant::now();
    t.record_as(root, "catalog.pass", None, pass, start, end);
    Ok(((end - start).as_secs_f64(), total(&counts)))
}

/// The per-pass workload counts of a traced catalog phase.
fn pass_counts(report: &mut Report, catalog: &Catalog, counts: CacheCounts) {
    let looked_up = counts.hits + counts.misses + counts.recomputed;
    let computed = counts.misses + counts.recomputed;
    report.metric("cache.hits", counts.hits as f64, "count");
    report.metric("cache.misses", counts.misses as f64, "count");
    report.metric("cache.recomputed", counts.recomputed as f64, "count");
    report.metric(
        "cache.hit_ratio",
        counts.hits as f64 / looked_up.max(1) as f64,
        "ratio",
    );
    report.metric("exec.units_requested", catalog.units as f64, "count");
    report.metric("exec.units_computed", computed as f64, "count");
    // Every unit of a batch has its own digest: one computation per computed digest.
    report.metric(
        "exec.flight_dedup",
        if computed > 0 { 1.0 } else { 0.0 },
        "ratio",
    );
}

/// Run `passes` traced passes against `cache` (fresh per pass when `None`),
/// checking each like the untraced phase. Returns per-pass wall ms and the
/// last pass's counts.
#[allow(clippy::too_many_arguments)]
fn traced_passes(
    ctx: &Ctx,
    report: &mut Report,
    catalog: &Catalog,
    passes: usize,
    cache: Option<&Path>,
    expected: CacheCounts,
    reference: Option<&Artifacts>,
) -> Result<(Vec<f64>, CacheCounts), String> {
    let mut walls_ms = Vec::new();
    let mut last = CacheCounts::default();
    let mut first: Option<Artifacts> = None;
    for i in 0..passes {
        // Like the untraced phases: a cold pass gets fresh cache and out
        // directories, a warm pass overwrites one out directory.
        let dir = ctx.dir(&format!("traced-{i}"));
        let (cache_dir, out) = match cache {
            Some(cache) => (cache.to_path_buf(), ctx.dir("traced-out")),
            None => (dir.join("cache"), dir.join("out")),
        };
        report.attempted += 1;
        let (wall, counts) = traced_pass(ctx, &catalog.seeds, &cache_dir, &out, i as u64 + 1)?;
        walls_ms.push(wall * 1e3);
        last = counts;
        let what = format!("traced pass {}", i + 1);
        let artifacts = check_pass(
            ctx,
            report,
            catalog,
            &what,
            counts,
            expected,
            &out,
            reference.or(first.as_ref()),
        )?;
        first.get_or_insert(artifacts);
    }
    Ok((walls_ms, last))
}

fn traced_note(report: &mut Report, walls_ms: &[f64]) {
    let s = stats::summarize(walls_ms);
    report.note(format!(
        "traced phase: op_p50_ms {:.4} op_tail_ms {:.4} over {} passes (compare with the untraced run for the tracing overhead)",
        s.p50, s.tail.value, s.count
    ));
}

pub fn cold_traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let catalog = Catalog::new(ctx.seed);
    let (walls, counts) = traced_passes(
        ctx,
        report,
        &catalog,
        TRACED_COLD_PASSES,
        None,
        cold_counts(&catalog),
        None,
    )?;
    traced_note(report, &walls);
    pass_counts(report, &catalog, counts);
    crate::layers::idle_serve_metrics(report);
    Ok(())
}

pub fn warm_traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let catalog = Catalog::new(ctx.seed);
    let (filled, _) = fill(ctx, report, &catalog, 1)?;
    let (walls, counts) = traced_passes(
        ctx,
        report,
        &catalog,
        TRACED_WARM_PASSES,
        Some(&filled.cache),
        warm_counts(&catalog),
        Some(&filled.artifacts),
    )?;
    traced_note(report, &walls);
    pass_counts(report, &catalog, counts);
    crate::layers::idle_serve_metrics(report);
    Ok(())
}
