//! Per-layer probes of a traced run. Each probe times one layer through its
//! public functions, in a span named after the metric it reports, so the
//! run's self-time table and its metrics read the same numbers.
//!
//! The probes run on every workload's traced run; the workload's own traced
//! phase adds the counts that only that workload exercises.

use crate::catalog::Catalog;
use crate::service::{self, PoolSpec, Req, Server};
use crate::{stats, Ctx, Report};
use desim::event::{EventQueue, FifoBandQueue, ScheduledEvent};
use desim::prelude::*;
use pim_harness::cache::{CacheLookup, UnitCache, UnitKey};
use pim_harness::exec::{run_plan, UnitPool};
use pim_harness::registry::Registry;
use pim_harness::runner::{manifest_json, run_batch, write_artifacts, BatchOptions};
use pim_harness::scenario::SeedPolicy;
use pim_harness::spec::parse_spec;
use pim_parcels::prelude::{ParcelConfig, TestSystem};
use serde::Deserialize;
use std::path::Path;
use std::time::Instant;

/// Repetitions of the cheap probes (medians are reported).
const REPS: usize = 20;
/// Repetitions of the engine probes.
const ENGINE_REPS: usize = 5;
/// Round trips of the HTTP probes.
const HTTP_ROUND_TRIPS: usize = 300;
/// A per-scenario compute probe repeats until it has spent this long.
const COMPUTE_BUDGET_S: f64 = 0.2;

/// Time `f` `reps` times; median seconds and the last result.
fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        last = Some(f());
        samples.push(start.elapsed().as_secs_f64());
    }
    (stats::median(&samples), last.expect("reps > 0"))
}

pub fn probe(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let t = &ctx.tracer;
    t.span("probe.desim", None, 0, || desim_probes(report));
    let catalog = Catalog::new(ctx.seed);
    let compute_ms = t.span("probe.compute", None, 0, || {
        compute_probes(ctx, &catalog, report)
    });
    let warm_ms = t.span("probe.catalog", None, 0, || {
        catalog_probes(ctx, &catalog, compute_ms, report)
    })?;
    let pool = service::pool(ctx.seed)?;
    let spec_parts_us = t.span("probe.spec", None, 0, || spec_probes(ctx, &pool, report))?;
    t.span("probe.http", None, 0, || {
        http_probes(ctx, &pool, spec_parts_us, report)
    })?;
    report.note(format!("warm run_batch p50 {warm_ms:.4} ms"));
    Ok(())
}

/// Engine throughput on fixed inputs (the event counts are constants).
fn desim_probes(report: &mut Report) {
    let (secs, events) = median_of(ENGINE_REPS, || {
        let config = ParcelConfig {
            nodes: 16,
            parallelism: 16,
            latency_cycles: 1_000.0,
            remote_fraction: 0.4,
            horizon_cycles: 200_000.0,
            ..Default::default()
        };
        let mut sim = Simulation::new(TestSystem::new(config, 42));
        sim.set_horizon(SimTime::from_ns_f64(config.horizon_ns()));
        sim.init(|m, sched| m.start(sched));
        sim.run();
        sim.events_processed()
    });
    report.metric("desim.parcel_events_per_s", events as f64 / secs, "1/s");
    report.metric("desim.parcel_events", events as f64, "count");

    let (secs, events) = median_of(ENGINE_REPS, || {
        let mut net = QNetwork::new(7);
        let src = net.add_source("src", Dist::Exponential { mean: 20.0 }, 0, None);
        let cpu = net.add_service("cpu", 1, Dist::Exponential { mean: 10.0 });
        let sink = net.add_sink("sink");
        net.set_route(src, Routing::To(cpu));
        net.set_route(cpu, Routing::To(sink));
        let mut sim = net.into_simulation();
        sim.set_horizon(SimTime::from_us(2_000));
        sim.run();
        sim.events_processed()
    });
    report.metric("desim.mm1_events_per_s", events as f64 / secs, "1/s");
    report.metric("desim.mm1_events", events as f64, "count");

    // The parcel models' queue shape: interleaved short service completions and
    // constant-latency round trips from a monotonically advancing clock.
    let times: Vec<u64> = (0..200_000u64)
        .map(|i| i / 2 * 100 + if i % 2 == 0 { 2_000_000 } else { 3_000 })
        .collect();
    let (secs, drained) = median_of(ENGINE_REPS, || {
        let mut queue = FifoBandQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            queue.push(ScheduledEvent {
                time: SimTime::from_ticks(t),
                priority: 0,
                seq: seq as u64,
                id: EventId(seq as u64),
                payload: seq as u64,
            });
        }
        let mut drained = 0u64;
        while std::hint::black_box(queue.pop()).is_some() {
            drained += 1;
        }
        drained
    });
    report.metric("desim.fifo_band_events_per_s", drained as f64 / secs, "1/s");
    report.metric("desim.fifo_band_events", drained as f64, "count");
}

/// `compute.<scenario>_ms`: each builtin's plan run uncached on one worker.
/// Returns the sum over the catalog, ms.
fn compute_probes(ctx: &Ctx, catalog: &Catalog, report: &mut Report) -> f64 {
    let mut sum = 0.0;
    let mut first_calls = Vec::new();
    for scenario in catalog.registry.iter() {
        let name = format!("compute.{}_ms", scenario.name());
        let mut samples = Vec::new();
        let started = Instant::now();
        while samples.is_empty() || started.elapsed().as_secs_f64() < COMPUTE_BUDGET_S {
            let plan = scenario.plan(&catalog.seeds);
            let start = Instant::now();
            let r = ctx.tracer.span(&name, None, 0, || run_plan(plan, 1));
            samples.push(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(r);
        }
        let ms = stats::median(&samples);
        sum += ms;
        report.metric(&name, ms, "ms");
        if samples.len() > 1 {
            first_calls.push(format!("{} {:.4}/{ms:.4}", scenario.name(), samples[0]));
        }
    }
    report.note(format!(
        "compute, first call vs median ms (repeated scenarios only): {}",
        first_calls.join(", ")
    ));
    report.note(format!(
        "compute: sum over the catalog {sum:.3} ms on one worker"
    ));
    sum
}

/// Every key a cache directory holds, read back from its entries' key echo.
fn entry_keys(cache_dir: &Path) -> Result<Vec<UnitKey>, String> {
    let units = cache_dir.join("units");
    let mut files: Vec<_> = std::fs::read_dir(&units)
        .map_err(|e| format!("read {}: {e}", units.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let entry = serde_json::value_from_str(&text)
                .map_err(|e| format!("parse {}: {e}", path.display()))?;
            let key = entry
                .get("key")
                .ok_or_else(|| format!("{} has no key", path.display()))?;
            UnitKey::from_value(key).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

fn micros(samples: &[f64]) -> stats::Summary {
    let us: Vec<f64> = samples.iter().map(|s| s * 1e6).collect();
    stats::summarize(&us)
}

/// Planning, the cache, the executor, rendering and the artifact writer,
/// around one cold batch that fills a probe cache. Returns the warm batch p50, ms.
fn catalog_probes(
    ctx: &Ctx,
    catalog: &Catalog,
    compute_ms: f64,
    report: &mut Report,
) -> Result<f64, String> {
    let t = &ctx.tracer;
    let seeds = catalog.seeds;
    let (plan_s, _) = median_of(REPS, || {
        t.span("plan.catalog_ms", None, 0, || {
            let registry = Registry::builtin();
            let plans: Vec<_> = registry.iter().map(|s| s.plan(&seeds)).collect();
            std::hint::black_box(plans.len())
        })
    });
    report.metric("plan.catalog_ms", plan_s * 1e3, "ms");

    // One cold batch fills the probe cache; its wall is the parallel baseline.
    let dir = ctx.dir("probe");
    let cache_dir = dir.join("cache");
    let out = dir.join("out");
    let opts = BatchOptions {
        jobs: ctx.jobs,
        seeds,
        out_dir: Some(out.clone()),
        cache_dir: Some(cache_dir.clone()),
        shard: None,
    };
    let start = Instant::now();
    t.span("probe.cold_batch", None, 0, || {
        run_batch(&catalog.registry, &catalog.names, &opts)
    })?;
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    report.metric(
        "exec.parallel_efficiency",
        compute_ms / (ctx.jobs as f64 * cold_ms),
        "ratio",
    );
    report.note(format!(
        "cold run_batch {cold_ms:.1} ms on {} workers; figure12 is {:.1}% of the one-worker compute sum",
        ctx.jobs,
        100.0 * report.value("compute.figure12_ms").unwrap_or(f64::NAN) / compute_ms
    ));

    let (open_s, cache) = median_of(REPS, || {
        t.span("cache.open_ms", None, 0, || UnitCache::open(&cache_dir))
    });
    let cache = cache?;
    report.metric("cache.open_ms", open_s * 1e3, "ms");

    let keys = entry_keys(&cache_dir)?;
    let mut loads = Vec::with_capacity(keys.len());
    let mut payloads = Vec::with_capacity(keys.len());
    for key in &keys {
        let start = Instant::now();
        let found = t.span("cache.load", None, 0, || cache.load(key));
        loads.push(start.elapsed().as_secs_f64());
        match found {
            CacheLookup::Hit(payload) => payloads.push(payload),
            other => report.fail(format!(
                "cache probe: entry {} did not load: {other:?}",
                key.digest()
            )),
        }
    }
    report.attempted += 1;
    let loads = micros(&loads);
    report.metric("cache.load_hit_p50_us", loads.p50, "us");
    report.metric("cache.load_hit_tail_us", loads.tail.value, "us");

    let fresh = UnitCache::open(&dir.join("store"))?;
    let mut stores = Vec::with_capacity(payloads.len());
    for (key, payload) in keys.iter().zip(&payloads) {
        let start = Instant::now();
        t.span("cache.store", None, 0, || fresh.store(key, payload))?;
        stores.push(start.elapsed().as_secs_f64());
    }
    let stores = micros(&stores);
    report.metric("cache.store_p50_us", stores.p50, "us");
    report.metric("cache.store_tail_us", stores.tail.value, "us");
    report.note(format!(
        "cache probe: {} entries loaded (tail at p{:.2}), {} stored",
        loads.count, loads.tail.percentile, stores.count
    ));

    let plans = || {
        catalog
            .registry
            .iter()
            .map(|s| s.plan(&seeds))
            .collect::<Vec<_>>()
    };
    let mut disk = Vec::new();
    for _ in 0..ENGINE_REPS {
        let p = plans();
        let pool = UnitPool::new(ctx.jobs);
        let start = Instant::now();
        t.span("exec.warm_disk_ms", None, 0, || {
            pool.run_plans_cached(p, Some(&cache))
        })?;
        disk.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let warm_pool = UnitPool::new(ctx.jobs);
    warm_pool.run_plans_cached(plans(), Some(&cache))?;
    let mut mem = Vec::new();
    let mut reports = Vec::new();
    let mut counts = Vec::new();
    for _ in 0..ENGINE_REPS {
        let p = plans();
        let start = Instant::now();
        let outcomes = t.span("exec.warm_mem_ms", None, 0, || {
            warm_pool.run_plans_cached(p, Some(&cache))
        })?;
        mem.push(start.elapsed().as_secs_f64() * 1e3);
        (reports, counts) = outcomes.into_iter().map(|o| (o.report, o.cache)).unzip();
    }
    let (disk_ms, mem_ms) = (stats::median(&disk), stats::median(&mem));
    report.metric("exec.warm_disk_ms", disk_ms, "ms");
    report.metric("exec.warm_mem_ms", mem_ms, "ms");
    report.metric(
        "exec.mem_hit_us_per_unit",
        mem_ms * 1e3 / catalog.units as f64,
        "us",
    );

    let (render_s, _) = median_of(REPS, || {
        t.span("report.render_catalog_us", None, 0, || {
            reports.iter().map(|r| r.to_json().len()).sum::<usize>()
        })
    });
    report.metric("report.render_catalog_us", render_s * 1e6, "us");
    let write_dir = dir.join("write");
    let (write_s, written) = median_of(REPS, || {
        t.span("runner.write_artifacts_ms", None, 0, || {
            write_artifacts(&write_dir, &seeds, &reports, true, &counts)?;
            manifest_json(&seeds, &reports, true, &counts)
        })
    });
    written?;
    report.metric("runner.write_artifacts_ms", write_s * 1e3, "ms");

    // A whole warm batch, against the parts measured above.
    let mut warm = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        t.span("probe.warm_batch", None, 0, || {
            run_batch(&catalog.registry, &catalog.names, &opts)
        })?;
        warm.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let warm_ms = stats::median(&warm);
    report.metric(
        "runner.warm_unattributed_ms",
        warm_ms - (plan_s * 1e3 + open_s * 1e3 + disk_ms + write_s * 1e3),
        "ms",
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(warm_ms)
}

/// The per-request parts of a `POST /run` hit, over the pool specs: parse,
/// compile and plan, memory-hit execution, render. Returns their sum, us.
fn spec_probes(ctx: &Ctx, pool: &[PoolSpec], report: &mut Report) -> Result<f64, String> {
    let t = &ctx.tracer;
    let seeds = SeedPolicy::new(ctx.seed);
    let (mut parse, mut compile, mut exec, mut render) = (vec![], vec![], vec![], vec![]);
    let warm = UnitPool::new(ctx.jobs);
    for spec in pool {
        let scenario = parse_spec(&spec.json)?.into_scenario();
        warm.run_plans_cached(vec![scenario.plan(&seeds)], None)?;
        for _ in 0..REPS {
            let start = Instant::now();
            let parsed = t.span("spec.parse", None, 0, || parse_spec(&spec.json))?;
            let mid = Instant::now();
            let scenario = t.span("spec.compile_plan", None, 0, || parsed.into_scenario());
            let plan = t.span("spec.compile_plan", None, 0, || scenario.plan(&seeds));
            let planned = Instant::now();
            let mut outcome = t.span("exec.mem_hit", None, 0, || {
                warm.run_plans_cached(vec![plan], None)
            })?;
            let ran = Instant::now();
            let body = t.span("report.render_response", None, 0, || {
                outcome
                    .pop()
                    .expect("one plan, one outcome")
                    .report
                    .to_json()
            });
            let end = Instant::now();
            std::hint::black_box(body);
            parse.push((mid - start).as_secs_f64());
            compile.push((planned - mid).as_secs_f64());
            exec.push((ran - planned).as_secs_f64());
            render.push((end - ran).as_secs_f64());
        }
    }
    let us = |v: &[f64]| stats::median(v) * 1e6;
    report.metric("spec.parse_us", us(&parse), "us");
    report.metric("spec.compile_plan_us", us(&compile), "us");
    report.metric("report.render_response_us", us(&render), "us");

    // A novel unit: the first generated pool spec at never-used seeds, computed
    // on a fresh one-worker pool.
    let spec = &pool[pool.len() - 1];
    let mut per_unit = Vec::new();
    for i in 0..ENGINE_REPS as u64 {
        let scenario = parse_spec(&spec.json)?.into_scenario();
        let plan = scenario.plan(&SeedPolicy::new(ctx.seed ^ (0xA5A5 + i)));
        let start = Instant::now();
        t.span("compute.novel", None, 0, || {
            UnitPool::new(1).run_plans_cached(vec![plan], None)
        })?;
        per_unit.push(start.elapsed().as_secs_f64() * 1e6 / spec.units as f64);
    }
    report.metric("compute.novel_unit_us", stats::median(&per_unit), "us");
    Ok(us(&parse) + us(&compile) + us(&exec) + us(&render))
}

/// Loopback round trips against a fresh, warmed server: `GET /healthz`, and
/// warm `POST /run` hits one at a time.
fn http_probes(
    ctx: &Ctx,
    pool: &[PoolSpec],
    parts_us: f64,
    report: &mut Report,
) -> Result<(), String> {
    let t = &ctx.tracer;
    let server = Server::start(ctx)?;
    for spec in 0..pool.len() {
        let answer = service::post_run(&server.addr, pool, Req { spec, seed: None });
        report.check(answer.status == 200, || {
            format!("http probe warm-up answered {}", answer.status)
        });
    }
    let mut health = Vec::with_capacity(HTTP_ROUND_TRIPS);
    for _ in 0..HTTP_ROUND_TRIPS {
        let start = Instant::now();
        let r = t.span("http.healthz", None, 0, || {
            tiny_http::client::request(&server.addr, "GET", "/healthz", &[], b"")
        });
        health.push(start.elapsed().as_secs_f64());
        report.check(matches!(&r, Ok(r) if r.status == 200), || {
            "GET /healthz failed".to_string()
        });
    }
    let mut hits = Vec::with_capacity(HTTP_ROUND_TRIPS);
    for i in 0..HTTP_ROUND_TRIPS {
        let req = Req {
            spec: i % pool.len(),
            seed: None,
        };
        let start = Instant::now();
        let answer = t.span("http.post_run.hit", None, 0, || {
            service::post_run(&server.addr, pool, req)
        });
        hits.push(start.elapsed().as_secs_f64());
        report.check(answer.status == 200 && answer.hits == answer.units, || {
            format!(
                "http probe hit answered {} ({} of {} units hit)",
                answer.status, answer.hits, answer.units
            )
        });
    }
    server.stop()?;
    let health = micros(&health);
    let hit = micros(&hits);
    report.metric("http.healthz_p50_us", health.p50, "us");
    report.metric("http.healthz_tail_us", health.tail.value, "us");
    report.metric("serve.hit_unattributed_us", hit.p50 - parts_us, "us");
    report.note(format!(
        "http probe: unloaded hit p50 {:.1} us = {:.1} us spec+plan+exec+render + {:.1} us unattributed (HTTP, socket, server); healthz p50 {:.1} us",
        hit.p50,
        parts_us,
        hit.p50 - parts_us,
        health.p50
    ));
    Ok(())
}

/// Zeros for the serve-phase metrics on a workload that runs no server
/// traffic of its own: the layer is idle there.
pub fn idle_serve_metrics(report: &mut Report) {
    for (name, unit) in [
        ("serve.hit_p50_ms", "ms"),
        ("serve.hit_tail_ms", "ms"),
        ("serve.miss_p50_ms", "ms"),
        ("serve.miss_tail_ms", "ms"),
        ("serve.rejected_503", "count"),
        ("serve.status_5xx", "count"),
        ("serve.response_bytes_mean", "bytes"),
        ("generator.late_tail_ms", "ms"),
        ("generator.offered_rps", "1/s"),
        ("generator.achieved_rps", "1/s"),
    ] {
        report.metric(name, 0.0, unit);
    }
}
