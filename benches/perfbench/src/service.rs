//! The `serve_mixed` workload: `POST /run` traffic against an in-process
//! `SweepServer` (loopback, memory-only, `workers` = `jobs` = nproc).
//!
//! About 90% of requests repeat a spec from a fixed pool warmed during set-up
//! (memory hits); about 10% send a pool spec with a never-used `?seed=`, so
//! every unit computes, and half of those go out as a back-to-back pair on both
//! connections, exercising single-flight. The latency phase is an open loop at
//! [`OPEN_LOOP_RPS`], timed from each request's due time; the throughput phase
//! is a closed loop over nproc connections.

use crate::{stats, Ctx, Report};
use pim_harness::exec::run_plan;
use pim_harness::scenario::SeedPolicy;
use pim_harness::serve::{DrainHandle, DrainSummary, ServeOptions, SweepServer};
use pim_harness::spec::parse_spec;
use serde::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered rate of the open-loop phase, in requests per second: about half
/// the closed-loop throughput this workload measured on the commit that
/// introduced the benchmark (2-core x86-64 host).
pub const OPEN_LOOP_RPS: f64 = 600.0;
/// Closed-loop throughput this workload measured on the same commit and host;
/// the closed loop sends `--seconds / 3` worth of requests at this rate, a
/// fixed count, so the work (and the exact counts) of a run do not depend on
/// how fast the host happens to be.
const CLOSED_LOOP_NOMINAL_RPS: f64 = 3000.0;
/// Share of closed-loop responses before the throughput windows open.
const CLOSED_WARMUP_SHARE: f64 = 0.2;
/// Closed-loop throughput window, seconds.
const WINDOW_S: f64 = 0.5;
/// Specs generated from the workload seed, beside the two presets.
const GENERATED_SPECS: usize = 10;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Share of `--seconds` spent in the open loop; the closed loop gets the rest.
const OPEN_SHARE: f64 = 2.0 / 3.0;
/// A run whose generator tail lateness (its own delay in sending a due
/// request, not the server's) exceeds this is flagged invalid.
const GENERATOR_LATE_LIMIT_MS: f64 = 10.0;

/// The shipped `node_scaling` and `pmiss_sensitivity` presets.
const PRESETS: [&str; 2] = [
    r#"{"schema_version": 1, "name": "spec_node_scaling", "description": "Figure 5's gain surface extended to 512 nodes, declared as data", "model": "analytic", "grid": {"node_counts": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512], "lwp_fractions": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]}, "columns": ["nodes", "pct_lwp", "gain", "relative_time"]}"#,
    r#"{"schema_version": 1, "name": "spec_pmiss_sensitivity", "description": "gain sensitivity to the host cache miss rate across node counts", "model": "analytic", "grid": {"node_counts": [8, 32, 128], "lwp_fractions": [0.5, 0.9, 1.0], "p_miss": [0.01, 0.05, 0.1, 0.2, 0.5]}, "columns": ["nodes", "pct_lwp", "p_miss", "gain"]}"#,
];

/// SplitMix64: the benchmark's only source of randomness, seeded by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct items of `from`, in `from`'s order.
    fn pick<T: Copy>(&mut self, from: &[T], k: usize) -> Vec<T> {
        let mut chosen: Vec<usize> = (0..from.len()).collect();
        for i in 0..k {
            let j = i + self.below(from.len() - i);
            chosen.swap(i, j);
        }
        let mut idx = chosen[..k].to_vec();
        idx.sort_unstable();
        idx.into_iter().map(|i| from[i]).collect()
    }
}

/// One spec of the request pool.
pub struct PoolSpec {
    pub name: String,
    pub json: String,
    pub units: u64,
}

/// The fixed pool of small analytic specs: the two presets plus
/// [`GENERATED_SPECS`] grids drawn from the workload seed.
pub fn pool(seed: u64) -> Result<Vec<PoolSpec>, String> {
    let mut rng = Rng::new(seed);
    let mut docs: Vec<String> = PRESETS.iter().map(|s| s.to_string()).collect();
    for i in 0..GENERATED_SPECS {
        // One grid shape for every generated spec (24 units); the seed picks values.
        let nodes = rng.pick(&[1, 2, 4, 8, 16, 32, 64, 128, 256], 3);
        let wl = rng.pick(&[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], 4);
        let pmiss = rng.pick(&[0.01, 0.05, 0.1, 0.2, 0.5], 2);
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let nodes = nodes
            .iter()
            .map(|n: &usize| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        docs.push(format!(
            r#"{{"schema_version": 1, "name": "mix_{i}", "description": "generated serve_mixed pool spec", "model": "analytic", "grid": {{"node_counts": [{nodes}], "lwp_fractions": [{}], "p_miss": [{}]}}}}"#,
            list(&wl),
            list(&pmiss)
        ));
    }
    docs.into_iter()
        .map(|json| {
            let spec = parse_spec(&json)?;
            Ok(PoolSpec {
                name: spec.name.clone(),
                units: spec.units() as u64,
                json,
            })
        })
        .collect()
}

/// The in-process report bytes a `POST /run` of `spec` at `seed` must return.
pub fn reference_body(spec: &PoolSpec, seed: u64, jobs: usize) -> Result<Vec<u8>, String> {
    let scenario = parse_spec(&spec.json)?.into_scenario();
    Ok(run_plan(scenario.plan(&SeedPolicy::new(seed)), jobs)
        .to_json()
        .into_bytes())
}

/// A running in-process server.
pub struct Server {
    pub addr: String,
    drain: DrainHandle,
    thread: JoinHandle<Result<DrainSummary, String>>,
}

impl Server {
    pub fn start(ctx: &Ctx) -> Result<Server, String> {
        let server = SweepServer::bind(&ServeOptions {
            addr: "127.0.0.1:0".into(),
            cache_dir: None,
            jobs: ctx.jobs,
            seed: ctx.seed,
            workers: ctx.jobs,
            ..ServeOptions::default()
        })?;
        let addr = server.local_addr()?;
        let drain = server.drain_handle();
        let thread = std::thread::spawn(move || server.serve_forever());
        Ok(Server {
            addr,
            drain,
            thread,
        })
    }

    /// Drain and wait for the serving thread to end.
    pub fn stop(self) -> Result<(), String> {
        self.drain.request_drain();
        let summary = self
            .thread
            .join()
            .map_err(|_| "serve thread panicked".to_string())??;
        if summary.abandoned > 0 {
            return Err(format!(
                "server drain abandoned {} requests",
                summary.abandoned
            ));
        }
        Ok(())
    }
}

/// One request to send: a pool spec, at the server's base seed or a novel one.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub spec: usize,
    /// `None` = the server's base seed (a warm hit).
    pub seed: Option<u64>,
}

/// A response as the generator saw it.
pub struct Answer {
    /// HTTP status; 0 when the exchange failed at the transport level.
    pub status: u16,
    pub body: Vec<u8>,
    pub units: u64,
    pub hits: u64,
    pub misses: u64,
    pub recomputed: u64,
}

pub fn post_run(addr: &str, pool: &[PoolSpec], req: Req) -> Answer {
    let target = match req.seed {
        Some(seed) => format!("/run?seed={seed}"),
        None => "/run".to_string(),
    };
    match tiny_http::client::request(addr, "POST", &target, &[], pool[req.spec].json.as_bytes()) {
        Ok(r) => {
            let header = |name: &str| r.header(name).and_then(|v| v.parse().ok()).unwrap_or(0);
            Answer {
                status: r.status,
                units: header("X-Pim-Units"),
                hits: header("X-Pim-Cache-Hits"),
                misses: header("X-Pim-Cache-Misses"),
                recomputed: header("X-Pim-Cache-Recomputed"),
                body: r.body,
            }
        }
        Err(_) => Answer {
            status: 0,
            body: Vec::new(),
            units: 0,
            hits: 0,
            misses: 0,
            recomputed: 0,
        },
    }
}

/// The seeded request mix. Arrivals come in blocks of [`BLOCK`]: exactly one
/// arrival per block is novel (at a seeded position), every other novel
/// arrival is a pair, and novel arrivals use the generated specs, which all
/// share one grid shape. So a run's amount of work is the same at every seed;
/// the seed moves which specs, values and positions. Novel seeds are never
/// reused and never equal the server's base seed.
struct Mix {
    rng: Rng,
    specs: usize,
    base_seed: u64,
    used: HashSet<u64>,
    /// Arrivals drawn so far, and the novel position in the current block.
    drawn: usize,
    novel_at: usize,
    /// The second half of a pair, sent right after the first.
    pending: Option<Req>,
}

/// Arrivals per block; one is novel.
const BLOCK: usize = 10;

impl Mix {
    fn new(seed: u64, specs: usize) -> Mix {
        Mix {
            rng: Rng::new(seed.rotate_left(17) ^ 0x5E27_E000),
            specs,
            base_seed: seed,
            used: HashSet::new(),
            drawn: 0,
            novel_at: 0,
            pending: None,
        }
    }

    /// The next arrival: one request, or a pair of identical novel ones.
    fn arrival(&mut self) -> Vec<Req> {
        let (block, pos) = (self.drawn / BLOCK, self.drawn % BLOCK);
        self.drawn += 1;
        if pos == 0 {
            self.novel_at = self.rng.below(BLOCK);
        }
        if pos != self.novel_at {
            let spec = self.rng.below(self.specs);
            return vec![Req { spec, seed: None }];
        }
        let spec = PRESETS.len() + self.rng.below(self.specs - PRESETS.len());
        let seed = loop {
            let s = self.rng.next_u64() >> 1;
            if s != self.base_seed && self.used.insert(s) {
                break s;
            }
        };
        let req = Req {
            spec,
            seed: Some(seed),
        };
        if block % 2 == 0 {
            vec![req, req]
        } else {
            vec![req]
        }
    }

    /// The next single request (pairs are split across consecutive calls).
    fn next_req(&mut self) -> Req {
        if let Some(req) = self.pending.take() {
            return req;
        }
        let mut arrival = self.arrival();
        if arrival.len() == 2 {
            self.pending = arrival.pop();
        }
        arrival[0]
    }
}

/// One completed exchange.
struct Done {
    req: Req,
    status: u16,
    /// Due (open loop) or send (closed loop) to response, ms.
    latency_ms: f64,
    /// The generator's own delay in sending: send minus the later of the due
    /// time and the moment the connection became free, ms.
    gen_late_ms: f64,
    end: Instant,
    bytes: usize,
    units: u64,
    hits: u64,
}

/// Everything the generator saw, across set-up and both phases.
#[derive(Default)]
struct Tally {
    done: Vec<Done>,
    /// First body per (spec, seed), and whether every later one matched it.
    bodies: HashMap<(usize, u64), (Vec<u8>, bool)>,
    /// Requests of `POST /run` by status, warm-ups included.
    statuses: BTreeMap<u16, u64>,
    units: u64,
    hits: u64,
    misses: u64,
    recomputed: u64,
}

impl Tally {
    /// Account one answer; returns whether its body matched earlier bodies
    /// for the same spec and seed.
    fn account(&mut self, base_seed: u64, req: Req, answer: &Answer) -> bool {
        *self.statuses.entry(answer.status).or_insert(0) += 1;
        if answer.status != 200 {
            return false;
        }
        self.units += answer.units;
        self.hits += answer.hits;
        self.misses += answer.misses;
        self.recomputed += answer.recomputed;
        let key = (req.spec, req.seed.unwrap_or(base_seed));
        match self.bodies.get_mut(&key) {
            Some((first, same)) => {
                let ok = *first == answer.body;
                *same &= ok;
                ok
            }
            None => {
                self.bodies.insert(key, (answer.body.clone(), true));
                true
            }
        }
    }
}

/// Bind a server and warm every pool spec at the base seed.
fn setup(
    ctx: &Ctx,
    pool: &[PoolSpec],
    tally: &mut Tally,
    report: &mut Report,
) -> Result<(Server, f64), String> {
    let start = Instant::now();
    let t = &ctx.tracer;
    let server = t.span("setup.bind", None, 0, || Server::start(ctx))?;
    t.span("setup.warm", None, 0, || {
        for spec in 0..pool.len() {
            let req = Req { spec, seed: None };
            let answer = post_run(&server.addr, pool, req);
            report.attempted += 1;
            if !tally.account(ctx.seed, req, &answer) {
                report.fail(format!(
                    "warm-up of {} answered {}",
                    pool[spec].name, answer.status
                ));
            }
        }
    });
    Ok((server, start.elapsed().as_secs_f64()))
}

/// Set up `SETUPS` servers (timing each), keep the last, stop the others.
fn setups(
    ctx: &Ctx,
    pool: &[PoolSpec],
    report: &mut Report,
) -> Result<(Server, Tally, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        // Each server's accounting starts from zero; only the kept one's counts.
        let mut tally = Tally::default();
        let (server, secs) = setup(ctx, pool, &mut tally, report)?;
        times.push(secs);
        if let Some((old, _)) = kept.replace((server, tally)) {
            Server::stop(old)?;
        }
    }
    let (server, tally) = kept.expect("at least one set-up ran");
    Ok((server, tally, times))
}

/// What the generator threads share.
struct Generator<'a> {
    ctx: &'a Ctx,
    addr: &'a str,
    pool: &'a [PoolSpec],
    tally: Mutex<Tally>,
    report: Mutex<Report>,
    /// When the phase began.
    t0: Instant,
}

/// Send one request and record it (plus its spans) in the tally.
fn exchange(g: &Generator<'_>, id: u64, req: Req, due: Instant, ready: Instant) {
    let (ctx, addr, pool) = (g.ctx, g.addr, g.pool);
    let (tally, report) = (&g.tally, &g.report);
    let t = &ctx.tracer;
    let root = t.reserve();
    let send = Instant::now();
    let answer = post_run(addr, pool, req);
    let end = Instant::now();
    let name = if req.seed.is_some() {
        "http.post_run.novel"
    } else {
        "http.post_run.hit"
    };
    t.record("generator.wait", root, id, due, send);
    t.record(name, root, id, send, end);
    t.record_as(root, "serve.request", None, id, due, end);
    let ok = tally
        .lock()
        .expect("no generator thread panicked")
        .account(ctx.seed, req, &answer);
    let mut report = report.lock().expect("no generator thread panicked");
    report.attempted += 1;
    if !ok {
        report.fail(format!(
            "request {id} ({} seed {:?}): status {}{}",
            pool[req.spec].name,
            req.seed,
            answer.status,
            if answer.status == 200 {
                ", body differs from an earlier identical request"
            } else {
                ""
            }
        ));
    }
    drop(report);
    let done = Done {
        req,
        status: if ok { answer.status } else { 0 },
        latency_ms: (end - due).as_secs_f64() * 1e3,
        gen_late_ms: send.saturating_duration_since(due.max(ready)).as_secs_f64() * 1e3,
        end,
        bytes: answer.body.len(),
        units: answer.units,
        hits: answer.hits,
    };
    tally
        .lock()
        .expect("no generator thread panicked")
        .done
        .push(done);
}

/// What the two timed phases measured.
struct Phases {
    open: Vec<Done>,
    closed: Vec<Done>,
    /// From the first due time to the last open-loop response.
    open_secs: f64,
    /// Offered arrivals (a pair counts once).
    arrivals: usize,
    closed_secs: f64,
}

/// The open loop (`arrivals` arrivals at [`OPEN_LOOP_RPS`]) then the closed
/// loop (`closed_requests` requests).
fn phases(
    ctx: &Ctx,
    addr: &str,
    pool: &[PoolSpec],
    tally: &mut Tally,
    report: &mut Report,
    arrivals: usize,
    closed_requests: usize,
) -> Result<Phases, String> {
    let mut mix = Mix::new(ctx.seed, pool.len());
    let mut slots: Vec<(usize, Req)> = Vec::new();
    for a in 0..arrivals {
        for req in mix.arrival() {
            slots.push((a, req));
        }
    }
    let threads = ctx.jobs.clamp(1, 2);
    let next = AtomicUsize::new(0);
    let mut g = Generator {
        ctx,
        addr,
        pool,
        tally: Mutex::new(std::mem::take(tally)),
        report: Mutex::new(std::mem::take(report)),
        t0: Instant::now() + Duration::from_millis(20),
    };
    let gap = Duration::from_secs_f64(1.0 / OPEN_LOOP_RPS);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(arrival, req)) = slots.get(i) else {
                    break;
                };
                let due = g.t0 + gap * arrival as u32;
                let ready = Instant::now();
                if due > ready {
                    std::thread::sleep(due - ready);
                }
                exchange(&g, i as u64 + 1, req, due, ready);
            });
        }
    });
    let open_done: Vec<Done> = std::mem::take(
        &mut g
            .tally
            .get_mut()
            .expect("no generator thread panicked")
            .done,
    );
    let open_secs = open_done
        .iter()
        .map(|d| d.end.saturating_duration_since(g.t0).as_secs_f64())
        .fold(0.0, f64::max);

    let mix = Mutex::new(mix);
    let sent = AtomicUsize::new(0);
    g.t0 = Instant::now();
    let gen = &g;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let n = sent.fetch_add(1, Ordering::Relaxed);
                if n >= closed_requests {
                    break;
                }
                let req = mix.lock().expect("no generator thread panicked").next_req();
                let now = Instant::now();
                exchange(gen, (slots.len() + n + 1) as u64, req, now, now);
            });
        }
    });
    let closed_secs = g.t0.elapsed().as_secs_f64();
    let Generator {
        tally: shared,
        report: shared_report,
        ..
    } = g;
    *tally = shared.into_inner().expect("no generator thread panicked");
    *report = shared_report
        .into_inner()
        .expect("no generator thread panicked");
    let closed_done = std::mem::take(&mut tally.done);
    Ok(Phases {
        open: open_done,
        closed: closed_done,
        open_secs,
        arrivals,
        closed_secs,
    })
}

/// Scrape `GET /metrics` once the server's counters have caught up with the
/// `POST /run` responses the generator received.
fn scrape(addr: &str, expected_runs: u64) -> Result<Value, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let r = tiny_http::client::request(addr, "GET", "/metrics", &[], b"")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        let text =
            String::from_utf8(r.body).map_err(|_| "metrics body is not UTF-8".to_string())?;
        let doc = serde_json::value_from_str(&text).map_err(|e| format!("parse /metrics: {e}"))?;
        let runs: u64 = doc
            .get("requests")
            .and_then(|r| r.get("by_endpoint"))
            .and_then(|e| e.get("POST /run"))
            .map(|m| match m {
                Value::Map(entries) => {
                    entries.iter().filter_map(|(_, v)| v.as_f64()).sum::<f64>() as u64
                }
                _ => 0,
            })
            .unwrap_or(0);
        if runs >= expected_runs || Instant::now() > deadline {
            return Ok(doc);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn count_at(doc: &Value, path: &[&str]) -> u64 {
    let mut v = doc;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return u64::MAX,
        }
    }
    v.as_f64().map_or(u64::MAX, |x| x as u64)
}

/// The post-run output checks: bodies against in-process reports, `/metrics`
/// against the generator's tally and the summed headers, single-flight
/// accounting. Returns computations per distinct novel digest.
fn verify(
    ctx: &Ctx,
    addr: &str,
    pool: &[PoolSpec],
    tally: &Tally,
    all: &[&Done],
    report: &mut Report,
) -> Result<f64, String> {
    // Every distinct (spec, seed) answered: one in-process reference each.
    let mut keys: Vec<&(usize, u64)> = tally.bodies.keys().collect();
    keys.sort();
    for key in keys {
        let (body, same) = &tally.bodies[key];
        let reference = reference_body(&pool[key.0], key.1, ctx.jobs)?;
        report.check(*same && *body == reference, || {
            format!(
                "{} at seed {}: served body differs from the in-process report",
                pool[key.0].name, key.1
            )
        });
    }

    // The server's own accounting must equal what the generator saw.
    let runs: u64 = tally.statuses.values().sum();
    let doc = scrape(addr, runs)?;
    let mut served: BTreeMap<u16, u64> = BTreeMap::new();
    if let Some(Value::Map(entries)) = doc
        .get("requests")
        .and_then(|r| r.get("by_endpoint"))
        .and_then(|e| e.get("POST /run"))
    {
        for (status, count) in entries {
            if let (Ok(status), Some(count)) = (status.parse(), count.as_f64()) {
                served.insert(status, count as u64);
            }
        }
    }
    let mut sent = tally.statuses.clone();
    let refused = sent.remove(&503).unwrap_or(0);
    sent.remove(&0);
    report.check(served == sent, || {
        format!("/metrics POST /run statuses {served:?}, generator saw {sent:?}")
    });
    for (field, ours) in [
        ("hits", tally.hits),
        ("misses", tally.misses),
        ("recomputed", tally.recomputed),
        ("units_served", tally.units),
    ] {
        let theirs = count_at(&doc, &["cache", field]);
        report.check(theirs == ours, || {
            format!("/metrics cache.{field} {theirs}, summed headers {ours}")
        });
    }
    let rejected = count_at(&doc, &["workers", "rejected_503"]);
    report.check(rejected == refused, || {
        format!("/metrics rejected_503 {rejected}, generator saw {refused}")
    });

    // Warm repeats are memory hits; novel units compute exactly once each.
    let (hit_units, hit_hits) = all
        .iter()
        .filter(|d| d.req.seed.is_none() && d.status == 200)
        .fold((0, 0), |(u, h), d| (u + d.units, h + d.hits));
    report.check(hit_units == hit_hits, || {
        format!("warm repeats: {hit_hits} hits of {hit_units} units")
    });
    let computed: u64 = all
        .iter()
        .filter(|d| d.req.seed.is_some() && d.status == 200)
        .map(|d| d.units - d.hits.min(d.units))
        .sum();
    let distinct: HashSet<(usize, u64)> = all
        .iter()
        .filter_map(|d| d.req.seed.map(|s| (d.req.spec, s)))
        .collect();
    let distinct_units: u64 = distinct.iter().map(|(spec, _)| pool[*spec].units).sum();
    let dedup = if distinct_units == 0 {
        0.0
    } else {
        computed as f64 / distinct_units as f64
    };
    // Fewer computations than distinct units means a unit was answered without
    // being computed: an accounting error. More means single-flight let a
    // duplicate through; the bodies (checked above) are still byte-correct, so
    // that is a cost, reported as a defect and by `exec.flight_dedup`.
    report.check(computed >= distinct_units, || {
        format!(
            "single-flight: {computed} unit computations for {distinct_units} distinct novel units"
        )
    });
    if computed > distinct_units {
        report.note(format!(
            "DEFECT single-flight: {} duplicate computations among {distinct_units} distinct novel units (flight_dedup {dedup:.6})",
            computed - distinct_units
        ));
    }
    Ok(dedup)
}

fn latencies(done: &[&Done]) -> Vec<f64> {
    done.iter()
        .filter(|d| d.status == 200)
        .map(|d| d.latency_ms)
        .collect()
}

/// The open-loop figures, for notes and the traced run.
struct OpenFigures {
    all: stats::Summary,
    hit: stats::Summary,
    miss: stats::Summary,
    late: stats::Summary,
    offered_rps: f64,
    achieved_rps: f64,
    valid: bool,
}

fn open_figures(p: &Phases) -> OpenFigures {
    let open: Vec<&Done> = p.open.iter().collect();
    let hits: Vec<&Done> = open
        .iter()
        .copied()
        .filter(|d| d.req.seed.is_none())
        .collect();
    let misses: Vec<&Done> = open
        .iter()
        .copied()
        .filter(|d| d.req.seed.is_some())
        .collect();
    let late: Vec<f64> = open.iter().map(|d| d.gen_late_ms).collect();
    let ok = open.iter().filter(|d| d.status == 200).count();
    // Requests per second of the schedule (a pair is two requests due at once).
    let schedule_secs = p.arrivals.max(1) as f64 / OPEN_LOOP_RPS;
    let late = stats::summarize(&late);
    OpenFigures {
        all: stats::summarize(&latencies(&open)),
        hit: stats::summarize(&latencies(&hits)),
        miss: stats::summarize(&latencies(&misses)),
        offered_rps: open.len() as f64 / schedule_secs,
        achieved_rps: ok as f64 / p.open_secs.max(1e-9),
        valid: late.tail.value <= GENERATOR_LATE_LIMIT_MS,
        late,
    }
}

fn note_figures(report: &mut Report, f: &OpenFigures, p: &Phases) {
    let mut line = String::new();
    let _ = write!(
        line,
        "open loop: {} requests, hit p50 {:.4} ms tail {:.4} ms (p{:.2}, n={}), miss p50 {:.4} ms tail {:.4} ms (p{:.2}, n={}); ",
        p.open.len(),
        f.hit.p50,
        f.hit.tail.value,
        f.hit.tail.percentile,
        f.hit.count,
        f.miss.p50,
        f.miss.tail.value,
        f.miss.tail.percentile,
        f.miss.count
    );
    let _ = write!(
        line,
        "offered {:.1} rps, achieved {:.1} rps, generator late tail {:.4} ms{}",
        f.offered_rps,
        f.achieved_rps,
        f.late.tail.value,
        if f.valid {
            ""
        } else {
            " -- INVALID: the generator fell behind"
        }
    );
    report.note(line);
    report.note(format!(
        "closed loop: {} requests in {:.3} s over {} connections",
        p.closed.len(),
        p.closed_secs,
        2
    ));
}

/// Closed-loop requests per second: the median over [`WINDOW_S`] windows of
/// the responses completed in each, after the first [`CLOSED_WARMUP_SHARE`]
/// of responses (the host takes a second or two to come up to speed when the
/// load steps up from the open loop). The median keeps one stall of the
/// shared host from moving the run's figure. The last, partial window is
/// left out.
fn closed_throughput(p: &Phases) -> f64 {
    let mut ends: Vec<Instant> = p
        .closed
        .iter()
        .filter(|d| d.status == 200)
        .map(|d| d.end)
        .collect();
    ends.sort();
    let skip = (ends.len() as f64 * CLOSED_WARMUP_SHARE) as usize;
    let Some(&from) = ends.get(skip) else {
        return 0.0;
    };
    let mut windows: Vec<f64> = Vec::new();
    for end in &ends[skip..] {
        let w = ((*end - from).as_secs_f64() / WINDOW_S) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, 0.0);
        }
        windows[w] += 1.0;
    }
    windows.pop();
    stats::median(&windows) / WINDOW_S
}

/// Open-loop arrivals and closed-loop requests for `--seconds`.
fn phase_sizes(ctx: &Ctx) -> (usize, usize) {
    let open_secs = ctx.seconds * OPEN_SHARE;
    let closed_secs = ctx.seconds - open_secs;
    (
        (open_secs * OPEN_LOOP_RPS).round() as usize,
        (closed_secs * CLOSED_LOOP_NOMINAL_RPS).round() as usize,
    )
}

/// `serve_mixed`, untraced.
pub fn mixed(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let pool = pool(ctx.seed)?;
    let (server, mut tally, setup_times) = setups(ctx, &pool, report)?;
    let (arrivals, closed) = phase_sizes(ctx);
    let p = phases(
        ctx,
        &server.addr,
        &pool,
        &mut tally,
        report,
        arrivals,
        closed,
    )?;
    let all: Vec<&Done> = p.open.iter().chain(&p.closed).collect();
    verify(ctx, &server.addr, &pool, &tally, &all, report)?;
    server.stop()?;
    let f = open_figures(&p);
    let open: Vec<&Done> = p.open.iter().collect();
    report.end_to_end(
        "one open-loop POST /run (hits and novel)",
        &setup_times,
        &latencies(&open),
        closed_throughput(&p),
    );
    note_figures(report, &f, &p);
    Ok(())
}

/// `serve_mixed`, traced: the same request sequence with spans recorded.
pub fn mixed_traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let pool = pool(ctx.seed)?;
    let mut tally = Tally::default();
    let (server, _) = setup(ctx, &pool, &mut tally, report)?;
    let (arrivals, closed) = phase_sizes(ctx);
    let p = phases(
        ctx,
        &server.addr,
        &pool,
        &mut tally,
        report,
        arrivals,
        closed,
    )?;
    let all: Vec<&Done> = p.open.iter().chain(&p.closed).collect();
    let dedup = verify(ctx, &server.addr, &pool, &tally, &all, report)?;
    server.stop()?;
    let f = open_figures(&p);
    note_figures(report, &f, &p);
    report.note(format!(
        "traced phase: op_p50_ms {:.4} op_tail_ms {:.4} throughput {:.1} rps (compare with the untraced run for the tracing overhead)",
        f.all.p50,
        f.all.tail.value,
        closed_throughput(&p)
    ));

    let ok: Vec<&&Done> = all.iter().filter(|d| d.status == 200).collect();
    let units: u64 = ok.iter().map(|d| d.units).sum();
    let computed: u64 = ok.iter().map(|d| d.units - d.hits.min(d.units)).sum();
    report.metric("cache.hits", 0.0, "count");
    report.metric("cache.misses", 0.0, "count");
    report.metric("cache.recomputed", 0.0, "count");
    report.metric("cache.hit_ratio", 0.0, "ratio");
    report.metric("exec.units_requested", units as f64, "count");
    report.metric("exec.units_computed", computed as f64, "count");
    report.metric("exec.flight_dedup", dedup, "ratio");
    report.metric("serve.hit_p50_ms", f.hit.p50, "ms");
    report.metric("serve.hit_tail_ms", f.hit.tail.value, "ms");
    report.metric("serve.miss_p50_ms", f.miss.p50, "ms");
    report.metric("serve.miss_tail_ms", f.miss.tail.value, "ms");
    report.metric(
        "serve.rejected_503",
        *tally.statuses.get(&503).unwrap_or(&0) as f64,
        "count",
    );
    report.metric(
        "serve.status_5xx",
        tally
            .statuses
            .iter()
            .filter(|(s, _)| **s >= 500 && **s != 503)
            .map(|(_, n)| *n)
            .sum::<u64>() as f64,
        "count",
    );
    report.metric(
        "serve.response_bytes_mean",
        ok.iter().map(|d| d.bytes as f64).sum::<f64>() / ok.len().max(1) as f64,
        "bytes",
    );
    report.metric("generator.late_tail_ms", f.late.tail.value, "ms");
    report.metric("generator.offered_rps", f.offered_rps, "1/s");
    report.metric("generator.achieved_rps", f.achieved_rps, "1/s");
    Ok(())
}
