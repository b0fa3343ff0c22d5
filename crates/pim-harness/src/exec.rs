//! The work-stealing plan executor.
//!
//! [`run_plans`] flattens the units of every requested [`ScenarioPlan`] into one
//! global work list and lets up to `jobs` workers claim units from a shared atomic
//! index. Scheduling *units* (grid points) rather than whole scenarios is what keeps
//! every worker busy to the end of a batch: under the old scenario-granular runner
//! the slowest scenario (Figure 12's 56-point grid) serialized the batch tail on a
//! single worker while the rest sat idle.
//!
//! Determinism: unit outputs are written back by flattened index and handed to each
//! plan's assembly step in unit order, and every unit derives its randomness from
//! plan-time values (scenario seed + grid index) — so reports are byte-identical for
//! any `jobs` value, including `1`.
//!
//! Incremental execution: [`run_plans_cached`] additionally consults a persistent
//! [`UnitCache`] *before* a worker runs a claimed unit and writes the result back on
//! completion. Because a unit's cache key is derived entirely from plan-time values
//! and entry publication is an atomic rename, hit/miss behaviour is independent of
//! claim order and worker count — a warm batch produces byte-identical artifacts at
//! any `--jobs`, only faster.
//!
//! # The persistent pool
//!
//! All execution routes through a [`UnitPool`], whose lifetime is decoupled from any
//! single batch. A batch (`run_batch`, the free functions here) is *one client* of
//! an ephemeral pool; a long-lived service ([`crate::serve`]) keeps one pool across
//! requests and gains three things batches cannot express alone:
//!
//! * a **compute-permit gate** — at most `jobs` units execute at any instant across
//!   every concurrent client of the pool, however many request threads are active;
//! * a **warm in-memory result map** (digest → payload) — repeat queries are served
//!   without touching the disk cache;
//! * **single-flight deduplication** per [`UnitKey`](crate::cache::UnitKey) digest —
//!   when two clients need the same unit concurrently, exactly one computes it and
//!   the other blocks until the result is published, then decodes it as a hit.
//!
//! Unit results are pure functions of their key, so a deduplicated or memory-served
//! payload is byte-identical to a recomputed one; the pool changes *when* work
//! happens, never *what* is produced.

use crate::cache::{CacheCounts, CacheEvent, CacheLookup, UnitCache};
use crate::report::ScenarioReport;
use crate::scenario::{PlanUnit, ScenarioPlan, UnitOutput};
use crate::shard::{ExecutedUnit, ShardSpec};
use serde::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Resolve a user-facing `jobs` knob: `0` means one worker per available core.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        desim::par::available_threads()
    } else {
        jobs
    }
}

/// A progress observer for one executor call: invoked after every completed unit
/// with `(completed_so_far, total_units)`. Called from worker threads, so it must
/// be `Sync`; keep it cheap — it runs inside the claim loop.
pub type Progress<'p> = &'p (dyn Fn(usize, usize) + Sync);

/// A cancellation probe for one executor call: polled between units and while
/// queued on the compute gate or a foreign flight; returning `true` makes the
/// call abandon its remaining work and fail with [`CANCELLED_MSG`]. Called from
/// worker threads, so it must be `Sync`; keep it cheap — the pool polls it
/// every [`CANCEL_POLL`] while blocked and once per claimed unit.
///
/// Cancellation only abandons work *this* call uniquely owns: a flight it was
/// computing resolves as failed, waking any foreign waiters to re-contest
/// ownership, and results already published to the pool's caches stay valid.
pub type Cancel<'c> = &'c (dyn Fn() -> bool + Sync);

/// The error string a cancelled executor call fails with. Stable so callers
/// (the serve layer) can distinguish "client gave up" from real failures.
pub const CANCELLED_MSG: &str = "execution cancelled by caller";

/// How often blocked waits (gate queue, foreign flights) poll a cancellation
/// probe. Uncancellable waits (no probe) never wake early.
const CANCEL_POLL: Duration = Duration::from_millis(25);

/// Internal marker: the caller's cancellation probe fired.
struct Cancelled;

/// A plan's report plus its cache accounting (all-zero when uncached).
pub struct PlanOutcome {
    /// The assembled scenario report.
    pub report: ScenarioReport,
    /// How the plan's units interacted with the unit cache (memory-served and
    /// flight-deduplicated units count as hits).
    pub cache: CacheCounts,
}

/// Execute one plan across up to `jobs` workers (`0` = one per core).
pub fn run_plan(plan: ScenarioPlan<'_>, jobs: usize) -> ScenarioReport {
    run_plans(vec![plan], jobs)
        .pop()
        // audit:allow(unwrap-in-library): run_plans returns one report per input plan
        .expect("one plan produces one report")
}

/// Execute every plan's units on a shared work-stealing pool and assemble one report
/// per plan, in input order. No cache is consulted.
pub fn run_plans(plans: Vec<ScenarioPlan<'_>>, jobs: usize) -> Vec<ScenarioReport> {
    UnitPool::new(jobs)
        .run_plans_cached(plans, None)
        // audit:allow(unwrap-in-library): without a cache there is no store I/O, the only error source
        .expect("uncached execution performs no fallible cache I/O")
        .into_iter()
        .map(|outcome| outcome.report)
        .collect()
}

/// [`run_plans`] with an optional unit-result cache: workers consult `cache` before
/// running a claimed unit and store results back on completion. Returns one
/// [`PlanOutcome`] per plan, in input order.
///
/// Cache *reads* never fail the batch (a corrupt entry is evicted and recomputed);
/// cache *writes* do — an unwritable cache directory mid-run is an environment
/// error the user must see, not a silent performance cliff.
///
/// This is the one-shot form: it runs on an ephemeral [`UnitPool`] that dies with
/// the call. Persistent clients construct their own pool.
pub fn run_plans_cached(
    plans: Vec<ScenarioPlan<'_>>,
    jobs: usize,
    cache: Option<&UnitCache>,
) -> Result<Vec<PlanOutcome>, String> {
    UnitPool::new(jobs).run_plans_cached(plans, cache)
}

/// The per-plan result of a sharded execution pass ([`run_plans_shard`]): no
/// report — foreign units have no outputs, so nothing can assemble — just the
/// partition accounting the shard's manifest and partial artifacts record.
pub struct ShardPlanOutcome {
    /// Cache accounting over the plan's *owned* units only.
    pub cache: CacheCounts,
    /// Total units in the plan, across all shards.
    pub units_total: u64,
    /// The owned (executed) units, in plan order.
    pub executed: Vec<ExecutedUnit>,
}

/// Execute only the units of each plan that `shard` owns under the deterministic
/// [`UnitKey`](crate::cache::UnitKey)-digest partition, discarding their in-memory
/// outputs (a shard's product is its cache entries, not a report). Returns one
/// [`ShardPlanOutcome`] per plan, in input order.
///
/// Every unit must carry a cache key: a keyless unit has no digest to partition on
/// and no way to meet the other shards in a cache, so plans with uncacheable units
/// are rejected (the runner names the offending scenario before calling this).
/// Owned units still consult `cache` before running — a warm shard run is all-hits,
/// exactly like a warm unsharded one.
pub fn run_plans_shard(
    plans: Vec<ScenarioPlan<'_>>,
    jobs: usize,
    cache: Option<&UnitCache>,
    shard: &ShardSpec,
) -> Result<Vec<ShardPlanOutcome>, String> {
    let pool = UnitPool::new(jobs);
    let mut owned: Vec<PlanUnit<'_>> = Vec::new();
    let mut spans = Vec::with_capacity(plans.len());
    let mut outcomes: Vec<ShardPlanOutcome> = Vec::with_capacity(plans.len());
    for (plan_idx, plan) in plans.into_iter().enumerate() {
        let (units, _assemble) = plan.into_parts();
        let start = owned.len();
        let mut executed = Vec::new();
        let units_total = units.len() as u64;
        for unit in units {
            let Some((key, _)) = &unit.cache else {
                return Err(format!(
                    "plan #{plan_idx} contains units without cache keys; \
                     sharded execution requires every unit to be cacheable"
                ));
            };
            if shard.owns(key) {
                executed.push(ExecutedUnit {
                    grid_index: key.grid_index,
                    replication_index: key.replication_index,
                    digest: key.digest(),
                });
                owned.push(unit);
            }
        }
        spans.push(start..owned.len());
        outcomes.push(ShardPlanOutcome {
            cache: CacheCounts::default(),
            units_total,
            executed,
        });
    }

    let events = pool.execute_units(owned, cache, None)?;
    for (outcome, span) in outcomes.iter_mut().zip(spans) {
        for (_output, event) in &events[span] {
            outcome.cache.record(*event);
        }
    }
    Ok(outcomes)
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

/// The state of one in-flight unit computation, keyed by digest in
/// [`UnitPool::flights`]. Waiters block on `done` until the owner publishes the
/// encoded payload (or fails, sending them back to claim ownership themselves).
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    /// The owner is still computing.
    Pending,
    /// The owner published the encoded payload.
    Done(Value),
    /// The owner aborted (store error propagation or a panic unwound through
    /// its guard); a waiter should retry ownership.
    Failed,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        })
    }

    /// Block until the flight resolves; `Ok(Some(payload))` on success,
    /// `Ok(None)` when the owner failed and ownership should be re-contested,
    /// `Err(Cancelled)` when the caller's probe fired while waiting (the
    /// flight itself is untouched — its owner and other waiters are foreign).
    fn wait(&self, cancel: Option<Cancel<'_>>) -> Result<Option<Value>, Cancelled> {
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        let mut state = self.state.lock().expect("no worker panicked");
        loop {
            match &*state {
                FlightState::Done(payload) => return Ok(Some(payload.clone())),
                FlightState::Failed => return Ok(None),
                FlightState::Pending => match cancel {
                    None => {
                        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
                        state = self.done.wait(state).expect("no worker panicked");
                    }
                    Some(probe) => {
                        if probe() {
                            return Err(Cancelled);
                        }
                        let (next, _timed_out) = self
                            .done
                            .wait_timeout(state, CANCEL_POLL)
                            // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
                            .expect("no worker panicked");
                        state = next;
                    }
                },
            }
        }
    }

    fn resolve(&self, state: FlightState) {
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        *self.state.lock().expect("no worker panicked") = state;
        self.done.notify_all();
    }
}

/// Removes the flight from the table on drop, failing it first unless the owner
/// completed it — so a panicking unit closure can never strand waiters.
struct FlightGuard<'p> {
    pool: &'p UnitPool,
    digest: u128,
    flight: Arc<Flight>,
    completed: bool,
}

impl FlightGuard<'_> {
    /// Publish the payload to every waiter and deregister the flight.
    fn complete(mut self, payload: Value) {
        self.flight.resolve(FlightState::Done(payload));
        self.completed = true;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.flight.resolve(FlightState::Failed);
        }
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        let mut flights = self.pool.flights.lock().expect("no worker panicked");
        flights.remove(&self.digest);
    }
}

/// What [`UnitPool::claim_flight`] handed this worker for a digest.
enum FlightClaim {
    /// This worker owns the computation (and must resolve the flight).
    Owner,
    /// Another worker owns it; wait on this flight.
    Waiter(Arc<Flight>),
}

/// A counting semaphore over compute slots: at most `total` unit closures run
/// concurrently across every client of the pool. Cache and memory hits bypass the
/// gate — warm serving never queues behind cold computation.
struct Gate {
    permits: Mutex<usize>,
    freed: Condvar,
    /// The full permit budget, for occupancy reporting (`total - available`).
    total: usize,
}

impl Gate {
    /// Take one compute permit, blocking while none are free. With a probe,
    /// the queued wait polls it every [`CANCEL_POLL`] and gives up with
    /// `Err(Cancelled)` instead of computing for a caller that is gone.
    fn acquire(&self, cancel: Option<Cancel<'_>>) -> Result<GatePermit<'_>, Cancelled> {
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        let mut permits = self.permits.lock().expect("no worker panicked");
        while *permits == 0 {
            match cancel {
                None => {
                    // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
                    permits = self.freed.wait(permits).expect("no worker panicked");
                }
                Some(probe) => {
                    if probe() {
                        return Err(Cancelled);
                    }
                    let (next, _timed_out) = self
                        .freed
                        .wait_timeout(permits, CANCEL_POLL)
                        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
                        .expect("no worker panicked");
                    permits = next;
                }
            }
        }
        *permits -= 1;
        Ok(GatePermit { gate: self })
    }

    /// Permits currently held by running unit closures.
    fn in_use(&self) -> usize {
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        let available = *self.permits.lock().expect("no worker panicked");
        self.total.saturating_sub(available)
    }
}

/// RAII compute permit; releasing wakes one queued worker.
struct GatePermit<'g> {
    gate: &'g Gate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        *self.gate.permits.lock().expect("no worker panicked") += 1;
        self.gate.freed.notify_one();
    }
}

/// A persistent unit scheduler (see the module docs): compute-permit gate, warm
/// in-memory result map and single-flight deduplication, shared by every client
/// for the pool's lifetime. One-shot batches construct one per call; a daemon
/// keeps one for its whole life.
pub struct UnitPool {
    /// The raw `jobs` knob (0 = one per core), resolved per call against the
    /// actual unit count exactly like the one-shot executor always did.
    jobs: usize,
    gate: Gate,
    /// Digest → encoded payload for every completed cacheable unit whose payload
    /// survives a JSON round trip (the same admission rule as the disk cache, so
    /// memory and disk never disagree about which units are served warm).
    mem: Mutex<HashMap<u128, Value>>,
    /// Digest → in-flight computation, for single-flight deduplication.
    flights: Mutex<HashMap<u128, Arc<Flight>>>,
}

/// A test probe into [`UnitPool::run_unit`]'s claim path.
#[cfg(test)]
type RaceHook = fn(&UnitPool, u128);

#[cfg(test)]
thread_local! {
    /// Runs in [`UnitPool::run_unit`] on this thread after the caller's
    /// memory miss and before the flight claim, so tests can land a foreign
    /// owner's publication in that window.
    static BETWEEN_MISS_AND_CLAIM: std::cell::Cell<Option<RaceHook>> =
        const { std::cell::Cell::new(None) };
}

impl UnitPool {
    /// A pool admitting at most [`resolve_jobs`]`(jobs)` concurrent unit
    /// computations across all its clients.
    pub fn new(jobs: usize) -> UnitPool {
        let total = resolve_jobs(jobs).max(1);
        UnitPool {
            jobs,
            gate: Gate {
                permits: Mutex::new(total),
                freed: Condvar::new(),
                total,
            },
            mem: Mutex::new(HashMap::new()),
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Number of payloads currently held by the warm in-memory result map.
    pub fn mem_entries(&self) -> usize {
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        self.mem.lock().expect("no worker panicked").len()
    }

    /// The pool's full compute-permit budget (the resolved `jobs` knob).
    pub fn permits_total(&self) -> usize {
        self.gate.total
    }

    /// Compute permits currently held by running unit closures — the pool's
    /// instantaneous occupancy, `0..=permits_total()`.
    pub fn permits_in_use(&self) -> usize {
        self.gate.in_use()
    }

    /// Digests with a computation currently in flight (single-flight table
    /// occupancy): owners computing plus entries waiters are blocked on.
    pub fn flights_in_progress(&self) -> usize {
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        self.flights.lock().expect("no worker panicked").len()
    }

    /// Execute every plan's units and assemble one report per plan, in input
    /// order — the pool-client form of [`run_plans_cached`] (same semantics,
    /// plus this pool's memory cache, gate and deduplication).
    pub fn run_plans_cached(
        &self,
        plans: Vec<ScenarioPlan<'_>>,
        cache: Option<&UnitCache>,
    ) -> Result<Vec<PlanOutcome>, String> {
        self.run_plans_cached_with(plans, cache, None)
    }

    /// [`UnitPool::run_plans_cached`] with an optional per-unit progress
    /// observer (used by the serve layer to stream progress events).
    pub fn run_plans_cached_with(
        &self,
        plans: Vec<ScenarioPlan<'_>>,
        cache: Option<&UnitCache>,
        progress: Option<Progress<'_>>,
    ) -> Result<Vec<PlanOutcome>, String> {
        self.run_plans_cancellable(plans, cache, progress, None)
    }

    /// [`UnitPool::run_plans_cached_with`] plus an optional cancellation
    /// probe. When the probe fires the call stops claiming units, abandons
    /// any gate/flight queue position it holds, and fails with
    /// [`CANCELLED_MSG`]; flights this call owned resolve as failed so
    /// foreign waiters re-contest ownership, and everything already published
    /// to the pool's caches stays valid for future callers.
    pub fn run_plans_cancellable(
        &self,
        plans: Vec<ScenarioPlan<'_>>,
        cache: Option<&UnitCache>,
        progress: Option<Progress<'_>>,
        cancel: Option<Cancel<'_>>,
    ) -> Result<Vec<PlanOutcome>, String> {
        let mut assembles = Vec::with_capacity(plans.len());
        let mut tasks = Vec::new();
        let mut spans = Vec::with_capacity(plans.len());
        for plan in plans {
            let (units, assemble) = plan.into_parts();
            let start = tasks.len();
            tasks.extend(units);
            spans.push(start..tasks.len());
            assembles.push(assemble);
        }

        let executed = self.execute_units_cancellable(tasks, cache, progress, cancel)?;

        let mut executed: Vec<Option<(UnitOutput, CacheEvent)>> =
            executed.into_iter().map(Some).collect();
        Ok(assembles
            .into_iter()
            .zip(spans)
            .map(|(assemble, span)| {
                let mut counts = CacheCounts::default();
                let plan_outputs: Vec<UnitOutput> = executed[span]
                    .iter_mut()
                    .map(|slot| {
                        // audit:allow(unwrap-in-library): each slot is filled by the pool and drained exactly once here
                        let (output, event) = slot.take().expect("each unit output consumed once");
                        counts.record(event);
                        output
                    })
                    .collect();
                PlanOutcome {
                    report: assemble(plan_outputs),
                    cache: counts,
                }
            })
            .collect())
    }

    /// The warm map's payload for a digest, if any.
    fn mem_payload(&self, digest: u128) -> Option<Value> {
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        let mem = self.mem.lock().expect("no worker panicked");
        mem.get(&digest).cloned()
    }

    /// Admit a payload to the warm map under the disk cache's round-trip rule.
    fn store_mem(&self, digest: u128, payload: &Value) {
        if !crate::cache::json_round_trips(payload) {
            return;
        }
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        let mut mem = self.mem.lock().expect("no worker panicked");
        mem.insert(digest, payload.clone());
    }

    /// Register interest in a digest: either this worker becomes the owner (and
    /// must resolve the flight through a [`FlightGuard`]) or it gets the
    /// existing flight to wait on.
    fn claim_flight(&self, digest: u128) -> FlightClaim {
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        let mut flights = self.flights.lock().expect("no worker panicked");
        match flights.get(&digest) {
            Some(flight) => FlightClaim::Waiter(Arc::clone(flight)),
            None => {
                flights.insert(digest, Flight::new());
                FlightClaim::Owner
            }
        }
    }

    fn flight_guard(&self, digest: u128) -> FlightGuard<'_> {
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        let flights = self.flights.lock().expect("no worker panicked");
        // audit:allow(unwrap-in-library): claim_flight inserted this digest for the owning worker
        let flight = Arc::clone(flights.get(&digest).expect("owner's flight is registered"));
        drop(flights);
        FlightGuard {
            pool: self,
            digest,
            flight,
            completed: false,
        }
    }

    /// Run one claimed unit (a memory miss at the caller's inline pass) through
    /// single-flight → memory map → disk cache → gated computation. Returns
    /// the output, the cache event, and any store
    /// error — or `Err(Cancelled)` when the caller's probe fired while queued
    /// (a flight this worker owned resolves as failed via its guard, waking
    /// foreign waiters to re-contest).
    #[allow(clippy::type_complexity)]
    fn run_unit(
        &self,
        unit: PlanUnit<'_>,
        cache: Option<&UnitCache>,
        cancel: Option<Cancel<'_>>,
    ) -> Result<(UnitOutput, CacheEvent, Option<String>), Cancelled> {
        let Some((key, codec)) = &unit.cache else {
            let _permit = self.gate.acquire(cancel)?;
            return Ok(((unit.run)(), CacheEvent::Uncached, None));
        };
        let digest = key.digest_u128();
        #[cfg(test)]
        if let Some(hook) = BETWEEN_MISS_AND_CLAIM.get() {
            hook(self, digest);
        }
        // Plain batches over a fresh pool keep the historical accounting: with no
        // disk cache configured, computed units are uncached, not misses.
        let base_event = if cache.is_some() {
            CacheEvent::Miss
        } else {
            CacheEvent::Uncached
        };
        loop {
            match self.claim_flight(digest) {
                FlightClaim::Waiter(flight) => match flight.wait(cancel)? {
                    Some(payload) => match (codec.decode)(&payload) {
                        // Deduplicated: another client computed this unit while
                        // we waited. Byte-identical by the purity contract.
                        Some(output) => return Ok((output, CacheEvent::Hit, None)),
                        // A payload this codec cannot read (digest collision
                        // across incompatible unit types — not constructible
                        // from well-formed scenarios). Compute it directly.
                        None => {
                            let _permit = self.gate.acquire(cancel)?;
                            return Ok(((unit.run)(), base_event, None));
                        }
                    },
                    // The owner failed; contest ownership again.
                    None => continue,
                },
                FlightClaim::Owner => {
                    let guard = self.flight_guard(digest);
                    // Checked under ownership, not before the claim: an owner
                    // publishes to the map before retiring its flight, so a
                    // unit computed since the caller's miss is served from
                    // the map here instead of being computed a second time.
                    if let Some(payload) = self.mem_payload(digest) {
                        if let Some(output) = (codec.decode)(&payload) {
                            guard.complete(payload);
                            return Ok((output, CacheEvent::Hit, None));
                        }
                    }
                    let mut event = base_event;
                    if let Some(cache) = cache {
                        match cache.load(key) {
                            CacheLookup::Hit(payload) => match (codec.decode)(&payload) {
                                Some(output) => {
                                    self.store_mem(digest, &payload);
                                    guard.complete(payload);
                                    return Ok((output, CacheEvent::Hit, None));
                                }
                                None => {
                                    // Checksum-intact but shape-incompatible
                                    // payload (e.g. a unit output type changed
                                    // without a schema bump): evict, recompute.
                                    cache.evict(key);
                                    event = CacheEvent::Recomputed;
                                }
                            },
                            CacheLookup::Corrupt => event = CacheEvent::Recomputed,
                            CacheLookup::Miss => {}
                        }
                    }
                    let output = {
                        // A cancelled gate wait drops `guard` un-completed:
                        // the flight resolves Failed and waiters re-contest.
                        let _permit = self.gate.acquire(cancel)?;
                        (unit.run)()
                    };
                    let payload = (codec.encode)(&*output);
                    let store_err = cache.and_then(|c| c.store(key, &payload).err());
                    self.store_mem(digest, &payload);
                    guard.complete(payload);
                    return Ok((output, event, store_err));
                }
            }
        }
    }

    /// Run the flattened unit list, returning (output, cache event) by unit
    /// index. Spawns up to `jobs` claim-loop workers for this call; the pool's
    /// gate additionally bounds *computation* across every concurrent call.
    fn execute_units(
        &self,
        tasks: Vec<PlanUnit<'_>>,
        cache: Option<&UnitCache>,
        progress: Option<Progress<'_>>,
    ) -> Result<Vec<(UnitOutput, CacheEvent)>, String> {
        self.execute_units_cancellable(tasks, cache, progress, None)
    }

    /// [`UnitPool::execute_units`] with an optional cancellation probe (see
    /// [`UnitPool::run_plans_cancellable`] for the abort semantics).
    ///
    /// Warm-map hits are resolved first, inline on the calling thread under one
    /// lock acquisition, and reported to `progress` in unit order. Only the
    /// residual units reach the claim loop — and with it the workers, the
    /// cancellation probe, the gate and the flight table — so an all-hit call
    /// spawns no thread and never probes.
    fn execute_units_cancellable(
        &self,
        tasks: Vec<PlanUnit<'_>>,
        cache: Option<&UnitCache>,
        progress: Option<Progress<'_>>,
        cancel: Option<Cancel<'_>>,
    ) -> Result<Vec<(UnitOutput, CacheEvent)>, String> {
        let total = tasks.len();
        let mut tasks: Vec<Option<PlanUnit<'_>>> = tasks.into_iter().map(Some).collect();
        let mut slots: Vec<Option<(UnitOutput, CacheEvent)>> = (0..total).map(|_| None).collect();
        let mut hits = 0;
        {
            // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
            let mem = self.mem.lock().expect("no worker panicked");
            // A fresh pool (every one-shot batch) has nothing to look up.
            if !mem.is_empty() {
                for (task, slot) in tasks.iter_mut().zip(&mut slots) {
                    let Some(Some((key, codec))) = task.as_ref().map(|unit| &unit.cache) else {
                        continue;
                    };
                    if let Some(output) =
                        mem.get(&key.digest_u128()).and_then(|p| (codec.decode)(p))
                    {
                        *slot = Some((output, CacheEvent::Hit));
                        *task = None;
                        hits += 1;
                    }
                }
            }
        }
        let completed = AtomicUsize::new(hits);
        let report_progress = |n: usize| {
            if let Some(progress) = progress {
                progress(n, total);
            }
        };
        (1..=hits).for_each(report_progress);

        let probe_cancel = || cancel.is_some_and(|probe| probe());
        // Same jobs-resolution rules as every other work-stealing layer. The claim
        // loop below is not `work_steal_map` itself only because plan units are
        // `FnOnce` (consumed on execution), which that Fn-based API cannot express.
        let pending = total - hits;
        let jobs = desim::par::resolve_threads(self.jobs, pending);
        if jobs <= 1 || pending <= 1 {
            for (i, unit) in tasks.into_iter().enumerate() {
                let Some(unit) = unit else { continue };
                if probe_cancel() {
                    return Err(CANCELLED_MSG.to_string());
                }
                let Ok((output, event, store_err)) = self.run_unit(unit, cache, cancel) else {
                    return Err(CANCELLED_MSG.to_string());
                };
                if let Some(err) = store_err {
                    return Err(err);
                }
                slots[i] = Some((output, event));
                report_progress(completed.fetch_add(1, Ordering::Relaxed) + 1);
            }
            return Ok(filled(slots));
        }

        let next = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let residual: Vec<usize> = (0..total).filter(|&i| tasks[i].is_some()).collect();
        let tasks = Mutex::new(tasks);
        let slots = Mutex::new(slots);
        let store_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    if probe_cancel() {
                        cancelled.store(true, Ordering::Relaxed);
                        next.store(pending, Ordering::Relaxed);
                        break;
                    }
                    let claim = next.fetch_add(1, Ordering::Relaxed);
                    if claim >= pending {
                        break;
                    }
                    let i = residual[claim];
                    // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
                    let unit = tasks.lock().expect("no worker panicked")[i]
                        .take()
                        // audit:allow(unwrap-in-library): the claim counter hands each index to exactly one worker
                        .expect("each unit claimed once");
                    let Ok((output, event, store_err)) = self.run_unit(unit, cache, cancel) else {
                        // The batch is abandoned: stop every worker and let the
                        // cancelled flag (checked before slots) carry the error.
                        cancelled.store(true, Ordering::Relaxed);
                        next.store(pending, Ordering::Relaxed);
                        break;
                    };
                    if let Some(err) = store_err {
                        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
                        store_errors.lock().expect("no worker panicked").push(err);
                        // The batch is already doomed (its outputs will be discarded):
                        // exhaust the claim counter so no worker pays for more units.
                        next.store(pending, Ordering::Relaxed);
                    }
                    // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
                    slots.lock().expect("no worker panicked")[i] = Some((output, event));
                    report_progress(completed.fetch_add(1, Ordering::Relaxed) + 1);
                });
            }
        });
        if cancelled.load(Ordering::Relaxed) {
            return Err(CANCELLED_MSG.to_string());
        }
        if let Some(err) = store_errors
            .into_inner()
            // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
            .expect("no worker panicked")
            .into_iter()
            .next()
        {
            return Err(err);
        }
        // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
        Ok(filled(slots.into_inner().expect("no worker panicked")))
    }
}

/// Unwrap a completed call's per-unit slots, in unit order.
fn filled(slots: Vec<Option<(UnitOutput, CacheEvent)>>) -> Vec<(UnitOutput, CacheEvent)> {
    slots
        .into_iter()
        // audit:allow(unwrap-in-library): the inline memory pass and the claim loop together filled every slot
        .map(|slot| slot.expect("every unit ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::UnitKeyer;
    use crate::report::ScenarioReport;
    use serde::Value;
    use std::sync::atomic::AtomicUsize;

    fn plan_squaring<'s>(name: &'s str, n: usize) -> ScenarioPlan<'s> {
        let units: Vec<_> = (0..n).map(|i| move || i * i).collect();
        ScenarioPlan::map_reduce(units, move |squares: Vec<usize>| {
            let mut report = ScenarioReport::new(name, "squares", 0, Value::Map(vec![]));
            for (i, sq) in squares.iter().enumerate() {
                report = report.with_metric(&format!("sq{i}"), *sq as f64);
            }
            report
        })
    }

    /// Like `plan_squaring` but cacheable: every unit carries a key, and executions
    /// are counted so tests can prove which units actually ran.
    fn plan_squaring_cached<'s>(
        name: &'s str,
        n: usize,
        runs: &'s AtomicUsize,
    ) -> ScenarioPlan<'s> {
        let keyer = UnitKeyer::new(name, &Value::Map(vec![]), 1);
        let units: Vec<_> = (0..n)
            .map(|i| {
                (keyer.key(i, 0), move || {
                    runs.fetch_add(1, Ordering::Relaxed);
                    i * i
                })
            })
            .collect();
        ScenarioPlan::cached_map_reduce(units, move |squares: Vec<usize>| {
            let mut report = ScenarioReport::new(name, "squares", 0, Value::Map(vec![]));
            for (i, sq) in squares.iter().enumerate() {
                report = report.with_metric(&format!("sq{i}"), *sq as f64);
            }
            report
        })
    }

    #[test]
    fn outputs_arrive_in_unit_order_for_any_job_count() {
        for jobs in [1, 2, 8] {
            let report = run_plan(plan_squaring("sq", 40), jobs);
            for i in 0..40 {
                assert_eq!(
                    report.metric(&format!("sq{i}")),
                    Some((i * i) as f64),
                    "jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn plans_keep_their_outputs_separate() {
        let reports = run_plans(vec![plan_squaring("a", 7), plan_squaring("b", 13)], 4);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].scenario, "a");
        assert_eq!(reports[0].metrics.len(), 7);
        assert_eq!(reports[1].scenario, "b");
        assert_eq!(reports[1].metrics.len(), 13);
    }

    #[test]
    fn single_plan_runs_whole_scenario_as_one_unit() {
        let plan = ScenarioPlan::single(|| {
            ScenarioReport::new("one", "single unit", 7, Value::Map(vec![])).with_metric("x", 1.0)
        });
        assert_eq!(plan.unit_count(), 1);
        assert_eq!(plan.cacheable_unit_count(), 0);
        let report = run_plan(plan, 8);
        assert_eq!(report.scenario, "one");
        assert_eq!(report.metric("x"), Some(1.0));
    }

    #[test]
    fn resolve_jobs_maps_zero_to_available_parallelism() {
        assert_eq!(resolve_jobs(0), desim::par::available_threads());
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn warm_plan_is_served_from_cache_without_running_units() {
        let root = std::env::temp_dir().join(format!("pim-exec-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = UnitCache::open(&root).unwrap();
        let runs = AtomicUsize::new(0);

        let cold = run_plans_cached(vec![plan_squaring_cached("sq", 20, &runs)], 4, Some(&cache))
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 20);
        assert_eq!(
            cold.cache,
            CacheCounts {
                hits: 0,
                misses: 20,
                recomputed: 0
            }
        );

        // Warm: every unit hits, no closure runs, report is identical — at a
        // different job count, so hit behaviour is claim-order independent.
        for jobs in [1, 8] {
            let warm = run_plans_cached(
                vec![plan_squaring_cached("sq", 20, &runs)],
                jobs,
                Some(&cache),
            )
            .unwrap()
            .pop()
            .unwrap();
            assert_eq!(
                runs.load(Ordering::Relaxed),
                20,
                "jobs={jobs}: units re-ran"
            );
            assert_eq!(
                warm.cache,
                CacheCounts {
                    hits: 20,
                    misses: 0,
                    recomputed: 0
                }
            );
            assert_eq!(warm.report.to_json(), cold.report.to_json(), "jobs={jobs}");
        }

        // Without the cache handle the same plan runs everything again.
        let uncached = run_plans_cached(vec![plan_squaring_cached("sq", 20, &runs)], 2, None)
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 40);
        assert_eq!(uncached.cache, CacheCounts::default());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn changed_key_fields_miss_instead_of_hitting() {
        let root = std::env::temp_dir().join(format!("pim-exec-keys-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = UnitCache::open(&root).unwrap();
        let runs = AtomicUsize::new(0);
        fn plan_with_seed(seed: u64, runs: &AtomicUsize) -> ScenarioPlan<'_> {
            let keyer = UnitKeyer::new("sq", &Value::Map(vec![]), seed);
            let units: Vec<_> = (0..4usize)
                .map(|i| {
                    (keyer.key(i, 0), move || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        i
                    })
                })
                .collect();
            ScenarioPlan::cached_map_reduce(units, |_: Vec<usize>| {
                ScenarioReport::new("sq", "d", 0, Value::Map(vec![]))
            })
        }
        run_plans_cached(vec![plan_with_seed(1, &runs)], 2, Some(&cache)).unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 4);
        // A different seed addresses different entries: all units run again.
        let other = run_plans_cached(vec![plan_with_seed(2, &runs)], 2, Some(&cache))
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 8);
        assert_eq!(other.cache.misses, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn persistent_pool_serves_repeat_batches_from_memory() {
        // No disk cache anywhere: the pool's own result map must carry the
        // warmth across batches, which an ephemeral pool cannot do.
        let pool = UnitPool::new(4);
        let runs = AtomicUsize::new(0);
        let cold = pool
            .run_plans_cached(vec![plan_squaring_cached("sq", 12, &runs)], None)
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 12);
        assert_eq!(pool.mem_entries(), 12);
        let warm = pool
            .run_plans_cached(vec![plan_squaring_cached("sq", 12, &runs)], None)
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(
            runs.load(Ordering::Relaxed),
            12,
            "memory-warm batch re-ran units"
        );
        assert_eq!(warm.cache.hits, 12);
        assert_eq!(warm.report.to_json(), cold.report.to_json());
    }

    /// Spin until `cond` holds (the pool exposes occupancy, not wakeups).
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("condition never became true: {what}");
    }

    #[test]
    fn occupancy_counters_expose_gate_and_flight_tables() {
        let pool = UnitPool::new(2);
        assert_eq!(pool.permits_total(), 2);
        assert_eq!(pool.permits_in_use(), 0);
        assert_eq!(pool.flights_in_progress(), 0);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let keyer = UnitKeyer::new("occ", &Value::Map(vec![]), 9);
                let units = vec![(keyer.key(0, 0), move || {
                    rx.recv().unwrap();
                    7usize
                })];
                let plan = ScenarioPlan::cached_map_reduce(units, |_: Vec<usize>| {
                    ScenarioReport::new("occ", "d", 0, Value::Map(vec![]))
                });
                pool.run_plans_cached(vec![plan], None).unwrap();
            });
            wait_for("one permit held and one flight registered", || {
                pool.permits_in_use() == 1 && pool.flights_in_progress() == 1
            });
            tx.send(()).unwrap();
            handle.join().unwrap();
        });
        assert_eq!(pool.permits_in_use(), 0);
        assert_eq!(pool.flights_in_progress(), 0);
        assert_eq!(pool.mem_entries(), 1);
    }

    #[test]
    fn a_cancelled_call_fails_without_running_units_and_the_pool_survives() {
        let pool = UnitPool::new(2);
        let runs = AtomicUsize::new(0);
        let probe = || true;
        let Err(err) = pool.run_plans_cancellable(
            vec![plan_squaring_cached("sq", 8, &runs)],
            None,
            None,
            Some(&probe),
        ) else {
            panic!("cancelled call succeeded");
        };
        assert_eq!(err, CANCELLED_MSG);
        assert_eq!(runs.load(Ordering::Relaxed), 0, "cancelled call ran units");
        assert_eq!(pool.flights_in_progress(), 0);
        assert_eq!(pool.permits_in_use(), 0);
        // The pool is fully reusable afterwards.
        let outcome = pool
            .run_plans_cached(vec![plan_squaring_cached("sq", 8, &runs)], None)
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 8);
        assert_eq!(outcome.report.metrics.len(), 8);
    }

    #[test]
    fn a_cancelled_flight_owner_fails_over_to_foreign_waiters() {
        // Client A owns unit U's flight but is queued on the (fully occupied)
        // gate when its client vanishes. Cancelling A must fail its flight so
        // client B — a foreign waiter on the same digest — re-contests
        // ownership and computes U itself once a permit frees up.
        let pool = UnitPool::new(1);
        assert_eq!(pool.permits_total(), 1);
        let runs = AtomicUsize::new(0);
        let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
        let cancel_a = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // X holds the pool's only compute permit until told to finish.
            let x = scope.spawn(|| {
                let plan = ScenarioPlan::single(move || {
                    block_rx.recv().unwrap();
                    ScenarioReport::new("block", "d", 0, Value::Map(vec![]))
                });
                pool.run_plans_cached(vec![plan], None).unwrap();
            });
            wait_for("X holds the only permit", || pool.permits_in_use() == 1);

            // A claims U's flight, then blocks on the gate behind X.
            let a = scope.spawn(|| {
                let probe = || cancel_a.load(Ordering::Relaxed);
                pool.run_plans_cancellable(
                    vec![plan_squaring_cached("u", 1, &runs)],
                    None,
                    None,
                    Some(&probe),
                )
            });
            wait_for("A registered U's flight", || {
                pool.flights_in_progress() == 1
            });

            // B waits on A's flight (same digest, no cancellation).
            let b = scope
                .spawn(|| pool.run_plans_cached(vec![plan_squaring_cached("u", 1, &runs)], None));
            std::thread::sleep(Duration::from_millis(100));

            cancel_a.store(true, Ordering::Relaxed);
            let Err(err) = a.join().unwrap() else {
                panic!("cancelled owner succeeded");
            };
            assert_eq!(err, CANCELLED_MSG);
            assert_eq!(
                runs.load(Ordering::Relaxed),
                0,
                "cancelled owner computed U"
            );

            // B survives A's cancellation: it re-contests, computes U once the
            // permit frees, and produces the correct report.
            block_tx.send(()).unwrap();
            x.join().unwrap();
            let outcome = b.join().unwrap().unwrap().pop().unwrap();
            assert_eq!(runs.load(Ordering::Relaxed), 1);
            assert_eq!(outcome.report.metric("sq0"), Some(0.0));
        });
        assert_eq!(pool.flights_in_progress(), 0);
        assert_eq!(pool.permits_in_use(), 0);
    }

    #[test]
    fn concurrent_identical_batches_compute_each_unit_exactly_once() {
        // N clients of one pool submit the same 16-unit plan at once. Single
        // flight means the closure bodies run exactly 16 times in total, and the
        // summed accounting shows one non-hit per unit — the rest are hits.
        const CLIENTS: usize = 6;
        const UNITS: usize = 16;
        let pool = UnitPool::new(4);
        let runs = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(CLIENTS);
        let outcomes: Vec<PlanOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        pool.run_plans_cached(vec![plan_squaring_cached("sq", UNITS, &runs)], None)
                            .unwrap()
                            .pop()
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            runs.load(Ordering::Relaxed),
            UNITS,
            "units recomputed despite single-flight deduplication"
        );
        let mut computed = 0;
        let mut hits = 0;
        for outcome in &outcomes {
            computed += outcome.cache.misses + outcome.cache.recomputed;
            hits += outcome.cache.hits;
            assert_eq!(
                outcome.report.to_json(),
                outcomes[0].report.to_json(),
                "concurrent clients saw different reports"
            );
        }
        // Accounting proof: with no disk cache, first-computation events are
        // "uncached" (invisible), so every counted event is a dedup/memory hit.
        assert_eq!(computed, 0);
        assert_eq!(hits as usize, CLIENTS * UNITS - UNITS);
    }

    #[test]
    fn pool_dedup_counts_one_miss_per_unit_with_a_disk_cache() {
        let root = std::env::temp_dir().join(format!("pim-exec-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = UnitCache::open(&root).unwrap();
        const CLIENTS: usize = 4;
        const UNITS: usize = 10;
        let pool = UnitPool::new(2);
        let runs = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(CLIENTS);
        let outcomes: Vec<PlanOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        pool.run_plans_cached(
                            vec![plan_squaring_cached("sq", UNITS, &runs)],
                            Some(&cache),
                        )
                        .unwrap()
                        .pop()
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::Relaxed), UNITS);
        let (mut misses, mut hits, mut recomputed) = (0, 0, 0);
        for outcome in &outcomes {
            misses += outcome.cache.misses;
            hits += outcome.cache.hits;
            recomputed += outcome.cache.recomputed;
        }
        assert_eq!(misses as usize, UNITS, "exactly one miss per unit key");
        assert_eq!(recomputed, 0);
        assert_eq!(hits as usize, CLIENTS * UNITS - UNITS);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_owner_serves_a_result_published_between_its_miss_and_its_claim() {
        // The single-flight race: a unit misses the warm map, then a foreign
        // owner publishes it and retires its flight, then this worker wins the
        // (now empty) flight table. The owner must serve the published payload
        // rather than compute the unit a second time. The hook is
        // thread-local, so every case keeps its residual units on the calling
        // thread: one job, or a single unit.
        BETWEEN_MISS_AND_CLAIM.set(Some(|pool, digest| pool.store_mem(digest, &Value::U64(7))));
        for (jobs, units) in [(1, 8), (4, 1)] {
            let pool = UnitPool::new(jobs);
            let runs = AtomicUsize::new(0);
            let outcome = pool
                .run_plans_cached(vec![plan_squaring_cached("sq", units, &runs)], None)
                .unwrap()
                .pop()
                .unwrap();
            assert_eq!(
                runs.load(Ordering::Relaxed),
                0,
                "jobs={jobs}: unit recomputed"
            );
            assert_eq!(outcome.cache.hits, units as u64, "jobs={jobs}");
            for i in 0..units {
                assert_eq!(outcome.report.metric(&format!("sq{i}")), Some(7.0));
            }
            assert_eq!(pool.flights_in_progress(), 0);
            assert_eq!(pool.permits_in_use(), 0);
        }
        BETWEEN_MISS_AND_CLAIM.set(None);
    }

    #[test]
    fn an_all_memory_hit_call_never_probes_and_reports_progress_in_order() {
        let pool = UnitPool::new(4);
        let runs = AtomicUsize::new(0);
        let cold = pool
            .run_plans_cached(vec![plan_squaring_cached("sq", 12, &runs)], None)
            .unwrap()
            .pop()
            .unwrap();
        let probes = AtomicUsize::new(0);
        let probe = || {
            probes.fetch_add(1, Ordering::Relaxed);
            false
        };
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let progress = |done: usize, total: usize| {
            seen.lock()
                .unwrap()
                .push((done, total, std::thread::current().id()));
        };
        let warm = pool
            .run_plans_cancellable(
                vec![plan_squaring_cached("sq", 12, &runs)],
                None,
                Some(&progress),
                Some(&probe),
            )
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 12, "warm call ran units");
        assert_eq!(probes.load(Ordering::Relaxed), 0, "warm call probed");
        // Every event comes from the calling thread: no worker was spawned.
        let expected: Vec<_> = (1..=12).map(|done| (done, 12, caller)).collect();
        assert_eq!(seen.into_inner().unwrap(), expected);
        assert_eq!(warm.cache.hits, 12);
        assert_eq!(warm.report.to_json(), cold.report.to_json());
    }

    #[test]
    fn only_residual_units_reach_the_cancel_probe() {
        // Units 0..6 are warm, 6..12 are cold. On a one-job pool the residual
        // runs inline, probed exactly once per unit it computes.
        let pool = UnitPool::new(1);
        let runs = AtomicUsize::new(0);
        pool.run_plans_cached(vec![plan_squaring_cached("sq", 6, &runs)], None)
            .unwrap();
        let probes = AtomicUsize::new(0);
        let probe = || {
            probes.fetch_add(1, Ordering::Relaxed);
            false
        };
        let seen = Mutex::new(Vec::new());
        let progress = |done: usize, total: usize| seen.lock().unwrap().push((done, total));
        let mixed = pool
            .run_plans_cancellable(
                vec![plan_squaring_cached("sq", 12, &runs)],
                None,
                Some(&progress),
                Some(&probe),
            )
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 12, "each unit computed once");
        assert_eq!(
            probes.load(Ordering::Relaxed),
            6,
            "one probe per computed unit"
        );
        let expected: Vec<_> = (1..=12).map(|done| (done, 12)).collect();
        assert_eq!(seen.into_inner().unwrap(), expected);
        assert_eq!(mixed.cache.hits, 6);
        let fresh = run_plans_cached(vec![plan_squaring_cached("sq", 12, &runs)], 2, None)
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(mixed.report.to_json(), fresh.report.to_json());

        // With four workers the residual is still the only probed work: one
        // probe per claimed unit plus one per worker's final, empty claim.
        let pool = UnitPool::new(4);
        pool.run_plans_cached(vec![plan_squaring_cached("sq", 6, &runs)], None)
            .unwrap();
        probes.store(0, Ordering::Relaxed);
        pool.run_plans_cancellable(
            vec![plan_squaring_cached("sq", 12, &runs)],
            None,
            None,
            Some(&probe),
        )
        .unwrap();
        assert_eq!(probes.load(Ordering::Relaxed), 6 + 4);
    }
}
