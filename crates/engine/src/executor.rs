//! Pooled, memoizing executors that plug the engine into `aid_core`.
//!
//! [`PooledSimExecutor`] is the simulator-backed workhorse: one
//! intervention batch becomes `groups × runs_per_round` single-run probes,
//! cache hits are peeled off, and only the misses are fanned across the
//! worker pool. Records are stitched back **in (group, run) order**, so the
//! answer is byte-identical to the serial `aid_sim::SimExecutor` with the
//! same `first_seed` — determinism is a structural property, not a test
//! hope.
//!
//! [`CachedOracleExecutor`] wraps the exact-counterfactual oracle for
//! synthetic (Figure 8) workloads: rounds are single deterministic records,
//! so there is nothing to fan out, but memoization still collapses repeated
//! sessions over the same ground truth.

use crate::cache::{CacheKey, InterventionCache, Lease, Leased, PendingSlot};
use crate::pool::WorkerPool;
use aid_core::{BatchExecutor, ExecutionRecord, Executor, GroundTruth, OracleExecutor};
use aid_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use aid_predicates::{evaluate, PredicateCatalog, PredicateId};
use aid_sim::{plan_for, InterventionPlan, Simulator, VmError};
use aid_util::Fnv1a;
use std::sync::Arc;
use std::time::Instant;

/// Engine-wide execution counters (shared by every session's executor).
/// Backed by `aid_obs` handles so an engine built with a registry exposes
/// them as `{prefix}.*` metrics; a default-constructed set is detached.
#[derive(Debug)]
pub struct EngineCounters {
    /// Real executions performed (cache misses that ran).
    pub executions: Counter,
    /// Sessions completed.
    pub sessions: Counter,
    /// Sessions that ended in a typed error (a VM trap or a panic) instead
    /// of a result.
    pub failed: Counter,
    /// Non-blocking submissions refused (saturation or shutdown).
    pub rejected: Counter,
    /// Highest number of simultaneously pending sessions observed.
    pub peak_pending: Gauge,
    /// Wall time of each real execution (a simulator run or an oracle
    /// round); cache hits never record here.
    pub run_us: Histogram,
}

impl Default for EngineCounters {
    fn default() -> Self {
        EngineCounters {
            executions: Counter::detached(),
            sessions: Counter::detached(),
            failed: Counter::detached(),
            rejected: Counter::detached(),
            peak_pending: Gauge::detached(),
            run_us: Histogram::detached(false),
        }
    }
}

impl EngineCounters {
    /// Counters registered in `metrics` under `{prefix}.*` (the engine
    /// uses `engine.shard0`).
    pub fn with_metrics(metrics: &MetricsRegistry, prefix: &str) -> Self {
        EngineCounters {
            executions: metrics.counter(&format!("{prefix}.executions")),
            sessions: metrics.counter(&format!("{prefix}.sessions_completed")),
            failed: metrics.counter(&format!("{prefix}.sessions_failed")),
            rejected: metrics.counter(&format!("{prefix}.sessions_rejected")),
            peak_pending: metrics.gauge(&format!("{prefix}.peak_pending")),
            run_us: metrics.histogram(&format!("{prefix}.exec.run_us")),
        }
    }

    pub(crate) fn record_peak(&self, pending: u64) {
        self.peak_pending.record_max(pending);
    }
}

/// A [`BatchExecutor`] that runs simulator probes on the worker pool and
/// memoizes every (fingerprint, intervention set, seed) run.
///
/// Seed schedule: round `r`, run `i` uses seed
/// `first_seed + r * runs_per_round + i` — the same stream the serial
/// `SimExecutor` consumes, but computed positionally so that runs can
/// execute in any order on any worker without perturbing it.
pub struct PooledSimExecutor {
    sim: Arc<Simulator>,
    catalog: Arc<PredicateCatalog>,
    failure: PredicateId,
    runs_per_round: usize,
    first_seed: u64,
    rounds_issued: u64,
    fingerprint: u64,
    pool: Arc<WorkerPool>,
    cache: Arc<InterventionCache>,
    counters: Arc<EngineCounters>,
}

/// The (program, catalog, failure) fingerprint that keys simulator-backed
/// cache entries. It must cover everything a record depends on: the
/// program/config (run behavior), the catalog (raw predicate ids name
/// catalog entries, and `observed` is evaluated against it), and the
/// failure indicator. Two sessions over the same program with catalogs
/// from different observation phases must never share entries.
pub fn sim_fingerprint(sim: &Simulator, catalog: &PredicateCatalog, failure: PredicateId) -> u64 {
    Fnv1a::new()
        .write_u64(sim.fingerprint())
        .write(format!("{catalog:?}").as_bytes())
        .write_u64(failure.raw() as u64)
        .finish()
}

impl PooledSimExecutor {
    /// Builds the executor; `first_seed` should be disjoint from the seeds
    /// used for observation runs (same rule as `SimExecutor::new`).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sim: Arc<Simulator>,
        catalog: Arc<PredicateCatalog>,
        failure: PredicateId,
        runs_per_round: usize,
        first_seed: u64,
        pool: Arc<WorkerPool>,
        cache: Arc<InterventionCache>,
        counters: Arc<EngineCounters>,
    ) -> Self {
        assert!(runs_per_round >= 1);
        let fingerprint = sim_fingerprint(&sim, &catalog, failure);
        PooledSimExecutor {
            sim,
            catalog,
            failure,
            runs_per_round,
            first_seed,
            rounds_issued: 0,
            fingerprint,
            pool,
            cache,
            counters,
        }
    }

    /// Rounds issued so far.
    pub fn rounds_issued(&self) -> u64 {
        self.rounds_issued
    }

    /// The (program, catalog, failure) fingerprint keying this executor's
    /// cache entries.
    pub fn cache_fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl PooledSimExecutor {
    fn execute_one(&self, seed: u64, plan: &InterventionPlan) -> Result<ExecutionRecord, VmError> {
        let started = Instant::now();
        let trace = self.sim.try_run(seed, plan)?;
        self.counters.run_us.record_duration(started.elapsed());
        let obs = evaluate(&self.catalog, &trace);
        Ok(ExecutionRecord {
            failed: obs.holds(self.failure),
            observed: obs.observed,
        })
    }
}

impl BatchExecutor for PooledSimExecutor {
    fn intervene_batch(&mut self, groups: &[Vec<PredicateId>]) -> Vec<Vec<ExecutionRecord>> {
        let runs = self.runs_per_round;
        let mut results: Vec<Vec<Option<ExecutionRecord>>> =
            groups.iter().map(|_| vec![None; runs]).collect();
        // Phase 1 — lease every probe. Ready records land immediately;
        // leased misses become `owned` (we must execute them); keys another
        // session is executing right now become `waiting` (single-flight
        // coalescing: concurrent sessions over one program produce one
        // execution per run, not N).
        let mut owned: Vec<(usize, usize, Lease, u64, Arc<InterventionPlan>)> = Vec::new();
        let mut waiting: Vec<(usize, usize, Arc<PendingSlot>, u64, Arc<InterventionPlan>)> =
            Vec::new();
        for (gi, group) in groups.iter().enumerate() {
            let round = self.rounds_issued + gi as u64;
            // Lowered lazily: a fully-warm group (the common case on repeat
            // sessions) never pays for plan construction.
            let mut plan: Option<Arc<InterventionPlan>> = None;
            for (ri, slot) in results[gi].iter_mut().enumerate() {
                let seed = self.first_seed + round * runs as u64 + ri as u64;
                let key = CacheKey::new(self.fingerprint, group, seed);
                let lazy_plan = |plan: &mut Option<Arc<InterventionPlan>>| {
                    Arc::clone(plan.get_or_insert_with(|| Arc::new(plan_for(&self.catalog, group))))
                };
                match self.cache.lease(key) {
                    Leased::Ready(rec) => *slot = Some(rec),
                    Leased::Owner(lease) => {
                        let p = lazy_plan(&mut plan);
                        owned.push((gi, ri, lease, seed, p));
                    }
                    Leased::Waiter(pending) => {
                        let p = lazy_plan(&mut plan);
                        waiting.push((gi, ri, pending, seed, p));
                    }
                }
            }
        }
        // Phase 2 — execute everything we own on the pool and publish it.
        // Owners never wait before filling all their leases, so coalescing
        // cannot deadlock (no wait cycle can include an unfilled owner).
        // A probe that traps the VM (e.g. a return-value intervention on an
        // impure method) comes back as a *value* `Err`, not a panic: the
        // other probes' leases are still filled, and only then does this
        // session abort with the typed error. Trapped probes' leases drop
        // unfilled, so coalesced waiters fall back to executing inline and
        // observe the trap themselves.
        let mut trapped: Option<VmError> = None;
        if !owned.is_empty() {
            let jobs: Vec<Box<dyn FnOnce() -> Result<ExecutionRecord, VmError> + Send>> = owned
                .iter()
                .map(|&(_, _, _, seed, ref plan)| {
                    let sim = Arc::clone(&self.sim);
                    let catalog = Arc::clone(&self.catalog);
                    let plan = Arc::clone(plan);
                    let failure = self.failure;
                    let run_us = self.counters.run_us.clone();
                    Box::new(move || {
                        let started = Instant::now();
                        let trace = sim.try_run(seed, &plan)?;
                        run_us.record_duration(started.elapsed());
                        let obs = evaluate(&catalog, &trace);
                        Ok(ExecutionRecord {
                            failed: obs.holds(failure),
                            observed: obs.observed,
                        })
                    })
                        as Box<dyn FnOnce() -> Result<ExecutionRecord, VmError> + Send>
                })
                .collect();
            let records = self.pool.run_batch(jobs);
            for ((gi, ri, lease, _, _), rec) in owned.into_iter().zip(records) {
                match rec {
                    Ok(rec) => {
                        self.counters.executions.inc();
                        lease.fill(rec.clone());
                        results[gi][ri] = Some(rec);
                    }
                    Err(e) => {
                        drop(lease);
                        trapped.get_or_insert(e);
                    }
                }
            }
        }
        // Phase 3 — collect coalesced records. An abandoned slot (the
        // owner's job panicked or trapped) degrades to executing inline;
        // correctness never depends on another session's health.
        for (gi, ri, pending, seed, plan) in waiting {
            let waited = Instant::now();
            let published = pending.wait();
            self.cache.lease_wait_us().record_duration(waited.elapsed());
            match published
                .map(Ok)
                .unwrap_or_else(|| self.execute_one(seed, &plan))
            {
                Ok(rec) => results[gi][ri] = Some(rec),
                Err(e) => {
                    trapped.get_or_insert(e);
                }
            }
        }
        if let Some(e) = trapped {
            // Unwind with the typed error as payload; the engine's session
            // wrapper downcasts it back into a `SessionError::Trap`, so the
            // trap quarantines this session without poisoning the pool.
            std::panic::panic_any(e);
        }
        self.rounds_issued += groups.len() as u64;
        results
            .into_iter()
            .map(|group| {
                group
                    .into_iter()
                    .map(|r| r.expect("every probe is either a hit or an executed miss"))
                    .collect()
            })
            .collect()
    }
}

/// Fingerprint of a ground truth, for oracle-backed cache keys. FNV-1a over
/// the structure (n, parent forest, causal path).
pub fn truth_fingerprint(truth: &GroundTruth) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(truth.n as u64);
    for p in &truth.parent {
        h.write_u64(p.map_or(u64::MAX, |v| v as u64));
    }
    h.write_u64(truth.path.len() as u64);
    for &p in &truth.path {
        h.write_u64(p as u64);
    }
    h.finish()
}

/// A memoizing wrapper around the deterministic [`OracleExecutor`].
///
/// Only sound for the *exact* oracle: `aid_core::FlakyOracle` draws fresh
/// noise per call, so memoizing it would freeze the first draw — which is
/// why this type takes a [`GroundTruth`] and constructs the exact oracle
/// itself rather than accepting an arbitrary executor.
pub struct CachedOracleExecutor {
    oracle: OracleExecutor,
    fingerprint: u64,
    cache: Arc<InterventionCache>,
    counters: Arc<EngineCounters>,
}

impl CachedOracleExecutor {
    /// Wraps (and validates) a ground truth.
    pub fn new(
        truth: GroundTruth,
        cache: Arc<InterventionCache>,
        counters: Arc<EngineCounters>,
    ) -> Self {
        let fingerprint = truth_fingerprint(&truth);
        CachedOracleExecutor {
            oracle: OracleExecutor::new(truth),
            fingerprint,
            cache,
            counters,
        }
    }
}

impl Executor for CachedOracleExecutor {
    fn intervene(&mut self, predicates: &[PredicateId]) -> Vec<ExecutionRecord> {
        // One oracle round = one deterministic record; seed slot is 0.
        let key = CacheKey::new(self.fingerprint, predicates, 0);
        if let Some(rec) = self.cache.get(&key) {
            return vec![rec];
        }
        let started = Instant::now();
        let records = self.oracle.intervene(predicates);
        self.counters.run_us.record_duration(started.elapsed());
        self.counters.executions.inc();
        self.cache.insert(key, records[0].clone());
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aid_core::figure4_ground_truth;

    /// Same simulator, different catalogs (or failure ids) ⇒ different
    /// cache key spaces. Guards against serving one observation phase's
    /// records to a session extracted from another.
    #[test]
    fn cache_fingerprint_covers_catalog_and_failure() {
        use aid_predicates::{Predicate, PredicateKind};
        use aid_sim::ProgramBuilder;

        let mut b = ProgramBuilder::new("fp");
        let main = b.method("Main", |m| {
            m.compute(1);
        });
        b.thread("main", main, true);
        let sim = Arc::new(Simulator::new(b.build()));
        let pool = Arc::new(WorkerPool::new(1));
        let cache = Arc::new(InterventionCache::new(1));
        let counters = Arc::new(EngineCounters::default());

        let failure_pred = |name: &str| Predicate {
            kind: PredicateKind::Failure {
                signature: aid_trace::FailureSignature {
                    kind: name.into(),
                    method: aid_trace::MethodId::from_raw(0),
                },
            },
            safe: true,
            action: None,
        };
        let mut catalog_a = PredicateCatalog::new();
        let fail_a = catalog_a.insert(failure_pred("Boom"));
        let mut catalog_b = PredicateCatalog::new();
        let fail_b = catalog_b.insert(failure_pred("Crash"));

        let mk = |catalog: &PredicateCatalog, failure: PredicateId| {
            PooledSimExecutor::new(
                Arc::clone(&sim),
                Arc::new(catalog.clone()),
                failure,
                1,
                0,
                Arc::clone(&pool),
                Arc::clone(&cache),
                Arc::clone(&counters),
            )
            .cache_fingerprint()
        };
        let a = mk(&catalog_a, fail_a);
        assert_eq!(a, mk(&catalog_a, fail_a), "stable");
        assert_ne!(a, mk(&catalog_b, fail_b), "catalog is part of the key");
    }

    #[test]
    fn truth_fingerprint_distinguishes_structures() {
        let a = figure4_ground_truth();
        let mut b = figure4_ground_truth();
        assert_eq!(truth_fingerprint(&a), truth_fingerprint(&b));
        b.parent[3] = Some(4);
        assert_ne!(truth_fingerprint(&a), truth_fingerprint(&b));
    }

    #[test]
    fn cached_oracle_answers_repeats_from_memory() {
        let cache = Arc::new(InterventionCache::new(2));
        let counters = Arc::new(EngineCounters::default());
        let mut exec = CachedOracleExecutor::new(
            figure4_ground_truth(),
            Arc::clone(&cache),
            Arc::clone(&counters),
        );
        let p0 = [PredicateId::from_raw(0)];
        let first = exec.intervene(&p0);
        let again = exec.intervene(&p0);
        assert_eq!(first, again);
        assert_eq!(counters.executions.get(), 1, "second round cached");
        assert_eq!(cache.stats().hits, 1);
    }
}
