//! The engine: named discovery sessions scheduled over one worker pool.
//!
//! An [`Engine`] owns the pool, the shared intervention cache, and the
//! telemetry counters. Cloneable [`EngineHandle`]s queue named
//! [`DiscoveryJob`]s; each submission returns a [`Session`] ticket whose
//! [`Session::wait`] yields the per-session [`DiscoveryResult`].
//! Submission applies
//! backpressure: when `max_pending` sessions are already queued or running,
//! `submit` blocks the producer until capacity frees up — the engine never
//! buffers unboundedly.
//!
//! Determinism: a session's result is a pure function of its
//! [`DiscoveryJob`] (executors are seed-deterministic, and batch joins are
//! ordered by submission index), so results are identical across worker
//! counts and scheduling orders. The multi-worker vs single-worker tests in
//! `tests/determinism.rs` pin this for all six case studies.

use crate::cache::InterventionCache;
use crate::executor::{CachedOracleExecutor, EngineCounters, PooledSimExecutor};
use crate::pool::WorkerPool;
use aid_causal::AcDag;
use aid_core::{discover_with_options, DiscoverOptions, DiscoveryResult, GroundTruth, Strategy};
use aid_obs::MetricsRegistry;
use aid_predicates::{PredicateCatalog, PredicateId};
use aid_sim::{Simulator, VmError};
use crossbeam::channel::{self, Receiver, TryRecvError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Engine sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Lock shards of the intervention cache (rounded to a power of two).
    pub cache_shards: usize,
    /// Record bound of the intervention cache (segmented eviction above
    /// it), so a long-lived engine's memory stays flat.
    pub cache_capacity: usize,
    /// Backpressure bound: maximum sessions queued-or-running before
    /// [`EngineHandle::submit`] blocks the producer.
    pub max_pending: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            cache_shards: 16,
            // ~1M single-run records; a record is a bitset over the catalog
            // plus a flag, so this keeps steady-state memory modest while
            // comfortably covering many concurrent programs.
            cache_capacity: 1 << 20,
            max_pending: 8,
        }
    }
}

/// Where a session's executions come from.
pub enum JobSource {
    /// Simulator-backed discovery (the production pipeline): probes fan
    /// across the pool and memoize per (program, intervention set, seed).
    Sim {
        /// The program under test plus machine configuration.
        simulator: Arc<Simulator>,
        /// Predicate catalog from the observation phase.
        catalog: Arc<PredicateCatalog>,
        /// The grouped failure indicator.
        failure: PredicateId,
        /// Runs per intervention round (footnote 1 of the paper).
        runs_per_round: usize,
        /// First intervention seed (disjoint from observation seeds).
        first_seed: u64,
    },
    /// Exact-counterfactual oracle (synthetic / Figure 8 workloads).
    Oracle {
        /// The known causal structure.
        truth: GroundTruth,
    },
}

/// One named discovery session: program + strategy + options.
pub struct DiscoveryJob {
    /// Session name (returned on the matching [`SessionResult`]).
    pub name: String,
    /// The AC-DAG to discover over.
    pub dag: Arc<AcDag>,
    /// Discovery strategy.
    pub strategy: Strategy,
    /// Tie-breaking seed for the discovery algorithms.
    pub seed: u64,
    /// Extra discovery tuning.
    pub options: DiscoverOptions,
    /// Execution substrate.
    pub source: JobSource,
}

impl DiscoveryJob {
    /// A simulator-backed job with default options.
    #[allow(clippy::too_many_arguments)]
    pub fn sim(
        name: impl Into<String>,
        dag: Arc<AcDag>,
        simulator: Arc<Simulator>,
        catalog: Arc<PredicateCatalog>,
        failure: PredicateId,
        runs_per_round: usize,
        first_seed: u64,
        strategy: Strategy,
        seed: u64,
    ) -> Self {
        DiscoveryJob {
            name: name.into(),
            dag,
            strategy,
            seed,
            options: DiscoverOptions::default(),
            source: JobSource::Sim {
                simulator,
                catalog,
                failure,
                runs_per_round,
                first_seed,
            },
        }
    }

    /// An oracle-backed job with default options.
    pub fn oracle(
        name: impl Into<String>,
        dag: Arc<AcDag>,
        truth: GroundTruth,
        strategy: Strategy,
        seed: u64,
    ) -> Self {
        DiscoveryJob {
            name: name.into(),
            dag,
            strategy,
            seed,
            options: DiscoverOptions::default(),
            source: JobSource::Oracle { truth },
        }
    }
}

/// A finished session.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionResult {
    /// The job's name.
    pub name: String,
    /// The discovery outcome.
    pub result: DiscoveryResult,
}

/// Why a session produced no [`SessionResult`].
#[derive(Clone, Debug, PartialEq)]
pub struct SessionError {
    /// The job's name.
    pub name: String,
    /// What killed it.
    pub kind: SessionErrorKind,
}

/// The failure class of a [`SessionError`].
#[derive(Clone, Debug, PartialEq)]
pub enum SessionErrorKind {
    /// An execution backend reported a typed per-run error (e.g. a
    /// return-value intervention on an impure method trapped the bytecode
    /// VM). The partial run was discarded; the engine and its pool stay
    /// healthy.
    Trap(VmError),
    /// The job panicked mid-discovery (e.g. a malformed DAG whose
    /// predicate has no intervention). The payload's message, when it was
    /// a string.
    Panic(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            SessionErrorKind::Trap(e) => write!(f, "session '{}' trapped: {e}", self.name),
            SessionErrorKind::Panic(msg) => write!(f, "session '{}' panicked: {msg}", self.name),
        }
    }
}

impl std::error::Error for SessionError {}

/// Ticket for a queued session.
pub struct Session {
    name: String,
    rx: Receiver<Result<SessionResult, SessionError>>,
    /// Set once `try_wait` hands the outcome out. The worker drops its
    /// sender only after the send, so the channel alone would still read
    /// as empty (not disconnected) for a moment after delivery.
    delivered: AtomicBool,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("name", &self.name).finish()
    }
}

impl Session {
    /// The job's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks until the session finishes and returns its result.
    ///
    /// # Panics
    ///
    /// Panics when the session ended in a [`SessionError`] (a VM trap or a
    /// job panic). Callers that need to survive failing jobs should use
    /// [`Session::join`], which reports them as a typed `Err` instead.
    pub fn wait(self) -> SessionResult {
        match self.join() {
            Ok(result) => result,
            Err(e) => panic!("{e}"),
        }
    }

    /// Blocks until the session finishes; a failing job comes back as a
    /// typed [`SessionError`] rather than a panic, so one poisoned session
    /// (e.g. an invalid intervention trapping the VM) never takes down a
    /// caller multiplexing many of them.
    pub fn join(self) -> Result<SessionResult, SessionError> {
        self.rx
            .recv()
            .expect("engine dropped a session without a result")
    }

    /// Non-blocking completion check, for callers that multiplex many
    /// sessions from one thread (e.g. a network server polling tickets
    /// between requests). Returns [`SessionPoll::Ready`] (or
    /// [`SessionPoll::Failed`] for a session that died with a typed error)
    /// exactly once; every later call reports [`SessionPoll::Lost`].
    pub fn try_wait(&self) -> SessionPoll {
        if self.delivered.load(Ordering::Relaxed) {
            return SessionPoll::Lost;
        }
        let outcome = match self.rx.try_recv() {
            Ok(outcome) => outcome,
            Err(TryRecvError::Empty) => return SessionPoll::Pending,
            Err(TryRecvError::Disconnected) => return SessionPoll::Lost,
        };
        self.delivered.store(true, Ordering::Relaxed);
        match outcome {
            Ok(result) => SessionPoll::Ready(result),
            Err(e) => SessionPoll::Failed(e),
        }
    }
}

/// The outcome of a non-blocking [`Session::try_wait`].
#[derive(Clone, Debug)]
pub enum SessionPoll {
    /// The session finished; here is its result (delivered once).
    Ready(SessionResult),
    /// Still queued or running.
    Pending,
    /// The session ended in a typed error — a VM trap or a job panic —
    /// delivered once, like a result.
    Failed(SessionError),
    /// No result will ever arrive: the outcome was already taken by an
    /// earlier `try_wait`.
    Lost,
}

/// Returned by [`EngineHandle::try_submit`] when a job was not accepted.
/// Carries the job back so the caller can retry, queue it elsewhere, or
/// shed it with a typed rejection instead of losing it.
pub struct Saturated {
    /// The rejected job, returned intact (boxed so the error stays small
    /// on the happy path's `Result`).
    pub job: Box<DiscoveryJob>,
    /// True when the engine is draining after [`Engine::shutdown`] (the
    /// rejection is permanent); false when `max_pending` sessions were
    /// in flight (a retry may succeed).
    pub shutting_down: bool,
    /// Sessions queued-or-running at the moment of rejection.
    pub pending: usize,
}

impl std::fmt::Debug for Saturated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Saturated")
            .field("job", &self.job.name)
            .field("shutting_down", &self.shutting_down)
            .finish()
    }
}

impl std::fmt::Display for Saturated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.shutting_down {
            write!(
                f,
                "engine is shutting down; job '{}' refused",
                self.job.name
            )
        } else {
            write!(f, "engine saturated; job '{}' refused", self.job.name)
        }
    }
}

impl std::error::Error for Saturated {}

/// Aggregate engine telemetry.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Real executions performed (cache misses that ran).
    pub executions: u64,
    /// Cache lookups answered from memory.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Shard flushes forced by the cache capacity bound.
    pub cache_evictions: u64,
    /// Records stored in the cache.
    pub cache_entries: usize,
    /// Wall-batches fanned across the pool.
    pub wall_batches: u64,
    /// Sessions completed.
    pub sessions_completed: u64,
    /// Sessions that ended in a typed [`SessionError`] (VM trap or job
    /// panic) instead of a result.
    pub sessions_failed: u64,
    /// Non-blocking submissions refused ([`EngineHandle::try_submit`]
    /// returning [`Saturated`]), whether for saturation or shutdown.
    pub sessions_rejected: u64,
    /// Tasks executed per worker thread (utilization).
    pub tasks_per_worker: Vec<u64>,
    /// Tasks executed inline by joining threads (help-first steals).
    pub inline_tasks: u64,
    /// Highest simultaneously-pending session count observed.
    pub peak_pending: u64,
}

impl EngineStats {
    /// Cache hit fraction in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Submission state guarded by one lock: the in-flight count and the
/// drain flag must change together, or a submit racing a shutdown could
/// slip a job past the drain.
struct EngineQueue {
    pending: usize,
    shutting_down: bool,
}

struct EngineShared {
    pool: Arc<WorkerPool>,
    cache: Arc<InterventionCache>,
    counters: Arc<EngineCounters>,
    queue: Mutex<EngineQueue>,
    capacity: Condvar,
    max_pending: usize,
}

/// Registry prefix of the engine's cache and session metrics. The name
/// predates the single-engine design (it once numbered engine shards);
/// it stays `shard0` because scrapers and the benchmark parse it.
pub const METRICS_PREFIX: &str = "engine.shard0";

/// The multi-session discovery engine.
pub struct Engine {
    handle: EngineHandle,
    metrics: Arc<MetricsRegistry>,
}

impl Engine {
    /// Builds an engine from the given configuration, with its own
    /// `AID_OBS`-gated metrics registry.
    pub fn new(config: EngineConfig) -> Self {
        Engine::with_metrics(config, Arc::new(MetricsRegistry::from_env()))
    }

    /// Builds an engine whose telemetry registers in `metrics` (cache and
    /// session metrics under `engine.shard0.*`, the pool under
    /// `engine.pool.*`). Servers pass their registry here so one snapshot
    /// covers every tier.
    pub fn with_metrics(config: EngineConfig, metrics: Arc<MetricsRegistry>) -> Self {
        let shared = Arc::new(EngineShared {
            pool: Arc::new(WorkerPool::with_metrics(config.workers, &metrics)),
            cache: Arc::new(InterventionCache::with_metrics(
                config.cache_shards,
                config.cache_capacity,
                &metrics,
                METRICS_PREFIX,
            )),
            counters: Arc::new(EngineCounters::with_metrics(&metrics, METRICS_PREFIX)),
            queue: Mutex::new(EngineQueue {
                pending: 0,
                shutting_down: false,
            }),
            capacity: Condvar::new(),
            max_pending: config.max_pending.max(1),
        });
        Engine {
            handle: EngineHandle { shared },
            metrics,
        }
    }

    /// Convenience: an engine with `workers` threads and default sizing.
    pub fn with_workers(workers: usize) -> Self {
        Engine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        })
    }

    /// The registry this engine's telemetry lives in.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A cloneable handle for submitting jobs (e.g. from server
    /// connection-handler threads).
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }

    /// Queues a named discovery job (see [`EngineHandle::submit`]).
    pub fn submit(&self, job: DiscoveryJob) -> Session {
        self.handle.submit(job)
    }

    /// Non-blocking submission (see [`EngineHandle::try_submit`]).
    pub fn try_submit(&self, job: DiscoveryJob) -> Result<Session, Saturated> {
        self.handle.try_submit(job)
    }

    /// Graceful drain: refuses every subsequent submission (both
    /// [`EngineHandle::try_submit`], with `shutting_down = true`, and
    /// blocking [`EngineHandle::submit`], which panics) and blocks until
    /// every in-flight session has completed. Idempotent; callers holding
    /// [`Session`] tickets still receive their results.
    pub fn shutdown(&self) {
        let shared = &self.handle.shared;
        shared.queue.lock().unwrap().shutting_down = true;
        // Wake submitters blocked on backpressure so they observe the
        // drain instead of sleeping forever.
        shared.capacity.notify_all();
        self.wait_idle();
    }

    /// Blocks until no session is in flight, without refusing new ones.
    fn wait_idle(&self) {
        let shared = &self.handle.shared;
        let mut q = shared.queue.lock().unwrap();
        while q.pending > 0 {
            q = shared.capacity.wait(q).unwrap();
        }
    }

    /// Submits every job and waits for all of them, preserving input order.
    pub fn run_all(&self, jobs: Vec<DiscoveryJob>) -> Vec<SessionResult> {
        self.handle.run_all(jobs)
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> EngineStats {
        self.handle.stats()
    }

    /// The engine's worker pool, for co-located fan-out work (e.g. an
    /// `aid_store` ingesting trace batches on the same threads its
    /// discovery sessions run on, instead of spawning a second pool).
    pub fn pool(&self) -> Arc<WorkerPool> {
        self.handle.pool()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Drain before tearing down: every queued session still runs to
        // completion (tickets held by callers keep receiving results), so
        // dropping the engine never silently abandons work.
        self.wait_idle();
    }
}

/// A cloneable submission handle onto an [`Engine`]'s admission queue,
/// cache and pool.
#[derive(Clone)]
pub struct EngineHandle {
    shared: Arc<EngineShared>,
}

impl EngineHandle {
    /// Queues a named discovery job, blocking while `max_pending` sessions
    /// are already in flight (backpressure), and returns the session
    /// ticket.
    ///
    /// # Panics
    ///
    /// Panics if the engine has been [shut down](Engine::shutdown) —
    /// admission-controlled callers (servers, accept loops) should use
    /// [`EngineHandle::try_submit`], which reports the drain as a typed
    /// rejection instead.
    pub fn submit(&self, job: DiscoveryJob) -> Session {
        let shared = &self.shared;
        let shutting_down = {
            let mut q = shared.queue.lock().unwrap();
            while q.pending >= shared.max_pending && !q.shutting_down {
                q = shared.capacity.wait(q).unwrap();
            }
            if !q.shutting_down {
                q.pending += 1;
                shared.counters.record_peak(q.pending as u64);
            }
            q.shutting_down
            // The guard drops here: panicking while holding it would
            // poison the queue mutex for every worker's PendingGuard and
            // for shutdown() itself, turning one caller's bug into an
            // engine-wide abort.
        };
        assert!(
            !shutting_down,
            "EngineHandle::submit on a shut-down engine (use try_submit)"
        );
        self.spawn_session(job)
    }

    /// Non-blocking submission: returns the session ticket immediately, or
    /// [`Saturated`] (carrying the job back) when `max_pending` sessions
    /// are already queued-or-running or the engine is draining. This is
    /// the admission-control primitive — an accept thread can shed load
    /// with a typed rejection instead of blocking behind backpressure.
    pub fn try_submit(&self, job: DiscoveryJob) -> Result<Session, Saturated> {
        let shared = &self.shared;
        {
            let mut q = shared.queue.lock().unwrap();
            if q.shutting_down || q.pending >= shared.max_pending {
                let (shutting_down, pending) = (q.shutting_down, q.pending);
                drop(q);
                shared.counters.rejected.inc();
                return Err(Saturated {
                    job: Box::new(job),
                    shutting_down,
                    pending,
                });
            }
            q.pending += 1;
            shared.counters.record_peak(q.pending as u64);
        }
        Ok(self.spawn_session(job))
    }

    /// Submits every job and waits for all of them, preserving input order.
    pub fn run_all(&self, jobs: Vec<DiscoveryJob>) -> Vec<SessionResult> {
        // Submit incrementally (each submit may block on backpressure) and
        // only then start waiting: workers drain the queue independently of
        // this thread, so no deadlock is possible.
        let sessions: Vec<Session> = jobs.into_iter().map(|j| self.submit(j)).collect();
        sessions.into_iter().map(Session::wait).collect()
    }

    /// The engine's worker pool (see [`Engine::pool`]).
    pub fn pool(&self) -> Arc<WorkerPool> {
        Arc::clone(&self.shared.pool)
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> EngineStats {
        let shared = &self.shared;
        let cache = shared.cache.stats();
        EngineStats {
            executions: shared.counters.executions.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries,
            wall_batches: shared.pool.batches(),
            sessions_completed: shared.counters.sessions.get(),
            sessions_failed: shared.counters.failed.get(),
            sessions_rejected: shared.counters.rejected.get(),
            tasks_per_worker: shared.pool.tasks_per_worker(),
            inline_tasks: shared.pool.inline_tasks(),
            peak_pending: shared.counters.peak_pending.get(),
        }
    }

    /// Spawns an already-admitted job (its `pending` slot is reserved).
    fn spawn_session(&self, job: DiscoveryJob) -> Session {
        let (tx, rx) = channel::unbounded();
        let name = job.name.clone();
        let task_shared = Arc::clone(&self.shared);
        self.shared.pool.spawn(move || {
            // Decrement `pending` even if the job panics (e.g. a malformed
            // DAG with a non-interventable predicate): a leaked count would
            // wedge backpressure and hang Engine::drop forever.
            struct PendingGuard(Arc<EngineShared>);
            impl Drop for PendingGuard {
                fn drop(&mut self) {
                    let mut q = self.0.queue.lock().unwrap();
                    q.pending -= 1;
                    drop(q);
                    // notify_all, not notify_one: backpressured submitters
                    // and a draining Engine::drop wait on the same condvar,
                    // and waking only one of them can strand the other.
                    self.0.capacity.notify_all();
                }
            }
            let _guard = PendingGuard(Arc::clone(&task_shared));
            // Quarantine job failures: a VM trap unwinds out of the
            // executor carrying a typed `VmError` payload, and any other
            // panic is a job bug — both become a per-session
            // `SessionError` on this session's channel instead of killing
            // the ticket (and, transitively, whatever server thread polls
            // it).
            let name_for_err = job.name.clone();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute(job, &task_shared)
            }))
            .map_err(|payload| {
                let kind = match payload.downcast::<VmError>() {
                    Ok(trap) => SessionErrorKind::Trap(*trap),
                    Err(payload) => SessionErrorKind::Panic(panic_message(&*payload)),
                };
                SessionError {
                    name: name_for_err,
                    kind,
                }
            });
            // Count completion *before* publishing the result, so a caller
            // that reads stats right after wait() observes the session.
            match &outcome {
                Ok(_) => task_shared.counters.sessions.inc(),
                Err(_) => task_shared.counters.failed.inc(),
            };
            // The submitter may have dropped the ticket; that is not an
            // engine error.
            let _ = tx.send(outcome);
        });
        Session {
            name,
            rx,
            delivered: AtomicBool::new(false),
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job to completion on the current (worker) thread; intervention
/// batches fan back onto the pool from here.
fn execute(job: DiscoveryJob, shared: &EngineShared) -> SessionResult {
    let result = match job.source {
        JobSource::Sim {
            simulator,
            catalog,
            failure,
            runs_per_round,
            first_seed,
        } => {
            let mut exec = PooledSimExecutor::new(
                simulator,
                catalog,
                failure,
                runs_per_round,
                first_seed,
                Arc::clone(&shared.pool),
                Arc::clone(&shared.cache),
                Arc::clone(&shared.counters),
            );
            discover_with_options(&job.dag, &mut exec, job.strategy, job.seed, job.options)
        }
        JobSource::Oracle { truth } => {
            let mut exec = CachedOracleExecutor::new(
                truth,
                Arc::clone(&shared.cache),
                Arc::clone(&shared.counters),
            );
            discover_with_options(&job.dag, &mut exec, job.strategy, job.seed, job.options)
        }
    };
    SessionResult {
        name: job.name,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aid_core::figure4_ground_truth;

    /// The Figure 4(a) AC-DAG (same Hasse edges as `aid_core`'s discovery
    /// tests — the flat "everything points at F" DAG is only sound for
    /// TAGT, which ignores structure).
    fn figure4_dag(truth: &GroundTruth) -> AcDag {
        let p = |i: u32| aid_predicates::PredicateId::from_raw(i);
        let edges = vec![
            (p(0), p(1)),
            (p(1), p(2)),
            (p(2), p(3)),
            (p(3), p(4)),
            (p(4), p(5)),
            (p(2), p(6)),
            (p(6), p(7)),
            (p(7), p(8)),
            (p(6), p(10)),
            (p(5), p(9)),
            (p(10), p(9)),
            (p(9), p(11)),
            (p(5), p(11)),
            (p(8), p(11)),
        ];
        AcDag::from_edges(&truth.candidates(), truth.failure(), &edges)
    }

    fn oracle_job(name: &str, seed: u64) -> DiscoveryJob {
        let truth = figure4_ground_truth();
        let dag = Arc::new(figure4_dag(&truth));
        DiscoveryJob::oracle(name, dag, truth, Strategy::Aid, seed)
    }

    #[test]
    fn sessions_come_back_named_and_correct() {
        let engine = Engine::with_workers(2);
        let results = engine.run_all(vec![oracle_job("a", 0), oracle_job("b", 1)]);
        assert_eq!(results[0].name, "a");
        assert_eq!(results[1].name, "b");
        for r in &results {
            let causal: Vec<u32> = r.result.causal.iter().map(|p| p.raw()).collect();
            assert_eq!(causal, vec![0, 1, 10]);
        }
        let stats = engine.stats();
        assert_eq!(stats.sessions_completed, 2);
        assert!(stats.executions > 0);
    }

    #[test]
    fn backpressure_bounds_pending_sessions() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            cache_shards: 2,
            max_pending: 2,
            ..EngineConfig::default()
        });
        let handle = engine.handle();
        let sessions: Vec<Session> = (0..12).map(|i| handle.submit(oracle_job("x", i))).collect();
        for s in sessions {
            s.wait();
        }
        let stats = engine.stats();
        assert_eq!(stats.sessions_completed, 12);
        assert!(
            stats.peak_pending <= 2,
            "backpressure must cap pending at 2, saw {}",
            stats.peak_pending
        );
    }

    /// A job that panics mid-discovery (non-interventable predicate → the
    /// executor's `plan_for` panics) must not wedge the engine: pending
    /// drains, later sessions run, and drop doesn't hang.
    #[test]
    fn panicking_job_does_not_wedge_the_engine() {
        use aid_predicates::{Predicate, PredicateCatalog, PredicateKind};
        use aid_sim::ProgramBuilder;

        let mut b = ProgramBuilder::new("bad");
        let main = b.method("Main", |m| {
            m.compute(1);
        });
        b.thread("main", main, true);
        let mut catalog = PredicateCatalog::new();
        let bad = catalog.insert(Predicate {
            kind: PredicateKind::Failure {
                signature: aid_trace::FailureSignature {
                    kind: "Boom".into(),
                    method: aid_trace::MethodId::from_raw(0),
                },
            },
            safe: true,
            action: None, // ⇒ plan_for panics the moment it is intervened on
        });
        let mut fail_catalog = catalog.clone();
        let failure = fail_catalog.insert(Predicate {
            kind: PredicateKind::Failure {
                signature: aid_trace::FailureSignature {
                    kind: "F".into(),
                    method: aid_trace::MethodId::from_raw(0),
                },
            },
            safe: true,
            action: None,
        });
        let dag = Arc::new(AcDag::from_edges(&[bad], failure, &[(bad, failure)]));

        let engine = Engine::new(EngineConfig {
            workers: 1,
            cache_shards: 2,
            max_pending: 2,
            ..EngineConfig::default()
        });
        let doomed = engine.submit(DiscoveryJob::sim(
            "doomed",
            dag,
            Arc::new(Simulator::new(b.build())),
            Arc::new(fail_catalog),
            failure,
            1,
            0,
            Strategy::Aid,
            0,
        ));
        // The doomed session dies with a *typed* error, not a dead channel…
        let err = doomed.join().expect_err("job must fail");
        assert_eq!(err.name, "doomed");
        assert!(
            matches!(err.kind, SessionErrorKind::Panic(ref msg) if msg.contains("intervention")),
            "unexpected error: {err}"
        );
        // …but the engine keeps serving, and dropping it doesn't hang.
        let ok = engine.submit(oracle_job("survivor", 1)).wait();
        assert_eq!(ok.name, "survivor");
        let stats = engine.stats();
        assert_eq!(
            stats.sessions_completed, 1,
            "the panicked job is not counted"
        );
        assert_eq!(stats.sessions_failed, 1);
    }

    /// A program whose candidate intervention is *invalid* (premature
    /// return on an impure method) traps the bytecode VM. The trap must
    /// surface as a per-session [`SessionErrorKind::Trap`] with the VM's
    /// typed error — not a panic, not a wedged pool — and the engine must
    /// stay fully serviceable afterwards.
    #[test]
    fn vm_trap_quarantines_the_session_with_a_typed_error() {
        use aid_predicates::{InterventionAction, MethodInstance, Predicate, PredicateKind};
        use aid_sim::{Backend, Expr, ProgramBuilder, VmError};

        let mut b = ProgramBuilder::new("trapper");
        let x = b.object("x", 0);
        // Impure on purpose: a premature-return intervention on it is the
        // paper's "repair" misapplied, which the VM reports as a trap.
        let main = b.method("Main", |m| {
            m.write(x, Expr::Const(1)).compute(2);
        });
        b.thread("main", main, true);
        let program = b.build();
        let main_id = aid_trace::MethodId::from_raw(0);

        let mut catalog = PredicateCatalog::new();
        let candidate = catalog.insert(Predicate {
            kind: PredicateKind::RunsTooSlow {
                site: MethodInstance::new(main_id, 0),
                threshold: 1,
            },
            safe: true,
            action: Some(InterventionAction::PrematureReturn {
                site: MethodInstance::new(main_id, 0),
                value: 0,
            }),
        });
        let failure = catalog.insert(Predicate {
            kind: PredicateKind::Failure {
                signature: aid_trace::FailureSignature {
                    kind: "F".into(),
                    method: main_id,
                },
            },
            safe: true,
            action: None,
        });
        let dag = Arc::new(AcDag::from_edges(
            &[candidate],
            failure,
            &[(candidate, failure)],
        ));

        let engine = Engine::with_workers(2);
        let doomed = engine.submit(DiscoveryJob::sim(
            "trapped",
            dag,
            Arc::new(Simulator::new(program).with_backend(Backend::Bytecode)),
            Arc::new(catalog),
            failure,
            2,
            0,
            Strategy::Aid,
            0,
        ));
        let err = doomed.join().expect_err("the trap must fail the session");
        assert_eq!(err.name, "trapped");
        match &err.kind {
            SessionErrorKind::Trap(VmError::PrematureReturnImpure { method }) => {
                assert_eq!(method, "Main");
            }
            other => panic!("expected a PrematureReturnImpure trap, got {other:?}"),
        }
        // Quarantined, not poisoned: a healthy job still completes.
        let ok = engine.submit(oracle_job("after-trap", 9)).wait();
        assert_eq!(ok.name, "after-trap");
        let stats = engine.stats();
        assert_eq!(stats.sessions_failed, 1);
        assert_eq!(stats.sessions_completed, 1);
    }

    /// Cache keys are backend-independent: a session run on the tree-walk
    /// backend fully warms the cache for an identical session run on the
    /// bytecode backend (and their results are equal).
    #[test]
    fn sessions_share_the_cache_across_backends() {
        use aid_predicates::{InterventionAction, MethodInstance, Predicate, PredicateKind};
        use aid_sim::{Backend, Expr, ProgramBuilder};

        let mut b = ProgramBuilder::new("xbackend");
        let x = b.object("x", 0);
        let main = b.method("Main", |m| {
            m.write(x, Expr::Const(1)).compute(3).flaky_delay(0.5, 2);
        });
        b.thread("main", main, true);
        let program = b.build();
        let main_id = aid_trace::MethodId::from_raw(0);

        let mut catalog = PredicateCatalog::new();
        let candidate = catalog.insert(Predicate {
            kind: PredicateKind::RunsTooSlow {
                site: MethodInstance::new(main_id, 0),
                threshold: 3,
            },
            safe: true,
            action: Some(InterventionAction::SuppressFlaky {
                site: MethodInstance::new(main_id, 0),
            }),
        });
        let failure = catalog.insert(Predicate {
            kind: PredicateKind::Failure {
                signature: aid_trace::FailureSignature {
                    kind: "F".into(),
                    method: main_id,
                },
            },
            safe: true,
            action: None,
        });
        let catalog = Arc::new(catalog);
        let dag = Arc::new(AcDag::from_edges(
            &[candidate],
            failure,
            &[(candidate, failure)],
        ));

        let engine = Engine::with_workers(2);
        let job = |name: &str, backend: Backend| {
            DiscoveryJob::sim(
                name,
                Arc::clone(&dag),
                Arc::new(Simulator::new(program.clone()).with_backend(backend)),
                Arc::clone(&catalog),
                failure,
                3,
                0,
                Strategy::Aid,
                0,
            )
        };
        let tree = engine.submit(job("tree", Backend::TreeWalk)).wait();
        let warm = engine.stats();
        assert!(warm.executions > 0);
        let byte = engine.submit(job("byte", Backend::Bytecode)).wait();
        let after = engine.stats();
        assert_eq!(tree.result, byte.result, "backends agree end-to-end");
        assert_eq!(
            after.executions, warm.executions,
            "the bytecode session must be answered entirely from the tree-walk session's cache"
        );
    }

    #[test]
    fn dropping_the_engine_drains_outstanding_sessions() {
        let kept;
        {
            let engine = Engine::with_workers(2);
            kept = engine.submit(oracle_job("kept", 5));
            // A fire-and-forget session: ticket dropped immediately.
            drop(engine.submit(oracle_job("forgotten", 6)));
            // Engine dropped here; both sessions must still complete.
        }
        let result = kept.wait();
        assert_eq!(result.name, "kept");
        let causal: Vec<u32> = result.result.causal.iter().map(|p| p.raw()).collect();
        assert_eq!(causal, vec![0, 1, 10]);
    }

    /// `try_submit` must never block: with the single worker gated and the
    /// pending bound filled it rejects with `shutting_down = false`; after
    /// `shutdown` it rejects with `shutting_down = true`. Both rejections
    /// hand the job back and count in `sessions_rejected`.
    #[test]
    fn try_submit_rejects_on_saturation_and_shutdown() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            cache_shards: 2,
            max_pending: 2,
            ..EngineConfig::default()
        });
        // Gate the only worker so admitted sessions cannot start draining.
        let (gate_tx, gate_rx) = channel::unbounded::<()>();
        engine.pool().spawn(move || {
            let _ = gate_rx.recv();
        });
        let a = engine.try_submit(oracle_job("a", 0)).expect("slot 1 free");
        let b = engine.try_submit(oracle_job("b", 1)).expect("slot 2 free");
        let refused = engine
            .try_submit(oracle_job("c", 2))
            .expect_err("pending bound is 2");
        assert!(!refused.shutting_down);
        assert_eq!(refused.job.name, "c", "the job comes back intact");

        gate_tx.send(()).unwrap();
        a.wait();
        b.wait();
        engine.shutdown();
        let drained = engine
            .try_submit(*refused.job)
            .expect_err("draining engine refuses new work");
        assert!(drained.shutting_down);

        let stats = engine.stats();
        assert_eq!(stats.sessions_completed, 2);
        assert_eq!(stats.sessions_rejected, 2);
        // Shutdown is idempotent and Drop after shutdown must not hang.
        engine.shutdown();
    }

    #[test]
    fn try_wait_is_nonblocking_and_delivers_once() {
        let engine = Engine::with_workers(1);
        let session = engine.submit(oracle_job("polled", 4));
        // Spin until the result lands; every intermediate probe must be
        // Pending, never a panic or a block.
        let result = loop {
            match session.try_wait() {
                SessionPoll::Ready(r) => break r,
                SessionPoll::Pending => std::thread::yield_now(),
                SessionPoll::Failed(e) => panic!("session failed: {e}"),
                SessionPoll::Lost => panic!("session lost without a result"),
            }
        };
        assert_eq!(result.name, "polled");
        // The result was consumed; the channel now reports Lost.
        assert!(matches!(session.try_wait(), SessionPoll::Lost));
    }

    #[test]
    fn identical_sessions_share_the_cache() {
        let engine = Engine::with_workers(2);
        engine.run_all(vec![oracle_job("first", 3)]);
        let before = engine.stats();
        engine.run_all(vec![oracle_job("second", 3)]);
        let after = engine.stats();
        assert_eq!(
            after.executions, before.executions,
            "identical session must be fully memoized"
        );
        assert!(after.cache_hits > before.cache_hits);
    }
}
