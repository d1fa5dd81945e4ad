//! `aid_store` — streaming trace ingestion, a retained window of traces,
//! and incrementally maintained observation-phase analysis.
//!
//! The paper's offline phase consumes *accumulated production telemetry*:
//! many labeled runs, arriving over time, from which predicates, SD scores,
//! and the AC-DAG are derived (§3–§4). The library crates analyze an
//! in-memory [`TraceSet`] batch-style; this crate is the persistence-shaped
//! layer between them and a long-running service:
//!
//! 1. **Streaming ingestion** ([`StreamDecoder`]) — a resumable decoder for
//!    the `aid_trace::codec` line format that consumes byte chunks of any
//!    size, validates per line, and **quarantines** malformed records
//!    (typed [`aid_trace::codec::DecodeErrorKind`]) instead of aborting
//!    the batch.
//! 2. **The trace window** ([`TraceWindow`]) — the retained traces in
//!    arrival order, remapped into the store's name arenas and normalized,
//!    each kept once and borrowed by global id; count- and age-bounded
//!    retention evicts from the front without renumbering.
//! 3. **Incremental analysis** ([`StoreView`]) — predicate catalog,
//!    per-run observations, SD scores, and the AC-DAG kept up to date as
//!    traces arrive, structurally identical to batch recomputation at
//!    every prefix (the equivalence contract).
//!
//! [`TraceStore`] bundles the three behind one handle and bridges into the
//! engine: [`TraceStore::snapshot`] freezes the current analysis into a
//! [`StoreSnapshot`] whose [`StoreSnapshot::discovery_job`] sources an
//! `aid_engine` session's observation window from the store instead of
//! fresh simulator runs.
//!
//! ```
//! use aid_store::{StoreConfig, TraceStore};
//! use aid_predicates::ExtractionConfig;
//! use aid_sim::{ProgramBuilder, Simulator};
//! use aid_sim::program::{Cmp, Expr, Reg};
//! use aid_trace::codec;
//!
//! // A concurrent program with an intermittent atomicity violation.
//! let mut b = ProgramBuilder::new("demo");
//! let flag = b.object("flag", 0);
//! let len = b.object("len", 10);
//! let slot = b.object("slot", 10);
//! let reader = b.method("Reader", |m| {
//!     m.write(flag, Expr::Const(1))
//!         .read(len, Reg(0))
//!         .jitter(5, 40)
//!         .throw_if_obj(slot, Cmp::Gt, Expr::Reg(Reg(0)), "IndexOutOfRange");
//! });
//! let writer = b.method("Writer", |m| {
//!     m.jitter(1, 10).write(len, Expr::Const(20)).write(slot, Expr::Const(11));
//! });
//! let writer_entry = b.method("WriterEntry", |m| {
//!     m.wait_until(Expr::Obj(flag), Cmp::Eq, Expr::Const(1)).jitter(0, 30).call(writer);
//! });
//! let main = b.method("Main", |m| {
//!     m.spawn_named("t1").spawn_named("t2").join(1).join(2);
//! });
//! b.thread("main", main, true);
//! b.thread("t1", reader, false);
//! b.thread("t2", writer_entry, false);
//! let sim = Simulator::new(b.build());
//! let logs = sim.collect_balanced(10, 10, 20_000);
//!
//! // Ship the logs as a byte stream into a store, in awkward chunks.
//! let encoded = codec::encode(&logs);
//! let mut store = TraceStore::new(StoreConfig::default());
//! for chunk in encoded.as_bytes().chunks(97) {
//!     store.ingest_bytes(chunk);
//! }
//! store.finish_ingest();
//! assert_eq!(store.len(), logs.traces.len());
//!
//! // The incremental analysis equals the batch pipeline's, exactly.
//! let incremental = store.refresh().expect("failures present");
//! let batch = aid_core::analyze(&logs, &ExtractionConfig::default());
//! assert_eq!(incremental.dag, batch.dag);
//! assert_eq!(incremental.candidates, batch.candidates);
//! ```

pub mod ingest;
pub mod view;
pub mod window;

pub use ingest::{IngestStats, Quarantined, StreamDecoder};
pub use view::{StoreView, ViewStats};
pub use window::{RetentionPolicy, TraceWindow, WindowStats};

use aid_causal::AcDag;
use aid_core::{AidAnalysis, Strategy};
use aid_engine::{DiscoveryJob, WorkerPool};
use aid_obs::{Histogram, MetricsRegistry};
use aid_predicates::{ExtractionConfig, PredicateCatalog, PredicateId};
use aid_sim::Simulator;
use aid_trace::{FailureSignature, Trace, TraceSet};
use std::sync::Arc;

/// Store analysis and retention configuration.
#[derive(Clone, Debug, Default)]
pub struct StoreConfig {
    /// Extraction configuration the incremental view analyzes under.
    pub extraction: ExtractionConfig,
    /// Windowed-retention policy, enforced after every append. The default
    /// keeps everything (the classic batch-accumulation behavior).
    pub retention: RetentionPolicy,
}

/// Aggregate store telemetry.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Streaming-decoder counters (bytes, lines, quarantines).
    pub ingest: IngestStats,
    /// Retained-window row counts.
    pub window: WindowStats,
    /// Incremental-analysis path counters.
    pub view: ViewStats,
}

/// A frozen, shareable image of the store's analysis, for sourcing engine
/// discovery sessions from accumulated telemetry instead of fresh runs.
#[derive(Clone)]
pub struct StoreSnapshot {
    /// The full predicate catalog (failure indicator last).
    pub catalog: Arc<PredicateCatalog>,
    /// The failure indicator.
    pub failure: PredicateId,
    /// The grouped failure signature the analysis targets.
    pub signature: FailureSignature,
    /// The AC-DAG over the safely intervenable candidates.
    pub dag: Arc<AcDag>,
    /// How many traces the snapshot covers.
    pub traces: usize,
}

impl StoreSnapshot {
    /// Builds a simulator-backed [`DiscoveryJob`] whose observation window
    /// (catalog, failure indicator, AC-DAG) comes from this snapshot. The
    /// session's *interventions* still execute on `simulator` — the store
    /// replaces the collection phase, not the intervention phase.
    #[allow(clippy::too_many_arguments)]
    pub fn discovery_job(
        &self,
        name: impl Into<String>,
        simulator: Arc<Simulator>,
        runs_per_round: usize,
        first_seed: u64,
        strategy: Strategy,
        seed: u64,
    ) -> DiscoveryJob {
        DiscoveryJob::sim(
            name,
            Arc::clone(&self.dag),
            simulator,
            Arc::clone(&self.catalog),
            self.failure,
            runs_per_round,
            first_seed,
            strategy,
            seed,
        )
    }
}

/// The assembled store: streaming decoder → trace window → incremental
/// analysis, behind one handle.
pub struct TraceStore {
    config: StoreConfig,
    decoder: StreamDecoder,
    window: TraceWindow,
    view: StoreView,
    /// Wall time of each [`TraceStore::ingest_bytes`] and
    /// [`TraceStore::finish_ingest`] (`store.ingest_us` when registered; a
    /// disabled no-op cell otherwise).
    ingest_timer: Histogram,
    /// Wall time of each [`TraceStore::refresh`] (`store.refresh_us` when
    /// registered; a disabled no-op cell otherwise).
    refresh_timer: Histogram,
}

impl TraceStore {
    /// An empty store. Ingestion and evaluation run on the caller's thread.
    pub fn new(config: StoreConfig) -> TraceStore {
        let view = StoreView::new(config.extraction.clone());
        TraceStore {
            config,
            decoder: StreamDecoder::new(),
            window: TraceWindow::new(),
            view,
            ingest_timer: Histogram::detached(false),
            refresh_timer: Histogram::detached(false),
        }
    }

    /// An empty store; `pool` is ignored. Kept only because the separately
    /// built benchmark package (`aidbench/`) still calls it — the store
    /// used to fan per-trace work across `pool`, and now runs it on the
    /// calling thread because that measured faster. Remove once the
    /// benchmark calls [`TraceStore::new`].
    #[deprecated(note = "the store no longer uses a pool; call `TraceStore::new`")]
    pub fn with_pool(config: StoreConfig, _pool: Arc<WorkerPool>) -> TraceStore {
        TraceStore::new(config)
    }

    /// An empty store whose ingest and refresh latencies register in
    /// `metrics` as the `store.ingest_us` and `store.refresh_us`
    /// histograms (shared by every store on the same registry — ingest
    /// and refresh cost are per-server distributions, while per-store
    /// counts stay in [`StoreStats`]).
    pub fn with_metrics(config: StoreConfig, metrics: &MetricsRegistry) -> TraceStore {
        let mut s = TraceStore::new(config);
        s.ingest_timer = metrics.histogram("store.ingest_us");
        s.refresh_timer = metrics.histogram("store.refresh_us");
        s
    }

    /// Feeds a chunk of encoded log bytes (any framing; may end mid-line).
    /// Completed traces are appended to the window immediately.
    pub fn ingest_bytes(&mut self, chunk: &[u8]) {
        let started = std::time::Instant::now();
        self.decoder.push_bytes(chunk);
        self.flush_decoded();
        self.ingest_timer.record_duration(started.elapsed());
    }

    /// Feeds a string chunk of encoded log.
    pub fn ingest_str(&mut self, chunk: &str) {
        self.ingest_bytes(chunk.as_bytes());
    }

    /// Drains a reader to completion (e.g. a log file), then flushes
    /// end-of-stream state.
    pub fn ingest_reader(&mut self, reader: &mut impl std::io::Read) -> std::io::Result<u64> {
        self.decoder.push_reader(reader)?;
        self.finish_ingest();
        Ok(self.decoder.stats().bytes)
    }

    /// Flushes end-of-stream decoder state (quarantining a trailing
    /// partial line and any unterminated trace rather than ingesting
    /// them). The store accepts further streams afterwards.
    pub fn finish_ingest(&mut self) {
        let started = std::time::Instant::now();
        self.decoder.finish();
        self.flush_decoded();
        self.ingest_timer.record_duration(started.elapsed());
    }

    fn flush_decoded(&mut self) {
        let traces = self.decoder.drain();
        if traces.is_empty() {
            return;
        }
        let (m, o, c) = self.window.remap_tables(
            self.decoder.methods(),
            self.decoder.objects(),
            self.decoder.channels(),
        );
        self.window.append_batch(traces, &m, &o, &c);
        self.window.apply_retention(self.config.retention);
    }

    /// Appends every trace of an in-memory set (names resolved through the
    /// set's own arenas).
    pub fn append_set(&mut self, set: &TraceSet) {
        let (m, o, c) = self
            .window
            .remap_tables(&set.methods, &set.objects, &set.channels);
        self.window.append_batch(set.traces.clone(), &m, &o, &c);
        self.window.apply_retention(self.config.retention);
    }

    /// Appends one live trace — e.g. straight from
    /// [`Simulator::run`] — with `names` supplying the id→name tables the
    /// trace's ids are relative to (use `Simulator::trace_set_skeleton`).
    pub fn append_run(&mut self, names: &TraceSet, trace: Trace) {
        let (m, o, c) = self
            .window
            .remap_tables(&names.methods, &names.objects, &names.channels);
        self.window.append_batch(vec![trace], &m, &o, &c);
        self.window.apply_retention(self.config.retention);
    }

    /// Evicts the `count` oldest retained traces immediately, regardless of
    /// the configured policy. Returns the number evicted.
    pub fn evict_front(&mut self, count: usize) -> usize {
        self.window.evict_front(count)
    }

    /// Applies a one-off retention policy (the configured one runs after
    /// every append regardless). Returns the number evicted.
    pub fn apply_retention(&mut self, policy: RetentionPolicy) -> usize {
        self.window.apply_retention(policy)
    }

    /// Traces retained.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The retained window of global ids (ids are stable across eviction).
    pub fn retained(&self) -> std::ops::Range<usize> {
        self.window.retained()
    }

    /// `(successes, failures)` retained.
    pub fn counts(&self) -> (usize, usize) {
        let failed = self
            .window
            .retained()
            .filter(|&g| self.window.failed(g))
            .count();
        (self.window.len() - failed, failed)
    }

    /// A copy of one retained trace.
    pub fn trace(&self, gid: usize) -> Trace {
        self.window.get(gid).clone()
    }

    /// Copies the retained window out as a labeled set.
    pub fn to_trace_set(&self) -> TraceSet {
        self.window.to_trace_set()
    }

    /// Direct access to the retained window.
    pub fn window(&self) -> &TraceWindow {
        &self.window
    }

    /// Records quarantined by the streaming decoder.
    pub fn quarantine(&self) -> &[Quarantined] {
        self.decoder.quarantine()
    }

    /// Takes (and releases) the accumulated quarantine entries; the
    /// `quarantined` counter in [`IngestStats`] still records the total.
    pub fn drain_quarantine(&mut self) -> Vec<Quarantined> {
        self.decoder.drain_quarantine()
    }

    /// The active extraction configuration.
    pub fn extraction_config(&self) -> &ExtractionConfig {
        &self.config.extraction
    }

    /// Brings the incremental analysis up to date with every stored trace
    /// and returns it (`None` until at least one failure is stored).
    pub fn refresh(&mut self) -> Option<&AidAnalysis> {
        let started = std::time::Instant::now();
        self.view.refresh(&self.window);
        self.refresh_timer.record_duration(started.elapsed());
        self.view.analysis()
    }

    /// The analysis as of the last [`TraceStore::refresh`].
    pub fn analysis(&self) -> Option<&AidAnalysis> {
        self.view.analysis()
    }

    /// Records one standing-query delta decision (re-probed vs skipped
    /// predicates) into the view telemetry.
    pub fn record_probe_delta(&mut self, reprobed: u64, skipped: u64) {
        self.view.record_probe_delta(reprobed, skipped);
    }

    /// Aggregate telemetry.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            ingest: self.decoder.stats(),
            window: self.window.stats(),
            view: self.view.stats(),
        }
    }

    /// Freezes the current analysis (as of the last refresh) for engine
    /// consumption. `None` until a refresh has published one.
    pub fn snapshot(&self) -> Option<StoreSnapshot> {
        self.view.analysis().map(|a| StoreSnapshot {
            catalog: Arc::new(a.extraction.catalog.clone()),
            failure: a.extraction.failure,
            signature: a.extraction.signature.clone(),
            dag: Arc::new(a.dag.clone()),
            traces: self.view.seen() - self.view.base(),
        })
    }
}
