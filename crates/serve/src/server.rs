//! The session server: one readiness-driven reactor thread multiplexing
//! every connection, a handler pool for request work, one shared engine,
//! and a per-connection [`TraceStore`]/analysis.
//!
//! **Reactor.** Connections are nonblocking per-connection state machines
//! driven by the reactor module: an idle connection costs a registered
//! fd (TCP) or waker (in-proc duplex), not a parked thread burning a
//! wakeup every 100 ms–1 s. Decoded requests are shipped — together with
//! the connection's `ClientCtx` — to a small handler pool, because a
//! request may legitimately block (a watch tick runs discovery probes to
//! completion); the reactor itself never does.
//!
//! **Engine.** Every connection submits to one [`Engine`], so identical
//! recipes from any client (one-shot *and* watcher re-probes) meet in one
//! intervention cache, which splits its own lock `cache_shards` ways.
//!
//! **Admission control.** Three bounds shed load with typed replies
//! instead of queueing unboundedly:
//!
//! 1. *per connection* — at most `max_sessions_per_client` undelivered
//!    sessions; a result frees its slot when the client polls it.
//! 2. *server-wide* — the engine's `max_pending` bound, enforced through
//!    the non-blocking `try_submit` so submission bursts never block
//!    handler threads.
//! 3. *connections* — a CAS reservation on `active_connections` (no
//!    load-then-increment window), refused with `TooManyConnections`.
//!
//! **Drain.** [`ServerHandle::shutdown`] stops accepting, closes idle and
//! streaming connections at the next reactor wakeup (streams get a terminal
//! `Error { code: Draining }`), waits out in-flight requests, then drains
//! the engine — in-flight sessions complete engine-side; new submissions
//! are refused with `Overloaded { scope: Draining }`.

use crate::protocol::{
    options_from_wire, AnalysisSpec, ErrorCode, OverloadScope, ProgramSpec, Request, Response,
    SessionState,
};
use crate::transport::{Listener, ReadySignal};
use crate::wire::{self, PROTOCOL_VERSION};
use aid_cases::all_cases;
use aid_core::Strategy;
use aid_engine::{
    DiscoveryJob, Engine, EngineConfig, EngineHandle, Session, SessionPoll, METRICS_PREFIX,
};
use aid_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use aid_sim::Simulator;
use aid_store::{RetentionPolicy, StoreConfig, TraceStore};
use aid_synth::SynthParams;
use aid_watch::{WatchConfig, Watcher};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Server sizing and policy knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Engine sizing (worker pool, cache, `max_pending` backpressure
    /// bound — the server-wide admission limit).
    pub engine: EngineConfig,
    /// Per-connection trace-store sizing and extraction configuration.
    pub store: StoreConfig,
    /// Undelivered sessions one connection may hold before submissions
    /// are refused with `Overloaded { scope: Client }`.
    pub max_sessions_per_client: usize,
    /// Standing queries one connection may hold open before `Subscribe`
    /// is refused with `Overloaded { scope: Client }` — each watch costs
    /// a windowed trace store and re-runs discovery on its ticks, so the
    /// bound sits well below the session bound.
    pub max_watches_per_client: usize,
    /// Simultaneously open connections before further accepts are
    /// answered with `Error { code: TooManyConnections }` and closed —
    /// each connection costs a handler thread and a trace store, so the
    /// cap must sit in front of them.
    pub max_connections: usize,
    /// Cumulative upload bytes one connection may ingest per upload
    /// (`BeginUpload` resets the budget) before chunks are refused with
    /// `Error { code: UploadTooLarge }`.
    pub max_upload_bytes: u64,
    /// Largest accepted frame payload.
    pub max_frame_len: usize,
    /// Handler pool size; `0` picks `max(4, engine.workers)`. Handlers
    /// run request work the reactor must not block on (uploads, watch
    /// ticks); they are I/O-parked most of the time, so the pool sits
    /// above the CPU worker pool, not beside it.
    pub handler_threads: usize,
    /// Server self-identification, echoed in `HelloOk`.
    pub server_name: String,
    /// Execution backend for simulators rebuilt from [`ProgramSpec`]s
    /// (bytecode by default; traces and results are backend-independent,
    /// so this only affects throughput).
    pub backend: aid_sim::Backend,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: EngineConfig::default(),
            store: StoreConfig::default(),
            max_sessions_per_client: 4,
            max_watches_per_client: 2,
            max_connections: 256,
            // Generous next to real corpora (the six case studies encode
            // to ~100 KiB each) while bounding a hostile uploader.
            max_upload_bytes: 64 << 20,
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
            handler_threads: 0,
            server_name: "aid-serve".to_string(),
            backend: aid_sim::Backend::default(),
        }
    }
}

/// Lock-free server-side counters (the non-engine half of
/// [`ServerStats`]), held as [`aid_obs`] registry handles: the summary
/// is read back out of a registry snapshot, so it and the `Metrics`
/// exposition can never disagree.
pub(crate) struct Counters {
    pub(crate) connections: Counter,
    pub(crate) connections_refused: Counter,
    active_connections: Gauge,
    pub(crate) frames_in: Counter,
    pub(crate) frames_out: Counter,
    pub(crate) bytes_in: Counter,
    pub(crate) bytes_out: Counter,
    upload_chunks: Counter,
    traces_ingested: Counter,
    records_quarantined: Counter,
    sessions_accepted: Counter,
    rejected_client: Counter,
    rejected_engine: Counter,
    sessions_cancelled: Counter,
    sessions_delivered: Counter,
    sessions_lost: Counter,
    pub(crate) protocol_errors: Counter,
    store_evicted: Counter,
    store_compactions: Counter,
    view_reprobed: Counter,
    view_skipped: Counter,
    watches_subscribed: Counter,
    watch_events: Counter,
    peak_connections: Gauge,
    pub(crate) handler_dispatches: Counter,
}

impl Default for Counters {
    /// Detached (unregistered) cells, for tests that exercise the
    /// reservation logic without a server.
    fn default() -> Self {
        Counters {
            connections: Counter::detached(),
            connections_refused: Counter::detached(),
            active_connections: Gauge::detached(),
            frames_in: Counter::detached(),
            frames_out: Counter::detached(),
            bytes_in: Counter::detached(),
            bytes_out: Counter::detached(),
            upload_chunks: Counter::detached(),
            traces_ingested: Counter::detached(),
            records_quarantined: Counter::detached(),
            sessions_accepted: Counter::detached(),
            rejected_client: Counter::detached(),
            rejected_engine: Counter::detached(),
            sessions_cancelled: Counter::detached(),
            sessions_delivered: Counter::detached(),
            sessions_lost: Counter::detached(),
            protocol_errors: Counter::detached(),
            store_evicted: Counter::detached(),
            store_compactions: Counter::detached(),
            view_reprobed: Counter::detached(),
            view_skipped: Counter::detached(),
            watches_subscribed: Counter::detached(),
            watch_events: Counter::detached(),
            peak_connections: Gauge::detached(),
            handler_dispatches: Counter::detached(),
        }
    }
}

impl Counters {
    /// Registers every server counter in `metrics` under `serve.*`.
    fn new(metrics: &MetricsRegistry) -> Counters {
        Counters {
            connections: metrics.counter("serve.connections"),
            connections_refused: metrics.counter("serve.connections_refused"),
            active_connections: metrics.gauge("serve.active_connections"),
            frames_in: metrics.counter("serve.frames_in"),
            frames_out: metrics.counter("serve.frames_out"),
            bytes_in: metrics.counter("serve.bytes_in"),
            bytes_out: metrics.counter("serve.bytes_out"),
            upload_chunks: metrics.counter("serve.upload_chunks"),
            traces_ingested: metrics.counter("serve.traces_ingested"),
            records_quarantined: metrics.counter("serve.records_quarantined"),
            sessions_accepted: metrics.counter("serve.sessions_accepted"),
            rejected_client: metrics.counter("serve.rejected_client"),
            rejected_engine: metrics.counter("serve.rejected_engine"),
            sessions_cancelled: metrics.counter("serve.sessions_cancelled"),
            sessions_delivered: metrics.counter("serve.sessions_delivered"),
            sessions_lost: metrics.counter("serve.sessions_lost"),
            protocol_errors: metrics.counter("serve.protocol_errors"),
            store_evicted: metrics.counter("serve.store.evicted"),
            store_compactions: metrics.counter("serve.store.compactions"),
            view_reprobed: metrics.counter("serve.view.reprobed"),
            view_skipped: metrics.counter("serve.view.skipped"),
            watches_subscribed: metrics.counter("serve.watches_subscribed"),
            watch_events: metrics.counter("serve.watch_events"),
            peak_connections: metrics.gauge("serve.peak_connections"),
            handler_dispatches: metrics.counter("serve.handler_dispatches"),
        }
    }
    /// Atomically claims a connection slot below `max`, or refuses.
    ///
    /// This must be a single CAS, not a load-then-increment: the load's
    /// answer is stale by the time the increment lands, so two racing
    /// accepts at `max - 1` would both pass the check and over-admit.
    /// The single-acceptor loop hid that window; the reactor (and any
    /// future multi-shard accept path) must not rely on it.
    pub(crate) fn try_reserve_connection(&self, max: u64) -> bool {
        let reserved = self
            .active_connections
            .fetch_update(|active| (active < max).then_some(active + 1))
            .is_ok();
        if reserved {
            self.peak_connections
                .record_max(self.active_connections.get());
        }
        reserved
    }

    /// Returns a reservation taken by
    /// [`Counters::try_reserve_connection`].
    pub(crate) fn release_connection(&self) {
        self.active_connections.sub(1);
    }
}

/// The server-wide telemetry summary: connection/frame/upload/session
/// counters plus the engine's execution and cache counters. Every field
/// is one `aid_obs` registry cell, read by name from a
/// [`MetricsSnapshot`] ([`ServerStats::from_snapshot`]), so the summary a
/// server reports in-process and the one a client derives from a
/// `Metrics` frame are the same numbers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStats {
    /// Connections accepted since start.
    pub connections: u64,
    /// Connections refused at the connection cap.
    pub connections_refused: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Request frames read.
    pub frames_in: u64,
    /// Response frames written.
    pub frames_out: u64,
    /// Payload + header bytes read.
    pub bytes_in: u64,
    /// Payload + header bytes written.
    pub bytes_out: u64,
    /// Upload chunks ingested.
    pub upload_chunks: u64,
    /// Complete traces ingested across all clients.
    pub traces_ingested: u64,
    /// Records quarantined by streaming ingestion across all clients.
    pub records_quarantined: u64,
    /// Sessions admitted to the engine.
    pub sessions_accepted: u64,
    /// Submissions refused at the per-client bound.
    pub rejected_client: u64,
    /// Submissions refused by engine saturation or drain.
    pub rejected_engine: u64,
    /// Sessions cancelled by their client.
    pub sessions_cancelled: u64,
    /// Results delivered to clients.
    pub sessions_delivered: u64,
    /// Sessions that died without a result.
    pub sessions_lost: u64,
    /// Malformed frames / transport violations observed.
    pub protocol_errors: u64,
    /// Engine: real executions performed.
    pub executions: u64,
    /// Engine: intervention-cache hits.
    pub cache_hits: u64,
    /// Engine: intervention-cache misses.
    pub cache_misses: u64,
    /// Engine: sessions completed.
    pub sessions_completed: u64,
    /// Engine: highest simultaneously-pending session count observed.
    pub peak_pending: u64,
    /// Stores: traces evicted by windowed retention, across connections.
    pub store_evicted: u64,
    /// Stores: eviction passes that dropped at least one trace.
    pub store_compactions: u64,
    /// Standing queries: candidate predicates re-probed after a delta.
    pub view_reprobed: u64,
    /// Standing queries: candidate predicates skipped as unchanged.
    pub view_skipped: u64,
    /// Standing queries opened.
    pub watches_subscribed: u64,
    /// Watch events emitted to clients.
    pub watch_events: u64,
    /// Highest simultaneously-open connection count observed.
    pub peak_connections: u64,
    /// Handler jobs shipped from the reactor to the handler pool, one per
    /// batch of pipelined requests — the reactor's "wakeups that cost
    /// CPU" measure; an idle connection contributes zero between frames.
    pub handler_dispatches: u64,
}

impl ServerStats {
    /// Cache hit fraction in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// All submissions refused, across scopes.
    pub fn rejections(&self) -> u64 {
        self.rejected_client + self.rejected_engine
    }

    /// Reads the summary out of a registry snapshot. A cell missing from
    /// the snapshot (a registry that never registered it) reads as zero.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> ServerStats {
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        let gauge = |name: &str| snapshot.gauge(name).unwrap_or(0);
        let engine = |name: &str| format!("{METRICS_PREFIX}.{name}");
        ServerStats {
            connections: counter("serve.connections"),
            connections_refused: counter("serve.connections_refused"),
            active_connections: gauge("serve.active_connections"),
            frames_in: counter("serve.frames_in"),
            frames_out: counter("serve.frames_out"),
            bytes_in: counter("serve.bytes_in"),
            bytes_out: counter("serve.bytes_out"),
            upload_chunks: counter("serve.upload_chunks"),
            traces_ingested: counter("serve.traces_ingested"),
            records_quarantined: counter("serve.records_quarantined"),
            sessions_accepted: counter("serve.sessions_accepted"),
            rejected_client: counter("serve.rejected_client"),
            rejected_engine: counter("serve.rejected_engine"),
            sessions_cancelled: counter("serve.sessions_cancelled"),
            sessions_delivered: counter("serve.sessions_delivered"),
            sessions_lost: counter("serve.sessions_lost"),
            protocol_errors: counter("serve.protocol_errors"),
            executions: counter(&engine("executions")),
            cache_hits: counter(&engine("cache.hits")),
            cache_misses: counter(&engine("cache.misses")),
            sessions_completed: counter(&engine("sessions_completed")),
            peak_pending: gauge(&engine("peak_pending")),
            store_evicted: counter("serve.store.evicted"),
            store_compactions: counter("serve.store.compactions"),
            view_reprobed: counter("serve.view.reprobed"),
            view_skipped: counter("serve.view.skipped"),
            watches_subscribed: counter("serve.watches_subscribed"),
            watch_events: counter("serve.watch_events"),
            peak_connections: gauge("serve.peak_connections"),
            handler_dispatches: counter("serve.handler_dispatches"),
        }
    }
}

/// The server's latency histograms, one handle per timed path. Registered
/// alongside [`Counters`] so a single snapshot carries both.
pub(crate) struct Timings {
    /// Reactor wake-to-park dwell: how long one reactor wakeup spends
    /// draining completions, dispatching, flushing and retiring before it
    /// parks again — the head-of-line budget every connection shares.
    pub(crate) reactor_dwell: Histogram,
    /// Handler-pool queue wait: dispatch to dequeue.
    pub(crate) handler_queue_wait: Histogram,
    /// Pure request-handling time inside a handler thread, per request.
    pub(crate) handler_handle: Histogram,
    /// Full batch turnaround: reactor dispatch to responses queued for
    /// write (queue wait + handling + completion-drain latency).
    pub(crate) frame: Histogram,
    /// One standing-query `tick()` (discovery probes run to completion).
    pub(crate) watch_tick: Histogram,
}

impl Timings {
    fn new(metrics: &MetricsRegistry) -> Timings {
        Timings {
            reactor_dwell: metrics.histogram("serve.reactor.dwell_us"),
            handler_queue_wait: metrics.histogram("serve.handler.queue_wait_us"),
            handler_handle: metrics.histogram("serve.handler.handle_us"),
            frame: metrics.histogram("serve.frame_us"),
            watch_tick: metrics.histogram("serve.watch.tick_us"),
        }
    }
}

pub(crate) struct ServerShared {
    pub(crate) config: ServeConfig,
    pub(crate) engine: Engine,
    pub(crate) counters: Counters,
    pub(crate) timings: Timings,
    /// The unified registry: engine, pool, store and serve tiers
    /// all register here, so one snapshot is the whole server.
    pub(crate) metrics: Arc<MetricsRegistry>,
    pub(crate) shutdown: AtomicBool,
    next_session: AtomicU32,
}

impl ServerShared {
    /// Handler pool sizing: the configured count, or a floor that keeps a
    /// few request lanes open even on a single-core host (handlers park
    /// on engine results more than they burn CPU).
    pub(crate) fn handler_threads(&self) -> usize {
        if self.config.handler_threads > 0 {
            self.config.handler_threads
        } else {
            self.config.engine.workers.max(4)
        }
    }
}

/// Builder entry points for a running server.
pub struct Server;

impl Server {
    /// Starts a server over either transport's listener. The returned
    /// handle owns the reactor thread; dropping it (or calling
    /// [`ServerHandle::shutdown`]) drains the server. Fails only if the
    /// reactor's waker socket pair cannot be created.
    pub(crate) fn start<L: Listener>(
        listener: L,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        let signal = ReadySignal::new()?;
        let metrics = Arc::new(MetricsRegistry::from_env());
        let engine = Engine::with_metrics(config.engine, Arc::clone(&metrics));
        let shared = Arc::new(ServerShared {
            config,
            engine,
            counters: Counters::new(&metrics),
            timings: Timings::new(&metrics),
            metrics,
            shutdown: AtomicBool::new(false),
            next_session: AtomicU32::new(1),
        });
        let label = listener.label();
        let reactor_shared = Arc::clone(&shared);
        let reactor_signal = Arc::clone(&signal);
        let reactor = std::thread::Builder::new()
            .name(format!("aid-serve-reactor {label}"))
            .spawn(move || crate::reactor::reactor_loop(listener, reactor_shared, reactor_signal))
            .expect("spawn reactor thread");
        Ok(ServerHandle {
            shared,
            signal,
            reactor: Some(reactor),
        })
    }

    /// Convenience: a server on loopback/LAN TCP. Returns the handle and
    /// the bound address (the real port when `addr` used port 0).
    pub fn start_tcp(
        addr: impl std::net::ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<(ServerHandle, std::net::SocketAddr)> {
        let transport = crate::transport::TcpTransport::bind(addr)?;
        let local = transport.local_addr();
        Ok((Server::start(transport, config)?, local))
    }

    /// Convenience: an in-process server for deterministic tests. Returns
    /// the handle and a cloneable connector clients dial through.
    /// Panics if the reactor's waker socket pair cannot be created (the
    /// process is out of file descriptors).
    pub fn start_in_proc(config: ServeConfig) -> (ServerHandle, crate::transport::InProcConnector) {
        let (listener, connector) = crate::transport::in_proc();
        let server = Server::start(listener, config).expect("create the reactor's waker");
        (server, connector)
    }
}

/// A running server. Dropping the handle drains the server (equivalent to
/// [`ServerHandle::shutdown`] with the final stats discarded).
pub struct ServerHandle {
    shared: Arc<ServerShared>,
    signal: Arc<ReadySignal>,
    reactor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// A live telemetry summary (no client round-trip), read from the
    /// same registry a `Metrics` frame carries.
    pub fn stats(&self) -> ServerStats {
        ServerStats::from_snapshot(&self.shared.metrics.snapshot())
    }

    /// Graceful drain: stops accepting, closes idle and streaming
    /// connections at the next reactor wakeup (streams get a terminal
    /// `Error { code: Draining }`; a mid-request connection finishes the
    /// request first), then drains the engine. In-flight sessions
    /// complete; new submissions are refused as
    /// `Overloaded { scope: Draining }`. Returns the final telemetry
    /// snapshot.
    pub fn shutdown(mut self) -> ServerStats {
        self.drain();
        self.stats()
    }

    fn drain(&mut self) {
        self.shared.shutdown.store(true, Relaxed);
        // The reactor may be parked in poll(2) with nothing inbound; the
        // flag alone would never be seen.
        self.signal.notify(crate::reactor::WAKE_TOKEN);
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        self.shared.engine.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            self.drain();
        }
    }
}

/// A store's counters already folded into the server-wide picture — the
/// store's own counters are cumulative, so folding must be by delta or a
/// second fold double-counts.
#[derive(Clone, Copy, Default)]
struct StoreFold {
    traces: u64,
    quarantined: u64,
    evicted: u64,
    compactions: u64,
    reprobed: u64,
    skipped: u64,
}

impl StoreFold {
    /// Folds the delta between `stats` and this record into the
    /// server-wide counters, then advances the record.
    fn fold(&mut self, counters: &Counters, stats: &aid_store::StoreStats) {
        let now = StoreFold {
            traces: stats.ingest.traces,
            quarantined: stats.ingest.quarantined,
            evicted: stats.window.evicted as u64,
            compactions: stats.window.compactions as u64,
            reprobed: stats.view.predicates_reprobed,
            skipped: stats.view.predicates_skipped,
        };
        counters.traces_ingested.add(now.traces - self.traces);
        counters
            .records_quarantined
            .add(now.quarantined - self.quarantined);
        counters.store_evicted.add(now.evicted - self.evicted);
        counters
            .store_compactions
            .add(now.compactions - self.compactions);
        counters.view_reprobed.add(now.reprobed - self.reprobed);
        counters.view_skipped.add(now.skipped - self.skipped);
        *self = now;
    }
}

/// One standing query and its fold cursor.
struct WatchEntry {
    watcher: Watcher,
    folded: StoreFold,
}

/// Per-connection state: the client's trace store, its undelivered
/// session tickets, and its standing queries. The reactor owns it while
/// the connection is reading or streaming and ships it (by move) to a
/// handler thread for the duration of each request.
pub(crate) struct ClientCtx {
    store: TraceStore,
    sessions: HashMap<u32, Session>,
    watches: HashMap<u32, WatchEntry>,
    next_watch: u32,
    engine: EngineHandle,
    /// Fold cursor for the upload store's counters.
    folded: StoreFold,
    /// Bytes ingested against the current upload's quota. Only bulk
    /// upload chunks count; tail appends carry a per-frame bound instead
    /// (their retention window, not a cumulative quota, bounds what the
    /// server keeps).
    upload_bytes: u64,
}

impl ClientCtx {
    pub(crate) fn new(shared: &ServerShared) -> ClientCtx {
        ClientCtx {
            store: TraceStore::with_metrics(shared.config.store.clone(), &shared.metrics),
            sessions: HashMap::new(),
            watches: HashMap::new(),
            next_watch: 1,
            engine: shared.engine.handle(),
            folded: StoreFold::default(),
            upload_bytes: 0,
        }
    }

    /// Registers `f` to run once `session`'s outcome is published (see
    /// `aid_engine::Session::notify_on_ready`); runs it at once for an id
    /// this connection does not hold, which polls as terminal.
    pub(crate) fn notify_on_ready(&self, session: u32, f: impl FnOnce() + Send + 'static) {
        match self.sessions.get(&session) {
            Some(ticket) => ticket.notify_on_ready(f),
            None => f(),
        }
    }

    /// Folds what the connection's stores observed into the server-wide
    /// counters; called exactly once, when the connection retires
    /// (undelivered tickets are discarded and the engine runs their
    /// sessions to completion internally).
    pub(crate) fn fold_final(&mut self, shared: &ServerShared) {
        self.folded.fold(&shared.counters, &self.store.stats());
        for entry in self.watches.values_mut() {
            entry
                .folded
                .fold(&shared.counters, &entry.watcher.store_stats());
        }
    }
}

/// What the reactor should do with the connection after a request.
pub(crate) enum After {
    /// Back to reading (dispatch the next pipelined request, if any).
    Continue,
    /// Flush the queued responses, then close.
    Close,
    /// Enter the streaming state: the session was pending when the
    /// `Stream` was handled (one `Progress` went out), so the reactor
    /// waits for the session's completion push and then sends the
    /// terminal `Status` (or a drain's `Error` ends the stream first).
    Stream {
        /// The session ticket being streamed.
        session: u32,
    },
}

/// Serves a connection's pipelined requests in order, popping each from
/// the front of `requests` as it runs. Stops after the first request whose
/// [`After`] is not `Continue`, or before the next one once the drain flag
/// is up (the drain boundary a one-request dispatch had); whatever is left
/// in `requests` was not run.
pub(crate) fn handle_batch(
    shared: &Arc<ServerShared>,
    ctx: &mut ClientCtx,
    requests: &mut VecDeque<Request>,
) -> (Vec<Response>, After) {
    let mut responses = Vec::with_capacity(requests.len());
    while let Some(request) = requests.pop_front() {
        let handling = Instant::now();
        let (out, after) = handle_request(shared, ctx, request);
        shared
            .timings
            .handler_handle
            .record_duration(handling.elapsed());
        responses.extend(out);
        if !matches!(after, After::Continue) {
            return (responses, after);
        }
        if shared.shutdown.load(Relaxed) {
            break;
        }
    }
    (responses, After::Continue)
}

/// Serves one decoded request against the connection's context. Pure with
/// respect to the transport: responses are returned for the reactor to
/// write, never written here — a handler thread may block on engine work,
/// but it never touches a socket.
fn handle_request(
    shared: &Arc<ServerShared>,
    ctx: &mut ClientCtx,
    request: Request,
) -> (Vec<Response>, After) {
    let mut out = Vec::with_capacity(1);
    let mut send = |response: Response| out.push(response);
    match request {
        Request::Hello { client: _ } => {
            send(Response::HelloOk {
                version: PROTOCOL_VERSION,
                server: shared.config.server_name.clone(),
            });
        }
        Request::BeginUpload { analysis } => {
            // A fresh store: each upload is its own corpus and analysis,
            // extracted under the declared configuration — an analysis is
            // only comparable to an in-process one run under the same
            // purity markings and safety knobs.
            match resolve_extraction(shared, &analysis) {
                Ok(extraction) => {
                    let mut store_config = shared.config.store.clone();
                    store_config.extraction = extraction;
                    // Fold what the replaced store had ingested, then
                    // reset the cursor: the fresh store's counters
                    // restart at zero.
                    ctx.folded.fold(&shared.counters, &ctx.store.stats());
                    ctx.store = TraceStore::with_metrics(store_config, &shared.metrics);
                    ctx.folded = StoreFold::default();
                    ctx.upload_bytes = 0;
                    send(upload_ack(ctx, false));
                }
                Err((code, message)) => send(Response::Error { code, message }),
            }
        }
        Request::UploadChunk { bytes } => {
            // Per-upload byte quota: nothing else bounds how much a
            // client can make the server retain, and sessions-level
            // admission control runs far too late to help.
            if ctx.upload_bytes + bytes.len() as u64 > shared.config.max_upload_bytes {
                send(Response::Error {
                    code: ErrorCode::UploadTooLarge,
                    message: format!(
                        "upload exceeds the {} byte quota; BeginUpload resets it",
                        shared.config.max_upload_bytes
                    ),
                });
            } else {
                ctx.upload_bytes += bytes.len() as u64;
                ctx.store.ingest_bytes(&bytes);
                shared.counters.upload_chunks.inc();
                send(upload_ack(ctx, false));
            }
        }
        Request::FinishUpload => {
            ctx.store.finish_ingest();
            let analyzed = ctx.store.refresh().is_some();
            // Fold this upload's totals into the server-wide picture at
            // the boundary where they stop changing — by delta, because
            // the decoder's counters are cumulative and a client may run
            // several streams through one store.
            ctx.folded.fold(&shared.counters, &ctx.store.stats());
            send(upload_ack(ctx, analyzed));
        }
        Request::SubmitDiscovery {
            name,
            program,
            strategy,
            discovery_seed,
            runs_per_round,
            first_seed,
            prune_quorum,
        } => {
            send(admit(
                shared,
                ctx,
                name,
                program,
                strategy,
                discovery_seed,
                runs_per_round,
                first_seed,
                prune_quorum,
            ));
        }
        Request::Poll { session } => {
            let state = poll_session(shared, ctx, session);
            send(Response::Status { session, state });
        }
        Request::Stream { session } => {
            // No blocking wait here: a pending session turns into a
            // reactor continuation woken by the session's completion
            // hook (where the drain flag is also checked, so a streaming
            // client cannot hold shutdown open until its session ends).
            match poll_session(shared, ctx, session) {
                SessionState::Pending => {
                    let e = shared.engine.stats();
                    send(Response::Progress {
                        session,
                        executions: e.executions,
                        cache_hits: e.cache_hits,
                        sessions_completed: e.sessions_completed,
                    });
                    return (out, After::Stream { session });
                }
                state => send(Response::Status { session, state }),
            }
        }
        Request::Metrics => {
            send(Response::MetricsReply(shared.metrics.snapshot()));
        }
        Request::Cancel { session } => {
            let existed = ctx.sessions.remove(&session).is_some();
            if existed {
                shared.counters.sessions_cancelled.inc();
            }
            send(Response::Cancelled { session, existed });
        }
        Request::Goodbye => {
            send(Response::Bye);
            return (out, After::Close);
        }
        Request::Subscribe {
            name,
            analysis,
            program,
            strategy,
            discovery_seed,
            runs_per_round,
            first_seed,
            prune_quorum,
            retention_traces,
            retention_age,
            max_probe_runs,
        } => {
            send(admit_watch(
                shared,
                ctx,
                name,
                &analysis,
                &program,
                strategy,
                discovery_seed,
                runs_per_round,
                first_seed,
                prune_quorum,
                retention_traces,
                retention_age,
                max_probe_runs,
            ));
        }
        Request::StreamTail { watch, bytes, fin } => {
            // Tails carry a *per-frame* bound, not the upload's cumulative
            // quota: a long-lived watcher streams small appends forever,
            // and counting them against a budget only `BeginUpload` resets
            // would eventually refuse a perfectly healthy client. What the
            // server *retains* is bounded by the watch's retention window,
            // so the hostile-uploader bound survives — one frame can still
            // not exceed the quota (nor `max_frame_len`, which the wire
            // layer enforces first).
            if bytes.len() as u64 > shared.config.max_upload_bytes {
                send(Response::Error {
                    code: ErrorCode::UploadTooLarge,
                    message: format!(
                        "tail frame exceeds the {} byte per-frame bound",
                        shared.config.max_upload_bytes
                    ),
                });
                return (out, After::Continue);
            }
            let Some(entry) = ctx.watches.get_mut(&watch) else {
                send(Response::Error {
                    code: ErrorCode::UnknownWatch,
                    message: format!("no standing query with id {watch} on this connection"),
                });
                return (out, After::Continue);
            };
            shared.counters.upload_chunks.inc();
            entry.watcher.push_bytes(&bytes);
            if fin {
                entry.watcher.finish_tail();
            }
            let tick_started = Instant::now();
            let ticked = entry.watcher.tick();
            shared
                .timings
                .watch_tick
                .record_duration(tick_started.elapsed());
            let response = match ticked {
                Ok(events) => {
                    shared.counters.watch_events.add(events.len() as u64);
                    entry
                        .folded
                        .fold(&shared.counters, &entry.watcher.store_stats());
                    Response::WatchEvents {
                        watch,
                        traces: entry.watcher.store_stats().ingest.traces,
                        events,
                    }
                }
                Err(e) => Response::Error {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                },
            };
            send(response);
        }
        Request::Unsubscribe { watch } => {
            let existed = match ctx.watches.remove(&watch) {
                Some(mut entry) => {
                    entry
                        .folded
                        .fold(&shared.counters, &entry.watcher.store_stats());
                    true
                }
                None => false,
            };
            send(Response::Unsubscribed { watch, existed });
        }
    }
    (out, After::Continue)
}

/// Admission control + watcher construction for one standing query.
#[allow(clippy::too_many_arguments)]
fn admit_watch(
    shared: &ServerShared,
    ctx: &mut ClientCtx,
    name: String,
    analysis: &AnalysisSpec,
    program: &ProgramSpec,
    strategy: Strategy,
    discovery_seed: u64,
    runs_per_round: u32,
    first_seed: u64,
    prune_quorum: u32,
    retention_traces: u64,
    retention_age: u64,
    max_probe_runs: u64,
) -> Response {
    let limit = shared.config.max_watches_per_client;
    if shared.shutdown.load(Relaxed) {
        shared.counters.rejected_engine.inc();
        return Response::Overloaded {
            scope: OverloadScope::Draining,
            in_flight: ctx.watches.len() as u32,
            limit: limit as u32,
        };
    }
    if ctx.watches.len() >= limit {
        shared.counters.rejected_client.inc();
        return Response::Overloaded {
            scope: OverloadScope::Client,
            in_flight: ctx.watches.len() as u32,
            limit: limit as u32,
        };
    }
    let simulator = match program {
        ProgramSpec::Synth { .. } => {
            return Response::Error {
                code: ErrorCode::Unwatchable,
                message: "the synthetic oracle consumes no trace stream; nothing to watch".into(),
            }
        }
        ProgramSpec::Case { name: case } => match find_case(case) {
            Ok(case) => Simulator::new(case.program)
                .with_backend(shared.config.backend)
                .with_metrics(&shared.metrics),
            Err((code, message)) => return Response::Error { code, message },
        },
        ProgramSpec::Lab(spec) => Simulator::new(aid_lab::build(spec).program)
            .with_backend(shared.config.backend)
            .with_metrics(&shared.metrics),
    };
    let extraction = match resolve_extraction(shared, analysis) {
        Ok(extraction) => extraction,
        Err((code, message)) => return Response::Error { code, message },
    };
    let mut store = shared.config.store.clone();
    store.extraction = extraction;
    store.retention = RetentionPolicy {
        max_traces: (retention_traces > 0).then_some(retention_traces as usize),
        max_age: (retention_age != u64::MAX).then_some(retention_age),
    };
    let config = WatchConfig {
        store,
        strategy,
        discovery_seed,
        runs_per_round: runs_per_round.max(1) as usize,
        first_seed,
        prune_quorum: prune_quorum.max(1) as usize,
        max_probe_runs: (max_probe_runs != u64::MAX).then_some(max_probe_runs),
        name,
    };
    let watcher = Watcher::new(config, Arc::new(simulator), shared.engine.handle());
    let id = ctx.next_watch;
    ctx.next_watch += 1;
    ctx.watches.insert(
        id,
        WatchEntry {
            watcher,
            folded: StoreFold::default(),
        },
    );
    shared.counters.watches_subscribed.inc();
    Response::Subscribed { watch: id }
}

fn upload_ack(ctx: &ClientCtx, analyzed: bool) -> Response {
    let stats = ctx.store.stats();
    Response::UploadAck {
        traces: stats.ingest.traces,
        quarantined: stats.ingest.quarantined,
        analyzed,
    }
}

/// Polls one session ticket, freeing its admission slot on any terminal
/// state. A result is delivered exactly once; later polls see `Unknown`.
pub(crate) fn poll_session(
    shared: &ServerShared,
    ctx: &mut ClientCtx,
    session: u32,
) -> SessionState {
    let Some(ticket) = ctx.sessions.get(&session) else {
        return SessionState::Unknown;
    };
    match ticket.try_wait() {
        SessionPoll::Pending => SessionState::Pending,
        SessionPoll::Ready(result) => {
            ctx.sessions.remove(&session);
            shared.counters.sessions_delivered.inc();
            SessionState::Done(result.result)
        }
        // A typed session failure (e.g. a VM trap from an invalid
        // intervention) is reported on the existing wire vocabulary as
        // `Lost`: the client learns the session produced no result, and
        // the server (engine included) keeps serving.
        SessionPoll::Failed(_) | SessionPoll::Lost => {
            ctx.sessions.remove(&session);
            shared.counters.sessions_lost.inc();
            SessionState::Lost
        }
    }
}

/// Looks up one case study by name with the service's typed error.
fn find_case(name: &str) -> Result<aid_cases::CaseStudy, (ErrorCode, String)> {
    all_cases().into_iter().find(|c| c.name == name).ok_or((
        ErrorCode::UnknownCase,
        format!("no case study named '{name}'"),
    ))
}

/// Resolves an upload's declared extraction configuration.
fn resolve_extraction(
    shared: &ServerShared,
    analysis: &AnalysisSpec,
) -> Result<aid_predicates::ExtractionConfig, (ErrorCode, String)> {
    match analysis {
        AnalysisSpec::Default => Ok(shared.config.store.extraction.clone()),
        AnalysisSpec::Case { name } => Ok(find_case(name)?.config),
        AnalysisSpec::Lab(spec) => Ok(aid_lab::build(spec).config),
    }
}

/// Admission control + job construction for one submission.
#[allow(clippy::too_many_arguments)]
fn admit(
    shared: &ServerShared,
    ctx: &mut ClientCtx,
    name: String,
    program: ProgramSpec,
    strategy: Strategy,
    discovery_seed: u64,
    runs_per_round: u32,
    first_seed: u64,
    prune_quorum: u32,
) -> Response {
    let limit = shared.config.max_sessions_per_client;
    if shared.shutdown.load(Relaxed) {
        shared.counters.rejected_engine.inc();
        return Response::Overloaded {
            scope: OverloadScope::Draining,
            in_flight: ctx.sessions.len() as u32,
            limit: limit as u32,
        };
    }
    if ctx.sessions.len() >= limit {
        shared.counters.rejected_client.inc();
        return Response::Overloaded {
            scope: OverloadScope::Client,
            in_flight: ctx.sessions.len() as u32,
            limit: limit as u32,
        };
    }
    let job = match build_job(
        ctx,
        shared,
        name,
        program,
        strategy,
        discovery_seed,
        runs_per_round,
        first_seed,
        prune_quorum,
    ) {
        Ok(job) => job,
        Err((code, message)) => return Response::Error { code, message },
    };
    match ctx.engine.try_submit(job) {
        Ok(ticket) => {
            let id = shared.next_session.fetch_add(1, Relaxed);
            ctx.sessions.insert(id, ticket);
            shared.counters.sessions_accepted.inc();
            Response::Submitted { session: id }
        }
        Err(saturated) => {
            shared.counters.rejected_engine.inc();
            Response::Overloaded {
                scope: if saturated.shutting_down {
                    OverloadScope::Draining
                } else {
                    OverloadScope::Engine
                },
                in_flight: saturated.pending as u32,
                limit: shared.config.engine.max_pending as u32,
            }
        }
    }
}

/// Rebuilds the intervention substrate named by a [`ProgramSpec`] and
/// binds it to the connection's uploaded analysis.
#[allow(clippy::too_many_arguments)]
fn build_job(
    ctx: &mut ClientCtx,
    shared: &ServerShared,
    name: String,
    program: ProgramSpec,
    strategy: Strategy,
    discovery_seed: u64,
    runs_per_round: u32,
    first_seed: u64,
    prune_quorum: u32,
) -> Result<DiscoveryJob, (ErrorCode, String)> {
    let backend = shared.config.backend;
    let options = options_from_wire(prune_quorum);
    let simulator = match &program {
        ProgramSpec::Synth { app_seed } => {
            // The exact oracle knows its ground truth; no upload involved.
            let app = aid_synth::generate(&SynthParams::default(), *app_seed);
            let mut job = DiscoveryJob::oracle(
                name,
                Arc::new(app.dag.clone()),
                app.truth.clone(),
                strategy,
                discovery_seed,
            );
            job.options = options;
            return Ok(job);
        }
        ProgramSpec::Case { name: case } => Simulator::new(find_case(case)?.program)
            .with_backend(backend)
            .with_metrics(&shared.metrics),
        ProgramSpec::Lab(spec) => Simulator::new(aid_lab::build(spec).program)
            .with_backend(backend)
            .with_metrics(&shared.metrics),
    };
    // Catch an upload that was never `FinishUpload`ed: refresh is
    // incremental, so this is cheap when the analysis is already current.
    ctx.store.refresh();
    let Some(snapshot) = ctx.store.snapshot() else {
        return Err((
            ErrorCode::NoAnalysis,
            "no uploaded analysis: upload a corpus with at least one failing trace first".into(),
        ));
    };
    let mut job = snapshot.discovery_job(
        name,
        Arc::new(simulator),
        runs_per_round as usize,
        first_seed,
        strategy,
        discovery_seed,
    );
    job.options = options;
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::time::Duration;

    /// The connection-cap reservation is a single CAS, not the racy
    /// load-then-increment it replaced: hammered from many threads at the
    /// cap, the active count never overshoots, every admit is matched by
    /// a release, and the books balance exactly.
    #[test]
    fn connection_reservation_never_overshoots_under_contention() {
        const CAP: u64 = 4;
        const THREADS: usize = 8;
        const ROUNDS: usize = 2_000;

        let counters = Arc::new(Counters::default());
        let admitted = Arc::new(AtomicU64::new(0));
        let refused = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let counters = Arc::clone(&counters);
                let admitted = Arc::clone(&admitted);
                let refused = Arc::clone(&refused);
                std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        if counters.try_reserve_connection(CAP) {
                            // The invariant the old load-then-increment
                            // violated: a reserved slot is never one of
                            // more than CAP.
                            let active = counters.active_connections.get();
                            assert!(active <= CAP, "overshoot: {active} > {CAP}");
                            admitted.fetch_add(1, Relaxed);
                            std::thread::yield_now();
                            counters.release_connection();
                        } else {
                            refused.fetch_add(1, Relaxed);
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("hammer thread panicked");
        }

        assert_eq!(
            admitted.load(Relaxed) + refused.load(Relaxed),
            (THREADS * ROUNDS) as u64
        );
        assert_eq!(counters.active_connections.get(), 0, "every admit released");
        let peak = counters.peak_connections.get();
        assert!((1..=CAP).contains(&peak), "peak {peak} within (0, {CAP}]");
        // Contended enough to mean something: with 8 threads on a cap of
        // 4, at least one reservation must have been refused.
        assert!(refused.load(Relaxed) > 0, "the cap was never contended");
    }

    /// A cap of zero admits nothing — the CAS closure never finds room.
    #[test]
    fn zero_cap_refuses_everything() {
        let counters = Counters::default();
        assert!(!counters.try_reserve_connection(0));
        assert_eq!(counters.peak_connections.get(), 0);
    }

    fn next_response(conn: &mut impl std::io::Read) -> Response {
        let (kind, payload) = wire::read_frame(conn, wire::DEFAULT_MAX_FRAME_LEN)
            .expect("response frame")
            .expect("connection open");
        Response::decode_payload(kind, &payload).expect("decodable response")
    }

    /// A server whose single engine worker is parked on a gate, so a
    /// submitted session provably stays pending until the gate is sent.
    fn gated_server<L: Listener>(listener: L) -> (ServerHandle, crossbeam::channel::Sender<()>) {
        let config = ServeConfig {
            engine: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            ..ServeConfig::default()
        };
        let server = Server::start(listener, config).expect("start");
        let (gate_tx, gate_rx) = crossbeam::channel::unbounded::<()>();
        server.shared.engine.pool().spawn(move || {
            let _ = gate_rx.recv();
        });
        (server, gate_tx)
    }

    /// Reactor wakeups so far: one dwell sample is recorded per wakeup.
    fn wakeups(snapshot: &MetricsSnapshot) -> u64 {
        snapshot
            .histogram("serve.reactor.dwell_us")
            .expect("dwell histogram registered")
            .count
    }

    /// `SubmitDiscovery` (a fresh server's first session is id 1) and a
    /// `Stream` of it, pipelined in one write.
    fn submit_and_stream() -> Vec<u8> {
        let spec = crate::SubmitSpec::new("gated", ProgramSpec::Synth { app_seed: 1 });
        let mut frames = Request::SubmitDiscovery {
            name: spec.name,
            program: spec.program,
            strategy: spec.strategy,
            discovery_seed: spec.discovery_seed,
            runs_per_round: spec.runs_per_round,
            first_seed: spec.first_seed,
            prune_quorum: spec.prune_quorum,
        }
        .encode();
        frames.extend(Request::Stream { session: 1 }.encode());
        frames
    }

    /// Reads `Submitted { 1 }` and then the one `Progress` a stream of a
    /// pending session opens with: the connection is now `Streaming`.
    fn expect_submitted_then_progress(conn: &mut impl std::io::Read) {
        assert_eq!(next_response(conn), Response::Submitted { session: 1 });
        match next_response(conn) {
            Response::Progress { session, .. } => assert_eq!(session, 1),
            other => panic!("expected the stream's Progress frame, got {other:?}"),
        }
    }

    /// Draining while a client is mid-`Stream` ends the stream with a
    /// typed `Draining` error instead of holding shutdown open until the
    /// session completes. The engine's only worker is gated, so the
    /// streamed session is still pending when the error arrives: the
    /// drain provably did not wait for it.
    #[test]
    fn drain_interrupts_streaming_clients_promptly() {
        let (listener, connector) = crate::transport::in_proc();
        let (server, gate_tx) = gated_server(listener);
        let mut conn = connector.connect().expect("connect");
        wire::write_frame(&mut conn, &submit_and_stream()).unwrap();
        expect_submitted_then_progress(&mut conn);

        let drain = std::thread::spawn(move || server.shutdown());
        match next_response(&mut conn) {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Draining, "typed terminal error: {message}");
            }
            other => panic!("expected a terminal Draining error, got {other:?}"),
        }

        // Only now may the session run; the engine drain completes it.
        gate_tx.send(()).unwrap();
        let stats = drain.join().expect("drain thread panicked");
        assert_eq!(stats.sessions_accepted, 1);
        assert_eq!(
            stats.sessions_delivered, 0,
            "the stream was cut, not served"
        );
        assert_eq!(stats.sessions_completed, 1, "the engine drain ran it");
    }

    /// A peer that half-closes while its stream waits on the engine
    /// leaves an EOF that stays readable for good. The reactor must stop
    /// polling for it: its wakeups stay flat until the session completes,
    /// and the terminal `Status` still reaches the half-closed peer. The
    /// sleep only gives a spinning reactor time to show; passing never
    /// depends on its length.
    #[test]
    fn half_closed_stream_does_not_spin_the_reactor() {
        use std::io::Read;
        use std::net::{Shutdown, TcpStream};

        let transport = crate::transport::TcpTransport::bind("127.0.0.1:0").expect("bind");
        let addr = transport.local_addr();
        let (server, gate_tx) = gated_server(transport);
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_nodelay(true).unwrap();
        wire::write_frame(&mut conn, &submit_and_stream()).unwrap();
        expect_submitted_then_progress(&mut conn);

        let before = wakeups(&server.shared.metrics.snapshot());
        conn.shutdown(Shutdown::Write).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let after = wakeups(&server.shared.metrics.snapshot());
        // At most the wakeup that read the EOF, plus the one that sent
        // `Progress` if it had not parked yet when `before` was read.
        assert!(
            after - before <= 2,
            "a half-closed peer spun the reactor: {} wakeups while gated",
            after - before
        );

        gate_tx.send(()).unwrap();
        match next_response(&mut conn) {
            Response::Status { session, state } => {
                assert_eq!(session, 1);
                assert!(matches!(state, SessionState::Done(_)), "{state:?}");
            }
            other => panic!("expected the terminal Status, got {other:?}"),
        }
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).expect("clean close");
        assert!(rest.is_empty(), "nothing follows the terminal Status");
        let stats = server.shutdown();
        assert_eq!(stats.sessions_delivered, 1);
    }

    /// A stream parked behind a gated engine worker costs the reactor no
    /// wakeups of its own: between two `Metrics` reads on another
    /// connection, the wakeup count grows only by those reads' own
    /// wakeups. The sleep only gives a stream timer time to show.
    #[test]
    fn parked_stream_costs_no_reactor_wakeups() {
        let (listener, connector) = crate::transport::in_proc();
        let (server, gate_tx) = gated_server(listener);
        let mut streaming = connector.connect().expect("connect");
        wire::write_frame(&mut streaming, &submit_and_stream()).unwrap();
        expect_submitted_then_progress(&mut streaming);

        let mut observer = crate::AidClient::connect_in_proc(&connector).expect("connect");
        // One round trip first: a connect can leave a stale notify behind
        // (the accept's registration replays bytes its first read takes),
        // and its wakeup must land before the measured window opens.
        observer.hello("observer").expect("hello");
        let first = wakeups(&observer.metrics().expect("metrics"));
        std::thread::sleep(Duration::from_millis(30));
        let second = wakeups(&observer.metrics().expect("metrics"));
        // A wakeup's dwell is recorded when it parks, which can be after
        // a handler took the snapshot it dispatched: the first read's
        // request wakeup may land after `first`, its reply wakeup always
        // does, and the second read's request wakeup may land before
        // `second`.
        assert!(
            second - first <= 3,
            "the parked stream woke the reactor: {} wakeups between two reads",
            second - first
        );

        gate_tx.send(()).unwrap();
        assert!(matches!(
            next_response(&mut streaming),
            Response::Status {
                session: 1,
                state: SessionState::Done(_)
            }
        ));
        server.shutdown();
    }
}
