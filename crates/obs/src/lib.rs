//! `aid_obs` — the unified telemetry plane.
//!
//! Every tier of the service — reactor, handler pool, engine, columnar
//! store, watchers — used to report through its own ad-hoc struct of
//! counters. This crate replaces those with one substrate:
//!
//! 1. **A metrics registry** ([`MetricsRegistry`]) of named atomic
//!    counters, gauges, and fixed-bucket log-scale latency histograms.
//!    Registration is a cold-path operation under a lock; the handles it
//!    returns ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed
//!    and record with plain atomic stores — no locks, no allocation, no
//!    formatting on the hot path. [`MetricsRegistry::snapshot`] produces
//!    a *consistent* [`MetricsSnapshot`]: every histogram's bucket sum
//!    equals its recorded count (no torn reads), so p50/p90/p99/max are
//!    recoverable exactly from the frozen buckets.
//! 2. **Exposition** — [`MetricsSnapshot::render_prometheus`] renders a
//!    snapshot in the Prometheus text format; `aid_serve` carries the
//!    same snapshot over the wire in its `Metrics`/`MetricsReply` frame
//!    pair so operators can scrape live servers.
//!
//! Histograms honor the `AID_OBS` environment variable: `AID_OBS=off`
//! (or `0`/`false`) makes every `record` a no-op behind a single cached
//! bool. Counters and gauges are *always* live — they are the single
//! source of truth behind the stats structs (`ServerStats`,
//! `EngineStats`, `ColumnStats`, `WatchStats`), which read through
//! registry handles rather than their own atomics.
//!
//! ```
//! use aid_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::enabled();
//! let hits = registry.counter("engine.cache.hits");
//! let lat = registry.histogram("serve.frame_us");
//! hits.inc();
//! lat.record(250);
//! lat.record(90_000);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("engine.cache.hits"), Some(1));
//! let h = snap.histogram("serve.frame_us").unwrap();
//! assert_eq!(h.count, 2);
//! assert!(h.quantile(0.50) >= 250);
//! assert_eq!(h.max, 90_000);
//! ```

pub mod registry;

pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricEntry, MetricValue, MetricsRegistry,
    MetricsSnapshot, HISTOGRAM_BUCKETS,
};
