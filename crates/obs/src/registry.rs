//! The metrics registry: named counters, gauges, and log-scale latency
//! histograms with consistent snapshots.
//!
//! # Naming scheme
//!
//! Metric names are dotted paths, `tier.component.metric`, with the unit
//! as a suffix where one applies (`serve.frame_us`,
//! `engine.shard0.cache.lease_wait_us`, `store.refresh_us`). Repeated
//! components embed their index in the path segment
//! (`engine.pool.worker0.tasks`, `worker1`, …) so a snapshot is a flat,
//! greppable namespace. The Prometheus renderer maps any character
//! outside `[a-zA-Z0-9_]` to `_`.
//!
//! # Histogram layout
//!
//! Histograms are fixed arrays of [`HISTOGRAM_BUCKETS`] = 64 power-of-two
//! buckets: value `v` lands in bucket `bit_length(v)` (bucket 0 holds
//! only 0; bucket `i ≥ 1` holds `[2^(i-1), 2^i - 1]`; bucket 63 is the
//! overflow tail). Quantiles are answered with the matched bucket's
//! inclusive upper bound, so a reported p99 is exact to within 2x —
//! enough to tell 100 µs from 10 ms, which is what latency telemetry is
//! for — while recording costs three `Relaxed` adds and one `Release`
//! add, no floats, no allocation.
//!
//! # Snapshot consistency
//!
//! Writers publish bucket → sum → max → count, with the count increment
//! a `Release` store; the reader loads the count (`Acquire`), copies the
//! buckets, and re-loads the count. A snapshot is accepted only when
//! both count reads and the copied buckets' sum all agree — otherwise a
//! record was in flight mid-copy and the copy retries. After a bounded
//! number of failed attempts under sustained contention the
//! snapshot derives its count *from the copied buckets*, so the
//! invariant "bucket sum == count" holds for every snapshot ever
//! returned, torn or not.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two buckets per histogram (covers all of `u64`).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Consistent-copy attempts before deriving the count from the buckets.
const SNAPSHOT_RETRIES: usize = 64;

/// A monotonically increasing named counter. Always live (counters back
/// the legacy stats structs), cheap to clone, lock-free to bump.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (starts at 0).
    pub fn detached() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    /// A detached cell — [`Counter::detached`].
    fn default() -> Counter {
        Counter::detached()
    }
}

/// A named value that can move in both directions (in-flight counts,
/// high-water marks). Always live.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry (starts at 0).
    pub fn detached() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to at least `v` (high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Atomically transforms the value, CAS-loop style; returns the
    /// *previous* value on success (admission reservations use this to
    /// claim a slot against a cap without overshooting).
    pub fn fetch_update(&self, f: impl FnMut(u64) -> Option<u64>) -> Result<u64, u64> {
        self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, f)
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCell {
    enabled: bool,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
    count: AtomicU64,
}

impl HistogramCell {
    fn new(enabled: bool) -> HistogramCell {
        HistogramCell {
            enabled,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a recorded value: its bit length, clamped into the
/// top (overflow) bucket.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (what quantiles report).
pub(crate) fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        63 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A fixed-bucket log-scale latency histogram handle. Recording is
/// lock-free and allocation-free; a disabled registry turns `record`
/// into a single branch on a cached bool.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached(enabled: bool) -> Histogram {
        Histogram(Arc::new(HistogramCell::new(enabled)))
    }

    /// Whether this histogram records at all (the `AID_OBS` gate, cached
    /// at registration).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.enabled
    }

    /// Records one observation. The final count increment is the
    /// `Release` publication the snapshot reader synchronizes with.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.0.enabled {
            return;
        }
        let cell = &*self.0;
        cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(v, Ordering::Relaxed);
        cell.max.fetch_max(v, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Release);
    }

    /// Records a `Duration` in whole microseconds (the workspace's
    /// latency unit; sub-microsecond observations land in bucket 0).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Acquire)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let cell = &*self.0;
        let mut copy = [0u64; HISTOGRAM_BUCKETS];
        let mut consistent = false;
        for _ in 0..SNAPSHOT_RETRIES {
            let before = cell.count.load(Ordering::Acquire);
            for (slot, bucket) in copy.iter_mut().zip(cell.buckets.iter()) {
                *slot = bucket.load(Ordering::Relaxed);
            }
            let after = cell.count.load(Ordering::Acquire);
            let total: u64 = copy.iter().sum();
            if before == after && total == before {
                consistent = true;
                break;
            }
        }
        // Fallback under sustained write pressure: the copy is still a
        // set of individually atomic bucket reads; deriving the count
        // from it keeps the bucket-sum == count invariant unconditional.
        let count = if consistent {
            cell.count.load(Ordering::Acquire).min(copy.iter().sum())
        } else {
            copy.iter().sum()
        };
        let buckets = copy
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u8, n))
            .collect();
        HistogramSnapshot {
            count,
            sum: cell.sum.load(Ordering::Relaxed),
            max: cell.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A frozen histogram: sparse nonzero buckets plus count/sum/max.
/// Invariant: the bucket counts sum to `count`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations captured.
    pub count: u64,
    /// Sum of observed values (mean = sum / count).
    pub sum: u64,
    /// Largest observed value, exact.
    pub max: u64,
    /// `(bucket index, observations)` for every nonzero bucket,
    /// ascending by index.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q ∈ [0, 1]`, reported as the inclusive
    /// upper bound of the bucket holding that rank (within 2x of the
    /// true order statistic). 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // The top bucket's true ceiling is the recorded max.
                return bucket_bound(i as usize).min(self.max.max(1));
            }
        }
        self.max
    }

    /// Arithmetic mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A snapshot entry's value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(u64),
    /// A histogram's frozen buckets.
    Histogram(HistogramSnapshot),
}

/// One named metric in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricEntry {
    /// The registered dotted name.
    pub name: String,
    /// The frozen value.
    pub value: MetricValue,
}

/// A consistent point-in-time copy of a registry, sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All registered metrics, ascending by name.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// A counter's value, if `name` is a registered counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// A gauge's value, if `name` is a registered gauge.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's frozen buckets, if `name` is a registered histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Dotted names are flattened (`.` → `_`); histograms expose
    /// cumulative `_bucket{le=...}` series plus `_count`/`_sum`/`_max`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            let name = sanitize(&entry.name);
            match &entry.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cumulative = 0u64;
                    for &(i, n) in &h.buckets {
                        cumulative += n;
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                            bucket_bound(i as usize)
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n{name}_max {}\n",
                        h.count, h.sum, h.count, h.max
                    ));
                }
            }
        }
        out
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named metrics. One registry per server (or per
/// free-standing engine/store/watcher) — instruments registered under
/// the same name return the *same* underlying cell, so tiers that share
/// a registry aggregate naturally and re-registration is idempotent.
pub struct MetricsRegistry {
    enabled: bool,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.enabled)
            .field(
                "metrics",
                &self.metrics.lock().expect("registry lock").len(),
            )
            .finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::from_env()
    }
}

impl MetricsRegistry {
    /// A registry whose histogram gate follows the `AID_OBS`
    /// environment variable (`off`/`0`/`false` disable; default on).
    pub fn from_env() -> MetricsRegistry {
        MetricsRegistry::new(env_enabled())
    }

    /// A registry with histograms unconditionally on (tests, scrapes).
    pub fn enabled() -> MetricsRegistry {
        MetricsRegistry::new(true)
    }

    /// A registry with histograms unconditionally off: counters and
    /// gauges stay live (stats structs depend on them), `record` is a
    /// single branch.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry::new(false)
    }

    fn new(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            enabled,
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether histograms registered here record.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or re-fetches) a counter. Panics if `name` is already
    /// registered as a different kind — names are a flat namespace and a
    /// kind collision is a programming error, not load-dependent state.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::detached()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers (or re-fetches) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::detached()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers (or re-fetches) a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::detached(self.enabled)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Freezes every registered metric. Histogram copies are consistent
    /// (bucket sum == count) even while writers are recording.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("registry lock");
        let entries = metrics
            .iter()
            .map(|(name, metric)| MetricEntry {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

/// The process-wide `AID_OBS` gate (histograms only; counters are
/// never gated). Read once.
fn env_enabled() -> bool {
    use std::sync::OnceLock;
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("AID_OBS").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        // Every bucket's bound is inside the bucket that indexes it.
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_come_back_within_one_bucket() {
        let h = Histogram::detached(true);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.max, 1000);
        let p50 = snap.quantile(0.50);
        assert!((500..=1023).contains(&p50), "p50={p50}");
        let p99 = snap.quantile(0.99);
        assert!((990..=1023).contains(&p99), "p99={p99}");
        assert_eq!(snap.quantile(1.0), 1000);
        assert!((snap.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let registry = MetricsRegistry::enabled();
        let a = registry.counter("x.hits");
        let b = registry.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(registry.snapshot().counter("x.hits"), Some(3));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_collisions_panic() {
        let registry = MetricsRegistry::enabled();
        registry.counter("x");
        registry.histogram("x");
    }

    #[test]
    fn disabled_histograms_record_nothing_counters_stay_live() {
        let registry = MetricsRegistry::disabled();
        let h = registry.histogram("lat_us");
        let c = registry.counter("hits");
        for i in 0..100 {
            h.record(i);
            c.inc();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("lat_us").unwrap().count, 0);
        assert_eq!(snap.counter("hits"), Some(100));
    }

    #[test]
    fn gauge_fetch_update_reserves_against_a_cap() {
        let g = Gauge::detached();
        let cap = 3u64;
        let mut admitted = 0;
        for _ in 0..5 {
            if g.fetch_update(|v| (v < cap).then_some(v + 1)).is_ok() {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 3);
        assert_eq!(g.get(), 3);
        g.sub(1);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn prometheus_rendering_is_parseable_shaped() {
        let registry = MetricsRegistry::enabled();
        registry.counter("serve.frames_in").add(7);
        let h = registry.histogram("serve.frame_us");
        h.record(3);
        h.record(700);
        let text = registry.snapshot().render_prometheus();
        assert!(text.contains("# TYPE serve_frames_in counter"));
        assert!(text.contains("serve_frames_in 7"));
        assert!(text.contains("serve_frame_us_count 2"));
        assert!(text.contains("serve_frame_us_sum 703"));
        assert!(text.contains("le=\"+Inf\"} 2"));
    }

    #[test]
    fn snapshot_name_lookup_uses_sorted_order() {
        let registry = MetricsRegistry::enabled();
        for name in ["z.last", "a.first", "m.mid"] {
            registry.counter(name).inc();
        }
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.first", "m.mid", "z.last"]);
        assert_eq!(snap.counter("m.mid"), Some(1));
        assert_eq!(snap.counter("missing"), None);
    }
}
