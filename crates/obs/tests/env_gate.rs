//! The `AID_OBS=off` zero-overhead path: histograms become no-ops while
//! counters (the stats-struct source of truth) advance by exactly what
//! was recorded.
//!
//! This lives in its own test binary with a single `#[test]` so the env
//! var is set before anything reads the process-wide gate (the gate is
//! cached on first use by design — one branch on the hot path).

use aid_obs::MetricsRegistry;

#[test]
fn aid_obs_off_disables_histograms_but_not_counters() {
    std::env::set_var("AID_OBS", "off");

    let registry = MetricsRegistry::from_env();
    assert!(!registry.is_enabled());

    const N: u64 = 10_000;
    let counter = registry.counter("gate.ops");
    let histogram = registry.histogram("gate.lat_us");
    let before = counter.get();
    for i in 0..N {
        counter.inc();
        histogram.record(i);
    }

    // Counters: exactly N, no skew from the disabled plane.
    assert_eq!(counter.get() - before, N);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("gate.ops"), Some(N));

    // Histograms: the disabled path recorded no observation at all.
    let h = snap.histogram("gate.lat_us").expect("registered");
    assert_eq!(h.count, 0);
    assert_eq!(h.sum, 0);
    assert!(h.buckets.is_empty());
}
