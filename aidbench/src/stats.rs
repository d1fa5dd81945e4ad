//! Sample collection: session latencies and the per-call timings taken
//! around each layer's public calls when tracing is on.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The `q`-quantile of `values` (nearest rank on the sorted samples);
/// 0 when there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// The median of `values`; 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-call timings in microseconds, keyed by the call's metric name. A
/// disabled trace runs the timed closures and records nothing, so the
/// untraced measurement pays no clock reads.
#[derive(Debug, Default)]
pub struct Trace {
    on: bool,
    spans: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    /// A trace that records (`on`) or only runs the timed calls.
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            spans: BTreeMap::new(),
        }
    }

    /// Runs `call`, recording its wall time under `key` when tracing.
    pub fn time<T>(&mut self, key: &'static str, call: impl FnOnce() -> T) -> T {
        if !self.on {
            return call();
        }
        let started = Instant::now();
        let out = call();
        self.record(key, started.elapsed());
        out
    }

    /// Records one already-measured duration under `key` when tracing.
    pub fn record(&mut self, key: &'static str, elapsed: Duration) {
        if self.on {
            self.spans
                .entry(key)
                .or_default()
                .push(elapsed.as_secs_f64() * 1e6);
        }
    }

    /// Folds another trace's samples into this one.
    pub fn merge(&mut self, other: Trace) {
        for (key, mut samples) in other.spans {
            self.spans.entry(key).or_default().append(&mut samples);
        }
    }

    /// The samples recorded under `key` (empty when none).
    pub fn samples(&self, key: &str) -> &[f64] {
        self.spans.get(key).map_or(&[], Vec::as_slice)
    }

    /// The `q`-quantile of the samples under `key`, in microseconds.
    pub fn quantile(&self, key: &str, q: f64) -> f64 {
        quantile(self.samples(key), q)
    }

    /// The sum of the samples under `key`, in microseconds.
    pub fn total(&self, key: &str) -> f64 {
        self.samples(key).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut off = Trace::new(false);
        assert_eq!(off.time("k", || 7), 7);
        assert!(off.samples("k").is_empty());
        let mut on = Trace::new(true);
        on.time("k", || ());
        on.merge(Trace::new(true));
        assert_eq!(on.samples("k").len(), 1);
    }
}
