//! The retained window of traces.
//!
//! Each appended trace is remapped into the store's name arenas, normalized
//! (see [`Trace::normalize`]) and kept as is, in arrival order, with the
//! append tick it arrived at. Global trace id `g` is the `g`-th trace ever
//! appended; [`TraceWindow::get`] borrows a retained trace by that id, so
//! readers see the one stored copy rather than a rebuilt one.
//!
//! The window is lossless: `TraceWindow::to_trace_set` reproduces a
//! `TraceSet` whose `aid_trace::codec::encode` output is byte-identical to
//! one built by pushing the same traces into a `TraceSet` directly.
//!
//! For unbounded streams the window supports **retention**:
//! [`TraceWindow::evict_front`] drops the oldest traces while global ids
//! stay stable (ids are never reused; the retained window is
//! `retained()`). A [`RetentionPolicy`] expresses the window by trace count
//! and/or age in append batches, and [`TraceWindow::apply_retention`]
//! enforces it after each append. The lossless re-encode property holds
//! *per retained window*: `to_trace_set` reproduces exactly the suffix of
//! traces still retained (the name arenas are append-only and survive
//! eviction, so remap tables from earlier batches stay valid).

use aid_trace::{
    ChannelId, ChannelTag, MethodId, MethodTag, ObjectId, ObjectTag, Outcome, Time, Trace, TraceSet,
};
use aid_util::IdArena;
use std::collections::VecDeque;

/// A windowed-retention policy: how much of the stream's tail the store
/// keeps. `None` bounds mean unbounded (the default keeps everything).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Keep at most this many traces (oldest evicted first).
    pub max_traces: Option<usize>,
    /// Keep only traces at most this many append batches old: a trace
    /// appended by the latest batch has age 0. `Some(0)` retains only the
    /// most recent batch.
    pub max_age: Option<u64>,
}

impl RetentionPolicy {
    /// A count-bounded window.
    pub fn keep_last(max_traces: usize) -> RetentionPolicy {
        RetentionPolicy {
            max_traces: Some(max_traces),
            max_age: None,
        }
    }
}

/// Window sizing telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Traces retained.
    pub traces: usize,
    /// Method events over the retained traces.
    pub events: usize,
    /// Shared-object accesses over the retained traces.
    pub accesses: usize,
    /// Channel messages over the retained traces.
    pub msgs: usize,
    /// Traces evicted by retention over the window's lifetime.
    pub evicted: usize,
    /// Eviction passes that actually dropped traces.
    pub compactions: usize,
}

/// The retained traces, in arrival order, each with its append tick.
#[derive(Clone, Debug, Default)]
pub struct TraceWindow {
    methods: IdArena<String, MethodTag>,
    objects: IdArena<String, ObjectTag>,
    channels: IdArena<String, ChannelTag>,
    /// `(append tick, trace)` for global ids `base..base + len`.
    traces: VecDeque<(u64, Trace)>,
    /// First retained global id (== traces evicted so far).
    base: usize,
    /// Logical clock, advanced once per append batch.
    clock: u64,
    /// Eviction passes that dropped at least one trace.
    compactions: usize,
}

impl TraceWindow {
    /// An empty window.
    pub fn new() -> TraceWindow {
        TraceWindow::default()
    }

    /// Number of traces retained.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no trace is retained.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The retained window of global ids: eviction drops the front, so
    /// valid ids are `base()..high()` and never shift or get reused.
    pub fn retained(&self) -> std::ops::Range<usize> {
        self.base..self.high()
    }

    /// First retained global id (equals the traces evicted so far).
    pub fn base(&self) -> usize {
        self.base
    }

    /// One past the newest global id (traces ever appended).
    pub fn high(&self) -> usize {
        self.base + self.traces.len()
    }

    /// The logical clock: append batches seen so far. A trace's age is the
    /// number of batches appended after its own.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The retained trace with global id `gid`.
    ///
    /// Panics if `gid` is outside the retained window.
    pub fn get(&self, gid: usize) -> &Trace {
        &self.slot(gid).1
    }

    /// The append tick of trace `gid` (for age-based retention).
    pub fn tick(&self, gid: usize) -> u64 {
        self.slot(gid).0
    }

    /// Whether the trace with global id `gid` failed.
    pub fn failed(&self, gid: usize) -> bool {
        self.get(gid).failed()
    }

    /// The `(seed, duration)` of trace `gid`.
    pub fn header(&self, gid: usize) -> (u64, Time) {
        let t = self.get(gid);
        (t.seed, t.duration)
    }

    fn slot(&self, gid: usize) -> &(u64, Trace) {
        assert!(
            self.retained().contains(&gid),
            "trace {gid} out of retained window {:?}",
            self.retained()
        );
        &self.traces[gid - self.base]
    }

    /// Evicts the `count` oldest retained traces (clamped to the retained
    /// window). Returns the number evicted.
    pub fn evict_front(&mut self, count: usize) -> usize {
        let count = count.min(self.len());
        if count == 0 {
            return 0;
        }
        self.traces.drain(..count);
        self.base += count;
        self.compactions += 1;
        count
    }

    /// Applies a retention policy: evicts the oldest traces until both the
    /// count bound and the age bound hold. Returns the number evicted.
    pub fn apply_retention(&mut self, policy: RetentionPolicy) -> usize {
        let mut drop = policy
            .max_traces
            .map_or(0, |max| self.len().saturating_sub(max));
        if let Some(max_age) = policy.max_age {
            let newest = self.clock.saturating_sub(1);
            drop += self
                .traces
                .iter()
                .skip(drop)
                .take_while(|(tick, _)| newest.saturating_sub(*tick) > max_age)
                .count();
        }
        self.evict_front(drop)
    }

    /// Interned method names.
    pub fn methods(&self) -> &IdArena<String, MethodTag> {
        &self.methods
    }

    /// Interned object names.
    pub fn objects(&self) -> &IdArena<String, ObjectTag> {
        &self.objects
    }

    /// Interned channel names.
    pub fn channels(&self) -> &IdArena<String, ChannelTag> {
        &self.channels
    }

    /// Row-count telemetry.
    pub fn stats(&self) -> WindowStats {
        let traces = || self.traces.iter().map(|(_, t)| t);
        WindowStats {
            traces: self.len(),
            events: traces().map(|t| t.events.len()).sum(),
            accesses: traces()
                .flat_map(|t| &t.events)
                .map(|e| e.accesses.len())
                .sum(),
            msgs: traces().map(|t| t.msgs.len()).sum(),
            evicted: self.base,
            compactions: self.compactions,
        }
    }

    /// Builds the maps from a source's arenas into this window's, interning
    /// unseen names. Identity when the source declares the same names in
    /// the same order (the common single-source case).
    pub fn remap_tables(
        &mut self,
        methods: &IdArena<String, MethodTag>,
        objects: &IdArena<String, ObjectTag>,
        channels: &IdArena<String, ChannelTag>,
    ) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let m = methods
            .iter()
            .map(|(_, name)| self.methods.intern(name.clone()).raw())
            .collect();
        let o = objects
            .iter()
            .map(|(_, name)| self.objects.intern(name.clone()).raw())
            .collect();
        let c = channels
            .iter()
            .map(|(_, name)| self.channels.intern(name.clone()).raw())
            .collect();
        (m, o, c)
    }

    /// Appends a batch of traces whose ids are relative to the given remap
    /// tables (from [`TraceWindow::remap_tables`]). Returns the global ids
    /// assigned, in input order.
    pub fn append_batch(
        &mut self,
        traces: Vec<Trace>,
        method_map: &[u32],
        object_map: &[u32],
        channel_map: &[u32],
    ) -> std::ops::Range<usize> {
        let stamp = self.clock;
        self.clock += 1;
        let first = self.high();
        for mut t in traces {
            if let Outcome::Failure(sig) = &mut t.outcome {
                sig.method = MethodId::from_raw(method_map[sig.method.index()]);
            }
            for e in &mut t.events {
                e.method = MethodId::from_raw(method_map[e.method.index()]);
                for a in &mut e.accesses {
                    a.object = ObjectId::from_raw(object_map[a.object.index()]);
                }
            }
            for m in &mut t.msgs {
                m.channel = ChannelId::from_raw(channel_map[m.channel.index()]);
            }
            t.normalize();
            self.traces.push_back((stamp, t));
        }
        first..self.high()
    }

    /// Copies the retained window out as a labeled set (arenas + retained
    /// traces in global order) — the bridge back into every batch API. The
    /// name arenas are append-only, so after eviction they may carry names
    /// only evicted traces used; the traces themselves are exactly the
    /// retained suffix.
    pub fn to_trace_set(&self) -> TraceSet {
        TraceSet {
            methods: self.methods.clone(),
            objects: self.objects.clone(),
            channels: self.channels.clone(),
            traces: self.traces.iter().map(|(_, t)| t.clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aid_trace::{
        codec, AccessEvent, AccessKind, FailureSignature, MethodEvent, MsgEvent, MsgKind, ThreadId,
    };

    fn sample_set() -> TraceSet {
        let mut set = TraceSet::new();
        let m0 = set.method("Reader");
        let m1 = set.method("Writer");
        let o = set.object("slot");
        for seed in 0..7u64 {
            let failed = seed % 3 == 0;
            let mut t = Trace {
                seed,
                events: vec![
                    MethodEvent {
                        method: m0,
                        instance: 0,
                        thread: ThreadId::from_raw(0),
                        start: seed,
                        end: seed + 10,
                        accesses: vec![AccessEvent {
                            object: o,
                            kind: AccessKind::Read,
                            at: seed + 1,
                            locked: seed % 2 == 0,
                        }],
                        returned: (seed % 2 == 0).then_some(seed as i64 - 3),
                        exception: None,
                        caught: false,
                    },
                    MethodEvent {
                        method: m1,
                        instance: 0,
                        thread: ThreadId::from_raw(1),
                        start: seed + 2,
                        end: seed + 5,
                        accesses: vec![AccessEvent {
                            object: o,
                            kind: AccessKind::Write,
                            at: seed + 3,
                            locked: false,
                        }],
                        returned: None,
                        exception: failed.then(|| "Overflow".to_string()),
                        caught: seed == 6,
                    },
                ],
                msgs: vec![],
                outcome: if failed {
                    Outcome::Failure(FailureSignature {
                        kind: "Overflow".into(),
                        method: m1,
                    })
                } else {
                    Outcome::Success
                },
                duration: seed + 20,
            };
            t.normalize();
            set.push(t);
        }
        set
    }

    /// `sample_set` with `seed % 5` channel messages per trace, covering
    /// every lifecycle kind and the duplicate flag.
    fn channel_set() -> TraceSet {
        let mut set = sample_set();
        let ch = set.channel("queue");
        for t in &mut set.traces {
            t.msgs = (0..t.seed % 5)
                .map(|i| MsgEvent {
                    channel: ch,
                    kind: [
                        MsgKind::Send,
                        MsgKind::Deliver,
                        MsgKind::Recv,
                        MsgKind::Drop,
                    ][i as usize],
                    seq: i as u32,
                    value: t.seed as i64 * 10 + i as i64,
                    sent: t.seed,
                    at: t.seed + i,
                    thread: ThreadId::from_raw(i as u32 % 2),
                    dup: i == 2,
                })
                .collect();
            t.normalize();
        }
        set
    }

    fn filled(set: &TraceSet) -> TraceWindow {
        let mut window = TraceWindow::new();
        let (m, o, c) = window.remap_tables(&set.methods, &set.objects, &set.channels);
        window.append_batch(set.traces.clone(), &m, &o, &c);
        window
    }

    #[test]
    fn window_roundtrip_is_byte_identical() {
        for set in [sample_set(), channel_set()] {
            let window = filled(&set);
            assert_eq!(window.retained(), 0..set.traces.len());
            let back = window.to_trace_set();
            assert_eq!(codec::encode(&back), codec::encode(&set));
        }
    }

    #[test]
    fn cross_source_remap_unifies_arenas() {
        // Second source declares the same names in a different order.
        let set = sample_set();
        let mut other = TraceSet::new();
        let w = other.method("Writer");
        other.method("Reader");
        other.object("slot");
        let mut t = Trace {
            seed: 99,
            events: vec![MethodEvent {
                method: w,
                instance: 0,
                thread: ThreadId::from_raw(0),
                start: 0,
                end: 1,
                accesses: vec![],
                returned: None,
                exception: None,
                caught: false,
            }],
            msgs: vec![],
            outcome: Outcome::Success,
            duration: 2,
        };
        t.normalize();
        other.push(t);

        let mut window = filled(&set);
        let (m2, o2, c2) = window.remap_tables(&other.methods, &other.objects, &other.channels);
        window.append_batch(other.traces.clone(), &m2, &o2, &c2);
        // "Writer" from the second source resolves to the window's id 1.
        let last = window.get(window.len() - 1);
        assert_eq!(last.events[0].method.raw(), 1);
        assert_eq!(window.methods().len(), 2, "no duplicate names");
        assert_eq!(window.get(0), &set.traces[0]);
    }

    #[test]
    fn headers_match_stored_traces() {
        let set = sample_set();
        let window = filled(&set);
        for g in 0..window.len() {
            let t = window.get(g);
            assert_eq!(window.header(g), (t.seed, t.duration));
            assert_eq!(window.failed(g), t.failed());
        }
        let stats = window.stats();
        assert_eq!(stats.traces, 7);
        assert_eq!(stats.events, 14);
        assert_eq!(stats.accesses, 14);
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.compactions, 0);
    }

    /// The retained window after any front eviction re-encodes exactly as
    /// the same suffix pushed into a fresh `TraceSet` over the full arenas.
    fn assert_window_identical(window: &TraceWindow, set: &TraceSet, evicted: usize) {
        let expected = TraceSet {
            methods: set.methods.clone(),
            objects: set.objects.clone(),
            channels: set.channels.clone(),
            traces: set.traces[evicted..].to_vec(),
        };
        assert_eq!(
            codec::encode(&window.to_trace_set()),
            codec::encode(&expected),
            "window after evicting {evicted}"
        );
    }

    #[test]
    fn eviction_preserves_retained_window() {
        let set = sample_set();
        let mut window = TraceWindow::new();
        let (m, o, c) = window.remap_tables(&set.methods, &set.objects, &set.channels);
        window.append_batch(set.traces.clone(), &m, &o, &c);
        let mut evicted = 0;
        for step in [1usize, 2, 1] {
            evicted += window.evict_front(step);
            assert_eq!(window.base(), evicted);
            assert_eq!(window.len(), set.traces.len() - evicted);
            assert_window_identical(&window, &set, evicted);
            for g in window.retained() {
                assert_eq!(window.get(g), &set.traces[g]);
            }
        }
        let stats = window.stats();
        assert_eq!(stats.evicted, 4);
        assert_eq!(stats.compactions, 3);
        // Appends after eviction keep global ids monotone and the window
        // property intact.
        let range = window.append_batch(set.traces.clone(), &m, &o, &c);
        assert_eq!(range, 7..14);
        assert_eq!(window.len(), 3 + 7);
        let mut full = set.clone();
        full.traces.extend(set.traces.iter().cloned());
        assert_window_identical(&window, &full, 4);
    }

    /// The row counts describe the retained traces, messages included,
    /// after eviction as before it.
    #[test]
    fn row_counts_sum_over_retained_traces() {
        let set = channel_set();
        let mut window = filled(&set);
        let (m, o, c) = window.remap_tables(&set.methods, &set.objects, &set.channels);
        window.append_batch(set.traces.clone(), &m, &o, &c);
        for step in [0usize, 3, 5, 4] {
            window.evict_front(step);
            let retained = window.to_trace_set().traces;
            let stats = window.stats();
            assert_eq!(stats.traces, retained.len());
            assert_eq!(
                stats.events,
                retained.iter().map(|t| t.events.len()).sum::<usize>()
            );
            assert_eq!(
                stats.accesses,
                retained
                    .iter()
                    .flat_map(|t| &t.events)
                    .map(|e| e.accesses.len())
                    .sum::<usize>()
            );
            assert_eq!(
                stats.msgs,
                retained.iter().map(|t| t.msgs.len()).sum::<usize>()
            );
        }
        let stats = window.stats();
        assert_eq!(stats.evicted, 12);
        assert_eq!(stats.compactions, 3);
        assert!(stats.msgs > 0, "the surviving traces carry messages");
    }

    #[test]
    fn evict_everything_then_refill() {
        let set = sample_set();
        let mut window = filled(&set);
        let (m, o, c) = window.remap_tables(&set.methods, &set.objects, &set.channels);
        assert_eq!(window.evict_front(usize::MAX), 7);
        assert!(window.is_empty());
        assert_eq!(window.retained(), 7..7);
        let range = window.append_batch(set.traces.clone(), &m, &o, &c);
        assert_eq!(range, 7..14);
        assert_window_identical(&window, &set, 0);
    }

    #[test]
    fn retention_policy_bounds_count_and_age() {
        let set = sample_set();
        let mut window = TraceWindow::new();
        let (m, o, c) = window.remap_tables(&set.methods, &set.objects, &set.channels);
        // Three batches → ticks 0, 1, 2.
        for _ in 0..3 {
            window.append_batch(set.traces.clone(), &m, &o, &c);
        }
        assert_eq!(window.clock(), 3);
        assert_eq!(window.apply_retention(RetentionPolicy::default()), 0);
        // Count bound: keep the last 10.
        let evicted = window.apply_retention(RetentionPolicy::keep_last(10));
        assert_eq!(evicted, 11);
        assert_eq!(window.len(), 10);
        // Age bound: batch 0 (age 2) is already gone; age ≤ 0 keeps only
        // the newest batch's traces.
        let evicted = window.apply_retention(RetentionPolicy {
            max_traces: None,
            max_age: Some(0),
        });
        assert_eq!(evicted, 3);
        assert_eq!(window.len(), 7);
        assert!(window.retained().all(|g| window.tick(g) == 2));
        assert_window_identical(&window, &set, 0);
    }
}
