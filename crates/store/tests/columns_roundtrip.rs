//! Property test: `TraceWindow` losslessly re-encodes *arbitrary* trace
//! sets — not just the six case corpora the equivalence suite replays.
//! Storing a trace (remapping into shared name arenas, normalizing) must be
//! invisible: copying the window out and encoding it reproduces the
//! original byte stream exactly, for any well-formed input, with and
//! without batch splits.

use aid_store::{StoreConfig, TraceStore, TraceWindow};
use aid_trace::{
    codec, AccessEvent, AccessKind, FailureSignature, MethodEvent, MethodId, ObjectId, Outcome,
    ThreadId, Trace, TraceSet,
};
use proptest::prelude::*;

const KINDS: [&str; 3] = ["IndexOutOfRange", "ObjectDisposed", "Timeout"];

type RawEvent = (
    // (method slot, thread, start, duration)
    (usize, u32, u64, u64),
    // (has return value, return value)
    (bool, i64),
    // (exception kind slot: 0 = none, caught)
    (usize, bool),
    // accesses: (object slot, is-write, time, locked)
    Vec<(usize, bool, u64, bool)>,
);

fn event_strategy() -> impl Strategy<Value = RawEvent> {
    (
        (0usize..8, 0u32..4, 0u64..900, 0u64..70),
        (any::<bool>(), -50i64..500),
        (0usize..=KINDS.len(), any::<bool>()),
        proptest::collection::vec((0usize..6, any::<bool>(), 0u64..900, any::<bool>()), 0..4),
    )
}

type RawTrace = (u64, bool, usize, Vec<RawEvent>);

fn set_strategy() -> impl Strategy<Value = (usize, usize, Vec<RawTrace>)> {
    (
        1usize..=5,
        0usize..=4,
        proptest::collection::vec(
            (
                0u64..1_000_000,
                any::<bool>(),
                0usize..KINDS.len(),
                proptest::collection::vec(event_strategy(), 0..5),
            ),
            0..6,
        ),
    )
}

fn build_set(method_count: usize, object_count: usize, raw: Vec<RawTrace>) -> TraceSet {
    let mut set = TraceSet::new();
    let methods: Vec<MethodId> = (0..method_count)
        .map(|i| set.method(&format!("m{i}")))
        .collect();
    let objects: Vec<ObjectId> = (0..object_count)
        .map(|i| set.object(&format!("obj{i}")))
        .collect();
    for (seed, failed, kind_slot, raw_events) in raw {
        let mut events = Vec::new();
        for ((m, thread, start, dur), (has_ret, ret), (exc_slot, caught), accesses) in raw_events {
            events.push(MethodEvent {
                method: methods[m % methods.len()],
                instance: 0, // recomputed by normalize()
                thread: ThreadId::from_raw(thread),
                start,
                end: start + dur,
                accesses: accesses
                    .into_iter()
                    .filter(|_| !objects.is_empty())
                    .map(|(o, write, at, locked)| AccessEvent {
                        object: objects[o % objects.len()],
                        kind: if write {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                        at,
                        locked,
                    })
                    .collect(),
                returned: has_ret.then_some(ret),
                exception: (exc_slot > 0).then(|| KINDS[exc_slot - 1].to_string()),
                caught,
            });
        }
        let max_end = events.iter().map(|e| e.end).max().unwrap_or(0);
        let mut trace = Trace {
            seed,
            events,
            msgs: vec![],
            outcome: if failed {
                Outcome::Failure(FailureSignature {
                    kind: KINDS[kind_slot].to_string(),
                    method: methods[kind_slot % methods.len()],
                })
            } else {
                Outcome::Success
            },
            duration: max_end + 1,
        };
        trace.normalize();
        set.push(trace);
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Store → copy out → encode reproduces the original bytes.
    #[test]
    fn prop_column_store_reencodes_arbitrary_sets(
        raw_set in set_strategy(),
    ) {
        let (method_count, object_count, raw) = raw_set;
        let set = build_set(method_count, object_count, raw);
        let text = codec::encode(&set);
        let mut window = TraceWindow::new();
        let (m, o, c) = window.remap_tables(&set.methods, &set.objects, &set.channels);
        window.append_batch(set.traces.clone(), &m, &o, &c);
        prop_assert_eq!(window.len(), set.traces.len());
        let back = window.to_trace_set();
        prop_assert_eq!(&back.traces, &set.traces);
        prop_assert_eq!(codec::encode(&back), text);
        // Per-trace access agrees with the bulk path.
        for (gid, t) in set.traces.iter().enumerate() {
            prop_assert_eq!(window.get(gid), t);
        }
    }

    /// Splitting the same set across many appends (the streaming shape)
    /// changes nothing about the stored bytes.
    #[test]
    fn prop_split_appends_match_bulk_append(
        raw_set in set_strategy(),
        split in 1usize..=4,
    ) {
        let (method_count, object_count, raw) = raw_set;
        let set = build_set(method_count, object_count, raw);
        // Name arenas travel with appends, so an empty set interns nothing
        // piecewise but everything in bulk; the comparison needs traffic.
        prop_assume!(!set.traces.is_empty());
        let mut bulk = TraceStore::new(StoreConfig::default());
        bulk.append_set(&set);
        let mut piecewise = TraceStore::new(StoreConfig::default());
        for chunk in set.traces.chunks(split) {
            let mut part = TraceSet {
                methods: set.methods.clone(),
                objects: set.objects.clone(),
                channels: set.channels.clone(),
                traces: chunk.to_vec(),
            };
            // Appending through the run-at-a-time API too: half the chunk
            // via append_set, the rest via append_run.
            let rest = part.traces.split_off(part.traces.len() / 2);
            piecewise.append_set(&part);
            for t in rest {
                piecewise.append_run(&set, t);
            }
        }
        prop_assert_eq!(
            codec::encode(&piecewise.to_trace_set()),
            codec::encode(&bulk.to_trace_set())
        );
    }
}
