//! Windowed retention, held to the same standards as the append-only
//! store: (1) property test — *any* interleaving of appends and front
//! evictions leaves the retained window byte-identical to the same trace
//! suffix encoded directly; (2) equivalence pinning — with a count-bounded
//! retention policy, `StoreView::refresh` after every single-trace append
//! of all six case corpora matches batch `analyze` recomputed from scratch
//! over the retained window.

use aid_cases::{all_cases, collect_logs_sized};
use aid_core::{analyze, AidAnalysis};
use aid_store::{RetentionPolicy, StoreConfig, TraceStore};
use aid_trace::{
    codec, FailureSignature, MethodEvent, MethodId, Outcome, ThreadId, Trace, TraceSet,
};
use proptest::prelude::*;

/// A small deterministic trace vocabulary for the schedule property: what
/// matters here is the *bookkeeping* (front eviction, tick and id
/// stability), which arbitrary schedules stress far harder
/// than arbitrary trace payloads do (`columns_roundtrip.rs` already covers
/// payload diversity).
fn trace(seed: u64, methods: &[MethodId], events: usize, failed: bool) -> Trace {
    let mut t = Trace {
        seed,
        events: (0..events)
            .map(|i| MethodEvent {
                method: methods[(seed as usize + i) % methods.len()],
                instance: 0,
                thread: ThreadId::from_raw((i % 2) as u32),
                start: 10 * i as u64,
                end: 10 * i as u64 + 3 + seed % 5,
                accesses: vec![],
                returned: (i % 2 == 0).then_some(seed as i64 + i as i64),
                exception: (failed && i + 1 == events).then(|| "Boom".to_string()),
                caught: false,
            })
            .collect(),
        msgs: vec![],
        outcome: if failed {
            Outcome::Failure(FailureSignature {
                kind: "Boom".into(),
                method: methods[seed as usize % methods.len()],
            })
        } else {
            Outcome::Success
        },
        duration: 10 * events as u64 + 7,
    };
    t.normalize();
    t
}

/// One schedule step: append a batch of generated traces, then evict —
/// either an explicit `evict_front(k)` or a `keep_last` policy pass.
type Step = (
    // appended traces: (event count, failed)
    Vec<(usize, bool)>,
    // (use explicit evict_front, its count)
    (bool, usize),
    // keep_last bound used on the policy path
    usize,
);

fn schedule_strategy() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0usize..4, any::<bool>()), 0..5),
            (any::<bool>(), 0usize..7),
            1usize..12,
        ),
        1..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Any eviction schedule preserves the byte-identical re-encode of the
    /// retained window, keeps global ids stable, and keeps per-trace
    /// accessors in agreement with full re-materialization.
    #[test]
    fn prop_any_eviction_schedule_preserves_retained_window(
        steps in schedule_strategy(),
    ) {
        let mut names = TraceSet::new();
        let methods = vec![names.method("Reader"), names.method("Writer")];
        let mut store = TraceStore::new(StoreConfig::default());
        // The model: the full arrival sequence plus the count evicted.
        let mut arrived: Vec<Trace> = Vec::new();
        let mut evicted = 0usize;
        let mut seed = 0u64;
        for (appends, evict, keep) in steps {
            if !appends.is_empty() {
                let batch = TraceSet {
                    methods: names.methods.clone(),
                    objects: names.objects.clone(),
                    channels: names.channels.clone(),
                    traces: appends
                        .iter()
                        .map(|&(events, failed)| {
                            seed += 1;
                            trace(seed, &methods, events, failed)
                        })
                        .collect(),
                };
                arrived.extend(batch.traces.iter().cloned());
                store.append_set(&batch);
            }
            let (explicit, k) = evict;
            evicted += if explicit {
                store.evict_front(k)
            } else {
                store.apply_retention(RetentionPolicy::keep_last(keep))
            };
            // Ids are stable: the window is exactly `evicted..arrived`.
            prop_assert_eq!(store.retained(), evicted..arrived.len());
            // Name arenas travel with appends, so the byte comparison only
            // makes sense once the store has seen traffic.
            if arrived.is_empty() {
                continue;
            }
            let expected = TraceSet {
                methods: names.methods.clone(),
                objects: names.objects.clone(),
                channels: names.channels.clone(),
                traces: arrived[evicted..].to_vec(),
            };
            prop_assert_eq!(
                codec::encode(&store.to_trace_set()),
                codec::encode(&expected)
            );
            for gid in store.retained() {
                let t = store.trace(gid);
                prop_assert_eq!(&t, &arrived[gid]);
                prop_assert_eq!(store.window().header(gid), (t.seed, t.duration));
                prop_assert_eq!(store.window().failed(gid), t.failed());
            }
            prop_assert_eq!(store.window().stats().evicted, evicted);
        }
    }
}

fn assert_analysis_eq(incremental: &AidAnalysis, batch: &AidAnalysis, ctx: &str) {
    assert_eq!(
        incremental.extraction.catalog.len(),
        batch.extraction.catalog.len(),
        "{ctx}: catalog size"
    );
    for ((ia, pa), (ib, pb)) in incremental
        .extraction
        .catalog
        .iter()
        .zip(batch.extraction.catalog.iter())
    {
        assert_eq!(ia, ib, "{ctx}: predicate id order");
        assert_eq!(pa, pb, "{ctx}: predicate {ia:?}");
    }
    assert_eq!(
        incremental.extraction.failure, batch.extraction.failure,
        "{ctx}: failure id"
    );
    assert_eq!(
        incremental.extraction.signature, batch.extraction.signature,
        "{ctx}: signature"
    );
    assert_eq!(
        incremental.extraction.observations, batch.extraction.observations,
        "{ctx}: observations"
    );
    assert_eq!(incremental.sd.scores, batch.sd.scores, "{ctx}: SD scores");
    assert_eq!(
        incremental.sd.discriminative, batch.sd.discriminative,
        "{ctx}: discriminative set"
    );
    assert_eq!(
        incremental.sd.fully_discriminative, batch.sd.fully_discriminative,
        "{ctx}: fully-discriminative set"
    );
    assert_eq!(
        incremental.candidates, batch.candidates,
        "{ctx}: candidates"
    );
    assert_eq!(incremental.dag, batch.dag, "{ctx}: AC-DAG");
}

/// The windowed generalization of the equivalence contract: with a
/// count-bounded retention policy in force, the view's analysis at every
/// prefix of all six case corpora equals batch `analyze` over exactly the
/// traces still retained at that prefix.
#[test]
fn every_prefix_matches_batch_over_retained_window() {
    const WINDOW: usize = 10;
    for case in all_cases() {
        let set = collect_logs_sized(&case, 15, 15);
        let mut store = TraceStore::new(StoreConfig {
            extraction: case.config.clone(),
            retention: RetentionPolicy::keep_last(WINDOW),
        });
        for k in 0..set.traces.len() {
            store.append_run(&set, set.traces[k].clone());
            let lo = (k + 1).saturating_sub(WINDOW);
            assert_eq!(store.retained(), lo..k + 1, "{}", case.name);
            let window = &set.traces[lo..=k];
            let analysis = store.refresh();
            if !window.iter().any(|t| t.failed()) {
                assert!(
                    analysis.is_none(),
                    "{}: analysis published with no failure in window",
                    case.name
                );
                continue;
            }
            let retained = TraceSet {
                methods: set.methods.clone(),
                objects: set.objects.clone(),
                channels: set.channels.clone(),
                traces: window.to_vec(),
            };
            let batch = analyze(&retained, &case.config);
            let ctx = format!("{} prefix {} window {lo}..={k}", case.name, k + 1);
            assert_analysis_eq(analysis.expect("failure in window"), &batch, &ctx);
        }
        // Every step past the window evicted exactly one trace.
        let stats = store.stats();
        assert_eq!(
            stats.window.evicted,
            set.traces.len() - WINDOW,
            "{}: eviction accounting",
            case.name
        );
        assert!(
            stats.view.resets >= stats.window.compactions as u64,
            "{}: each compaction forces a refold ({stats:?})",
            case.name
        );
    }
}
