//! The store's equivalence contract, pinned against all six case studies:
//! appending each corpus **one trace at a time** and refreshing after every
//! append must produce, at *every* prefix, an analysis structurally
//! identical to `aid_core::analyze` recomputed from scratch over that
//! prefix — catalog, per-run observations, SD scores, candidate set, and
//! AC-DAG alike. The trace window is additionally held to byte-identical
//! codec round-trips at the end of each corpus.

use aid_cases::{all_cases, collect_logs_sized};
use aid_core::{analyze, AidAnalysis};
use aid_store::{StoreConfig, TraceStore};
use aid_trace::{codec, TraceSet};

fn assert_analysis_eq(incremental: &AidAnalysis, batch: &AidAnalysis, ctx: &str) {
    // Catalog: same predicates with the same ids and metadata.
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

/// Regression (found by the `aid_lab` conformance harness): a refresh that
/// sees only successes before the first failure must still keep per-trace
/// window rows aligned. An *event-less* success is the trigger — it leaves
/// every pass-1 statistic untouched, so the first failure takes the cheap
/// extend path rather than a rebuild, and the missing row mispaired every
/// later trace with the wrong window prefix.
#[test]
fn stat_neutral_success_prefix_stays_aligned() {
    use aid_trace::{FailureSignature, MethodEvent, Outcome, ThreadId, Trace};

    let mut set = TraceSet::new();
    let m = set.method("Commit");
    set.push(Trace {
        seed: 0,
        events: vec![], // crashed before instrumentation saw a call
        msgs: vec![],
        outcome: Outcome::Success,
        duration: 3,
    });
    let mut failing = Trace {
        seed: 1,
        events: vec![MethodEvent {
            method: m,
            instance: 0,
            thread: ThreadId::from_raw(0),
            start: 0,
            end: 9,
            accesses: vec![],
            returned: None,
            exception: Some("Boom".into()),
            caught: false,
        }],
        msgs: vec![],
        outcome: Outcome::Failure(FailureSignature {
            kind: "Boom".into(),
            method: m,
        }),
        duration: 10,
    };
    failing.normalize();
    set.push(failing);

    let config = aid_predicates::ExtractionConfig::default();
    let mut store = TraceStore::new(StoreConfig {
        extraction: config.clone(),
        ..StoreConfig::default()
    });
    for k in 0..set.traces.len() {
        store.append_run(&set, set.traces[k].clone());
        let analysis = store.refresh();
        if k == 0 {
            assert!(analysis.is_none(), "no failure yet");
            continue;
        }
        let prefix = TraceSet {
            methods: set.methods.clone(),
            objects: set.objects.clone(),
            channels: set.channels.clone(),
            traces: set.traces[..=k].to_vec(),
        };
        let batch = analyze(&prefix, &config);
        assert_analysis_eq(
            analysis.expect("failure folded"),
            &batch,
            &format!("prefix {}", k + 1),
        );
    }
}

#[test]
fn every_prefix_of_every_case_corpus_matches_batch() {
    for case in all_cases() {
        let set = collect_logs_sized(&case, 15, 15);
        let mut store = TraceStore::new(StoreConfig {
            extraction: case.config.clone(),
            ..StoreConfig::default()
        });
        let mut failures_seen = 0usize;
        for k in 0..set.traces.len() {
            store.append_run(&set, set.traces[k].clone());
            if set.traces[k].failed() {
                failures_seen += 1;
            }
            let analysis = store.refresh();
            if failures_seen == 0 {
                assert!(
                    analysis.is_none(),
                    "{}: analysis published before any failure",
                    case.name
                );
                continue;
            }
            let prefix = TraceSet {
                methods: set.methods.clone(),
                objects: set.objects.clone(),
                channels: set.channels.clone(),
                traces: set.traces[..=k].to_vec(),
            };
            let batch = analyze(&prefix, &case.config);
            let ctx = format!("{} prefix {}", case.name, k + 1);
            assert_analysis_eq(analysis.expect("failures present"), &batch, &ctx);
        }
        // The trace window reproduces the corpus byte for byte.
        assert_eq!(
            codec::encode(&store.to_trace_set()),
            codec::encode(&set),
            "{}: window round-trip",
            case.name
        );
        // The incremental machinery must actually have taken its cheap
        // paths, not re-derived everything from scratch each refresh.
        let stats = store.stats().view;
        assert!(
            stats.extensions > 0,
            "{}: no refresh used the incremental extension path ({stats:?})",
            case.name
        );
        // Refreshes before the first failure take neither path (there is
        // nothing to analyze yet), hence `<=`.
        assert!(
            stats.extensions + stats.rebuilds <= stats.refreshes,
            "{}: path accounting ({stats:?})",
            case.name
        );
    }
}
