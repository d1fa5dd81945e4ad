//! Acceptance: an engine discovery session whose observation window comes
//! from a store snapshot returns the **same** `DiscoveryResult` as one
//! sourced from the equivalent in-memory `TraceSet` analysis — for the
//! streamed-bytes ingestion path and the live-append path alike.

use aid_cases::{collect_logs_sized, npgsql};
use aid_core::{analyze, Strategy};
use aid_engine::{DiscoveryJob, Engine};
use aid_sim::Simulator;
use aid_store::{StoreConfig, TraceStore};
use aid_trace::codec;
use std::sync::Arc;

#[test]
fn snapshot_sourced_discovery_matches_traceset_sourced() {
    let case = npgsql::case();
    let set = collect_logs_sized(&case, 25, 25);
    let sim = Arc::new(Simulator::new(case.program.clone()));

    // Path A: classic in-memory batch analysis.
    let batch = analyze(&set, &case.config);

    // Path B: the same corpus streamed into a store as encoded bytes.
    let engine = Engine::with_workers(2);
    let mut store = TraceStore::new(StoreConfig {
        extraction: case.config.clone(),
        ..StoreConfig::default()
    });
    let encoded = codec::encode(&set);
    for chunk in encoded.as_bytes().chunks(4096) {
        store.ingest_bytes(chunk);
    }
    store.finish_ingest();
    assert!(store.quarantine().is_empty());
    store.refresh().expect("corpus has failures");
    let snapshot = store.snapshot().expect("analysis published");
    assert_eq!(snapshot.traces, set.traces.len());

    // Same engine, same strategy/seed/budget — only the observation-window
    // source differs.
    for strategy in [Strategy::Aid, Strategy::Tagt] {
        let from_store = snapshot.discovery_job(
            "from-store",
            Arc::clone(&sim),
            case.runs_per_round,
            1_000_000,
            strategy,
            11,
        );
        let from_set = DiscoveryJob::sim(
            "from-set",
            Arc::new(batch.dag.clone()),
            Arc::clone(&sim),
            Arc::new(batch.extraction.catalog.clone()),
            batch.extraction.failure,
            case.runs_per_round,
            1_000_000,
            strategy,
            11,
        );
        let results = engine.run_all(vec![from_store, from_set]);
        assert_eq!(
            results[0].result, results[1].result,
            "{strategy:?}: store-sourced and set-sourced sessions diverged"
        );
        assert!(results[0].result.root_cause().is_some());
    }

    // Path C: live appends (simulator → store, no codec round-trip) produce
    // the same snapshot inputs as well.
    let mut live = TraceStore::new(StoreConfig {
        extraction: case.config.clone(),
        ..StoreConfig::default()
    });
    let names = sim.trace_set_skeleton();
    for t in &set.traces {
        live.append_run(&names, t.clone());
    }
    live.refresh().expect("failures present");
    let live_snap = live.snapshot().unwrap();
    assert_eq!(live_snap.dag.as_ref(), &batch.dag);
    assert_eq!(live_snap.failure, batch.extraction.failure);
    assert_eq!(live_snap.signature, batch.extraction.signature);
}
