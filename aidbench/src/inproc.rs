//! The in-process paths: the same scenario inputs driven by one caller
//! thread straight through the library, and the single-layer sweeps a
//! traced run times.

use crate::served::{cache_served, converged_of, tails};
use crate::stats::{ms, Trace};
use crate::WORKERS;
use crate::{Answer, EngineCounts, Inputs, Pass, Sample, CHUNK, DISCOVERY_SEED, FIRST_SEED};
use aid_core::Strategy;
use aid_engine::{Engine, EngineConfig};
use aid_lab::ReplayItem;
use aid_sim::{InterventionPlan, Simulator};
use aid_store::{StoreConfig, TraceStore};
use aid_watch::{WatchConfig, WatchEvent, Watcher};
use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Seeds per scenario in the simulator sweep.
pub const SIM_SEEDS: u64 = 8;

/// A cold engine sized like the server's.
pub fn engine() -> Engine {
    Engine::new(EngineConfig {
        workers: WORKERS,
        ..EngineConfig::default()
    })
}

fn store_config(item: &ReplayItem) -> StoreConfig {
    StoreConfig {
        extraction: item.scenario.config.clone(),
        ..StoreConfig::default()
    }
}

/// One discovery session through the library: ingest the corpus in
/// upload-sized chunks, refresh and snapshot the analysis, then submit to
/// the engine and wait — the work the server does for upload → submit →
/// wait, minus the wire.
pub fn session(engine: &Engine, item: &ReplayItem, trace: &mut Trace) -> Result<Answer, String> {
    let name = &item.scenario.name;
    let mut store = TraceStore::with_pool(store_config(item), engine.pool());
    trace.time("store.ingest_us", || {
        for chunk in item.encoded.as_bytes().chunks(CHUNK) {
            store.ingest_bytes(chunk);
        }
        store.finish_ingest();
    });
    let analyzed = trace.time("store.refresh_us", || store.refresh().is_some());
    let quarantined = store.stats().ingest.quarantined;
    if !analyzed || quarantined != 0 {
        return Err(format!(
            "{name}: analyzed={analyzed} quarantined={quarantined}"
        ));
    }
    let snapshot = store
        .snapshot()
        .ok_or_else(|| format!("{name}: no snapshot"))?;
    let job = snapshot.discovery_job(
        name.clone(),
        Arc::new(Simulator::new(item.scenario.program.clone())),
        item.scenario.runs_per_round,
        FIRST_SEED,
        Strategy::Aid,
        DISCOVERY_SEED,
    );
    let result = trace
        .time("engine.session_us", || engine.submit(job).join())
        .map_err(|e| format!("{name}: {e}"))?;
    Ok(Answer::of(&result.result))
}

/// One pass: a cold engine, the items in `range` once each, in order.
pub fn pass(inputs: &Inputs, range: Range<usize>, tracing: bool) -> Pass {
    let engine = engine();
    let mut pass = Pass {
        trace: Trace::new(tracing),
        ..Pass::default()
    };
    let started = Instant::now();
    for (index, item) in inputs.slice(range) {
        pass.attempted += 1;
        pass.ingested_bytes += item.encoded.len();
        let session_started = Instant::now();
        match session(&engine, item, &mut pass.trace) {
            Ok(answer) => pass.samples.push(Sample {
                scenario: index,
                latency_ms: ms(session_started.elapsed()),
                answer,
            }),
            Err(e) => pass.failures.push(e),
        }
    }
    pass.elapsed_s = started.elapsed().as_secs_f64();
    let stats = engine.stats();
    pass.engine = Some(EngineCounts {
        executions: stats.executions,
        hits: stats.cache_hits,
        misses: stats.cache_misses,
        coalesced: 0,
    });
    pass
}

/// The in-process answer for every item (cold engine, untraced): the
/// reference every served, repeated and streamed answer must equal.
pub fn reference(inputs: &Inputs) -> Result<Vec<Answer>, String> {
    let engine = engine();
    let mut off = Trace::new(false);
    inputs
        .items
        .iter()
        .map(|item| session(&engine, item, &mut off))
        .collect()
}

/// Watcher delta-rule counts over one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchCounts {
    /// Candidates re-probed, summed over every convergence.
    pub reprobed: u64,
    /// Candidates skipped, summed over every convergence.
    pub skipped: u64,
}

/// Standing queries straight on `aid_watch`: each item's corpus as
/// [`crate::TAILS`] byte tails then its stat-neutral tail, each timed as
/// `push_bytes` + `tick`. Checks that every convergence equals
/// `reference` and every stat-neutral tail is cache-served.
pub fn watch_pass(
    inputs: &Inputs,
    reference: &[Answer],
    trace: &mut Trace,
) -> (WatchCounts, Vec<String>) {
    let engine = engine();
    let mut counts = WatchCounts::default();
    let mut failures = Vec::new();
    let mut count = |events: &[WatchEvent]| {
        for e in events {
            if let WatchEvent::Converged {
                reprobed, skipped, ..
            } = e
            {
                counts.reprobed += u64::from(*reprobed);
                counts.skipped += u64::from(*skipped);
            }
        }
    };
    for (index, item) in inputs.items.iter().enumerate() {
        let name = &item.scenario.name;
        let config = WatchConfig {
            store: store_config(item),
            strategy: Strategy::Aid,
            discovery_seed: DISCOVERY_SEED,
            runs_per_round: item.scenario.runs_per_round,
            first_seed: FIRST_SEED,
            prune_quorum: 1,
            max_probe_runs: None,
            name: format!("{name}/watch"),
        };
        let simulator = Arc::new(Simulator::new(item.scenario.program.clone()));
        let mut watcher = Watcher::new(config, simulator, engine.handle());
        let mut tick = |bytes: &[u8], fin: bool| {
            trace.time("watch.tick_us", || {
                watcher.push_bytes(bytes);
                if fin {
                    watcher.finish_tail();
                }
                watcher.tick()
            })
        };
        let mut last = Vec::new();
        for (piece, fin) in tails(&item.encoded) {
            match tick(piece, fin) {
                Ok(events) => last = events,
                Err(e) => failures.push(format!("{name}: watch tick: {e}")),
            }
            count(&last);
        }
        match converged_of(&last).map(Answer::of) {
            Some(answer) if answer == reference[index] => {}
            other => failures.push(format!("{name}: watch converged to {other:?}")),
        }
        match tick(inputs.neutral[index].as_bytes(), true) {
            Ok(events) if cache_served(&events) => count(&events),
            Ok(events) => failures.push(format!("{name}: stat-neutral tick gave {events:?}")),
            Err(e) => failures.push(format!("{name}: stat-neutral tick: {e}")),
        }
    }
    (counts, failures)
}

/// Times `aid_lab::build` on every item's spec.
pub fn lab_sweep(inputs: &Inputs, trace: &mut Trace) {
    for item in &inputs.items {
        black_box(trace.time("lab.build_us", || {
            aid_lab::build(black_box(&item.scenario.spec))
        }));
    }
}

/// Times `Simulator::run` on every item's program over seeds
/// `0..SIM_SEEDS` with no intervention (the backend is built first, so
/// only runs are timed).
pub fn sim_sweep(inputs: &Inputs, trace: &mut Trace) {
    let plan = InterventionPlan::empty();
    for item in &inputs.items {
        let sim = Simulator::new(item.scenario.program.clone());
        sim.exec_backend();
        for seed in 0..SIM_SEEDS {
            black_box(trace.time("sim.run_us", || sim.run(black_box(seed), &plan)));
        }
    }
}
