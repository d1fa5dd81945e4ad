//! The differential conformance harness: run the **whole** pipeline on a
//! generated scenario and check cross-layer invariants that must hold for
//! *every* program, not just the six hand-modeled case studies.
//!
//! Corpus-level invariants (also replayable against persisted corpora):
//!
//! 1. **codec identity** — encode → decode → encode round-trips
//!    byte-for-byte;
//! 2. **framing independence** — the `aid_store::StreamDecoder` fed the
//!    same bytes under any chunking produces the same traces with an empty
//!    quarantine;
//! 3. **window losslessness** — the store's `TraceWindow` keeps the corpus
//!    so that it re-encodes byte-identically;
//! 4. **incremental ≡ batch** — the store's incrementally maintained
//!    analysis is structurally identical to `aid_core::analyze` recomputed
//!    from scratch at every prefix.
//!
//! Scenario-level invariants (need the program, not just its traces):
//!
//! 5. **schedule independence** — serial `SimExecutor` discovery, a
//!    1-worker engine session, an N-worker engine session, and a repeated
//!    (cache-served) session all return the same `DiscoveryResult`;
//! 6. **memoization** — the repeated session executes nothing new;
//! 7. **lineage** — no confirmed-causal predicate touches a ground-truth
//!    noise method (interventional pruning must reject causally unrelated
//!    predicates);
//! 8. **backend equivalence** (with [`BackendMode::Both`], the default) —
//!    the tree-walk and bytecode execution backends report the same
//!    simulator fingerprint, produce byte-identical traces on sampled
//!    seeds under both the empty plan and an analysis-derived intervention
//!    plan, and serial discovery over either backend returns the same
//!    `DiscoveryResult`;
//! 9. **streaming equivalence** — an `aid_watch::Watcher` fed the corpus
//!    as chunked byte tails converges to the same `DiscoveryResult` as
//!    one-shot discovery over the full corpus, and stat-neutral appends
//!    after convergence execute zero new interventions (the standing
//!    query's delta rule plus the engine's intervention cache).
//!
//! Root-cause *accuracy* (root found, expected kind, mechanism hit) is
//! reported as metrics rather than hard invariants: discovery quality is
//! graded in aggregate by the driver, while the invariants above must hold
//! scenario by scenario.

use crate::gen::{BugClass, LabParams, Scenario};
use aid_core::{analyze, discover, AidAnalysis, DiscoveryResult, Strategy};
use aid_engine::{DiscoveryJob, Engine, EngineConfig};
use aid_predicates::{ExtractionConfig, PredicateCatalog, PredicateId, PredicateKind};
use aid_sim::{plan_for, Backend, InterventionPlan, SimExecutor, Simulator};
use aid_store::{StoreConfig, StreamDecoder, TraceStore};
use aid_trace::{codec, MethodId, Outcome, Trace, TraceSet};
use aid_watch::{WatchConfig, Watcher};
use std::sync::Arc;

/// First seed for intervention runs (disjoint from observation seeds).
const INTERVENTION_SEED: u64 = 1_000_000;

/// Which execution backend(s) the harness drives the pipeline on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendMode {
    /// Everything on the tree-walk interpreter.
    TreeWalk,
    /// Everything on the bytecode VM.
    Bytecode,
    /// Run the pipeline on the session default and additionally check
    /// invariant 8 (tree-walk ≡ bytecode) on every scenario.
    Both,
}

impl BackendMode {
    /// The backend the main pipeline (corpus, discovery, engines) uses.
    pub fn primary(self) -> Backend {
        match self {
            BackendMode::TreeWalk => Backend::TreeWalk,
            BackendMode::Bytecode => Backend::Bytecode,
            BackendMode::Both => Backend::default(),
        }
    }

    /// Parses a mode name (`tree`, `bytecode`, `both`).
    pub fn parse(s: &str) -> Option<BackendMode> {
        if s == "both" {
            return Some(BackendMode::Both);
        }
        Backend::parse(s).map(|b| match b {
            Backend::TreeWalk => BackendMode::TreeWalk,
            Backend::Bytecode => BackendMode::Bytecode,
        })
    }
}

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct Conformance {
    /// Generator sizing (also the corpus balance the harness collects).
    pub params: LabParams,
    /// Worker count of the "many workers" engine of invariant 5.
    pub workers: usize,
    /// Check every `stride`-th prefix in invariant 4 (the final prefix is
    /// always checked); 1 = every prefix.
    pub prefix_stride: usize,
    /// Tie-breaking seed passed to the discovery algorithms.
    pub discovery_seed: u64,
    /// Execution backend(s); [`BackendMode::Both`] also enables the
    /// backend-equivalence invariant (8).
    pub backend: BackendMode,
    /// Also check invariant 9 (streamed-tail discovery ≡ one-shot): a
    /// standing `aid_watch::Watcher` fed the corpus as byte tails must
    /// converge to the serial reference result, and stat-neutral appends
    /// after convergence must execute zero new interventions.
    pub streaming: bool,
}

impl Default for Conformance {
    fn default() -> Self {
        Conformance {
            params: LabParams::default(),
            workers: 4,
            prefix_stride: 1,
            discovery_seed: 11,
            backend: BackendMode::Both,
            streaming: true,
        }
    }
}

/// One invariant violation, with enough detail to reproduce.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Scenario (or corpus entry) name.
    pub scenario: String,
    /// Which invariant broke.
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.scenario, self.invariant, self.detail)
    }
}

/// The outcome of one scenario's conformance run.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name (`"<class>-s<seed>"`).
    pub name: String,
    /// Its bug class.
    pub bug_class: BugClass,
    /// Corpus size actually checked.
    pub traces: usize,
    /// Predicates extracted from the corpus.
    pub predicates: usize,
    /// Safely intervenable AC-DAG candidates.
    pub candidates: usize,
    /// Intervention rounds AID used (serial reference run).
    pub aid_rounds: usize,
    /// Whether discovery confirmed any root cause.
    pub root_found: bool,
    /// Whether the root's kind matches the template's expectation.
    pub root_kind_match: bool,
    /// Whether the root touches only ground-truth mechanism methods.
    pub root_on_mechanism: bool,
    /// Invariant violations (empty = conformant).
    pub violations: Vec<Violation>,
}

/// The static methods a predicate's truth depends on (used to test lineage
/// membership). Conjunctions recurse through the catalog.
pub fn predicate_methods(catalog: &PredicateCatalog, id: PredicateId) -> Vec<MethodId> {
    match &catalog.get(id).kind {
        PredicateKind::DataRace { a, b, .. } => vec![a.method, b.method],
        PredicateKind::MethodFails { site, .. }
        | PredicateKind::RunsTooSlow { site, .. }
        | PredicateKind::RunsTooFast { site, .. }
        | PredicateKind::WrongReturn { site, .. } => vec![site.method],
        PredicateKind::OrderViolation { first, second, .. } => vec![first.method, second.method],
        PredicateKind::ValueCollision { a, b } => vec![a.method, b.method],
        PredicateKind::Conjunction { lhs, rhs } => {
            let mut v = predicate_methods(catalog, *lhs);
            v.extend(predicate_methods(catalog, *rhs));
            v
        }
        PredicateKind::Failure { signature } => vec![signature.method],
    }
}

/// Structural equality of two analyses (the store equivalence contract),
/// returning the first mismatch instead of panicking.
pub fn compare_analysis(incremental: &AidAnalysis, batch: &AidAnalysis) -> Result<(), String> {
    if incremental.extraction.catalog.len() != batch.extraction.catalog.len() {
        return Err(format!(
            "catalog size {} != {}",
            incremental.extraction.catalog.len(),
            batch.extraction.catalog.len()
        ));
    }
    for ((ia, pa), (ib, pb)) in incremental
        .extraction
        .catalog
        .iter()
        .zip(batch.extraction.catalog.iter())
    {
        if ia != ib || pa != pb {
            return Err(format!("predicate {ia:?} differs: {pa:?} vs {pb:?}"));
        }
    }
    if incremental.extraction.failure != batch.extraction.failure {
        return Err("failure indicator differs".into());
    }
    if incremental.extraction.signature != batch.extraction.signature {
        return Err("failure signature differs".into());
    }
    if incremental.extraction.observations != batch.extraction.observations {
        return Err("per-run observations differ".into());
    }
    if incremental.sd.scores != batch.sd.scores {
        return Err("SD scores differ".into());
    }
    if incremental.sd.discriminative != batch.sd.discriminative {
        return Err("discriminative sets differ".into());
    }
    if incremental.sd.fully_discriminative != batch.sd.fully_discriminative {
        return Err("fully-discriminative sets differ".into());
    }
    if incremental.candidates != batch.candidates {
        return Err(format!(
            "candidates differ: {:?} vs {:?}",
            incremental.candidates, batch.candidates
        ));
    }
    if incremental.dag != batch.dag {
        return Err("AC-DAG differs".into());
    }
    Ok(())
}

/// Runs the corpus-level invariants (1–4) on a labeled trace set. Used both
/// on freshly generated scenarios and to replay persisted regression
/// corpora.
pub fn corpus_violations(
    name: &str,
    set: &TraceSet,
    config: &ExtractionConfig,
    prefix_stride: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut violate = |invariant: &'static str, detail: String| {
        out.push(Violation {
            scenario: name.to_string(),
            invariant,
            detail,
        });
    };
    let text = codec::encode(set);

    // (1) codec identity, byte for byte.
    let mut decodable = false;
    match codec::decode(&text) {
        Ok(back) => {
            decodable = true;
            if back.traces != set.traces {
                violate("codec-identity", "decoded traces differ".into());
            }
            let re = codec::encode(&back);
            if re != text {
                violate(
                    "codec-identity",
                    format!("re-encode differs ({} vs {} bytes)", re.len(), text.len()),
                );
            }
        }
        Err(e) => violate("codec-identity", format!("decode failed: {e}")),
    }

    // (2) framing independence: any chunking yields the same decode.
    let salt = set.traces.first().map_or(0, |t| t.seed);
    for chunk in [1usize, 7, 97, 1021, 13 + (salt as usize % 241)] {
        let mut dec = StreamDecoder::new();
        for piece in text.as_bytes().chunks(chunk) {
            dec.push_bytes(piece);
        }
        dec.finish();
        let traces = dec.drain();
        if !dec.quarantine().is_empty() {
            violate(
                "framing-independence",
                format!(
                    "chunk size {chunk}: {} records quarantined: {}",
                    dec.quarantine().len(),
                    dec.quarantine()[0].error
                ),
            );
        } else if traces != set.traces {
            violate(
                "framing-independence",
                format!("chunk size {chunk}: decoded traces differ"),
            );
        }
    }

    // Invariants 3 and 4 are defined on decodable corpora only: a set that
    // already failed (1) (e.g. a deliberately poisoned shrink reproducer)
    // references ids the store's name arenas cannot resolve.
    if !decodable {
        return out;
    }

    // (3) window losslessness.
    let mut store = TraceStore::new(StoreConfig {
        extraction: config.clone(),
        ..StoreConfig::default()
    });
    store.append_set(set);
    let re = codec::encode(&store.to_trace_set());
    if re != text {
        violate(
            "window-roundtrip",
            format!(
                "window re-encode differs ({} vs {} bytes)",
                re.len(),
                text.len()
            ),
        );
    }

    // (4) incremental ≡ batch at every checked prefix.
    let stride = prefix_stride.max(1);
    let mut store = TraceStore::new(StoreConfig {
        extraction: config.clone(),
        ..StoreConfig::default()
    });
    let mut failures_seen = 0usize;
    for k in 0..set.traces.len() {
        store.append_run(set, set.traces[k].clone());
        if set.traces[k].failed() {
            failures_seen += 1;
        }
        let last = k + 1 == set.traces.len();
        if !last && (k + 1) % stride != 0 {
            continue;
        }
        let analysis = store.refresh();
        if failures_seen == 0 {
            if analysis.is_some() {
                violate(
                    "incremental-equivalence",
                    format!("prefix {}: analysis published before any failure", k + 1),
                );
            }
            continue;
        }
        let Some(analysis) = analysis else {
            violate(
                "incremental-equivalence",
                format!(
                    "prefix {}: no analysis despite {failures_seen} failures",
                    k + 1
                ),
            );
            continue;
        };
        let prefix = TraceSet {
            methods: set.methods.clone(),
            objects: set.objects.clone(),
            channels: set.channels.clone(),
            traces: set.traces[..=k].to_vec(),
        };
        let batch = analyze(&prefix, config);
        if let Err(e) = compare_analysis(analysis, &batch) {
            violate("incremental-equivalence", format!("prefix {}: {e}", k + 1));
        }
    }
    out
}

fn discovery_job(
    name: &str,
    scenario: &Scenario,
    sim: &Arc<Simulator>,
    analysis: &AidAnalysis,
    seed: u64,
) -> DiscoveryJob {
    DiscoveryJob::sim(
        name,
        Arc::new(analysis.dag.clone()),
        Arc::clone(sim),
        Arc::new(analysis.extraction.catalog.clone()),
        analysis.extraction.failure,
        scenario.runs_per_round,
        INTERVENTION_SEED,
        Strategy::Aid,
        seed,
    )
}

/// Runs the full conformance suite (invariants 1–7 plus accuracy metrics)
/// on one scenario, collecting its corpus first. Callers that already hold
/// the validated corpus (e.g. from [`crate::gen::generate_validated`])
/// should use [`check_scenario_on`] — collection dominates the
/// per-scenario cost, so re-collecting doubles it.
pub fn check_scenario(scenario: &Scenario, conf: &Conformance) -> ScenarioReport {
    match scenario.collect(&conf.params) {
        Some(set) => check_scenario_on(scenario, &set, conf),
        None => ScenarioReport {
            name: scenario.name.clone(),
            bug_class: scenario.spec.bug_class,
            traces: 0,
            predicates: 0,
            candidates: 0,
            aid_rounds: 0,
            root_found: false,
            root_kind_match: false,
            root_on_mechanism: false,
            violations: vec![Violation {
                scenario: scenario.name.clone(),
                invariant: "corpus-balance",
                detail: format!(
                    "failed to collect {}/{} balanced runs in {} seeds",
                    conf.params.corpus_ok, conf.params.corpus_fail, conf.params.max_seeds
                ),
            }],
        },
    }
}

/// [`check_scenario`] over an already-collected corpus.
pub fn check_scenario_on(
    scenario: &Scenario,
    set: &TraceSet,
    conf: &Conformance,
) -> ScenarioReport {
    let mut report = ScenarioReport {
        name: scenario.name.clone(),
        bug_class: scenario.spec.bug_class,
        traces: set.traces.len(),
        predicates: 0,
        candidates: 0,
        aid_rounds: 0,
        root_found: false,
        root_kind_match: false,
        root_on_mechanism: false,
        violations: Vec::new(),
    };

    // Corpus-level invariants (1–4).
    report.violations.extend(corpus_violations(
        &scenario.name,
        set,
        &scenario.config,
        conf.prefix_stride,
    ));

    // Observation phase + serial reference discovery.
    let analysis = analyze(set, &scenario.config);
    report.predicates = analysis.extraction.catalog.len();
    report.candidates = analysis.candidates.len();
    let primary = conf.backend.primary();
    let sim = Arc::new(scenario.simulator_with(primary));
    let mut serial_exec = SimExecutor::new(
        scenario.simulator_with(primary),
        analysis.extraction.catalog.clone(),
        analysis.extraction.failure,
        scenario.runs_per_round,
        INTERVENTION_SEED,
    );
    let serial = discover(
        &analysis.dag,
        &mut serial_exec,
        Strategy::Aid,
        conf.discovery_seed,
    );
    report.aid_rounds = serial.rounds;

    // (8) backend equivalence: fingerprints, traces, and discovery must be
    // independent of the execution backend.
    if conf.backend == BackendMode::Both {
        let tree = scenario.simulator_with(Backend::TreeWalk);
        let byte = scenario.simulator_with(Backend::Bytecode);
        if tree.fingerprint() != byte.fingerprint() {
            report.violations.push(Violation {
                scenario: scenario.name.clone(),
                invariant: "backend-equivalence",
                detail: format!(
                    "fingerprints diverge: tree {:#x} vs bytecode {:#x}",
                    tree.fingerprint(),
                    byte.fingerprint()
                ),
            });
        }
        // Byte-identical traces under the empty plan and under a real
        // intervention plan lowered from the scenario's own analysis.
        let mut plans = vec![("empty plan", InterventionPlan::empty())];
        if let Some(&candidate) = analysis.candidates.first() {
            plans.push((
                "candidate plan",
                plan_for(&analysis.extraction.catalog, &[candidate]),
            ));
        }
        for (label, plan) in &plans {
            for seed in (0..4).chain(INTERVENTION_SEED..INTERVENTION_SEED + 4) {
                let a = tree.run(seed, plan);
                let b = byte.run(seed, plan);
                if a != b {
                    report.violations.push(Violation {
                        scenario: scenario.name.clone(),
                        invariant: "backend-equivalence",
                        detail: format!("{label}, seed {seed}: traces diverge"),
                    });
                    break;
                }
            }
        }
        // Same serial discovery result on the backend the main run did
        // *not* use.
        let other = match primary {
            Backend::TreeWalk => Backend::Bytecode,
            Backend::Bytecode => Backend::TreeWalk,
        };
        let mut other_exec = SimExecutor::new(
            scenario.simulator_with(other),
            analysis.extraction.catalog.clone(),
            analysis.extraction.failure,
            scenario.runs_per_round,
            INTERVENTION_SEED,
        );
        let cross = discover(
            &analysis.dag,
            &mut other_exec,
            Strategy::Aid,
            conf.discovery_seed,
        );
        if cross != serial {
            report.violations.push(Violation {
                scenario: scenario.name.clone(),
                invariant: "backend-equivalence",
                detail: format!(
                    "discovery on {} differs from {}: causal {:?} vs {:?}",
                    other.name(),
                    primary.name(),
                    cross.causal,
                    serial.causal
                ),
            });
        }
    }

    // (5) + (6): engine parity across worker counts, and against the cache.
    let parity = |result: &DiscoveryResult, label: &str, report: &mut ScenarioReport| {
        if result != &serial {
            report.violations.push(Violation {
                scenario: scenario.name.clone(),
                invariant: "schedule-independence",
                detail: format!(
                    "{label} differs from serial: causal {:?} vs {:?}, rounds {} vs {}",
                    result.causal, serial.causal, result.rounds, serial.rounds
                ),
            });
        }
    };
    let single = Engine::with_workers(1);
    let r1 = single
        .run_all(vec![discovery_job(
            "single",
            scenario,
            &sim,
            &analysis,
            conf.discovery_seed,
        )])
        .remove(0);
    parity(&r1.result, "1-worker engine", &mut report);
    drop(single);

    let multi = Engine::new(EngineConfig {
        workers: conf.workers.max(2),
        ..EngineConfig::default()
    });
    let rn = multi
        .run_all(vec![discovery_job(
            "multi",
            scenario,
            &sim,
            &analysis,
            conf.discovery_seed,
        )])
        .remove(0);
    parity(&rn.result, "N-worker engine", &mut report);
    let before = multi.stats();
    let repeat = multi
        .run_all(vec![discovery_job(
            "repeat",
            scenario,
            &sim,
            &analysis,
            conf.discovery_seed,
        )])
        .remove(0);
    parity(&repeat.result, "cache-served repeat session", &mut report);
    let after = multi.stats();
    if after.executions != before.executions {
        report.violations.push(Violation {
            scenario: scenario.name.clone(),
            invariant: "memoization",
            detail: format!(
                "repeat session re-executed {} runs",
                after.executions - before.executions
            ),
        });
    }
    // (9) streaming equivalence: a standing query fed the corpus as byte
    // tails converges to the serial reference result, and post-convergence
    // stat-neutral appends cost zero interventions. The watcher shares the
    // N-worker engine, so its final (full-corpus) re-probe is answered by
    // the interventions the one-shot sessions already cached.
    if conf.streaming {
        let mut watcher = Watcher::new(
            WatchConfig {
                store: StoreConfig {
                    extraction: scenario.config.clone(),
                    ..StoreConfig::default()
                },
                strategy: Strategy::Aid,
                discovery_seed: conf.discovery_seed,
                runs_per_round: scenario.runs_per_round,
                first_seed: INTERVENTION_SEED,
                prune_quorum: 1,
                max_probe_runs: None,
                name: format!("{}-watch", scenario.name),
            },
            Arc::clone(&sim),
            multi.handle(),
        );
        let violate = |invariant: &'static str, detail: String, report: &mut ScenarioReport| {
            report.violations.push(Violation {
                scenario: scenario.name.clone(),
                invariant,
                detail,
            });
        };
        let text = codec::encode(set);
        let bytes = text.as_bytes();
        let mid = bytes.len() / 2;
        watcher.push_bytes(&bytes[..mid]);
        let mut stream_ok = true;
        if let Err(e) = watcher.tick() {
            violate(
                "streaming-equivalence",
                format!("mid-stream tick: {e}"),
                &mut report,
            );
            stream_ok = false;
        }
        watcher.push_bytes(&bytes[mid..]);
        watcher.finish_tail();
        if stream_ok {
            match watcher.tick() {
                Ok(_) => match watcher.converged() {
                    Some(result) if result == &serial => {
                        // Post-convergence economy: replaying a successful
                        // run already in the corpus moves nothing — site
                        // stability, duration envelopes, unique returns,
                        // and every candidate's counts are all preserved —
                        // so the watcher must republish without touching
                        // the engine. (An *empty* success would not do: it
                        // breaks every site's present-in-all-successes
                        // stability and with it the timing/order predicate
                        // families.)
                        let replay: Vec<Trace> = set
                            .traces
                            .iter()
                            .find(|t| matches!(t.outcome, Outcome::Success))
                            .cloned()
                            .into_iter()
                            .collect();
                        let neutral = TraceSet {
                            methods: set.methods.clone(),
                            objects: set.objects.clone(),
                            channels: set.channels.clone(),
                            traces: replay,
                        };
                        let before = multi.stats().executions;
                        watcher.append_set(&neutral);
                        match watcher.tick() {
                            Ok(_) => {
                                let delta = multi.stats().executions - before;
                                if delta != 0 {
                                    violate(
                                        "streaming-economy",
                                        format!("stat-neutral append executed {delta} new runs"),
                                        &mut report,
                                    );
                                }
                            }
                            Err(e) => violate(
                                "streaming-economy",
                                format!("post-convergence tick: {e}"),
                                &mut report,
                            ),
                        }
                    }
                    Some(result) => violate(
                        "streaming-equivalence",
                        format!(
                            "streamed convergence differs from serial: causal {:?} vs {:?}",
                            result.causal, serial.causal
                        ),
                        &mut report,
                    ),
                    None => violate(
                        "streaming-equivalence",
                        "watcher never converged over the full corpus".into(),
                        &mut report,
                    ),
                },
                Err(e) => violate(
                    "streaming-equivalence",
                    format!("final tick: {e}"),
                    &mut report,
                ),
            }
        }
    }
    drop(multi);

    // (7) lineage: confirmed causal predicates never touch noise methods.
    for &p in &serial.causal {
        let methods = predicate_methods(&analysis.extraction.catalog, p);
        if let Some(bad) = methods.iter().find(|m| !scenario.on_lineage(**m)) {
            report.violations.push(Violation {
                scenario: scenario.name.clone(),
                invariant: "lineage",
                detail: format!(
                    "causal predicate '{}' touches noise method {}",
                    analysis.extraction.catalog.describe(p, set),
                    set.method_name(*bad),
                ),
            });
        }
    }

    // Accuracy metrics.
    if let Some(root) = serial.root_cause() {
        report.root_found = true;
        report.root_kind_match = scenario
            .expected_root
            .matches(&analysis.extraction.catalog.get(root).kind);
        report.root_on_mechanism = predicate_methods(&analysis.extraction.catalog, root)
            .iter()
            .all(|m| scenario.mechanism.contains(m));
    }
    report
}
