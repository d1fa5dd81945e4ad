//! `aid_watch` — standing queries: continuous root-cause discovery over
//! unbounded trace streams.
//!
//! The paper frames AID as a batch tool: collect traces, discover once.
//! Its adaptive-intervention economics, though, pay off precisely when the
//! same predicates and cached interventions are reused across *many*
//! failures — the long-lived, CI-attached deployment. A [`Watcher`] makes
//! discovery a standing query over a [`TraceStore`]:
//!
//! * **Stream in, window out** — trace tails are appended forever; the
//!   store's [`RetentionPolicy`](aid_store::RetentionPolicy) bounds memory
//!   by count and/or age, and the incremental view stays equivalent to
//!   batch analysis over the retained window.
//! * **Delta-gated re-probing** — after each refresh the watcher
//!   fingerprints every candidate predicate: its SD occurrence counts and
//!   its AC-DAG reduction neighborhood, both keyed by predicate *content*
//!   (ids may shift across catalog rebuilds). Discovery is resubmitted
//!   only when the catalog's shape, some candidate's fingerprint, or the
//!   failure signature moved; otherwise the previous convergence — whose
//!   predicate ids are only meaningful against that exact catalog — is
//!   republished without touching the engine at all. When
//!   it does resubmit, the engine's `InterventionCache` answers every probe
//!   whose (program, catalog, failure, interventions, seed) key is
//!   unchanged — so a stat-neutral append costs zero executions, and a
//!   stat-moving one costs only the probes its delta actually invalidated.
//! * **Typed events** — each [`Watcher::tick`] returns [`WatchEvent`]s:
//!   convergence, root-cause changes, first sight of a new failure class,
//!   and probe-budget exhaustion.
//!
//! The discovery parameters are held fixed across re-runs, so a watcher's
//! converged [`DiscoveryResult`] over a corpus equals one-shot discovery
//! over the same corpus — the conformance harness in `aid_lab` checks this
//! for every generated scenario.

use aid_core::{DiscoverOptions, DiscoveryResult, Strategy};
use aid_engine::{EngineHandle, SessionError};
use aid_obs::Counter;
use aid_predicates::PredicateKind;
use aid_sim::Simulator;
use aid_store::{StoreConfig, StoreStats, TraceStore};
use aid_trace::{FailureSignature, Trace, TraceSet};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Standing-query configuration.
#[derive(Clone, Debug)]
pub struct WatchConfig {
    /// Store sizing, extraction, and the retention window.
    pub store: StoreConfig,
    /// Discovery strategy for every (re)submission.
    pub strategy: Strategy,
    /// Tie-breaking seed for the discovery algorithms (fixed across
    /// re-runs so convergence is comparable to one-shot discovery).
    pub discovery_seed: u64,
    /// Intervention runs per round.
    pub runs_per_round: usize,
    /// First intervention seed.
    pub first_seed: u64,
    /// Definition-2 prune quorum.
    pub prune_quorum: usize,
    /// Lifetime probe budget in scheduled intervention runs
    /// (`rounds × runs_per_round`, summed over resubmissions). `None` is
    /// unbounded. When spent, ticks that would re-probe emit
    /// [`WatchEvent::BudgetExhausted`] instead of submitting.
    pub max_probe_runs: Option<u64>,
    /// Session-name prefix for engine telemetry.
    pub name: String,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            store: StoreConfig::default(),
            strategy: Strategy::Aid,
            discovery_seed: 11,
            runs_per_round: 10,
            first_seed: 1_000_000,
            prune_quorum: 1,
            max_probe_runs: None,
            name: "watch".to_string(),
        }
    }
}

/// What a [`Watcher::tick`] observed.
#[derive(Clone, Debug, PartialEq)]
pub enum WatchEvent {
    /// Discovery (re)converged and the root cause is unchanged since the
    /// last convergence (or this is the first).
    Converged {
        /// The converged discovery result.
        result: DiscoveryResult,
        /// Candidates whose SD counts or DAG neighborhood moved since the
        /// last convergence (what the delta rule re-probed).
        reprobed: u32,
        /// Candidates whose fingerprints were unchanged (their cached
        /// intervention outcomes stayed valid).
        skipped: u32,
        /// False when the delta was empty and the previous convergence was
        /// republished without submitting a discovery session at all.
        resubmitted: bool,
    },
    /// Discovery reconverged on a *different* root cause.
    RootChanged {
        /// The new root cause (id within `result`'s catalog).
        root: Option<aid_predicates::PredicateId>,
        /// The new converged discovery result.
        result: DiscoveryResult,
    },
    /// A failure signature this watcher had never seen became the
    /// majority class under analysis.
    NewFailureClass {
        /// The newly seen signature.
        signature: FailureSignature,
        /// Distinct signatures seen so far, this one included.
        classes: u32,
    },
    /// A re-probe was needed but the probe budget is spent; the standing
    /// query stops consuming engine capacity until the budget is raised.
    BudgetExhausted {
        /// Probe runs scheduled over this watcher's lifetime.
        probe_runs: u64,
        /// The configured budget.
        budget: u64,
    },
}

/// Watcher lifetime counters — a plain-value snapshot assembled from the
/// watcher's internal [`aid_obs`] cells by [`Watcher::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchStats {
    /// Ticks processed.
    pub ticks: u64,
    /// Discovery sessions actually submitted.
    pub discoveries: u64,
    /// Ticks whose delta was empty: convergence republished, engine
    /// untouched.
    pub discoveries_skipped: u64,
    /// Intervention runs scheduled (`rounds × runs_per_round`, summed).
    pub probe_runs: u64,
    /// Events emitted.
    pub events: u64,
}

/// The live counter cells behind [`WatchStats`]. Per-watcher and detached:
/// many watchers can coexist, so the cells are not registry-registered
/// (names would collide) — servers expose the watch tier through their own
/// registry counters and the `serve.watch.tick_us` histogram instead.
#[derive(Debug, Default)]
struct WatchCells {
    ticks: Counter,
    discoveries: Counter,
    discoveries_skipped: Counter,
    probe_runs: Counter,
    events: Counter,
}

/// A standing-query failure.
#[derive(Debug)]
pub enum WatchError {
    /// The engine session backing a re-probe died.
    Session(SessionError),
}

impl std::fmt::Display for WatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatchError::Session(e) => write!(f, "discovery session failed: {e}"),
        }
    }
}

impl std::error::Error for WatchError {}

/// One candidate's content-keyed fingerprint: SD occurrence counts plus
/// the sorted AC-DAG reduction neighborhood. `total_runs` is deliberately
/// excluded — it moves on every append, but discovery consumes only the
/// catalog, candidate set, and DAG, so a success that satisfies no
/// candidate must not invalidate anything.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CandidateState {
    holds_in: usize,
    holds_in_failed: usize,
    failed_runs: usize,
    neighbors: Vec<PredicateKind>,
}

type Fingerprint = BTreeMap<PredicateKind, CandidateState>;

/// The state of the last convergence, for delta comparison.
struct Convergence {
    signature: FailureSignature,
    /// Every catalog predicate's kind, in id order. The cached `result`
    /// names predicates by id, so it can only be republished while the
    /// catalog it was computed against is still the catalog — any
    /// inserted or reshaped predicate shifts ids and forces a re-probe
    /// even when no candidate's own fingerprint moved.
    kinds: Vec<PredicateKind>,
    fingerprint: Fingerprint,
    root: Option<PredicateKind>,
    result: DiscoveryResult,
}

/// A standing query: a windowed [`TraceStore`] plus an [`EngineHandle`],
/// re-running discovery only when appended traces actually moved the
/// analysis under it.
pub struct Watcher {
    config: WatchConfig,
    store: TraceStore,
    engine: EngineHandle,
    simulator: Arc<Simulator>,
    generation: u64,
    seen_signatures: BTreeSet<FailureSignature>,
    last: Option<Convergence>,
    stats: WatchCells,
}

impl Watcher {
    /// A standing query over `simulator`, submitting re-probes to `engine`.
    pub fn new(config: WatchConfig, simulator: Arc<Simulator>, engine: EngineHandle) -> Watcher {
        let store = TraceStore::new(config.store.clone());
        Watcher {
            config,
            store,
            engine,
            simulator,
            generation: 0,
            seen_signatures: BTreeSet::new(),
            last: None,
            stats: WatchCells::default(),
        }
    }

    /// Appends a chunk of encoded trace-tail bytes (any framing; chunks may
    /// end mid-line — the store's streaming decoder reassembles).
    pub fn push_bytes(&mut self, chunk: &[u8]) {
        self.store.ingest_bytes(chunk);
    }

    /// Flushes end-of-stream decoder state (quarantining a dangling
    /// partial line). Further tails may still follow.
    pub fn finish_tail(&mut self) {
        self.store.finish_ingest();
    }

    /// Appends an in-memory trace set.
    pub fn append_set(&mut self, set: &TraceSet) {
        self.store.append_set(set);
    }

    /// Appends one live trace (names resolved through `names`).
    pub fn append_run(&mut self, names: &TraceSet, trace: Trace) {
        self.store.append_run(names, trace);
    }

    /// The underlying store (retention counters, quarantine, analysis).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Aggregate store telemetry.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Watcher lifetime counters, snapshotted from the live cells.
    pub fn stats(&self) -> WatchStats {
        WatchStats {
            ticks: self.stats.ticks.get(),
            discoveries: self.stats.discoveries.get(),
            discoveries_skipped: self.stats.discoveries_skipped.get(),
            probe_runs: self.stats.probe_runs.get(),
            events: self.stats.events.get(),
        }
    }

    /// The last converged result, if any tick has converged.
    pub fn converged(&self) -> Option<&DiscoveryResult> {
        self.last.as_ref().map(|c| &c.result)
    }

    /// Brings the analysis up to date with everything appended since the
    /// last tick and re-runs discovery if — and only if — the delta rule
    /// says the previous convergence may be stale. Returns the events this
    /// tick produced (empty when nothing new arrived or no failure is
    /// retained).
    pub fn tick(&mut self) -> Result<Vec<WatchEvent>, WatchError> {
        self.stats.ticks.inc();
        let mut events = Vec::new();
        let Some(analysis) = self.store.refresh() else {
            return Ok(events);
        };

        // Owned delta inputs, so the store borrow can end before we mutate.
        let signature = analysis.extraction.signature.clone();
        let catalog = &analysis.extraction.catalog;
        let kinds: Vec<PredicateKind> = catalog.iter().map(|(_, p)| p.kind.clone()).collect();
        let mut neighbors: BTreeMap<u32, Vec<PredicateKind>> = BTreeMap::new();
        for (a, b) in analysis.dag.reduction_edges() {
            neighbors
                .entry(a.raw())
                .or_default()
                .push(catalog.get(b).kind.clone());
            neighbors
                .entry(b.raw())
                .or_default()
                .push(catalog.get(a).kind.clone());
        }
        let mut fingerprint = Fingerprint::new();
        for &c in &analysis.candidates {
            let score = &analysis.sd.scores[c.index()];
            let mut ns = neighbors.remove(&c.raw()).unwrap_or_default();
            ns.sort();
            fingerprint.insert(
                catalog.get(c).kind.clone(),
                CandidateState {
                    holds_in: score.holds_in,
                    holds_in_failed: score.holds_in_failed,
                    failed_runs: score.failed_runs,
                    neighbors: ns,
                },
            );
        }

        if self.seen_signatures.insert(signature.clone()) {
            events.push(WatchEvent::NewFailureClass {
                signature: signature.clone(),
                classes: self.seen_signatures.len() as u32,
            });
        }

        // The delta rule: identical signature, catalog, and candidate
        // fingerprints mean the discovery inputs are unchanged — republish.
        let unchanged = self.last.as_ref().is_some_and(|prev| {
            prev.signature == signature && prev.kinds == kinds && prev.fingerprint == fingerprint
        });
        if unchanged {
            let prev = self.last.as_ref().expect("unchanged implies last");
            let skipped = fingerprint.len() as u32;
            self.store.record_probe_delta(0, skipped as u64);
            self.stats.discoveries_skipped.inc();
            events.push(WatchEvent::Converged {
                result: prev.result.clone(),
                reprobed: 0,
                skipped,
                resubmitted: false,
            });
            self.stats.events.add(events.len() as u64);
            return Ok(events);
        }
        let (reprobed, skipped) = match &self.last {
            Some(prev) if prev.signature == signature && prev.kinds == kinds => {
                let moved = fingerprint
                    .iter()
                    .filter(|(kind, state)| prev.fingerprint.get(*kind) != Some(*state))
                    .count() as u32;
                (moved, fingerprint.len() as u32 - moved)
            }
            // First convergence, a signature flip, or a reshaped catalog
            // (which shifts ids and intervention-cache keys): everything
            // is probed.
            _ => (fingerprint.len() as u32, 0),
        };

        if let Some(budget) = self.config.max_probe_runs {
            if self.stats.probe_runs.get() >= budget {
                events.push(WatchEvent::BudgetExhausted {
                    probe_runs: self.stats.probe_runs.get(),
                    budget,
                });
                self.stats.events.add(events.len() as u64);
                return Ok(events);
            }
        }

        let snapshot = self.store.snapshot().expect("analysis just published");
        self.generation += 1;
        let mut job = snapshot.discovery_job(
            format!("{}#{}", self.config.name, self.generation),
            Arc::clone(&self.simulator),
            self.config.runs_per_round,
            self.config.first_seed,
            self.config.strategy,
            self.config.discovery_seed,
        );
        job.options = DiscoverOptions {
            prune_quorum: self.config.prune_quorum,
        };
        let result = self
            .engine
            .submit(job)
            .join()
            .map_err(WatchError::Session)?
            .result;
        self.store
            .record_probe_delta(reprobed as u64, skipped as u64);
        self.stats.discoveries.inc();
        self.stats
            .probe_runs
            .add((result.rounds * self.config.runs_per_round) as u64);

        let root = result
            .root_cause()
            .map(|id| snapshot.catalog.get(id).kind.clone());
        let root_moved = self
            .last
            .as_ref()
            .is_some_and(|prev| prev.root != root && prev.signature == signature);
        events.push(if root_moved {
            WatchEvent::RootChanged {
                root: result.root_cause(),
                result: result.clone(),
            }
        } else {
            WatchEvent::Converged {
                result: result.clone(),
                reprobed,
                skipped,
                resubmitted: true,
            }
        });
        self.last = Some(Convergence {
            signature,
            kinds,
            fingerprint,
            root,
            result,
        });
        self.stats.events.add(events.len() as u64);
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aid_cases::{all_cases, collect_logs_sized};
    use aid_engine::Engine;
    use aid_store::RetentionPolicy;
    use aid_trace::{codec, Outcome};

    fn case_watcher(engine: &Engine) -> (Watcher, TraceSet) {
        let case = &all_cases()[0];
        let set = collect_logs_sized(case, 10, 10);
        let sim = Arc::new(Simulator::new(case.program.clone()));
        let config = WatchConfig {
            store: StoreConfig {
                extraction: case.config.clone(),
                ..StoreConfig::default()
            },
            runs_per_round: case.runs_per_round,
            ..WatchConfig::default()
        };
        (Watcher::new(config, sim, engine.handle()), set)
    }

    fn converged_result(events: &[WatchEvent]) -> &DiscoveryResult {
        events
            .iter()
            .find_map(|e| match e {
                WatchEvent::Converged { result, .. } | WatchEvent::RootChanged { result, .. } => {
                    Some(result)
                }
                _ => None,
            })
            .expect("a convergence event")
    }

    #[test]
    fn first_tick_converges_and_reports_new_class() {
        let engine = Engine::with_workers(2);
        let (mut watcher, set) = case_watcher(&engine);
        watcher.append_set(&set);
        let events = watcher.tick().expect("tick");
        assert!(matches!(
            events[0],
            WatchEvent::NewFailureClass { classes: 1, .. }
        ));
        assert!(matches!(
            events[1],
            WatchEvent::Converged {
                resubmitted: true,
                skipped: 0,
                ..
            }
        ));
        assert!(watcher.converged().is_some());
        engine.shutdown();
    }

    #[test]
    fn stat_neutral_appends_skip_discovery_entirely() {
        let engine = Engine::with_workers(2);
        let (mut watcher, set) = case_watcher(&engine);
        watcher.append_set(&set);
        let first = watcher.tick().expect("tick");
        let baseline = converged_result(&first).clone();
        let candidates = match &first[1] {
            WatchEvent::Converged { reprobed, .. } => *reprobed,
            other => panic!("expected first convergence, got {other:?}"),
        };
        assert!(candidates > 0);
        let executions = engine.stats().executions;
        assert!(executions > 0, "first convergence ran interventions");

        // Replaying a successful run already in the corpus leaves every
        // pass-1 statistic (site stability, duration envelopes, unique
        // returns) and every candidate fingerprint untouched.
        let replay = set
            .traces
            .iter()
            .find(|t| matches!(t.outcome, Outcome::Success))
            .cloned()
            .expect("case corpora contain successful runs");
        let neutral = TraceSet {
            methods: set.methods.clone(),
            objects: set.objects.clone(),
            channels: set.channels.clone(),
            traces: vec![replay],
        };
        for _ in 0..3 {
            watcher.append_set(&neutral);
            let events = watcher.tick().expect("tick");
            assert_eq!(events.len(), 1);
            match &events[0] {
                WatchEvent::Converged {
                    result,
                    reprobed,
                    resubmitted,
                    ..
                } => {
                    assert_eq!(result, &baseline);
                    assert_eq!(*reprobed, 0);
                    assert!(!resubmitted);
                }
                other => panic!("expected a cached convergence, got {other:?}"),
            }
        }
        assert_eq!(
            engine.stats().executions,
            executions,
            "stat-neutral appends must execute zero new interventions"
        );
        let stats = watcher.stats();
        assert_eq!(stats.discoveries, 1);
        assert_eq!(stats.discoveries_skipped, 3);
        let view = watcher.store_stats().view;
        assert_eq!(view.predicates_reprobed, u64::from(candidates));
        assert_eq!(view.predicates_skipped, 3 * u64::from(candidates));
        engine.shutdown();
    }

    #[test]
    fn streamed_tails_converge_to_one_shot_discovery() {
        let engine = Engine::with_workers(2);
        let (mut watcher, set) = case_watcher(&engine);
        let encoded = codec::encode(&set);
        // Stream the corpus as byte tails, ticking mid-stream too.
        let bytes = encoded.as_bytes();
        let mid = bytes.len() / 2;
        watcher.push_bytes(&bytes[..mid]);
        watcher.tick().expect("mid-stream tick");
        watcher.push_bytes(&bytes[mid..]);
        watcher.finish_tail();
        let events = watcher.tick().expect("final tick");
        let streamed = converged_result(&events).clone();

        // One-shot: a fresh store over the full corpus, one submission.
        let case = &all_cases()[0];
        let mut store = TraceStore::new(StoreConfig {
            extraction: case.config.clone(),
            ..StoreConfig::default()
        });
        store.append_set(&set);
        store.refresh();
        let snapshot = store.snapshot().expect("analysis");
        let job = snapshot.discovery_job(
            "one-shot",
            Arc::new(Simulator::new(case.program.clone())),
            case.runs_per_round,
            1_000_000,
            Strategy::Aid,
            11,
        );
        let one_shot = engine.submit(job).join().expect("session").result;
        assert_eq!(streamed, one_shot);
        engine.shutdown();
    }

    #[test]
    fn budget_exhaustion_stops_probing() {
        let engine = Engine::with_workers(2);
        let case = &all_cases()[0];
        let set = collect_logs_sized(case, 6, 6);
        let sim = Arc::new(Simulator::new(case.program.clone()));
        let config = WatchConfig {
            store: StoreConfig {
                extraction: case.config.clone(),
                ..StoreConfig::default()
            },
            runs_per_round: case.runs_per_round,
            max_probe_runs: Some(0),
            ..WatchConfig::default()
        };
        let mut watcher = Watcher::new(config, sim, engine.handle());
        watcher.append_set(&set);
        let events = watcher.tick().expect("tick");
        assert!(events
            .iter()
            .any(|e| matches!(e, WatchEvent::BudgetExhausted { budget: 0, .. })));
        assert_eq!(engine.stats().executions, 0);
        assert_eq!(watcher.stats().discoveries, 0);
        engine.shutdown();
    }

    #[test]
    fn windowed_watcher_tracks_the_retained_tail() {
        let engine = Engine::with_workers(2);
        let case = &all_cases()[0];
        let set = collect_logs_sized(case, 8, 8);
        let sim = Arc::new(Simulator::new(case.program.clone()));
        let config = WatchConfig {
            store: StoreConfig {
                extraction: case.config.clone(),
                retention: RetentionPolicy::keep_last(12),
            },
            runs_per_round: case.runs_per_round,
            ..WatchConfig::default()
        };
        let mut watcher = Watcher::new(config, sim, engine.handle());
        for t in &set.traces {
            watcher.append_run(&set, t.clone());
            watcher.tick().expect("tick");
        }
        assert_eq!(watcher.store().len(), 12);
        assert!(watcher.store_stats().window.evicted > 0);
        assert!(watcher.converged().is_some());
        engine.shutdown();
    }
}
