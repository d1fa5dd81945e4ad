//! The incrementally maintained analysis view over a [`TraceWindow`].
//!
//! [`StoreView::refresh`] folds newly appended traces into the observation-
//! phase state — predicate catalog, per-run observations, SD scores, and
//! the AC-DAG — under a hard **equivalence contract**: after any sequence
//! of appends and refreshes, the published [`AidAnalysis`] is structurally
//! identical to `aid_core::analyze` run from scratch over the same traces
//! in the same order (`tests/incremental_equivalence.rs` pins this for
//! every prefix of all six case-study corpora).
//!
//! The incremental decomposition mirrors the batch pipeline's two passes:
//!
//! * **Pass 1 (successes)** is a pure fold — the same
//!   [`SuccessStats::observe`] the batch extractor runs: duration
//!   envelopes, unique returns, stable sites, all-runs temporal orders, and
//!   per-success return rows update per new success over a dense site
//!   table, and the fold reports whether anything *pass-2-relevant* moved.
//! * **Pass 2 (failures)** extends: catalog interning is insertion-ordered,
//!   so scanning only the newly arrived failures appends exactly the
//!   predicates a batch rescan would — as long as pass-1 state is
//!   unchanged. When a success *does* move the statistics (an envelope
//!   widens, a site loses stability, an order or collision invariant
//!   breaks), the view falls back to a full pass-2 rebuild for that
//!   refresh and says so in its telemetry.
//! * **Evaluation** extends per trace: stored window vectors grow by
//!   exactly the new catalog suffix (`aid_predicates::Evaluator::extend`).
//! * **SD** is counted from per-predicate occurrence bitmaps
//!   (`aid_util::DenseBitSet` over trace ids) rather than by re-scanning
//!   observations.
//! * **The AC-DAG** folds new failed runs into a live
//!   [`aid_causal::AcDagBuilder`] whenever the candidate set, failure id,
//!   and signature are unchanged, and replays otherwise.
//!
//! Under **windowed retention** the contract generalizes: when the store
//! has evicted traces since the last refresh (`store.base()` moved), the
//! view drops its incremental state and refolds the whole retained window,
//! so the published analysis is structurally identical to batch `analyze`
//! over *the retained traces* in arrival order. Refolds are deliberate:
//! pass-1 folds (envelope growth, stable-site intersection, unique-return
//! collapse) are not invertible, so forgetting a trace means replaying the
//! survivors — the `resets` counter makes that cost visible.

use crate::window::TraceWindow;
use aid_causal::{AcDagBuilder, TypeAwarePolicy};
use aid_core::AidAnalysis;
use aid_predicates::{
    scan_failure, Evaluator, Extraction, ExtractionConfig, Predicate, PredicateCatalog,
    PredicateId, PredicateKind, RunObservation, SuccessStats,
};
use aid_sd::{PredicateScore, SdReport};
use aid_trace::{FailureSignature, Outcome, Time, Trace};
use aid_util::DenseBitSet;
use std::collections::BTreeMap;

/// Telemetry for the incremental machinery: how often the cheap paths held.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Refresh calls that had new traces to fold.
    pub refreshes: u64,
    /// Refreshes that extended the catalog in place (cheap pass-2 path).
    pub extensions: u64,
    /// Refreshes that re-scanned every failure (success statistics moved).
    pub rebuilds: u64,
    /// Individual predicate windows computed (the evaluation workload; a
    /// batch recomputation would be `traces × catalog` per refresh).
    pub windows_evaluated: u64,
    /// Failed runs folded incrementally into a live AC-DAG builder.
    pub dag_runs_folded: u64,
    /// AC-DAG builder replays (candidate set, failure id, or signature
    /// changed).
    pub dag_rebuilds: u64,
    /// Full refolds of the retained window after the store evicted traces.
    pub resets: u64,
    /// Standing-query delta accounting: predicates whose SD score or
    /// AC-DAG neighborhood moved since the last convergence, forcing a
    /// re-probe (recorded by watchers via
    /// [`StoreView::record_probe_delta`]).
    pub predicates_reprobed: u64,
    /// Standing-query delta accounting: predicates left untouched by a
    /// refresh (their cached intervention outcomes stayed valid).
    pub predicates_skipped: u64,
}

/// The incrementally maintained observation-phase analysis.
pub struct StoreView {
    config: ExtractionConfig,
    /// The store base this view's state was folded against. When the store
    /// evicts (its base advances past this), the incremental state is no
    /// longer a fold over the retained window and must be rebuilt.
    base: usize,
    /// Global-id high-water mark: traces `base..seen` are folded in. All
    /// per-trace state (`windows`, `occurrence`, `failed_bits`) is indexed
    /// by `gid - base`.
    seen: usize,
    // --- pass-1 state (successes) ---
    stats: SuccessStats,
    /// Pass-2 inputs moved since the catalog was last (re)built.
    stats_dirty: bool,
    // --- pass-2 state (failures) ---
    /// Global ids of failed traces, in arrival order.
    failures: Vec<usize>,
    /// How many entries of `failures` are scanned into `base`.
    scanned: usize,
    sig_counts: BTreeMap<FailureSignature, usize>,
    /// The catalog *without* the failure indicator.
    catalog: PredicateCatalog,
    /// Per retained trace (indexed `gid - base`): observation windows for
    /// every catalog predicate.
    windows: Vec<Vec<Option<(Time, Time)>>>,
    /// Per catalog predicate: which retained traces (`gid - base`) it
    /// holds in.
    occurrence: Vec<DenseBitSet>,
    /// Evaluation scratch, reused for every trace's windows.
    evaluator: Evaluator,
    /// Which retained traces (`gid - base`) failed (any signature).
    failed_bits: DenseBitSet,
    // --- AC-DAG state ---
    builder: Option<DagCache>,
    // --- published ---
    analysis: Option<AidAnalysis>,
    view_stats: ViewStats,
}

/// A live AC-DAG intersection plus the inputs it is valid for.
struct DagCache {
    candidates: Vec<PredicateId>,
    failure: PredicateId,
    signature: FailureSignature,
    builder: AcDagBuilder,
    /// Prefix of `failures` already folded in.
    folded: usize,
}

impl StoreView {
    /// An empty view with the given extraction configuration.
    pub fn new(config: ExtractionConfig) -> StoreView {
        StoreView {
            stats: SuccessStats::new(config.order),
            config,
            base: 0,
            seen: 0,
            stats_dirty: false,
            failures: Vec::new(),
            scanned: 0,
            sig_counts: BTreeMap::new(),
            catalog: PredicateCatalog::new(),
            windows: Vec::new(),
            occurrence: Vec::new(),
            evaluator: Evaluator::default(),
            failed_bits: DenseBitSet::new(0),
            builder: None,
            analysis: None,
            view_stats: ViewStats::default(),
        }
    }

    /// The published analysis, if at least one failure has been folded.
    pub fn analysis(&self) -> Option<&AidAnalysis> {
        self.analysis.as_ref()
    }

    /// Global-id high-water mark: traces `base()..seen()` are folded in.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// First retained global id this view's fold starts at.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Incremental-path telemetry.
    pub fn stats(&self) -> ViewStats {
        self.view_stats
    }

    /// Records one standing-query delta decision (how many predicates a
    /// watcher re-probed vs skipped after a refresh). Pure telemetry,
    /// folded into [`ViewStats`].
    pub fn record_probe_delta(&mut self, reprobed: u64, skipped: u64) {
        self.view_stats.predicates_reprobed += reprobed;
        self.view_stats.predicates_skipped += skipped;
    }

    /// Drops all incremental state and restarts the fold at the store's
    /// current base. Telemetry survives; everything else is rebuilt by the
    /// caller refolding `base..high`.
    fn reset_to(&mut self, base: usize) {
        let config = self.config.clone();
        let mut stats = self.view_stats;
        stats.resets += 1;
        *self = StoreView::new(config);
        self.base = base;
        self.seen = base;
        self.view_stats = stats;
    }

    /// Folds every store change beyond this view's high-water mark —
    /// appended traces, and evictions, which trigger a refold of the whole
    /// retained window — and republishes the analysis.
    pub fn refresh(&mut self, store: &TraceWindow) {
        if store.base() != self.base {
            // The store evicted traces this fold still incorporates (pass-1
            // folds are not invertible), so replay the retained window.
            self.reset_to(store.base());
        }
        let n = store.high();
        if n == self.seen {
            return;
        }
        self.view_stats.refreshes += 1;
        let first_new = self.seen;
        self.failed_bits.resize(n - self.base);
        // Fold pass-1 state and label the newcomers.
        for gid in first_new..n {
            let t = store.get(gid);
            if let Outcome::Failure(sig) = &t.outcome {
                *self.sig_counts.entry(sig.clone()).or_insert(0) += 1;
                self.failures.push(gid);
                self.failed_bits.insert(gid - self.base);
            } else {
                self.stats_dirty |= self.observe_success(t);
            }
        }
        self.seen = n;
        if self.failures.is_empty() {
            // No failure signature yet: extraction is undefined (matching
            // the batch pipeline, which requires at least one failed run).
            // The per-trace window rows must still stay aligned with
            // `seen`, or the first extend after this refresh mispairs
            // traces with prefixes: the catalog is necessarily empty here,
            // so each row is the empty prefix. (Found by the aid_lab
            // conformance harness: a success that leaves pass-1 statistics
            // untouched — e.g. an event-less trace — otherwise slips a
            // rowless gap past the `stats_dirty` rebuild trigger.)
            self.windows.resize(n - self.base, Vec::new());
            self.analysis = None;
            return;
        }

        let rebuilt = self.stats_dirty;
        if rebuilt {
            self.rebuild_catalog(store);
            self.stats_dirty = false;
        } else {
            self.extend_catalog(store, first_new);
        }
        self.publish(store, rebuilt);
    }

    /// Folds one successful run into pass-1 state; returns whether anything
    /// a failure scan consumes (envelopes, unique returns, stable sites,
    /// orders, collision invariants) changed.
    fn observe_success(&mut self, t: &Trace) -> bool {
        let changed = self.stats.observe(t);
        if changed || !self.config.collisions {
            return changed;
        }
        // A new success can silently disqualify an already-materialized
        // value-collision predicate (its sides must return *distinct*
        // values in every success).
        let run = self.stats.successes - 1;
        self.catalog.iter().any(|(_, p)| match &p.kind {
            PredicateKind::ValueCollision { a, b } => !matches!(
                (
                    self.stats.success_return(run, (a.method.raw(), a.instance)),
                    self.stats.success_return(run, (b.method.raw(), b.instance)),
                ),
                (Some(x), Some(y)) if x != y
            ),
            _ => false,
        })
    }

    /// Cheap path: scan only the not-yet-scanned failures into the existing
    /// catalog, then grow every trace's windows by the new catalog suffix.
    fn extend_catalog(&mut self, store: &TraceWindow, first_new: usize) {
        self.view_stats.extensions += 1;
        let old_len = self.catalog.len();
        self.scan_failures(store);
        // Old traces: extend by the new suffix (skip entirely when the
        // catalog didn't grow). New traces: evaluate the whole catalog.
        let catalog = &self.catalog;
        if catalog.len() > old_len {
            debug_assert_eq!(self.windows.len(), first_new - self.base);
            for (rel, w) in self.windows.iter_mut().enumerate() {
                self.evaluator
                    .extend(catalog, store.get(self.base + rel), w);
            }
            self.view_stats.windows_evaluated +=
                ((first_new - self.base) * (catalog.len() - old_len)) as u64;
        }
        for gid in first_new..self.seen {
            let mut w = Vec::with_capacity(catalog.len());
            self.evaluator.extend(catalog, store.get(gid), &mut w);
            self.windows.push(w);
        }
        self.view_stats.windows_evaluated += ((self.seen - first_new) * catalog.len()) as u64;
        self.sync_occurrence(old_len, first_new);
    }

    /// Expensive path: pass-1 statistics moved, so the whole failure scan
    /// (and every trace's windows) must be recomputed against them.
    fn rebuild_catalog(&mut self, store: &TraceWindow) {
        self.view_stats.rebuilds += 1;
        self.catalog = PredicateCatalog::new();
        self.scanned = 0;
        self.scan_failures(store);
        let (catalog, evaluator) = (&self.catalog, &mut self.evaluator);
        self.windows = (self.base..self.seen)
            .map(|g| {
                let mut w = Vec::with_capacity(catalog.len());
                evaluator.extend(catalog, store.get(g), &mut w);
                w
            })
            .collect();
        self.view_stats.windows_evaluated += ((self.seen - self.base) * catalog.len()) as u64;
        self.occurrence.clear();
        self.sync_occurrence(0, self.base);
    }

    /// Scans the not-yet-scanned failures into the catalog. Mirrors the
    /// batch cap semantics: the cap is checked before each failure.
    fn scan_failures(&mut self, store: &TraceWindow) {
        while self.scanned < self.failures.len() && self.catalog.len() < self.config.max_predicates
        {
            scan_failure(
                &store.get(self.failures[self.scanned]).events,
                &self.config,
                &self.stats,
                &mut self.catalog,
            );
            self.scanned += 1;
        }
    }

    /// Brings the per-predicate occurrence bitmaps in line with `windows`:
    /// bitmaps for predicates `>= from` are (re)built from every trace's
    /// windows, earlier ones only grow their universe and absorb the
    /// windows of traces `>= first_new`.
    fn sync_occurrence(&mut self, from: usize, first_new: usize) {
        let n = self.seen - self.base;
        debug_assert!(self.occurrence.len() == from);
        for occ in &mut self.occurrence {
            occ.resize(n);
        }
        while self.occurrence.len() < self.catalog.len() {
            self.occurrence.push(DenseBitSet::new(n));
        }
        if self.catalog.len() > from {
            for (rel, w) in self.windows.iter().enumerate() {
                for (p, window) in w.iter().enumerate().skip(from) {
                    if window.is_some() {
                        self.occurrence[p].insert(rel);
                    }
                }
            }
        }
        // Newly appended traces' bits for the old predicate prefix.
        for rel in (first_new - self.base)..n {
            for (p, window) in self.windows[rel].iter().enumerate().take(from) {
                if window.is_some() {
                    self.occurrence[p].insert(rel);
                }
            }
        }
    }

    /// Assembles and publishes the full analysis from incremental state.
    fn publish(&mut self, store: &TraceWindow, rebuilt: bool) {
        // Majority signature, with the batch tie-break (last maximum in
        // ascending signature order).
        let signature = self
            .sig_counts
            .iter()
            .max_by_key(|(_, c)| **c)
            .map(|(sig, _)| sig.clone())
            .expect("publish requires failures");
        let mut catalog = self.catalog.clone();
        let failure = catalog.insert(Predicate {
            kind: PredicateKind::Failure {
                signature: signature.clone(),
            },
            safe: true,
            action: None,
        });

        // Full observations over the retained window: stored catalog
        // windows plus the failure window.
        let observations: Vec<RunObservation> = (self.base..self.seen)
            .map(|gid| {
                let t = store.get(gid);
                let mut w = self.windows[gid - self.base].clone();
                w.push(match &t.outcome {
                    Outcome::Failure(sig) if *sig == signature => Some((t.duration, t.duration)),
                    _ => None,
                });
                RunObservation::from_windows(t.failed(), w)
            })
            .collect();

        // SD scores from the occurrence bitmaps.
        let failed_runs = self.failures.len();
        let total_runs = self.seen - self.base;
        let mut scores: Vec<PredicateScore> = self
            .occurrence
            .iter()
            .map(|occ| PredicateScore {
                holds_in: occ.count(),
                holds_in_failed: occ.intersection_count(&self.failed_bits),
                failed_runs,
                total_runs,
            })
            .collect();
        let sig_holds = self.sig_counts[&signature];
        scores.push(PredicateScore {
            holds_in: sig_holds,
            holds_in_failed: sig_holds,
            failed_runs,
            total_runs,
        });
        let sd = SdReport::from_scores(scores);
        let candidates = sd.aid_candidates(&catalog, failure);

        // AC-DAG: fold incrementally when the node set is unchanged and the
        // stored windows were not recomputed; replay otherwise.
        let reusable = !rebuilt
            && self.builder.as_ref().is_some_and(|c| {
                c.candidates == candidates && c.failure == failure && c.signature == signature
            });
        if !reusable {
            self.view_stats.dag_rebuilds += 1;
            self.builder = Some(DagCache {
                candidates: candidates.clone(),
                failure,
                signature: signature.clone(),
                builder: AcDagBuilder::new(&candidates, failure),
                folded: 0,
            });
        }
        let cache = self.builder.as_mut().expect("just ensured");
        while cache.folded < self.failures.len() {
            let gid = self.failures[cache.folded];
            cache
                .builder
                .add_run(&catalog, &observations[gid - self.base], &TypeAwarePolicy);
            cache.folded += 1;
            if reusable {
                self.view_stats.dag_runs_folded += 1;
            }
        }
        let dag = cache.builder.build();

        self.analysis = Some(AidAnalysis {
            extraction: Extraction {
                catalog,
                observations,
                failure,
                signature,
            },
            sd,
            candidates,
            dag,
        });
    }
}
