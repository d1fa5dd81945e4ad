//! Two-pass predicate extraction from a labeled trace set.
//!
//! Pass 1 computes *successful-run statistics*: which method instances are
//! stable (present in every successful run), their duration envelopes
//! `[min, max]`, their unique return values, and the pairwise temporal
//! orders that hold in every successful run. It is a fold over the
//! successes ([`SuccessStats::observe`]) shared by the batch [`extract`]
//! and incremental consumers (`aid_store`), so the two cannot disagree.
//! The fold interns each `(method, instance)` site once into a dense id;
//! every per-site statistic is an array indexed by it.
//!
//! Pass 2 walks the failed runs and materializes a predicate for every
//! deviation it can witness there (Figure 2's catalogue): data races, method
//! failures, too-slow/too-fast executions, wrong returns, order violations
//! (incl. use-after-free attribution), and value collisions. The failure
//! indicator F for the (majority) failure signature is added last.
//!
//! Everything is deterministic: runs are scanned in order, sites in
//! `(method, instance)` order, so predicate ids are stable across runs of
//! the pipeline.

use crate::eval::{evaluate, RunObservation};
use crate::model::{
    InterventionAction, MethodInstance, Predicate, PredicateCatalog, PredicateId, PredicateKind,
};
use aid_trace::{AccessKind, FailureSignature, MethodEvent, MethodId, Time, Trace, TraceSet};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Extraction tuning.
#[derive(Clone, Debug)]
pub struct ExtractionConfig {
    /// Methods whose return-value/premature-return interventions are safe
    /// (§3.3: developer-marked state-free methods).
    pub pure_methods: BTreeSet<MethodId>,
    /// If true, try/catch interventions are only considered safe on pure
    /// methods (the paper's strict reading); default allows them anywhere.
    pub catch_requires_pure: bool,
    /// Enable data-race predicates.
    pub data_races: bool,
    /// Enable method-failure predicates.
    pub method_fails: bool,
    /// Enable too-slow/too-fast predicates.
    pub timing: bool,
    /// Enable wrong-return predicates.
    pub wrong_return: bool,
    /// Enable order-violation predicates.
    pub order: bool,
    /// Enable value-collision predicates.
    pub collisions: bool,
    /// Safety cap on the number of materialized predicates.
    pub max_predicates: usize,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig {
            pure_methods: BTreeSet::new(),
            catch_requires_pure: false,
            data_races: true,
            method_fails: true,
            timing: true,
            wrong_return: true,
            order: true,
            collisions: true,
            max_predicates: 4096,
        }
    }
}

/// Output of extraction: the catalog, per-run observations, and the failure
/// indicator predicate.
#[derive(Clone, Debug)]
pub struct Extraction {
    /// All materialized predicates.
    pub catalog: PredicateCatalog,
    /// Per-run truth values/windows, in trace order.
    pub observations: Vec<RunObservation>,
    /// The failure predicate F.
    pub failure: PredicateId,
    /// The grouped failure signature F stands for.
    pub signature: FailureSignature,
}

/// Marks "site not executed" in per-site event-position tables.
const ABSENT: u32 = u32::MAX;

/// Statistics over the successful runs (pass 1), folded one success at a
/// time by [`SuccessStats::observe`].
///
/// Every `(method, instance)` site a success executes is interned once into
/// a dense id; the envelopes, unique returns, stability flags, all-runs
/// orders and per-success returns are arrays indexed by that id. Failure
/// scans only look sites up: a site no success executed has no statistics.
#[derive(Clone, Debug, Default)]
pub struct SuccessStats {
    /// Number of successful runs.
    pub successes: usize,
    /// Whether the all-runs temporal orders are tracked.
    track_orders: bool,
    /// Site → dense id. Sites come from uploaded traces, so the map keeps
    /// the default (collision-resistant) hasher.
    ids: HashMap<(u32, u32), u32>,
    /// Dense id → site.
    keys: Vec<(u32, u32)>,
    /// Per site: `[min, max]` duration envelope.
    duration: Vec<(Time, Time)>,
    /// Per site: the unique return value, if one exists.
    unique_return: Vec<Option<i64>>,
    /// Per site: present in every success so far.
    stable: Vec<bool>,
    /// Stable site pairs `(a, b)` with `a.end < b.start` in every success,
    /// sorted by `(site a, site b)`.
    orders: Vec<(u32, u32)>,
    /// Per success, one row over the sites interned by then: the value the
    /// site returned, `None` if it did not run or returned nothing (a later
    /// same-site event without a value shadows an earlier one).
    returns: Vec<Option<i64>>,
    /// Start of each success's row in `returns`.
    rows: Vec<usize>,
    /// Scratch: per site, the index of its last event in the trace being
    /// folded (`ABSENT` between folds).
    at: Vec<u32>,
    /// Scratch: the sites the trace being folded executed.
    ran: Vec<u32>,
}

fn key(e: &MethodEvent) -> (u32, u32) {
    (e.method.raw(), e.instance)
}

fn site_of(k: (u32, u32)) -> MethodInstance {
    MethodInstance::new(MethodId::from_raw(k.0), k.1)
}

impl SuccessStats {
    /// Empty statistics; `track_orders` enables the all-runs temporal
    /// orders that order-violation extraction consumes.
    pub fn new(track_orders: bool) -> SuccessStats {
        SuccessStats {
            track_orders,
            ..SuccessStats::default()
        }
    }

    /// The dense id of a site some success executed.
    fn id(&self, site: (u32, u32)) -> Option<u32> {
        self.ids.get(&site).copied()
    }

    /// Folds one successful run. Returns whether anything a failure scan
    /// consumes moved: an envelope widened, a unique return collapsed, the
    /// stable set or the all-runs orders changed.
    pub fn observe(&mut self, t: &Trace) -> bool {
        let first = self.successes == 0;
        self.successes += 1;
        let mut changed = false;
        for (i, e) in t.events.iter().enumerate() {
            let d = e.duration();
            let s = match self.ids.get(&key(e)) {
                Some(&s) => {
                    let s = s as usize;
                    let (lo, hi) = self.duration[s];
                    if d < lo || d > hi {
                        self.duration[s] = (lo.min(d), hi.max(d));
                        changed = true;
                    }
                    if self.unique_return[s] != e.returned {
                        changed |= self.unique_return[s].is_some();
                        self.unique_return[s] = None;
                    }
                    s
                }
                None => {
                    let s = self.keys.len();
                    self.ids.insert(key(e), s as u32);
                    self.keys.push(key(e));
                    self.duration.push((d, d));
                    self.unique_return.push(e.returned);
                    // Only the first success can make a site stable.
                    self.stable.push(first);
                    self.at.push(ABSENT);
                    changed = true;
                    s
                }
            };
            if self.at[s] == ABSENT {
                self.ran.push(s as u32);
            }
            self.at[s] = i as u32;
        }
        // Stable sites: present in every success so far.
        for (stable, &at) in self.stable.iter_mut().zip(&self.at) {
            if *stable && at == ABSENT {
                *stable = false;
                changed = true;
            }
        }
        if self.track_orders {
            changed |= self.fold_orders(t, first);
        }
        let row = self.returns.len();
        self.rows.push(row);
        self.returns.resize(row + self.keys.len(), None);
        for &s in &self.ran {
            self.returns[row + s as usize] = t.events[self.at[s as usize] as usize].returned;
        }
        for s in self.ran.drain(..) {
            self.at[s as usize] = ABSENT;
        }
        changed
    }

    /// Folds one success into the all-runs orders (its events are indexed
    /// in `at`). Returns whether the order set changed.
    fn fold_orders(&mut self, t: &Trace, first: bool) -> bool {
        let span = |s: u32| {
            let e = &t.events[self.at[s as usize] as usize];
            (e.start, e.end)
        };
        let before = self.orders.len();
        if first {
            // Every site interned so far ran in this first success.
            let n = self.keys.len() as u32;
            let mut orders = Vec::new();
            for a in 0..n {
                for b in a + 1..n {
                    let (sa, sb) = (span(a), span(b));
                    if sa.1 < sb.0 {
                        orders.push((a, b));
                    } else if sb.1 < sa.0 {
                        orders.push((b, a));
                    }
                }
            }
            let keys = &self.keys;
            orders.sort_unstable_by_key(|&(a, b)| (keys[a as usize], keys[b as usize]));
            self.orders = orders;
            !self.orders.is_empty()
        } else {
            let stable = &self.stable;
            let mut orders = std::mem::take(&mut self.orders);
            orders.retain(|&(a, b)| {
                stable[a as usize] && stable[b as usize] && span(a).1 < span(b).0
            });
            self.orders = orders;
            self.orders.len() != before
        }
    }

    /// The all-runs temporal orders: `(a, b)` is listed iff `a` and `b` are
    /// stable and `a.end < b.start` in every success, in `(a, b)` order.
    pub fn stable_orders(&self) -> Vec<((u32, u32), (u32, u32))> {
        self.orders
            .iter()
            .map(|&(a, b)| (self.keys[a as usize], self.keys[b as usize]))
            .collect()
    }

    /// What `site` returned in success number `run` (0-based, in fold
    /// order): `None` if it did not run there or returned no value.
    pub fn success_return(&self, run: usize, site: (u32, u32)) -> Option<i64> {
        self.id(site).and_then(|s| self.return_in(run, s))
    }

    fn return_in(&self, run: usize, s: u32) -> Option<i64> {
        let end = self
            .rows
            .get(run + 1)
            .copied()
            .unwrap_or(self.returns.len());
        let row = &self.returns[self.rows[run]..end];
        row.get(s as usize).copied().flatten()
    }
}

/// Computes pass-1 statistics: every success of `set` folded in trace
/// order (see [`SuccessStats::new`] for `track_orders`).
pub fn success_stats(set: &TraceSet, track_orders: bool) -> SuccessStats {
    let mut stats = SuccessStats::new(track_orders);
    for t in set.successes() {
        stats.observe(t);
    }
    stats
}

/// Pass 2 over **one** failed run: materializes every predicate the run
/// witnesses into `catalog`, given the success statistics. [`extract`]
/// calls this per failure in trace order; incremental consumers
/// (`aid_store`) call it for newly arrived failures only — catalog interning
/// is insertion-ordered, so extending an existing catalog with a new
/// failure's scan is byte-identical to re-running the batch over all of
/// them, as long as `stats` is unchanged.
pub fn scan_failure(
    events: &[MethodEvent],
    config: &ExtractionConfig,
    stats: &SuccessStats,
    catalog: &mut PredicateCatalog,
) {
    // Each event's dense site id, if some success executed the site.
    let ids: Vec<Option<u32>> = events.iter().map(|e| stats.id(key(e))).collect();
    // --- Method failures ---
    if config.method_fails {
        for e in events {
            if let Some(kind) = &e.exception {
                if !e.caught {
                    let s = site_of(key(e));
                    let pure = config.pure_methods.contains(&s.method);
                    catalog.insert(Predicate {
                        kind: PredicateKind::MethodFails {
                            site: s,
                            kind: kind.clone(),
                        },
                        safe: !config.catch_requires_pure || pure,
                        action: Some(InterventionAction::Catch { site: s }),
                    });
                }
            }
        }
    }
    // --- Timing deviations ---
    if config.timing {
        for (e, id) in events.iter().zip(&ids) {
            let Some(id) = *id else {
                continue;
            };
            let (lo, hi) = stats.duration[id as usize];
            let s = site_of(key(e));
            let d = e.duration();
            if d > hi {
                let pure = config.pure_methods.contains(&s.method);
                let action = match stats.unique_return[id as usize] {
                    Some(v) if pure => InterventionAction::PrematureReturn { site: s, value: v },
                    _ => InterventionAction::SuppressFlaky { site: s },
                };
                catalog.insert(Predicate {
                    kind: PredicateKind::RunsTooSlow {
                        site: s,
                        threshold: hi,
                    },
                    safe: true,
                    action: Some(action),
                });
            }
            if d < lo {
                catalog.insert(Predicate {
                    kind: PredicateKind::RunsTooFast {
                        site: s,
                        threshold: lo,
                    },
                    safe: true,
                    action: Some(InterventionAction::SlowDown { site: s, ticks: lo }),
                });
            }
        }
    }
    // --- Wrong returns ---
    if config.wrong_return {
        for (e, id) in events.iter().zip(&ids) {
            let Some(expected) = id.and_then(|id| stats.unique_return[id as usize]) else {
                continue;
            };
            if let Some(v) = e.returned {
                if v != expected {
                    let s = site_of(key(e));
                    let pure = config.pure_methods.contains(&s.method);
                    catalog.insert(Predicate {
                        kind: PredicateKind::WrongReturn { site: s, expected },
                        safe: pure,
                        action: pure.then_some(InterventionAction::ForceReturn {
                            site: s,
                            value: expected,
                        }),
                    });
                }
            }
        }
    }
    // --- Data races ---
    if config.data_races {
        extract_races(events, catalog);
    }
    // --- Order violations (incl. use-after-free attribution) ---
    if config.order {
        extract_order_violations(events, &ids, stats, catalog);
    }
    // --- Value collisions ---
    if config.collisions {
        extract_collisions(events, &ids, stats, catalog);
    }
}

/// Runs the full extraction.
pub fn extract(set: &TraceSet, config: &ExtractionConfig) -> Extraction {
    let stats = success_stats(set, config.order);
    let mut catalog = PredicateCatalog::new();
    let signature = majority_signature(set).expect("extraction requires at least one failed run");

    for t in set.failures() {
        if catalog.len() >= config.max_predicates {
            break;
        }
        scan_failure(&t.events, config, &stats, &mut catalog);
    }

    // The failure indicator, last.
    let failure = catalog.insert(Predicate {
        kind: PredicateKind::Failure {
            signature: signature.clone(),
        },
        safe: true,
        action: None,
    });

    let observations = set.traces.iter().map(|t| evaluate(&catalog, t)).collect();

    Extraction {
        catalog,
        observations,
        failure,
        signature,
    }
}

/// Data races in one failed run: conflicting unlocked cross-thread access
/// pairs with the write inside the other execution's window.
fn extract_races(events: &[MethodEvent], catalog: &mut PredicateCatalog) {
    // Unlocked accesses as (object, event index, access index), sorted:
    // grouped by ascending object, in trace order within an object.
    let mut accs: Vec<(u32, usize, usize)> = Vec::new();
    for (ei, e) in events.iter().enumerate() {
        for (ai, a) in e.accesses.iter().enumerate() {
            if !a.locked {
                accs.push((a.object.raw(), ei, ai));
            }
        }
    }
    accs.sort_unstable();
    let mut rest = &accs[..];
    while let Some(&(obj, _, _)) = rest.first() {
        let n = rest.iter().take_while(|a| a.0 == obj).count();
        let (group, tail) = rest.split_at(n);
        rest = tail;
        for (i, &(_, e1, a1)) in group.iter().enumerate() {
            for &(_, e2, a2) in &group[i + 1..] {
                if e1 == e2 {
                    continue;
                }
                let (ev1, ev2) = (&events[e1], &events[e2]);
                if ev1.thread == ev2.thread {
                    continue;
                }
                let (x, y) = (&ev1.accesses[a1], &ev2.accesses[a2]);
                let conflicting = x.kind == AccessKind::Write || y.kind == AccessKind::Write;
                if !conflicting {
                    continue;
                }
                let write_in_window =
                    (x.kind == AccessKind::Write && ev2.start <= x.at && x.at <= ev2.end)
                        || (y.kind == AccessKind::Write && ev1.start <= y.at && y.at <= ev1.end);
                if !write_in_window {
                    continue;
                }
                let (sa, sb) = {
                    let s1 = site_of(key(ev1));
                    let s2 = site_of(key(ev2));
                    if (s1.method, s1.instance) <= (s2.method, s2.instance) {
                        (s1, s2)
                    } else {
                        (s2, s1)
                    }
                };
                catalog.insert(Predicate {
                    kind: PredicateKind::DataRace {
                        a: sa,
                        b: sb,
                        object: aid_trace::ObjectId::from_raw(obj),
                    },
                    safe: true,
                    action: Some(InterventionAction::Serialize {
                        a: sa.method,
                        b: sb.method,
                    }),
                });
            }
        }
    }
}

/// Order violations in one failed run: all-runs orders `(a, b)` where `b`
/// no longer starts strictly after `a` ends. The object both executions
/// touched (the smallest such id) attributes use-after-free shapes.
fn extract_order_violations(
    events: &[MethodEvent],
    ids: &[Option<u32>],
    stats: &SuccessStats,
    catalog: &mut PredicateCatalog,
) {
    // Per site, the last event that executed it.
    let mut at = vec![ABSENT; stats.keys.len()];
    for (i, id) in ids.iter().enumerate() {
        if let Some(id) = id {
            at[*id as usize] = i as u32;
        }
    }
    for &(a, b) in &stats.orders {
        let (ia, ib) = (at[a as usize], at[b as usize]);
        if ia == ABSENT || ib == ABSENT {
            continue;
        }
        let (ea, eb) = (&events[ia as usize], &events[ib as usize]);
        if ea.end < eb.start {
            continue;
        }
        let common = ea
            .accesses
            .iter()
            .map(|x| x.object)
            .filter(|&o| eb.accesses.iter().any(|y| y.object == o))
            .min();
        let (first, second) = (
            site_of(stats.keys[a as usize]),
            site_of(stats.keys[b as usize]),
        );
        catalog.insert(Predicate {
            kind: PredicateKind::OrderViolation {
                first,
                second,
                object: common,
            },
            safe: true,
            action: Some(InterventionAction::ForceOrder { first, second }),
        });
    }
}

/// Value collisions in one failed run: stable sites whose returns are equal
/// here but distinct in every successful run (consulted through the
/// per-success return rows of `stats`).
fn extract_collisions(
    events: &[MethodEvent],
    ids: &[Option<u32>],
    stats: &SuccessStats,
    catalog: &mut PredicateCatalog,
) {
    let returners: Vec<(&MethodEvent, u32)> = events
        .iter()
        .zip(ids)
        .filter_map(|(e, id)| match id {
            Some(id) if e.returned.is_some() && stats.stable[*id as usize] => Some((e, *id)),
            _ => None,
        })
        .collect();
    for (i, &(ea, ia)) in returners.iter().enumerate() {
        for &(eb, ib) in &returners[i + 1..] {
            if ea.returned != eb.returned {
                continue;
            }
            let distinct_in =
                |run: usize| match (stats.return_in(run, ia), stats.return_in(run, ib)) {
                    (Some(x), Some(y)) if x != y => Some((x, y)),
                    _ => None,
                };
            // Distinct in every success?
            if !(0..stats.successes).all(|run| distinct_in(run).is_some()) {
                continue;
            }
            // Repair: pin BOTH draws to the (distinct) values of one
            // successful run; pinning one side would leave a residual
            // collision probability.
            let repair_values = (0..stats.successes).find_map(distinct_in);
            let (sa, sb) = (site_of(key(ea)), site_of(key(eb)));
            catalog.insert(Predicate {
                kind: PredicateKind::ValueCollision { a: sa, b: sb },
                safe: true,
                action: repair_values.map(|(a_value, b_value)| InterventionAction::ForceRandPair {
                    a: sa,
                    a_value,
                    b: sb,
                    b_value,
                }),
            });
        }
    }
}

/// The most common failure signature in the set (ties broken by order).
pub fn majority_signature(set: &TraceSet) -> Option<FailureSignature> {
    let mut counts: BTreeMap<FailureSignature, usize> = BTreeMap::new();
    for t in set.failures() {
        if let aid_trace::Outcome::Failure(sig) = &t.outcome {
            *counts.entry(sig.clone()).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|(_, c)| *c)
        .map(|(sig, _)| sig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aid_trace::{Outcome, ThreadId, Trace};

    /// Builds a trace set by hand: two successes, one failure where method 1
    /// is slow, throws, and violates its order w.r.t. method 0.
    fn handmade() -> TraceSet {
        let mut set = TraceSet::new();
        let m0 = set.method("A");
        let m1 = set.method("B");
        let mk = |start: Time, end: Time, m: aid_trace::MethodId, ret: Option<i64>| MethodEvent {
            method: m,
            instance: 0,
            thread: ThreadId::from_raw(m.raw()),
            start,
            end,
            accesses: vec![],
            returned: ret,
            exception: None,
            caught: false,
        };
        for seed in 0..2 {
            let mut t = Trace {
                seed,
                events: vec![mk(0, 10, m0, Some(1)), mk(20, 30, m1, Some(2))],
                msgs: vec![],
                outcome: Outcome::Success,
                duration: 40,
            };
            t.normalize();
            set.push(t);
        }
        let mut bad_b = mk(5, 120, m1, Some(9)); // overlaps A, slow, wrong return
        bad_b.exception = Some("Crash".into());
        let mut t = Trace {
            seed: 9,
            events: vec![mk(0, 10, m0, Some(1)), bad_b],
            msgs: vec![],
            outcome: Outcome::Failure(FailureSignature {
                kind: "Crash".into(),
                method: m1,
            }),
            duration: 130,
        };
        t.normalize();
        set.push(t);
        set
    }

    #[test]
    fn extraction_materializes_expected_kinds() {
        let set = handmade();
        let ex = extract(&set, &ExtractionConfig::default());
        let kinds: Vec<_> = ex.catalog.iter().map(|(_, p)| &p.kind).collect();
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, PredicateKind::MethodFails { .. })),
            "{kinds:?}"
        );
        assert!(kinds
            .iter()
            .any(|k| matches!(k, PredicateKind::RunsTooSlow { .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, PredicateKind::WrongReturn { .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, PredicateKind::OrderViolation { .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, PredicateKind::Failure { .. })));
        // Observations: failure predicate true exactly in the failed run.
        assert_eq!(ex.observations.len(), 3);
        assert!(!ex.observations[0].holds(ex.failure));
        assert!(!ex.observations[1].holds(ex.failure));
        assert!(ex.observations[2].holds(ex.failure));
    }

    #[test]
    fn stable_orders_require_consistency() {
        let set = handmade();
        let stats = success_stats(&set, true);
        assert_eq!(stats.successes, 2);
        let orders = stats.stable_orders();
        assert!(
            orders.contains(&((0, 0), (1, 0))),
            "A before B in all successes"
        );
    }

    #[test]
    fn wrong_return_unsafe_without_purity() {
        let set = handmade();
        let ex = extract(&set, &ExtractionConfig::default());
        let (_, p) = ex
            .catalog
            .iter()
            .find(|(_, p)| matches!(p.kind, PredicateKind::WrongReturn { .. }))
            .unwrap();
        assert!(!p.safe, "impure wrong-return interventions are unsafe");
        assert!(p.action.is_none());

        let mut cfg = ExtractionConfig::default();
        cfg.pure_methods.insert(MethodId::from_raw(1));
        let ex2 = extract(&set, &cfg);
        let (_, p2) = ex2
            .catalog
            .iter()
            .find(|(_, p)| matches!(p.kind, PredicateKind::WrongReturn { .. }))
            .unwrap();
        assert!(p2.safe);
        assert!(matches!(
            p2.action,
            Some(InterventionAction::ForceReturn { value: 2, .. })
        ));
    }

    #[test]
    fn majority_signature_picks_most_common() {
        let mut set = handmade();
        // Add two failures with a different signature: they win 2:1 against
        // the existing one? No — existing has 1, new has 2.
        let m0 = MethodId::from_raw(0);
        for seed in 100..102 {
            set.push(Trace {
                seed,
                events: vec![],
                msgs: vec![],
                outcome: Outcome::Failure(FailureSignature {
                    kind: "Other".into(),
                    method: m0,
                }),
                duration: 1,
            });
        }
        let sig = majority_signature(&set).unwrap();
        assert_eq!(sig.kind, "Other");
    }
}
