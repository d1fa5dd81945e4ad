//! Evaluating a predicate catalog against a single trace.
//!
//! This is the *only* place predicate truth is decided: the extractor uses
//! it to build the initial observation matrix, and executors reuse it on
//! intervention runs, so "P was observed in run r" means exactly the same
//! thing in both phases.

use crate::model::{MethodInstance, PredicateCatalog, PredicateId, PredicateKind};
use aid_trace::{AccessKind, MethodEvent, Outcome, Time, Trace};
use aid_util::DenseBitSet;

/// Truth values plus observation windows for every catalog predicate in one
/// run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunObservation {
    /// Whether the run failed (with any signature).
    pub failed: bool,
    /// Which predicates held.
    pub observed: DenseBitSet,
    /// For each held predicate, the `[lo, hi]` window in which it held.
    pub windows: Vec<Option<(Time, Time)>>,
}

impl RunObservation {
    /// Whether predicate `p` held in this run.
    pub fn holds(&self, p: PredicateId) -> bool {
        self.observed.contains(p.index())
    }

    /// Assembles an observation from per-predicate windows (the truth bitset
    /// is exactly "the window exists"). [`evaluate`] and incremental
    /// re-evaluators (`aid_store`) share this so the two can never disagree
    /// about what "observed" means.
    pub fn from_windows(failed: bool, windows: Vec<Option<(Time, Time)>>) -> RunObservation {
        let mut observed = DenseBitSet::new(windows.len());
        for (i, w) in windows.iter().enumerate() {
            if w.is_some() {
                observed.insert(i);
            }
        }
        RunObservation {
            failed,
            observed,
            windows,
        }
    }
}

/// Fast lookup of a trace's events by `(method, instance)`: the events
/// sorted by site, searched by bisection. When a site occurs more than
/// once, the last such event in trace order wins.
pub struct TraceIndex<'t> {
    by_site: Vec<((u32, u32), &'t MethodEvent)>,
}

impl<'t> TraceIndex<'t> {
    /// Builds the index.
    pub fn new(trace: &'t Trace) -> Self {
        let mut by_site: Vec<_> = trace
            .events
            .iter()
            .map(|e| ((e.method.raw(), e.instance), e))
            .collect();
        // Stable, so events sharing a site keep their trace order.
        by_site.sort_by_key(|&(site, _)| site);
        TraceIndex { by_site }
    }

    /// The event for a method instance, if it occurred.
    pub fn event(&self, site: &MethodInstance) -> Option<&'t MethodEvent> {
        let key = (site.method.raw(), site.instance);
        let end = self.by_site.partition_point(|&(s, _)| s <= key);
        match end.checked_sub(1).map(|i| self.by_site[i]) {
            Some((s, e)) if s == key => Some(e),
            _ => None,
        }
    }
}

/// Evaluates every predicate in `catalog` against `trace`.
pub fn evaluate(catalog: &PredicateCatalog, trace: &Trace) -> RunObservation {
    let mut windows: Vec<Option<(Time, Time)>> = Vec::with_capacity(catalog.len());
    evaluate_extend(catalog, trace, &mut windows);
    RunObservation::from_windows(trace.outcome.is_failure(), windows)
}

/// Extends `windows` — whose length marks how many catalog predicates are
/// already evaluated for `trace` — with the windows of every remaining
/// predicate, in id order. Incremental consumers append new catalog entries
/// and call this per stored trace instead of re-evaluating the full catalog;
/// [`evaluate`] itself is `evaluate_extend` from an empty prefix, so the two
/// paths are identical by construction.
pub fn evaluate_extend(
    catalog: &PredicateCatalog,
    trace: &Trace,
    windows: &mut Vec<Option<(Time, Time)>>,
) {
    debug_assert!(windows.len() <= catalog.len(), "windows beyond catalog");
    if windows.len() == catalog.len() {
        return;
    }
    let idx = TraceIndex::new(trace);
    for i in windows.len()..catalog.len() {
        let pred = catalog.get(crate::model::PredicateId::from_raw(i as u32));
        let window = match &pred.kind {
            PredicateKind::DataRace { a, b, object } => match (idx.event(a), idx.event(b)) {
                (Some(ea), Some(eb)) => data_race_witness(ea, eb, object.raw()),
                _ => None,
            },
            PredicateKind::MethodFails { site, kind } => idx.event(site).and_then(|e| {
                (e.exception.as_deref() == Some(kind.as_str()) && !e.caught)
                    .then_some((e.start, e.end))
            }),
            PredicateKind::RunsTooSlow { site, threshold } => idx
                .event(site)
                .and_then(|e| (e.duration() > *threshold).then_some((e.start, e.end))),
            PredicateKind::RunsTooFast { site, threshold } => idx
                .event(site)
                .and_then(|e| (e.duration() < *threshold).then_some((e.start, e.end))),
            PredicateKind::WrongReturn { site, expected } => {
                idx.event(site).and_then(|e| match e.returned {
                    Some(v) if v != *expected => Some((e.start, e.end)),
                    _ => None,
                })
            }
            PredicateKind::OrderViolation { first, second, .. } => {
                match (idx.event(first), idx.event(second)) {
                    (Some(ef), Some(es)) if ef.end >= es.start => {
                        Some((es.start.min(ef.end), ef.end.max(es.start)))
                    }
                    _ => None,
                }
            }
            PredicateKind::ValueCollision { a, b } => match (idx.event(a), idx.event(b)) {
                (Some(ea), Some(eb)) => match (ea.returned, eb.returned) {
                    (Some(x), Some(y)) if x == y => {
                        let at = ea.end.max(eb.end);
                        Some((at, at))
                    }
                    _ => None,
                },
                _ => None,
            },
            PredicateKind::Conjunction { lhs, rhs } => {
                // Conjunct ids are smaller, so their entries are final.
                match (windows[lhs.index()], windows[rhs.index()]) {
                    (Some((l0, l1)), Some((r0, r1))) => Some((l0.min(r0), l1.max(r1))),
                    _ => None,
                }
            }
            PredicateKind::Failure { signature } => match &trace.outcome {
                Outcome::Failure(sig) if sig == signature => Some((trace.duration, trace.duration)),
                _ => None,
            },
        };
        windows.push(window);
    }
}

/// A data race witness: a conflicting, unlocked, cross-thread access pair on
/// `object` where the write lands inside the other execution's window.
/// Returns the access-pair window.
fn data_race_witness(ea: &MethodEvent, eb: &MethodEvent, object: u32) -> Option<(Time, Time)> {
    if ea.thread == eb.thread {
        return None;
    }
    for x in ea
        .accesses
        .iter()
        .filter(|a| a.object.raw() == object && !a.locked)
    {
        for y in eb
            .accesses
            .iter()
            .filter(|a| a.object.raw() == object && !a.locked)
        {
            let conflicting = x.kind == AccessKind::Write || y.kind == AccessKind::Write;
            if !conflicting {
                continue;
            }
            let write_in_window =
                (x.kind == AccessKind::Write && eb.start <= x.at && x.at <= eb.end)
                    || (y.kind == AccessKind::Write && ea.start <= y.at && y.at <= ea.end);
            if write_in_window {
                return Some((x.at.min(y.at), x.at.max(y.at)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Predicate, PredicateCatalog};
    use aid_trace::{AccessEvent, FailureSignature, MethodId, ThreadId};

    fn event(m: u32, inst: u32, th: u32, start: Time, end: Time) -> MethodEvent {
        MethodEvent {
            method: MethodId::from_raw(m),
            instance: inst,
            thread: ThreadId::from_raw(th),
            start,
            end,
            accesses: vec![],
            returned: None,
            exception: None,
            caught: false,
        }
    }

    fn trace(events: Vec<MethodEvent>, failed: bool) -> Trace {
        let outcome = if failed {
            Outcome::Failure(FailureSignature {
                kind: "Boom".into(),
                method: MethodId::from_raw(0),
            })
        } else {
            Outcome::Success
        };
        Trace {
            seed: 0,
            events,
            msgs: vec![],
            outcome,
            duration: 1000,
        }
    }

    fn site(m: u32, i: u32) -> MethodInstance {
        MethodInstance::new(MethodId::from_raw(m), i)
    }

    fn insert(c: &mut PredicateCatalog, kind: PredicateKind) -> PredicateId {
        c.insert(Predicate {
            kind,
            safe: true,
            action: None,
        })
    }

    #[test]
    fn trace_index_finds_sites_and_keeps_the_last_duplicate() {
        let mut first = event(2, 0, 0, 10, 20);
        first.returned = Some(1);
        let mut last = event(2, 0, 1, 30, 40);
        last.returned = Some(2);
        let t = trace(
            vec![event(5, 1, 0, 0, 5), first, event(0, 3, 0, 6, 9), last],
            false,
        );
        let idx = TraceIndex::new(&t);
        assert_eq!(idx.event(&site(5, 1)).map(|e| e.start), Some(0));
        assert_eq!(idx.event(&site(0, 3)).map(|e| e.start), Some(6));
        assert_eq!(
            idx.event(&site(2, 0)).and_then(|e| e.returned),
            Some(2),
            "the later of two events at one site wins"
        );
        for absent in [site(0, 0), site(2, 1), site(3, 0), site(9, 9)] {
            assert!(idx.event(&absent).is_none(), "{absent} never ran");
        }
        assert!(TraceIndex::new(&trace(vec![], false))
            .event(&site(0, 0))
            .is_none());
    }

    #[test]
    fn slow_fast_and_wrong_return() {
        let mut c = PredicateCatalog::new();
        let slow = insert(
            &mut c,
            PredicateKind::RunsTooSlow {
                site: site(0, 0),
                threshold: 50,
            },
        );
        let fast = insert(
            &mut c,
            PredicateKind::RunsTooFast {
                site: site(0, 0),
                threshold: 10,
            },
        );
        let wrong = insert(
            &mut c,
            PredicateKind::WrongReturn {
                site: site(0, 0),
                expected: 7,
            },
        );
        let mut e = event(0, 0, 0, 100, 200); // duration 100 > 50
        e.returned = Some(9);
        let obs = evaluate(&c, &trace(vec![e], false));
        assert!(obs.holds(slow));
        assert!(!obs.holds(fast));
        assert!(obs.holds(wrong));
        assert_eq!(obs.windows[slow.index()], Some((100, 200)));
    }

    #[test]
    fn order_violation_holds_only_when_inverted() {
        let mut c = PredicateCatalog::new();
        let p = insert(
            &mut c,
            PredicateKind::OrderViolation {
                first: site(0, 0),
                second: site(1, 0),
                object: None,
            },
        );
        // first ends (20) before second starts (30): expected order, no hold.
        let ok = trace(vec![event(0, 0, 0, 10, 20), event(1, 0, 1, 30, 40)], false);
        assert!(!evaluate(&c, &ok).holds(p));
        // second starts (15) before first ends (20): violation.
        let bad = trace(vec![event(0, 0, 0, 10, 20), event(1, 0, 1, 15, 40)], true);
        let obs = evaluate(&c, &bad);
        assert!(obs.holds(p));
        assert_eq!(obs.windows[p.index()], Some((15, 20)));
    }

    #[test]
    fn data_race_requires_unlocked_write_in_window() {
        let mut c = PredicateCatalog::new();
        let p = insert(
            &mut c,
            PredicateKind::DataRace {
                a: site(0, 0),
                b: site(1, 0),
                object: aid_trace::ObjectId::from_raw(5),
            },
        );
        let mut reader = event(0, 0, 0, 10, 50);
        reader.accesses.push(AccessEvent {
            object: aid_trace::ObjectId::from_raw(5),
            kind: AccessKind::Read,
            at: 45,
            locked: false,
        });
        let mut writer = event(1, 0, 1, 20, 30);
        writer.accesses.push(AccessEvent {
            object: aid_trace::ObjectId::from_raw(5),
            kind: AccessKind::Write,
            at: 25,
            locked: false,
        });
        let obs = evaluate(&c, &trace(vec![reader.clone(), writer.clone()], true));
        assert!(obs.holds(p), "write at 25 inside reader window [10,50]");

        // Locked accesses do not race.
        writer.accesses[0].locked = true;
        let obs = evaluate(&c, &trace(vec![reader.clone(), writer.clone()], true));
        assert!(!obs.holds(p));

        // A write outside the other window does not race.
        writer.accesses[0].locked = false;
        writer.start = 60;
        writer.end = 70;
        writer.accesses[0].at = 65;
        let obs = evaluate(&c, &trace(vec![reader, writer], true));
        assert!(!obs.holds(p));
    }

    #[test]
    fn conjunction_and_failure() {
        let mut c = PredicateCatalog::new();
        let a = insert(
            &mut c,
            PredicateKind::RunsTooSlow {
                site: site(0, 0),
                threshold: 5,
            },
        );
        let b = insert(
            &mut c,
            PredicateKind::MethodFails {
                site: site(1, 0),
                kind: "Boom".into(),
            },
        );
        let both = c.conjoin(a, b);
        let f = insert(
            &mut c,
            PredicateKind::Failure {
                signature: FailureSignature {
                    kind: "Boom".into(),
                    method: MethodId::from_raw(0),
                },
            },
        );
        let mut e1 = event(0, 0, 0, 0, 100);
        let mut e2 = event(1, 0, 1, 50, 60);
        e2.exception = Some("Boom".into());
        let obs = evaluate(&c, &trace(vec![e1.clone(), e2], true));
        assert!(obs.holds(both));
        assert!(obs.holds(f));
        assert_eq!(obs.windows[both.index()], Some((0, 100)));

        // Drop one conjunct: the conjunction no longer holds.
        e1.end = 3; // not slow
        let e2ok = event(1, 0, 1, 50, 60);
        let obs = evaluate(&c, &trace(vec![e1, e2ok], false));
        assert!(!obs.holds(both));
        assert!(!obs.holds(f), "successful run has no failure predicate");
    }
}
