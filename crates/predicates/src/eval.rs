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
        RunObservation {
            failed,
            observed: observed_of(&windows),
            windows,
        }
    }
}

/// The truth bitset of a window vector: predicate `i` holds iff its window
/// exists.
fn observed_of(windows: &[Option<(Time, Time)>]) -> DenseBitSet {
    let mut observed = DenseBitSet::new(windows.len());
    for (i, w) in windows.iter().enumerate() {
        if w.is_some() {
            observed.insert(i);
        }
    }
    observed
}

/// Fast lookup of a trace's events by `(method, instance)`: the trace's
/// event positions grouped by method (a counting sort, trace order within a
/// method). When a site occurs more than once, the last such event in trace
/// order wins.
///
/// In a normalized trace ([`Trace::normalize`]) every event's instance is
/// its rank among its method's events, so a lookup is two array reads;
/// other traces fall back to scanning the method's events.
///
/// The index holds positions, not borrows, so one index can be rebuilt in
/// place for trace after trace ([`TraceIndex::rebuild`]) without
/// allocating once it has grown to the largest trace.
#[derive(Clone, Debug, Default)]
pub struct TraceIndex {
    /// Event positions grouped by method.
    by_method: Vec<u32>,
    /// `by_method[start[m]..start[m + 1]]` are method `m`'s events.
    start: Vec<u32>,
    /// Whether every event's instance is its rank within its method.
    ranked: bool,
}

impl TraceIndex {
    /// Builds the index of `trace`.
    pub fn new(trace: &Trace) -> Self {
        let mut idx = TraceIndex::default();
        idx.rebuild(trace);
        idx
    }

    /// Re-indexes for `trace`, reusing the index's storage.
    pub fn rebuild(&mut self, trace: &Trace) {
        let events = &trace.events;
        let methods = events
            .iter()
            .map(|e| e.method.index() + 1)
            .max()
            .unwrap_or(0);
        // Counts, then exclusive prefix sums: `start[m]` = first slot of `m`.
        self.start.clear();
        self.start.resize(methods + 1, 0);
        for e in events {
            self.start[e.method.index()] += 1;
        }
        let mut next = 0;
        for slot in &mut self.start {
            let count = *slot;
            *slot = next;
            next += count;
        }
        // Place each event at its method's cursor; afterwards `start[m]` has
        // advanced to the first slot of `m + 1`, so shift it back by one.
        self.by_method.clear();
        self.by_method.resize(events.len(), 0);
        for (i, e) in events.iter().enumerate() {
            let cursor = &mut self.start[e.method.index()];
            self.by_method[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        self.start.copy_within(..methods, 1);
        self.start[0] = 0;
        self.ranked = (0..methods).all(|m| {
            self.of_method(m)
                .iter()
                .enumerate()
                .all(|(rank, &e)| events[e as usize].instance as usize == rank)
        });
    }

    fn of_method(&self, m: usize) -> &[u32] {
        &self.by_method[self.start[m] as usize..self.start[m + 1] as usize]
    }

    /// The event of `trace` (the trace this index was built for) for a
    /// method instance, if it occurred.
    pub fn event<'t>(&self, trace: &'t Trace, site: &MethodInstance) -> Option<&'t MethodEvent> {
        let m = site.method.index();
        if m + 1 >= self.start.len() {
            return None;
        }
        let of_m = self.of_method(m);
        let pos = if self.ranked {
            of_m.get(site.instance as usize).copied()
        } else {
            of_m.iter()
                .rev()
                .copied()
                .find(|&e| trace.events[e as usize].instance == site.instance)
        };
        pos.map(|e| &trace.events[e as usize])
    }
}

/// Evaluates every predicate in `catalog` against `trace`.
pub fn evaluate(catalog: &PredicateCatalog, trace: &Trace) -> RunObservation {
    let mut windows: Vec<Option<(Time, Time)>> = Vec::with_capacity(catalog.len());
    Evaluator::default().extend(catalog, trace, &mut windows);
    RunObservation::from_windows(trace.outcome.is_failure(), windows)
}

/// Reusable evaluation scratch: a [`TraceIndex`] and a window buffer that
/// are rebuilt in place per trace. Callers that evaluate many traces keep
/// one (per thread) and so allocate only what they keep.
#[derive(Clone, Debug, Default)]
pub struct Evaluator {
    index: TraceIndex,
    windows: Vec<Option<(Time, Time)>>,
}

impl Evaluator {
    /// Extends `windows` — whose length marks how many catalog predicates
    /// are already evaluated for `trace` — with the windows of every
    /// remaining predicate, in id order. Incremental consumers append new
    /// catalog entries and call this per stored trace instead of
    /// re-evaluating the full catalog; [`evaluate`] is this from an empty
    /// prefix, so the two paths are identical by construction.
    pub fn extend(
        &mut self,
        catalog: &PredicateCatalog,
        trace: &Trace,
        windows: &mut Vec<Option<(Time, Time)>>,
    ) {
        debug_assert!(windows.len() <= catalog.len(), "windows beyond catalog");
        if windows.len() == catalog.len() {
            return;
        }
        self.index.rebuild(trace);
        extend_windows(catalog, trace, &self.index, windows);
    }

    /// Which catalog predicates hold in `trace`: the `observed` bitset of
    /// [`evaluate`], without materializing the windows. The bitset is the
    /// only allocation once the scratch is warm.
    pub fn observed(&mut self, catalog: &PredicateCatalog, trace: &Trace) -> DenseBitSet {
        let mut windows = std::mem::take(&mut self.windows);
        windows.clear();
        self.extend(catalog, trace, &mut windows);
        let observed = observed_of(&windows);
        self.windows = windows;
        observed
    }
}

/// The window loop shared by every evaluation entry point: decides each
/// predicate from `windows.len()` on, in id order.
fn extend_windows(
    catalog: &PredicateCatalog,
    trace: &Trace,
    idx: &TraceIndex,
    windows: &mut Vec<Option<(Time, Time)>>,
) {
    let event = |site: &MethodInstance| idx.event(trace, site);
    for i in windows.len()..catalog.len() {
        let pred = catalog.get(crate::model::PredicateId::from_raw(i as u32));
        let window = match &pred.kind {
            PredicateKind::DataRace { a, b, object } => match (event(a), event(b)) {
                (Some(ea), Some(eb)) => data_race_witness(ea, eb, object.raw()),
                _ => None,
            },
            PredicateKind::MethodFails { site, kind } => event(site).and_then(|e| {
                (e.exception.as_deref() == Some(kind.as_str()) && !e.caught)
                    .then_some((e.start, e.end))
            }),
            PredicateKind::RunsTooSlow { site, threshold } => {
                event(site).and_then(|e| (e.duration() > *threshold).then_some((e.start, e.end)))
            }
            PredicateKind::RunsTooFast { site, threshold } => {
                event(site).and_then(|e| (e.duration() < *threshold).then_some((e.start, e.end)))
            }
            PredicateKind::WrongReturn { site, expected } => {
                event(site).and_then(|e| match e.returned {
                    Some(v) if v != *expected => Some((e.start, e.end)),
                    _ => None,
                })
            }
            PredicateKind::OrderViolation { first, second, .. } => {
                match (event(first), event(second)) {
                    (Some(ef), Some(es)) if ef.end >= es.start => {
                        Some((es.start.min(ef.end), ef.end.max(es.start)))
                    }
                    _ => None,
                }
            }
            PredicateKind::ValueCollision { a, b } => match (event(a), event(b)) {
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
        assert_eq!(idx.event(&t, &site(5, 1)).map(|e| e.start), Some(0));
        assert_eq!(idx.event(&t, &site(0, 3)).map(|e| e.start), Some(6));
        assert_eq!(
            idx.event(&t, &site(2, 0)).and_then(|e| e.returned),
            Some(2),
            "the later of two events at one site wins"
        );
        for absent in [site(0, 0), site(2, 1), site(3, 0), site(9, 9)] {
            assert!(idx.event(&t, &absent).is_none(), "{absent} never ran");
        }
        let empty = trace(vec![], false);
        assert!(TraceIndex::new(&empty).event(&empty, &site(0, 0)).is_none());
    }

    #[test]
    fn trace_index_on_a_normalized_trace_finds_every_event() {
        let mut t = trace(
            vec![
                event(3, 0, 0, 50, 60),
                event(1, 0, 1, 0, 9),
                event(3, 0, 1, 10, 20),
                event(0, 0, 0, 5, 7),
                event(1, 0, 0, 30, 31),
            ],
            false,
        );
        t.normalize();
        let idx = TraceIndex::new(&t);
        for e in &t.events {
            let found = idx.event(&t, &MethodInstance::new(e.method, e.instance));
            assert_eq!(found, Some(e), "{:?}#{}", e.method, e.instance);
        }
        for absent in [site(0, 1), site(1, 2), site(2, 0), site(4, 0)] {
            assert!(idx.event(&t, &absent).is_none(), "{absent} never ran");
        }
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
