//! The predicate model: Figure 2's taxonomy plus compound predicates.
//!
//! A predicate is a boolean statement about one run of the program ("there
//! is a data race between `TryGetValue#0` and `GetOrAdd#0` on `_nextSlot`",
//! "`Commit#0` throws", "`Task#2` runs too slow"). Each predicate knows how
//! to evaluate itself against a trace (see [`crate::eval`]), the *time
//! window* in which it held (for temporal precedence), and how it can be
//! repaired by fault injection ([`InterventionAction`], Figure 2 column 3).
//!
//! Dynamic method executions are identified as `(method, instance)` pairs —
//! the paper's treatment of loops/repeated calls as separate predicates
//! (Section 4).

use aid_trace::{FailureSignature, MethodId, ObjectId, Time};
use aid_util::{Fnv1a, Id, IdArena};
use serde::{Deserialize, Serialize};
use std::hash::Hash;

/// Tag for predicate ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredicateTag;
/// Identifies a predicate in a [`PredicateCatalog`].
pub type PredicateId = Id<PredicateTag>;

/// A dynamic method execution: the k-th run of a static method within a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MethodInstance {
    /// The static method.
    pub method: MethodId,
    /// 0-based dynamic index within a run.
    pub instance: u32,
}

impl MethodInstance {
    /// Shorthand constructor.
    pub fn new(method: MethodId, instance: u32) -> Self {
        MethodInstance { method, instance }
    }
}

impl std::fmt::Display for MethodInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}#{}", self.method.raw(), self.instance)
    }
}

/// What a predicate asserts about a run (Figure 2 column 1/2).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PredicateKind {
    /// `a` and `b` make conflicting, unlocked, cross-thread accesses to
    /// `object`, with the conflicting write landing inside the other
    /// execution's time window.
    DataRace {
        /// One racing execution (canonically the smaller).
        a: MethodInstance,
        /// The other racing execution.
        b: MethodInstance,
        /// The object raced on.
        object: ObjectId,
    },
    /// The execution throws `kind` (uncaught at its boundary).
    MethodFails {
        /// The failing execution.
        site: MethodInstance,
        /// Exception kind.
        kind: String,
    },
    /// Duration exceeds the maximum seen in any successful run.
    RunsTooSlow {
        /// The slow execution.
        site: MethodInstance,
        /// Max duration among successful runs (the threshold).
        threshold: Time,
    },
    /// Duration is below the minimum seen in any successful run.
    RunsTooFast {
        /// The fast execution.
        site: MethodInstance,
        /// Min duration among successful runs (the threshold).
        threshold: Time,
    },
    /// Return value differs from the unique value seen in successful runs.
    WrongReturn {
        /// The misbehaving execution.
        site: MethodInstance,
        /// The value every successful run returned.
        expected: i64,
    },
    /// In every successful run `first` ends before `second` starts; this
    /// predicate holds when that order is violated. When `object` is set the
    /// violation is a use-after-free on that object (the "use" is `first`,
    /// the "free" is `second`).
    OrderViolation {
        /// Execution that should finish first.
        first: MethodInstance,
        /// Execution that should start after `first` ends.
        second: MethodInstance,
        /// Object linking the pair (use-after-free flavour), if any.
        object: Option<ObjectId>,
    },
    /// Two executions return the same value where successful runs return
    /// distinct values (e.g. two components drawing the same "random" id).
    ValueCollision {
        /// One execution.
        a: MethodInstance,
        /// The other execution.
        b: MethodInstance,
    },
    /// Conjunction of two predicates (compound predicate, §3.2): models
    /// root causes that only fire when two conditions co-occur.
    Conjunction {
        /// First conjunct (must have a smaller id).
        lhs: PredicateId,
        /// Second conjunct (must have a smaller id).
        rhs: PredicateId,
    },
    /// The failure indicator F: the run ended with this signature.
    Failure {
        /// The grouped failure signature.
        signature: FailureSignature,
    },
}

/// How fault injection repairs a predicate (Figure 2 column 3), in the
/// neutral vocabulary shared by executors. `aid-sim` converts these to
/// concrete machine interventions.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterventionAction {
    /// Put a lock around both methods' bodies.
    Serialize {
        /// First racing method.
        a: MethodId,
        /// Second racing method.
        b: MethodId,
    },
    /// Wrap the execution in a try/catch.
    Catch {
        /// Target execution.
        site: MethodInstance,
    },
    /// Insert delay before the method returns (repairs "runs too fast").
    SlowDown {
        /// Target execution.
        site: MethodInstance,
        /// How much delay to insert.
        ticks: Time,
    },
    /// Return the successful-run value immediately (repairs "runs too slow"
    /// for pure methods).
    PrematureReturn {
        /// Target execution.
        site: MethodInstance,
        /// Value returned in successful runs.
        value: i64,
    },
    /// Suppress transient-fault handling delays (repairs "runs too slow"
    /// for impure methods whose slowness is fault-induced).
    SuppressFlaky {
        /// Target execution.
        site: MethodInstance,
    },
    /// Alter the return value to the successful-run value.
    ForceReturn {
        /// Target execution.
        site: MethodInstance,
        /// Correct value.
        value: i64,
    },
    /// Hold back `second` until `first` has completed.
    ForceOrder {
        /// Must complete first.
        first: MethodInstance,
        /// Held back.
        second: MethodInstance,
    },
    /// Force an application-level random draw to a fixed value (repairs
    /// random misbehaviour at a single site).
    ForceRand {
        /// Target execution.
        site: MethodInstance,
        /// Forced value.
        value: i64,
    },
    /// Pin two random draws to known-distinct values (repairs value
    /// collisions deterministically; pinning only one side would leave a
    /// residual collision probability).
    ForceRandPair {
        /// First draw site.
        a: MethodInstance,
        /// Value for the first site.
        a_value: i64,
        /// Second draw site.
        b: MethodInstance,
        /// Value for the second site (≠ `a_value`).
        b_value: i64,
    },
    /// Repair a conjunction by repairing one conjunct.
    Either {
        /// Preferred conjunct's action.
        primary: Box<InterventionAction>,
        /// Fallback conjunct's action.
        secondary: Box<InterventionAction>,
    },
}

/// A predicate plus its repair metadata.
#[derive(Clone, Debug, PartialEq, Hash, Serialize, Deserialize)]
pub struct Predicate {
    /// What it asserts.
    pub kind: PredicateKind,
    /// Whether intervening on it is free of side effects (§3.3). Unsafe
    /// predicates are removed before the AC-DAG is built.
    pub safe: bool,
    /// How to repair it (`None` when no mechanism exists).
    pub action: Option<InterventionAction>,
}

/// An interned, deduplicated set of predicates. Ids are dense and assigned
/// in first-insertion order, which extraction keeps deterministic.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PredicateCatalog {
    arena: IdArena<PredicateKind, PredicateTag>,
    meta: Vec<Predicate>,
}

impl PredicateCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or finds) a predicate; metadata from the first insertion
    /// wins.
    pub fn insert(&mut self, p: Predicate) -> PredicateId {
        let id = self.arena.intern(p.kind.clone());
        if id.index() == self.meta.len() {
            self.meta.push(p);
        }
        id
    }

    /// Looks up a predicate id by kind.
    pub fn find(&self, kind: &PredicateKind) -> Option<PredicateId> {
        self.arena.get(kind)
    }

    /// Resolves an id.
    pub fn get(&self, id: PredicateId) -> &Predicate {
        &self.meta[id.index()]
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// A structural fingerprint of the catalog: every entry's kind, `safe`
    /// flag and action, in id order, through FNV-1a. Predicate ids name
    /// catalog entries, so two catalogs with equal fingerprints give every
    /// id the same meaning. The interning arena is derived from the
    /// entries, so it adds nothing and is skipped.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.meta.hash(&mut h);
        h.finish()
    }

    /// Iterates `(id, predicate)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PredicateId, &Predicate)> {
        self.meta
            .iter()
            .enumerate()
            .map(|(i, p)| (PredicateId::from_raw(i as u32), p))
    }

    /// Adds a conjunction of two existing predicates (compound predicate).
    /// The compound is safe iff intervening on either conjunct is safe; its
    /// action repairs the preferred intervenable conjunct.
    pub fn conjoin(&mut self, lhs: PredicateId, rhs: PredicateId) -> PredicateId {
        assert!(lhs.index() < self.meta.len() && rhs.index() < self.meta.len());
        let (lo, hi) = if lhs <= rhs { (lhs, rhs) } else { (rhs, lhs) };
        let l = self.get(lo).clone();
        let r = self.get(hi).clone();
        let action = match (l.action.clone(), r.action.clone()) {
            (Some(a), Some(b)) => Some(InterventionAction::Either {
                primary: Box::new(a),
                secondary: Box::new(b),
            }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        };
        self.insert(Predicate {
            kind: PredicateKind::Conjunction { lhs: lo, rhs: hi },
            safe: (l.safe && l.action.is_some()) || (r.safe && r.action.is_some()),
            action,
        })
    }

    /// Renders a predicate for humans, resolving names through the trace
    /// set's arenas.
    pub fn describe(&self, id: PredicateId, set: &aid_trace::TraceSet) -> String {
        let mname = |mi: &MethodInstance| format!("{}#{}", set.method_name(mi.method), mi.instance);
        match &self.get(id).kind {
            PredicateKind::DataRace { a, b, object } => format!(
                "data race between {} and {} on {}",
                mname(a),
                mname(b),
                set.object_name(*object)
            ),
            PredicateKind::MethodFails { site, kind } => {
                format!("{} throws {}", mname(site), kind)
            }
            PredicateKind::RunsTooSlow { site, threshold } => {
                format!("{} runs too slow (> {} ticks)", mname(site), threshold)
            }
            PredicateKind::RunsTooFast { site, threshold } => {
                format!("{} runs too fast (< {} ticks)", mname(site), threshold)
            }
            PredicateKind::WrongReturn { site, expected } => {
                format!("{} returns a value != {}", mname(site), expected)
            }
            PredicateKind::OrderViolation {
                first,
                second,
                object,
            } => match object {
                Some(o) => format!(
                    "use-after-free on {}: {} no longer precedes {}",
                    set.object_name(*o),
                    mname(first),
                    mname(second)
                ),
                None => format!("{} no longer precedes {}", mname(first), mname(second)),
            },
            PredicateKind::ValueCollision { a, b } => {
                format!("{} and {} return colliding values", mname(a), mname(b))
            }
            PredicateKind::Conjunction { lhs, rhs } => format!(
                "({}) AND ({})",
                self.describe(*lhs, set),
                self.describe(*rhs, set)
            ),
            PredicateKind::Failure { signature } => format!(
                "FAILURE {} in {}",
                signature.kind,
                set.method_name(signature.method)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mi(m: u32, i: u32) -> MethodInstance {
        MethodInstance::new(MethodId::from_raw(m), i)
    }

    #[test]
    fn catalog_dedupes_by_kind() {
        let mut c = PredicateCatalog::new();
        let p = Predicate {
            kind: PredicateKind::MethodFails {
                site: mi(0, 0),
                kind: "Boom".into(),
            },
            safe: true,
            action: None,
        };
        let a = c.insert(p.clone());
        let b = c.insert(p);
        assert_eq!(a, b);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn conjunction_combines_safety_and_actions() {
        let mut c = PredicateCatalog::new();
        let a = c.insert(Predicate {
            kind: PredicateKind::RunsTooSlow {
                site: mi(0, 0),
                threshold: 10,
            },
            safe: true,
            action: Some(InterventionAction::SuppressFlaky { site: mi(0, 0) }),
        });
        let b = c.insert(Predicate {
            kind: PredicateKind::MethodFails {
                site: mi(1, 0),
                kind: "X".into(),
            },
            safe: false,
            action: None,
        });
        let both = c.conjoin(a, b);
        let p = c.get(both);
        assert!(p.safe, "one intervenable safe conjunct suffices");
        assert!(matches!(
            p.action,
            Some(InterventionAction::SuppressFlaky { .. })
        ));
        // Conjunction is order-insensitive.
        assert_eq!(c.conjoin(b, a), both);
    }

    #[test]
    fn describe_renders_names() {
        let mut set = aid_trace::TraceSet::new();
        let m = set.method("Fetch");
        let o = set.object("cache");
        let mut c = PredicateCatalog::new();
        let id = c.insert(Predicate {
            kind: PredicateKind::DataRace {
                a: MethodInstance::new(m, 0),
                b: MethodInstance::new(m, 1),
                object: o,
            },
            safe: true,
            action: None,
        });
        let s = c.describe(id, &set);
        assert!(s.contains("Fetch#0") && s.contains("cache"), "{s}");
    }
}
