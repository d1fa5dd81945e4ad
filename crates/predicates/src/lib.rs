//! Runtime predicates: extraction, evaluation, and repair metadata.
//!
//! This crate turns raw execution traces (`aid-trace`) into the paper's
//! predicate logs: for every run, which predicates held and in which time
//! window. It implements the Figure 2 taxonomy (data races, method failures,
//! timing deviations, wrong returns) extended with order violations,
//! use-after-free attribution, value collisions, and compound (conjunction)
//! predicates, and it attaches to every predicate the fault-injection action
//! that repairs it.
//!
//! Predicate *design* is orthogonal to AID (§3.2): users can insert custom
//! predicates into a [`PredicateCatalog`] as long as they provide evaluation
//! semantics — the built-in kinds cover the paper's case studies.

pub mod eval;
pub mod extract;
pub mod model;

pub use eval::{evaluate, Evaluator, RunObservation, TraceIndex};
pub use extract::{
    extract, majority_signature, scan_failure, success_stats, Extraction, ExtractionConfig,
    SuccessStats,
};
pub use model::{
    InterventionAction, MethodInstance, Predicate, PredicateCatalog, PredicateId, PredicateKind,
    PredicateTag,
};
