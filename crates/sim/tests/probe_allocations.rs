//! A warm probe allocates only its result bitset.
//!
//! This binary installs a counting global allocator that tallies
//! allocations per thread, so tests running in parallel do not disturb one
//! another's counts. A probe here is what an intervention run costs the
//! engine: `Simulator::try_run_with` on the bytecode backend, evaluating
//! the lent trace through a reusable `Evaluator`. After one warm-up run on
//! the thread, the VM's arenas, the reclaimed trace buffers and the
//! evaluation scratch are all sized, so each further probe of a program
//! that throws nothing may allocate exactly one block: the bitset it
//! returns.

use aid_predicates::{Evaluator, MethodInstance, Predicate, PredicateCatalog, PredicateKind};
use aid_sim::{
    Backend, Cmp, Expr, InstanceFilter, Intervention, InterventionPlan, ProgramBuilder, Reg,
    Simulator,
};
use aid_trace::{FailureSignature, MethodId, ObjectId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also serves thread teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Two workers race on shared objects while the main thread calls a pure
/// getter twice: every run has the same calls, accesses and returns, and
/// only their timing varies with the seed. Nothing throws.
fn program() -> aid_sim::Program {
    let mut b = ProgramBuilder::new("probe");
    let x = b.object("x", 0);
    let y = b.object("y", 5);
    let reader = b.method("Reader", |m| {
        m.read(x, Reg(0)).jitter(2, 20).read(y, Reg(1)).compute(3);
    });
    let writer = b.method("Writer", |m| {
        m.jitter(1, 15)
            .write(x, Expr::Const(7))
            .write(y, Expr::Reg(Reg(0)));
    });
    let getter = b.pure_method("Get", |m| {
        m.set(Reg(2), Expr::Const(4)).ret(Expr::Reg(Reg(2)));
    });
    let main = b.method("Main", |m| {
        m.spawn_named("r")
            .spawn_named("w")
            .call(getter)
            .call(getter)
            .join(1)
            .join(2)
            .wait_until(Expr::Obj(x), Cmp::Eq, Expr::Const(7));
    });
    b.thread("main", main, true);
    b.thread("r", reader, false);
    b.thread("w", writer, false);
    b.build()
}

/// A catalog touching every evaluation branch that reads events.
fn catalog() -> PredicateCatalog {
    let site = |m: u32, i: u32| MethodInstance::new(MethodId::from_raw(m), i);
    let (reader, writer, getter) = (site(0, 0), site(1, 0), site(2, 0));
    let mut c = PredicateCatalog::new();
    let mut add = |kind| {
        c.insert(Predicate {
            kind,
            safe: true,
            action: None,
        })
    };
    let race = add(PredicateKind::DataRace {
        a: reader,
        b: writer,
        object: ObjectId::from_raw(0),
    });
    let slow = add(PredicateKind::RunsTooSlow {
        site: reader,
        threshold: 10,
    });
    add(PredicateKind::RunsTooFast {
        site: writer,
        threshold: 12,
    });
    add(PredicateKind::WrongReturn {
        site: getter,
        expected: 3,
    });
    add(PredicateKind::OrderViolation {
        first: writer,
        second: reader,
        object: None,
    });
    add(PredicateKind::ValueCollision {
        a: getter,
        b: site(2, 1),
    });
    add(PredicateKind::MethodFails {
        site: reader,
        kind: "Boom".into(),
    });
    add(PredicateKind::Failure {
        signature: FailureSignature {
            kind: "Boom".into(),
            method: MethodId::from_raw(0),
        },
    });
    c.conjoin(race, slow);
    c
}

#[test]
fn a_warm_probe_allocates_only_its_bitset() {
    let sim = Simulator::new(program()).with_backend(Backend::Bytecode);
    let catalog = catalog();
    let plans = [
        InterventionPlan::empty(),
        InterventionPlan::single(Intervention::DelayEnd {
            method: MethodId::from_raw(1),
            instance: InstanceFilter::All,
            ticks: 6,
        }),
    ];
    let mut evaluator = Evaluator::default();
    let mut probe = |seed: u64, plan: &InterventionPlan| {
        sim.try_run_with(seed, plan, |trace| {
            assert!(trace.events.iter().all(|e| e.exception.is_none()));
            evaluator.observed(&catalog, trace)
        })
        .expect("no trap")
    };
    // Warm-up: builds the backend, sizes the thread's VM and the scratch.
    for plan in &plans {
        probe(0, plan);
    }
    let mut held = 0usize;
    for seed in 1..200u64 {
        for plan in &plans {
            let before = allocations();
            let observed = probe(seed, plan);
            let spent = allocations() - before;
            assert!(
                spent <= 1,
                "seed {seed}, plan {plan:?}: {spent} allocations (only the bitset may allocate)"
            );
            held += observed.count();
        }
    }
    assert!(held > 0, "some predicate holds in some probe");
}
