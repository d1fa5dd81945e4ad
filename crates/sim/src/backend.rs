//! The unified execution API: one [`ExecBackend`] trait, two program
//! backends (tree-walk and bytecode), and the [`Backend`] selector.
//!
//! Everything that executes a program — [`Simulator`](crate::Simulator),
//! `aid_core::Executor` impls, engine workers, server session rebuilds, the
//! live OS-thread harness — goes through this trait, so backends are
//! interchangeable at any layer. The contract:
//!
//! * A run is a pure function of `(program, plan, config, seed)`. Backends
//!   must produce **identical** `Trace`s for identical inputs; fingerprints
//!   and cache keys are backend-independent, so intervention-cache entries
//!   are shared across backends.
//! * [`ExecBackend::try_run_with`] lends the trace to a closure instead of
//!   returning it, so a backend can take the trace's buffers back for its
//!   next run; probes that only evaluate a trace never pay for one.
//! * [`ExecBackend::try_run`] reports invalid runs (e.g. a return-value
//!   intervention on an impure method) as a typed [`VmError`] where the
//!   backend can detect them without unwinding. The bytecode VM detects all
//!   of them; the tree-walk interpreter asserts instead (its `Err` path is
//!   never taken), which callers needing isolation must handle with
//!   `catch_unwind` — the engine's worker pool does.
//!
//! Selection: [`Backend::default()`] is [`Backend::Bytecode`] when the
//! `bytecode-default` cargo feature is on (it is by default) and
//! [`Backend::TreeWalk`] otherwise; the `AID_BACKEND` environment variable
//! (`tree` / `bytecode`) overrides both at run time.

use crate::compile::{compile, CompiledProgram};
use crate::machine::{Machine, SimConfig};
use crate::plan::InterventionPlan;
use crate::program::Program;
use crate::vm::{Vm, VmError};
use aid_obs::Counter;
use aid_trace::Trace;
use std::cell::RefCell;

/// An execution engine for compiled-in programs. Implementations are
/// shareable across threads; one instance serves any number of concurrent
/// runs.
pub trait ExecBackend: Send + Sync {
    /// Short stable name (`"tree"`, `"bytecode"`, ...), for logs and bench
    /// snapshots.
    fn name(&self) -> &'static str;

    /// Executes one run. `Err` quarantines the single run (partial state
    /// discarded; the backend stays healthy).
    fn try_run(
        &self,
        seed: u64,
        plan: &InterventionPlan,
        config: &SimConfig,
    ) -> Result<Trace, VmError>;

    /// Executes one run and lends its trace to `f`, which is called exactly
    /// once when the run completes and never on a trap. The backend may
    /// reuse the trace's buffers afterwards. The default runs
    /// [`try_run`](Self::try_run), then lends.
    fn try_run_with(
        &self,
        seed: u64,
        plan: &InterventionPlan,
        config: &SimConfig,
        f: &mut dyn FnMut(&Trace),
    ) -> Result<(), VmError> {
        let trace = self.try_run(seed, plan, config)?;
        f(&trace);
        Ok(())
    }

    /// Executes one run, panicking on a trap. For callers that know their
    /// plans are valid (e.g. plans lowered from a catalog of observed
    /// predicates).
    fn run(&self, seed: u64, plan: &InterventionPlan, config: &SimConfig) -> Trace {
        match self.try_run(seed, plan, config) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Which execution engine a [`Simulator`](crate::Simulator) uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The original tree-walk interpreter (the crate-private `machine`
    /// module).
    TreeWalk,
    /// The bytecode compiler + register VM ([`mod@crate::compile`] +
    /// [`crate::vm`]).
    Bytecode,
}

impl Backend {
    /// Short stable name, matching [`ExecBackend::name`].
    pub fn name(self) -> &'static str {
        match self {
            Backend::TreeWalk => "tree",
            Backend::Bytecode => "bytecode",
        }
    }

    /// Parses a backend name (as accepted by `AID_BACKEND`).
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "tree" | "treewalk" | "tree-walk" | "machine" => Some(Backend::TreeWalk),
            "bytecode" | "vm" | "compiled" => Some(Backend::Bytecode),
            _ => None,
        }
    }

    /// The `AID_BACKEND` environment override, if set and valid.
    pub fn from_env() -> Option<Backend> {
        std::env::var("AID_BACKEND")
            .ok()
            .and_then(|v| Backend::parse(&v))
    }
}

impl Default for Backend {
    /// `AID_BACKEND` if set, else bytecode when the `bytecode-default`
    /// feature is on, else tree-walk.
    fn default() -> Self {
        if let Some(b) = Backend::from_env() {
            return b;
        }
        if cfg!(feature = "bytecode-default") {
            Backend::Bytecode
        } else {
            Backend::TreeWalk
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The tree-walk interpreter behind the [`ExecBackend`] API.
///
/// Reference semantics; `try_run` never returns `Err` — invalid
/// interventions abort via assertion, as the machine always did.
pub struct TreeWalkBackend {
    program: Program,
}

impl TreeWalkBackend {
    /// Wraps a program.
    pub fn new(program: Program) -> Self {
        TreeWalkBackend { program }
    }
}

impl ExecBackend for TreeWalkBackend {
    fn name(&self) -> &'static str {
        "tree"
    }

    fn try_run(
        &self,
        seed: u64,
        plan: &InterventionPlan,
        config: &SimConfig,
    ) -> Result<Trace, VmError> {
        Ok(Machine::new(&self.program, plan, config.clone(), seed).run())
    }
}

thread_local! {
    /// This thread's bytecode machine. A `Vm` runs any program, so every
    /// [`BytecodeBackend`] on the thread shares one set of warm arenas, and
    /// a new simulator starts warm.
    static VM: RefCell<Vm> = RefCell::new(Vm::new());
}

/// Runs `f` on this thread's machine, or on a fresh one when that machine
/// is busy (a run started from inside a lending closure) or already torn
/// down (thread exit).
fn with_vm<R>(f: impl FnOnce(&mut Vm) -> R) -> R {
    let mut f = Some(f);
    VM.try_with(|cell| {
        let mut vm = cell.try_borrow_mut().ok()?;
        f.take().map(|f| f(&mut vm))
    })
    .ok()
    .flatten()
    .unwrap_or_else(|| (f.take().expect("not yet called"))(&mut Vm::new()))
}

/// The bytecode VM behind the [`ExecBackend`] API.
///
/// Compiles once at construction. Runs execute on the calling thread's
/// `Vm` (one per OS thread, shared by every backend), so concurrent
/// callers never contend and a cold simulator reuses the thread's warm
/// arenas. [`ExecBackend::try_run_with`] hands the lent trace's buffers
/// back to that `Vm`: a warm probe of a program that throws nothing
/// allocates nothing for its run.
pub struct BytecodeBackend {
    compiled: CompiledProgram,
    /// Scheduler ticks across all completed runs — feeds `sim.vm.steps`
    /// when the owning [`Simulator`](crate::Simulator) has a metrics
    /// registry attached; a detached no-op cell otherwise.
    steps: Counter,
}

impl BytecodeBackend {
    /// Compiles `program`.
    pub fn new(program: &Program) -> Self {
        BytecodeBackend {
            compiled: compile(program),
            steps: Counter::detached(),
        }
    }

    /// Routes the cumulative per-run step counts into `cell` (normally a
    /// registry-backed `sim.vm.steps` counter).
    pub fn with_steps_counter(mut self, cell: Counter) -> Self {
        self.steps = cell;
        self
    }

    /// The compiled image (instruction stream, tables).
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    fn run_on(
        &self,
        vm: &mut Vm,
        seed: u64,
        plan: &InterventionPlan,
        config: &SimConfig,
    ) -> Result<Trace, VmError> {
        let trace = vm.run(&self.compiled, plan, config, seed)?;
        // Trapped runs are quarantined wholesale; only completed runs
        // report a meaningful tick count.
        self.steps.add(vm.last_steps());
        Ok(trace)
    }
}

impl ExecBackend for BytecodeBackend {
    fn name(&self) -> &'static str {
        "bytecode"
    }

    fn try_run(
        &self,
        seed: u64,
        plan: &InterventionPlan,
        config: &SimConfig,
    ) -> Result<Trace, VmError> {
        with_vm(|vm| self.run_on(vm, seed, plan, config))
    }

    fn try_run_with(
        &self,
        seed: u64,
        plan: &InterventionPlan,
        config: &SimConfig,
        f: &mut dyn FnMut(&Trace),
    ) -> Result<(), VmError> {
        with_vm(|vm| {
            let trace = self.run_on(vm, seed, plan, config)?;
            f(&trace);
            vm.reclaim(trace);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Expr;
    use crate::ProgramBuilder;

    fn toy() -> Program {
        let mut b = ProgramBuilder::new("toy");
        let x = b.object("x", 0);
        let m = b.method("M", |mb| {
            mb.write(x, Expr::Const(1)).compute(3);
        });
        b.thread("main", m, true);
        b.build()
    }

    #[test]
    fn backend_names_and_parse_round_trip() {
        for b in [Backend::TreeWalk, Backend::Bytecode] {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(Backend::parse("vm"), Some(Backend::Bytecode));
        assert_eq!(Backend::parse("nope"), None);
    }

    #[test]
    fn both_backends_run_and_agree_via_the_trait() {
        let p = toy();
        let tree = TreeWalkBackend::new(p.clone());
        let byte = BytecodeBackend::new(&p);
        let plan = InterventionPlan::empty();
        let cfg = SimConfig::default();
        for seed in 0..10 {
            let a = tree.try_run(seed, &plan, &cfg).unwrap();
            let b = byte.try_run(seed, &plan, &cfg).unwrap();
            assert_eq!(a, b);
            assert_eq!(tree.run(seed, &plan, &cfg), a);
        }
        assert_eq!(tree.name(), "tree");
        assert_eq!(byte.name(), "bytecode");
    }

    #[test]
    fn a_run_inside_a_lending_closure_gets_its_own_machine() {
        let p = toy();
        let byte = BytecodeBackend::new(&p);
        let plan = InterventionPlan::empty();
        let cfg = SimConfig::default();
        let want = byte.try_run(3, &plan, &cfg).unwrap();
        let mut inner = None;
        byte.try_run_with(3, &plan, &cfg, &mut |outer| {
            inner = Some(byte.try_run(3, &plan, &cfg).unwrap());
            assert_eq!(outer, &want);
        })
        .unwrap();
        assert_eq!(inner, Some(want));
    }

    #[test]
    fn bytecode_backend_is_shareable_across_threads() {
        let p = toy();
        let byte = std::sync::Arc::new(BytecodeBackend::new(&p));
        let plan = InterventionPlan::empty();
        let cfg = SimConfig::default();
        let expected = byte.try_run(5, &plan, &cfg).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = byte.clone();
                let plan = plan.clone();
                let cfg = cfg.clone();
                let want = expected.clone();
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        assert_eq!(b.try_run(5, &plan, &cfg).unwrap(), want);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
