//! Running programs many times and collecting labeled trace sets.

use crate::backend::{Backend, BytecodeBackend, ExecBackend, TreeWalkBackend};
use crate::machine::SimConfig;
use crate::plan::InterventionPlan;
use crate::program::Program;
use crate::vm::VmError;
use aid_obs::{Counter, MetricsRegistry};
use aid_trace::{Trace, TraceSet};
use std::sync::{Arc, OnceLock};

/// A program plus a configuration plus an execution backend — the standard
/// handle everything downstream (executors, the engine, the server) runs
/// programs through.
///
/// The backend defaults to [`Backend::default()`] (bytecode unless the
/// `bytecode-default` feature is off or `AID_BACKEND` overrides it) and can
/// be chosen per simulator with [`Simulator::with_backend`]. Backends are
/// trace-equivalent, and [`Simulator::fingerprint`] is deliberately
/// backend-independent, so cached results are shared across backends.
///
/// Runs come in two shapes: [`Simulator::try_run`] returns an owned
/// [`Trace`], and [`Simulator::try_run_with`] lends the trace to a closure
/// so the backend can reuse its buffers. Probes that only evaluate a trace
/// (the engine's intervention runs) use the lending form; on the bytecode
/// backend a warm lending run allocates nothing.
///
/// The compiled backend instance is built lazily on first run and cached.
/// It holds no machine: bytecode runs execute on the calling thread's `Vm`
/// (see [`BytecodeBackend`]), so a fresh `Simulator` runs warm.
/// `program` stays a public field for construction-site ergonomics, but
/// mutating it **after** the first run would desync the cache — rebuild a
/// fresh `Simulator` instead. (`config` is read per run and safe to tune at
/// any point.)
pub struct Simulator {
    /// The program under test.
    pub program: Program,
    /// Machine configuration (read per run).
    pub config: SimConfig,
    backend: Backend,
    /// Cumulative VM scheduler ticks (`sim.vm.steps`) — a registry cell
    /// when attached via [`Simulator::with_metrics`], a detached no-op
    /// otherwise. Only the bytecode VM reports ticks; the tree-walk
    /// interpreter predates the counter plane and is left dark.
    vm_steps: Counter,
    engine: OnceLock<Arc<dyn ExecBackend>>,
}

impl Clone for Simulator {
    fn clone(&self) -> Self {
        // The lazily built engine is intentionally not cloned; the clone
        // rebuilds (and re-caches) its own on first use.
        Simulator {
            program: self.program.clone(),
            config: self.config.clone(),
            backend: self.backend,
            vm_steps: self.vm_steps.clone(),
            engine: OnceLock::new(),
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("program", &self.program)
            .field("config", &self.config)
            .field("backend", &self.backend)
            .finish()
    }
}

impl Simulator {
    /// Creates a simulator with default configuration and backend.
    pub fn new(program: Program) -> Self {
        Simulator {
            program,
            config: SimConfig::default(),
            backend: Backend::default(),
            vm_steps: Counter::detached(),
            engine: OnceLock::new(),
        }
    }

    /// Selects the execution backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self.engine = OnceLock::new();
        self
    }

    /// Attaches a metrics registry: VM scheduler ticks accumulate into the
    /// registry's `sim.vm.steps` counter. Resets the lazily built engine so
    /// a backend constructed before the call doesn't keep a detached cell.
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.vm_steps = metrics.counter("sim.vm.steps");
        self.engine = OnceLock::new();
        self
    }

    /// The selected backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The execution engine, built on first use.
    pub fn exec_backend(&self) -> &Arc<dyn ExecBackend> {
        self.engine.get_or_init(|| match self.backend {
            Backend::TreeWalk => Arc::new(TreeWalkBackend::new(self.program.clone())),
            Backend::Bytecode => Arc::new(
                BytecodeBackend::new(&self.program).with_steps_counter(self.vm_steps.clone()),
            ),
        })
    }

    /// A stable fingerprint of (program structure, machine configuration):
    /// runs are a pure function of `(fingerprint, seed, plan)`, so this is
    /// the program half of the engine's memoization key. It hashes the
    /// program's structure ([`Program::fingerprint`]), a few microseconds
    /// for a typical program; callers that execute many rounds still
    /// compute it once up front. Deliberately backend-independent — both
    /// backends produce identical traces, so cache entries are shared.
    pub fn fingerprint(&self) -> u64 {
        // Rotate so (program, max_steps) pairs don't collide trivially.
        self.program
            .fingerprint()
            .rotate_left(17)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ self.config.max_steps
    }

    /// Runs once with `seed` under `plan`. Panics on an invalid intervention
    /// (see [`Simulator::try_run`] for the quarantining variant).
    pub fn run(&self, seed: u64, plan: &InterventionPlan) -> Trace {
        self.exec_backend().run(seed, plan, &self.config)
    }

    /// Runs once with `seed` under `plan`, reporting invalid runs as a typed
    /// [`VmError`] where the backend supports trapping (the bytecode VM
    /// does; the tree-walk interpreter asserts instead).
    pub fn try_run(&self, seed: u64, plan: &InterventionPlan) -> Result<Trace, VmError> {
        self.exec_backend().try_run(seed, plan, &self.config)
    }

    /// Runs once with `seed` under `plan` and lends the trace to `f`,
    /// returning what `f` returns. Traps are reported as in
    /// [`Simulator::try_run`], without calling `f`. The trace's buffers go
    /// back to the backend afterwards, so keep nothing borrowed from it.
    pub fn try_run_with<R>(
        &self,
        seed: u64,
        plan: &InterventionPlan,
        f: impl FnOnce(&Trace) -> R,
    ) -> Result<R, VmError> {
        let mut f = Some(f);
        let mut out = None;
        self.exec_backend()
            .try_run_with(seed, plan, &self.config, &mut |trace| {
                out = f.take().map(|f| f(trace));
            })?;
        Ok(out.expect("a completed run lends its trace"))
    }

    /// Runs seeds `0..runs` with no intervention, returning a labeled set.
    pub fn collect(&self, runs: u64) -> TraceSet {
        self.collect_with(0..runs, &InterventionPlan::empty())
    }

    /// Runs the given seeds under `plan`, returning a labeled set.
    pub fn collect_with(
        &self,
        seeds: impl IntoIterator<Item = u64>,
        plan: &InterventionPlan,
    ) -> TraceSet {
        let mut set = self.trace_set_skeleton();
        for seed in seeds {
            set.push(self.run(seed, plan));
        }
        set
    }

    /// Collects until the set contains at least `want_ok` successes and
    /// `want_fail` failures (or `max_seeds` runs have been tried). This is
    /// how case studies gather their "50 successful and 50 failed
    /// executions" even when the failure probability is lopsided.
    pub fn collect_balanced(&self, want_ok: usize, want_fail: usize, max_seeds: u64) -> TraceSet {
        let mut set = self.trace_set_skeleton();
        let (mut n_ok, mut n_fail) = (0usize, 0usize);
        for seed in 0..max_seeds {
            if n_ok >= want_ok && n_fail >= want_fail {
                break;
            }
            let t = self.run(seed, &InterventionPlan::empty());
            if t.failed() {
                if n_fail < want_fail {
                    n_fail += 1;
                    set.push(t);
                }
            } else if n_ok < want_ok {
                n_ok += 1;
                set.push(t);
            }
        }
        set
    }

    /// An empty trace set pre-seeded with this program's method/object names
    /// (so ids in traces match program ids). Channels are interned twice:
    /// once into the channel arena (for message events) and once as
    /// `chan:<name>` pseudo-objects placed *after* the real objects, matching
    /// the `ObjectId` space both backends use for send/recv accesses.
    pub fn trace_set_skeleton(&self) -> TraceSet {
        let mut set = TraceSet::new();
        for m in &self.program.methods {
            set.method(&m.name);
        }
        for o in &self.program.objects {
            set.object(&o.name);
        }
        for c in &self.program.channels {
            set.channel(&c.name);
            set.object(&format!("chan:{}", c.name));
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::machine::{DEADLOCK_KIND, TIMEOUT_KIND};
    use crate::plan::{InstanceFilter, Intervention};
    use crate::program::{Cmp, Expr, Reg};
    use aid_trace::Outcome;

    /// The Npgsql shape, miniaturized: an atomicity violation. The writer
    /// updates `len` then `slot` as a pair; the reader snapshots `len` and
    /// later bounds-checks `slot` against the snapshot. The run crashes iff
    /// the writer's pair lands *inside* the reader's snapshot/check window —
    /// any fully-ordered schedule is fine. Waits live outside the racing
    /// methods so a serializing lock around them cannot deadlock.
    fn racy_program() -> Program {
        let mut b = ProgramBuilder::new("race");
        let flag = b.object("flag", 0);
        let len = b.object("len", 10);
        let slot = b.object("slot", 10);
        let reader = b.method("Reader", |m| {
            m.write(flag, Expr::Const(1))
                .read(len, Reg(0))
                .jitter(5, 40)
                .throw_if_obj(slot, Cmp::Gt, Expr::Reg(Reg(0)), "IndexOutOfRange");
        });
        let writer = b.method("Writer", |m| {
            m.jitter(1, 10)
                .write(len, Expr::Const(20))
                .write(slot, Expr::Const(11));
        });
        let writer_entry = b.method("WriterEntry", |m| {
            m.wait_until(Expr::Obj(flag), Cmp::Eq, Expr::Const(1))
                .jitter(0, 30)
                .call(writer);
        });
        let main = b.method("Main", |m| {
            m.spawn_named("t1").spawn_named("t2").join(1).join(2);
        });
        b.thread("main", main, true);
        b.thread("t1", reader, false);
        b.thread("t2", writer_entry, false);
        let _ = main;
        b.build()
    }

    /// The engine shares one `Simulator` across pool workers; these bounds
    /// are load-bearing, not incidental (plain data, no interior
    /// mutability), so pin them at compile time.
    #[test]
    fn simulator_is_send_sync_and_fingerprint_tracks_config() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Program>();
        assert_send_sync::<Simulator>();
        assert_send_sync::<InterventionPlan>();
        assert_send_sync::<SimConfig>();

        let mut sim = Simulator::new(racy_program());
        let fp = sim.fingerprint();
        assert_eq!(fp, sim.fingerprint(), "stable");
        sim.config.max_steps = 1234;
        assert_ne!(fp, sim.fingerprint(), "config is part of the key");
        let other = Simulator::new(racy_program());
        assert_ne!(
            other.fingerprint(),
            sim.fingerprint(),
            "differing max_steps still distinguish equal programs"
        );
    }

    #[test]
    fn race_is_intermittent_and_seed_deterministic() {
        let sim = Simulator::new(racy_program());
        let set = sim.collect(200);
        let (ok, fail) = set.counts();
        assert!(ok > 10, "expected some successes, got {ok}");
        assert!(fail > 10, "expected some failures, got {fail}");
        // Same seed, same trace.
        let a = sim.run(7, &InterventionPlan::empty());
        let b = sim.run(7, &InterventionPlan::empty());
        assert_eq!(a, b, "runs must be deterministic per seed");
        // Different seeds eventually differ.
        let c = sim.run(8, &InterventionPlan::empty());
        assert!(a != c || sim.run(9, &InterventionPlan::empty()) != a);
    }

    #[test]
    fn serialize_intervention_repairs_the_race() {
        let sim = Simulator::new(racy_program());
        let reader = aid_trace::MethodId::from_raw(0);
        let writer = aid_trace::MethodId::from_raw(1);
        let plan = InterventionPlan::single(Intervention::SerializeMethods {
            a: reader,
            b: writer,
        });
        let set = sim.collect_with(0..120, &plan);
        let (_, fail) = set.counts();
        assert_eq!(fail, 0, "serialization must eliminate the failure");
        // Under the injected lock the conflicting accesses report as locked.
        for t in &set.traces {
            for e in t.events.iter().filter(|e| e.method == reader) {
                assert!(e.accesses.iter().all(|a| a.locked));
            }
        }
    }

    #[test]
    fn failure_signature_names_kind_and_method() {
        let sim = Simulator::new(racy_program());
        let set = sim.collect(200);
        for t in set.failures() {
            match &t.outcome {
                Outcome::Failure(sig) => {
                    assert_eq!(sig.kind, "IndexOutOfRange");
                    assert_eq!(sig.method.raw(), 0, "thrown in Reader");
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn collect_balanced_hits_requested_counts() {
        let sim = Simulator::new(racy_program());
        let set = sim.collect_balanced(10, 10, 10_000);
        let (ok, fail) = set.counts();
        assert_eq!((ok, fail), (10, 10));
    }

    #[test]
    fn deadlock_is_detected() {
        let mut b = ProgramBuilder::new("deadlock");
        let l1 = b.object("l1", 0);
        let l2 = b.object("l2", 0);
        let m1 = b.method("A", |m| {
            m.acquire(l1)
                .compute(20)
                .acquire(l2)
                .release(l2)
                .release(l1);
        });
        let m2 = b.method("B", |m| {
            m.acquire(l2)
                .compute(20)
                .acquire(l1)
                .release(l1)
                .release(l2);
        });
        let main = b.method("Main", |m| {
            m.spawn_named("a").spawn_named("b").join(1).join(2);
        });
        b.thread("main", main, true);
        b.thread("a", m1, false);
        b.thread("b", m2, false);
        let sim = Simulator::new(b.build());
        let set = sim.collect(50);
        let deadlocks = set
            .failures()
            .filter(|t| matches!(&t.outcome, Outcome::Failure(s) if s.kind == DEADLOCK_KIND))
            .count();
        assert!(
            deadlocks > 0,
            "the classic 2-lock cycle must deadlock sometimes"
        );
    }

    #[test]
    fn runaway_program_times_out() {
        let mut b = ProgramBuilder::new("spin");
        let never = b.object("never", 0);
        let m = b.method("Spin", |mb| {
            // Condition never satisfied and no other thread exists, but the
            // liveness valve keeps releasing it; the step budget must end it.
            mb.wait_until(Expr::Obj(never), Cmp::Eq, Expr::Const(1))
                .throw("Unreachable");
        });
        b.thread("main", m, true);
        let mut sim = Simulator::new(b.build());
        sim.config.max_steps = 500;
        let t = sim.run(0, &InterventionPlan::empty());
        match &t.outcome {
            // The valve releases the lone waiter, which then throws; either
            // way the run terminates abnormally.
            Outcome::Failure(s) => assert!(s.kind == TIMEOUT_KIND || s.kind == "Unreachable"),
            Outcome::Success => panic!("spin program cannot succeed"),
        }
    }

    #[test]
    fn try_call_absorbs_exception() {
        let mut b = ProgramBuilder::new("catch");
        let thrower = b.method("Thrower", |m| {
            m.compute(2).throw("Boom");
        });
        let main = b.method("Main", |m| {
            m.try_call(thrower).compute(2);
        });
        b.thread("main", main, true);
        let sim = Simulator::new(b.build());
        let t = sim.run(1, &InterventionPlan::empty());
        assert_eq!(t.outcome, Outcome::Success);
        let ev = t.events.iter().find(|e| e.method == thrower).unwrap();
        assert_eq!(ev.exception.as_deref(), Some("Boom"));
        assert!(ev.caught);
    }

    #[test]
    fn catch_exception_intervention_repairs_method_fails() {
        let mut b = ProgramBuilder::new("catch2");
        let thrower = b.method("Thrower", |m| {
            m.compute(2).throw("Boom");
        });
        let main = b.method("Main", |m| {
            m.call(thrower).compute(2);
        });
        b.thread("main", main, true);
        let sim = Simulator::new(b.build());
        let t = sim.run(1, &InterventionPlan::empty());
        assert!(t.failed(), "uncaught exception fails the run");
        let plan = InterventionPlan::single(Intervention::CatchException {
            method: thrower,
            instance: InstanceFilter::All,
        });
        let t2 = sim.run(1, &plan);
        assert_eq!(
            t2.outcome,
            Outcome::Success,
            "injected try/catch repairs it"
        );
    }

    #[test]
    fn force_return_overrides_value_and_register() {
        let mut b = ProgramBuilder::new("forceret");
        let getter = b.pure_method("Get", |m| {
            m.set(Reg(0), Expr::Const(41)).ret(Expr::Reg(Reg(0)));
        });
        let main = b.method("Main", |m| {
            m.call(getter)
                .throw_if(Expr::Reg(Reg(0)), Cmp::Ne, Expr::Const(42), "WrongValue");
        });
        b.thread("main", main, true);
        let sim = Simulator::new(b.build());
        assert!(sim.run(3, &InterventionPlan::empty()).failed());
        let plan = InterventionPlan::single(Intervention::ForceReturn {
            method: getter,
            instance: InstanceFilter::All,
            value: 42,
        });
        let t = sim.run(3, &plan);
        assert_eq!(t.outcome, Outcome::Success);
        let ev = t.events.iter().find(|e| e.method == getter).unwrap();
        assert_eq!(ev.returned, Some(42));
    }

    #[test]
    fn premature_return_skips_body() {
        let mut b = ProgramBuilder::new("prem");
        let obj = b.object("x", 0);
        let slow = b.pure_method("Slow", |m| {
            m.compute(100)
                .set(Reg(1), Expr::Const(5))
                .ret(Expr::Reg(Reg(1)));
        });
        let main = b.method("Main", |m| {
            m.call(slow).write(obj, Expr::Reg(Reg(1)));
        });
        b.thread("main", main, true);
        let sim = Simulator::new(b.build());
        let plan = InterventionPlan::single(Intervention::PrematureReturn {
            method: slow,
            instance: InstanceFilter::All,
            value: 5,
        });
        let t = sim.run(0, &plan);
        let ev = t.events.iter().find(|e| e.method == slow).unwrap();
        assert_eq!(ev.duration(), 0, "body skipped");
        assert_eq!(ev.returned, Some(5));
        assert_eq!(t.outcome, Outcome::Success);
    }

    #[test]
    fn force_order_intervention_enforces_completion_order() {
        // B normally starts whenever; ForceOrder(first=A, then=B) must make
        // every B start after A's first completion.
        let mut b = ProgramBuilder::new("order");
        let a = b.method("A", |m| {
            m.jitter(10, 60).compute(1);
        });
        let bm = b.method("B", |m| {
            m.compute(1);
        });
        let main = b.method("Main", |m| {
            m.spawn_named("ta").spawn_named("tb").join(1).join(2);
        });
        b.thread("main", main, true);
        b.thread("ta", a, false);
        b.thread("tb", bm, false);
        let sim = Simulator::new(b.build());
        let plan = InterventionPlan::single(Intervention::ForceOrder {
            first: a,
            then: bm,
            instance: InstanceFilter::All,
        });
        for seed in 0..40 {
            let t = sim.run(seed, &plan);
            let ea = t.events.iter().find(|e| e.method == a).unwrap();
            let eb = t.events.iter().find(|e| e.method == bm).unwrap();
            assert!(eb.end > ea.end, "B must finish after A under forced order");
        }
    }

    #[test]
    fn instance_filter_targets_single_instance() {
        let mut b = ProgramBuilder::new("inst");
        let leaf = b.method("Leaf", |m| {
            m.compute(3);
        });
        let main = b.method("Main", |m| {
            m.call(leaf).call(leaf).call(leaf);
        });
        b.thread("main", main, true);
        let sim = Simulator::new(b.build());
        let plan = InterventionPlan::single(Intervention::DelayEnd {
            method: leaf,
            instance: InstanceFilter::Only(1),
            ticks: 50,
        });
        let t = sim.run(0, &plan);
        let durs: Vec<u64> = t
            .events
            .iter()
            .filter(|e| e.method == leaf)
            .map(|e| e.duration())
            .collect();
        assert_eq!(durs.len(), 3);
        assert!(
            durs[1] > durs[0] + 40,
            "only instance 1 is delayed: {durs:?}"
        );
        assert!(durs[2] < durs[1]);
    }

    #[test]
    fn backends_agree_and_try_run_traps_typed() {
        use crate::backend::Backend;
        let tree = Simulator::new(racy_program()).with_backend(Backend::TreeWalk);
        let byte = Simulator::new(racy_program()).with_backend(Backend::Bytecode);
        assert_eq!(tree.backend(), Backend::TreeWalk);
        assert_eq!(byte.backend(), Backend::Bytecode);
        assert_eq!(
            tree.fingerprint(),
            byte.fingerprint(),
            "fingerprints are backend-independent so cache entries are shared"
        );
        for seed in 0..30 {
            assert_eq!(
                tree.run(seed, &InterventionPlan::empty()),
                byte.run(seed, &InterventionPlan::empty()),
                "seed {seed}"
            );
        }
        // Premature return on the impure Writer: the bytecode backend traps
        // with a typed error instead of panicking.
        let bad = InterventionPlan::single(Intervention::PrematureReturn {
            method: aid_trace::MethodId::from_raw(1),
            instance: InstanceFilter::All,
            value: 0,
        });
        let err = byte.try_run(0, &bad).unwrap_err();
        assert!(matches!(
            err,
            crate::vm::VmError::PrematureReturnImpure { ref method } if method == "Writer"
        ));
        // The simulator remains healthy after a trap.
        assert_eq!(
            byte.run(11, &InterventionPlan::empty()),
            tree.run(11, &InterventionPlan::empty())
        );
    }

    #[test]
    fn flaky_delay_and_suppression() {
        let mut b = ProgramBuilder::new("flaky");
        let m = b.method("Task", |mb| {
            mb.flaky_delay(0.5, 200).compute(2);
        });
        b.thread("main", m, true);
        let sim = Simulator::new(b.build());
        let set = sim.collect(100);
        let slow = set
            .traces
            .iter()
            .filter(|t| t.events[0].duration() > 100)
            .count();
        assert!(
            slow > 20 && slow < 80,
            "flaky delay fires ~half the time: {slow}"
        );
        let plan = InterventionPlan::single(Intervention::SuppressFlaky {
            method: aid_trace::MethodId::from_raw(0),
            instance: InstanceFilter::All,
        });
        let set2 = sim.collect_with(0..100, &plan);
        assert!(
            set2.traces.iter().all(|t| t.events[0].duration() < 100),
            "suppression removes every slow run"
        );
    }
}
