//! The bytecode register VM: executes a [`CompiledProgram`] under an
//! [`InterventionPlan`], producing a [`Trace`] **bit-identical** to the
//! tree-walk interpreter's (the crate-private `machine` module).
//!
//! # Equivalence contract
//!
//! This file is a line-for-line transliteration of `machine.rs` over the
//! flat instruction stream. Anything observable must match exactly:
//!
//! * **Clock**: one tick per micro-step, same micro-step decomposition
//!   (lazy thread entry, pending injected-lock acquisition, burn countdown,
//!   epilogue end-delay, same-tick frame pop).
//! * **RNG draw sequence**: the scheduler RNG (`seed`) and program RNG
//!   (`seed ^ 0x9e37_79b9_7f4a_7c15`) are consulted at exactly the same
//!   sites in the same order — one `random_range` per scheduling decision,
//!   one per `JitterCompute` with `max > min`, one `random_bool` per
//!   non-suppressed `FlakyDelay`, one `random_range` per non-forced
//!   `RandRange`. A draw skipped (or added) anywhere would shear every
//!   subsequent scheduling decision.
//! * **Intervention semantics**: first-match-wins in plan order for
//!   premature/force-return/force-order/force-rand, sum over matches for
//!   delays, any-match for catch/suppress, serialize locks acquired in
//!   intervention-index order. The per-run `PlanTable` is a pre-indexed
//!   view of the plan that preserves plan order per method, so lookups are
//!   O(matching interventions) instead of O(plan).
//!
//! Differential fuzzing (`tests/differential_fuzz.rs`), the six case
//! studies, and lab conformance invariant #8 all pin this contract.
//!
//! # Memory model
//!
//! The `Vm` owns reusable arenas — shared-object values, lock tables,
//! per-thread register files and frame stacks, a frame free-list, an
//! expression scratch stack sized to the program's max expression depth,
//! and the scheduler's ready buffer. [`Vm::run`] resets them in place, so
//! steady-state execution allocates only what escapes into the returned
//! `Trace` (events and their access lists). A caller that is done with a
//! trace can hand it back through [`Vm::reclaim`]: its event and message
//! vectors and its access lists become the next run's buffers, so a warm
//! run of a program that throws nothing allocates nothing at all.
//!
//! # Trap handling (fail-safe)
//!
//! Where the tree-walk machine `assert!`s on invalid programs or invalid
//! interventions (premature/force-return on an impure method, releasing an
//! unowned lock, double spawn), the VM returns a typed [`VmError`] and
//! discards the partial run. The machine stays reusable afterwards; callers
//! (engine workers, servers) quarantine the single run instead of losing a
//! thread to a panic.

use crate::compile::{
    CompiledProgram, CondRef, EOp, ExprRef, Instr, KindId, KIND_DEADLOCK, KIND_TIMEOUT,
};
use crate::machine::SimConfig;
use crate::plan::{InstanceFilter, Intervention, InterventionPlan};
use crate::program::NUM_REGS;
use aid_trace::{
    AccessEvent, AccessKind, ChannelId, FailureSignature, MethodEvent, MethodId, MsgEvent, MsgKind,
    ObjectId, Outcome, ThreadId, Time, Trace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A typed trap: the single run is invalid and was discarded. The [`Vm`]
/// itself remains healthy and reusable.
///
/// These correspond one-to-one to the `assert!` sites of the tree-walk
/// machine; the VM converts them into per-run errors so a bad intervention
/// (or a malformed program) quarantines one execution instead of poisoning
/// an engine worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// A premature-return intervention targeted an impure method.
    PrematureReturnImpure {
        /// The method's name.
        method: String,
    },
    /// A force-return intervention targeted an impure method.
    ForceReturnImpure {
        /// The method's name.
        method: String,
    },
    /// A `Release` of a lock the thread does not own.
    ReleaseUnowned {
        /// The lock object's name.
        lock: String,
    },
    /// A `Spawn` of a thread that was already started (or auto-starts).
    SpawnTwice {
        /// The thread index.
        thread: usize,
    },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::PrematureReturnImpure { method } => {
                write!(f, "premature-return intervention on impure method {method}")
            }
            VmError::ForceReturnImpure { method } => {
                write!(f, "force-return intervention on impure method {method}")
            }
            VmError::ReleaseUnowned { lock } => {
                write!(f, "release of lock {lock} not owned")
            }
            VmError::SpawnTwice { thread } => {
                write!(f, "thread {thread} spawned twice (or auto-start)")
            }
        }
    }
}

impl std::error::Error for VmError {}

/// Thread scheduling state (the VM's `Copy` mirror of the machine's).
/// `BlockedWait` caches the compiled condition so the scheduler re-checks it
/// without re-fetching the instruction (the frame is frozen while blocked).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum TState {
    #[default]
    NotStarted,
    Ready,
    BlockedLock(u32),
    BlockedInjectedLock(usize),
    BlockedJoin(usize),
    Sleeping(Time),
    BlockedWait(CondRef),
    BlockedOrder(u32),
    /// Blocked on a full bounded channel; wakes when a receive frees a slot.
    BlockedSend(u32),
    /// Blocked on an empty mailbox; wakes on delivery or at the deadline
    /// (`Time::MAX` = wait forever). Not freed by the liveness valve — a
    /// circular channel wait fails as a deadlock, matching the machine.
    BlockedRecv {
        chan: u32,
        deadline: Time,
    },
    Done,
}

/// A message either in transit or sitting in a mailbox (the VM's `Copy`
/// mirror of the machine's `Msg`).
#[derive(Clone, Copy, Debug)]
struct VmMsg {
    seq: u32,
    value: i64,
    sent: Time,
    deliver_at: Time,
    sender: u32,
    dup: bool,
}

/// Per-channel runtime state, recycled between runs.
#[derive(Debug, Default)]
struct VmChan {
    /// Sent but not yet delivered, unordered (the pump scans for due ones).
    transit: Vec<VmMsg>,
    /// Delivered and receiver-visible, in delivery order.
    mailbox: VecDeque<VmMsg>,
    next_seq: u32,
}

/// One activation record. Vector fields are recycled through the frame
/// free-list; `pending_head` replaces the machine's `Vec::remove(0)` queue
/// so acquisition order is preserved without shifting.
#[derive(Debug, Default)]
struct VmFrame {
    method: u32,
    instance: u32,
    pc: u32,
    start: Time,
    started: bool,
    accesses: Vec<AccessEvent>,
    returned: Option<i64>,
    burn: u64,
    catch_boundary: bool,
    injected_locks: Vec<usize>,
    pending_injected: Vec<usize>,
    pending_head: usize,
    program_locks: Vec<u32>,
    end_delay: u64,
    in_epilogue: bool,
    /// Deadline of an in-progress timed `Recv` at this frame's current pc
    /// (same state machine as the tree-walk's `Frame::recv_deadline`).
    recv_deadline: Option<Time>,
}

impl VmFrame {
    fn reinit(
        &mut self,
        method: u32,
        instance: u32,
        clock: Time,
        delay_start: u64,
        catch_boundary: bool,
        end_delay: u64,
    ) {
        self.method = method;
        self.instance = instance;
        self.pc = 0;
        self.start = clock;
        self.started = false;
        self.accesses.clear();
        self.returned = None;
        self.burn = delay_start;
        self.catch_boundary = catch_boundary;
        self.injected_locks.clear();
        self.pending_injected.clear();
        self.pending_head = 0;
        self.program_locks.clear();
        self.end_delay = end_delay;
        self.in_epilogue = false;
        self.recv_deadline = None;
    }

    fn pending_done(&self) -> bool {
        self.pending_head >= self.pending_injected.len()
    }
}

#[derive(Debug, Default)]
struct VmThread {
    /// Call stack as indices into the VM's frame arena — frames themselves
    /// never move, so push/pop shuffles 4 bytes instead of whole structs.
    frames: Vec<u32>,
    regs: [i64; NUM_REGS],
    entered: bool,
}

/// Per-method intervention hooks, in plan order (so `find` = the machine's
/// plan-order `find_map`, `sum`/`any` likewise).
#[derive(Debug, Default)]
struct MethodHooks {
    premature: Vec<(InstanceFilter, i64)>,
    force_return: Vec<(InstanceFilter, i64)>,
    force_rand: Vec<(InstanceFilter, i64)>,
    catch: Vec<InstanceFilter>,
    suppress: Vec<InstanceFilter>,
    delay_start: Vec<(InstanceFilter, u64)>,
    delay_end: Vec<(InstanceFilter, u64)>,
    /// `(instance filter of `then`, method that must complete first)`.
    order: Vec<(InstanceFilter, u32)>,
    /// Serialize-lock slots guarding this method, in intervention order.
    injected_slots: Vec<usize>,
}

impl MethodHooks {
    fn clear(&mut self) {
        self.premature.clear();
        self.force_return.clear();
        self.force_rand.clear();
        self.catch.clear();
        self.suppress.clear();
        self.delay_start.clear();
        self.delay_end.clear();
        self.order.clear();
        self.injected_slots.clear();
    }
}

/// Per-channel fault-plane hooks, in plan order (delays sum over matches;
/// drop/duplicate/reorder are any-match — order-insensitive, so pre-indexing
/// preserves the machine's plan-scan semantics exactly).
#[derive(Debug, Default)]
struct ChannelHooks {
    delay: Vec<(InstanceFilter, u64)>,
    drop: Vec<InstanceFilter>,
    dup: Vec<InstanceFilter>,
    reorder: Vec<InstanceFilter>,
}

impl ChannelHooks {
    fn clear(&mut self) {
        self.delay.clear();
        self.drop.clear();
        self.dup.clear();
        self.reorder.clear();
    }
}

/// The plan, pre-indexed by method. Rebuilt in place per run.
#[derive(Debug, Default)]
struct PlanTable {
    methods: Vec<MethodHooks>,
    channels: Vec<ChannelHooks>,
    /// Number of serialize-lock slots the plan defines.
    n_injected: usize,
    /// Fast path: the plan is empty, so every hook lookup is a miss.
    no_hooks: bool,
}

impl PlanTable {
    fn rebuild(&mut self, plan: &InterventionPlan, n_methods: usize, n_channels: usize) {
        self.no_hooks = plan.interventions.is_empty();
        if self.methods.len() < n_methods {
            self.methods.resize_with(n_methods, MethodHooks::default);
        }
        for h in &mut self.methods[..n_methods] {
            h.clear();
        }
        if self.channels.len() < n_channels {
            self.channels.resize_with(n_channels, ChannelHooks::default);
        }
        for h in &mut self.channels[..n_channels] {
            h.clear();
        }
        let mut slot = 0usize;
        for iv in &plan.interventions {
            match iv {
                Intervention::SerializeMethods { a, b } => {
                    self.methods[a.index()].injected_slots.push(slot);
                    if b != a {
                        self.methods[b.index()].injected_slots.push(slot);
                    }
                    slot += 1;
                }
                Intervention::DelayStart {
                    method,
                    instance,
                    ticks,
                } => self.methods[method.index()]
                    .delay_start
                    .push((*instance, *ticks)),
                Intervention::DelayEnd {
                    method,
                    instance,
                    ticks,
                } => self.methods[method.index()]
                    .delay_end
                    .push((*instance, *ticks)),
                Intervention::PrematureReturn {
                    method,
                    instance,
                    value,
                } => self.methods[method.index()]
                    .premature
                    .push((*instance, *value)),
                Intervention::ForceReturn {
                    method,
                    instance,
                    value,
                } => self.methods[method.index()]
                    .force_return
                    .push((*instance, *value)),
                Intervention::CatchException { method, instance } => {
                    self.methods[method.index()].catch.push(*instance)
                }
                Intervention::ForceOrder {
                    first,
                    then,
                    instance,
                } => self.methods[then.index()]
                    .order
                    .push((*instance, first.index() as u32)),
                Intervention::SuppressFlaky { method, instance } => {
                    self.methods[method.index()].suppress.push(*instance)
                }
                Intervention::ForceRand {
                    method,
                    instance,
                    value,
                } => self.methods[method.index()]
                    .force_rand
                    .push((*instance, *value)),
                // A fault on a channel the program doesn't define can never
                // match a send; the machine silently ignores it, so do we.
                Intervention::DelayDelivery {
                    channel,
                    seq,
                    ticks,
                } if channel.index() < n_channels => {
                    self.channels[channel.index()].delay.push((*seq, *ticks))
                }
                Intervention::DropDelivery { channel, seq } if channel.index() < n_channels => {
                    self.channels[channel.index()].drop.push(*seq)
                }
                Intervention::DuplicateDelivery { channel, seq }
                    if channel.index() < n_channels =>
                {
                    self.channels[channel.index()].dup.push(*seq)
                }
                Intervention::ReorderDelivery { channel, seq } if channel.index() < n_channels => {
                    self.channels[channel.index()].reorder.push(*seq)
                }
                Intervention::DelayDelivery { .. }
                | Intervention::DropDelivery { .. }
                | Intervention::DuplicateDelivery { .. }
                | Intervention::ReorderDelivery { .. } => {}
            }
        }
        self.n_injected = slot;
    }
}

/// A reusable bytecode machine. One `Vm` executes any number of runs of any
/// number of programs; arenas are reset in place between runs.
#[derive(Debug)]
pub struct Vm {
    clock: Time,
    shared: Vec<i64>,
    /// Program lock owners (indexed by object id).
    lock_owner: Vec<Option<usize>>,
    /// Injected serialize-lock state: `(owner thread, reentrancy depth)` per
    /// slot.
    injected: Vec<(Option<usize>, u32)>,
    threads: Vec<VmThread>,
    /// Scheduling states, parallel to `threads` — kept contiguous so the
    /// per-tick scheduler scan touches one small array.
    states: Vec<TState>,
    started_instances: Vec<u32>,
    completed_instances: Vec<u32>,
    events: Vec<MethodEvent>,
    /// Per-channel runtime state.
    channels: Vec<VmChan>,
    /// Message events of the current run (sends, deliveries, receives,
    /// drops), in emission order; `Trace::normalize` sorts them.
    msgs: Vec<MsgEvent>,
    /// Per-invariant "has held at some observation point" flag (only
    /// meaningful for `eventually` invariants).
    eventually_ok: Vec<bool>,
    /// `(kind id, origin method index)` of a run-wide failure.
    failure: Option<(KindId, u32)>,
    hooks: PlanTable,
    /// Postfix expression evaluation stack.
    scratch: Vec<i64>,
    /// Scheduler candidate buffer.
    ready_buf: Vec<usize>,
    /// Frame arena; thread stacks hold indices into it.
    frame_arena: Vec<VmFrame>,
    /// Arena slots available for reuse.
    free_frames: Vec<u32>,
    /// Event count of the previous run — pre-sizes `events` so steady-state
    /// runs of the same program do one allocation instead of doubling up.
    events_hint: usize,
    /// Access lists handed back by [`Vm::reclaim`], bucketed by method
    /// index, so a frame of method `m` picks up a list an earlier run of
    /// `m` already sized.
    spare_accesses: Vec<Vec<Vec<AccessEvent>>>,
    /// While true, `pop_frame` (and the premature-return shortcut) log what
    /// they release/complete into the `repair_*` accumulators so the spin
    /// loop can repair its cached ready set incrementally instead of paying
    /// a full rescan.
    track_repair: bool,
    /// Program locks released since the accumulators were last cleared.
    repair_locks: Vec<u32>,
    /// Injected serialize-lock slots freed since last cleared.
    repair_slots: Vec<usize>,
    /// Methods whose completion count grew since last cleared.
    repair_methods: Vec<u32>,
    /// Telemetry: full scheduler rescans this run.
    n_scans: u64,
    /// Telemetry: incremental ready-set repairs that avoided a rescan.
    n_repairs: u64,
    /// Telemetry: scheduler ticks consumed by the last completed run.
    last_steps: u64,
    rng_sched: StdRng,
    rng_prog: StdRng,
}

impl Default for Vm {
    fn default() -> Self {
        Vm::new()
    }
}

impl Vm {
    /// A fresh machine with empty arenas.
    pub fn new() -> Self {
        Vm {
            clock: 0,
            shared: Vec::new(),
            lock_owner: Vec::new(),
            injected: Vec::new(),
            threads: Vec::new(),
            states: Vec::new(),
            started_instances: Vec::new(),
            completed_instances: Vec::new(),
            events: Vec::new(),
            channels: Vec::new(),
            msgs: Vec::new(),
            eventually_ok: Vec::new(),
            failure: None,
            hooks: PlanTable::default(),
            scratch: Vec::new(),
            ready_buf: Vec::new(),
            frame_arena: Vec::new(),
            free_frames: Vec::new(),
            events_hint: 0,
            spare_accesses: Vec::new(),
            track_repair: false,
            repair_locks: Vec::new(),
            repair_slots: Vec::new(),
            repair_methods: Vec::new(),
            n_scans: 0,
            n_repairs: 0,
            last_steps: 0,
            rng_sched: StdRng::seed_from_u64(0),
            rng_prog: StdRng::seed_from_u64(0),
        }
    }

    /// Telemetry of the last run: `(full scheduler rescans, incremental
    /// ready-set repairs)`. A repair is a rescan the spin loop avoided after
    /// an event-dense tick (frame pop / premature return) by patching the
    /// cached ready set in place.
    pub fn sched_telemetry(&self) -> (u64, u64) {
        (self.n_scans, self.n_repairs)
    }

    /// Scheduler ticks consumed by the last completed (non-trapping) run —
    /// the `sim.vm.steps` telemetry source.
    pub fn last_steps(&self) -> u64 {
        self.last_steps
    }

    /// Executes one run. On a trap the partial run is discarded and the VM
    /// stays reusable.
    pub fn run(
        &mut self,
        prog: &CompiledProgram,
        plan: &InterventionPlan,
        config: &SimConfig,
        seed: u64,
    ) -> Result<Trace, VmError> {
        self.reset(prog, plan, seed);
        // Initial observation point: an `always` invariant false over the
        // initial state fails immediately; an `eventually` one may already
        // hold. (Same site as the machine's pre-loop check.)
        if !prog.invariants.is_empty() {
            let init_origin = prog.threads[0].entry;
            if let Err(e) = self.check_invariants(prog, init_origin) {
                self.events.clear();
                self.msgs.clear();
                return Err(e);
            }
        }
        match self.drive(prog, config) {
            Ok(steps) => {
                self.last_steps = steps;
                Ok(self.finish(prog, seed))
            }
            Err(e) => {
                // Quarantine: drop the partial trace; arenas are re-reset by
                // the next run.
                self.events.clear();
                self.msgs.clear();
                Err(e)
            }
        }
    }

    /// Takes back the buffers of a trace this machine produced: the event
    /// and message vectors and every non-empty access list. The next run
    /// fills them instead of allocating its own.
    pub fn reclaim(&mut self, trace: Trace) {
        let Trace {
            mut events,
            mut msgs,
            ..
        } = trace;
        for e in events.drain(..) {
            let mut accesses = e.accesses;
            if accesses.capacity() == 0 {
                continue;
            }
            accesses.clear();
            let m = e.method.index();
            if self.spare_accesses.len() <= m {
                self.spare_accesses.resize_with(m + 1, Vec::new);
            }
            self.spare_accesses[m].push(accesses);
        }
        if events.capacity() > self.events.capacity() {
            self.events = events;
        }
        msgs.clear();
        if msgs.capacity() > self.msgs.capacity() {
            self.msgs = msgs;
        }
    }

    /// Gives frame `fi` (of `method`) room for `n` accesses, from a spare
    /// list of the same method when the frame has none of its own.
    fn arm_accesses(&mut self, fi: u32, method: u32, n: usize) {
        if n == 0 {
            return;
        }
        let accesses = &mut self.frame_arena[fi as usize].accesses;
        if accesses.capacity() == 0 {
            if let Some(spare) = self
                .spare_accesses
                .get_mut(method as usize)
                .and_then(Vec::pop)
            {
                *accesses = spare;
            }
        }
        accesses.reserve(n);
    }

    fn reset(&mut self, prog: &CompiledProgram, plan: &InterventionPlan, seed: u64) {
        self.clock = 0;
        self.failure = None;
        self.shared.clear();
        self.shared.extend_from_slice(&prog.objects_init);
        self.lock_owner.clear();
        self.lock_owner.resize(prog.objects_init.len(), None);
        self.hooks
            .rebuild(plan, prog.methods.len(), prog.channels.len());
        self.injected.clear();
        self.injected.resize(self.hooks.n_injected, (None, 0));
        for t in &mut self.threads {
            t.frames.clear();
        }
        self.free_frames.clear();
        self.free_frames
            .extend((0..self.frame_arena.len() as u32).rev());
        if self.threads.len() > prog.threads.len() {
            self.threads.truncate(prog.threads.len());
        }
        while self.threads.len() < prog.threads.len() {
            self.threads.push(VmThread::default());
        }
        self.states.clear();
        for spec in &prog.threads {
            self.states.push(if spec.auto_start {
                TState::Ready
            } else {
                TState::NotStarted
            });
        }
        for t in &mut self.threads {
            t.regs = [0; NUM_REGS];
            t.entered = false;
        }
        self.started_instances.clear();
        self.started_instances.resize(prog.methods.len(), 0);
        self.completed_instances.clear();
        self.completed_instances.resize(prog.methods.len(), 0);
        self.channels.truncate(prog.channels.len());
        while self.channels.len() < prog.channels.len() {
            self.channels.push(VmChan::default());
        }
        for ch in &mut self.channels {
            ch.transit.clear();
            ch.mailbox.clear();
            ch.next_seq = 0;
        }
        self.msgs.clear();
        self.eventually_ok.clear();
        self.eventually_ok.resize(prog.invariants.len(), false);
        self.track_repair = false;
        self.n_scans = 0;
        self.n_repairs = 0;
        self.events.clear();
        self.events.reserve(self.events_hint);
        if self.scratch.capacity() < prog.max_eval_depth {
            self.scratch
                .reserve(prog.max_eval_depth - self.scratch.capacity());
        }
        self.rng_sched = StdRng::seed_from_u64(seed);
        self.rng_prog = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    }

    /// The machine's main loop. Tick-for-tick equivalent to the tree walk,
    /// with one structural optimization: scan-free spinning. After a real
    /// scheduling scan, as long as every tick is a pure burn/end-delay
    /// decrement, nothing outside the ready set can change — shared objects,
    /// locks, and instance counters are all frozen — so the scan result
    /// stays valid and subsequent picks draw directly from the cached ready
    /// buffer. The spin stops at the first tick that executes an actual
    /// instruction (which can change the world), when the clock reaches a
    /// sleeper's wake time, or when a blocked wait condition reads the clock
    /// (`uses_now`, flagged at compile time). Every skipped scan still
    /// consumes its scheduler draw, so the RNG stream — and therefore the
    /// trace — stays bit-identical to the tree walk.
    fn drive(&mut self, prog: &CompiledProgram, config: &SimConfig) -> Result<u64, VmError> {
        let mut steps: u64 = 0;
        'scan: loop {
            if self.failure.is_some() {
                return Ok(steps);
            }
            if self.states.iter().all(|s| *s == TState::Done) {
                return Ok(steps);
            }
            let Some(mut tid) = self.pick_thread(prog) else {
                if self.release_liveness_valve() {
                    continue;
                }
                self.fail_all(prog, KIND_DEADLOCK)?;
                return Ok(steps);
            };
            // Sleepers bound how far the clock may advance before a rescan;
            // time-dependent wait conditions forbid spinning outright.
            // Channel programs forbid it too: the machine pumps deliveries
            // at every scheduling decision, so every tick must come back
            // through `pick_thread` for the clock/draw sequences to match.
            let mut wake_limit = Time::MAX;
            let mut can_spin = prog.channels.is_empty();
            for s in &self.states {
                match *s {
                    TState::Sleeping(until) => wake_limit = wake_limit.min(until),
                    TState::BlockedWait(cond) if cond.uses_now => can_spin = false,
                    _ => {}
                }
            }
            loop {
                // Single runnable thread: its whole decrement run batches
                // into one update, and the skipped draws are discard-only
                // loops the compiler strength-reduces into an O(1) RNG
                // fast-forward (SplitMix64 advances by a constant add).
                if can_spin && self.ready_buf.len() == 1 {
                    let limit = (config.max_steps - steps).min(wake_limit - self.clock);
                    let k = self.bulk_ticks(tid, limit);
                    if k > 0 {
                        steps += k;
                        if steps >= config.max_steps {
                            // Draws for the skipped picks, so the stream
                            // state matches the machine's even at death.
                            for _ in 1..k {
                                self.rng_sched.random_range(0..1usize);
                            }
                            self.fail_all(prog, KIND_TIMEOUT)?;
                            return Ok(steps);
                        }
                        if self.clock >= wake_limit {
                            for _ in 1..k {
                                self.rng_sched.random_range(0..1usize);
                            }
                            continue 'scan;
                        }
                        // Skipped picks plus the next tick's pick — all of
                        // which can only choose this thread again.
                        for _ in 0..k {
                            self.rng_sched.random_range(0..1usize);
                        }
                        continue;
                    }
                }
                if self.fast_tick(tid) {
                    steps += 1;
                    if steps >= config.max_steps {
                        self.fail_all(prog, KIND_TIMEOUT)?;
                        return Ok(steps);
                    }
                } else if can_spin && self.scan_preserving(prog, tid) {
                    // A real instruction, but one that cannot silently wake
                    // another thread. Step it and keep spinning — unless the
                    // post-checks say the world changed: the thread left
                    // Ready (blocked, slept, finished), or a frame closed
                    // (`pop_frame` and the premature-return shortcut release
                    // locks and bump completion counters; both record a
                    // `MethodEvent`, so the event count is an exact tripwire).
                    // An event-dense tick with the thread still Ready is
                    // repaired incrementally: the accumulators name exactly
                    // which locks/slots/completions changed, so the cached
                    // ready set is patched in place instead of rescanned.
                    let events_before = self.events.len();
                    self.track_repair = true;
                    self.repair_locks.clear();
                    self.repair_slots.clear();
                    self.repair_methods.clear();
                    let stepped = self.step(prog, tid);
                    self.track_repair = false;
                    stepped?;
                    steps += 1;
                    if steps >= config.max_steps {
                        self.fail_all(prog, KIND_TIMEOUT)?;
                        return Ok(steps);
                    }
                    if self.states[tid] != TState::Ready {
                        continue 'scan;
                    }
                    if self.events.len() != events_before {
                        self.repair_ready_set();
                        self.n_repairs += 1;
                    }
                } else {
                    self.step(prog, tid)?;
                    steps += 1;
                    if steps >= config.max_steps {
                        self.fail_all(prog, KIND_TIMEOUT)?;
                        return Ok(steps);
                    }
                    continue 'scan;
                }
                if !can_spin || self.clock >= wake_limit {
                    continue 'scan;
                }
                let i = self.rng_sched.random_range(0..self.ready_buf.len());
                tid = self.ready_buf[i];
            }
        }
    }

    /// Batches up to `limit` consecutive pure-decrement ticks of `tid`'s
    /// top frame into one update, returning how many were consumed (0 when
    /// the next tick is not a decrement). Only valid when `tid` is the
    /// sole runnable thread — the caller accounts for the skipped
    /// scheduler draws.
    #[inline]
    fn bulk_ticks(&mut self, tid: usize, limit: u64) -> u64 {
        let th = &self.threads[tid];
        if !th.entered {
            return 0;
        }
        let Some(&fi) = th.frames.last() else {
            return 0;
        };
        let f = &mut self.frame_arena[fi as usize];
        if !f.pending_done() {
            return 0;
        }
        let k = if f.burn > 0 {
            let k = f.burn.min(limit);
            f.burn -= k;
            k
        } else if f.in_epilogue && f.end_delay > 0 {
            let k = f.end_delay.min(limit);
            f.end_delay -= k;
            k
        } else {
            return 0;
        };
        self.clock += k;
        k
    }

    /// Executes the tick if it is a pure decrement of `tid`'s top frame —
    /// an in-progress burn or epilogue end-delay — and returns whether it
    /// was. Mirrors exactly the first decrement branches of [`Vm::step`];
    /// any other kind of tick returns `false` untouched so the caller runs
    /// the full step.
    #[inline]
    fn fast_tick(&mut self, tid: usize) -> bool {
        let th = &self.threads[tid];
        if !th.entered {
            return false;
        }
        let Some(&fi) = th.frames.last() else {
            return false;
        };
        let f = &mut self.frame_arena[fi as usize];
        if !f.pending_done() {
            return false;
        }
        if f.burn > 0 {
            f.burn -= 1;
        } else if f.in_epilogue && f.end_delay > 0 {
            f.end_delay -= 1;
        } else {
            return false;
        }
        self.clock += 1;
        true
    }

    /// Whether `tid`'s next tick can execute without invalidating the cached
    /// scheduler scan. True when the tick is an ordinary instruction other
    /// than the three that wake other threads *without* tripping the spin
    /// loop's post-checks: `Write` (can flip a `BlockedWait` condition),
    /// `Spawn` (readies a `NotStarted` thread), and `Release` (frees a lock
    /// a `BlockedLock` thread is waiting on). Everything else either touches
    /// only the stepping thread's own frame/registers, moves the thread out
    /// of `Ready` (caught after the step), or closes a frame — and every
    /// frame close records a `MethodEvent`, which the caller also checks.
    /// A successful `Acquire` is safe precisely because the previous scan
    /// woke every thread blocked on a then-free lock, so no thread can still
    /// be parked on the lock this tick acquires.
    #[inline]
    fn scan_preserving(&self, prog: &CompiledProgram, tid: usize) -> bool {
        let th = &self.threads[tid];
        if !th.entered {
            return false;
        }
        let Some(&fi) = th.frames.last() else {
            return false;
        };
        let f = &self.frame_arena[fi as usize];
        if !f.pending_done() || f.burn > 0 || f.in_epilogue {
            return false;
        }
        let m = &prog.methods[f.method as usize];
        if f.pc >= m.code_len {
            // Epilogue entry: sets a flag, or pops (then the event tripwire
            // forces the rescan).
            return true;
        }
        // `Send`/`Recv` are excluded for safety, though unreachable here:
        // channel programs run with `can_spin = false`.
        !matches!(
            prog.code[(m.code_start + f.pc) as usize],
            Instr::Write { .. }
                | Instr::Spawn { .. }
                | Instr::Release { .. }
                | Instr::Send { .. }
                | Instr::Recv { .. }
        )
    }

    /// Delivers every in-transit message that has come due, in
    /// `(deliver_at, channel, seq, dup)` order — the VM's copy of the
    /// machine's pump, run at every scheduling decision.
    fn pump(&mut self) {
        if self.channels.is_empty() {
            return;
        }
        loop {
            let mut best: Option<(Time, usize, u32, bool, usize)> = None;
            for ci in 0..self.channels.len() {
                for (i, m) in self.channels[ci].transit.iter().enumerate() {
                    if m.deliver_at <= self.clock {
                        let key = (m.deliver_at, ci, m.seq, m.dup);
                        if best.map_or(true, |(t, c, s, d, _)| key < (t, c, s, d)) {
                            best = Some((m.deliver_at, ci, m.seq, m.dup, i));
                        }
                    }
                }
            }
            let Some((_, ci, _, _, idx)) = best else {
                break;
            };
            let msg = self.channels[ci].transit.remove(idx);
            self.msgs.push(MsgEvent {
                channel: ChannelId::from_raw(ci as u32),
                kind: MsgKind::Deliver,
                seq: msg.seq,
                value: msg.value,
                sent: msg.sent,
                at: msg.deliver_at,
                thread: ThreadId::from_raw(msg.sender),
                dup: msg.dup,
            });
            self.channels[ci].mailbox.push_back(msg);
        }
    }

    /// Patches the cached ready set after an event-dense spin tick (frame
    /// pop / premature return) using the `repair_*` accumulators, waking
    /// exactly the threads a full rescan would wake. Insertion keeps
    /// `ready_buf` tid-ascending, so the next scheduler draw indexes the
    /// same candidate list the machine's scan would build.
    fn repair_ready_set(&mut self) {
        if self.repair_locks.is_empty()
            && self.repair_slots.is_empty()
            && self.repair_methods.is_empty()
        {
            return;
        }
        for tid in 0..self.states.len() {
            let wake = match self.states[tid] {
                TState::BlockedLock(lock) => {
                    self.repair_locks.contains(&lock) && self.lock_owner[lock as usize].is_none()
                }
                TState::BlockedInjectedLock(slot) => {
                    self.repair_slots.contains(&slot) && {
                        let (owner, _) = self.injected[slot];
                        owner.is_none() || owner == Some(tid)
                    }
                }
                TState::BlockedOrder(first) => {
                    self.repair_methods.contains(&first)
                        && self.completed_instances[first as usize] > 0
                }
                _ => false,
            };
            if wake {
                self.states[tid] = TState::Ready;
                let pos = self.ready_buf.partition_point(|&t| t < tid);
                if self.ready_buf.get(pos) != Some(&tid) {
                    self.ready_buf.insert(pos, tid);
                }
            }
        }
    }

    /// Scheduling decision; the machine's recursion on an all-sleeping
    /// quiescent state becomes a loop.
    fn pick_thread(&mut self, prog: &CompiledProgram) -> Option<usize> {
        loop {
            self.pump();
            self.n_scans += 1;
            self.ready_buf.clear();
            let mut min_wake: Option<Time> = None;
            for tid in 0..self.states.len() {
                match self.states[tid] {
                    TState::Ready => self.ready_buf.push(tid),
                    TState::Sleeping(until) => {
                        if self.clock >= until {
                            self.states[tid] = TState::Ready;
                            self.ready_buf.push(tid);
                        } else {
                            min_wake = Some(min_wake.map_or(until, |m: Time| m.min(until)));
                        }
                    }
                    TState::BlockedLock(lock) => {
                        if self.lock_owner[lock as usize].is_none() {
                            self.states[tid] = TState::Ready;
                            self.ready_buf.push(tid);
                        }
                    }
                    TState::BlockedInjectedLock(slot) => {
                        let (owner, _) = self.injected[slot];
                        if owner.is_none() || owner == Some(tid) {
                            self.states[tid] = TState::Ready;
                            self.ready_buf.push(tid);
                        }
                    }
                    TState::BlockedJoin(target) => {
                        if self.states[target] == TState::Done {
                            self.states[tid] = TState::Ready;
                            self.ready_buf.push(tid);
                        }
                    }
                    TState::BlockedWait(cond) => {
                        if self.eval_cond(prog, tid, cond) {
                            self.states[tid] = TState::Ready;
                            self.ready_buf.push(tid);
                        }
                    }
                    TState::BlockedOrder(first) => {
                        if self.completed_instances[first as usize] > 0 {
                            self.states[tid] = TState::Ready;
                            self.ready_buf.push(tid);
                        }
                    }
                    TState::BlockedSend(chan) => {
                        let def_cap = prog.channels[chan as usize].capacity;
                        let ch = &self.channels[chan as usize];
                        let occupancy = ch.transit.len() + ch.mailbox.len();
                        if def_cap.map_or(true, |c| occupancy < c as usize) {
                            self.states[tid] = TState::Ready;
                            self.ready_buf.push(tid);
                        }
                    }
                    TState::BlockedRecv { chan, deadline } => {
                        if !self.channels[chan as usize].mailbox.is_empty()
                            || self.clock >= deadline
                        {
                            self.states[tid] = TState::Ready;
                            self.ready_buf.push(tid);
                        } else if deadline != Time::MAX {
                            min_wake = Some(min_wake.map_or(deadline, |m: Time| m.min(deadline)));
                        }
                    }
                    TState::NotStarted | TState::Done => {}
                }
            }
            if self.ready_buf.is_empty() {
                // In-transit deliveries are wake events too (all strictly in
                // the future here — the pump already delivered what was due).
                for ch in &self.channels {
                    for m in &ch.transit {
                        min_wake =
                            Some(min_wake.map_or(m.deliver_at, |w: Time| w.min(m.deliver_at)));
                    }
                }
                if let Some(wake) = min_wake {
                    // Everyone is asleep: jump time forward and retry.
                    self.clock = wake;
                    continue;
                }
                return None;
            }
            let i = self.rng_sched.random_range(0..self.ready_buf.len());
            return Some(self.ready_buf[i]);
        }
    }

    fn release_liveness_valve(&mut self) -> bool {
        for tid in 0..self.threads.len() {
            match self.states[tid] {
                TState::BlockedWait(_) => {
                    // Skip past the WaitUntil instruction.
                    if let Some(&fi) = self.threads[tid].frames.last() {
                        self.frame_arena[fi as usize].pc += 1;
                    }
                    self.states[tid] = TState::Ready;
                    return true;
                }
                TState::BlockedOrder(_) => {
                    self.states[tid] = TState::Ready;
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    fn step(&mut self, prog: &CompiledProgram, tid: usize) -> Result<(), VmError> {
        self.clock += 1;
        // Lazily enter the thread's root method on first schedule.
        if !self.threads[tid].entered {
            self.threads[tid].entered = true;
            let entry = prog.threads[tid].entry;
            self.push_frame(prog, tid, entry, false)?;
            return Ok(());
        }

        if let Some(&fi) = self.threads[tid].frames.last() {
            let frame = &mut self.frame_arena[fi as usize];
            // Pending injected-lock acquisitions at method entry.
            if !frame.pending_done() {
                let slot = frame.pending_injected[frame.pending_head];
                let (owner, depth) = &mut self.injected[slot];
                match owner {
                    None => {
                        *owner = Some(tid);
                        *depth = 1;
                        frame.pending_head += 1;
                        frame.injected_locks.push(slot);
                    }
                    Some(o) if *o == tid => {
                        *depth += 1;
                        frame.pending_head += 1;
                        frame.injected_locks.push(slot);
                    }
                    Some(_) => {
                        self.states[tid] = TState::BlockedInjectedLock(slot);
                    }
                }
                return Ok(());
            }
            // In-progress burn (compute/delay).
            if frame.burn > 0 {
                frame.burn -= 1;
                return Ok(());
            }
            if frame.in_epilogue {
                if frame.end_delay > 0 {
                    frame.end_delay -= 1;
                    return Ok(());
                }
                self.pop_frame(prog, tid, None)?;
                return Ok(());
            }
        } else {
            // Root frame popped: thread is done.
            self.states[tid] = TState::Done;
            return Ok(());
        }

        let clock = self.clock;
        let frame = self.top_mut(tid);
        let m = prog.methods[frame.method as usize];
        if frame.pc >= m.code_len {
            // Fell off the end: enter epilogue.
            self.enter_epilogue(prog, tid)?;
            return Ok(());
        }
        let instr = prog.code[(m.code_start + frame.pc) as usize];
        if !frame.started {
            frame.started = true;
            frame.start = clock;
        }
        self.exec(prog, tid, instr)?;
        // Same-tick pop: if the instruction we just ran was the frame's last
        // and it neither pushed a callee nor blocked, close the frame now so
        // the method's window ends exactly at its final operation.
        if self.states[tid] == TState::Ready {
            if let Some(&fi) = self.threads[tid].frames.last() {
                let f = &self.frame_arena[fi as usize];
                let done = !f.in_epilogue
                    && f.burn == 0
                    && f.pending_done()
                    && f.pc >= prog.methods[f.method as usize].code_len;
                if done {
                    self.enter_epilogue(prog, tid)?;
                }
            }
        }
        Ok(())
    }

    fn exec(&mut self, prog: &CompiledProgram, tid: usize, instr: Instr) -> Result<(), VmError> {
        match instr {
            Instr::Read { object, reg } => {
                let v = self.shared[object as usize];
                self.threads[tid].regs[reg as usize] = v;
                self.record_access(tid, object, AccessKind::Read);
                self.advance(tid);
            }
            Instr::Write { object, value } => {
                let v = self.eval(prog, tid, value);
                self.shared[object as usize] = v;
                self.record_access(tid, object, AccessKind::Write);
                let origin = self.top(tid).method;
                self.check_invariants(prog, origin)?;
                self.advance(tid);
            }
            Instr::ThrowIfObj {
                object,
                cmp,
                rhs,
                kind,
            } => {
                let v = self.shared[object as usize];
                self.record_access(tid, object, AccessKind::Read);
                let r = self.eval(prog, tid, rhs);
                if cmp.eval(v, r) {
                    self.raise(prog, tid, kind)?;
                } else {
                    self.advance(tid);
                }
            }
            Instr::Compute { cost } => {
                let f = self.top_mut(tid);
                f.burn = cost.saturating_sub(1);
                self.advance(tid);
            }
            Instr::JitterCompute { min, max } => {
                let total = if max > min {
                    self.rng_sched.random_range(min..=max)
                } else {
                    min
                };
                let f = self.top_mut(tid);
                f.burn = total.saturating_sub(1);
                self.advance(tid);
            }
            Instr::FlakyDelay { prob, ticks } => {
                let (method, instance) = {
                    let f = self.top(tid);
                    (f.method, f.instance)
                };
                let suppressed = !self.hooks.no_hooks
                    && self.hooks.methods[method as usize]
                        .suppress
                        .iter()
                        .any(|f| f.matches(instance));
                if !suppressed && self.rng_prog.random_bool(prob.clamp(0.0, 1.0)) {
                    let f = self.top_mut(tid);
                    f.burn = ticks.saturating_sub(1);
                }
                self.advance(tid);
            }
            Instr::LocalSet { reg, value } => {
                let v = self.eval(prog, tid, value);
                self.threads[tid].regs[reg as usize] = v;
                self.advance(tid);
            }
            Instr::SetIf {
                reg,
                cond,
                then_value,
                else_value,
            } => {
                let v = if self.eval_cond(prog, tid, cond) {
                    self.eval(prog, tid, then_value)
                } else {
                    self.eval(prog, tid, else_value)
                };
                self.threads[tid].regs[reg as usize] = v;
                self.advance(tid);
            }
            Instr::ComputeIf { cond, cost } => {
                if self.eval_cond(prog, tid, cond) {
                    let f = self.top_mut(tid);
                    f.burn = cost.saturating_sub(1);
                }
                self.advance(tid);
            }
            Instr::RandRange { reg, lo, hi } => {
                let (method, instance) = {
                    let f = self.top(tid);
                    (f.method, f.instance)
                };
                let forced = if self.hooks.no_hooks {
                    None
                } else {
                    self.hooks.methods[method as usize]
                        .force_rand
                        .iter()
                        .find(|(f, _)| f.matches(instance))
                        .map(|&(_, v)| v)
                };
                let v = match forced {
                    Some(v) => v,
                    None => self.rng_prog.random_range(lo..=hi),
                };
                self.threads[tid].regs[reg as usize] = v;
                self.advance(tid);
            }
            Instr::Call { method } => {
                self.advance(tid);
                self.push_frame(prog, tid, method, false)?;
            }
            Instr::TryCall { method } => {
                self.advance(tid);
                self.push_frame(prog, tid, method, true)?;
            }
            Instr::Return { value } => {
                let v = value.map(|e| self.eval(prog, tid, e));
                let f = self.top_mut(tid);
                f.returned = v;
                self.enter_epilogue(prog, tid)?;
            }
            Instr::Throw { kind } => self.raise(prog, tid, kind)?,
            Instr::ThrowIf { cond, kind } => {
                if self.eval_cond(prog, tid, cond) {
                    self.raise(prog, tid, kind)?;
                } else {
                    self.advance(tid);
                }
            }
            Instr::Spawn { thread } => {
                let thread = thread as usize;
                if self.states[thread] != TState::NotStarted {
                    return Err(VmError::SpawnTwice { thread });
                }
                self.states[thread] = TState::Ready;
                self.advance(tid);
            }
            Instr::Join { thread } => {
                if self.states[thread as usize] == TState::Done {
                    self.advance(tid);
                } else {
                    self.states[tid] = TState::BlockedJoin(thread as usize);
                }
            }
            Instr::Acquire { lock } => {
                if self.lock_owner[lock as usize].is_none() {
                    self.lock_owner[lock as usize] = Some(tid);
                    let f = self.top_mut(tid);
                    f.program_locks.push(lock);
                    self.advance(tid);
                } else {
                    self.states[tid] = TState::BlockedLock(lock);
                }
            }
            Instr::Release { lock } => {
                if self.lock_owner[lock as usize] != Some(tid) {
                    return Err(VmError::ReleaseUnowned {
                        lock: prog.object_names[lock as usize].clone(),
                    });
                }
                self.lock_owner[lock as usize] = None;
                let f = self.top_mut(tid);
                f.program_locks.retain(|&l| l != lock);
                self.advance(tid);
            }
            Instr::Sleep { ticks } => {
                self.states[tid] = TState::Sleeping(self.clock + ticks);
                self.advance(tid);
            }
            Instr::WaitUntil { cond } => {
                if self.eval_cond(prog, tid, cond) {
                    self.advance(tid);
                } else {
                    self.states[tid] = TState::BlockedWait(cond);
                }
            }
            Instr::Send {
                channel,
                value,
                guard,
            } => {
                // Guard first: a false guard skips the send entirely — no
                // event, no latency draw, no capacity check.
                if let Some(g) = guard {
                    if !self.eval_cond(prog, tid, g) {
                        self.advance(tid);
                        return Ok(());
                    }
                }
                let ci = channel as usize;
                let def = prog.channels[ci];
                if let Some(cap) = def.capacity {
                    let occupancy =
                        self.channels[ci].transit.len() + self.channels[ci].mailbox.len();
                    if occupancy >= cap as usize {
                        // Full: block; the instruction re-executes (guard
                        // included) when a receive frees a slot.
                        self.states[tid] = TState::BlockedSend(channel);
                        return Ok(());
                    }
                }
                let v = self.eval(prog, tid, value);
                let latency = if def.latency_max > def.latency_min {
                    self.rng_sched
                        .random_range(def.latency_min..=def.latency_max)
                } else {
                    def.latency_min
                };
                let seq = self.channels[ci].next_seq;
                self.channels[ci].next_seq += 1;
                let mut deliver_at = self.clock + latency;
                // Fault plane, resolved at send time: delays sum, drop wins
                // over duplicate.
                let mut dropped = false;
                let mut duplicate = false;
                let mut reorder_prev = false;
                if !self.hooks.no_hooks {
                    let ch_hooks = &self.hooks.channels[ci];
                    deliver_at += ch_hooks
                        .delay
                        .iter()
                        .filter(|(f, _)| f.matches(seq))
                        .map(|&(_, t)| t)
                        .sum::<u64>();
                    dropped = ch_hooks.drop.iter().any(|f| f.matches(seq));
                    duplicate = ch_hooks.dup.iter().any(|f| f.matches(seq));
                    reorder_prev = seq > 0 && ch_hooks.reorder.iter().any(|f| f.matches(seq - 1));
                }
                let sender_method = self.top(tid).method;
                self.msgs.push(MsgEvent {
                    channel: ChannelId::from_raw(channel),
                    kind: MsgKind::Send,
                    seq,
                    value: v,
                    sent: self.clock,
                    at: self.clock,
                    thread: ThreadId::from_raw(tid as u32),
                    dup: false,
                });
                if dropped {
                    self.msgs.push(MsgEvent {
                        channel: ChannelId::from_raw(channel),
                        kind: MsgKind::Drop,
                        seq,
                        value: v,
                        sent: self.clock,
                        at: self.clock,
                        thread: ThreadId::from_raw(tid as u32),
                        dup: false,
                    });
                } else {
                    self.channels[ci].transit.push(VmMsg {
                        seq,
                        value: v,
                        sent: self.clock,
                        deliver_at,
                        sender: tid as u32,
                        dup: false,
                    });
                    if duplicate {
                        self.channels[ci].transit.push(VmMsg {
                            seq,
                            value: v,
                            sent: self.clock,
                            deliver_at: deliver_at + 1,
                            sender: tid as u32,
                            dup: true,
                        });
                    }
                    if reorder_prev {
                        // Minimal pairwise reorder: push the predecessor's
                        // delivery one past this message's (if it is still
                        // in transit to be reordered at all).
                        let push_past = deliver_at + 1;
                        if let Some(prev) = self.channels[ci]
                            .transit
                            .iter_mut()
                            .find(|m| m.seq == seq - 1 && !m.dup)
                        {
                            prev.deliver_at = prev.deliver_at.max(push_past);
                        }
                    }
                }
                let obj = (prog.objects_init.len() + ci) as u32;
                self.record_access(tid, obj, AccessKind::Write);
                self.check_invariants(prog, sender_method)?;
                self.advance(tid);
            }
            Instr::Recv {
                channel,
                reg,
                timeout,
            } => {
                let ci = channel as usize;
                if let Some(msg) = self.channels[ci].mailbox.pop_front() {
                    self.threads[tid].regs[reg as usize] = msg.value;
                    self.msgs.push(MsgEvent {
                        channel: ChannelId::from_raw(channel),
                        kind: MsgKind::Recv,
                        seq: msg.seq,
                        value: msg.value,
                        sent: msg.sent,
                        at: self.clock,
                        thread: ThreadId::from_raw(tid as u32),
                        dup: msg.dup,
                    });
                    let obj = (prog.objects_init.len() + ci) as u32;
                    self.record_access(tid, obj, AccessKind::Read);
                    let f = self.top_mut(tid);
                    f.recv_deadline = None;
                    let origin = f.method;
                    self.check_invariants(prog, origin)?;
                    self.advance(tid);
                } else {
                    let dl = self.top(tid).recv_deadline;
                    match dl {
                        None => {
                            // First execution: arm the deadline and block.
                            let deadline = if timeout == 0 {
                                Time::MAX
                            } else {
                                self.clock + timeout
                            };
                            self.top_mut(tid).recv_deadline = Some(deadline);
                            self.states[tid] = TState::BlockedRecv {
                                chan: channel,
                                deadline,
                            };
                        }
                        Some(d) if self.clock >= d => {
                            // Timed out: -1 sentinel, no event, no access.
                            self.top_mut(tid).recv_deadline = None;
                            self.threads[tid].regs[reg as usize] = -1;
                            self.advance(tid);
                        }
                        Some(d) => {
                            // Woken spuriously (another receiver drained the
                            // delivery first): re-block until the deadline.
                            self.states[tid] = TState::BlockedRecv {
                                chan: channel,
                                deadline: d,
                            };
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn advance(&mut self, tid: usize) {
        if let Some(&fi) = self.threads[tid].frames.last() {
            self.frame_arena[fi as usize].pc += 1;
        }
    }

    /// The thread's innermost frame.
    #[inline]
    fn top(&self, tid: usize) -> &VmFrame {
        let fi = *self.threads[tid].frames.last().expect("no frame") as usize;
        &self.frame_arena[fi]
    }

    /// The thread's innermost frame, mutably.
    #[inline]
    fn top_mut(&mut self, tid: usize) -> &mut VmFrame {
        let fi = *self.threads[tid].frames.last().expect("no frame") as usize;
        &mut self.frame_arena[fi]
    }

    /// Claims an arena slot (recycled if available).
    #[inline]
    fn alloc_frame(&mut self) -> u32 {
        match self.free_frames.pop() {
            Some(fi) => fi,
            None => {
                self.frame_arena.push(VmFrame::default());
                (self.frame_arena.len() - 1) as u32
            }
        }
    }

    /// Pushes a frame for `method`, applying entry interventions.
    fn push_frame(
        &mut self,
        prog: &CompiledProgram,
        tid: usize,
        method: u32,
        caller_catches: bool,
    ) -> Result<(), VmError> {
        let instance = self.started_instances[method as usize];
        self.started_instances[method as usize] += 1;
        if self.hooks.no_hooks {
            let clock = self.clock;
            let fi = self.alloc_frame();
            self.frame_arena[fi as usize].reinit(method, instance, clock, 0, caller_catches, 0);
            self.arm_accesses(
                fi,
                method,
                prog.methods[method as usize].n_accesses as usize,
            );
            self.threads[tid].frames.push(fi);
            return Ok(());
        }
        let hooks = &self.hooks.methods[method as usize];

        // Premature return: the body never runs.
        let premature = hooks
            .premature
            .iter()
            .find(|(f, _)| f.matches(instance))
            .map(|&(_, v)| v);
        if let Some(value) = premature {
            let m = prog.methods[method as usize];
            if !m.pure {
                return Err(VmError::PrematureReturnImpure {
                    method: prog.method_names[method as usize].clone(),
                });
            }
            if let Some(reg) = m.ret_reg {
                self.threads[tid].regs[reg as usize] = value;
            }
            self.events.push(MethodEvent {
                method: MethodId::from_raw(method),
                instance,
                thread: ThreadId::from_raw(tid as u32),
                start: self.clock,
                end: self.clock,
                accesses: vec![],
                returned: Some(value),
                exception: None,
                caught: false,
            });
            self.completed_instances[method as usize] += 1;
            if self.track_repair {
                self.repair_methods.push(method);
            }
            return Ok(());
        }

        let catch_injected = hooks.catch.iter().any(|f| f.matches(instance));
        let delay_start: u64 = hooks
            .delay_start
            .iter()
            .filter(|(f, _)| f.matches(instance))
            .map(|&(_, t)| t)
            .sum();
        let delay_end: u64 = hooks
            .delay_end
            .iter()
            .filter(|(f, _)| f.matches(instance))
            .map(|&(_, t)| t)
            .sum();
        // Forced ordering holds the start back until `first` completed.
        let order_block = hooks
            .order
            .iter()
            .find(|(f, _)| f.matches(instance))
            .map(|&(_, first)| first);

        let clock = self.clock;
        let fi = self.alloc_frame();
        let frame = &mut self.frame_arena[fi as usize];
        frame.reinit(
            method,
            instance,
            clock,
            delay_start,
            caller_catches || catch_injected,
            delay_end,
        );
        frame
            .pending_injected
            .extend_from_slice(&self.hooks.methods[method as usize].injected_slots);
        // The access list escapes into the trace, so it comes from the
        // reclaimed spares rather than the frame arena.
        self.arm_accesses(
            fi,
            method,
            prog.methods[method as usize].n_accesses as usize,
        );
        self.threads[tid].frames.push(fi);

        if let Some(first) = order_block {
            if self.completed_instances[first as usize] == 0 {
                self.states[tid] = TState::BlockedOrder(first);
            }
        }
        Ok(())
    }

    fn enter_epilogue(&mut self, prog: &CompiledProgram, tid: usize) -> Result<(), VmError> {
        let f = self.top_mut(tid);
        f.in_epilogue = true;
        f.burn = 0;
        if f.end_delay == 0 {
            self.pop_frame(prog, tid, None)?;
        }
        Ok(())
    }

    /// Pops the top frame, recording its event. `exception` carries an
    /// unwinding exception kind; returns whether it was caught here.
    fn pop_frame(
        &mut self,
        prog: &CompiledProgram,
        tid: usize,
        exception: Option<KindId>,
    ) -> Result<bool, VmError> {
        let fi = self.threads[tid].frames.pop().expect("pop with no frame");
        let clock = self.clock;
        let frame = &mut self.frame_arena[fi as usize];
        if !frame.started {
            frame.start = clock;
        }
        // Scoped cleanup: program locks, injected locks.
        for lock in frame.program_locks.drain(..) {
            if self.lock_owner[lock as usize] == Some(tid) {
                self.lock_owner[lock as usize] = None;
                if self.track_repair {
                    self.repair_locks.push(lock);
                }
            }
        }
        for slot in frame.injected_locks.drain(..) {
            let (owner, depth) = &mut self.injected[slot];
            if *owner == Some(tid) {
                *depth -= 1;
                if *depth == 0 {
                    *owner = None;
                    if self.track_repair {
                        self.repair_slots.push(slot);
                    }
                }
            }
        }
        // Return-value alteration.
        let mut returned = frame.returned;
        let forced = if self.hooks.no_hooks {
            None
        } else {
            self.hooks.methods[frame.method as usize]
                .force_return
                .iter()
                .find(|(f, _)| f.matches(frame.instance))
                .map(|&(_, v)| v)
        };
        if let Some(v) = forced {
            let m = prog.methods[frame.method as usize];
            if !m.pure {
                return Err(VmError::ForceReturnImpure {
                    method: prog.method_names[frame.method as usize].clone(),
                });
            }
            returned = Some(v);
            if let Some(reg) = m.ret_reg {
                self.threads[tid].regs[reg as usize] = v;
            }
        }
        let caught = exception.is_some() && frame.catch_boundary;
        self.events.push(MethodEvent {
            method: MethodId::from_raw(frame.method),
            instance: frame.instance,
            thread: ThreadId::from_raw(tid as u32),
            start: frame.start,
            end: clock,
            accesses: std::mem::take(&mut frame.accesses),
            returned,
            exception: exception.map(|k| prog.kinds[k as usize].clone()),
            caught,
        });
        self.completed_instances[frame.method as usize] += 1;
        if self.track_repair {
            self.repair_methods.push(frame.method);
        }
        if self.threads[tid].frames.is_empty() && exception.is_none() {
            self.states[tid] = TState::Done;
        }
        self.free_frames.push(fi);
        Ok(caught)
    }

    /// Raises an exception in thread `tid` and unwinds.
    fn raise(&mut self, prog: &CompiledProgram, tid: usize, kind: KindId) -> Result<(), VmError> {
        let origin = {
            let fi = *self.threads[tid]
                .frames
                .last()
                .expect("raise with no frame") as usize;
            self.frame_arena[fi].method
        };
        loop {
            if self.threads[tid].frames.is_empty() {
                // Escaped the thread root: the whole run fails.
                self.states[tid] = TState::Done;
                self.failure = Some((kind, origin));
                return Ok(());
            }
            if self.pop_frame(prog, tid, Some(kind))? {
                // Absorbed; caller resumes at its next instruction.
                return Ok(());
            }
        }
    }

    fn record_access(&mut self, tid: usize, object: u32, kind: AccessKind) {
        let holds_lock = self.threads[tid].frames.iter().any(|&fi| {
            let f = &self.frame_arena[fi as usize];
            !f.program_locks.is_empty() || !f.injected_locks.is_empty()
        });
        let at = self.clock;
        let f = self.top_mut(tid);
        f.accesses.push(AccessEvent {
            object: ObjectId::from_raw(object),
            kind,
            at,
            locked: holds_lock,
        });
    }

    /// Evaluates a postfix expression window on the scratch stack.
    fn eval(&mut self, prog: &CompiledProgram, tid: usize, r: ExprRef) -> i64 {
        // Single-leaf expressions (the overwhelmingly common case) skip the
        // stack entirely.
        if r.len == 1 {
            return match prog.eops[r.start as usize] {
                EOp::Const(v) => v,
                EOp::Reg(i) => self.threads[tid].regs[i as usize],
                EOp::Obj(o) => self.shared[o as usize],
                EOp::Now => self.clock as i64,
                EOp::ChanLen(c) => {
                    let ch = &self.channels[c as usize];
                    (ch.transit.len() + ch.mailbox.len()) as i64
                }
                EOp::Add | EOp::Sub => unreachable!("operator with empty stack"),
            };
        }
        self.scratch.clear();
        for eop in &prog.eops[r.start as usize..(r.start + r.len) as usize] {
            match *eop {
                EOp::Const(v) => self.scratch.push(v),
                EOp::Reg(i) => self.scratch.push(self.threads[tid].regs[i as usize]),
                EOp::Obj(o) => self.scratch.push(self.shared[o as usize]),
                EOp::Now => self.scratch.push(self.clock as i64),
                EOp::ChanLen(c) => {
                    let ch = &self.channels[c as usize];
                    self.scratch
                        .push((ch.transit.len() + ch.mailbox.len()) as i64);
                }
                EOp::Add => {
                    let b = self.scratch.pop().expect("postfix underflow");
                    let a = self.scratch.pop().expect("postfix underflow");
                    self.scratch.push(a.wrapping_add(b));
                }
                EOp::Sub => {
                    let b = self.scratch.pop().expect("postfix underflow");
                    let a = self.scratch.pop().expect("postfix underflow");
                    self.scratch.push(a.wrapping_sub(b));
                }
            }
        }
        self.scratch.pop().expect("empty expression")
    }

    fn eval_cond(&mut self, prog: &CompiledProgram, tid: usize, c: CondRef) -> bool {
        let l = self.eval(prog, tid, c.lhs);
        let r = self.eval(prog, tid, c.rhs);
        c.cmp.eval(l, r)
    }

    /// Observation point: evaluates every compiled invariant against the
    /// current shared/channel state. A violated `always` invariant fails the
    /// run immediately with its pre-interned kind, attributed to `origin`;
    /// an `eventually` invariant that holds here is latched as satisfied.
    fn check_invariants(&mut self, prog: &CompiledProgram, origin: u32) -> Result<(), VmError> {
        if prog.invariants.is_empty() || self.failure.is_some() {
            return Ok(());
        }
        for (i, inv) in prog.invariants.iter().enumerate() {
            // Invariant conditions are register-free, so the evaluating
            // thread is irrelevant.
            let holds = self.eval_cond(prog, 0, inv.cond);
            if inv.always {
                if !holds {
                    self.fail_all_from(prog, inv.kind, Some(origin))?;
                    return Ok(());
                }
            } else if holds {
                self.eventually_ok[i] = true;
            }
        }
        Ok(())
    }

    /// Declares a global abnormal end (deadlock/timeout), closing all open
    /// frames with the failure kind.
    fn fail_all(&mut self, prog: &CompiledProgram, kind: KindId) -> Result<(), VmError> {
        self.fail_all_from(prog, kind, None)
    }

    /// As [`Self::fail_all`] but with an explicit responsible method.
    /// `None` falls back to the first thread with an open frame (the
    /// deadlock/timeout attribution rule).
    fn fail_all_from(
        &mut self,
        prog: &CompiledProgram,
        kind: KindId,
        origin: Option<u32>,
    ) -> Result<(), VmError> {
        let origin = origin.unwrap_or_else(|| {
            self.threads
                .iter()
                .find_map(|t| {
                    t.frames
                        .last()
                        .map(|&fi| self.frame_arena[fi as usize].method)
                })
                .unwrap_or(0)
        });
        for tid in 0..self.threads.len() {
            while !self.threads[tid].frames.is_empty() {
                self.pop_frame(prog, tid, Some(kind))?;
            }
            self.states[tid] = TState::Done;
        }
        self.failure = Some((kind, origin));
        Ok(())
    }

    fn finish(&mut self, prog: &CompiledProgram, seed: u64) -> Trace {
        // Close any frames left open by an early crash on another thread.
        // (Deliberately no `started` fix here — the machine's `finish`
        // doesn't apply one either, and trace equality is the contract.)
        for tid in 0..self.threads.len() {
            while let Some(fi) = self.threads[tid].frames.pop() {
                let frame = &mut self.frame_arena[fi as usize];
                let ev = MethodEvent {
                    method: MethodId::from_raw(frame.method),
                    instance: frame.instance,
                    thread: ThreadId::from_raw(tid as u32),
                    start: frame.start,
                    end: self.clock,
                    accesses: std::mem::take(&mut frame.accesses),
                    returned: None,
                    exception: None,
                    caught: false,
                };
                self.events.push(ev);
                self.free_frames.push(fi);
            }
        }
        // An `eventually` invariant that never held is a failure detected at
        // run end (first in declaration order wins), attributed to the main
        // thread's entry method — unless the run already failed for a more
        // specific reason. Same rule as the machine's `finish`.
        if self.failure.is_none() {
            for (i, inv) in prog.invariants.iter().enumerate() {
                if !inv.always && !self.eventually_ok[i] {
                    self.failure = Some((inv.kind, prog.threads[0].entry));
                    break;
                }
            }
        }
        let outcome = match self.failure.take() {
            Some((kind, method)) => Outcome::Failure(FailureSignature {
                kind: prog.kinds[kind as usize].clone(),
                method: MethodId::from_raw(method),
            }),
            None => Outcome::Success,
        };
        self.events_hint = self.events.len();
        let mut trace = Trace {
            seed,
            events: std::mem::take(&mut self.events),
            msgs: std::mem::take(&mut self.msgs),
            outcome,
            duration: self.clock,
        };
        trace.normalize();
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::machine::Machine;
    use crate::plan::InterventionPlan;
    use crate::program::{Cmp, Expr, Op, Reg};
    use crate::ProgramBuilder;

    fn racy() -> crate::program::Program {
        let mut b = ProgramBuilder::new("vm-racy");
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
        let wentry = b.method("WriterEntry", |m| {
            m.wait_until(Expr::Obj(flag), Cmp::Eq, Expr::Const(1))
                .jitter(0, 30)
                .call(writer);
        });
        let main = b.method("Main", |m| {
            m.spawn_named("t1").spawn_named("t2").join(1).join(2);
        });
        b.thread("main", main, true);
        b.thread("t1", reader, false);
        b.thread("t2", wentry, false);
        b.build()
    }

    #[test]
    fn vm_matches_tree_walk_on_the_racy_program() {
        let p = racy();
        let cp = compile(&p);
        let plan = InterventionPlan::empty();
        let cfg = SimConfig::default();
        let mut vm = Vm::new();
        for seed in 0..60 {
            let tree = Machine::new(&p, &plan, cfg.clone(), seed).run();
            let byte = vm.run(&cp, &plan, &cfg, seed).expect("no trap");
            assert_eq!(tree, byte, "seed {seed}");
        }
    }

    #[test]
    fn vm_matches_tree_walk_under_interventions() {
        let p = racy();
        let cp = compile(&p);
        let cfg = SimConfig::default();
        let serialize = InterventionPlan::single(Intervention::SerializeMethods {
            a: MethodId::from_raw(0),
            b: MethodId::from_raw(1),
        });
        let mut mixed = InterventionPlan::empty();
        mixed.push(Intervention::DelayStart {
            method: MethodId::from_raw(1),
            instance: InstanceFilter::All,
            ticks: 7,
        });
        mixed.push(Intervention::DelayEnd {
            method: MethodId::from_raw(0),
            instance: InstanceFilter::Only(0),
            ticks: 3,
        });
        mixed.push(Intervention::CatchException {
            method: MethodId::from_raw(0),
            instance: InstanceFilter::All,
        });
        mixed.push(Intervention::ForceOrder {
            first: MethodId::from_raw(1),
            then: MethodId::from_raw(0),
            instance: InstanceFilter::All,
        });
        let mut vm = Vm::new();
        for plan in [&serialize, &mixed] {
            for seed in 0..40 {
                let tree = Machine::new(&p, plan, cfg.clone(), seed).run();
                let byte = vm.run(&cp, plan, &cfg, seed).expect("no trap");
                assert_eq!(tree, byte, "seed {seed}, plan {plan:?}");
            }
        }
    }

    #[test]
    fn trap_quarantines_the_run_and_vm_stays_reusable() {
        let p = racy();
        let cp = compile(&p);
        let cfg = SimConfig::default();
        // Writer (method 1) is impure; premature return must trap.
        let bad = InterventionPlan::single(Intervention::PrematureReturn {
            method: MethodId::from_raw(1),
            instance: InstanceFilter::All,
            value: 0,
        });
        let mut vm = Vm::new();
        let err = vm.run(&cp, &bad, &cfg, 3).unwrap_err();
        assert!(matches!(err, VmError::PrematureReturnImpure { ref method } if method == "Writer"));
        // The same VM instance still produces correct traces afterwards.
        let plan = InterventionPlan::empty();
        let tree = Machine::new(&p, &plan, cfg.clone(), 3).run();
        let byte = vm.run(&cp, &plan, &cfg, 3).expect("healthy run after trap");
        assert_eq!(tree, byte);
    }

    #[test]
    fn release_unowned_is_a_typed_error() {
        let mut b = ProgramBuilder::new("bad-release");
        let l = b.object("l", 0);
        let m = b.method("M", |mb| {
            mb.op(Op::Release { lock: l });
        });
        b.thread("main", m, true);
        let p = b.build();
        let cp = compile(&p);
        let mut vm = Vm::new();
        let err = vm
            .run(&cp, &InterventionPlan::empty(), &SimConfig::default(), 0)
            .unwrap_err();
        assert!(matches!(err, VmError::ReleaseUnowned { ref lock } if lock == "l"));
    }

    /// Producer/consumer over a bounded jittered channel, with a timeout'd
    /// tail receive and both invariant modes declared. Exercises blocking
    /// sends (capacity 1), blocking receives, deadline wakes, and the
    /// invariant observation points in one program.
    fn chan_program() -> crate::program::Program {
        let mut b = ProgramBuilder::new("vm-chan");
        let got = b.object("got", 0);
        let ch = b.channel("ch", Some(1), 1, 6);
        b.invariant_always("bounded", Expr::ChanLen(ch), Cmp::Le, Expr::Const(4));
        b.invariant_eventually("delivered", Expr::Obj(got), Cmp::Eq, Expr::Const(9));
        let producer = b.method("Producer", |m| {
            m.jitter(0, 10)
                .send(ch, Expr::Const(7))
                .send(ch, Expr::Const(8))
                .send(ch, Expr::Const(9));
        });
        let consumer = b.method("Consumer", |m| {
            m.recv(ch, Reg(0))
                .jitter(0, 8)
                .recv(ch, Reg(1))
                .recv_timeout(ch, Reg(2), 30)
                .write(got, Expr::Reg(Reg(2)));
        });
        let main = b.method("Main", |m| {
            m.spawn_named("p").spawn_named("c").join(1).join(2);
        });
        b.thread("main", main, true);
        b.thread("p", producer, false);
        b.thread("c", consumer, false);
        b.build()
    }

    #[test]
    fn vm_matches_tree_walk_on_channel_program() {
        let p = chan_program();
        let cp = compile(&p);
        let plan = InterventionPlan::empty();
        let cfg = SimConfig::default();
        let mut vm = Vm::new();
        let mut saw_msgs = false;
        for seed in 0..60 {
            let tree = Machine::new(&p, &plan, cfg.clone(), seed).run();
            let byte = vm.run(&cp, &plan, &cfg, seed).expect("no trap");
            assert_eq!(tree, byte, "seed {seed}");
            saw_msgs |= !byte.msgs.is_empty();
        }
        assert!(saw_msgs, "channel program must record message events");
    }

    #[test]
    fn vm_matches_tree_walk_under_channel_faults() {
        let p = chan_program();
        let cp = compile(&p);
        let cfg = SimConfig::default();
        let ch = aid_trace::ChannelId::from_raw(0);
        let delay = InterventionPlan::single(Intervention::DelayDelivery {
            channel: ch,
            seq: InstanceFilter::Only(1),
            ticks: 25,
        });
        let drop = InterventionPlan::single(Intervention::DropDelivery {
            channel: ch,
            seq: InstanceFilter::Only(2),
        });
        let dup = InterventionPlan::single(Intervention::DuplicateDelivery {
            channel: ch,
            seq: InstanceFilter::Only(0),
        });
        let reorder = InterventionPlan::single(Intervention::ReorderDelivery {
            channel: ch,
            seq: InstanceFilter::Only(0),
        });
        let mut mixed = InterventionPlan::empty();
        mixed.push(Intervention::DelayDelivery {
            channel: ch,
            seq: InstanceFilter::All,
            ticks: 3,
        });
        mixed.push(Intervention::DuplicateDelivery {
            channel: ch,
            seq: InstanceFilter::Only(1),
        });
        let mut vm = Vm::new();
        for plan in [&delay, &drop, &dup, &reorder, &mixed] {
            for seed in 0..40 {
                let tree = Machine::new(&p, plan, cfg.clone(), seed).run();
                let byte = vm.run(&cp, plan, &cfg, seed).expect("no trap");
                assert_eq!(tree, byte, "seed {seed}, plan {plan:?}");
            }
        }
        // Dropping the last message starves the timeout'd receive, so the
        // `eventually` oracle must flag at least some runs.
        let mut flagged = 0;
        for seed in 0..40 {
            let t = vm.run(&cp, &drop, &cfg, seed).unwrap();
            if matches!(&t.outcome, aid_trace::Outcome::Failure(s) if s.kind == "eventually:delivered")
            {
                flagged += 1;
            }
        }
        assert!(flagged > 0, "drop fault must trip the eventually oracle");
    }

    #[test]
    fn circular_channel_wait_deadlocks_identically() {
        // A waits on chB before sending on chA; B waits on chA before
        // sending on chB — a classic circular channel wait. The liveness
        // valve must NOT free blocked receives, so both backends report a
        // deadlock with identical traces.
        let mut b = ProgramBuilder::new("vm-chan-deadlock");
        let cha = b.channel("chA", None, 1, 1);
        let chb = b.channel("chB", None, 1, 1);
        let ma = b.method("A", |m| {
            m.recv(chb, Reg(0)).send(cha, Expr::Const(1));
        });
        let mb = b.method("B", |m| {
            m.recv(cha, Reg(0)).send(chb, Expr::Const(2));
        });
        let main = b.method("Main", |m| {
            m.spawn_named("a").spawn_named("b").join(1).join(2);
        });
        b.thread("main", main, true);
        b.thread("a", ma, false);
        b.thread("b", mb, false);
        let p = b.build();
        let cp = compile(&p);
        let cfg = SimConfig::default();
        let plan = InterventionPlan::empty();
        let mut vm = Vm::new();
        for seed in 0..20 {
            let tree = Machine::new(&p, &plan, cfg.clone(), seed).run();
            let byte = vm.run(&cp, &plan, &cfg, seed).expect("no trap");
            assert_eq!(tree, byte, "seed {seed}");
            assert!(
                matches!(&byte.outcome, aid_trace::Outcome::Failure(s) if s.kind == crate::machine::DEADLOCK_KIND),
                "circular channel wait must deadlock, got {:?}",
                byte.outcome
            );
        }
    }

    #[test]
    fn always_invariant_violation_matches_and_names_origin() {
        // Writer pushes `acct` to 12, violating `always acct <= 10`; the
        // failure must carry kind `always:cap` attributed to the writer, and
        // both backends must agree bit for bit.
        let mut b = ProgramBuilder::new("vm-inv");
        let acct = b.object("acct", 0);
        b.invariant_always("cap", Expr::Obj(acct), Cmp::Le, Expr::Const(10));
        let w = b.method("Writer", |m| {
            m.jitter(0, 5).write(acct, Expr::Const(12));
        });
        b.thread("main", w, true);
        let p = b.build();
        let cp = compile(&p);
        let cfg = SimConfig::default();
        let plan = InterventionPlan::empty();
        let mut vm = Vm::new();
        for seed in 0..10 {
            let tree = Machine::new(&p, &plan, cfg.clone(), seed).run();
            let byte = vm.run(&cp, &plan, &cfg, seed).expect("no trap");
            assert_eq!(tree, byte, "seed {seed}");
            match &byte.outcome {
                aid_trace::Outcome::Failure(s) => {
                    assert_eq!(s.kind, "always:cap");
                    assert_eq!(s.method.raw(), 0, "attributed to Writer");
                }
                o => panic!("expected always violation, got {o:?}"),
            }
        }
    }

    #[test]
    fn ready_set_repair_fires_and_preserves_traces() {
        // Lock-shaped contention with nested calls: frame pops during the
        // event-dense spin release locks that other threads block on, so the
        // incremental repair path must fire (n_repairs > 0) while staying
        // bit-identical to the tree walk.
        let mut b = ProgramBuilder::new("vm-repair");
        let l = b.object("l", 0);
        // No explicit release: the lock is freed by `pop_frame`'s scoped
        // cleanup, which happens *inside* the spin (the method ends with a
        // scan-preserving instruction), exercising the repair wake path.
        let leaf = b.method("Leaf", |m| {
            m.acquire(l).compute(1);
        });
        let worker = b.method("Worker", |m| {
            m.call(leaf).call(leaf).call(leaf);
        });
        let main = b.method("Main", |m| {
            m.spawn_named("w1").spawn_named("w2").join(1).join(2);
        });
        b.thread("main", main, true);
        b.thread("w1", worker, false);
        b.thread("w2", worker, false);
        let p = b.build();
        let cp = compile(&p);
        let cfg = SimConfig::default();
        let plan = InterventionPlan::empty();
        let mut vm = Vm::new();
        let (mut scans, mut repairs) = (0u64, 0u64);
        for seed in 0..40 {
            let tree = Machine::new(&p, &plan, cfg.clone(), seed).run();
            let byte = vm.run(&cp, &plan, &cfg, seed).expect("no trap");
            assert_eq!(tree, byte, "seed {seed}");
            let (s, r) = vm.sched_telemetry();
            scans += s;
            repairs += r;
        }
        assert!(scans > 0, "scheduler must scan");
        assert!(
            repairs > 0,
            "incremental ready-set repair must fire on frame pops ({scans} scans)"
        );
    }

    /// One thread's machine serves every backend through the lending API,
    /// and reclaimed buffers carry nothing from one run into the next:
    /// interleaving programs, plans, a trap and a channel program on one
    /// thread yields exactly the traces (and errors) of fresh machines.
    #[test]
    fn interleaved_lending_runs_match_fresh_machines() {
        use crate::backend::{BytecodeBackend, ExecBackend};
        use aid_trace::ChannelId;

        let cfg = SimConfig::default();
        let writer = MethodId::from_raw(1);
        let racy_plans = vec![
            InterventionPlan::empty(),
            InterventionPlan::single(Intervention::DelayEnd {
                method: writer,
                instance: InstanceFilter::All,
                ticks: 25,
            }),
            InterventionPlan::single(Intervention::SerializeMethods {
                a: MethodId::from_raw(0),
                b: writer,
            }),
            // Premature return on the impure Writer traps mid-run.
            InterventionPlan::single(Intervention::PrematureReturn {
                method: writer,
                instance: InstanceFilter::All,
                value: 0,
            }),
        ];
        let chan_plans = vec![
            InterventionPlan::empty(),
            InterventionPlan::single(Intervention::DropDelivery {
                channel: ChannelId::from_raw(0),
                seq: InstanceFilter::Only(1),
            }),
            InterventionPlan::single(Intervention::DelayDelivery {
                channel: ChannelId::from_raw(0),
                seq: InstanceFilter::All,
                ticks: 9,
            }),
        ];
        let programs = [(racy(), racy_plans), (chan_program(), chan_plans)];
        let backends: Vec<BytecodeBackend> = programs
            .iter()
            .map(|(p, _)| BytecodeBackend::new(p))
            .collect();
        let (mut traps, mut runs) = (0, 0);
        for seed in 0..12u64 {
            for ((program, plans), backend) in programs.iter().zip(&backends) {
                for plan in plans {
                    let fresh = Vm::new().run(&compile(program), plan, &cfg, seed);
                    let mut lent = None;
                    let got =
                        backend.try_run_with(seed, plan, &cfg, &mut |t| lent = Some(t.clone()));
                    match fresh {
                        Ok(want) => {
                            got.expect("fresh machine completed");
                            assert_eq!(lent.as_ref(), Some(&want), "seed {seed}, plan {plan:?}");
                            runs += 1;
                        }
                        Err(want) => {
                            assert_eq!(got.unwrap_err(), want, "seed {seed}, plan {plan:?}");
                            assert!(lent.is_none(), "a trapped run lends nothing");
                            traps += 1;
                        }
                    }
                }
            }
        }
        assert!(traps > 0 && runs > traps, "traps {traps}, runs {runs}");
    }
}
