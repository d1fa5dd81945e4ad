//! The program model executed by the virtual machine.
//!
//! A [`Program`] is a set of named shared objects, methods (straight-line op
//! sequences with calls), and threads. The model is deliberately small — it
//! is not a general-purpose language, it is the minimal substrate on which
//! the paper's bug classes (data races, atomicity violations, order
//! violations, use-after-free, timing bugs, random collisions) and the
//! paper's intervention classes (Figure 2) can be expressed mechanically.
//!
//! Semantics notes:
//! * Each executed op advances the single global virtual clock by at least
//!   one tick, so **all event timestamps in a run are distinct** and temporal
//!   precedence within a run is total.
//! * Registers are **per-thread** (16 of them) and survive across calls;
//!   programs are handcrafted and allocate registers manually.
//! * Shared objects hold `i64` values. Reads/writes through [`Op::Read`],
//!   [`Op::Write`] and [`Op::ThrowIfObj`] are recorded in the trace as
//!   accesses; [`Expr::Obj`] peeks inside [`Op::WaitUntil`] conditions are
//!   monitor-style waits and are *not* recorded as data accesses.

use aid_trace::{ChannelId, MethodId, ObjectId};
use aid_util::Fnv1a;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// A per-thread register index (0..16).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(pub u8);

/// Number of registers per thread.
pub const NUM_REGS: usize = 16;

/// Pure expression over constants, registers, shared-object peeks, and the
/// current virtual clock.
#[derive(Clone, Debug, PartialEq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// A constant.
    Const(i64),
    /// A register value.
    Reg(Reg),
    /// A peek at a shared object (not recorded as a data access).
    Obj(ObjectId),
    /// The current virtual time as `i64`.
    Now,
    /// The number of messages currently occupying a channel (in transit plus
    /// waiting in the mailbox). Like [`Expr::Obj`], a peek — not recorded as
    /// a data access. Legal in invariant conditions, where registers are not.
    ChanLen(ChannelId),
    /// Sum of two expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two expressions.
    Sub(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience: `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }
    /// Convenience: `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Box::new(a), Box::new(b))
    }
}

/// Comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cmp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Cmp {
    /// Applies the comparison.
    pub fn eval(self, l: i64, r: i64) -> bool {
        match self {
            Cmp::Eq => l == r,
            Cmp::Ne => l != r,
            Cmp::Lt => l < r,
            Cmp::Le => l <= r,
            Cmp::Gt => l > r,
            Cmp::Ge => l >= r,
        }
    }
}

/// A boolean condition `lhs cmp rhs`.
#[derive(Clone, Debug, PartialEq, Hash, Serialize, Deserialize)]
pub struct Cond {
    /// Left operand.
    pub lhs: Expr,
    /// Operator.
    pub cmp: Cmp,
    /// Right operand.
    pub rhs: Expr,
}

impl Cond {
    /// Builds a condition.
    pub fn new(lhs: Expr, cmp: Cmp, rhs: Expr) -> Self {
        Cond { lhs, cmp, rhs }
    }
}

/// One operation in a method body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Read a shared object into a register (recorded access).
    Read { object: ObjectId, reg: Reg },
    /// Write an expression's value to a shared object (recorded access).
    Write { object: ObjectId, value: Expr },
    /// Atomically read a shared object (recorded access) and throw `kind` if
    /// `value cmp rhs` holds. This models check-then-crash sites (e.g. an
    /// array bounds check) where the read and the decision are one
    /// instruction from the scheduler's point of view.
    ThrowIfObj {
        /// Object to read.
        object: ObjectId,
        /// Comparison applied to the freshly read value.
        cmp: Cmp,
        /// Right-hand side of the comparison.
        rhs: Expr,
        /// Exception kind thrown when the comparison holds.
        kind: String,
    },
    /// Burn a fixed number of ticks.
    Compute { cost: u64 },
    /// Burn a uniformly random number of ticks in `[min, max]` (scheduler
    /// RNG; this is the main source of timing nondeterminism).
    JitterCompute { min: u64, max: u64 },
    /// With probability `prob` (program RNG), burn `ticks` — models a
    /// transient environment fault triggering an expensive handling path.
    FlakyDelay { prob: f64, ticks: u64 },
    /// Set a register to an expression's value.
    LocalSet { reg: Reg, value: Expr },
    /// Conditional assignment: `reg = if cond { then_value } else { else_value }`.
    SetIf {
        reg: Reg,
        cond: Cond,
        then_value: Expr,
        else_value: Expr,
    },
    /// Burn `cost` ticks only when the condition holds (models conditional
    /// slow paths taken when upstream state is corrupted).
    ComputeIf { cond: Cond, cost: u64 },
    /// Draw a uniformly random value in `[lo, hi]` (program RNG) into a
    /// register — models application-level randomness (e.g. random ids).
    RandRange { reg: Reg, lo: i64, hi: i64 },
    /// Call another method synchronously.
    Call { method: MethodId },
    /// Call another method; if it throws, catch at this boundary and
    /// continue with the next op.
    TryCall { method: MethodId },
    /// Return from the current method, optionally with a value.
    Return { value: Option<Expr> },
    /// Throw unconditionally.
    Throw { kind: String },
    /// Throw if the (register/peek) condition holds.
    ThrowIf { cond: Cond, kind: String },
    /// Start a program thread (by index into [`Program::threads`]).
    Spawn { thread: usize },
    /// Block until a program thread has finished.
    Join { thread: usize },
    /// Acquire a program lock (an object used as a mutex).
    Acquire { lock: ObjectId },
    /// Release a program lock.
    Release { lock: ObjectId },
    /// Block for a fixed number of ticks.
    Sleep { ticks: u64 },
    /// Block until the condition over shared state holds (monitor wait; the
    /// peeks are not recorded as accesses).
    WaitUntil { cond: Cond },
    /// Send a value into a channel. The guard (if any) is evaluated first:
    /// when false, nothing is sent and execution continues (no latency draw,
    /// no block). When the channel is bounded and full, the sender blocks
    /// until capacity frees, then re-evaluates the guard at actual send time.
    /// A successful send assigns the channel's next sequence number, draws
    /// the delivery latency (scheduler RNG when the channel jitters), and is
    /// recorded both as a `Send` message event and as a write access on the
    /// channel's pseudo-object.
    Send {
        /// Target channel.
        channel: ChannelId,
        /// Payload expression (evaluated at send time).
        value: Expr,
        /// Optional guard; `None` sends unconditionally.
        guard: Option<Cond>,
    },
    /// Receive the oldest delivered message from a channel into a register.
    /// Blocks while the mailbox is empty; with `timeout > 0` the wait gives
    /// up after that many ticks and stores `-1` instead (the timeout
    /// sentinel). `timeout == 0` waits forever — a receiver that is never
    /// sent to deadlocks the run. A successful receive is recorded both as a
    /// `Recv` message event and as a read access on the channel's
    /// pseudo-object; a timed-out receive records nothing.
    Recv {
        /// Source channel.
        channel: ChannelId,
        /// Destination register.
        reg: Reg,
        /// Ticks to wait before giving up (0 = wait forever).
        timeout: u64,
    },
}

/// Written by hand because `FlakyDelay::prob` is an `f64`: it hashes
/// through `to_bits`, with `-0.0` folded onto `0.0` so ops that compare
/// equal hash equal. Every pattern names all of its variant's fields, so a
/// field added to `Op` cannot compile until it is hashed here too.
impl Hash for Op {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Op::Read { object, reg } => (object, reg).hash(h),
            Op::Write { object, value } => (object, value).hash(h),
            Op::ThrowIfObj {
                object,
                cmp,
                rhs,
                kind,
            } => (object, cmp, rhs, kind).hash(h),
            Op::Compute { cost } => cost.hash(h),
            Op::JitterCompute { min, max } => (min, max).hash(h),
            Op::FlakyDelay { prob, ticks } => {
                let bits = if *prob == 0.0 { 0 } else { prob.to_bits() };
                (bits, ticks).hash(h)
            }
            Op::LocalSet { reg, value } => (reg, value).hash(h),
            Op::SetIf {
                reg,
                cond,
                then_value,
                else_value,
            } => (reg, cond, then_value, else_value).hash(h),
            Op::ComputeIf { cond, cost } => (cond, cost).hash(h),
            Op::RandRange { reg, lo, hi } => (reg, lo, hi).hash(h),
            Op::Call { method } | Op::TryCall { method } => method.hash(h),
            Op::Return { value } => value.hash(h),
            Op::Throw { kind } => kind.hash(h),
            Op::ThrowIf { cond, kind } => (cond, kind).hash(h),
            Op::Spawn { thread } | Op::Join { thread } => thread.hash(h),
            Op::Acquire { lock } | Op::Release { lock } => lock.hash(h),
            Op::Sleep { ticks } => ticks.hash(h),
            Op::WaitUntil { cond } => cond.hash(h),
            Op::Send {
                channel,
                value,
                guard,
            } => (channel, value, guard).hash(h),
            Op::Recv {
                channel,
                reg,
                timeout,
            } => (channel, reg, timeout).hash(h),
        }
    }
}

/// A method definition.
#[derive(Clone, Debug, PartialEq, Hash, Serialize, Deserialize)]
pub struct MethodDef {
    /// Name (must be whitespace-free; it flows into trace logs).
    pub name: String,
    /// True if the method mutates no shared state — only pure methods are
    /// safe targets for return-value and premature-return interventions
    /// (§3.3 "validity of intervention").
    pub pure: bool,
    /// The body.
    pub body: Vec<Op>,
}

/// A shared object definition.
#[derive(Clone, Debug, PartialEq, Hash, Serialize, Deserialize)]
pub struct ObjectDef {
    /// Name (must be whitespace-free).
    pub name: String,
    /// Value at the start of every run.
    pub initial: i64,
}

/// A message channel definition.
///
/// Channels model asynchronous point-to-point or fan-in messaging: a send
/// places the message *in transit* for a latency drawn from
/// `[latency_min, latency_max]` (scheduler RNG when the bounds differ), after
/// which the machine *delivers* it into the receiver-visible mailbox in
/// `(deliver_at, seq)` order. Receivers only ever see delivered messages.
#[derive(Clone, Debug, PartialEq, Hash, Serialize, Deserialize)]
pub struct ChannelDef {
    /// Name (must be whitespace-free; it flows into trace logs).
    pub name: String,
    /// Maximum occupancy (in transit + mailbox); `None` = unbounded. A send
    /// to a full bounded channel blocks until a receive frees a slot.
    pub capacity: Option<u32>,
    /// Minimum delivery latency in ticks.
    pub latency_min: u64,
    /// Maximum delivery latency in ticks (`>= latency_min`). When strictly
    /// greater, each send draws uniformly from the range — the message-level
    /// source of timing nondeterminism.
    pub latency_max: u64,
}

/// Whether an invariant must hold at every checkpoint or eventually.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InvariantMode {
    /// The condition must hold at every observation point; the first
    /// violation fails the run with kind `always:<name>`.
    Always,
    /// The condition must hold at *some* observation point before the run
    /// finishes; a run that completes without ever satisfying it fails with
    /// kind `eventually:<name>`.
    Eventually,
}

/// A declared invariant over shared and channel state.
///
/// Invariant conditions are evaluated globally (after every shared-state or
/// channel effect), so they may reference shared objects ([`Expr::Obj`]),
/// channel occupancy ([`Expr::ChanLen`]), and the clock — but never
/// per-thread registers ([`Expr::Reg`]); `validate` rejects those.
#[derive(Clone, Debug, PartialEq, Hash, Serialize, Deserialize)]
pub struct InvariantDef {
    /// Name (whitespace-free; it flows into failure kinds as
    /// `always:<name>` / `eventually:<name>`).
    pub name: String,
    /// Safety or liveness flavour.
    pub mode: InvariantMode,
    /// The condition.
    pub cond: Cond,
}

/// A thread definition.
#[derive(Clone, Debug, PartialEq, Hash, Serialize, Deserialize)]
pub struct ThreadSpec {
    /// Name, for diagnostics.
    pub name: String,
    /// The method the thread runs.
    pub entry: MethodId,
    /// Whether the thread starts at time zero (otherwise it must be
    /// [`Op::Spawn`]ed).
    pub auto_start: bool,
}

/// A complete program.
#[derive(Clone, Debug, PartialEq, Hash, Serialize, Deserialize)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// Methods; `MethodId` is the index.
    pub methods: Vec<MethodDef>,
    /// Shared objects; `ObjectId` is the index.
    pub objects: Vec<ObjectDef>,
    /// Message channels; `ChannelId` is the index.
    pub channels: Vec<ChannelDef>,
    /// Declared invariants, checked by the machine as it runs.
    pub invariants: Vec<InvariantDef>,
    /// Threads.
    pub threads: Vec<ThreadSpec>,
}

impl Program {
    /// A stable 64-bit structural fingerprint of the whole program: its
    /// derived `Hash` fed through FNV-1a, so every field of every method,
    /// object, channel, invariant and thread is covered. Two `Program`s
    /// with equal structure always fingerprint equal; the engine's
    /// intervention cache uses this as the program half of its (program,
    /// intervention set, seed) key, so a cache entry can never be served to
    /// a structurally different program. Stable within a build, not
    /// across toolchains (std's `Hash` encoding may change), which suits an
    /// in-memory cache key and nothing persisted.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.hash(&mut h);
        h.finish()
    }

    /// Looks up a method definition.
    pub fn method(&self, id: MethodId) -> &MethodDef {
        &self.methods[id.index()]
    }

    /// Looks up an object definition.
    pub fn object(&self, id: ObjectId) -> &ObjectDef {
        &self.objects[id.index()]
    }

    /// Ids of methods marked pure.
    pub fn pure_methods(&self) -> Vec<MethodId> {
        self.methods
            .iter()
            .enumerate()
            .filter(|(_, m)| m.pure)
            .map(|(i, _)| MethodId::from_raw(i as u32))
            .collect()
    }

    /// Checks every [`Expr::ChanLen`] in an expression against the channel
    /// table, and rejects [`Expr::Reg`] when `allow_reg` is false (invariant
    /// conditions are evaluated without a thread context).
    fn check_expr(&self, e: &Expr, allow_reg: bool) {
        match e {
            Expr::ChanLen(c) => {
                assert!(c.index() < self.channels.len(), "bad channel index");
            }
            Expr::Reg(_) => {
                assert!(allow_reg, "invariant condition references a register");
            }
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                self.check_expr(a, allow_reg);
                self.check_expr(b, allow_reg);
            }
            Expr::Const(_) | Expr::Obj(_) | Expr::Now => {}
        }
    }

    fn check_cond(&self, c: &Cond, allow_reg: bool) {
        self.check_expr(&c.lhs, allow_reg);
        self.check_expr(&c.rhs, allow_reg);
    }

    /// Validates structural invariants (indices in range, spawn/join targets
    /// exist, names whitespace-free). Panics with a description on violation;
    /// builders call this before returning a program.
    pub fn validate(&self) {
        assert!(!self.threads.is_empty(), "program has no threads");
        for m in &self.methods {
            assert!(
                !m.name.chars().any(char::is_whitespace),
                "method name {:?} contains whitespace",
                m.name
            );
            for op in &m.body {
                match op {
                    Op::Call { method } | Op::TryCall { method } => {
                        assert!(method.index() < self.methods.len(), "bad call target");
                    }
                    Op::Spawn { thread } | Op::Join { thread } => {
                        assert!(*thread < self.threads.len(), "bad thread index");
                    }
                    Op::Read { object, .. }
                    | Op::Write { object, .. }
                    | Op::ThrowIfObj { object, .. } => {
                        assert!(object.index() < self.objects.len(), "bad object index");
                    }
                    Op::Acquire { lock } | Op::Release { lock } => {
                        assert!(lock.index() < self.objects.len(), "bad lock index");
                    }
                    Op::Send {
                        channel,
                        value,
                        guard,
                    } => {
                        assert!(channel.index() < self.channels.len(), "bad channel index");
                        self.check_expr(value, true);
                        if let Some(g) = guard {
                            self.check_cond(g, true);
                        }
                    }
                    Op::Recv { channel, .. } => {
                        assert!(channel.index() < self.channels.len(), "bad channel index");
                    }
                    _ => {}
                }
                match op {
                    Op::Write { value, .. } | Op::LocalSet { value, .. } => {
                        self.check_expr(value, true);
                    }
                    Op::ThrowIfObj { rhs, .. } => self.check_expr(rhs, true),
                    Op::SetIf {
                        cond,
                        then_value,
                        else_value,
                        ..
                    } => {
                        self.check_cond(cond, true);
                        self.check_expr(then_value, true);
                        self.check_expr(else_value, true);
                    }
                    Op::ComputeIf { cond, .. }
                    | Op::ThrowIf { cond, .. }
                    | Op::WaitUntil { cond } => self.check_cond(cond, true),
                    Op::Return { value: Some(v) } => self.check_expr(v, true),
                    _ => {}
                }
            }
        }
        for o in &self.objects {
            assert!(
                !o.name.chars().any(char::is_whitespace),
                "object name {:?} contains whitespace",
                o.name
            );
        }
        for c in &self.channels {
            assert!(
                !c.name.chars().any(char::is_whitespace),
                "channel name {:?} contains whitespace",
                c.name
            );
            assert!(
                c.latency_min <= c.latency_max,
                "channel {:?} latency range is inverted",
                c.name
            );
            assert!(
                c.capacity != Some(0),
                "channel {:?} has zero capacity",
                c.name
            );
        }
        for inv in &self.invariants {
            assert!(
                !inv.name.is_empty() && !inv.name.chars().any(char::is_whitespace),
                "invariant name {:?} is empty or contains whitespace",
                inv.name
            );
            self.check_cond(&inv.cond, false);
        }
        for t in &self.threads {
            assert!(t.entry.index() < self.methods.len(), "bad thread entry");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval_covers_all_operators() {
        assert!(Cmp::Eq.eval(1, 1));
        assert!(Cmp::Ne.eval(1, 2));
        assert!(Cmp::Lt.eval(1, 2));
        assert!(Cmp::Le.eval(2, 2));
        assert!(Cmp::Gt.eval(3, 2));
        assert!(Cmp::Ge.eval(2, 2));
        assert!(!Cmp::Lt.eval(2, 2));
    }

    #[test]
    #[should_panic(expected = "bad call target")]
    fn validate_rejects_dangling_call() {
        let p = Program {
            name: "bad".into(),
            methods: vec![MethodDef {
                name: "m".into(),
                pure: false,
                body: vec![Op::Call {
                    method: MethodId::from_raw(7),
                }],
            }],
            objects: vec![],
            channels: vec![],
            invariants: vec![],
            threads: vec![ThreadSpec {
                name: "t".into(),
                entry: MethodId::from_raw(0),
                auto_start: true,
            }],
        };
        p.validate();
    }

    #[test]
    fn fingerprint_is_structural() {
        let mk = |delay: i64| Program {
            name: "fp".into(),
            methods: vec![MethodDef {
                name: "m".into(),
                pure: true,
                body: vec![Op::Compute { cost: delay as u64 }],
            }],
            objects: vec![],
            channels: vec![],
            invariants: vec![],
            threads: vec![ThreadSpec {
                name: "t".into(),
                entry: MethodId::from_raw(0),
                auto_start: true,
            }],
        };
        assert_eq!(mk(3).fingerprint(), mk(3).fingerprint(), "pure function");
        assert_ne!(
            mk(3).fingerprint(),
            mk(4).fingerprint(),
            "structure changes change the fingerprint"
        );

        // Each edit below touches one field the hash must cover.
        let mut base = channel_program(vec![], vec![]);
        base.methods[0].body.push(Op::FlakyDelay {
            prob: 0.25,
            ticks: 40,
        });
        let fp = base.fingerprint();
        assert_eq!(base.clone().fingerprint(), fp, "a clone keeps it");
        let edits: [(&str, fn(&mut Program)); 3] = [
            ("FlakyDelay probability", |p| {
                p.methods[0].body[0] = Op::FlakyDelay {
                    prob: 0.5,
                    ticks: 40,
                }
            }),
            ("method name", |p| p.methods[0].name = "n".into()),
            ("channel latency_max", |p| p.channels[0].latency_max = 5),
        ];
        for (what, edit) in edits {
            let mut p = base.clone();
            edit(&mut p);
            assert_ne!(p.fingerprint(), fp, "{what} moves the fingerprint");
        }
        let mut negative_zero = base.clone();
        negative_zero.methods[0].body[0] = Op::FlakyDelay {
            prob: -0.0,
            ticks: 40,
        };
        let mut zero = base.clone();
        zero.methods[0].body[0] = Op::FlakyDelay {
            prob: 0.0,
            ticks: 40,
        };
        assert_eq!(negative_zero, zero);
        assert_eq!(
            negative_zero.fingerprint(),
            zero.fingerprint(),
            "equal ops hash equal"
        );
    }

    fn channel_program(invariants: Vec<InvariantDef>, body: Vec<Op>) -> Program {
        Program {
            name: "chan".into(),
            methods: vec![MethodDef {
                name: "m".into(),
                pure: false,
                body,
            }],
            objects: vec![],
            channels: vec![ChannelDef {
                name: "c".into(),
                capacity: Some(2),
                latency_min: 1,
                latency_max: 4,
            }],
            invariants,
            threads: vec![ThreadSpec {
                name: "t".into(),
                entry: MethodId::from_raw(0),
                auto_start: true,
            }],
        }
    }

    #[test]
    fn validate_accepts_channel_ops_and_invariants() {
        channel_program(
            vec![InvariantDef {
                name: "bounded".into(),
                mode: InvariantMode::Always,
                cond: Cond::new(
                    Expr::ChanLen(ChannelId::from_raw(0)),
                    Cmp::Le,
                    Expr::Const(2),
                ),
            }],
            vec![
                Op::Send {
                    channel: ChannelId::from_raw(0),
                    value: Expr::Const(1),
                    guard: None,
                },
                Op::Recv {
                    channel: ChannelId::from_raw(0),
                    reg: Reg(0),
                    timeout: 10,
                },
            ],
        )
        .validate();
    }

    #[test]
    #[should_panic(expected = "bad channel index")]
    fn validate_rejects_dangling_channel() {
        channel_program(
            vec![],
            vec![Op::Send {
                channel: ChannelId::from_raw(3),
                value: Expr::Const(1),
                guard: None,
            }],
        )
        .validate();
    }

    #[test]
    #[should_panic(expected = "references a register")]
    fn validate_rejects_register_in_invariant() {
        channel_program(
            vec![InvariantDef {
                name: "bad".into(),
                mode: InvariantMode::Eventually,
                cond: Cond::new(Expr::Reg(Reg(0)), Cmp::Eq, Expr::Const(1)),
            }],
            vec![],
        )
        .validate();
    }

    #[test]
    #[should_panic(expected = "zero capacity")]
    fn validate_rejects_zero_capacity() {
        let mut p = channel_program(vec![], vec![]);
        p.channels[0].capacity = Some(0);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "no threads")]
    fn validate_rejects_empty_program() {
        Program {
            name: "empty".into(),
            methods: vec![],
            objects: vec![],
            channels: vec![],
            invariants: vec![],
            threads: vec![],
        }
        .validate();
    }
}
