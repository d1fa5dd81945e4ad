//! The sharded, append-only columnar trace store.
//!
//! Traces are normalized (see [`Trace::normalize`]) and decomposed into
//! flat, per-field columns — trace-level (seed, outcome, duration, event
//! extent), event-level (method, instance, thread, start/end, return,
//! exception, access extent), and access-level (object, time, kind/locked
//! flags) — with every string (method names, object names, exception and
//! failure kinds) interned into shared arenas. Columns live in `S` shards;
//! global trace id `g` maps to row `g / S` of shard `g % S`, so shard/row
//! placement depends only on the (deterministic) arrival order. A batch
//! append columnarizes on the calling thread: a session's corpus is about
//! 16 traces of 3–10 µs work each, too little per trace to pay for handing
//! it to another thread.
//!
//! The store is lossless: [`ColumnStore::trace`] re-materializes any trace
//! exactly, and `ColumnStore::to_trace_set` reproduces a `TraceSet` whose
//! `aid_trace::codec::encode` output is byte-identical to one built by
//! pushing the same traces into a `TraceSet` directly.
//!
//! For unbounded streams the store additionally supports **windowed
//! retention**: [`ColumnStore::evict_front`] compacts every shard in place,
//! dropping the oldest traces while global ids stay stable (ids are never
//! reused; the retained window is `retained()`). A [`RetentionPolicy`]
//! expresses the window by trace count and/or age in append batches, and
//! [`ColumnStore::apply_retention`] enforces it after each append. The
//! lossless re-encode property holds *per retained window*: `to_trace_set`
//! reproduces exactly the suffix of traces still retained (interning
//! arenas are append-only and survive eviction, so remap tables from
//! earlier batches stay valid).

use aid_obs::Counter;
use aid_trace::{
    AccessEvent, AccessKind, ChannelId, ChannelTag, FailureSignature, MethodEvent, MethodId,
    MethodTag, MsgEvent, MsgKind, ObjectId, ObjectTag, Outcome, ThreadId, Time, Trace, TraceSet,
};
use aid_util::IdArena;

/// Tag type for interned exception/failure kind strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KindTag;

/// Event flag bits (packed into one `u8` column).
const EV_HAS_RET: u8 = 1;
const EV_CAUGHT: u8 = 2;
/// Access flag bits.
const AC_WRITE: u8 = 1;
const AC_LOCKED: u8 = 2;
/// Message kind/flag packing: the low two bits carry the lifecycle kind,
/// bit 2 the duplicate flag.
const MG_KIND_MASK: u8 = 0b11;
const MG_DUP: u8 = 4;

fn pack_msg_kind(kind: MsgKind, dup: bool) -> u8 {
    let k = match kind {
        MsgKind::Send => 0,
        MsgKind::Deliver => 1,
        MsgKind::Recv => 2,
        MsgKind::Drop => 3,
    };
    k | if dup { MG_DUP } else { 0 }
}

fn unpack_msg_kind(bits: u8) -> (MsgKind, bool) {
    let kind = match bits & MG_KIND_MASK {
        0 => MsgKind::Send,
        1 => MsgKind::Deliver,
        2 => MsgKind::Recv,
        _ => MsgKind::Drop,
    };
    (kind, bits & MG_DUP != 0)
}

/// One shard's columns. A shard holds every trace whose global id is
/// congruent to its index modulo the shard count, in arrival order.
#[derive(Clone, Debug, Default)]
struct Shard {
    // Per-trace columns.
    seed: Vec<u64>,
    duration: Vec<Time>,
    /// Logical append tick (the store clock at append time), for age-based
    /// retention.
    tick: Vec<u64>,
    /// Interned failure kind + 1; `0` marks a successful run.
    fail_kind: Vec<u32>,
    fail_method: Vec<u32>,
    event_start: Vec<u32>,
    event_len: Vec<u32>,
    // Per-event columns.
    ev_method: Vec<u32>,
    ev_instance: Vec<u32>,
    ev_thread: Vec<u32>,
    ev_start: Vec<Time>,
    ev_end: Vec<Time>,
    ev_ret: Vec<i64>,
    /// Interned exception kind + 1; `0` marks no exception.
    ev_exc: Vec<u32>,
    ev_flags: Vec<u8>,
    acc_start: Vec<u32>,
    acc_len: Vec<u32>,
    // Per-access columns.
    ac_object: Vec<u32>,
    ac_at: Vec<Time>,
    ac_flags: Vec<u8>,
    // Per-trace message extents (empty extents for channel-free traces).
    msg_start: Vec<u32>,
    msg_len: Vec<u32>,
    // Per-message columns.
    mg_channel: Vec<u32>,
    mg_kind: Vec<u8>,
    mg_seq: Vec<u32>,
    mg_value: Vec<i64>,
    mg_sent: Vec<Time>,
    mg_at: Vec<Time>,
    mg_thread: Vec<u32>,
}

impl Shard {
    /// Appends a one-trace block, fixing up extent offsets.
    fn push_block(&mut self, b: Block, tick: u64) {
        let ev_base = self.ev_method.len() as u32;
        let ac_base = self.ac_object.len() as u32;
        let mg_base = self.mg_channel.len() as u32;
        self.seed.push(b.seed);
        self.duration.push(b.duration);
        self.tick.push(tick);
        self.fail_kind.push(b.fail_kind);
        self.fail_method.push(b.fail_method);
        self.event_start.push(ev_base);
        self.event_len.push(b.ev_method.len() as u32);
        self.ev_method.extend(b.ev_method);
        self.ev_instance.extend(b.ev_instance);
        self.ev_thread.extend(b.ev_thread);
        self.ev_start.extend(b.ev_start);
        self.ev_end.extend(b.ev_end);
        self.ev_ret.extend(b.ev_ret);
        self.ev_exc.extend(b.ev_exc);
        self.ev_flags.extend(b.ev_flags);
        self.acc_start
            .extend(b.acc_start.iter().map(|&s| s + ac_base));
        self.acc_len.extend(b.acc_len);
        self.ac_object.extend(b.ac_object);
        self.ac_at.extend(b.ac_at);
        self.ac_flags.extend(b.ac_flags);
        self.msg_start.push(mg_base);
        self.msg_len.push(b.mg_channel.len() as u32);
        self.mg_channel.extend(b.mg_channel);
        self.mg_kind.extend(b.mg_kind);
        self.mg_seq.extend(b.mg_seq);
        self.mg_value.extend(b.mg_value);
        self.mg_sent.extend(b.mg_sent);
        self.mg_at.extend(b.mg_at);
        self.mg_thread.extend(b.mg_thread);
    }

    /// Compacts the shard in place, dropping its oldest `rows` traces and
    /// every event/access row they own, and rebasing the surviving extent
    /// offsets so `push_block`'s `len()`-relative bases stay consistent.
    fn trim_front(&mut self, rows: usize) {
        if rows == 0 {
            return;
        }
        // `event_start[r]` equals the total event rows of traces `0..r`
        // (blocks append contiguously), so the event/access drop extents
        // fall straight out of the extent columns.
        let ev_drop = if rows == self.seed.len() {
            self.ev_method.len()
        } else {
            self.event_start[rows] as usize
        };
        let ac_drop = if ev_drop == self.ev_method.len() {
            self.ac_object.len()
        } else {
            self.acc_start[ev_drop] as usize
        };
        self.seed.drain(..rows);
        self.duration.drain(..rows);
        self.tick.drain(..rows);
        self.fail_kind.drain(..rows);
        self.fail_method.drain(..rows);
        self.event_start.drain(..rows);
        self.event_len.drain(..rows);
        for start in &mut self.event_start {
            *start -= ev_drop as u32;
        }
        self.ev_method.drain(..ev_drop);
        self.ev_instance.drain(..ev_drop);
        self.ev_thread.drain(..ev_drop);
        self.ev_start.drain(..ev_drop);
        self.ev_end.drain(..ev_drop);
        self.ev_ret.drain(..ev_drop);
        self.ev_exc.drain(..ev_drop);
        self.ev_flags.drain(..ev_drop);
        self.acc_start.drain(..ev_drop);
        self.acc_len.drain(..ev_drop);
        for start in &mut self.acc_start {
            *start -= ac_drop as u32;
        }
        self.ac_object.drain(..ac_drop);
        self.ac_at.drain(..ac_drop);
        self.ac_flags.drain(..ac_drop);
        // Message rows owned by the dropped traces, straight from the
        // per-trace extent columns (same contiguity argument as events).
        let mg_drop = if rows == self.msg_start.len() {
            self.mg_channel.len()
        } else {
            self.msg_start[rows] as usize
        };
        self.msg_start.drain(..rows);
        self.msg_len.drain(..rows);
        for start in &mut self.msg_start {
            *start -= mg_drop as u32;
        }
        self.mg_channel.drain(..mg_drop);
        self.mg_kind.drain(..mg_drop);
        self.mg_seq.drain(..mg_drop);
        self.mg_value.drain(..mg_drop);
        self.mg_sent.drain(..mg_drop);
        self.mg_at.drain(..mg_drop);
        self.mg_thread.drain(..mg_drop);
    }
}

/// A windowed-retention policy: how much of the stream's tail the store
/// keeps. `None` bounds mean unbounded (the default keeps everything).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Keep at most this many traces (oldest evicted first).
    pub max_traces: Option<usize>,
    /// Keep only traces at most this many append batches old: a trace
    /// appended by the latest batch has age 0. `Some(0)` retains only the
    /// most recent batch.
    pub max_age: Option<u64>,
}

impl RetentionPolicy {
    /// A count-bounded window.
    pub fn keep_last(max_traces: usize) -> RetentionPolicy {
        RetentionPolicy {
            max_traces: Some(max_traces),
            max_age: None,
        }
    }

    /// True when the policy never evicts.
    pub fn is_unbounded(&self) -> bool {
        self.max_traces.is_none() && self.max_age.is_none()
    }
}

/// The columnar form of one normalized trace, produced off-thread and
/// appended to a shard with a cheap offset fix-up.
#[derive(Clone, Debug, Default)]
struct Block {
    seed: u64,
    duration: Time,
    fail_kind: u32,
    fail_method: u32,
    ev_method: Vec<u32>,
    ev_instance: Vec<u32>,
    ev_thread: Vec<u32>,
    ev_start: Vec<Time>,
    ev_end: Vec<Time>,
    ev_ret: Vec<i64>,
    ev_exc: Vec<u32>,
    ev_flags: Vec<u8>,
    acc_start: Vec<u32>,
    acc_len: Vec<u32>,
    ac_object: Vec<u32>,
    ac_at: Vec<Time>,
    ac_flags: Vec<u8>,
    mg_channel: Vec<u32>,
    mg_kind: Vec<u8>,
    mg_seq: Vec<u32>,
    mg_value: Vec<i64>,
    mg_sent: Vec<Time>,
    mg_at: Vec<Time>,
    mg_thread: Vec<u32>,
}

/// Builds the block for one trace. `trace` must already be remapped into
/// the store's arenas, with every exception/failure kind it carries
/// already interned in `kinds`.
fn build_block(mut trace: Trace, kinds: &IdArena<String, KindTag>) -> Block {
    let kind_id = |k: &String| kinds.get(k).expect("kind interned before packing").raw();
    trace.normalize();
    let mut b = Block {
        seed: trace.seed,
        duration: trace.duration,
        ..Block::default()
    };
    match &trace.outcome {
        Outcome::Success => {}
        Outcome::Failure(sig) => {
            b.fail_kind = kind_id(&sig.kind) + 1;
            b.fail_method = sig.method.raw();
        }
    }
    for e in &trace.events {
        b.ev_method.push(e.method.raw());
        b.ev_instance.push(e.instance);
        b.ev_thread.push(e.thread.raw());
        b.ev_start.push(e.start);
        b.ev_end.push(e.end);
        b.ev_ret.push(e.returned.unwrap_or(0));
        b.ev_exc
            .push(e.exception.as_ref().map_or(0, |k| kind_id(k) + 1));
        let mut flags = 0u8;
        if e.returned.is_some() {
            flags |= EV_HAS_RET;
        }
        if e.caught {
            flags |= EV_CAUGHT;
        }
        b.ev_flags.push(flags);
        b.acc_start.push(b.ac_object.len() as u32);
        b.acc_len.push(e.accesses.len() as u32);
        for a in &e.accesses {
            b.ac_object.push(a.object.raw());
            b.ac_at.push(a.at);
            let mut aflags = 0u8;
            if a.kind == AccessKind::Write {
                aflags |= AC_WRITE;
            }
            if a.locked {
                aflags |= AC_LOCKED;
            }
            b.ac_flags.push(aflags);
        }
    }
    for m in &trace.msgs {
        b.mg_channel.push(m.channel.raw());
        b.mg_kind.push(pack_msg_kind(m.kind, m.dup));
        b.mg_seq.push(m.seq);
        b.mg_value.push(m.value);
        b.mg_sent.push(m.sent);
        b.mg_at.push(m.at);
        b.mg_thread.push(m.thread.raw());
    }
    b
}

/// Column-store sizing and memory telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnStats {
    /// Traces retained.
    pub traces: usize,
    /// Event rows retained.
    pub events: usize,
    /// Access rows retained.
    pub accesses: usize,
    /// Message rows retained.
    pub msgs: usize,
    /// Shards.
    pub shards: usize,
    /// Traces evicted by retention over the store's lifetime.
    pub evicted: usize,
    /// Compaction passes that actually dropped rows.
    pub compactions: usize,
}

/// The sharded columnar trace store.
#[derive(Debug)]
pub struct ColumnStore {
    methods: IdArena<String, MethodTag>,
    objects: IdArena<String, ObjectTag>,
    channels: IdArena<String, ChannelTag>,
    kinds: IdArena<String, KindTag>,
    shards: Vec<Shard>,
    /// First retained global id (== traces evicted so far).
    base: usize,
    /// One past the newest global id (== traces ever appended). Shard
    /// placement and row arithmetic key off this, so ids never shift.
    total: usize,
    /// Logical clock, advanced once per append batch.
    clock: u64,
    /// Compaction passes that dropped at least one trace — an [`aid_obs`]
    /// cell, so [`ColumnStats`] reads the same counter plane as the rest
    /// of the stack. Per-store (detached): the server folds per-store
    /// deltas into its registry-backed counters.
    compactions: Counter,
}

impl Clone for ColumnStore {
    /// Clones the store with value semantics: the clone gets its own
    /// compaction cell at the current count, not a share of this one.
    fn clone(&self) -> ColumnStore {
        let compactions = Counter::detached();
        compactions.add(self.compactions.get());
        ColumnStore {
            methods: self.methods.clone(),
            objects: self.objects.clone(),
            channels: self.channels.clone(),
            kinds: self.kinds.clone(),
            shards: self.shards.clone(),
            base: self.base,
            total: self.total,
            clock: self.clock,
            compactions,
        }
    }
}

impl ColumnStore {
    /// An empty store with `shards` shards (clamped to at least one).
    pub fn new(shards: usize) -> ColumnStore {
        ColumnStore {
            methods: IdArena::new(),
            objects: IdArena::new(),
            channels: IdArena::new(),
            kinds: IdArena::new(),
            shards: vec![Shard::default(); shards.max(1)],
            base: 0,
            total: 0,
            clock: 0,
            compactions: Counter::detached(),
        }
    }

    /// Number of traces retained.
    pub fn len(&self) -> usize {
        self.total - self.base
    }

    /// True when no trace is retained.
    pub fn is_empty(&self) -> bool {
        self.total == self.base
    }

    /// The retained window of global ids: eviction drops the front, so
    /// valid ids are `base()..high()` and never shift or get reused.
    pub fn retained(&self) -> std::ops::Range<usize> {
        self.base..self.total
    }

    /// First retained global id (equals the traces evicted so far).
    pub fn base(&self) -> usize {
        self.base
    }

    /// One past the newest global id (traces ever appended).
    pub fn high(&self) -> usize {
        self.total
    }

    /// The logical clock: append batches seen so far. A trace's age is the
    /// number of batches appended after its own.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The append tick of trace `gid` (for age-based retention).
    pub fn tick(&self, gid: usize) -> u64 {
        let (s, row) = self.locate(gid);
        self.shards[s].tick[row]
    }

    /// Shard index and (compaction-adjusted) row of a retained `gid`.
    fn locate(&self, gid: usize) -> (usize, usize) {
        assert!(
            gid >= self.base && gid < self.total,
            "trace {gid} out of retained window {}..{}",
            self.base,
            self.total
        );
        let shards = self.shards.len();
        let s = gid % shards;
        // Rows evicted from shard `s`: ids in `0..base` congruent to `s`.
        let dropped = self.base / shards + usize::from(s < self.base % shards);
        (s, gid / shards - dropped)
    }

    /// Evicts the `count` oldest retained traces (clamped to the retained
    /// window), compacting every shard in place. Returns the number
    /// evicted.
    pub fn evict_front(&mut self, count: usize) -> usize {
        let count = count.min(self.len());
        if count == 0 {
            return 0;
        }
        let shards = self.shards.len();
        let (old, new) = (self.base, self.base + count);
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let before = old / shards + usize::from(s < old % shards);
            let after = new / shards + usize::from(s < new % shards);
            shard.trim_front(after - before);
        }
        self.base = new;
        self.compactions.inc();
        count
    }

    /// Applies a retention policy: evicts the oldest traces until both the
    /// count bound and the age bound hold. Returns the number evicted.
    pub fn apply_retention(&mut self, policy: RetentionPolicy) -> usize {
        if policy.is_unbounded() {
            return 0;
        }
        let mut drop = 0usize;
        if let Some(max) = policy.max_traces {
            drop = self.len().saturating_sub(max);
        }
        if let Some(max_age) = policy.max_age {
            let newest = self.clock.saturating_sub(1);
            while self.base + drop < self.total {
                let age = newest.saturating_sub(self.tick(self.base + drop));
                if age <= max_age {
                    break;
                }
                drop += 1;
            }
        }
        self.evict_front(drop)
    }

    /// Interned method names.
    pub fn methods(&self) -> &IdArena<String, MethodTag> {
        &self.methods
    }

    /// Interned object names.
    pub fn objects(&self) -> &IdArena<String, ObjectTag> {
        &self.objects
    }

    /// Interned channel names.
    pub fn channels(&self) -> &IdArena<String, ChannelTag> {
        &self.channels
    }

    /// Row-count telemetry.
    pub fn stats(&self) -> ColumnStats {
        ColumnStats {
            traces: self.len(),
            events: self.shards.iter().map(|s| s.ev_method.len()).sum(),
            accesses: self.shards.iter().map(|s| s.ac_object.len()).sum(),
            msgs: self.shards.iter().map(|s| s.mg_channel.len()).sum(),
            shards: self.shards.len(),
            evicted: self.base,
            compactions: self.compactions.get() as usize,
        }
    }

    /// Builds the maps from a source's arenas into this store's, interning
    /// unseen names. Identity when the source declares the same names in
    /// the same order (the common single-source case).
    pub fn remap_tables(
        &mut self,
        methods: &IdArena<String, MethodTag>,
        objects: &IdArena<String, ObjectTag>,
        channels: &IdArena<String, ChannelTag>,
    ) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let m = methods
            .iter()
            .map(|(_, name)| self.methods.intern(name.clone()).raw())
            .collect();
        let o = objects
            .iter()
            .map(|(_, name)| self.objects.intern(name.clone()).raw())
            .collect();
        let c = channels
            .iter()
            .map(|(_, name)| self.channels.intern(name.clone()).raw())
            .collect();
        (m, o, c)
    }

    /// Appends a batch of traces whose ids are relative to the given remap
    /// tables (from [`ColumnStore::remap_tables`]). Returns the global ids
    /// assigned, in input order.
    pub fn append_batch(
        &mut self,
        traces: Vec<Trace>,
        method_map: &[u32],
        object_map: &[u32],
        channel_map: &[u32],
    ) -> std::ops::Range<usize> {
        let stamp = self.clock;
        self.clock += 1;
        let first = self.total;
        for mut t in traces {
            // Remap ids into store arenas and intern every exception/failure
            // kind, then pack the trace into its shard.
            if let Outcome::Failure(sig) = &mut t.outcome {
                self.kinds.intern(sig.kind.clone());
                sig.method = MethodId::from_raw(method_map[sig.method.index()]);
            }
            for e in &mut t.events {
                e.method = MethodId::from_raw(method_map[e.method.index()]);
                if let Some(k) = &e.exception {
                    self.kinds.intern(k.clone());
                }
                for a in &mut e.accesses {
                    a.object = ObjectId::from_raw(object_map[a.object.index()]);
                }
            }
            for m in &mut t.msgs {
                m.channel = ChannelId::from_raw(channel_map[m.channel.index()]);
            }
            let block = build_block(t, &self.kinds);
            let shard = self.total % self.shards.len();
            self.shards[shard].push_block(block, stamp);
            self.total += 1;
        }
        first..self.total
    }

    /// Re-materializes the trace with global id `gid`.
    ///
    /// Panics if `gid` is outside the retained window.
    pub fn trace(&self, gid: usize) -> Trace {
        let (shard, row) = self.locate(gid);
        let s = &self.shards[shard];
        let outcome = match s.fail_kind[row] {
            0 => Outcome::Success,
            k => Outcome::Failure(FailureSignature {
                kind: self.kinds.resolve(aid_util::Id::from_raw(k - 1)).clone(),
                method: MethodId::from_raw(s.fail_method[row]),
            }),
        };
        let ev0 = s.event_start[row] as usize;
        let ev1 = ev0 + s.event_len[row] as usize;
        let events = (ev0..ev1)
            .map(|e| {
                let ac0 = s.acc_start[e] as usize;
                let ac1 = ac0 + s.acc_len[e] as usize;
                MethodEvent {
                    method: MethodId::from_raw(s.ev_method[e]),
                    instance: s.ev_instance[e],
                    thread: ThreadId::from_raw(s.ev_thread[e]),
                    start: s.ev_start[e],
                    end: s.ev_end[e],
                    accesses: (ac0..ac1)
                        .map(|a| AccessEvent {
                            object: ObjectId::from_raw(s.ac_object[a]),
                            kind: if s.ac_flags[a] & AC_WRITE != 0 {
                                AccessKind::Write
                            } else {
                                AccessKind::Read
                            },
                            at: s.ac_at[a],
                            locked: s.ac_flags[a] & AC_LOCKED != 0,
                        })
                        .collect(),
                    returned: (s.ev_flags[e] & EV_HAS_RET != 0).then(|| s.ev_ret[e]),
                    exception: match s.ev_exc[e] {
                        0 => None,
                        k => Some(self.kinds.resolve(aid_util::Id::from_raw(k - 1)).clone()),
                    },
                    caught: s.ev_flags[e] & EV_CAUGHT != 0,
                }
            })
            .collect();
        let mg0 = s.msg_start[row] as usize;
        let mg1 = mg0 + s.msg_len[row] as usize;
        let msgs = (mg0..mg1)
            .map(|m| {
                let (kind, dup) = unpack_msg_kind(s.mg_kind[m]);
                MsgEvent {
                    channel: ChannelId::from_raw(s.mg_channel[m]),
                    kind,
                    seq: s.mg_seq[m],
                    value: s.mg_value[m],
                    sent: s.mg_sent[m],
                    at: s.mg_at[m],
                    thread: ThreadId::from_raw(s.mg_thread[m]),
                    dup,
                }
            })
            .collect();
        Trace {
            seed: s.seed[row],
            events,
            msgs,
            outcome,
            duration: s.duration[row],
        }
    }

    /// Whether the trace with global id `gid` failed, without materializing
    /// events.
    pub fn failed(&self, gid: usize) -> bool {
        let (s, row) = self.locate(gid);
        self.shards[s].fail_kind[row] != 0
    }

    /// The failure signature of trace `gid`, if it failed.
    pub fn signature(&self, gid: usize) -> Option<FailureSignature> {
        let (shard, row) = self.locate(gid);
        let s = &self.shards[shard];
        match s.fail_kind[row] {
            0 => None,
            k => Some(FailureSignature {
                kind: self.kinds.resolve(aid_util::Id::from_raw(k - 1)).clone(),
                method: MethodId::from_raw(s.fail_method[row]),
            }),
        }
    }

    /// The `(seed, duration)` of trace `gid` without materializing events.
    pub fn header(&self, gid: usize) -> (u64, Time) {
        let (s, row) = self.locate(gid);
        (self.shards[s].seed[row], self.shards[s].duration[row])
    }

    /// Re-materializes the retained window as a labeled set (arenas +
    /// retained traces in global order) — the bridge back into every batch
    /// API. The interning arenas are append-only, so after eviction they
    /// may carry names only evicted traces used; the traces themselves are
    /// exactly the retained suffix.
    pub fn to_trace_set(&self) -> TraceSet {
        TraceSet {
            methods: self.methods.clone(),
            objects: self.objects.clone(),
            channels: self.channels.clone(),
            traces: self.retained().map(|g| self.trace(g)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aid_trace::codec;

    fn sample_set() -> TraceSet {
        let mut set = TraceSet::new();
        let m0 = set.method("Reader");
        let m1 = set.method("Writer");
        let o = set.object("slot");
        for seed in 0..7u64 {
            let failed = seed % 3 == 0;
            let mut t = Trace {
                seed,
                events: vec![
                    MethodEvent {
                        method: m0,
                        instance: 0,
                        thread: ThreadId::from_raw(0),
                        start: seed,
                        end: seed + 10,
                        accesses: vec![AccessEvent {
                            object: o,
                            kind: AccessKind::Read,
                            at: seed + 1,
                            locked: seed % 2 == 0,
                        }],
                        returned: (seed % 2 == 0).then_some(seed as i64 - 3),
                        exception: None,
                        caught: false,
                    },
                    MethodEvent {
                        method: m1,
                        instance: 0,
                        thread: ThreadId::from_raw(1),
                        start: seed + 2,
                        end: seed + 5,
                        accesses: vec![AccessEvent {
                            object: o,
                            kind: AccessKind::Write,
                            at: seed + 3,
                            locked: false,
                        }],
                        returned: None,
                        exception: failed.then(|| "Overflow".to_string()),
                        caught: seed == 6,
                    },
                ],
                msgs: vec![],
                outcome: if failed {
                    Outcome::Failure(FailureSignature {
                        kind: "Overflow".into(),
                        method: m1,
                    })
                } else {
                    Outcome::Success
                },
                duration: seed + 20,
            };
            t.normalize();
            set.push(t);
        }
        set
    }

    #[test]
    fn columnar_roundtrip_is_byte_identical() {
        let set = sample_set();
        for shards in [1usize, 2, 3, 8] {
            let mut store = ColumnStore::new(shards);
            let (m, o, c) = store.remap_tables(&set.methods, &set.objects, &set.channels);
            let range = store.append_batch(set.traces.clone(), &m, &o, &c);
            assert_eq!(range, 0..set.traces.len());
            assert_eq!(store.len(), set.traces.len());
            let back = store.to_trace_set();
            assert_eq!(codec::encode(&back), codec::encode(&set), "{shards} shards");
        }
    }

    #[test]
    fn cross_source_remap_unifies_arenas() {
        // Second source declares the same names in a different order.
        let set = sample_set();
        let mut other = TraceSet::new();
        let w = other.method("Writer");
        other.method("Reader");
        other.object("slot");
        let mut t = Trace {
            seed: 99,
            events: vec![MethodEvent {
                method: w,
                instance: 0,
                thread: ThreadId::from_raw(0),
                start: 0,
                end: 1,
                accesses: vec![],
                returned: None,
                exception: None,
                caught: false,
            }],
            msgs: vec![],
            outcome: Outcome::Success,
            duration: 2,
        };
        t.normalize();
        other.push(t);

        let mut store = ColumnStore::new(2);
        let (m, o, c) = store.remap_tables(&set.methods, &set.objects, &set.channels);
        store.append_batch(set.traces.clone(), &m, &o, &c);
        let (m2, o2, c2) = store.remap_tables(&other.methods, &other.objects, &other.channels);
        store.append_batch(other.traces.clone(), &m2, &o2, &c2);
        // "Writer" from the second source resolves to the store's id 1.
        let last = store.trace(store.len() - 1);
        assert_eq!(last.events[0].method.raw(), 1);
        assert_eq!(store.methods().len(), 2, "no duplicate names");
        assert_eq!(store.failed(0), set.traces[0].failed());
        assert_eq!(
            store.signature(0),
            None.or_else(|| match &set.traces[0].outcome {
                Outcome::Failure(s) => Some(s.clone()),
                Outcome::Success => None,
            })
        );
    }

    #[test]
    fn headers_match_materialized_traces() {
        let set = sample_set();
        let mut store = ColumnStore::new(3);
        let (m, o, c) = store.remap_tables(&set.methods, &set.objects, &set.channels);
        store.append_batch(set.traces.clone(), &m, &o, &c);
        for g in 0..store.len() {
            let t = store.trace(g);
            assert_eq!(store.header(g), (t.seed, t.duration));
            assert_eq!(store.failed(g), t.failed());
        }
        let stats = store.stats();
        assert_eq!(stats.traces, 7);
        assert_eq!(stats.events, 14);
        assert_eq!(stats.accesses, 14);
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.compactions, 0);
    }

    /// The retained window after any front eviction re-encodes exactly as
    /// the same suffix pushed into a fresh `TraceSet` over the full arenas.
    fn assert_window_identical(store: &ColumnStore, set: &TraceSet, evicted: usize) {
        let expected = TraceSet {
            methods: set.methods.clone(),
            objects: set.objects.clone(),
            channels: set.channels.clone(),
            traces: set.traces[evicted..].to_vec(),
        };
        assert_eq!(
            codec::encode(&store.to_trace_set()),
            codec::encode(&expected),
            "window after evicting {evicted}"
        );
    }

    #[test]
    fn eviction_preserves_retained_window() {
        let set = sample_set();
        for shards in [1usize, 2, 3, 8] {
            let mut store = ColumnStore::new(shards);
            let (m, o, c) = store.remap_tables(&set.methods, &set.objects, &set.channels);
            store.append_batch(set.traces.clone(), &m, &o, &c);
            let mut evicted = 0;
            for step in [1usize, 2, 1] {
                evicted += store.evict_front(step);
                assert_eq!(store.base(), evicted, "{shards} shards");
                assert_eq!(store.len(), set.traces.len() - evicted);
                assert_window_identical(&store, &set, evicted);
                for g in store.retained() {
                    let t = store.trace(g);
                    assert_eq!(store.header(g), (t.seed, t.duration));
                    assert_eq!(store.failed(g), t.failed());
                }
            }
            let stats = store.stats();
            assert_eq!(stats.evicted, 4);
            assert_eq!(stats.compactions, 3);
            // Appends after eviction keep global ids monotone and the
            // window property intact.
            let range = store.append_batch(set.traces.clone(), &m, &o, &c);
            assert_eq!(range, 7..14);
            assert_eq!(store.len(), 3 + 7);
            let mut full = set.clone();
            full.traces.extend(set.traces.iter().cloned());
            assert_window_identical(&store, &full, 4);
        }
    }

    #[test]
    fn evict_everything_then_refill() {
        let set = sample_set();
        let mut store = ColumnStore::new(3);
        let (m, o, c) = store.remap_tables(&set.methods, &set.objects, &set.channels);
        store.append_batch(set.traces.clone(), &m, &o, &c);
        assert_eq!(store.evict_front(usize::MAX), 7);
        assert!(store.is_empty());
        assert_eq!(store.retained(), 7..7);
        let range = store.append_batch(set.traces.clone(), &m, &o, &c);
        assert_eq!(range, 7..14);
        assert_window_identical(&store, &set, 0);
    }

    #[test]
    fn retention_policy_bounds_count_and_age() {
        let set = sample_set();
        let mut store = ColumnStore::new(2);
        let (m, o, c) = store.remap_tables(&set.methods, &set.objects, &set.channels);
        // Three batches → ticks 0, 1, 2.
        for _ in 0..3 {
            store.append_batch(set.traces.clone(), &m, &o, &c);
        }
        assert_eq!(store.clock(), 3);
        assert_eq!(store.apply_retention(RetentionPolicy::default()), 0);
        // Count bound: keep the last 10.
        let evicted = store.apply_retention(RetentionPolicy::keep_last(10));
        assert_eq!(evicted, 11);
        assert_eq!(store.len(), 10);
        // Age bound: batch 0 (age 2) is already gone; age ≤ 0 keeps only
        // the newest batch's traces.
        let evicted = store.apply_retention(RetentionPolicy {
            max_traces: None,
            max_age: Some(0),
        });
        assert_eq!(evicted, 3);
        assert_eq!(store.len(), 7);
        assert!(store.retained().all(|g| store.tick(g) == 2));
        assert_window_identical(
            &store,
            &TraceSet {
                methods: set.methods.clone(),
                objects: set.objects.clone(),
                channels: set.channels.clone(),
                traces: set.traces.clone(),
            },
            0,
        );
    }
}
