//! The repository benchmark: AID discovery sessions as a user waits for
//! them, over the served path (`aid_serve` on loopback TCP) and straight
//! through the library (`aid_store` + `aid_engine`), plus standing queries
//! (`aid_watch` behind the server).
//!
//! Every workload replays the lab scenarios of one seed range (see
//! [`scenario_seeds`]). Load is closed-loop: each caller sends its next
//! session only after the previous reply. A run is a series of *cycles*
//! over the scenario list, each cut into *passes*; a pass starts a cold
//! server (or engine) and replays its [`PASS_SCENARIOS`] scenarios, so
//! every count a cycle produces repeats exactly for a seed.

pub mod inproc;
pub mod run;
pub mod served;
pub mod stats;

use aid_core::DiscoveryResult;
use aid_lab::{prepare_replay, LabParams, ReplayItem};
use aid_trace::{codec, Outcome, TraceSet};
use std::ops::Range;

/// Tie-breaking seed of every discovery session.
pub const DISCOVERY_SEED: u64 = 11;
/// First intervention seed of every discovery session.
pub const FIRST_SEED: u64 = 1_000_000;
/// Upload chunk size in bytes.
pub const CHUNK: usize = 4096;
/// Byte tails a standing query streams its corpus in.
pub const TAILS: usize = 3;
/// Client threads (and connections) on the served workloads.
pub const CLIENTS: usize = 2;
/// Engine worker threads, served and in-process alike.
pub const WORKERS: usize = 2;
/// Lab scenario seeds are drawn from `seed * SEED_STRIDE ..`.
pub const SEED_STRIDE: u64 = 100_000;
/// Scenarios one pass replays against its cold server or engine. Short
/// passes give a run many passes to take the median over, so a burst of
/// neighbour load on the host moves `sessions_per_s` little.
pub const PASS_SCENARIOS: usize = 20;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two TCP clients replay the same scenario list: upload → submit →
    /// wait. Each scenario executes once and is served from the shared
    /// cache once.
    ReplayShared,
    /// One caller drives the same inputs through `TraceStore` and
    /// `Engine` directly, from a cold cache; `aid_serve` is not involved.
    ReplayInproc,
    /// Two TCP clients run standing queries: subscribe → the corpus as
    /// byte tails → one stat-neutral tail → unsubscribe.
    StreamWatch,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` names them.
    pub const ALL: [Workload; 3] = [
        Workload::ReplayShared,
        Workload::ReplayInproc,
        Workload::StreamWatch,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayShared => "replay-shared",
            Workload::ReplayInproc => "replay-inproc",
            Workload::StreamWatch => "stream-watch",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The lab scenario seeds a benchmark seed stands for.
pub fn scenario_seeds(seed: u64, scenarios: usize) -> std::ops::Range<u64> {
    let first = seed * SEED_STRIDE;
    first..first + scenarios as u64
}

/// A workload's inputs: the replay items and, per item, a stat-neutral
/// tail.
pub struct Inputs {
    /// Validated scenarios, their corpora and upload bytes.
    pub items: Vec<ReplayItem>,
    /// Per item, an encoded tail that moves no predicate statistic.
    pub neutral: Vec<String>,
}

impl Inputs {
    /// Generates the inputs of `scenarios` lab scenarios for `seed`.
    /// Deterministic per `(seed, scenarios)`.
    pub fn prepare(seed: u64, scenarios: usize) -> Inputs {
        let items = prepare_replay(&LabParams::default(), scenario_seeds(seed, scenarios));
        let neutral = items.iter().map(|i| neutral_tail(&i.corpus)).collect();
        Inputs { items, neutral }
    }

    /// The items in `range`, with their indices.
    pub fn slice(&self, range: Range<usize>) -> impl Iterator<Item = (usize, &ReplayItem)> {
        range.clone().zip(&self.items[range])
    }

    /// The item ranges the passes of one cycle replay: consecutive runs
    /// of [`PASS_SCENARIOS`] items covering every item once.
    pub fn cycle(&self) -> Vec<Range<usize>> {
        let n = self.items.len();
        (0..n)
            .step_by(PASS_SCENARIOS)
            .map(|s| s..(s + PASS_SCENARIOS).min(n))
            .collect()
    }
}

/// A tail that moves no predicate statistic: a replay of a successful run
/// already in the corpus.
fn neutral_tail(corpus: &TraceSet) -> String {
    let replay = corpus
        .traces
        .iter()
        .find(|t| matches!(t.outcome, Outcome::Success))
        .cloned()
        .expect("validated corpora contain successful runs");
    codec::encode(&TraceSet {
        methods: corpus.methods.clone(),
        objects: corpus.objects.clone(),
        channels: corpus.channels.clone(),
        traces: vec![replay],
    })
}

/// What a discovery answers: the causal path and its intervention rounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Confirmed causal predicates, root cause first.
    pub causal: Vec<u32>,
    /// Intervention rounds spent.
    pub rounds: usize,
}

impl Answer {
    /// The answer a discovery result gives.
    pub fn of(result: &DiscoveryResult) -> Answer {
        Answer {
            causal: result.causal.iter().map(|p| p.raw()).collect(),
            rounds: result.rounds,
        }
    }
}

/// One finished session as its caller saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index of the scenario in the inputs.
    pub scenario: usize,
    /// Session latency in milliseconds.
    pub latency_ms: f64,
    /// The discovery answer delivered.
    pub answer: Answer,
}

/// Engine-side counts of one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Real executions.
    pub executions: u64,
    /// Cache lookups answered from memory.
    pub hits: u64,
    /// Cache lookups that missed.
    pub misses: u64,
    /// Lookups coalesced onto another session's in-flight execution.
    pub coalesced: u64,
}

impl std::ops::AddAssign for EngineCounts {
    fn add_assign(&mut self, o: EngineCounts) {
        self.executions += o.executions;
        self.hits += o.hits;
        self.misses += o.misses;
        self.coalesced += o.coalesced;
    }
}

/// What one pass over the inputs produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Completed sessions.
    pub samples: Vec<Sample>,
    /// Sessions started.
    pub attempted: u64,
    /// One line per failed or rejected session, or failed check.
    pub failures: Vec<String>,
    /// Wall time from the first session's start to the last one's end.
    pub elapsed_s: f64,
    /// Engine counts (from the server's `Metrics` frame on a served pass,
    /// when tracing; from `Engine::stats` in process).
    pub engine: Option<EngineCounts>,
    /// Server `frames_in + frames_out` and handler dispatches, from the
    /// `Metrics` frame of a traced served pass.
    pub server: Option<(u64, u64)>,
    /// Round trips the clients made inside their sessions, counted on
    /// their connections (0 in process).
    pub round_trips: u64,
    /// Corpus bytes ingested through `TraceStore` (0 on a served pass).
    pub ingested_bytes: usize,
    /// Per-call timings (empty unless tracing).
    pub trace: stats::Trace,
}

impl Pass {
    /// Completed sessions per second of this pass.
    pub fn rate(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.samples.len() as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}
