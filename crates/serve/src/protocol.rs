//! The versioned request/response frames of the debugging service.
//!
//! Every frame is length-prefixed and carries the protocol version in its
//! header (see [`crate::wire`]). Payload encodings are hand-rolled
//! little-endian field sequences behind the workspace's offline `serde`
//! marker derives — the shim provides no serialization machinery, so the
//! byte layout lives here, next to the types it serializes.
//!
//! Decoding is total: any byte sequence produces either a value or a typed
//! [`WireError`], never a panic — `tests/frame_roundtrip.rs` proptests
//! round-trips, truncations, and corruptions of every frame kind.

use crate::wire::{self, put_bytes, put_string, Reader, WireError};
use aid_core::{DiscoverOptions, DiscoveryResult, Phase, RoundLog, Strategy};
use aid_lab::{BugClass, ScenarioSpec};
use aid_obs::{HistogramSnapshot, MetricEntry, MetricValue, MetricsSnapshot};
use aid_predicates::PredicateId;
use aid_trace::{FailureSignature, MethodId};
use aid_watch::WatchEvent;
use bytes::BufMut;
use serde::{Deserialize, Serialize};

/// Which program a discovery session executes interventions on. The
/// program itself never crosses the wire — every variant is a deterministic
/// *recipe* the server can rebuild bit-identically, which is what makes
/// cross-client intervention-cache hits possible.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ProgramSpec {
    /// One of the six named case studies (`aid_cases::all_cases`).
    Case {
        /// The case's name, e.g. `"npgsql"`.
        name: String,
    },
    /// A generated lab scenario, rebuilt via [`aid_lab::build`].
    Lab(ScenarioSpec),
    /// A Figure-8 synthetic application served by the exact oracle
    /// (`aid_synth::generate` under default parameters). Needs no uploaded
    /// traces: the oracle knows the ground truth.
    Synth {
        /// The application seed.
        app_seed: u64,
    },
}

/// Which extraction configuration an upload is analyzed under. Like
/// [`ProgramSpec`] this is a *recipe*: the six case studies and the lab
/// templates carry their own purity markings and safety knobs, and a
/// server-side analysis is only comparable to an in-process one if both
/// ran under the same configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AnalysisSpec {
    /// The server's configured default (`ServeConfig.store.extraction`).
    Default,
    /// The named case study's extraction configuration.
    Case {
        /// The case's name, e.g. `"npgsql"`.
        name: String,
    },
    /// The generated lab scenario's extraction configuration.
    Lab(ScenarioSpec),
}

fn put_scenario_spec(buf: &mut Vec<u8>, s: &ScenarioSpec) {
    buf.put_u64_le(s.seed);
    buf.put_u32_le(s.attempt);
    let class = BugClass::ALL
        .iter()
        .position(|c| *c == s.bug_class)
        .expect("bug class is one of ALL") as u8;
    buf.put_u8(class);
    buf.put_u32_le(s.mirrors as u32);
    buf.put_u32_le(s.chain as u32);
    buf.put_u32_le(s.monitors as u32);
    buf.put_u32_le(s.noise_threads as u32);
}

fn get_scenario_spec(r: &mut Reader<'_>) -> Result<ScenarioSpec, WireError> {
    let seed = r.u64()?;
    let attempt = r.u32()?;
    let class = r.u8()?;
    let bug_class = *BugClass::ALL
        .get(class as usize)
        .ok_or(WireError::UnknownTag {
            what: "bug class",
            tag: class,
        })?;
    Ok(ScenarioSpec {
        seed,
        attempt,
        bug_class,
        mirrors: r.u32()? as usize,
        chain: r.u32()? as usize,
        monitors: r.u32()? as usize,
        noise_threads: r.u32()? as usize,
    })
}

fn put_analysis_spec(buf: &mut Vec<u8>, spec: &AnalysisSpec) {
    match spec {
        AnalysisSpec::Default => buf.put_u8(0),
        AnalysisSpec::Case { name } => {
            buf.put_u8(1);
            put_string(buf, name);
        }
        AnalysisSpec::Lab(s) => {
            buf.put_u8(2);
            put_scenario_spec(buf, s);
        }
    }
}

fn get_analysis_spec(r: &mut Reader<'_>) -> Result<AnalysisSpec, WireError> {
    match r.u8()? {
        0 => Ok(AnalysisSpec::Default),
        1 => Ok(AnalysisSpec::Case { name: r.string()? }),
        2 => Ok(AnalysisSpec::Lab(get_scenario_spec(r)?)),
        tag => Err(WireError::UnknownTag {
            what: "analysis spec",
            tag,
        }),
    }
}

fn put_program_spec(buf: &mut Vec<u8>, spec: &ProgramSpec) {
    match spec {
        ProgramSpec::Case { name } => {
            buf.put_u8(0);
            put_string(buf, name);
        }
        ProgramSpec::Lab(s) => {
            buf.put_u8(1);
            put_scenario_spec(buf, s);
        }
        ProgramSpec::Synth { app_seed } => {
            buf.put_u8(2);
            buf.put_u64_le(*app_seed);
        }
    }
}

fn get_program_spec(r: &mut Reader<'_>) -> Result<ProgramSpec, WireError> {
    match r.u8()? {
        0 => Ok(ProgramSpec::Case { name: r.string()? }),
        1 => Ok(ProgramSpec::Lab(get_scenario_spec(r)?)),
        2 => Ok(ProgramSpec::Synth { app_seed: r.u64()? }),
        tag => Err(WireError::UnknownTag {
            what: "program spec",
            tag,
        }),
    }
}

fn put_strategy(buf: &mut Vec<u8>, s: Strategy) {
    match s {
        Strategy::Aid => buf.put_u8(0),
        Strategy::AidP => buf.put_u8(1),
        Strategy::AidPB => buf.put_u8(2),
        Strategy::Tagt => buf.put_u8(3),
        Strategy::Custom { branch, prune } => {
            buf.put_u8(4);
            buf.put_u8(branch as u8);
            buf.put_u8(prune as u8);
        }
    }
}

fn get_strategy(r: &mut Reader<'_>) -> Result<Strategy, WireError> {
    match r.u8()? {
        0 => Ok(Strategy::Aid),
        1 => Ok(Strategy::AidP),
        2 => Ok(Strategy::AidPB),
        3 => Ok(Strategy::Tagt),
        4 => Ok(Strategy::Custom {
            branch: r.bool("custom branch flag")?,
            prune: r.bool("custom prune flag")?,
        }),
        tag => Err(WireError::UnknownTag {
            what: "strategy",
            tag,
        }),
    }
}

fn put_predicates(buf: &mut Vec<u8>, ids: &[PredicateId]) {
    buf.put_u32_le(ids.len() as u32);
    for id in ids {
        buf.put_u32_le(id.raw());
    }
}

fn get_predicates(r: &mut Reader<'_>) -> Result<Vec<PredicateId>, WireError> {
    let n = r.u32()? as usize;
    // Bound the allocation by what the payload can actually hold (4 bytes
    // per id), so a corrupted length cannot balloon memory.
    if r.remaining() / 4 < n {
        return Err(WireError::Truncated {
            needed: n * 4,
            available: r.remaining(),
        });
    }
    (0..n)
        .map(|_| Ok(PredicateId::from_raw(r.u32()?)))
        .collect()
}

fn put_result(buf: &mut Vec<u8>, result: &DiscoveryResult) {
    put_predicates(buf, &result.causal);
    put_predicates(buf, &result.spurious);
    buf.put_u32_le(result.failure.raw());
    buf.put_u64_le(result.rounds as u64);
    buf.put_u32_le(result.log.len() as u32);
    for round in &result.log {
        buf.put_u8(match round.phase {
            Phase::Branch => 0,
            Phase::Giwp => 1,
            Phase::Tagt => 2,
        });
        put_predicates(buf, &round.intervened);
        buf.put_u8(round.stopped as u8);
        put_predicates(buf, &round.confirmed);
        put_predicates(buf, &round.pruned);
    }
}

fn get_result(r: &mut Reader<'_>) -> Result<DiscoveryResult, WireError> {
    let causal = get_predicates(r)?;
    let spurious = get_predicates(r)?;
    let failure = PredicateId::from_raw(r.u32()?);
    let rounds = r.u64()? as usize;
    let n = r.u32()? as usize;
    // A round encodes to at least 14 bytes (phase byte, three u32 length
    // prefixes, stopped byte); bound the allocation by what the payload
    // can actually hold so a hostile count cannot balloon memory.
    const MIN_ROUND_BYTES: usize = 14;
    if r.remaining() / MIN_ROUND_BYTES < n {
        return Err(WireError::Truncated {
            needed: n * MIN_ROUND_BYTES,
            available: r.remaining(),
        });
    }
    let mut log = Vec::with_capacity(n);
    for _ in 0..n {
        let phase = match r.u8()? {
            0 => Phase::Branch,
            1 => Phase::Giwp,
            2 => Phase::Tagt,
            tag => return Err(WireError::UnknownTag { what: "phase", tag }),
        };
        log.push(RoundLog {
            phase,
            intervened: get_predicates(r)?,
            stopped: r.bool("round stopped flag")?,
            confirmed: get_predicates(r)?,
            pruned: get_predicates(r)?,
        });
    }
    Ok(DiscoveryResult {
        causal,
        spurious,
        failure,
        rounds,
        log,
    })
}

fn put_watch_event(buf: &mut Vec<u8>, event: &WatchEvent) {
    match event {
        WatchEvent::Converged {
            result,
            reprobed,
            skipped,
            resubmitted,
        } => {
            buf.put_u8(0);
            put_result(buf, result);
            buf.put_u32_le(*reprobed);
            buf.put_u32_le(*skipped);
            buf.put_u8(*resubmitted as u8);
        }
        WatchEvent::RootChanged { root, result } => {
            buf.put_u8(1);
            match root {
                Some(id) => {
                    buf.put_u8(1);
                    buf.put_u32_le(id.raw());
                }
                None => buf.put_u8(0),
            }
            put_result(buf, result);
        }
        WatchEvent::NewFailureClass { signature, classes } => {
            buf.put_u8(2);
            put_string(buf, &signature.kind);
            buf.put_u32_le(signature.method.raw());
            buf.put_u32_le(*classes);
        }
        WatchEvent::BudgetExhausted { probe_runs, budget } => {
            buf.put_u8(3);
            buf.put_u64_le(*probe_runs);
            buf.put_u64_le(*budget);
        }
    }
}

fn get_watch_event(r: &mut Reader<'_>) -> Result<WatchEvent, WireError> {
    match r.u8()? {
        0 => Ok(WatchEvent::Converged {
            result: get_result(r)?,
            reprobed: r.u32()?,
            skipped: r.u32()?,
            resubmitted: r.bool("resubmitted flag")?,
        }),
        1 => Ok(WatchEvent::RootChanged {
            root: if r.bool("root presence flag")? {
                Some(PredicateId::from_raw(r.u32()?))
            } else {
                None
            },
            result: get_result(r)?,
        }),
        2 => Ok(WatchEvent::NewFailureClass {
            signature: FailureSignature {
                kind: r.string()?,
                method: MethodId::from_raw(r.u32()?),
            },
            classes: r.u32()?,
        }),
        3 => Ok(WatchEvent::BudgetExhausted {
            probe_runs: r.u64()?,
            budget: r.u64()?,
        }),
        tag => Err(WireError::UnknownTag {
            what: "watch event",
            tag,
        }),
    }
}

fn put_watch_events(buf: &mut Vec<u8>, events: &[WatchEvent]) {
    buf.put_u32_le(events.len() as u32);
    for event in events {
        put_watch_event(buf, event);
    }
}

fn get_watch_events(r: &mut Reader<'_>) -> Result<Vec<WatchEvent>, WireError> {
    let n = r.u32()? as usize;
    // Every event encodes to at least one tag byte; bound the allocation
    // by what the payload can actually hold.
    if r.remaining() < n {
        return Err(WireError::Truncated {
            needed: n,
            available: r.remaining(),
        });
    }
    (0..n).map(|_| get_watch_event(r)).collect()
}

/// A client-to-server frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Opens the conversation; the server answers with its identity.
    Hello {
        /// Client self-identification (free-form, for server logs).
        client: String,
    },
    /// Resets the connection's trace store for a fresh upload, analyzed
    /// under the given extraction configuration.
    BeginUpload {
        /// The extraction-configuration recipe for this upload.
        analysis: AnalysisSpec,
    },
    /// One chunk of a `aid_trace::codec`-encoded log stream; any framing
    /// (chunks may split lines anywhere). Fed straight into the
    /// connection's `aid_store::StreamDecoder`.
    UploadChunk {
        /// Raw log bytes.
        bytes: Vec<u8>,
    },
    /// Ends the upload: flushes decoder state (quarantining a trailing
    /// partial line) and refreshes the incremental analysis.
    FinishUpload,
    /// Submits a discovery session over the uploaded analysis.
    SubmitDiscovery {
        /// Session name, echoed in server logs and results.
        name: String,
        /// The intervention substrate (rebuilt server-side).
        program: ProgramSpec,
        /// Discovery strategy.
        strategy: Strategy,
        /// Tie-breaking seed for the discovery algorithms.
        discovery_seed: u64,
        /// Intervention runs per round (ignored for `Synth`).
        runs_per_round: u32,
        /// First intervention seed (ignored for `Synth`).
        first_seed: u64,
        /// Definition-2 prune quorum ([`DiscoverOptions`]).
        prune_quorum: u32,
    },
    /// Non-blocking status check for a submitted session.
    Poll {
        /// The session id from `Submitted`.
        session: u32,
    },
    /// Waits for the session server-side: one `Progress` frame if the
    /// session is still pending, then the terminal `Status` as soon as
    /// the engine publishes the outcome (no polling cadence).
    Stream {
        /// The session id from `Submitted`.
        session: u32,
    },
    /// Abandons a session: frees its admission slot and discards the
    /// result (the engine still runs it to completion internally).
    Cancel {
        /// The session id from `Submitted`.
        session: u32,
    },
    /// Ends the conversation cleanly.
    Goodbye,
    /// Opens a standing query: a server-side watcher with its own windowed
    /// trace store, re-running discovery incrementally as tails arrive.
    /// Bounded by `max_watches_per_client` (refused with
    /// `Overloaded { scope: Client }` at the cap).
    Subscribe {
        /// Watcher name (server-side label for engine telemetry).
        name: String,
        /// The extraction-configuration recipe for the streamed corpus.
        analysis: AnalysisSpec,
        /// The intervention substrate (rebuilt server-side; `Synth` is
        /// refused — the oracle consumes no trace stream).
        program: ProgramSpec,
        /// Discovery strategy for every (re)submission.
        strategy: Strategy,
        /// Tie-breaking seed, fixed across re-runs.
        discovery_seed: u64,
        /// Intervention runs per round.
        runs_per_round: u32,
        /// First intervention seed.
        first_seed: u64,
        /// Definition-2 prune quorum.
        prune_quorum: u32,
        /// Retention bound by trace count (`0` = unbounded).
        retention_traces: u64,
        /// Retention bound by batch age in appends (`u64::MAX` =
        /// unbounded; `0` retains only the most recent append).
        retention_age: u64,
        /// Lifetime probe budget in intervention runs (`u64::MAX` =
        /// unbounded).
        max_probe_runs: u64,
    },
    /// One chunk of a watched trace tail (same streaming decoder semantics
    /// as `UploadChunk`; counted against the same per-client upload
    /// quota). The server appends, ticks the watcher, and answers with
    /// the tick's `WatchEvents`.
    StreamTail {
        /// The watch id from `Subscribed`.
        watch: u32,
        /// Raw log bytes (chunks may split lines anywhere).
        bytes: Vec<u8>,
        /// Flushes end-of-stream decoder state before ticking
        /// (quarantining a dangling partial line). Further tails may
        /// still follow.
        fin: bool,
    },
    /// Closes a standing query, freeing its admission slot.
    Unsubscribe {
        /// The watch id from `Subscribed`.
        watch: u32,
    },
    /// Requests the unified telemetry snapshot: every registered counter,
    /// gauge and latency histogram across the reactor, handler pool,
    /// engine, stores and watchers, taken consistently under the registry
    /// lock. Clients derive [`crate::ServerStats`] from it.
    Metrics,
}

const REQ_HELLO: u8 = 1;
const REQ_BEGIN_UPLOAD: u8 = 2;
const REQ_UPLOAD_CHUNK: u8 = 3;
const REQ_FINISH_UPLOAD: u8 = 4;
const REQ_SUBMIT: u8 = 5;
const REQ_POLL: u8 = 6;
const REQ_STREAM: u8 = 7;
// 8 is unassigned: it was the retired fixed-layout `Stats` request, and
// a frame of that kind now gets the `Malformed` reply any unknown kind
// gets.
const REQ_CANCEL: u8 = 9;
const REQ_GOODBYE: u8 = 10;
const REQ_SUBSCRIBE: u8 = 11;
const REQ_STREAM_TAIL: u8 = 12;
const REQ_UNSUBSCRIBE: u8 = 13;
const REQ_METRICS: u8 = 14;

impl Request {
    /// Encodes the request as one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let kind = match self {
            Request::Hello { client } => {
                put_string(&mut p, client);
                REQ_HELLO
            }
            Request::BeginUpload { analysis } => {
                put_analysis_spec(&mut p, analysis);
                REQ_BEGIN_UPLOAD
            }
            Request::UploadChunk { bytes } => {
                put_bytes(&mut p, bytes);
                REQ_UPLOAD_CHUNK
            }
            Request::FinishUpload => REQ_FINISH_UPLOAD,
            Request::SubmitDiscovery {
                name,
                program,
                strategy,
                discovery_seed,
                runs_per_round,
                first_seed,
                prune_quorum,
            } => {
                put_string(&mut p, name);
                put_program_spec(&mut p, program);
                put_strategy(&mut p, *strategy);
                p.put_u64_le(*discovery_seed);
                p.put_u32_le(*runs_per_round);
                p.put_u64_le(*first_seed);
                p.put_u32_le(*prune_quorum);
                REQ_SUBMIT
            }
            Request::Poll { session } => {
                p.put_u32_le(*session);
                REQ_POLL
            }
            Request::Stream { session } => {
                p.put_u32_le(*session);
                REQ_STREAM
            }
            Request::Cancel { session } => {
                p.put_u32_le(*session);
                REQ_CANCEL
            }
            Request::Goodbye => REQ_GOODBYE,
            Request::Subscribe {
                name,
                analysis,
                program,
                strategy,
                discovery_seed,
                runs_per_round,
                first_seed,
                prune_quorum,
                retention_traces,
                retention_age,
                max_probe_runs,
            } => {
                put_string(&mut p, name);
                put_analysis_spec(&mut p, analysis);
                put_program_spec(&mut p, program);
                put_strategy(&mut p, *strategy);
                p.put_u64_le(*discovery_seed);
                p.put_u32_le(*runs_per_round);
                p.put_u64_le(*first_seed);
                p.put_u32_le(*prune_quorum);
                p.put_u64_le(*retention_traces);
                p.put_u64_le(*retention_age);
                p.put_u64_le(*max_probe_runs);
                REQ_SUBSCRIBE
            }
            Request::StreamTail { watch, bytes, fin } => {
                p.put_u32_le(*watch);
                put_bytes(&mut p, bytes);
                p.put_u8(*fin as u8);
                REQ_STREAM_TAIL
            }
            Request::Unsubscribe { watch } => {
                p.put_u32_le(*watch);
                REQ_UNSUBSCRIBE
            }
            Request::Metrics => REQ_METRICS,
        };
        wire::frame(kind, &p)
    }

    /// Decodes a request from a frame's kind byte and payload.
    pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let req = match kind {
            REQ_HELLO => Request::Hello {
                client: r.string()?,
            },
            REQ_BEGIN_UPLOAD => Request::BeginUpload {
                analysis: get_analysis_spec(&mut r)?,
            },
            REQ_UPLOAD_CHUNK => Request::UploadChunk { bytes: r.bytes()? },
            REQ_FINISH_UPLOAD => Request::FinishUpload,
            REQ_SUBMIT => Request::SubmitDiscovery {
                name: r.string()?,
                program: get_program_spec(&mut r)?,
                strategy: get_strategy(&mut r)?,
                discovery_seed: r.u64()?,
                runs_per_round: r.u32()?,
                first_seed: r.u64()?,
                prune_quorum: r.u32()?,
            },
            REQ_POLL => Request::Poll { session: r.u32()? },
            REQ_STREAM => Request::Stream { session: r.u32()? },
            REQ_CANCEL => Request::Cancel { session: r.u32()? },
            REQ_GOODBYE => Request::Goodbye,
            REQ_SUBSCRIBE => Request::Subscribe {
                name: r.string()?,
                analysis: get_analysis_spec(&mut r)?,
                program: get_program_spec(&mut r)?,
                strategy: get_strategy(&mut r)?,
                discovery_seed: r.u64()?,
                runs_per_round: r.u32()?,
                first_seed: r.u64()?,
                prune_quorum: r.u32()?,
                retention_traces: r.u64()?,
                retention_age: r.u64()?,
                max_probe_runs: r.u64()?,
            },
            REQ_STREAM_TAIL => Request::StreamTail {
                watch: r.u32()?,
                bytes: r.bytes()?,
                fin: r.bool("tail fin flag")?,
            },
            REQ_UNSUBSCRIBE => Request::Unsubscribe { watch: r.u32()? },
            REQ_METRICS => Request::Metrics,
            tag => {
                return Err(WireError::UnknownTag {
                    what: "request kind",
                    tag,
                })
            }
        };
        r.expect_empty()?;
        Ok(req)
    }

    /// Decodes one request frame from the front of `buf`, returning the
    /// request and the bytes consumed.
    pub fn decode(buf: &[u8], max_payload: usize) -> Result<(Request, usize), WireError> {
        let (kind, payload, consumed) = wire::split_frame(buf, max_payload)?;
        Ok((Request::decode_payload(kind, payload)?, consumed))
    }
}

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverloadScope {
    /// This connection already holds `max_sessions_per_client` unfetched
    /// sessions — poll or cancel one first.
    Client,
    /// The shared engine's `max_pending` bound is full — retry later.
    Engine,
    /// The server is draining for shutdown — the rejection is permanent.
    Draining,
}

impl OverloadScope {
    /// Stable display name (also used in the loadgen JSON summary).
    pub fn name(&self) -> &'static str {
        match self {
            OverloadScope::Client => "client",
            OverloadScope::Engine => "engine",
            OverloadScope::Draining => "draining",
        }
    }
}

/// A submitted session's observable state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SessionState {
    /// Still queued or running.
    Pending,
    /// Finished; the result is attached and the admission slot is freed
    /// (a session's result is delivered exactly once).
    Done(DiscoveryResult),
    /// The session died without a result (its job panicked server-side);
    /// the admission slot is freed.
    Lost,
    /// No such session on this connection (bad id, already delivered, or
    /// cancelled).
    Unknown,
}

/// Typed error codes a server can answer any request with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request frame violated the wire format.
    Malformed,
    /// `SubmitDiscovery` named a case study the server does not know.
    UnknownCase,
    /// `SubmitDiscovery` needs an uploaded analysis, but the connection's
    /// store has no failure yet (nothing uploaded, or no failing trace).
    NoAnalysis,
    /// The server failed internally while handling the request.
    Internal,
    /// The connection's upload exceeded the server's per-client byte
    /// quota; `BeginUpload` starts a fresh (empty) budget.
    UploadTooLarge,
    /// The server is at its connection cap; sent once on accept, then
    /// the connection is closed.
    TooManyConnections,
    /// `StreamTail`/`Unsubscribe` named a watch id this connection does
    /// not hold (never subscribed, or already unsubscribed).
    UnknownWatch,
    /// `Subscribe` named a program that consumes no trace stream (the
    /// synthetic oracle): there is nothing for a standing query to watch.
    Unwatchable,
    /// The server began draining mid-exchange; sent as the *terminal*
    /// frame of a `Stream` (the in-flight session keeps running engine-side
    /// and its slot stays claimable until the connection closes, but no
    /// further frames follow). Distinct from `Response::Overloaded` with
    /// `Draining` scope, which refuses a *new* submission.
    Draining,
}

fn put_error_code(buf: &mut Vec<u8>, code: ErrorCode) {
    buf.put_u8(match code {
        ErrorCode::Malformed => 0,
        ErrorCode::UnknownCase => 1,
        ErrorCode::NoAnalysis => 2,
        ErrorCode::Internal => 3,
        ErrorCode::UploadTooLarge => 4,
        ErrorCode::TooManyConnections => 5,
        ErrorCode::UnknownWatch => 6,
        ErrorCode::Unwatchable => 7,
        ErrorCode::Draining => 8,
    });
}

fn get_error_code(r: &mut Reader<'_>) -> Result<ErrorCode, WireError> {
    match r.u8()? {
        0 => Ok(ErrorCode::Malformed),
        1 => Ok(ErrorCode::UnknownCase),
        2 => Ok(ErrorCode::NoAnalysis),
        3 => Ok(ErrorCode::Internal),
        4 => Ok(ErrorCode::UploadTooLarge),
        5 => Ok(ErrorCode::TooManyConnections),
        6 => Ok(ErrorCode::UnknownWatch),
        7 => Ok(ErrorCode::Unwatchable),
        8 => Ok(ErrorCode::Draining),
        tag => Err(WireError::UnknownTag {
            what: "error code",
            tag,
        }),
    }
}

fn put_metric_value(buf: &mut Vec<u8>, value: &MetricValue) {
    match value {
        MetricValue::Counter(v) => {
            buf.put_u8(0);
            buf.put_u64_le(*v);
        }
        MetricValue::Gauge(v) => {
            buf.put_u8(1);
            buf.put_u64_le(*v);
        }
        MetricValue::Histogram(h) => {
            buf.put_u8(2);
            buf.put_u64_le(h.count);
            buf.put_u64_le(h.sum);
            buf.put_u64_le(h.max);
            buf.put_u32_le(h.buckets.len() as u32);
            for (index, count) in &h.buckets {
                buf.put_u8(*index);
                buf.put_u64_le(*count);
            }
        }
    }
}

/// Bytes of one occupied histogram bucket on the wire: index + count.
const BUCKET_BYTES: usize = 9;
/// Smallest possible metric entry: empty name (4-byte length prefix),
/// kind tag, u64 value.
const MIN_METRIC_BYTES: usize = 13;

fn get_metric_value(r: &mut Reader<'_>) -> Result<MetricValue, WireError> {
    Ok(match r.u8()? {
        0 => MetricValue::Counter(r.u64()?),
        1 => MetricValue::Gauge(r.u64()?),
        2 => {
            let count = r.u64()?;
            let sum = r.u64()?;
            let max = r.u64()?;
            let n = r.u32()? as usize;
            if r.remaining() / BUCKET_BYTES < n {
                return Err(WireError::Truncated {
                    needed: n * BUCKET_BYTES,
                    available: r.remaining(),
                });
            }
            let mut buckets = Vec::with_capacity(n);
            for _ in 0..n {
                buckets.push((r.u8()?, r.u64()?));
            }
            MetricValue::Histogram(HistogramSnapshot {
                count,
                sum,
                max,
                buckets,
            })
        }
        tag => {
            return Err(WireError::UnknownTag {
                what: "metric value",
                tag,
            })
        }
    })
}

fn put_metrics(buf: &mut Vec<u8>, snapshot: &MetricsSnapshot) {
    buf.put_u32_le(snapshot.entries.len() as u32);
    for entry in &snapshot.entries {
        put_string(buf, &entry.name);
        put_metric_value(buf, &entry.value);
    }
}

fn get_metrics(r: &mut Reader<'_>) -> Result<MetricsSnapshot, WireError> {
    let n = r.u32()? as usize;
    if r.remaining() / MIN_METRIC_BYTES < n {
        return Err(WireError::Truncated {
            needed: n * MIN_METRIC_BYTES,
            available: r.remaining(),
        });
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(MetricEntry {
            name: r.string()?,
            value: get_metric_value(r)?,
        });
    }
    Ok(MetricsSnapshot { entries })
}

/// A server-to-client frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to `Hello`.
    HelloOk {
        /// The server's protocol version.
        version: u8,
        /// Server self-identification.
        server: String,
    },
    /// Answer to every upload frame: running totals for the connection's
    /// current upload.
    UploadAck {
        /// Complete traces ingested so far.
        traces: u64,
        /// Records quarantined so far.
        quarantined: u64,
        /// Whether an analysis is available (failure present + refreshed).
        analyzed: bool,
    },
    /// The session was admitted; poll or stream it by this id.
    Submitted {
        /// The session's id on this connection.
        session: u32,
    },
    /// The session was refused by admission control. Typed, not an error:
    /// shedding load is the designed behavior at the bound.
    Overloaded {
        /// Which bound refused it.
        scope: OverloadScope,
        /// Sessions in flight at that bound.
        in_flight: u32,
        /// The bound itself.
        limit: u32,
    },
    /// Answer to `Poll` (and the terminal frame of a `Stream`).
    Status {
        /// The polled session id.
        session: u32,
        /// Its state; `Done` carries the full discovery result.
        state: SessionState,
    },
    /// Interim `Stream` frame, sent once when the stream finds its
    /// session pending: the engine-wide picture at that moment
    /// (executions and cache traffic are the service's real progress
    /// measure — rounds only exist once discovery finishes).
    Progress {
        /// The streamed session id.
        session: u32,
        /// Engine executions so far (server-wide).
        executions: u64,
        /// Engine cache hits so far (server-wide).
        cache_hits: u64,
        /// Engine sessions completed so far (server-wide).
        sessions_completed: u64,
    },
    /// Answer to `Cancel`.
    Cancelled {
        /// The cancelled session id.
        session: u32,
        /// Whether the id named a live session.
        existed: bool,
    },
    /// The request could not be served; the connection stays usable
    /// unless the error was `Malformed` (the server closes after sending).
    Error {
        /// Typed error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to `Goodbye`; the server closes the connection after it.
    Bye,
    /// The standing query was opened; stream tails to this id.
    Subscribed {
        /// The watch's id on this connection.
        watch: u32,
    },
    /// Answer to `StreamTail`: what the watcher's tick over the appended
    /// tail observed.
    WatchEvents {
        /// The ticked watch id.
        watch: u32,
        /// Complete traces the watcher has ingested so far.
        traces: u64,
        /// The tick's events (empty when nothing new arrived or no
        /// failure is retained).
        events: Vec<WatchEvent>,
    },
    /// Answer to `Unsubscribe`.
    Unsubscribed {
        /// The closed watch id.
        watch: u32,
        /// Whether the id named a live watch.
        existed: bool,
    },
    /// Answer to `Metrics`: the full telemetry snapshot.
    MetricsReply(MetricsSnapshot),
}

const RESP_HELLO_OK: u8 = 1;
const RESP_UPLOAD_ACK: u8 = 2;
const RESP_SUBMITTED: u8 = 3;
const RESP_OVERLOADED: u8 = 4;
const RESP_STATUS: u8 = 5;
const RESP_PROGRESS: u8 = 6;
// 7 is unassigned: it was the reply to the retired `Stats` request.
const RESP_CANCELLED: u8 = 8;
const RESP_ERROR: u8 = 9;
const RESP_BYE: u8 = 10;
const RESP_SUBSCRIBED: u8 = 11;
const RESP_WATCH_EVENTS: u8 = 12;
const RESP_UNSUBSCRIBED: u8 = 13;
const RESP_METRICS: u8 = 14;

impl Response {
    /// Encodes the response as one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let kind = match self {
            Response::HelloOk { version, server } => {
                p.put_u8(*version);
                put_string(&mut p, server);
                RESP_HELLO_OK
            }
            Response::UploadAck {
                traces,
                quarantined,
                analyzed,
            } => {
                p.put_u64_le(*traces);
                p.put_u64_le(*quarantined);
                p.put_u8(*analyzed as u8);
                RESP_UPLOAD_ACK
            }
            Response::Submitted { session } => {
                p.put_u32_le(*session);
                RESP_SUBMITTED
            }
            Response::Overloaded {
                scope,
                in_flight,
                limit,
            } => {
                p.put_u8(match scope {
                    OverloadScope::Client => 0,
                    OverloadScope::Engine => 1,
                    OverloadScope::Draining => 2,
                });
                p.put_u32_le(*in_flight);
                p.put_u32_le(*limit);
                RESP_OVERLOADED
            }
            Response::Status { session, state } => {
                p.put_u32_le(*session);
                match state {
                    SessionState::Pending => p.put_u8(0),
                    SessionState::Done(result) => {
                        p.put_u8(1);
                        put_result(&mut p, result);
                    }
                    SessionState::Lost => p.put_u8(2),
                    SessionState::Unknown => p.put_u8(3),
                }
                RESP_STATUS
            }
            Response::Progress {
                session,
                executions,
                cache_hits,
                sessions_completed,
            } => {
                p.put_u32_le(*session);
                p.put_u64_le(*executions);
                p.put_u64_le(*cache_hits);
                p.put_u64_le(*sessions_completed);
                RESP_PROGRESS
            }
            Response::Cancelled { session, existed } => {
                p.put_u32_le(*session);
                p.put_u8(*existed as u8);
                RESP_CANCELLED
            }
            Response::Error { code, message } => {
                put_error_code(&mut p, *code);
                put_string(&mut p, message);
                RESP_ERROR
            }
            Response::Bye => RESP_BYE,
            Response::Subscribed { watch } => {
                p.put_u32_le(*watch);
                RESP_SUBSCRIBED
            }
            Response::WatchEvents {
                watch,
                traces,
                events,
            } => {
                p.put_u32_le(*watch);
                p.put_u64_le(*traces);
                put_watch_events(&mut p, events);
                RESP_WATCH_EVENTS
            }
            Response::Unsubscribed { watch, existed } => {
                p.put_u32_le(*watch);
                p.put_u8(*existed as u8);
                RESP_UNSUBSCRIBED
            }
            Response::MetricsReply(snapshot) => {
                put_metrics(&mut p, snapshot);
                RESP_METRICS
            }
        };
        wire::frame(kind, &p)
    }

    /// Decodes a response from a frame's kind byte and payload.
    pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let resp = match kind {
            RESP_HELLO_OK => Response::HelloOk {
                version: r.u8()?,
                server: r.string()?,
            },
            RESP_UPLOAD_ACK => Response::UploadAck {
                traces: r.u64()?,
                quarantined: r.u64()?,
                analyzed: r.bool("analyzed flag")?,
            },
            RESP_SUBMITTED => Response::Submitted { session: r.u32()? },
            RESP_OVERLOADED => Response::Overloaded {
                scope: match r.u8()? {
                    0 => OverloadScope::Client,
                    1 => OverloadScope::Engine,
                    2 => OverloadScope::Draining,
                    tag => {
                        return Err(WireError::UnknownTag {
                            what: "overload scope",
                            tag,
                        })
                    }
                },
                in_flight: r.u32()?,
                limit: r.u32()?,
            },
            RESP_STATUS => Response::Status {
                session: r.u32()?,
                state: match r.u8()? {
                    0 => SessionState::Pending,
                    1 => SessionState::Done(get_result(&mut r)?),
                    2 => SessionState::Lost,
                    3 => SessionState::Unknown,
                    tag => {
                        return Err(WireError::UnknownTag {
                            what: "session state",
                            tag,
                        })
                    }
                },
            },
            RESP_PROGRESS => Response::Progress {
                session: r.u32()?,
                executions: r.u64()?,
                cache_hits: r.u64()?,
                sessions_completed: r.u64()?,
            },
            RESP_CANCELLED => Response::Cancelled {
                session: r.u32()?,
                existed: r.bool("cancel existed flag")?,
            },
            RESP_ERROR => Response::Error {
                code: get_error_code(&mut r)?,
                message: r.string()?,
            },
            RESP_BYE => Response::Bye,
            RESP_SUBSCRIBED => Response::Subscribed { watch: r.u32()? },
            RESP_WATCH_EVENTS => Response::WatchEvents {
                watch: r.u32()?,
                traces: r.u64()?,
                events: get_watch_events(&mut r)?,
            },
            RESP_UNSUBSCRIBED => Response::Unsubscribed {
                watch: r.u32()?,
                existed: r.bool("unsubscribe existed flag")?,
            },
            RESP_METRICS => Response::MetricsReply(get_metrics(&mut r)?),
            tag => {
                return Err(WireError::UnknownTag {
                    what: "response kind",
                    tag,
                })
            }
        };
        r.expect_empty()?;
        Ok(resp)
    }

    /// Decodes one response frame from the front of `buf`, returning the
    /// response and the bytes consumed.
    pub fn decode(buf: &[u8], max_payload: usize) -> Result<(Response, usize), WireError> {
        let (kind, payload, consumed) = wire::split_frame(buf, max_payload)?;
        Ok((Response::decode_payload(kind, payload)?, consumed))
    }
}

/// Rebuilds `DiscoverOptions` from a submit frame's fields.
pub fn options_from_wire(prune_quorum: u32) -> DiscoverOptions {
    DiscoverOptions {
        prune_quorum: prune_quorum.max(1) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_through_the_frame_layer() {
        let req = Request::SubmitDiscovery {
            name: "npgsql/aid".into(),
            program: ProgramSpec::Case {
                name: "npgsql".into(),
            },
            strategy: Strategy::Custom {
                branch: true,
                prune: false,
            },
            discovery_seed: 11,
            runs_per_round: 20,
            first_seed: 1_000_000,
            prune_quorum: 1,
        };
        let bytes = req.encode();
        let (back, consumed) = Request::decode(&bytes, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(back, req);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn done_status_carries_a_full_result() {
        let p = |i: u32| PredicateId::from_raw(i);
        let resp = Response::Status {
            session: 9,
            state: SessionState::Done(DiscoveryResult {
                causal: vec![p(0), p(1)],
                spurious: vec![p(2)],
                failure: p(3),
                rounds: 4,
                log: vec![RoundLog {
                    phase: Phase::Giwp,
                    intervened: vec![p(0)],
                    stopped: true,
                    confirmed: vec![p(0)],
                    pruned: vec![],
                }],
            }),
        };
        let bytes = resp.encode();
        let (back, _) = Response::decode(&bytes, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn subscribe_and_watch_events_round_trip() {
        let req = Request::Subscribe {
            name: "ci-tail".into(),
            analysis: AnalysisSpec::Case {
                name: "npgsql".into(),
            },
            program: ProgramSpec::Case {
                name: "npgsql".into(),
            },
            strategy: Strategy::Aid,
            discovery_seed: 11,
            runs_per_round: 10,
            first_seed: 1_000_000,
            prune_quorum: 1,
            retention_traces: 500,
            retention_age: u64::MAX,
            max_probe_runs: u64::MAX,
        };
        let bytes = req.encode();
        let (back, consumed) = Request::decode(&bytes, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(back, req);
        assert_eq!(consumed, bytes.len());

        let p = |i: u32| PredicateId::from_raw(i);
        let result = DiscoveryResult {
            causal: vec![p(2)],
            spurious: vec![p(0)],
            failure: p(3),
            rounds: 2,
            log: vec![],
        };
        let resp = Response::WatchEvents {
            watch: 7,
            traces: 41,
            events: vec![
                WatchEvent::NewFailureClass {
                    signature: FailureSignature {
                        kind: "NullReferenceException".into(),
                        method: MethodId::from_raw(5),
                    },
                    classes: 2,
                },
                WatchEvent::Converged {
                    result: result.clone(),
                    reprobed: 3,
                    skipped: 9,
                    resubmitted: true,
                },
                WatchEvent::RootChanged {
                    root: Some(p(2)),
                    result,
                },
                WatchEvent::BudgetExhausted {
                    probe_runs: 120,
                    budget: 100,
                },
            ],
        };
        let bytes = resp.encode();
        let (back, _) = Response::decode(&bytes, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn metrics_reply_round_trips_every_value_kind() {
        let resp = Response::MetricsReply(MetricsSnapshot {
            entries: vec![
                MetricEntry {
                    name: "engine.shard0.cache.hits".into(),
                    value: MetricValue::Counter(42),
                },
                MetricEntry {
                    name: "serve.active_connections".into(),
                    value: MetricValue::Gauge(3),
                },
                MetricEntry {
                    name: "serve.reactor.dwell_us".into(),
                    value: MetricValue::Histogram(HistogramSnapshot {
                        count: 10,
                        sum: 1234,
                        max: 900,
                        buckets: vec![(0, 1), (7, 6), (10, 3)],
                    }),
                },
            ],
        });
        let bytes = resp.encode();
        let (back, consumed) = Response::decode(&bytes, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(back, resp);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn metrics_reply_bounds_allocation_by_payload_size() {
        // A claimed entry count far beyond what the payload holds must be
        // refused before any allocation, not trusted.
        let mut p = Vec::new();
        p.put_u32_le(u32::MAX);
        let frame = wire::frame(RESP_METRICS, &p);
        let (kind, payload, _) = wire::split_frame(&frame, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
        assert!(matches!(
            Response::decode_payload(kind, payload),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut bytes = Request::Metrics.encode();
        // Grow the payload by one byte and fix up the length field.
        bytes.push(0xAA);
        let len = (bytes.len() - wire::HEADER_LEN) as u32;
        bytes[6..10].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            Request::decode(&bytes, wire::DEFAULT_MAX_FRAME_LEN).unwrap_err(),
            WireError::TrailingBytes { extra: 1 }
        );
    }
}
