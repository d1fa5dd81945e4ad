//! A blocking client for the debugging service.
//!
//! [`AidClient`] wraps any byte stream (TCP, the in-process duplex, or
//! anything else implementing `Read + Write`) and exposes the protocol as
//! typed calls. Overload rejections are a *typed outcome*
//! ([`Admission::Rejected`]), not an error — shedding load at the
//! admission bound is designed server behavior the caller is expected to
//! handle (back off, retry, or shed in turn).

use crate::protocol::{
    AnalysisSpec, ErrorCode, OverloadScope, ProgramSpec, Request, Response, SessionState,
};
use crate::server::ServerStats;
use crate::transport::{DuplexStream, InProcConnector};
use crate::wire::{self, FrameError, WireError};
use aid_core::{DiscoveryResult, Strategy};
use aid_watch::WatchEvent;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The server sent bytes violating the wire format.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server {
        /// The server's error code.
        code: ErrorCode,
        /// The server's detail message.
        message: String,
    },
    /// The server answered with a frame the call does not expect.
    Unexpected {
        /// What the call was waiting for.
        expected: &'static str,
        /// What arrived instead.
        got: String,
    },
    /// The server reports the session died without a result.
    SessionLost {
        /// The lost session's id.
        session: u32,
    },
    /// The server does not know the session id (already delivered,
    /// cancelled, or never submitted on this connection).
    SessionUnknown {
        /// The unknown session id.
        session: u32,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::Unexpected { expected, got } => {
                write!(f, "expected {expected}, server sent {got}")
            }
            ClientError::SessionLost { session } => {
                write!(f, "session {session} died server-side without a result")
            }
            ClientError::SessionUnknown { session } => {
                write!(f, "server does not know session {session}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Wire(e) => ClientError::Wire(e),
            // Clients set no read timeout, so this only surfaces if a
            // caller wraps a timed stream themselves.
            FrameError::IdleTimeout => ClientError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "read timed out between frames",
            )),
        }
    }
}

/// The typed outcome of a submission.
#[derive(Clone, Debug, PartialEq)]
pub enum Admission {
    /// Admitted; poll or stream this session id.
    Accepted(u32),
    /// Refused by admission control.
    Rejected(Overload),
}

/// An admission-control rejection, echoing the server's bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overload {
    /// Which bound refused the submission.
    pub scope: OverloadScope,
    /// Sessions in flight at that bound when it refused.
    pub in_flight: u32,
    /// The bound itself.
    pub limit: u32,
}

/// Upload totals echoed by the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UploadReport {
    /// Complete traces the server ingested from this upload.
    pub traces: u64,
    /// Records the server quarantined.
    pub quarantined: u64,
    /// Whether the upload yielded an analysis (≥ 1 failing trace).
    pub analyzed: bool,
}

/// A discovery session's parameters, shared by every submission call.
#[derive(Clone, Debug)]
pub struct SubmitSpec {
    /// Session name (server-side label, echoed nowhere else).
    pub name: String,
    /// The intervention substrate recipe.
    pub program: ProgramSpec,
    /// Discovery strategy.
    pub strategy: Strategy,
    /// Tie-breaking seed for the discovery algorithms.
    pub discovery_seed: u64,
    /// Intervention runs per round (ignored for `Synth`).
    pub runs_per_round: u32,
    /// First intervention seed (ignored for `Synth`).
    pub first_seed: u64,
    /// Definition-2 prune quorum.
    pub prune_quorum: u32,
}

impl SubmitSpec {
    /// A spec with the workspace-conventional defaults (AID strategy,
    /// prune quorum 1, intervention seeds starting at 1_000_000).
    pub fn new(name: impl Into<String>, program: ProgramSpec) -> SubmitSpec {
        SubmitSpec {
            name: name.into(),
            program,
            strategy: Strategy::Aid,
            discovery_seed: 11,
            runs_per_round: 10,
            first_seed: 1_000_000,
            prune_quorum: 1,
        }
    }
}

/// A standing query's parameters.
#[derive(Clone, Debug)]
pub struct WatchSpec {
    /// Watcher name (server-side label).
    pub name: String,
    /// The extraction-configuration recipe for the streamed corpus.
    pub analysis: AnalysisSpec,
    /// The intervention substrate recipe (`Synth` is refused).
    pub program: ProgramSpec,
    /// Discovery strategy for every (re)submission.
    pub strategy: Strategy,
    /// Tie-breaking seed, fixed across re-runs.
    pub discovery_seed: u64,
    /// Intervention runs per round.
    pub runs_per_round: u32,
    /// First intervention seed.
    pub first_seed: u64,
    /// Definition-2 prune quorum.
    pub prune_quorum: u32,
    /// Retain at most this many traces (`None` = unbounded).
    pub retention_traces: Option<u64>,
    /// Retain traces at most this many appends old (`None` = unbounded).
    pub retention_age: Option<u64>,
    /// Lifetime probe budget in intervention runs (`None` = unbounded).
    pub max_probe_runs: Option<u64>,
}

impl WatchSpec {
    /// A spec with the workspace-conventional defaults and unbounded
    /// retention/budget.
    pub fn new(name: impl Into<String>, analysis: AnalysisSpec, program: ProgramSpec) -> WatchSpec {
        WatchSpec {
            name: name.into(),
            analysis,
            program,
            strategy: Strategy::Aid,
            discovery_seed: 11,
            runs_per_round: 10,
            first_seed: 1_000_000,
            prune_quorum: 1,
            retention_traces: None,
            retention_age: None,
            max_probe_runs: None,
        }
    }
}

/// One `StreamTail` round-trip's outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct TailReport {
    /// Complete traces the watcher has ingested so far.
    pub traces: u64,
    /// The events the server-side tick over this tail produced.
    pub events: Vec<WatchEvent>,
}

/// A blocking protocol client over any byte stream.
pub struct AidClient<C: Read + Write> {
    conn: C,
    max_frame_len: usize,
}

impl AidClient<TcpStream> {
    /// Connects over TCP (`TCP_NODELAY` on: the protocol is
    /// request/response with small frames).
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<AidClient<TcpStream>> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Ok(AidClient::new(conn))
    }
}

impl AidClient<DuplexStream> {
    /// Connects to an in-process server through its connector.
    pub fn connect_in_proc(connector: &InProcConnector) -> io::Result<AidClient<DuplexStream>> {
        Ok(AidClient::new(connector.connect()?))
    }
}

impl<C: Read + Write> AidClient<C> {
    /// Wraps an already-connected byte stream.
    pub fn new(conn: C) -> AidClient<C> {
        AidClient {
            conn,
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
        }
    }

    /// Writes already-encoded request frames in one go.
    fn send(&mut self, frames: &[u8]) -> Result<(), ClientError> {
        if let Err(send_err) = wire::write_frame(&mut self.conn, frames) {
            // A refusing server (connection cap, drain) writes one typed
            // Error frame and hangs up; depending on timing our write can
            // fail before that refusal is read. Prefer the refusal already
            // sitting in the receive buffer over the write race.
            if send_err.kind() == io::ErrorKind::BrokenPipe {
                if let Err(server_err @ ClientError::Server { .. }) = self.recv() {
                    return Err(server_err);
                }
            }
            return Err(send_err.into());
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        let Some((kind, payload)) = wire::read_frame(&mut self.conn, self.max_frame_len)? else {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server hung up mid-conversation",
            )));
        };
        let response = Response::decode_payload(kind, &payload).map_err(ClientError::Wire)?;
        if let Response::Error { code, message } = response {
            return Err(ClientError::Server { code, message });
        }
        Ok(response)
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(&request.encode())?;
        self.recv()
    }

    /// Opens the conversation; returns the server's protocol version and
    /// self-identification.
    pub fn hello(&mut self, client: &str) -> Result<(u8, String), ClientError> {
        match self.call(&Request::Hello {
            client: client.to_string(),
        })? {
            Response::HelloOk { version, server } => Ok((version, server)),
            other => Err(unexpected("HelloOk", other)),
        }
    }

    /// Uploads one encoded trace corpus in `chunk`-byte pieces (chunks may
    /// split lines anywhere — the server's streaming decoder reassembles),
    /// then finalizes it into a fresh analysis extracted under `analysis`.
    /// Any previously uploaded corpus on this connection is replaced.
    ///
    /// The whole upload is one round trip: `BeginUpload`, every chunk and
    /// `FinishUpload` are written back to back, then one `UploadAck` is
    /// read per frame. A refused frame (e.g. `UploadTooLarge`) still gets
    /// its reply drained along with the rest, so the connection stays in
    /// step; the first such error is returned.
    pub fn upload(
        &mut self,
        encoded: &[u8],
        chunk: usize,
        analysis: AnalysisSpec,
    ) -> Result<UploadReport, ClientError> {
        let mut frames = Request::BeginUpload { analysis }.encode();
        let mut sent = 1;
        for piece in encoded.chunks(chunk.max(1)) {
            frames.extend(
                Request::UploadChunk {
                    bytes: piece.to_vec(),
                }
                .encode(),
            );
            sent += 1;
        }
        frames.extend(Request::FinishUpload.encode());
        sent += 1;
        self.send(&frames)?;

        let mut first_error = None;
        let mut report = None;
        for _ in 0..sent {
            match self.recv() {
                Ok(Response::UploadAck {
                    traces,
                    quarantined,
                    analyzed,
                }) => {
                    report = Some(UploadReport {
                        traces,
                        quarantined,
                        analyzed,
                    })
                }
                Ok(other) => {
                    first_error.get_or_insert(unexpected("UploadAck", other));
                }
                Err(e @ ClientError::Server { .. }) => {
                    first_error.get_or_insert(e);
                }
                // A transport failure ends the drain; a refusal read
                // before it is still the better explanation.
                Err(e) => return Err(first_error.unwrap_or(e)),
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(report.expect("every reply was an UploadAck")),
        }
    }

    /// Submits a discovery session. Overload rejection is a typed
    /// [`Admission::Rejected`], not an `Err`.
    pub fn submit(&mut self, spec: &SubmitSpec) -> Result<Admission, ClientError> {
        let request = Request::SubmitDiscovery {
            name: spec.name.clone(),
            program: spec.program.clone(),
            strategy: spec.strategy,
            discovery_seed: spec.discovery_seed,
            runs_per_round: spec.runs_per_round,
            first_seed: spec.first_seed,
            prune_quorum: spec.prune_quorum,
        };
        match self.call(&request)? {
            Response::Submitted { session } => Ok(Admission::Accepted(session)),
            Response::Overloaded {
                scope,
                in_flight,
                limit,
            } => Ok(Admission::Rejected(Overload {
                scope,
                in_flight,
                limit,
            })),
            other => Err(unexpected("Submitted or Overloaded", other)),
        }
    }

    /// Non-blocking status check.
    pub fn poll(&mut self, session: u32) -> Result<SessionState, ClientError> {
        match self.call(&Request::Poll { session })? {
            Response::Status { state, .. } => Ok(state),
            other => Err(unexpected("Status", other)),
        }
    }

    /// Blocks until the session completes, consuming the server's
    /// progress stream (one `Progress` frame if the session was still
    /// pending). Returns the result and the number of progress frames
    /// observed on the way.
    pub fn wait(&mut self, session: u32) -> Result<(DiscoveryResult, u64), ClientError> {
        self.send(&Request::Stream { session }.encode())?;
        let mut progress_frames = 0u64;
        loop {
            match self.recv()? {
                Response::Progress { .. } => progress_frames += 1,
                Response::Status { state, .. } => match state {
                    SessionState::Done(result) => return Ok((result, progress_frames)),
                    SessionState::Lost => return Err(ClientError::SessionLost { session }),
                    SessionState::Unknown => return Err(ClientError::SessionUnknown { session }),
                    SessionState::Pending => {
                        return Err(ClientError::Unexpected {
                            expected: "a terminal Status",
                            got: "Status(Pending)".to_string(),
                        })
                    }
                },
                other => return Err(unexpected("Progress or Status", other)),
            }
        }
    }

    /// Fetches the server-wide telemetry summary, derived from one
    /// `Metrics` snapshot. The snapshot is taken while this request is
    /// handled, so it counts the request frame but not its reply.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        Ok(ServerStats::from_snapshot(&self.metrics()?))
    }

    /// Fetches the unified telemetry snapshot: every registered counter,
    /// gauge and latency histogram across the server's tiers, taken
    /// consistently under the registry lock.
    pub fn metrics(&mut self) -> Result<aid_obs::MetricsSnapshot, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::MetricsReply(snapshot) => Ok(snapshot),
            other => Err(unexpected("MetricsReply", other)),
        }
    }

    /// Cancels a session; returns whether the server knew the id.
    pub fn cancel(&mut self, session: u32) -> Result<bool, ClientError> {
        match self.call(&Request::Cancel { session })? {
            Response::Cancelled { existed, .. } => Ok(existed),
            other => Err(unexpected("Cancelled", other)),
        }
    }

    /// Opens a standing query. Overload rejection (the per-client watch
    /// bound, or a draining server) is a typed [`Admission::Rejected`].
    pub fn subscribe(&mut self, spec: &WatchSpec) -> Result<Admission, ClientError> {
        let request = Request::Subscribe {
            name: spec.name.clone(),
            analysis: spec.analysis.clone(),
            program: spec.program.clone(),
            strategy: spec.strategy,
            discovery_seed: spec.discovery_seed,
            runs_per_round: spec.runs_per_round,
            first_seed: spec.first_seed,
            prune_quorum: spec.prune_quorum,
            retention_traces: spec.retention_traces.unwrap_or(0),
            retention_age: spec.retention_age.unwrap_or(u64::MAX),
            max_probe_runs: spec.max_probe_runs.unwrap_or(u64::MAX),
        };
        match self.call(&request)? {
            Response::Subscribed { watch } => Ok(Admission::Accepted(watch)),
            Response::Overloaded {
                scope,
                in_flight,
                limit,
            } => Ok(Admission::Rejected(Overload {
                scope,
                in_flight,
                limit,
            })),
            other => Err(unexpected("Subscribed or Overloaded", other)),
        }
    }

    /// Appends one tail chunk to a standing query and returns what the
    /// server-side tick observed. `fin` flushes end-of-stream decoder
    /// state before the tick (further tails may still follow).
    pub fn stream_tail(
        &mut self,
        watch: u32,
        bytes: &[u8],
        fin: bool,
    ) -> Result<TailReport, ClientError> {
        match self.call(&Request::StreamTail {
            watch,
            bytes: bytes.to_vec(),
            fin,
        })? {
            Response::WatchEvents { traces, events, .. } => Ok(TailReport { traces, events }),
            other => Err(unexpected("WatchEvents", other)),
        }
    }

    /// Closes a standing query; returns whether the server knew the id.
    pub fn unsubscribe(&mut self, watch: u32) -> Result<bool, ClientError> {
        match self.call(&Request::Unsubscribe { watch })? {
            Response::Unsubscribed { existed, .. } => Ok(existed),
            other => Err(unexpected("Unsubscribed", other)),
        }
    }

    /// Ends the conversation cleanly and consumes the client.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        match self.call(&Request::Goodbye)? {
            Response::Bye => Ok(()),
            other => Err(unexpected("Bye", other)),
        }
    }
}

fn unexpected(expected: &'static str, got: Response) -> ClientError {
    // Strip the payload: a Done status would otherwise drag a whole
    // discovery log into the error message.
    let got = match got {
        Response::HelloOk { .. } => "HelloOk".to_string(),
        Response::UploadAck { .. } => "UploadAck".to_string(),
        Response::Submitted { .. } => "Submitted".to_string(),
        Response::Overloaded { .. } => "Overloaded".to_string(),
        Response::Status { .. } => "Status".to_string(),
        Response::Progress { .. } => "Progress".to_string(),
        Response::Cancelled { .. } => "Cancelled".to_string(),
        Response::Error { .. } => "Error".to_string(),
        Response::Bye => "Bye".to_string(),
        Response::Subscribed { .. } => "Subscribed".to_string(),
        Response::WatchEvents { .. } => "WatchEvents".to_string(),
        Response::Unsubscribed { .. } => "Unsubscribed".to_string(),
        Response::MetricsReply(_) => "MetricsReply".to_string(),
    };
    ClientError::Unexpected { expected, got }
}
