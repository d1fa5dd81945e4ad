//! `aid_serve` — a multi-client debugging service over the whole AID
//! stack.
//!
//! The paper frames AID as a service: developers submit logs of an
//! intermittently failing application and get back a root cause and a
//! causal explanation path (§1 of the paper; Fariha, Nath, Meliou, SIGMOD
//! 2020). The library crates implement that pipeline in-process; this
//! crate puts a network front end on it:
//!
//! * **Protocol** ([`protocol`], [`wire`]) — a versioned, length-prefixed
//!   binary frame format with typed errors. Uploads stream raw
//!   codec-encoded log bytes (any chunking) straight into the server's
//!   `aid_store::StreamDecoder`; discovery submissions carry a
//!   [`ProgramSpec`] *recipe* rather than a program, so the server can
//!   rebuild the intervention substrate bit-identically — which is what
//!   lets different clients replaying the same scenario share the
//!   engine's intervention cache.
//! * **Transports** — an in-process duplex pair ([`InProcConnector`],
//!   [`DuplexStream`]) for deterministic tests and a TCP listener for
//!   real clients, both driven by one readiness reactor on the server
//!   side (std networking plus `poll(2)`; no async runtime). Serving is
//!   unix-only: the reactor's one park is `poll(2)` over a unix socket
//!   pair waker.
//! * **Server** ([`server`]) — one shared `aid_engine::Engine`, a
//!   per-connection `aid_store::TraceStore`, and two-level admission
//!   control (per-client session bound, engine `max_pending` via the
//!   non-blocking `try_submit`) that sheds load with a typed
//!   `Overloaded` instead of queueing unboundedly; graceful drain on
//!   shutdown.
//! * **Client** ([`client`]) — a blocking [`AidClient`] over any byte
//!   stream; the `loadgen` binary in `aid_bench` drives fleets of them.
//!
//! The service's determinism contract: a server-mediated discovery equals
//! the same job submitted to an in-process engine, exactly —
//! `tests/end_to_end.rs` pins this for all six case studies.
//!
//! ```
//! use aid_serve::{Admission, AidClient, ProgramSpec, ServeConfig, Server, SubmitSpec};
//!
//! // An in-process server: same engine, same admission control as TCP.
//! let (server, connector) = Server::start_in_proc(ServeConfig::default());
//! let mut client = AidClient::connect_in_proc(&connector).unwrap();
//! let (version, _name) = client.hello("doc-client").unwrap();
//! assert_eq!(version, aid_serve::PROTOCOL_VERSION);
//!
//! // A synthetic Figure-8 application needs no upload: the server's
//! // exact oracle knows the ground truth for `app_seed`.
//! let spec = SubmitSpec::new("doc-synth", ProgramSpec::Synth { app_seed: 3 });
//! let Admission::Accepted(session) = client.submit(&spec).unwrap() else {
//!     panic!("a fresh server has room");
//! };
//! let (result, _progress) = client.wait(session).unwrap();
//! assert!(result.root_cause().is_some());
//!
//! client.goodbye().unwrap();
//! let stats = server.shutdown();
//! assert_eq!(stats.sessions_delivered, 1);
//! ```

pub mod client;
pub mod protocol;
mod reactor;
pub mod server;
mod transport;
pub mod wire;

pub use aid_obs::{HistogramSnapshot, MetricEntry, MetricValue, MetricsSnapshot};
pub use client::{
    Admission, AidClient, ClientError, Overload, SubmitSpec, TailReport, UploadReport, WatchSpec,
};
pub use protocol::{
    AnalysisSpec, ErrorCode, OverloadScope, ProgramSpec, Request, Response, SessionState,
};
pub use server::{ServeConfig, Server, ServerHandle, ServerStats};
pub use transport::{DuplexStream, InProcConnector};
pub use wire::{FrameAccum, FrameError, WireError, PROTOCOL_VERSION};
