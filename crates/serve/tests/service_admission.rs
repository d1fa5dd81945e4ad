//! Admission control, cancellation, malformed-frame handling, quarantine
//! propagation, and the TCP transport — the service behaviors around the
//! happy path.

use aid_serve::{
    wire, Admission, AidClient, AnalysisSpec, ErrorCode, OverloadScope, ProgramSpec, Response,
    ServeConfig, Server, SessionState, SubmitSpec,
};
use aid_trace::codec;
use std::io::{Read, Write};

fn synth_spec(name: &str, app_seed: u64) -> SubmitSpec {
    SubmitSpec::new(name, ProgramSpec::Synth { app_seed })
}

/// An undelivered session occupies its admission slot even after it
/// finishes — the slot frees when the client *fetches* the result — so
/// the per-client bound is deterministic, not a race against the engine.
#[test]
fn per_client_bound_sheds_then_recovers() {
    let config = ServeConfig {
        max_sessions_per_client: 1,
        ..ServeConfig::default()
    };
    let (server, connector) = Server::start_in_proc(config);
    let mut client = AidClient::connect_in_proc(&connector).unwrap();
    client.hello("bounded").unwrap();

    let Admission::Accepted(first) = client.submit(&synth_spec("first", 1)).unwrap() else {
        panic!("slot is free");
    };
    let rejected = client.submit(&synth_spec("second", 2)).unwrap();
    let Admission::Rejected(overload) = rejected else {
        panic!("the single slot is occupied: {rejected:?}");
    };
    assert_eq!(overload.scope, OverloadScope::Client);
    assert_eq!(overload.in_flight, 1);
    assert_eq!(overload.limit, 1);

    // Fetch the first result; the slot frees and the retry is admitted.
    loop {
        match client.poll(first).unwrap() {
            // Each poll is a full round trip; no backoff needed.
            SessionState::Pending => continue,
            SessionState::Done(result) => {
                assert!(result.root_cause().is_some());
                break;
            }
            other => panic!("unexpected state {other:?}"),
        }
    }
    assert_eq!(client.poll(first).unwrap(), SessionState::Unknown);
    let Admission::Accepted(second) = client.submit(&synth_spec("retry", 2)).unwrap() else {
        panic!("slot freed by delivery");
    };

    // Cancel frees the slot without delivering.
    assert!(client.cancel(second).unwrap());
    assert!(!client.cancel(second).unwrap(), "second cancel is a no-op");
    assert_eq!(client.poll(second).unwrap(), SessionState::Unknown);

    client.goodbye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.rejected_client, 1);
    assert_eq!(stats.sessions_accepted, 2);
    assert_eq!(stats.sessions_cancelled, 1);
    assert_eq!(stats.sessions_delivered, 1);
}

/// A malformed frame gets a typed `Malformed` error response, counts as a
/// protocol error, and closes the connection — it never panics a handler
/// thread or poisons other connections.
#[test]
fn malformed_frames_answered_and_connection_closed() {
    let (server, connector) = Server::start_in_proc(ServeConfig::default());

    // A healthy client before the vandal.
    let mut good = AidClient::connect_in_proc(&connector).unwrap();
    good.hello("good").unwrap();

    let mut vandal = connector.connect().unwrap();
    vandal.write_all(b"NOT A FRAME AT ALL......").unwrap();
    let (kind, payload) = wire::read_frame(&mut vandal, wire::DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .expect("the server answers before closing");
    match Response::decode_payload(kind, &payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a Malformed error, got {other:?}"),
    }
    assert!(
        wire::read_frame(&mut vandal, wire::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .is_none(),
        "the server hangs up after a protocol violation"
    );
    drop(vandal);

    // The healthy connection is unaffected.
    let Admission::Accepted(session) = good.submit(&synth_spec("after-vandal", 7)).unwrap() else {
        panic!("healthy client unaffected");
    };
    let (result, _) = good.wait(session).unwrap();
    assert!(result.root_cause().is_some());
    good.goodbye().unwrap();

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.sessions_delivered, 1);
}

/// A truncated upload propagates the store's quarantine through the
/// protocol: the trailing partial line (and the trace it would have
/// closed) is quarantined, everything before it survives, and the
/// analysis still forms when failures remain.
#[test]
fn truncated_upload_reports_quarantine() {
    let (server, connector) = Server::start_in_proc(ServeConfig::default());
    let case = aid_cases::all_cases().remove(0);
    let set = aid_cases::collect_logs_sized(&case, 8, 8);
    let text = codec::encode(&set);
    // Cut mid-line inside the final record.
    let cut = text.trim_end().len() - 3;

    let mut client = AidClient::connect_in_proc(&connector).unwrap();
    client.hello("truncated").unwrap();
    let report = client
        .upload(
            &text.as_bytes()[..cut],
            512,
            AnalysisSpec::Case {
                name: case.name.to_string(),
            },
        )
        .unwrap();
    assert_eq!(report.traces, set.traces.len() as u64 - 1);
    assert_eq!(report.quarantined, 1, "partial tail + open trace");
    assert!(report.analyzed, "failures earlier in the corpus remain");
    client.goodbye().unwrap();

    let stats = server.shutdown();
    assert_eq!(stats.records_quarantined, 1);
    assert_eq!(
        stats.traces_ingested,
        set.traces.len() as u64 - 1,
        "protocol errors stay zero — quarantine is an ingest outcome, not a wire violation"
    );
    assert_eq!(stats.protocol_errors, 0);
}

fn quota_config() -> ServeConfig {
    ServeConfig {
        max_upload_bytes: 64,
        ..ServeConfig::default()
    }
}

/// The quota conversation: an oversized upload is refused, yet every
/// reply of its pipelined frames is drained, so the connection stays in
/// step — the next upload gets a fresh budget and the next call its own
/// reply.
fn upload_quota_round(client: &mut AidClient<impl Read + Write>) {
    client.hello("uploader").unwrap();
    let big = vec![b'#'; 200]; // comment bytes: quota fires before parsing matters
    match client.upload(&big, 50, AnalysisSpec::Default) {
        Err(aid_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::UploadTooLarge)
        }
        other => panic!("expected UploadTooLarge, got {other:?}"),
    }
    // The connection survives, and a fresh upload has a fresh budget.
    let report = client
        .upload(b"# tiny\n", 50, AnalysisSpec::Default)
        .unwrap();
    assert_eq!(report.traces, 0);
    client.hello("still in step").unwrap();
}

/// The per-upload byte quota refuses oversized uploads with a typed
/// error, and `BeginUpload` resets the budget.
#[test]
fn upload_quota_is_enforced_and_resets() {
    let (server, connector) = Server::start_in_proc(quota_config());
    let mut client = AidClient::connect_in_proc(&connector).unwrap();
    upload_quota_round(&mut client);
    client.goodbye().unwrap();
    server.shutdown();
}

/// The same conversation over TCP, where the refused upload's frames
/// reach the reactor in as many reads as the socket delivers them.
#[test]
fn upload_quota_is_enforced_and_resets_over_tcp() {
    let (server, addr) = Server::start_tcp("127.0.0.1:0", quota_config()).unwrap();
    let mut client = AidClient::connect_tcp(addr).unwrap();
    upload_quota_round(&mut client);
    client.goodbye().unwrap();
    server.shutdown();
}

/// Accepts beyond the connection cap are refused with a typed error
/// before a handler thread or trace store is spent on them.
#[test]
fn connection_cap_refuses_with_typed_error() {
    let config = ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    };
    let (server, connector) = Server::start_in_proc(config);
    let mut first = AidClient::connect_in_proc(&connector).unwrap();
    first.hello("first").unwrap(); // proves the slot is occupied

    let mut second = AidClient::connect_in_proc(&connector).unwrap();
    match second.hello("second") {
        Err(aid_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::TooManyConnections)
        }
        other => panic!("expected TooManyConnections, got {other:?}"),
    }

    first.goodbye().unwrap();
    drop(second);
    let stats = server.shutdown();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.connections_refused, 1);
}

/// A connected-but-silent client must not wedge the drain: every
/// accepted connection carries a read timeout, and the handler closes at
/// its next idle tick once the drain flag is up. Without that, this test
/// would hang forever in `shutdown()`.
#[test]
fn drain_closes_idle_connections() {
    let (server, connector) = Server::start_in_proc(ServeConfig::default());
    let mut client = AidClient::connect_in_proc(&connector).unwrap();
    client.hello("idler").unwrap();
    // No goodbye, no disconnect — the client just sits there.
    let stats = server.shutdown();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.active_connections, 0);
    // The server hung up; the next call fails rather than blocking.
    assert!(client.stats().is_err());
}

/// The same conversation over real loopback TCP: hello, submit, stream,
/// stats over the wire, clean shutdown.
#[test]
fn tcp_round_trip() {
    let (server, addr) = Server::start_tcp("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = AidClient::connect_tcp(addr).unwrap();
    let (version, name) = client.hello("tcp").unwrap();
    assert_eq!(version, aid_serve::PROTOCOL_VERSION);
    assert_eq!(name, "aid-serve");

    let Admission::Accepted(session) = client.submit(&synth_spec("tcp-synth", 5)).unwrap() else {
        panic!("fresh server has room");
    };
    let (result, _progress) = client.wait(session).unwrap();
    assert!(result.root_cause().is_some());

    let stats = client.stats().unwrap();
    assert_eq!(stats.active_connections, 1);
    assert_eq!(stats.sessions_delivered, 1);

    client.goodbye().unwrap();
    let final_stats = server.shutdown();
    assert_eq!(final_stats.connections, 1);
    assert_eq!(final_stats.active_connections, 0);
    assert_eq!(final_stats.protocol_errors, 0);
}
