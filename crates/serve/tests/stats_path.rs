//! The single stats path: `ServerStats` is read out of one registry
//! snapshot, so the summary a client derives from a `Metrics` frame and
//! the one the server reports in-process are the same numbers, and the
//! retired fixed-layout `Stats` request kind is refused like any other
//! unknown kind. The store stage shows in the same scrape.

use aid_serve::{
    wire, Admission, AidClient, AnalysisSpec, ErrorCode, ProgramSpec, Response, ServeConfig,
    Server, ServerHandle, ServerStats, SubmitSpec,
};
use std::io::{Read, Write};

/// Runs one synthetic session to completion, then checks that the
/// client-derived summary matches the server's at quiescence. The
/// client's snapshot is taken while its `Metrics` request is handled, so
/// it counts that request but not the reply: the server's summary is
/// exactly one frame (and that frame's bytes) further along.
fn assert_client_and_server_stats_agree<C: Read + Write>(
    server: &ServerHandle,
    client: &mut AidClient<C>,
) {
    client.hello("stats-path").unwrap();
    let spec = SubmitSpec::new("stats-synth", ProgramSpec::Synth { app_seed: 5 });
    let Admission::Accepted(session) = client.submit(&spec).unwrap() else {
        panic!("a fresh server has room");
    };
    client.wait(session).unwrap();

    let from_client = client.stats().unwrap();
    let from_server = server.stats();
    assert!(
        from_client.executions > 0,
        "the session ran: {from_client:?}"
    );
    assert_eq!(from_client.sessions_delivered, 1);
    assert!(from_server.bytes_out > from_client.bytes_out);
    assert_eq!(
        ServerStats {
            frames_out: from_client.frames_out + 1,
            bytes_out: from_server.bytes_out,
            ..from_client
        },
        from_server
    );
}

#[test]
fn client_stats_equal_server_stats_in_proc() {
    let (server, connector) = Server::start_in_proc(ServeConfig::default());
    let mut client = AidClient::connect_in_proc(&connector).unwrap();
    assert_client_and_server_stats_agree(&server, &mut client);
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn client_stats_equal_server_stats_over_tcp() {
    let (server, addr) = Server::start_tcp("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = AidClient::connect_tcp(addr).unwrap();
    assert_client_and_server_stats_agree(&server, &mut client);
    client.goodbye().unwrap();
    server.shutdown();
}

/// Kind 8 carried the retired `Stats` request. An old client sending it
/// gets the typed `Malformed` reply and a close, and the server counts
/// one protocol error.
#[test]
fn retired_stats_kind_is_malformed() {
    let (server, connector) = Server::start_in_proc(ServeConfig::default());
    let mut conn = connector.connect().unwrap();
    conn.write_all(&wire::frame(8, &[])).unwrap();
    let (kind, payload) = wire::read_frame(&mut conn, wire::DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .expect("the server answers before closing");
    match Response::decode_payload(kind, &payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a Malformed error, got {other:?}"),
    }
    assert!(
        wire::read_frame(&mut conn, wire::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .is_none(),
        "the server hangs up after the refusal"
    );
    drop(conn);
    assert_eq!(server.shutdown().protocol_errors, 1);
}

/// One upload feeds both store-stage histograms: `store.ingest_us` (each
/// chunk's decode-and-append, plus the finishing flush) and
/// `store.refresh_us` (the analysis the upload ends with).
#[test]
fn upload_records_store_ingest_and_refresh_latency() {
    let case = aid_cases::npgsql::case();
    let encoded = aid_trace::codec::encode(&aid_cases::collect_logs_sized(&case, 4, 4));
    let (server, connector) = Server::start_in_proc(ServeConfig::default());
    let mut client = AidClient::connect_in_proc(&connector).unwrap();
    client.hello("store-stage").unwrap();
    let report = client
        .upload(
            encoded.as_bytes(),
            4096,
            AnalysisSpec::Case {
                name: case.name.to_string(),
            },
        )
        .unwrap();
    assert!(report.analyzed, "the corpus has failures");

    let metrics = client.metrics().unwrap();
    for name in ["store.ingest_us", "store.refresh_us"] {
        let h = metrics
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} is registered"));
        assert!(h.count > 0, "{name} recorded the upload: {h:?}");
    }
    client.goodbye().unwrap();
    server.shutdown();
}
