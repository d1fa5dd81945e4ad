//! The reactor's event contract, observed from outside: frames arriving
//! one readiness event at a time — cut at every byte boundary — decode
//! identically to frames arriving whole, and idle connections cost
//! *zero* handler wakeups between frames (the whole point of replacing
//! the thread-per-connection read loop).

use aid_serve::{
    wire, AidClient, ProgramSpec, Request, Response, ServeConfig, Server, ServerStats,
    SessionState, SubmitSpec,
};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Every prefix/suffix split of a request frame — two readiness events
/// with an arbitrary cut between them — must decode to the same reply as
/// the whole frame, on one long-lived connection. Also runs the fully
/// pathological one-byte-per-event delivery.
fn split_frames_decode_identically(conn: &mut (impl Read + Write)) {
    let frame = Request::Metrics.encode();
    let expect_stats = |conn: &mut _| {
        let (kind, payload) = wire::read_frame(conn, wire::DEFAULT_MAX_FRAME_LEN)
            .expect("response frame")
            .expect("connection open");
        match Response::decode_payload(kind, &payload).expect("decodable") {
            Response::MetricsReply(snapshot) => ServerStats::from_snapshot(&snapshot),
            other => panic!("expected MetricsReply, got {other:?}"),
        }
    };

    // Whole frame first: the baseline request works.
    conn.write_all(&frame).unwrap();
    expect_stats(conn);

    // Every cut point, including inside the magic, the length field, and
    // the payload (Metrics has none; Hello below has one).
    for cut in 1..frame.len() {
        conn.write_all(&frame[..cut]).unwrap();
        conn.write_all(&frame[cut..]).unwrap();
        expect_stats(conn);
    }

    // One byte per readiness event, with a payload-bearing request.
    let hello = Request::Hello {
        client: "byte-at-a-time".into(),
    }
    .encode();
    for byte in &hello {
        conn.write_all(std::slice::from_ref(byte)).unwrap();
    }
    let (kind, payload) = wire::read_frame(conn, wire::DEFAULT_MAX_FRAME_LEN)
        .expect("hello response")
        .expect("connection open");
    match Response::decode_payload(kind, &payload).expect("decodable") {
        Response::HelloOk { .. } => {}
        other => panic!("expected HelloOk, got {other:?}"),
    }

    // Two frames fused into one write (pipelining) still answer in order.
    let mut fused = Request::Metrics.encode();
    fused.extend_from_slice(&Request::Metrics.encode());
    conn.write_all(&fused).unwrap();
    expect_stats(conn);
    let after = expect_stats(conn);

    assert_eq!(
        after.protocol_errors, 0,
        "no split was mistaken for a malformed frame"
    );
}

#[test]
fn frames_split_at_every_byte_boundary_decode_identically() {
    let (server, connector) = Server::start_in_proc(ServeConfig::default());
    let mut conn = connector.connect().expect("connect");
    split_frames_decode_identically(&mut conn);
    drop(conn);
    server.shutdown();
}

/// The same contract over a raw socket: with `TCP_NODELAY` each write is
/// its own segment, so the cuts reach the reactor as separate readiness
/// events on the fd.
#[test]
fn frames_split_at_every_byte_boundary_decode_identically_over_tcp() {
    let (server, addr) = Server::start_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).unwrap();
    split_frames_decode_identically(&mut conn);
    drop(conn);
    server.shutdown();
}

/// Requests pipelined in one write are dispatched together yet answered
/// in order: the submission, the stream of it (an optional `Progress`,
/// then the terminal `Status`), then the `Hello` queued behind the
/// stream.
#[test]
fn pipelined_submit_stream_hello_answer_in_order() {
    let (server, connector) = Server::start_in_proc(ServeConfig::default());
    let mut conn = connector.connect().expect("connect");
    let spec = SubmitSpec::new("pipelined", ProgramSpec::Synth { app_seed: 3 });
    let mut frames = Request::SubmitDiscovery {
        name: spec.name,
        program: spec.program,
        strategy: spec.strategy,
        discovery_seed: spec.discovery_seed,
        runs_per_round: spec.runs_per_round,
        first_seed: spec.first_seed,
        prune_quorum: spec.prune_quorum,
    }
    .encode();
    // A fresh server numbers its first session 1.
    frames.extend(Request::Stream { session: 1 }.encode());
    frames.extend(
        Request::Hello {
            client: "pipeliner".into(),
        }
        .encode(),
    );
    conn.write_all(&frames).unwrap();

    let mut next = || {
        let (kind, payload) = wire::read_frame(&mut conn, wire::DEFAULT_MAX_FRAME_LEN)
            .expect("response frame")
            .expect("connection open");
        Response::decode_payload(kind, &payload).expect("decodable")
    };
    assert_eq!(next(), Response::Submitted { session: 1 });
    let mut reply = next();
    if let Response::Progress { session, .. } = reply {
        assert_eq!(session, 1);
        reply = next();
    }
    match reply {
        Response::Status { session, state } => {
            assert_eq!(session, 1);
            assert!(matches!(state, SessionState::Done(_)), "{state:?}");
        }
        other => panic!("expected the terminal Status, got {other:?}"),
    }
    assert!(matches!(next(), Response::HelloOk { .. }));
    drop(conn);
    server.shutdown();
}

/// A thousand idle connections are a thousand registered wakers — not a
/// thousand threads ticking read timeouts. Between frames the handler
/// pool is never woken: `handler_dispatches` counts exactly one dispatch
/// per request ever received through the silence.
#[test]
fn thousand_idle_connections_cost_zero_wakeups() {
    let config = ServeConfig {
        max_connections: 1100,
        ..ServeConfig::default()
    };
    let (server, connector) = Server::start_in_proc(config);

    let mut fleet = Vec::with_capacity(1000);
    for i in 0..1000 {
        let mut client = AidClient::connect_in_proc(&connector).expect("connect");
        client.hello(&format!("idler-{i}")).expect("hello");
        fleet.push(client);
    }

    // Long silence: every connection idle, none retired.
    std::thread::sleep(std::time::Duration::from_millis(300));

    let stats = fleet[0].stats().expect("still responsive after silence");
    assert_eq!(stats.active_connections, 1000);
    assert_eq!(stats.peak_connections, 1000);
    assert_eq!(
        stats.handler_dispatches, 1001,
        "1000 hellos + this stats call — the silence dispatched nothing: {stats:?}"
    );
    // The whole fleet is still live, not just the one we polled.
    for client in fleet.iter_mut().rev().take(5) {
        client.stats().expect("deep-idle connection answers");
    }

    drop(fleet);
    let final_stats = server.shutdown();
    assert_eq!(final_stats.connections, 1000);
    assert_eq!(final_stats.protocol_errors, 0);
}
