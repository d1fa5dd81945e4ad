//! Round-trip latency over loopback TCP. Every reply is handed back to
//! the reactor by a handler thread; the reactor must notice that at once,
//! not at the next timed wakeup. A park that waited out a fixed poll cap
//! would put the cap under every reply, far above the bound here.

use aid_serve::{AidClient, ServeConfig, Server};
use std::time::{Duration, Instant};

#[test]
fn sequential_hello_round_trips_stay_under_a_millisecond_at_p50() {
    const ROUND_TRIPS: usize = 200;
    let (server, addr) = Server::start_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = AidClient::connect_tcp(addr).expect("connect");

    let mut samples: Vec<Duration> = (0..ROUND_TRIPS)
        .map(|i| {
            let started = Instant::now();
            client.hello(&format!("rt-{i}")).expect("hello");
            started.elapsed()
        })
        .collect();
    samples.sort();
    let p50 = samples[ROUND_TRIPS / 2];
    assert!(
        p50 < Duration::from_millis(1),
        "p50 round trip {p50:?}; slowest {:?}",
        samples[ROUND_TRIPS - 1]
    );

    client.goodbye().expect("goodbye");
    server.shutdown();
}
