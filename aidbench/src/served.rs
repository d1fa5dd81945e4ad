//! The served workloads: a server started in this process on loopback
//! TCP and [`CLIENTS`] closed-loop client threads, each on its own
//! connection, replaying the same scenario list.

use crate::stats::{ms, Trace};
use crate::{Answer, EngineCounts, Inputs, Pass, Sample, CHUNK, CLIENTS, DISCOVERY_SEED};
use crate::{FIRST_SEED, TAILS, WORKERS};
use aid_engine::EngineConfig;
use aid_serve::{
    Admission, AidClient, AnalysisSpec, MetricsSnapshot, ProgramSpec, ServeConfig, Server,
    SubmitSpec, WatchSpec,
};
use aid_watch::WatchEvent;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Which conversation the clients hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Conversation {
    /// upload → submit → wait.
    Replay,
    /// subscribe → tails → stat-neutral tail → unsubscribe.
    Stream,
}

/// The server configuration every served pass uses: engine workers set to
/// [`WORKERS`], everything else at its default.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        engine: EngineConfig {
            workers: WORKERS,
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// A client's TCP connection that counts its round trips: a read after a
/// write starts one, however many frames either side sends in it.
pub struct Counted {
    conn: TcpStream,
    wrote: bool,
    round_trips: Arc<AtomicU64>,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if std::mem::take(&mut self.wrote) {
            self.round_trips.fetch_add(1, Ordering::Relaxed);
        }
        self.conn.read(buf)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.wrote = true;
        self.conn.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.conn.flush()
    }
}

type Client = AidClient<Counted>;

/// A connected client and its connection's round-trip count.
pub type Connection = (Client, Arc<AtomicU64>);

fn connect(addr: SocketAddr, id: usize) -> Result<Connection, String> {
    let conn = TcpStream::connect(addr)
        .and_then(|conn| conn.set_nodelay(true).map(|()| conn))
        .map_err(|e| format!("client {id} connect: {e}"))?;
    let round_trips = Arc::new(AtomicU64::new(0));
    let mut client = AidClient::new(Counted {
        conn,
        wrote: false,
        round_trips: Arc::clone(&round_trips),
    });
    client
        .hello(&format!("aidbench-{id}"))
        .map_err(|e| format!("client {id} hello: {e}"))?;
    Ok((client, round_trips))
}

/// Starts a server and connects every client: the served set-up.
pub fn start() -> Result<(aid_serve::ServerHandle, Vec<Connection>), String> {
    let (server, addr) =
        Server::start_tcp("127.0.0.1:0", serve_config()).map_err(|e| format!("bind: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|id| connect(addr, id))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((server, clients))
}

/// One client's share of a pass.
struct ClientRun {
    samples: Vec<Sample>,
    attempted: u64,
    failures: Vec<String>,
    window: (Instant, Instant),
    round_trips: u64,
    metrics: Option<MetricsSnapshot>,
    trace: Trace,
}

/// One pass: a cold server, every client replaying the items in `range`
/// once. Client 0 reads the server's `Metrics` frame on its own
/// connection after every client's last session when tracing.
pub fn pass(
    inputs: &Inputs,
    range: Range<usize>,
    conversation: Conversation,
    tracing: bool,
) -> Pass {
    let (server, clients) = match start() {
        Ok(started) => started,
        Err(e) => {
            return Pass {
                attempted: 1,
                failures: vec![e],
                ..Pass::default()
            }
        }
    };
    let start_line = Barrier::new(CLIENTS);
    let finish_line = Barrier::new(CLIENTS);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(id, (client, round_trips))| {
                let (start_line, finish_line) = (&start_line, &finish_line);
                let range = range.clone();
                s.spawn(move || {
                    let mut trace = Trace::new(tracing);
                    let mut client = client;
                    start_line.wait();
                    let before = round_trips.load(Ordering::Relaxed);
                    let started = Instant::now();
                    let (samples, attempted, failures) = match conversation {
                        Conversation::Replay => replay(&mut client, id, inputs, range, &mut trace),
                        Conversation::Stream => stream(&mut client, id, inputs, range, &mut trace),
                    };
                    let window = (started, Instant::now());
                    let round_trips = round_trips.load(Ordering::Relaxed) - before;
                    finish_line.wait();
                    let metrics = (tracing && id == 0)
                        .then(|| client.metrics().ok())
                        .flatten();
                    let _ = client.goodbye();
                    ClientRun {
                        samples,
                        attempted,
                        failures,
                        window,
                        round_trips,
                        metrics,
                        trace,
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let stats = server.shutdown();

    let mut pass = Pass::default();
    let first = runs.iter().map(|r| r.window.0).min();
    let last = runs.iter().map(|r| r.window.1).max();
    if let (Some(first), Some(last)) = (first, last) {
        pass.elapsed_s = last.duration_since(first).as_secs_f64();
    }
    for run in runs {
        pass.samples.extend(run.samples);
        pass.attempted += run.attempted;
        pass.failures.extend(run.failures);
        pass.round_trips += run.round_trips;
        pass.trace.merge(run.trace);
        if let Some(m) = run.metrics {
            pass.engine = Some(engine_counts(&m));
            pass.server = Some((
                m.counter("serve.frames_in").unwrap_or(0)
                    + m.counter("serve.frames_out").unwrap_or(0),
                m.counter("serve.handler_dispatches").unwrap_or(0),
            ));
        }
    }
    if stats.protocol_errors > 0 {
        pass.failures.push(format!(
            "{} server-side protocol errors",
            stats.protocol_errors
        ));
    }
    pass
}

/// Sums the engine counters over every shard in a `Metrics` snapshot.
fn engine_counts(m: &MetricsSnapshot) -> EngineCounts {
    let mut counts = EngineCounts::default();
    for e in &m.entries {
        let Some(rest) = e.name.strip_prefix("engine.shard") else {
            continue;
        };
        let Some((_, metric)) = rest.split_once('.') else {
            continue;
        };
        let aid_serve::MetricValue::Counter(v) = e.value else {
            continue;
        };
        match metric {
            "executions" => counts.executions += v,
            "cache.hits" => counts.hits += v,
            "cache.misses" => counts.misses += v,
            "cache.coalesced" => counts.coalesced += v,
            _ => {}
        }
    }
    counts
}

type Conv = (Vec<Sample>, u64, Vec<String>);

/// upload → submit → wait for every item.
fn replay(
    client: &mut Client,
    id: usize,
    inputs: &Inputs,
    range: Range<usize>,
    trace: &mut Trace,
) -> Conv {
    let mut samples = Vec::with_capacity(range.len());
    let mut failures = Vec::new();
    let mut attempted = 0;
    for (index, item) in inputs.slice(range) {
        attempted += 1;
        let name = &item.scenario.name;
        let started = Instant::now();
        let upload = trace.time("serve.upload_rt_us", || {
            client.upload(
                item.encoded.as_bytes(),
                CHUNK,
                AnalysisSpec::Lab(item.scenario.spec),
            )
        });
        match upload {
            Ok(r) if r.analyzed && r.quarantined == 0 => {}
            Ok(r) => {
                failures.push(format!("client {id} {name}: upload {r:?}"));
                continue;
            }
            Err(e) => {
                failures.push(format!("client {id} {name}: upload: {e}"));
                break;
            }
        }
        let spec = SubmitSpec {
            name: format!("{name}/c{id}"),
            program: ProgramSpec::Lab(item.scenario.spec),
            strategy: aid_core::Strategy::Aid,
            discovery_seed: DISCOVERY_SEED,
            runs_per_round: item.scenario.runs_per_round as u32,
            first_seed: FIRST_SEED,
            prune_quorum: 1,
        };
        let session = match trace.time("serve.submit_rt_us", || client.submit(&spec)) {
            Ok(Admission::Accepted(session)) => session,
            Ok(Admission::Rejected(o)) => {
                failures.push(format!("client {id} {name}: rejected {o:?}"));
                continue;
            }
            Err(e) => {
                failures.push(format!("client {id} {name}: submit: {e}"));
                break;
            }
        };
        match trace.time("serve.wait_rt_us", || client.wait(session)) {
            Ok((result, _progress)) => samples.push(Sample {
                scenario: index,
                latency_ms: ms(started.elapsed()),
                answer: Answer::of(&result),
            }),
            Err(e) => {
                failures.push(format!("client {id} {name}: wait: {e}"));
                break;
            }
        }
    }
    (samples, attempted, failures)
}

/// The convergence a tick reported, whatever event carried it.
pub fn converged_of(events: &[WatchEvent]) -> Option<&aid_core::DiscoveryResult> {
    events.iter().rev().find_map(|e| match e {
        WatchEvent::Converged { result, .. } | WatchEvent::RootChanged { result, .. } => {
            Some(result)
        }
        _ => None,
    })
}

/// Whether a tick's events are a republished convergence with no
/// resubmission: the cache-served answer a stat-neutral tail must get.
pub fn cache_served(events: &[WatchEvent]) -> bool {
    matches!(
        events,
        [WatchEvent::Converged {
            resubmitted: false,
            ..
        }]
    )
}

/// The byte tails a corpus is streamed in. Cuts land anywhere in a line
/// and are identical across clients, so mid-stream re-probes of every
/// client hit the same cache keys.
pub fn tails(encoded: &str) -> impl Iterator<Item = (&[u8], bool)> {
    let bytes = encoded.as_bytes();
    let step = bytes.len().div_ceil(TAILS);
    bytes
        .chunks(step)
        .enumerate()
        .map(move |(i, piece)| (piece, (i + 1) * step >= bytes.len()))
}

/// subscribe → tails → stat-neutral tail → unsubscribe for every item. A
/// session's latency runs from subscribe to convergence.
fn stream(
    client: &mut Client,
    id: usize,
    inputs: &Inputs,
    range: Range<usize>,
    trace: &mut Trace,
) -> Conv {
    let mut samples = Vec::with_capacity(range.len());
    let mut failures = Vec::new();
    let mut attempted = 0;
    for (index, item) in inputs.slice(range) {
        attempted += 1;
        let name = &item.scenario.name;
        let started = Instant::now();
        let mut spec = WatchSpec::new(
            format!("{name}/w{id}"),
            AnalysisSpec::Lab(item.scenario.spec),
            ProgramSpec::Lab(item.scenario.spec),
        );
        spec.discovery_seed = DISCOVERY_SEED;
        spec.first_seed = FIRST_SEED;
        spec.runs_per_round = item.scenario.runs_per_round as u32;
        let watch = match trace.time("serve.subscribe_rt_us", || client.subscribe(&spec)) {
            Ok(Admission::Accepted(watch)) => watch,
            Ok(Admission::Rejected(o)) => {
                failures.push(format!("client {id} {name}: rejected {o:?}"));
                continue;
            }
            Err(e) => {
                failures.push(format!("client {id} {name}: subscribe: {e}"));
                break;
            }
        };
        let mut last = None;
        for (piece, fin) in tails(&item.encoded) {
            match trace.time("serve.stream_tail_rt_us", || {
                client.stream_tail(watch, piece, fin)
            }) {
                Ok(report) => last = Some(report),
                Err(e) => {
                    failures.push(format!("client {id} {name}: stream_tail: {e}"));
                    return (samples, attempted, failures);
                }
            }
        }
        let Some(result) = last.as_ref().and_then(|r| converged_of(&r.events)) else {
            failures.push(format!("client {id} {name}: never converged"));
            continue;
        };
        let sample = Sample {
            scenario: index,
            latency_ms: ms(started.elapsed()),
            answer: Answer::of(result),
        };
        let neutral = trace.time("serve.neutral_tail_rt_us", || {
            client.stream_tail(watch, inputs.neutral[index].as_bytes(), true)
        });
        match neutral {
            Ok(report) if cache_served(&report.events) => samples.push(sample),
            Ok(report) => failures.push(format!(
                "client {id} {name}: stat-neutral tail not cache-served: {:?}",
                report.events
            )),
            Err(e) => {
                failures.push(format!("client {id} {name}: neutral tail: {e}"));
                break;
            }
        }
        match trace.time("serve.unsubscribe_rt_us", || client.unsubscribe(watch)) {
            Ok(true) => {}
            Ok(false) => failures.push(format!("client {id} {name}: watch vanished")),
            Err(e) => {
                failures.push(format!("client {id} {name}: unsubscribe: {e}"));
                break;
            }
        }
    }
    (samples, attempted, failures)
}
