//! loadgen — drive a live `aid_serve` server with N concurrent clients
//! replaying lab-generated debugging sessions over loopback TCP.
//!
//! ```sh
//! cargo run -p aid_bench --bin loadgen --release -- \
//!     [--clients=4] [--scenarios=12] [--workers=4] [--seed=1] \
//!     [--chunk=4096] [--allow-rejections=0] [--stream=0] [--tails=3] \
//!     [--tier=<name>] [--metrics-dump=0] [--assert-metrics=0]
//! ```
//!
//! Every client replays the *same* scenario list (upload corpus → submit
//! discovery → stream to completion), so the run measures the service's
//! cross-client economics: the first client to reach a scenario executes
//! its interventions, the rest are answered from the shared intervention
//! cache. The run fails (nonzero exit) on any client/protocol error, any
//! cross-client result mismatch, any server-side protocol error, or — by
//! default — any admission rejection: a correctly provisioned run sheds
//! nothing, so a rejection in CI means the sizing contract broke. Pass
//! `--allow-rejections=1` when deliberately overloading.
//!
//! With `--stream=1`, a second phase replays every scenario as a *standing
//! query*: each client subscribes a watch, streams the corpus as `--tails`
//! byte tails, and must converge to the identical `DiscoveryResult` the
//! one-shot phase produced; it then streams a stat-neutral tail (a replay
//! of a successful run) that must be answered from the watcher's cache
//! with no re-discovery. The phase's engine traffic is reported separately
//! (`AID-SERVE-STREAM {json}`) so the standing-query economics — near-total
//! cache service — are pinned by the benchmark snapshot.
//!
//! Emits a machine-readable `AID-SERVE {json}` summary line (throughput,
//! p50/p99 session latency, rejection rate, cache hit-rate).
//!
//! Every run also pulls one `Metrics` wire frame right after the one-shot
//! phase (before any `--stream=1` phase) — the server's whole `aid_obs`
//! registry in a single consistent snapshot — and records the
//! service-side frame latency distribution (`serve_p50_frame_us`,
//! `serve_p99_frame_us`, from the `serve.frame_us` histogram) in the
//! snapshot. Those keys, `serve_cache_hit_rate`, and the `--tier` keys
//! describe the one-shot phase alone, whatever `--stream` says.
//! `--metrics-dump=1` prints the snapshot in Prometheus text exposition
//! format; `--assert-metrics=1` fails the run unless the snapshot carries
//! the engine's cache counters and lease-wait histogram and a nonzero
//! reactor dwell-time distribution (the CI `obs` job's contract).
//!
//! `--tier=<name>` records the reactor-scale metrics of the run under
//! `serve_<name>_*` snapshot keys — connections held at peak, total
//! frames/s through the reactor, and the cross-client cache hit rate
//! (a `*_hit_rate` key, so it sits under the benchdiff ratio gate). Use
//! it for the high-client tiers (`--clients=512 --tier=reactor_512`,
//! `--clients=2048 --tier=reactor_2048`) whose point is that thousands
//! of mostly-idle connections are cheap for the event-driven core.

use aid_bench::{arg_value, render_table};
use aid_engine::EngineConfig;
use aid_lab::{prepare_replay, LabParams, ReplayItem};
use aid_serve::{
    Admission, AidClient, AnalysisSpec, OverloadScope, ProgramSpec, ServeConfig, Server,
    SubmitSpec, WatchSpec,
};
use aid_trace::{codec, Outcome, TraceSet};
use aid_watch::WatchEvent;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DISCOVERY_SEED: u64 = 11;
const FIRST_SEED: u64 = 1_000_000;

/// One completed session, as observed by a client.
struct Sample {
    scenario: usize,
    latency: Duration,
    causal: Vec<u32>,
    rounds: usize,
}

fn arg_or(name: &str, default: usize) -> usize {
    arg_value(name)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn run_client(
    addr: std::net::SocketAddr,
    id: usize,
    items: &[ReplayItem],
    chunk: usize,
) -> Result<(Vec<Sample>, u64), String> {
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("client {id} {stage}: {e}");
    let mut client = AidClient::connect_tcp(addr).map_err(|e| fail("connect", &e))?;
    client
        .hello(&format!("loadgen-{id}"))
        .map_err(|e| fail("hello", &e))?;
    let mut samples = Vec::with_capacity(items.len());
    let mut rejections = 0u64;
    for (index, item) in items.iter().enumerate() {
        let started = Instant::now();
        let report = client
            .upload(
                item.encoded.as_bytes(),
                chunk,
                AnalysisSpec::Lab(item.scenario.spec),
            )
            .map_err(|e| fail("upload", &e))?;
        if !report.analyzed || report.quarantined != 0 {
            return Err(format!(
                "client {id} upload of {}: quarantined={} analyzed={}",
                item.scenario.name, report.quarantined, report.analyzed
            ));
        }
        let spec = SubmitSpec {
            name: format!("{}/c{id}", item.scenario.name),
            program: ProgramSpec::Lab(item.scenario.spec),
            strategy: aid_core::Strategy::Aid,
            discovery_seed: DISCOVERY_SEED,
            runs_per_round: item.scenario.runs_per_round as u32,
            first_seed: FIRST_SEED,
            prune_quorum: 1,
        };
        // Back off briefly on a rejection; a drain rejection is final.
        let session = loop {
            match client.submit(&spec).map_err(|e| fail("submit", &e))? {
                Admission::Accepted(session) => break session,
                Admission::Rejected(overload) => {
                    rejections += 1;
                    if overload.scope == OverloadScope::Draining {
                        return Err(format!("client {id}: server draining mid-run"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        let (result, _progress) = client.wait(session).map_err(|e| fail("wait", &e))?;
        samples.push(Sample {
            scenario: index,
            latency: started.elapsed(),
            causal: result.causal.iter().map(|p| p.raw()).collect(),
            rounds: result.rounds,
        });
    }
    client.goodbye().map_err(|e| fail("goodbye", &e))?;
    Ok((samples, rejections))
}

/// A tail that moves no predicate statistic: a replay of a successful run
/// already in the corpus (site stability, duration envelopes, unique
/// returns, and every candidate's counts are preserved).
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

/// The convergence a tick reported, whatever event carried it.
fn converged_of(events: &[WatchEvent]) -> Option<&aid_core::DiscoveryResult> {
    events.iter().rev().find_map(|e| match e {
        WatchEvent::Converged { result, .. } => Some(result),
        WatchEvent::RootChanged { result, .. } => Some(result),
        _ => None,
    })
}

/// Phase-2 client: replay every scenario as a standing query. Returns the
/// converged samples and the number of stat-neutral tails answered from
/// the watcher's cache (must end up `items.len()`).
fn run_stream_client(
    addr: std::net::SocketAddr,
    id: usize,
    items: &[ReplayItem],
    tails: usize,
) -> Result<(Vec<Sample>, u64), String> {
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("stream client {id} {stage}: {e}");
    let mut client = AidClient::connect_tcp(addr).map_err(|e| fail("connect", &e))?;
    client
        .hello(&format!("loadgen-stream-{id}"))
        .map_err(|e| fail("hello", &e))?;
    let mut samples = Vec::with_capacity(items.len());
    let mut cached = 0u64;
    for (index, item) in items.iter().enumerate() {
        let started = Instant::now();
        let mut spec = WatchSpec::new(
            format!("{}/w{id}", item.scenario.name),
            AnalysisSpec::Lab(item.scenario.spec),
            ProgramSpec::Lab(item.scenario.spec),
        );
        spec.discovery_seed = DISCOVERY_SEED;
        spec.first_seed = FIRST_SEED;
        spec.runs_per_round = item.scenario.runs_per_round as u32;
        let watch = loop {
            match client.subscribe(&spec).map_err(|e| fail("subscribe", &e))? {
                Admission::Accepted(watch) => break watch,
                Admission::Rejected(overload) => {
                    if overload.scope == OverloadScope::Draining {
                        return Err(format!("stream client {id}: server draining mid-run"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        // The corpus as `tails` byte tails; cuts land anywhere in a line
        // and the chunking is identical across clients, so every client's
        // mid-stream re-probes hit the same intervention-cache keys.
        let bytes = item.encoded.as_bytes();
        let step = bytes.len().div_ceil(tails.max(1));
        let mut report = None;
        for (i, piece) in bytes.chunks(step).enumerate() {
            let fin = (i + 1) * step >= bytes.len();
            report = Some(
                client
                    .stream_tail(watch, piece, fin)
                    .map_err(|e| fail("stream_tail", &e))?,
            );
        }
        let report = report.expect("corpora are non-empty");
        let Some(result) = converged_of(&report.events) else {
            return Err(format!(
                "stream client {id}: {} never converged over the full corpus",
                item.scenario.name
            ));
        };
        samples.push(Sample {
            scenario: index,
            latency: started.elapsed(),
            causal: result.causal.iter().map(|p| p.raw()).collect(),
            rounds: result.rounds,
        });

        // Post-convergence economy: the stat-neutral tail must republish
        // the cached convergence without re-discovery.
        let neutral = neutral_tail(&item.corpus);
        let report = client
            .stream_tail(watch, neutral.as_bytes(), true)
            .map_err(|e| fail("neutral tail", &e))?;
        match report.events.as_slice() {
            [WatchEvent::Converged {
                resubmitted: false, ..
            }] => cached += 1,
            other => {
                return Err(format!(
                    "stream client {id}: stat-neutral tail on {} was not cache-served: {other:?}",
                    item.scenario.name
                ))
            }
        }
        if !client
            .unsubscribe(watch)
            .map_err(|e| fail("unsubscribe", &e))?
        {
            return Err(format!("stream client {id}: watch {watch} vanished"));
        }
    }
    client.goodbye().map_err(|e| fail("goodbye", &e))?;
    Ok((samples, cached))
}

fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let clients = arg_or("clients", 4);
    let scenarios = arg_or("scenarios", 12);
    let workers = arg_or("workers", 4);
    let seed = arg_or("seed", 1) as u64;
    let chunk = arg_or("chunk", 4096);
    let allow_rejections = arg_or("allow-rejections", 0) != 0;
    let stream = arg_or("stream", 0) != 0;
    let tails = arg_or("tails", 3);
    let tier = arg_value("tier");
    let metrics_dump = arg_or("metrics-dump", 0) != 0;
    let assert_metrics = arg_or("assert-metrics", 0) != 0;

    println!("Preparing {scenarios} lab scenarios (seed {seed})…");
    let params = LabParams::default();
    let items = Arc::new(prepare_replay(&params, seed..seed + scenarios as u64));
    let upload_bytes: usize = items.iter().map(|i| i.encoded.len()).sum();

    let config = ServeConfig {
        engine: EngineConfig {
            workers,
            max_pending: (2 * clients).max(8),
            ..EngineConfig::default()
        },
        // High-client tiers hold every connection open at once; the cap
        // scales with the fleet so the run sheds nothing by design.
        max_connections: (2 * clients).max(256),
        ..ServeConfig::default()
    };
    let (server, addr) = Server::start_tcp("127.0.0.1:0", config).expect("bind loopback");
    println!(
        "Server on {addr} ({workers} workers); {clients} clients × {scenarios} sessions \
         ({:.1} KiB of uploads per client)…\n",
        upload_bytes as f64 / 1024.0
    );

    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|id| {
            // Stagger large fleets a little so thousands of simultaneous
            // SYNs don't overflow the listen backlog before the reactor
            // gets a chance to drain it.
            if clients > 64 {
                std::thread::sleep(Duration::from_micros(200));
            }
            let items = Arc::clone(&items);
            std::thread::spawn(move || run_client(addr, id, &items, chunk))
        })
        .collect();

    let mut samples: Vec<Sample> = Vec::new();
    let mut rejections = 0u64;
    let mut client_errors: Vec<String> = Vec::new();
    for thread in threads {
        match thread.join().expect("client thread panicked") {
            Ok((s, r)) => {
                samples.extend(s);
                rejections += r;
            }
            Err(e) => client_errors.push(e),
        }
    }
    let elapsed = started.elapsed();

    // The one-shot phase's numbers, fixed before any stream traffic: the
    // server's summary, and one Metrics frame over the live wire (the
    // registry's consistent snapshot of every tier's counters and
    // latency histograms).
    let one_shot = server.stats();
    let obs = {
        let mut mc = AidClient::connect_tcp(addr).expect("metrics connect");
        mc.hello("loadgen-metrics").expect("metrics hello");
        let snap = mc.metrics().expect("metrics frame");
        let _ = mc.goodbye();
        snap
    };

    // Phase 2 (--stream=1): the same fleet replays every scenario as a
    // standing query against the cache the one-shot phase just filled.
    let mut stream_samples: Vec<Sample> = Vec::new();
    let mut stream_cached = 0u64;
    let mut stream_errors: Vec<String> = Vec::new();
    let mut stream_elapsed = Duration::ZERO;
    if stream {
        println!("\nStreaming phase: {clients} clients × {scenarios} standing queries…");
        let stream_started = Instant::now();
        let threads: Vec<_> = (0..clients)
            .map(|id| {
                let items = Arc::clone(&items);
                std::thread::spawn(move || run_stream_client(addr, id, &items, tails))
            })
            .collect();
        for thread in threads {
            match thread.join().expect("stream client thread panicked") {
                Ok((s, c)) => {
                    stream_samples.extend(s);
                    stream_cached += c;
                }
                Err(e) => stream_errors.push(e),
            }
        }
        stream_elapsed = stream_started.elapsed();
    }

    let stats = server.shutdown();

    // Cross-client determinism: every replica of a scenario must report
    // the identical causal path and round count.
    let mut mismatches = 0usize;
    let mut rows = vec![vec![
        "scenario".to_string(),
        "replicas".to_string(),
        "rounds".to_string(),
        "causal path".to_string(),
        "p50 ms".to_string(),
    ]];
    for (index, item) in items.iter().enumerate() {
        let replicas: Vec<&Sample> = samples.iter().filter(|s| s.scenario == index).collect();
        let Some(first) = replicas.first() else {
            continue;
        };
        mismatches += replicas
            .iter()
            .filter(|s| s.causal != first.causal || s.rounds != first.rounds)
            .count();
        let mut lat: Vec<f64> = replicas
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        lat.sort_by(f64::total_cmp);
        rows.push(vec![
            item.scenario.name.clone(),
            replicas.len().to_string(),
            first.rounds.to_string(),
            first
                .causal
                .iter()
                .map(|p| format!("P{p}"))
                .collect::<Vec<_>>()
                .join("→"),
            format!("{:.1}", percentile_ms(&lat, 0.5)),
        ]);
    }
    print!("{}", render_table(&rows));

    let mut latencies: Vec<f64> = samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let sessions = samples.len();
    let submissions = sessions as u64 + rejections;
    let p50 = percentile_ms(&latencies, 0.5);
    let p99 = percentile_ms(&latencies, 0.99);

    println!(
        "\n{sessions} sessions in {elapsed:?} ({:.1} sessions/s) | \
         latency p50 {p50:.1} ms, p99 {p99:.1} ms",
        sessions as f64 / elapsed.as_secs_f64()
    );
    println!(
        "server: {} executions | cache {} hits / {} misses ({:.0}% hit rate) | \
         {} rejections | {} protocol errors",
        one_shot.executions,
        one_shot.cache_hits,
        one_shot.cache_misses,
        100.0 * one_shot.cache_hit_rate(),
        one_shot.rejections(),
        one_shot.protocol_errors
    );
    for e in &client_errors {
        eprintln!("CLIENT ERROR: {e}");
    }

    println!(
        "AID-SERVE {{\"clients\":{clients},\"scenarios\":{scenarios},\"workers\":{workers},\
         \"seed\":{seed},\"sessions\":{sessions},\"elapsed_s\":{:.6},\"sessions_per_s\":{:.3},\
         \"p50_ms\":{p50:.3},\"p99_ms\":{p99:.3},\"rejections\":{},\"rejection_rate\":{:.4},\
         \"result_mismatches\":{mismatches},\"client_errors\":{},\"protocol_errors\":{},\
         \"executions\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":{:.4},\
         \"traces_ingested\":{},\"records_quarantined\":{},\"upload_chunks\":{},\
         \"bytes_in\":{},\"bytes_out\":{},\"sessions_completed\":{},\"peak_pending\":{}}}",
        elapsed.as_secs_f64(),
        sessions as f64 / elapsed.as_secs_f64(),
        one_shot.rejections(),
        if submissions == 0 {
            0.0
        } else {
            one_shot.rejections() as f64 / submissions as f64
        },
        client_errors.len(),
        one_shot.protocol_errors,
        one_shot.executions,
        one_shot.cache_hits,
        one_shot.cache_misses,
        one_shot.cache_hit_rate(),
        one_shot.traces_ingested,
        one_shot.records_quarantined,
        one_shot.upload_chunks,
        one_shot.bytes_in,
        one_shot.bytes_out,
        one_shot.sessions_completed,
        one_shot.peak_pending,
    );

    // Service-side frame latency, from the telemetry plane rather than
    // client-observed wall clock: dispatch-to-responses-queued per frame.
    let frame_hist = obs.histogram("serve.frame_us");
    let (frame_p50_us, frame_p99_us) = frame_hist
        .map(|h| (h.quantile(0.50) as f64, h.quantile(0.99) as f64))
        .unwrap_or((0.0, 0.0));
    println!(
        "telemetry: {} metrics | frame handling p50 {frame_p50_us} µs, p99 {frame_p99_us} µs \
         (server-side, {} frames)",
        obs.entries.len(),
        frame_hist.map_or(0, |h| h.count),
    );

    // Record the serving-path metrics in their own snapshot so the serve
    // numbers diff independently of the simulator/engine keys.
    aid_bench::snapshot::merge_write(
        "BENCH_serve.json",
        &[
            (
                "serve_sessions_per_s".to_string(),
                sessions as f64 / elapsed.as_secs_f64(),
            ),
            ("serve_p50_ms".to_string(), p50),
            ("serve_p99_ms".to_string(), p99),
            ("serve_p50_frame_us".to_string(), frame_p50_us),
            ("serve_p99_frame_us".to_string(), frame_p99_us),
            (
                "serve_cache_hit_rate".to_string(),
                one_shot.cache_hit_rate(),
            ),
        ],
    );

    if metrics_dump {
        println!("\n--- metrics ({} entries) ---", obs.entries.len());
        print!("{}", obs.render_prometheus());
    }

    // Reactor-scale tier: how many connections the event core held at
    // once, the frame throughput it multiplexed, and the cross-client
    // hit rate at that scale (ratio key — benchdiff gates it).
    if let Some(tier) = &tier {
        let frames_per_s =
            (one_shot.frames_in + one_shot.frames_out) as f64 / elapsed.as_secs_f64().max(1e-9);
        println!(
            "AID-SERVE-REACTOR {{\"tier\":\"{tier}\",\"connections_held\":{},\
             \"handler_dispatches\":{},\"frames_per_s\":{frames_per_s:.1},\
             \"cache_hit_rate\":{:.4}}}",
            one_shot.peak_connections,
            one_shot.handler_dispatches,
            one_shot.cache_hit_rate(),
        );
        aid_bench::snapshot::merge_write(
            "BENCH_serve.json",
            &[
                (
                    format!("serve_{tier}_connections_held"),
                    one_shot.peak_connections as f64,
                ),
                (format!("serve_{tier}_frames_per_s"), frames_per_s),
                (format!("serve_{tier}_hit_rate"), one_shot.cache_hit_rate()),
            ],
        );
    }

    let expected = clients * scenarios;
    let mut failed = false;
    if assert_metrics {
        // The telemetry contract the CI `obs` job pins: the wire snapshot
        // must carry the engine's cache counters + lease-wait histogram
        // and a live reactor dwell-time distribution.
        for key in ["engine.shard0.cache.hits", "engine.shard0.cache.misses"] {
            if obs.counter(key).is_none() {
                eprintln!("FAIL: metrics snapshot is missing counter {key}");
                failed = true;
            }
        }
        if obs.histogram("engine.shard0.cache.lease_wait_us").is_none() {
            eprintln!(
                "FAIL: metrics snapshot is missing histogram engine.shard0.cache.lease_wait_us"
            );
            failed = true;
        }
        match obs.histogram("serve.reactor.dwell_us") {
            Some(h) if h.count > 0 => {}
            Some(_) => {
                eprintln!("FAIL: serve.reactor.dwell_us recorded nothing");
                failed = true;
            }
            None => {
                eprintln!("FAIL: metrics snapshot is missing serve.reactor.dwell_us");
                failed = true;
            }
        }
        match frame_hist {
            Some(h) if h.count > 0 => {}
            _ => {
                eprintln!("FAIL: serve.frame_us is missing or empty");
                failed = true;
            }
        }
        if obs.counter("serve.frames_in").unwrap_or(0) == 0 {
            eprintln!("FAIL: serve.frames_in is missing or zero");
            failed = true;
        }
    }
    if stream {
        // Streamed convergences must match the one-shot results exactly.
        let mut stream_mismatches = 0usize;
        for index in 0..items.len() {
            let Some(reference) = samples.iter().find(|s| s.scenario == index) else {
                continue;
            };
            stream_mismatches += stream_samples
                .iter()
                .filter(|s| s.scenario == index)
                .filter(|s| s.causal != reference.causal || s.rounds != reference.rounds)
                .count();
        }
        let d_hits = stats.cache_hits - one_shot.cache_hits;
        let d_misses = stats.cache_misses - one_shot.cache_misses;
        let stream_hit_rate = if d_hits + d_misses == 0 {
            1.0
        } else {
            d_hits as f64 / (d_hits + d_misses) as f64
        };
        let watches = stream_samples.len();
        println!(
            "\nstreaming: {watches} watches in {stream_elapsed:?} ({:.1} watches/s) | \
             {} executions, cache hit rate {:.0}% | {stream_cached} stat-neutral tails \
             cache-served | reprobed {} / skipped {} candidates",
            watches as f64 / stream_elapsed.as_secs_f64().max(1e-9),
            stats.executions - one_shot.executions,
            100.0 * stream_hit_rate,
            stats.view_reprobed,
            stats.view_skipped,
        );
        for e in &stream_errors {
            eprintln!("STREAM CLIENT ERROR: {e}");
        }
        println!(
            "AID-SERVE-STREAM {{\"clients\":{clients},\"scenarios\":{scenarios},\
             \"watches\":{watches},\"elapsed_s\":{:.6},\"watches_per_s\":{:.3},\
             \"executions\":{},\"cache_hits\":{d_hits},\"cache_misses\":{d_misses},\
             \"cache_hit_rate\":{stream_hit_rate:.4},\"neutral_cached\":{stream_cached},\
             \"result_mismatches\":{stream_mismatches},\"client_errors\":{},\
             \"watch_events\":{},\"view_reprobed\":{},\"view_skipped\":{}}}",
            stream_elapsed.as_secs_f64(),
            watches as f64 / stream_elapsed.as_secs_f64().max(1e-9),
            stats.executions - one_shot.executions,
            stream_errors.len(),
            stats.watch_events,
            stats.view_reprobed,
            stats.view_skipped,
        );
        aid_bench::snapshot::merge_write(
            "BENCH_serve.json",
            &[
                (
                    "serve_stream_watches_per_s".to_string(),
                    watches as f64 / stream_elapsed.as_secs_f64().max(1e-9),
                ),
                ("serve_stream_cache_hit_rate".to_string(), stream_hit_rate),
            ],
        );
        if !stream_errors.is_empty() || watches != expected {
            eprintln!("FAIL: {watches}/{expected} standing queries converged");
            failed = true;
        }
        if stream_mismatches > 0 {
            eprintln!("FAIL: {stream_mismatches} streamed-vs-one-shot result mismatches");
            failed = true;
        }
        if stream_cached != expected as u64 {
            eprintln!("FAIL: {stream_cached}/{expected} stat-neutral tails were cache-served");
            failed = true;
        }
    }
    if !client_errors.is_empty() || sessions != expected {
        eprintln!("FAIL: {}/{expected} sessions completed", sessions);
        failed = true;
    }
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} cross-client result mismatches");
        failed = true;
    }
    if stats.protocol_errors > 0 {
        eprintln!(
            "FAIL: {} server-side protocol errors",
            stats.protocol_errors
        );
        failed = true;
    }
    if stats.rejections() > 0 && !allow_rejections {
        eprintln!(
            "FAIL: {} rejections in a run sized to shed nothing",
            stats.rejections()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
