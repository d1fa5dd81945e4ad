//! One benchmark run: set-up, the measured passes, the output checks and
//! the metrics. An untraced run yields the end-to-end metrics; a traced
//! run yields the per-layer metrics.

use crate::inproc::{self, WatchCounts};
use crate::served::{self, Conversation};
use crate::stats::{median, quantile, Trace};
use crate::{Answer, EngineCounts, Inputs, Pass, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Scenarios in a run's inputs, replayed once per cycle.
pub const DEFAULT_SCENARIOS: usize = 180;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Session latencies a run collects at least (so each of the default
/// scenarios is replayed at least 5 times before its median is taken),
/// unless twice `seconds` has passed first; an end-to-end run that stops
/// short flags its p99 as thin.
pub const MIN_SAMPLES: usize = 1000;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer run (true) or end-to-end run (false).
    pub trace: bool,
    /// Scenarios in the inputs.
    pub scenarios: usize,
}

impl Options {
    /// A run of `workload` with every other setting at its default.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            scenarios: DEFAULT_SCENARIOS,
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Sessions attempted, companion passes included.
    pub attempted: u64,
    /// Failed, rejected and wrong-result sessions, plus failed checks.
    pub failures: Vec<String>,
    /// The metrics of this kind of run.
    pub metrics: Vec<Metric>,
    /// Sessions per second of each measured untraced pass.
    pub pass_rates: Vec<f64>,
    /// Session latencies behind the end-to-end percentiles.
    pub samples: usize,
    /// Human-readable stage tables (traced runs only).
    pub tables: Vec<String>,
}

impl Report {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Which way a pass drives the scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    Replay,
    Inproc,
    Stream,
}

impl Path {
    fn of(workload: Workload) -> Path {
        match workload {
            Workload::ReplayShared => Path::Replay,
            Workload::ReplayInproc => Path::Inproc,
            Workload::StreamWatch => Path::Stream,
        }
    }

    /// One pass per range of the inputs' cycle.
    fn cycle(self, inputs: &Inputs, tracing: bool) -> Vec<Pass> {
        let pass = |range| match self {
            Path::Replay => served::pass(inputs, range, Conversation::Replay, tracing),
            Path::Inproc => inproc::pass(inputs, range, tracing),
            Path::Stream => served::pass(inputs, range, Conversation::Stream, tracing),
        };
        inputs.cycle().into_iter().map(pass).collect()
    }
}

/// The set-up a workload needs before its first session: its inputs, and
/// a server with every client connected (or a cold engine in process).
fn set_up(opts: &Options) -> Result<Inputs, String> {
    let inputs = Inputs::prepare(opts.seed, opts.scenarios);
    match opts.workload {
        Workload::ReplayInproc => drop(inproc::engine()),
        Workload::ReplayShared | Workload::StreamWatch => {
            let (server, clients) = served::start()?;
            for (client, _) in clients {
                client.goodbye().map_err(|e| format!("goodbye: {e}"))?;
            }
            server.shutdown();
        }
    }
    Ok(inputs)
}

/// Runs one benchmark run.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        // Drop the last set-up's inputs first, so no two copies are alive.
        drop(inputs.take());
        let started = Instant::now();
        match set_up(opts) {
            Ok(i) => inputs = Some(i),
            Err(e) => {
                report.attempted = 1;
                report.failures.push(format!("set-up: {e}"));
                return report;
            }
        }
        setups.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up ran");
    reset_peak_rss();

    // The measured cycles. A traced run alternates untraced and traced
    // cycles, so the tracing overhead is measured under the same drift.
    let path = Path::of(opts.workload);
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let (mut cycles, mut traced_cycles) = (0, 0);
    let started = Instant::now();
    loop {
        let tracing = opts.trace && cycles - traced_cycles > traced_cycles;
        let passes = path.cycle(&inputs, tracing);
        if tracing {
            traced.extend(passes);
            traced_cycles += 1;
        } else {
            untraced.extend(passes);
        }
        cycles += 1;
        let elapsed = started.elapsed().as_secs_f64();
        let samples: usize = untraced.iter().map(|p| p.samples.len()).sum();
        let enough = elapsed >= opts.seconds
            && if opts.trace {
                traced_cycles > 0
            } else {
                samples >= MIN_SAMPLES || elapsed >= 2.0 * opts.seconds
            };
        if enough {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb();
    report.pass_rates = untraced.iter().map(Pass::rate).collect();

    let reference = match inproc::reference(&inputs) {
        Ok(reference) => reference,
        Err(e) => {
            report.attempted = 1;
            report.failures.push(format!("in-process reference: {e}"));
            return report;
        }
    };
    for pass in untraced.iter().chain(&traced) {
        check(pass, &reference, &mut report);
    }

    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.samples.iter().map(|s| s.latency_ms))
        .collect();
    report.samples = latencies.len();
    let sessions_per_s = rate(&untraced);
    if !opts.trace {
        let attempted = report.attempted.max(1) as f64;
        let failed = report.failures.len() as f64;
        let rounds: usize = reference.iter().map(|a| a.rounds).sum();
        report.metrics = vec![
            metric("sessions_per_s", "1/s", sessions_per_s),
            metric("session_p50_ms", "ms", quantile(&latencies, 0.50)),
            metric("session_p99_ms", "ms", session_p99_ms(&untraced)),
            metric("ok_share", "ratio", 1.0 - failed / attempted),
            metric(
                "rounds_per_session",
                "count",
                rounds as f64 / reference.len().max(1) as f64,
            ),
            metric("setup_s", "s", median(&setups)),
            metric("peak_rss_mb", "MB", peak_rss_mb),
        ];
        return report;
    }

    // Traced: the workload's own traced cycles, then one traced cycle of
    // each other path and the single-layer sweeps over the same inputs.
    let mut by_path: Vec<(Path, Vec<Pass>)> = vec![(path, traced)];
    for other in [Path::Replay, Path::Inproc, Path::Stream] {
        if other != path {
            let passes = other.cycle(&inputs, true);
            for pass in &passes {
                check(pass, &reference, &mut report);
            }
            by_path.push((other, passes));
        }
    }
    let mut sweep = Trace::new(true);
    inproc::lab_sweep(&inputs, &mut sweep);
    inproc::sim_sweep(&inputs, &mut sweep);
    let (watch, watch_failures) = inproc::watch_pass(&inputs, &reference, &mut sweep);
    report.failures.extend(watch_failures);

    let layers = Layers::new(by_path);
    let own = layers.path(path);
    report.metrics = layers.metrics(path, &sweep, watch);
    report
        .metrics
        .push(metric("trace.sessions_per_s", "1/s", rate(own)));
    report.metrics.push(metric(
        "trace.overhead_sessions_per_s",
        "1/s",
        rate(own) - sessions_per_s,
    ));
    report.tables = layers.tables();
    report
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The median over `passes` of each pass's sessions per second, which a
/// few passes slowed by a burst of neighbour load move little.
fn rate(passes: &[Pass]) -> f64 {
    median(&passes.iter().map(Pass::rate).collect::<Vec<_>>())
}

/// The session p99 of a run: the p99, over the scenarios, of each
/// scenario's median latency across its replays. Every cycle replays every
/// scenario against a cold pass, so a scenario's replays do the same work.
/// A neighbour on a shared host that takes a vCPU for a few milliseconds
/// stretches whichever sessions it lands on, and a p99 over single
/// sessions takes those in; the per-scenario median leaves them out. A
/// tail the program causes on a scenario shows in most of its replays, so
/// in its median.
fn session_p99_ms(passes: &[Pass]) -> f64 {
    let mut by_scenario: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in passes.iter().flat_map(|p| &p.samples) {
        by_scenario
            .entry(s.scenario)
            .or_default()
            .push(s.latency_ms);
    }
    let medians: Vec<f64> = by_scenario.values().map(|v| median(v)).collect();
    quantile(&medians, 0.99)
}

/// Counts a pass's sessions and checks every answer against the
/// in-process reference; clients agree with each other if each agrees
/// with the reference.
fn check(pass: &Pass, reference: &[Answer], report: &mut Report) {
    report.attempted += pass.attempted;
    report.failures.extend(pass.failures.iter().cloned());
    for s in &pass.samples {
        if s.answer != reference[s.scenario] {
            report.failures.push(format!(
                "scenario {}: answered {:?}, in process {:?}",
                s.scenario, s.answer, reference[s.scenario]
            ));
        }
    }
}

/// Lowers this process's peak resident set size (`VmHWM`) to its current
/// size, so the peak read after the measured cycles is theirs, not the
/// set-up's. Where `/proc` refuses, the peak keeps covering set-up too.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Megabytes per second that `passes` ingested through `TraceStore`: the
/// bytes each pass ingested over its `store.ingest_us` time.
pub fn ingest_mb_per_s(passes: &[Pass]) -> f64 {
    let bytes: usize = passes.iter().map(|p| p.ingested_bytes).sum();
    let us: f64 = passes
        .iter()
        .map(|p| p.trace.total("store.ingest_us"))
        .sum();
    if us > 0.0 {
        bytes as f64 / us
    } else {
        0.0
    }
}

/// The traced passes of a run, grouped by path.
struct Layers {
    paths: Vec<(Path, Vec<Pass>)>,
    trace: Vec<(Path, Trace)>,
    ingest_mb_per_s: f64,
}

impl Layers {
    fn new(mut paths: Vec<(Path, Vec<Pass>)>) -> Layers {
        let ingest_mb_per_s = paths
            .iter()
            .find(|(p, _)| *p == Path::Inproc)
            .map_or(0.0, |(_, passes)| ingest_mb_per_s(passes));
        let trace = paths
            .iter_mut()
            .map(|(path, passes)| {
                let mut t = Trace::new(true);
                for p in passes.iter_mut() {
                    t.merge(std::mem::take(&mut p.trace));
                }
                (*path, t)
            })
            .collect();
        Layers {
            paths,
            trace,
            ingest_mb_per_s,
        }
    }

    /// The stage table of every path: each timed call's p50 times its
    /// calls per session, summed, beside the path's session p50.
    fn tables(&self) -> Vec<String> {
        let overhead = self.p50_ms(Path::Replay) - self.p50_ms(Path::Inproc);
        [Path::Replay, Path::Stream, Path::Inproc]
            .into_iter()
            .map(|path| {
                let mut out = format!(
                    "stage table: {path:?} path (traced passes, p50 per call)\n{:<28}{:>14}{:>14}{:>14}\n",
                    "call", "calls/session", "p50 us", "ms/session"
                );
                let (rows, n) = self.stages(path);
                for (i, (key, calls, p50)) in rows.into_iter().enumerate() {
                    let after = if i < n { "" } else { "  (after the session)" };
                    out += &format!(
                        "{key:<28}{calls:>14.2}{p50:>14.1}{:>14.3}{after}\n",
                        calls * p50 / 1e3
                    );
                }
                out += &format!(
                    "{:<56}{:>14.3}\n{:<56}{:>14.3}\n",
                    "sum of stage p50s (ms)",
                    self.stage_sum_ms(path),
                    "session p50 (ms)",
                    self.p50_ms(path)
                );
                if path == Path::Replay {
                    out += &format!(
                        "{:<56}{overhead:>14.3}\n",
                        "serve.overhead_ms (replay p50 - in-process p50)"
                    );
                }
                out
            })
            .collect()
    }

    fn path(&self, path: Path) -> &[Pass] {
        self.paths
            .iter()
            .find(|(p, _)| *p == path)
            .map_or(&[], |(_, passes)| passes.as_slice())
    }

    fn trace(&self, path: Path) -> &Trace {
        &self
            .trace
            .iter()
            .find(|(p, _)| *p == path)
            .expect("every path has a traced pass")
            .1
    }

    fn p50_ms(&self, path: Path) -> f64 {
        let lat: Vec<f64> = self
            .path(path)
            .iter()
            .flat_map(|p| p.samples.iter().map(|s| s.latency_ms))
            .collect();
        median(&lat)
    }

    fn attempted(&self, path: Path) -> f64 {
        self.path(path)
            .iter()
            .map(|p| p.attempted)
            .sum::<u64>()
            .max(1) as f64
    }

    /// The timed calls of a path with their calls per session and p50 in
    /// microseconds. The first `n` fall inside the session latency; a
    /// standing query's stat-neutral tail and unsubscribe come after its
    /// convergence.
    fn stages(&self, path: Path) -> (Vec<(&'static str, f64, f64)>, usize) {
        let (keys, n): (&[&'static str], usize) = match path {
            Path::Replay => (
                &[
                    "serve.upload_rt_us",
                    "serve.submit_rt_us",
                    "serve.wait_rt_us",
                ],
                3,
            ),
            Path::Stream => (
                &[
                    "serve.subscribe_rt_us",
                    "serve.stream_tail_rt_us",
                    "serve.neutral_tail_rt_us",
                    "serve.unsubscribe_rt_us",
                ],
                2,
            ),
            Path::Inproc => (
                &["store.ingest_us", "store.refresh_us", "engine.session_us"],
                3,
            ),
        };
        let trace = self.trace(path);
        let rows = keys
            .iter()
            .map(|&k| {
                let calls = trace.samples(k).len() as f64 / self.attempted(path);
                (k, calls, trace.quantile(k, 0.5))
            })
            .collect();
        (rows, n)
    }

    /// Calls per session times their p50, summed over the calls inside
    /// the session latency, in milliseconds.
    fn stage_sum_ms(&self, path: Path) -> f64 {
        let (rows, n) = self.stages(path);
        rows[..n]
            .iter()
            .map(|(_, calls, p50)| calls * p50 / 1e3)
            .sum()
    }

    fn metrics(&self, own: Path, sweep: &Trace, watch: WatchCounts) -> Vec<Metric> {
        let replay = self.trace(Path::Replay);
        let stream = self.trace(Path::Stream);
        let local = self.trace(Path::Inproc);
        // The served path this run's serve counts come from.
        let served = if own == Path::Stream {
            Path::Stream
        } else {
            Path::Replay
        };
        let server = self
            .path(served)
            .iter()
            .filter_map(|p| p.server)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        let mut engine = EngineCounts::default();
        for p in self.path(own) {
            engine += p.engine.unwrap_or_default();
        }
        let per_own = |v: u64| v as f64 / self.attempted(own);
        let per_served = |v: u64| v as f64 / self.attempted(served);
        let round_trips: u64 = self.path(served).iter().map(|p| p.round_trips).sum();
        // A lookup coalesced onto the other client's in-flight execution is
        // served from the cache too; which client coalesces and which hits
        // depends on timing, their sum does not.
        let served_lookups = engine.hits + engine.coalesced;
        let lookups = served_lookups + engine.misses;
        let watched = watch.reprobed + watch.skipped;
        vec![
            metric(
                "serve.upload_rt_us.p50",
                "us",
                replay.quantile("serve.upload_rt_us", 0.5),
            ),
            metric(
                "serve.submit_rt_us.p50",
                "us",
                replay.quantile("serve.submit_rt_us", 0.5),
            ),
            metric(
                "serve.wait_rt_us.p50",
                "us",
                replay.quantile("serve.wait_rt_us", 0.5),
            ),
            metric(
                "serve.wait_rt_us.p99",
                "us",
                replay.quantile("serve.wait_rt_us", 0.99),
            ),
            metric(
                "serve.subscribe_rt_us.p50",
                "us",
                stream.quantile("serve.subscribe_rt_us", 0.5),
            ),
            metric(
                "serve.stream_tail_rt_us.p50",
                "us",
                stream.quantile("serve.stream_tail_rt_us", 0.5),
            ),
            metric(
                "serve.stream_tail_rt_us.p99",
                "us",
                stream.quantile("serve.stream_tail_rt_us", 0.99),
            ),
            metric(
                "serve.round_trips_per_session",
                "count",
                per_served(round_trips),
            ),
            metric(
                "serve.overhead_ms",
                "ms",
                self.p50_ms(Path::Replay) - self.p50_ms(Path::Inproc),
            ),
            metric("serve.stage_sum_ms", "ms", self.stage_sum_ms(served)),
            metric("serve.frames_per_session", "count", per_served(server.0)),
            metric(
                "serve.dispatches_per_session",
                "count",
                per_served(server.1),
            ),
            metric(
                "store.ingest_us.p50",
                "us",
                local.quantile("store.ingest_us", 0.5),
            ),
            metric(
                "store.refresh_us.p50",
                "us",
                local.quantile("store.refresh_us", 0.5),
            ),
            metric("store.ingest_mb_per_s", "MB/s", self.ingest_mb_per_s),
            metric(
                "engine.session_us.p50",
                "us",
                local.quantile("engine.session_us", 0.5),
            ),
            metric(
                "engine.session_us.p99",
                "us",
                local.quantile("engine.session_us", 0.99),
            ),
            metric(
                "engine.executions_per_session",
                "count",
                per_own(engine.executions),
            ),
            metric(
                "engine.cache_hit_rate",
                "ratio",
                if lookups > 0 {
                    served_lookups as f64 / lookups as f64
                } else {
                    0.0
                },
            ),
            metric(
                "engine.cache_hits_per_session",
                "count",
                per_own(engine.hits),
            ),
            metric(
                "engine.cache_misses_per_session",
                "count",
                per_own(engine.misses),
            ),
            metric(
                "engine.coalesced_per_session",
                "count",
                per_own(engine.coalesced),
            ),
            metric("sim.run_us.p50", "us", sweep.quantile("sim.run_us", 0.5)),
            metric(
                "lab.build_us.p50",
                "us",
                sweep.quantile("lab.build_us", 0.5),
            ),
            metric(
                "watch.tick_us.p50",
                "us",
                sweep.quantile("watch.tick_us", 0.5),
            ),
            metric(
                "watch.skip_ratio",
                "ratio",
                if watched > 0 {
                    watch.skipped as f64 / watched as f64
                } else {
                    0.0
                },
            ),
            metric("watch.reprobed", "count", watch.reprobed as f64),
            metric("watch.skipped", "count", watch.skipped as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sample;

    /// One replay of scenarios `0..latencies.len()`, scenario `i` taking
    /// `latencies[i]` ms.
    fn cycle(latencies: &[f64]) -> Pass {
        let samples = latencies
            .iter()
            .enumerate()
            .map(|(scenario, &latency_ms)| Sample {
                scenario,
                latency_ms,
                answer: Answer {
                    causal: Vec::new(),
                    rounds: 1,
                },
            })
            .collect();
        Pass {
            samples,
            ..Pass::default()
        }
    }

    #[test]
    fn a_stall_on_one_replay_leaves_the_session_p99_alone() {
        // 100 scenarios, the slowest taking 9 ms, replayed 5 times; one
        // replay of every fast scenario is stalled to 20 ms.
        let mut base = vec![2.0; 100];
        base[99] = 9.0;
        let mut passes: Vec<Pass> = (0..4).map(|_| cycle(&base)).collect();
        let stalled: Vec<f64> = base
            .iter()
            .map(|&l| if l < 9.0 { 20.0 } else { l })
            .collect();
        passes.push(cycle(&stalled));
        assert_eq!(session_p99_ms(&passes), 2.0);
    }

    #[test]
    fn a_scenario_slow_on_most_replays_sets_the_session_p99() {
        let mut slow = vec![2.0; 50];
        slow[0] = 7.0;
        slow[1] = 8.0;
        let passes = vec![cycle(&slow), cycle(&slow), cycle(&[2.0; 50])];
        assert_eq!(session_p99_ms(&passes), 8.0);
    }
}
