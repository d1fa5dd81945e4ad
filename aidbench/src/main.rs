//! Runs one workload of the repository benchmark and prints its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path aidbench/Cargo.toml -- \
//!     --workload replay-shared --seed 1 --seconds 55 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. The run exits 1 if
//! any output check failed and 2 on a bad argument.

use aidbench::run::{run, Options, Report, MIN_SAMPLES};
use aidbench::stats::quantile;
use aidbench::Workload;

fn usage(problem: &str) -> ! {
    eprintln!(
        "aidbench: {problem}\nusage: aidbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Options {
    let mut workload = None;
    let mut opts = Options::new(Workload::ReplayShared, 1, 55.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        fn bad<T>(flag: &str, value: &str) -> T {
            usage(&format!("bad value {value:?} for {flag}"))
        }
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).unwrap_or_else(|| bad(flag, value)))
            }
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| bad(flag, value)),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| bad(flag, value)),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, value),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    opts
}

/// The commit the benchmark runs on, when it runs inside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out += "\\\"",
            '\\' => out += "\\\\",
            c if (c as u32) < 0x20 => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out + "\""
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = parse(&args[1..]);
    let report: Report = run(&opts);

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let seeds = aidbench::scenario_seeds(opts.seed, opts.scenarios);
    let quartile = |q| quantile(&report.pass_rates, q);
    let thin_p99 = !opts.trace && report.samples < MIN_SAMPLES;
    if thin_p99 {
        eprintln!(
            "aidbench: only {} session latencies (< {MIN_SAMPLES}): session_p99_ms is thin",
            report.samples
        );
    }
    println!(
        "AIDBENCH-PROVENANCE {{\"commit\":{},\"nproc\":{nproc},\"workload\":{},\"seed\":{},\
         \"scenario_seeds\":\"{}..{}\",\"seconds\":{},\"trace\":{},\"passes\":{},\
         \"pass_rate_quartiles\":[{:.2},{:.2},{:.2}],\"samples\":{},\"thin_p99\":{thin_p99},\
         \"command\":{}}}",
        json_str(&commit()),
        json_str(opts.workload.name()),
        opts.seed,
        seeds.start,
        seeds.end,
        opts.seconds,
        opts.trace,
        report.pass_rates.len(),
        quartile(0.25),
        quartile(0.5),
        quartile(0.75),
        report.samples,
        json_str(&args.join(" ")),
    );
    for table in &report.tables {
        println!("\n{table}");
    }
    for m in &report.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failures.len(),
        metrics.join(",")
    );
    if !report.correct() {
        std::process::exit(1);
    }
}
