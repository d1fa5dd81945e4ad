//! Exact-repeat check: the counts a run reports are functions of the seed
//! alone, so two short runs of one seed must report them identically.
//!
//! ```sh
//! cargo test --release --manifest-path aidbench/Cargo.toml
//! ```

use aidbench::run::{ingest_mb_per_s, run, Options, Report};
use aidbench::{inproc, Inputs, Pass, Workload, PASS_SCENARIOS};

const SEED: u64 = 1;

/// One measured cycle over a few scenarios (two when traced: one untraced
/// and one traced), since a millisecond run stops after its first cycle
/// of each kind.
fn short(workload: Workload, trace: bool) -> Report {
    let mut opts = Options::new(workload, SEED, 0.001, trace);
    opts.scenarios = 9;
    let report = run(&opts);
    assert!(
        report.correct(),
        "{}: {:?}",
        workload.name(),
        report.failures
    );
    report
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metric(name)
        .unwrap_or_else(|| panic!("{name} is not reported"))
}

#[test]
fn counts_repeat_exactly_across_runs_of_one_seed() {
    for workload in Workload::ALL {
        let (a, b) = (short(workload, false), short(workload, false));
        let rounds = value(&a, "rounds_per_session");
        assert!(rounds > 0.0);
        assert_eq!(
            rounds,
            value(&b, "rounds_per_session"),
            "{}",
            workload.name()
        );
        assert_eq!(value(&a, "ok_share"), 1.0);

        let (a, b) = (short(workload, true), short(workload, true));
        for name in [
            "engine.executions_per_session",
            "engine.cache_hit_rate",
            "engine.cache_misses_per_session",
            "watch.reprobed",
            "watch.skipped",
            "serve.round_trips_per_session",
        ] {
            assert_eq!(
                value(&a, name),
                value(&b, name),
                "{}: {name}",
                workload.name()
            );
        }
        assert!(value(&a, "engine.executions_per_session") > 0.0);
        assert!(value(&a, "watch.reprobed") > 0.0);
    }
}

#[test]
fn ingest_rate_counts_each_pass_only_its_own_bytes() {
    // More scenarios than one pass holds, so a cycle has several passes.
    let inputs = Inputs::prepare(SEED, PASS_SCENARIOS + 5);
    let ranges = inputs.cycle();
    assert!(ranges.len() > 1);
    let passes: Vec<Pass> = ranges
        .into_iter()
        .map(|range| inproc::pass(&inputs, range, true))
        .collect();
    assert!(passes.iter().all(|p| p.failures.is_empty()));
    let bytes: usize = inputs.items.iter().map(|i| i.encoded.len()).sum();
    let ingested: usize = passes.iter().map(|p| p.ingested_bytes).sum();
    assert_eq!(ingested, bytes);
    let us: f64 = passes
        .iter()
        .map(|p| p.trace.total("store.ingest_us"))
        .sum();
    assert_eq!(ingest_mb_per_s(&passes), bytes as f64 / us);
}

#[test]
fn served_replay_hits_the_shared_cache_for_every_second_client() {
    let report = short(Workload::ReplayShared, true);
    assert_eq!(value(&report, "engine.cache_hit_rate"), 0.5);
}
