//! Pins the predicate catalogs the observation fold extracts, by
//! `PredicateCatalog::fingerprint()`, over the six case-study corpora and
//! 20 generated lab scenarios.
//!
//! The store's incremental == batch contract compares two paths against
//! each other, so a change that moves both paths together (a reordered
//! site walk, a different stable-site rule) passes it unnoticed. These
//! constants were recorded from the `BTreeMap`-based fold that predates
//! the dense site table; any change to what extraction produces — catalog
//! ids, kinds, thresholds or repair actions — changes a fingerprint here.
//!
//! Each row is `(name, batch extract, store snapshots)`:
//! * *batch extract* is the fingerprint of `aid_predicates::extract` over
//!   the whole corpus;
//! * *store snapshots* folds the catalog fingerprint of the store's
//!   published analysis after every single-trace append and refresh, so
//!   every intermediate `StoreView` state is pinned, rebuilds and
//!   extensions alike.
//!
//! On a mismatch the assertion prints the recomputed table in source form.

use aid_cases::{all_cases, collect_logs};
use aid_lab::{generate_validated, LabParams};
use aid_predicates::{extract, ExtractionConfig};
use aid_store::{StoreConfig, TraceStore};
use aid_trace::TraceSet;

/// Folds one fingerprint into a running digest (FNV-1a style, over the
/// whole 64-bit word).
fn fold(digest: u64, fp: u64) -> u64 {
    (digest ^ fp).wrapping_mul(0x0000_0100_0000_01b3)
}

/// `(batch extract fingerprint, folded store snapshot fingerprints)`.
fn fingerprints(set: &TraceSet, config: &ExtractionConfig) -> (u64, u64) {
    let batch = extract(set, config).catalog.fingerprint();
    let mut store = TraceStore::new(StoreConfig {
        extraction: config.clone(),
        ..StoreConfig::default()
    });
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for t in &set.traces {
        store.append_run(set, t.clone());
        digest = fold(
            digest,
            store
                .refresh()
                .map_or(0, |a| a.extraction.catalog.fingerprint()),
        );
    }
    (batch, digest)
}

fn check(actual: &[(String, u64, u64)], expected: &[(&str, u64, u64)]) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|(a, e)| (a.0.as_str(), a.1, a.2) == *e);
    if !same {
        let rendered: String = actual
            .iter()
            .map(|(n, b, s)| format!("    ({n:?}, {b:#018x}, {s:#018x}),\n"))
            .collect();
        panic!("extracted catalogs moved; recomputed table:\n{rendered}");
    }
}

const CASES: &[(&str, u64, u64)] = &[
    ("Npgsql", 0x375ec0d5f7462010, 0x355c86b3923d5483),
    ("Kafka", 0x0e0e5e19336a0acb, 0x604be8f2cd3d393f),
    ("CosmosDB", 0x3f2f88ed9413eae7, 0xdf42f609fded33c7),
    ("Network", 0x3c2ea69f10d53505, 0x05abce124b6407ec),
    ("BuildAndTest", 0x7329dfcc0817e93d, 0x57b32f4e5024388d),
    ("HealthTelemetry", 0x97a9a3d9cc0502b1, 0x27d2c73f8a1d1294),
];

const LAB: &[(&str, u64, u64)] = &[
    ("atomicity-s1", 0x70a9445451ed70fc, 0x3ea27071a4701284),
    ("order-violation-s2", 0x8b1317df7bde322c, 0xd1caf15394e1f733),
    ("use-after-free-s3", 0x89c86ed710f30aa9, 0x2cbdf0f23228cb62),
    ("timing-s4", 0x467aa4e796df5229, 0xe6d6d32103de9d6c),
    ("lost-delivery-s5", 0x27d436d3568e4729, 0xcb84c84ba52f2bd2),
    (
        "duplicate-delivery-s6",
        0xecd92705e9a34d92,
        0x0b5e0e6c92c7b71a,
    ),
    (
        "reordered-delivery-s7",
        0x272ac89dbf5fbd19,
        0x3accf615cc61eef1,
    ),
    (
        "channel-deadlock-s8",
        0xd70127518c9ec6e9,
        0x5da7d8054789fd01,
    ),
    ("data-race-s9", 0x3f38f7de2bdf1689, 0x4077463d32957bf2),
    ("atomicity-s10", 0xcbb7f08b7c06acf2, 0xde9eae653bca17d6),
    (
        "order-violation-s11",
        0x7843c3c32157ca43,
        0xe094ee73b681dd66,
    ),
    ("use-after-free-s12", 0x8a76f6097684ce9a, 0x656354aaead50c31),
    ("timing-s13", 0x512ff5995d2e94df, 0xd600ff1b35e15b34),
    ("lost-delivery-s14", 0x6fec28d8723d8bf1, 0x6ba5f73f651ae835),
    (
        "duplicate-delivery-s15",
        0x3f7192592167718c,
        0x5e3476820ec79de8,
    ),
    (
        "reordered-delivery-s16",
        0xb4242ff3389b8e2a,
        0xd9f74c45368185ba,
    ),
    (
        "channel-deadlock-s17",
        0x801367c118478ad2,
        0x7bc2d9cb41bd2012,
    ),
    ("data-race-s18", 0x199892f2df7892c1, 0xd5f049e27f2e0f76),
    ("atomicity-s19", 0x2445e63bb30e29e2, 0xc6ca7a0b1da1c79a),
    (
        "order-violation-s20",
        0xe70df4cffe62375d,
        0x316e6e25f70cc23f,
    ),
];

#[test]
fn case_study_catalogs_are_pinned() {
    let actual: Vec<(String, u64, u64)> = all_cases()
        .iter()
        .map(|case| {
            let set = collect_logs(case);
            let (batch, store) = fingerprints(&set, &case.config);
            (case.name.to_string(), batch, store)
        })
        .collect();
    check(&actual, CASES);
}

#[test]
fn lab_scenario_catalogs_are_pinned() {
    let params = LabParams::default();
    let actual: Vec<(String, u64, u64)> = (1..=20u64)
        .map(|seed| {
            let (scenario, set) = generate_validated(&params, seed);
            let (batch, store) = fingerprints(&set, &scenario.config);
            (scenario.name, batch, store)
        })
        .collect();
    check(&actual, LAB);
}
