//! Criterion microbenchmarks for the trace store: streaming decode
//! throughput, end-to-end ingestion into the trace window, and the full
//! ingest-plus-analysis pipeline over a 100-run case-study corpus.

use aid_cases::npgsql;
use aid_sim::Simulator;
use aid_store::{StoreConfig, StreamDecoder, TraceStore};
use aid_trace::codec;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_store(c: &mut Criterion) {
    let case = npgsql::case();
    let sim = Simulator::new(case.program.clone());
    let logs = sim.collect_balanced(50, 50, 60_000);
    let encoded = codec::encode(&logs);

    c.bench_function("stream_decode_npgsql_100_runs", |b| {
        b.iter(|| {
            let mut dec = StreamDecoder::new();
            for chunk in encoded.as_bytes().chunks(8192) {
                dec.push_bytes(chunk);
            }
            dec.finish();
            black_box(dec.drain().len())
        });
    });

    c.bench_function("store_ingest_npgsql_100_runs", |b| {
        b.iter(|| {
            let mut store = TraceStore::new(StoreConfig::default());
            for chunk in encoded.as_bytes().chunks(8192) {
                store.ingest_bytes(chunk);
            }
            store.finish_ingest();
            black_box(store.len())
        });
    });

    c.bench_function("store_ingest_refresh_npgsql_100_runs", |b| {
        b.iter(|| {
            let mut store = TraceStore::new(StoreConfig {
                extraction: case.config.clone(),
                ..StoreConfig::default()
            });
            store.ingest_str(&encoded);
            store.finish_ingest();
            let analysis = store.refresh().expect("failures present");
            black_box(analysis.candidates.len())
        });
    });
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
