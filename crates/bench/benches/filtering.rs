//! Criterion bench for the paper's query-time claim on the filtering
//! step ("0.04 seconds on average"): embedding the query plus filtered
//! ANN over the query range, per city.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use embed::Embedder;
use llm::SimLlm;
use semask::{prepare_city, SemaSkConfig};

fn bench_filtering(c: &mut Criterion) {
    // Santa Barbara at ~paper scale (1,790 POIs) keeps bench setup fast
    // while exercising the real pipeline.
    let data = datagen::poi::generate_city(&datagen::CITIES[3], 1790, 7);
    let llm = Arc::new(SimLlm::new());
    let prepared = prepare_city(&data, &llm, &SemaSkConfig::default()).expect("prep");
    let queries = datagen::queries::generate_queries(
        &data,
        &datagen::queries::QueryGenConfig {
            per_city: 10,
            ..Default::default()
        },
    );

    let mut group = c.benchmark_group("filtering");
    group.bench_function("embed_query", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(prepared.embedder.embed(&q.text))
        });
    });

    group.bench_function("filtered_knn_top10", |b| {
        let vecs: Vec<Vec<f32>> = queries
            .iter()
            .map(|q| prepared.embedder.embed(&q.text))
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            let v = &vecs[i % queries.len()];
            i += 1;
            black_box(
                prepared
                    .filtered_knn_keyword(v, &q.range, None, 10, None)
                    .unwrap(),
            )
        });
    });

    group.bench_function("end_to_end_filtering", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            let v = prepared.embedder.embed(&q.text);
            black_box(
                prepared
                    .filtered_knn_keyword(&v, &q.range, None, 10, None)
                    .unwrap(),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_filtering);
criterion_main!(benches);
