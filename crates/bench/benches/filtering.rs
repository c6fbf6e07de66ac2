//! Criterion bench for the paper's query-time claim on the filtering
//! step ("0.04 seconds on average"): embedding the query plus filtered
//! ANN over the query range, per city — and, on its own, the geo mask a
//! collection-side strategy evaluates over every stored point.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use embed::Embedder;
use llm::SimLlm;
use semask::{prepare_city, SemaSkConfig};
use vecdb::{Collection, CollectionConfig, Filter};

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

/// What one whole-metro request pays before it scores anything: the
/// geo mask over every stored point (`Collection::filter_ids`, the body
/// `search_batch` builds its mask with). The ledger world's shape
/// without its preparation — 4,000 points, each with its position — and
/// a box that admits all of them.
fn bench_geo_mask(c: &mut Criterion) {
    let mut collection = Collection::new(CollectionConfig::new(8));
    for i in 0..4000u64 {
        let x = i as f32;
        let vector: Vec<f32> = (0..8).map(|d| (x * 0.37 + d as f32).sin()).collect();
        let position = (
            36.0 + (i % 64) as f64 * 0.003,
            -86.9 + (i / 64) as f64 * 0.003,
        );
        collection.insert(i, vector, position).expect("insert");
    }
    let whole = Filter::geo_box(-90.0, -180.0, 90.0, 180.0);
    assert_eq!(collection.filter_ids(&whole).len(), 4000);

    let mut group = c.benchmark_group("collection");
    group.bench_function("geo-mask-4k", |b| {
        b.iter(|| black_box(collection.filter_ids(black_box(&whole))));
    });
    group.finish();
}

criterion_group!(benches, bench_filtering, bench_geo_mask);
criterion_main!(benches);
