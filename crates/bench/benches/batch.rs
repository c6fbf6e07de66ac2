//! Criterion bench for batched query execution: N one-query calls
//! (`QueryPlanner::retrieve_keyword`, itself a `retrieve_batch` of one)
//! vs one `retrieve_batch` of N at N in {1, 16, 64} on the planner
//! bench workload (same city, seed, and mid range as
//! `benches/planner.rs`) — what grouping buys on the one filtering path —
//! and N `SemaSkEngine::query` calls vs one `query_batch` of N over
//! distinct ranges — what a batch is worth when it shares nothing.
//!
//! The recorded baseline lives in `BENCH_batch.json` at the repo root;
//! regenerate it with `cargo bench --bench batch` after touching the
//! batch execution path, the scoring kernels, or the worker pool.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use embed::Embedder;
use llm::SimLlm;
use semask::{prepare_city, PlannedQuery, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};

const QUERY_TEXTS: [&str; 8] = [
    "a quiet cafe with strong espresso and pastries",
    "craft beer and live music",
    "ramen with a long line",
    "late night tacos",
    "a bookstore with a reading corner",
    "rooftop cocktails at sunset",
    "family friendly pizza",
    "vegan brunch with outdoor seating",
];

fn bench_batch(c: &mut Criterion) {
    let data = datagen::poi::generate_city(&datagen::CITIES[3], 1790, 7);
    let llm = Arc::new(SimLlm::new());
    let prepared = Arc::new(prepare_city(&data, &llm, &SemaSkConfig::default()).expect("prep"));

    let center = prepared.city.center();
    // Two selectivity bands off the planner bench workload: "grid"
    // routes to the grid prefilter (batched candidate sharing + the
    // single-pass scoring kernel apply in full), "mid" routes to
    // filtered HNSW (graph traversal stays per-query; the batch only
    // amortizes planning and the filter mask).
    let bands = [
        (
            "grid",
            geotext::BoundingBox::from_center_km(center, 5.0, 5.0),
        ),
        (
            "mid",
            geotext::BoundingBox::from_center_km(center, 8.0, 8.0),
        ),
    ];
    // 64 distinct query vectors (varied prefix → distinct embeddings, so
    // the batch gets no artificial duplicate-query advantage).
    let embedded: Vec<Vec<f32>> = (0..64)
        .map(|i| {
            prepared
                .embedder
                .embed(&format!("{i}: {}", QUERY_TEXTS[i % QUERY_TEXTS.len()]))
        })
        .collect();

    let mut group = c.benchmark_group("batch");
    for (band, range) in &bands {
        let frac = prepared.planner.estimator().estimate_fraction(range);
        let strategy = prepared.planner.plan(range).chosen;
        println!("band {band}: estimated selectivity {frac:.3}, routes to {strategy}");
        let queries: Vec<PlannedQuery> = embedded
            .iter()
            .map(|v| PlannedQuery::new(v.clone(), *range, 10))
            .collect();
        for m in [1usize, 16, 64] {
            let slice = &queries[..m];
            group.bench_function(format!("{band}/sequential-{m}"), |b| {
                b.iter(|| {
                    for q in slice {
                        black_box(
                            prepared
                                .planner
                                .retrieve_keyword(&q.vec, &q.range, None, q.k, q.ef)
                                .expect("retrieval")
                                .hits,
                        );
                    }
                });
            });
            group.bench_function(format!("{band}/batched-{m}"), |b| {
                b.iter(|| black_box(prepared.planner.retrieve_batch(slice).expect("retrieval")));
            });
        }
    }

    // The whole engine (embed, plan, retrieve, refine; `EmbeddingOnly`)
    // over 64 distinct ranges from 2 km to the whole city: no two
    // queries share a plan or a candidate set, so the batch can only win
    // by running queries side by side — and must not lose to N calls.
    let engine = SemaSkEngine::new(
        Arc::clone(&prepared),
        llm,
        SemaSkConfig::default(),
        Variant::EmbeddingOnly,
    );
    let distinct: Vec<SemaSkQuery> = (0..64)
        .map(|i| {
            let shift = 0.001 * i as f64;
            let centre = geotext::GeoPoint::new(center.lat + shift, center.lon - shift)
                .expect("a jittered in-city coordinate");
            let km = [2.0, 5.0, 8.0, 40.0][i % 4];
            SemaSkQuery::new(
                geotext::BoundingBox::from_center_km(centre, km, km),
                format!("{i}: {}", QUERY_TEXTS[i % QUERY_TEXTS.len()]),
            )
        })
        .collect();
    for m in [16usize, 64] {
        let slice = &distinct[..m];
        group.bench_function(format!("engine/sequential-{m}"), |b| {
            b.iter(|| {
                for q in slice {
                    black_box(engine.query(q).expect("query"));
                }
            });
        });
        group.bench_function(format!("engine/batched-{m}"), |b| {
            b.iter(|| black_box(engine.query_batch(slice).expect("batch")));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
