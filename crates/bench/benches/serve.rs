//! Criterion bench for the serving layer: the full
//! `ServeEngine::submit_request` → admission queue → batcher thread →
//! `PendingResponse` round trip vs calling `SemaSkEngine::query_batch`
//! directly on the same 64-query workload. The gap between `served-64`
//! and `direct-64` is the serving layer's overhead — queue locking,
//! condvar wakeups, claim delivery — on top of identical batch
//! execution.
//!
//! Same city, seed, and grid-band range as `benches/batch.rs`, so the
//! numbers are comparable across the two files. The engine runs the
//! SemaSK-EM variant (no LLM refinement) to keep the measurement on
//! the serving + filtering path.
//!
//! The recorded baseline lives in `BENCH_serve.json` at the repo root;
//! regenerate it with `cargo bench --bench serve` after touching the
//! serving layer, the batch execution path, or the worker pool.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use llm::SimLlm;
use semask::{prepare_city, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};
use semask_serve::api::{PendingResponse, Request, ServeStatus};
use semask_serve::{ServeConfig, ServeEngine};

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

fn bench_serve(c: &mut Criterion) {
    let data = datagen::poi::generate_city(&datagen::CITIES[3], 1790, 7);
    let llm = Arc::new(SimLlm::new());
    let config = SemaSkConfig::default();
    let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prep"));
    let engine = Arc::new(SemaSkEngine::new(
        prepared,
        llm,
        config,
        Variant::EmbeddingOnly,
    ));

    // The batch bench's grid band: routes to the grid prefilter, where
    // batching pays the most, so serving overhead is measured against
    // the fastest direct path rather than hidden under slow retrieval.
    let range = geotext::BoundingBox::from_center_km(datagen::CITIES[3].center(), 5.0, 5.0);
    let queries: Vec<SemaSkQuery> = (0..64)
        .map(|i| {
            SemaSkQuery::new(
                range,
                format!("{i}: {}", QUERY_TEXTS[i % QUERY_TEXTS.len()]),
            )
        })
        .collect();

    let mut group = c.benchmark_group("serve");

    // Baseline: the execution engine alone, no admission layer.
    group.bench_function("direct-64", |b| {
        b.iter(|| black_box(engine.query_batch(&queries).expect("batch")));
    });

    // One long-lived server per cap, reused across iterations (as in
    // production); each iteration submits the 64 queries from one
    // thread and waits for every claim. The batcher flushes whatever
    // has queued each time the executor comes free, so an iteration is
    // a short run of flushes — the first few queries, then what the
    // submit loop added meanwhile — never larger than the cap; the
    // counters printed below give the shape actually recorded.
    for (name, cap) in [("served-64-cap16", 16usize), ("served-64-cap64", 64)] {
        let serve = ServeEngine::new(
            Arc::clone(&engine),
            ServeConfig {
                max_batch: cap,
                queue_capacity: 256,
                result_cache_entries: 0,
                negative_cache: false,
            },
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let claims: Vec<PendingResponse> = queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| serve.submit_request(Request::new(i as u64, q.clone())))
                    .collect();
                for claim in claims {
                    let response = claim.wait();
                    assert_eq!(
                        response.status,
                        ServeStatus::Ok,
                        "capacity covers the batch"
                    );
                    black_box(response);
                }
            });
        });
        let m = serve.metrics();
        serve.shutdown();
        // Queries/sec for the scaling table in BENCH_serve.json is
        // 64 ÷ (criterion time/iter); these counters are the shape of
        // the run behind that number.
        println!(
            "{name}: batches {}, mean batch {:.1}, max batch {}, \
             mean queue wait {:.1} µs",
            m.batches,
            m.mean_batch_size(),
            m.max_batch,
            m.mean_queue_wait().as_secs_f64() * 1e6,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
