//! Criterion bench for the serving-layer caches: the same
//! Zipf-distributed 64-request workload submitted to a `ServeEngine`
//! with the result cache off (`uncached-zipf64`) and on
//! (`cached-zipf64`), plus the negative-cache fast path
//! (`negative-64`). The gap between the first two rows is what
//! epoch-stamped result caching buys on a skewed read-only mix; the
//! third row shows a provably-empty keyword answered at admission
//! without ever occupying a batch slot.
//!
//! Same city, seed, and grid-band range as `benches/serve.rs`, so rows
//! are comparable across files. The workload is skewed, not uniform,
//! because that is the regime a result cache is for: Zipf(1.3) picks
//! over 512 distinct shapes, served through a deliberately small
//! 128-entry cache, with each iteration taking the next 64-request
//! window of one long precomputed stream. Hot ranks stay resident
//! across windows; the tail keeps missing and evicting, so the cached
//! row measures a steady-state mix of hits and real executions, not a
//! fully warmed replay.
//!
//! The recorded baseline lives in `BENCH_cache.json` at the repo root;
//! regenerate with `cargo bench --bench cache` after touching the
//! cache, the admission path, or batch execution.

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

/// Deterministic Zipf(s = 1.3) sampler over `pool` ranks: precomputes
/// the CDF and walks an LCG, so every run (and both serve
/// configurations) sees the identical request sequence.
fn zipf_sequence(pool: usize, len: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=pool).map(|r| 1.0 / (r as f64).powf(1.3)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(pool);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut state: u64 = 0x5eed_cafe_f00d_0001;
    (0..len)
        .map(|_| {
            // LCG step (Numerical Recipes constants), top 53 bits → [0,1).
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            cdf.iter().position(|&c| u < c).unwrap_or(pool - 1)
        })
        .collect()
}

fn bench_cache(c: &mut Criterion) {
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

    let range = geotext::BoundingBox::from_center_km(datagen::CITIES[3].center(), 5.0, 5.0);
    let shapes: Vec<SemaSkQuery> = (0..512)
        .map(|i| {
            SemaSkQuery::new(
                range,
                format!("{i}: {}", QUERY_TEXTS[i % QUERY_TEXTS.len()]),
            )
        })
        .collect();
    // One long Zipf stream, consumed 64 requests per iteration through a
    // wrapping window, so consecutive iterations repeat the hot ranks
    // but not the tail.
    const WINDOW: usize = 64;
    const WINDOWS: usize = 128;
    let stream = zipf_sequence(shapes.len(), WINDOW * WINDOWS);

    let base = ServeConfig {
        max_batch: 64,
        queue_capacity: 256,
        result_cache_entries: 0,
        negative_cache: false,
    };

    let mut group = c.benchmark_group("cache");

    for (name, entries) in [("uncached-zipf64", 0usize), ("cached-zipf64", 128)] {
        let serve = ServeEngine::new(
            Arc::clone(&engine),
            ServeConfig {
                result_cache_entries: entries,
                negative_cache: entries > 0,
                ..base
            },
        );
        let mut window = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                let chunk = &stream[window * WINDOW..(window + 1) * WINDOW];
                window = (window + 1) % WINDOWS;
                let claims: Vec<PendingResponse> = chunk
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| serve.submit_request(Request::new(i as u64, shapes[r].clone())))
                    .collect();
                for claim in claims {
                    let response = claim.wait();
                    assert_eq!(response.status, ServeStatus::Ok, "capacity covers workload");
                    black_box(response);
                }
            });
        });
        let m = serve.metrics();
        serve.shutdown();
        println!(
            "{name}: hits {}, misses {}, hit rate {:.2}, batches {}, mean batch {:.1}",
            m.cache_hits,
            m.cache_misses,
            m.cache_hit_rate().unwrap_or(0.0),
            m.batches,
            m.mean_batch_size(),
        );
    }

    // The negative-cache fast path: a keyword the corpus has never
    // seen is provably empty, answered at admission from the token
    // filter — no queue slot, no batch, no execution.
    let serve = ServeEngine::new(
        Arc::clone(&engine),
        ServeConfig {
            result_cache_entries: 64,
            negative_cache: true,
            ..base
        },
    );
    let ghost: Vec<SemaSkQuery> = (0..64)
        .map(|i| {
            SemaSkQuery::new(range, format!("{i}: anything at all")).with_keywords("zzqunseenword")
        })
        .collect();
    group.bench_function("negative-64", |b| {
        b.iter(|| {
            let claims: Vec<PendingResponse> = ghost
                .iter()
                .enumerate()
                .map(|(i, q)| serve.submit_request(Request::new(i as u64, q.clone())))
                .collect();
            for claim in claims {
                let response = claim.wait();
                assert_eq!(response.status, ServeStatus::Ok, "negative admission");
                black_box(response);
            }
        });
    });
    let m = serve.metrics();
    serve.shutdown();
    println!(
        "negative-64: negative hits {}, accepted {}, batches {}",
        m.negative_hits, m.accepted, m.batches,
    );
    assert_eq!(
        m.accepted, 0,
        "a provably-empty keyword must never occupy a batch slot"
    );

    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
