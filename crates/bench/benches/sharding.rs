//! Criterion bench for the sharded retrieval fan-out: the planner's
//! `planned` path at shard counts {1, 2, 4, 8} over the same prepared
//! city, at three range selectivities. Records how the parallel
//! fan-out/merge scales against the single-collection baseline at this
//! dataset size (per-query work is microseconds, so thread fan-out
//! overhead dominates until shards hold enough points to amortize it —
//! the point of recording the curve).
//!
//! The recorded baseline lives in `BENCH_sharding.json` at the repo
//! root; regenerate it with `cargo bench --bench sharding` after
//! touching the sharding layer.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use embed::Embedder;
use llm::SimLlm;
use semask::{prepare_city, PlannerConfig, QueryPlanner, SemaSkConfig};

fn bench_sharding(c: &mut Criterion) {
    let data = datagen::poi::generate_city(&datagen::CITIES[3], 1790, 7);
    let llm = Arc::new(SimLlm::new());
    let prepared = prepare_city(&data, &llm, &SemaSkConfig::default()).expect("prep");
    let collection = prepared
        .db
        .collection(&prepared.collection_name)
        .expect("collection");
    let qv = prepared
        .embedder
        .embed("a quiet cafe with strong espresso and pastries");

    let center = prepared.city.center();
    let ranges = [
        (
            "narrow",
            geotext::BoundingBox::from_center_km(center, 1.0, 1.0),
        ),
        (
            "mid",
            geotext::BoundingBox::from_center_km(center, 8.0, 8.0),
        ),
        (
            "broad",
            prepared.dataset.bounds().expect("non-empty dataset"),
        ),
    ];

    let mut group = c.benchmark_group("sharding");
    for shards in [1usize, 2, 4, 8] {
        let planner = QueryPlanner::for_city(
            Arc::clone(&prepared.dataset),
            Arc::clone(&collection),
            PlannerConfig {
                shards,
                ..PlannerConfig::default()
            },
        );
        for (label, range) in &ranges {
            group.bench_function(format!("{label}/shards-{shards}"), |b| {
                b.iter(|| {
                    black_box(
                        planner
                            .retrieve_keyword(&qv, range, None, 10, None)
                            .expect("retrieval")
                            .hits,
                    )
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sharding);
criterion_main!(benches);
