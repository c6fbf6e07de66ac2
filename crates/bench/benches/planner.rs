//! Criterion bench for the retrieval backends behind the query planner:
//! each of the four strategies answering the same filtered top-10 query
//! at three range selectivities (narrow ~1%, mid ~20%, broad ~100% of
//! the city), plus the planner's own plan-and-dispatch path (`planned`)
//! and the cost of one plan (`plan_only`). The CI gate fails if a
//! `planned` row regresses more than 2x against `BENCH_planner.json`.
//!
//! Before each band's rows, the bench prints the cost model's
//! predicted per-strategy costs next to the measured means — the
//! predicted-vs-actual columns recorded in `BENCH_planner.json`.
//!
//! The recorded baseline lives in `BENCH_planner.json` at the repo root;
//! regenerate it with `cargo bench --bench planner` after touching the
//! retrieval layer.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use embed::Embedder;
use llm::SimLlm;
use semask::retrieval::RetrievalStrategy;
use semask::{prepare_city, SemaSkConfig};

fn bench_planner(c: &mut Criterion) {
    let data = datagen::poi::generate_city(&datagen::CITIES[3], 1790, 7);
    let llm = Arc::new(SimLlm::new());
    let prepared = prepare_city(&data, &llm, &SemaSkConfig::default()).expect("prep");
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
    let strategies = [
        RetrievalStrategy::ExactScan,
        RetrievalStrategy::FilteredHnsw,
        RetrievalStrategy::GridPrefilter,
        RetrievalStrategy::IrTree,
    ];

    let mut group = c.benchmark_group("planner");
    for (label, range) in &ranges {
        let frac = prepared.planner.estimator().estimate_fraction(range);
        let plan = prepared.planner.plan(range);
        println!(
            "range {label}: estimated selectivity {frac:.3}, planned choice {} \
             (runner-up {})",
            plan.chosen,
            plan.runner_up
                .map_or_else(|| "-".to_owned(), |r| r.strategy.to_string()),
        );
        for cost in &plan.costs {
            println!(
                "range {label}: predicted {} = {:.1} us{}",
                cost.strategy,
                cost.predicted_us,
                if cost.viable { "" } else { " (not viable)" },
            );
        }
        for strategy in strategies {
            group.bench_function(format!("{label}/{strategy}"), |b| {
                b.iter(|| {
                    black_box(
                        prepared
                            .planner
                            .retrieve_with(strategy, &qv, range, 10, None)
                            .expect("retrieval")
                            .hits,
                    )
                });
            });
        }
        group.bench_function(format!("{label}/planned"), |b| {
            b.iter(|| {
                black_box(
                    prepared
                        .planner
                        .retrieve_keyword(&qv, range, None, 10, None)
                        .expect("retrieval")
                        .hits,
                )
            });
        });
    }
    group.bench_function("plan_only/mid", |b| {
        b.iter(|| black_box(prepared.planner.plan(&ranges[1].1)));
    });
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
