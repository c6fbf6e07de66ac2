//! Metro-scale bench: the memory-efficiency tier measured at 100k POIs.
//!
//! Builds one synthetic metro (`datagen::generate_metro`, five paper
//! cities composed as districts, heavier tip corpora), prepares it with
//! the metro serving config — `ScoringTier::Auto` activates the
//! quantized-first tier above 32,768 points — and then measures three
//! things:
//!
//! 1. **Planned serving latency** per selectivity band (`narrow` /
//!    `mid` / `broad`), plus a one-shot pass proving all four forced
//!    strategies still serve at this scale.
//! 2. **The quantized-vs-full trade**, against a full-precision
//!    reference collection holding the *same* vectors and positions:
//!    `broad/exact-quantized` vs `broad/exact-full` whole-collection
//!    scans, recall@10 of the tiered scan against full-precision ground
//!    truth, and the component-by-component memory footprint.
//! 3. **The acceptance gates**, asserted in-process so CI fails loudly:
//!    quantized ≥ 1.5x queries/sec on the broad band, tiered resident
//!    bytes ≤ 0.5x the full layout, recall@10 ≥ 0.95.
//!
//! The recorded baseline lives in `BENCH_metro.json` at the repo root;
//! regenerate it with `cargo bench --bench metro` after touching the
//! quantized tier, the id column, the position column, or the metro
//! generator. `METRO_POIS=<n>` shrinks the world for local
//! iteration (the recorded numbers are at the default 100,000).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use embed::Embedder;
use llm::SimLlm;
use semask::retrieval::RetrievalStrategy;
use semask::{prepare_city, SemaSkConfig};
use vecdb::{Collection, CollectionConfig, HnswConfig, ScoringTier, SearchParams, SearchStrategy};

const QUERY_TEXTS: [&str; 16] = [
    "a quiet cafe with strong espresso and pastries",
    "craft beer and live music",
    "ramen with a long line",
    "late night tacos",
    "a bookstore with a reading corner",
    "rooftop cocktails at sunset",
    "family friendly pizza",
    "vegan brunch with outdoor seating",
    "an old school barber shop",
    "cheap dumplings near downtown",
    "a gym with morning yoga classes",
    "fresh seafood by the water",
    "a dive bar with pool tables",
    "pastel de nata and good coffee",
    "a florist open on sundays",
    "spicy fried chicken sandwiches",
];

/// Median wall-clock microseconds of `f` over `reps` runs (after one
/// warmup). The tier-ratio gates use this rather than the criterion
/// rows so the asserted speedup and the recorded rows come from the
/// same process but independent measurements.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn bench_metro(c: &mut Criterion) {
    let pois: usize = std::env::var("METRO_POIS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let t0 = Instant::now();
    let data = datagen::generate_metro(&datagen::MetroConfig::new(pois, 7));
    println!(
        "metro: generated {} POIs ({} districts) in {:.1}s",
        data.dataset.len(),
        datagen::CITIES.len(),
        t0.elapsed().as_secs_f64()
    );

    // The metro serving config: the Auto tier activates quantized-first
    // scoring at this scale.
    let llm = Arc::new(SimLlm::new());
    let config = SemaSkConfig::default();
    let t1 = Instant::now();
    let prepared = prepare_city(&data, &llm, &config).expect("prep");
    println!(
        "metro: prepared (geocode + summarize + embed + index) in {:.1}s",
        t1.elapsed().as_secs_f64()
    );
    // The embedder's own memory, outside every collection footprint.
    println!(
        "metro: embedder key-vector memo {} rows, {:.2} MiB",
        prepared.embedder.memo_rows(),
        prepared.embedder.memo_bytes() as f64 / f64::from(1 << 20)
    );
    let handle = prepared
        .db
        .collection(&prepared.collection_name)
        .expect("collection");

    // Full-precision reference: the same points and positions under the
    // pre-tier layout (f32 scoring store). Only its exact paths are
    // exercised, so the HNSW build is dialed down to construction-cost
    // minimum.
    let t2 = Instant::now();
    let mut full = Collection::new(CollectionConfig {
        scoring_tier: ScoringTier::Full,
        hnsw: HnswConfig {
            m: 4,
            m0: 8,
            ef_construction: 16,
            ..HnswConfig::default()
        },
        ..CollectionConfig::new(prepared.embedder.dim())
    });
    {
        let guard = handle.read();
        for (id, vector, position) in guard.iter_points() {
            full.insert(id, vector.to_vec(), position).expect("insert");
        }
    }
    println!(
        "metro: full-precision reference layout built in {:.1}s",
        t2.elapsed().as_secs_f64()
    );

    // --- Memory footprint: the 0.5x resident gate + the README table.
    let fp_tier = handle.read().memory_footprint();
    let fp_full = full.memory_footprint();
    let per = |b: usize, fp: &vecdb::MemoryFootprint| b / fp.points.max(1);
    println!("metro: bytes per POI            tiered      full");
    println!(
        "metro:   vectors (f32 rerank)  {:>8}  {:>8}",
        per(fp_tier.vector_bytes, &fp_tier),
        per(fp_full.vector_bytes, &fp_full)
    );
    println!(
        "metro:   quantized codes       {:>8}  {:>8}",
        per(fp_tier.quant_bytes, &fp_tier),
        per(fp_full.quant_bytes, &fp_full)
    );
    println!(
        "metro:   id index              {:>8}  {:>8}",
        per(fp_tier.id_index_bytes, &fp_tier),
        per(fp_full.id_index_bytes, &fp_full)
    );
    println!(
        "metro:   positions             {:>8}  {:>8}",
        per(fp_tier.payload_bytes, &fp_tier),
        per(fp_full.payload_bytes, &fp_full)
    );
    println!(
        "metro:   resident              {:>8}  {:>8}",
        fp_tier.resident_bytes_per_point(),
        fp_full.resident_bytes_per_point()
    );
    println!(
        "metro:   total (incl. rerank)  {:>8}  {:>8}",
        per(fp_tier.total_bytes(), &fp_tier),
        per(fp_full.total_bytes(), &fp_full)
    );
    assert!(
        fp_tier.quant_bytes > 0,
        "Auto tier must be active at {pois} points"
    );
    let resident_ratio = fp_tier.resident_bytes() as f64 / fp_full.resident_bytes() as f64;
    println!("metro: resident ratio tiered/full = {resident_ratio:.3} (gate <= 0.5)");
    assert!(
        resident_ratio <= 0.5,
        "memory gate: tiered resident bytes {} > 0.5x full layout {}",
        fp_tier.resident_bytes(),
        fp_full.resident_bytes()
    );

    // --- Recall@10 of the tiered whole-collection scan against
    // full-precision ground truth, over all 16 bench queries.
    let queries: Vec<Vec<f32>> = QUERY_TEXTS
        .iter()
        .map(|t| prepared.embedder.embed(t))
        .collect();
    let k = 10;
    let params = SearchParams::top_k(k).with_strategy(SearchStrategy::Exact);
    let mut hits = 0usize;
    {
        let guard = handle.read();
        for q in &queries {
            let truth = full.search(q, &params).expect("full search");
            let got = guard.search(q, &params).expect("tiered search");
            hits += got
                .iter()
                .filter(|h| truth.iter().any(|t| t.id == h.id))
                .count();
        }
    }
    let recall = hits as f64 / (queries.len() * k) as f64;
    println!("metro: recall@{k} tiered vs full-precision = {recall:.3} (gate >= 0.95)");
    assert!(recall >= 0.95, "recall gate: {recall:.3} < 0.95");

    // --- The 1.5x throughput gate: whole-collection exact scans, same
    // vectors, quantized-first vs full-precision. Median of 9 so one
    // scheduler hiccup cannot flip the gate.
    let qv = &queries[3];
    let full_us = median_us(9, || {
        black_box(full.search(qv, &params).expect("full scan"));
    });
    let tier_us = {
        let guard = handle.read();
        median_us(9, || {
            black_box(guard.search(qv, &params).expect("tiered scan"));
        })
    };
    let speedup = full_us / tier_us;
    println!(
        "metro: broad exact scan: full {full_us:.0} us, quantized {tier_us:.0} us, \
         speedup {speedup:.2}x (gate >= 1.5)"
    );
    assert!(
        speedup >= 1.5,
        "throughput gate: quantized scan only {speedup:.2}x over full precision"
    );

    // --- All four forced strategies still serve at metro scale.
    let center = prepared.city.center();
    let mid = geotext::BoundingBox::from_center_km(center, 10.0, 10.0);
    for strategy in [
        RetrievalStrategy::ExactScan,
        RetrievalStrategy::FilteredHnsw,
        RetrievalStrategy::GridPrefilter,
        RetrievalStrategy::IrTree,
    ] {
        let t = Instant::now();
        let r = prepared
            .planner
            .retrieve_with(strategy, qv, &mid, k, None)
            .expect("forced strategy");
        println!(
            "metro: mid band via {strategy}: {} hits in {:.1} ms",
            r.hits.len(),
            t.elapsed().as_secs_f64() * 1e3
        );
        assert_eq!(
            r.hits.len(),
            k,
            "{strategy} must fill top-{k} at metro scale"
        );
    }

    // --- Criterion rows (the check_regression gate reads these).
    let bounds = prepared.dataset.bounds().expect("non-empty metro");
    let bands = [
        (
            "narrow",
            geotext::BoundingBox::from_center_km(center, 2.0, 2.0),
        ),
        ("mid", mid),
        ("broad", bounds),
    ];
    let mut group = c.benchmark_group("metro");
    for (label, range) in &bands {
        group.bench_function(format!("{label}/planned"), |b| {
            b.iter(|| {
                black_box(
                    prepared
                        .planner
                        .retrieve_keyword(qv, range, None, k, None)
                        .expect("retrieval")
                        .hits,
                )
            });
        });
    }
    group.bench_function("broad/exact-quantized", |b| {
        let guard = handle.read();
        b.iter(|| black_box(guard.search(qv, &params).expect("tiered scan")));
    });
    group.bench_function("broad/exact-full", |b| {
        b.iter(|| black_box(full.search(qv, &params).expect("full scan")));
    });
    group.finish();
}

criterion_group!(benches, bench_metro);
criterion_main!(benches);
