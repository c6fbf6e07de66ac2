//! Shard-merge correctness: a planner fanning out over {1, 2, 4, 8}
//! hash partitions must return *identical* ids and scores to the
//! unsharded backend for every deterministic strategy, the planned
//! path included — sharding is an execution detail, not a semantics
//! change — and at every shard count the per-slice answers a shard
//! server would ship merge to exactly what the planner answers in
//! process. Duplicate-distance ties are exercised explicitly with
//! deliberately duplicated vectors.

mod common;

use std::sync::Arc;

use semask::retrieval::RetrievalStrategy;
use semask::sharded::CandidateSource;
use semask::{prepare_city, PlannerConfig, QueryPlanner, RetrievalBackend, SemaSkConfig};
use vecdb::{merge_top_k, Collection, CollectionConfig, Payload, ScoredPoint};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn prepared() -> semask::PreparedCity {
    let data = datagen::poi::generate_city(&datagen::CITIES[1], 300, 55);
    let llm = llm::SimLlm::new();
    prepare_city(&data, &llm, &SemaSkConfig::default()).expect("prep")
}

/// Planners over the same dataset + collection at each shard count.
/// Given coefficients pin the routing: each planner would otherwise
/// calibrate its cost model independently, and this suite asserts that
/// *identically planned* queries merge identically across shard counts.
fn planners(p: &semask::PreparedCity) -> Vec<QueryPlanner> {
    let collection = p.db.collection(&p.collection_name).expect("collection");
    SHARD_COUNTS
        .iter()
        .map(|&shards| {
            QueryPlanner::for_city(
                Arc::clone(&p.dataset),
                Arc::clone(&collection),
                PlannerConfig {
                    shards,
                    cost_model: common::prefilter_only(),
                    ..PlannerConfig::default()
                },
            )
        })
        .collect()
}

fn ids_and_scores(hits: &[ScoredPoint]) -> Vec<(u64, f32)> {
    hits.iter().map(|h| (h.id, h.score)).collect()
}

fn ids_and_score_bits(hits: &[ScoredPoint]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

/// The slice contract: merging what every shard of `planner` answers for
/// its own slice reproduces `in_process`, the same planner's fan-out.
fn assert_slices_merge_to(
    planner: &QueryPlanner,
    strategy: RetrievalStrategy,
    qv: &[f32],
    range: &geotext::BoundingBox,
    in_process: &[ScoredPoint],
) {
    let slices: Vec<Vec<ScoredPoint>> = (0..planner.shard_count())
        .map(|i| {
            planner
                .execute_shard_slice(strategy, qv, range, 10, None, i)
                .expect("shard slice")
        })
        .collect();
    assert_eq!(
        ids_and_score_bits(&merge_top_k(&slices, 10).0),
        ids_and_score_bits(in_process),
        "strategy {strategy}, {} slices",
        slices.len()
    );
}

#[test]
fn sharded_topk_matches_unsharded_for_deterministic_strategies() {
    let p = prepared();
    let sharded_planners = planners(&p);
    let qv = embed::Embedder::embed(&p.embedder, "craft beer and live music");
    let ranges = [
        geotext::BoundingBox::from_center_km(p.city.center(), 2.0, 2.0),
        geotext::BoundingBox::from_center_km(p.city.center(), 8.0, 8.0),
        p.dataset.bounds().expect("non-empty dataset"),
    ];
    for strategy in [
        RetrievalStrategy::ExactScan,
        RetrievalStrategy::GridPrefilter,
        RetrievalStrategy::IrTree,
    ] {
        for range in &ranges {
            let reference = p
                .planner
                .retrieve_with(strategy, &qv, range, 10, None)
                .expect("unsharded retrieval");
            assert!(!reference.hits.is_empty());
            for (planner, &shards) in sharded_planners.iter().zip(&SHARD_COUNTS) {
                let got = planner
                    .retrieve_with(strategy, &qv, range, 10, None)
                    .expect("sharded retrieval");
                assert_eq!(
                    ids_and_scores(&got.hits),
                    ids_and_scores(&reference.hits),
                    "strategy {strategy}, {shards} shards"
                );
                let expected_counts = if shards > 1 { shards } else { 0 };
                assert_eq!(got.shard_candidates.len(), expected_counts);
                assert_slices_merge_to(planner, strategy, &qv, range, &got.hits);
            }
        }
    }
    // HNSW is approximate, so its answer is not shard-count invariant —
    // but each planner's slices still merge to that planner's answer.
    for range in &ranges {
        for planner in &sharded_planners {
            let strategy = RetrievalStrategy::FilteredHnsw;
            let got = planner
                .retrieve_with(strategy, &qv, range, 10, None)
                .expect("sharded retrieval");
            assert_slices_merge_to(planner, strategy, &qv, range, &got.hits);
        }
    }
}

#[test]
fn planned_path_matches_across_shard_counts() {
    let p = prepared();
    let sharded_planners = planners(&p);
    let qv = embed::Embedder::embed(&p.embedder, "quiet spot to read with good tea");
    // A mid-selectivity range: the pinned coefficients route it to the
    // (exact scoring) IR-tree prefilter, so the planned answer must be
    // shard-count invariant too. The reference is the 1-shard planner
    // from the same pinned set.
    let range = geotext::BoundingBox::from_center_km(p.city.center(), 6.0, 6.0);
    let reference = sharded_planners[0]
        .retrieve_keyword(&qv, &range, None, 10, None)
        .expect("planned");
    assert_eq!(reference.strategy, RetrievalStrategy::IrTree);
    for (planner, &shards) in sharded_planners.iter().zip(&SHARD_COUNTS) {
        let got = planner
            .retrieve_keyword(&qv, &range, None, 10, None)
            .expect("planned");
        assert_eq!(got.strategy, reference.strategy, "{shards} shards");
        assert_eq!(
            ids_and_scores(&got.hits),
            ids_and_scores(&reference.hits),
            "{shards} shards"
        );
    }
}

#[test]
fn duplicate_distance_ties_merge_identically() {
    // Eight points sharing one vector (all tied) plus two distinct ones:
    // the sharded merge must reproduce the flat collection's tie order
    // (ascending id) at every shard count, through the one backend.
    let mut flat = Collection::new(CollectionConfig::new(2));
    for id in 0..8u64 {
        let payload = Payload::from_pairs(&[
            ("lat", serde_json::json!(0.001 * id as f64)),
            ("lon", serde_json::json!(-0.001 * id as f64)),
        ]);
        flat.insert(id, vec![1.0, 0.0], payload).unwrap();
    }
    for id in 8..10u64 {
        let payload = Payload::from_pairs(&[
            ("lat", serde_json::json!(0.001 * id as f64)),
            ("lon", serde_json::json!(-0.001 * id as f64)),
        ]);
        flat.insert(id, vec![0.0, 1.0], payload).unwrap();
    }
    let range = geotext::BoundingBox::new(-1.0, -1.0, 1.0, 1.0).unwrap();
    let query = [1.0, 0.0];
    let exact_over = |slices| {
        RetrievalBackend::new(CandidateSource::ExactScan, slices, Arc::default())
            .knn_in_range(&[&query], &range, 5, None)
            .unwrap()
            .into_only_hits()
    };
    let flat_handle = Arc::new(parking_lot::RwLock::new(flat));
    let reference = exact_over(vec![Arc::clone(&flat_handle)]);
    assert_eq!(
        reference.iter().map(|h| h.id).collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4],
        "flat exact scan breaks ties by insertion (= id) order"
    );
    for shards in SHARD_COUNTS {
        let got = exact_over(vecdb::partition(&flat_handle.read(), shards).unwrap());
        assert_eq!(
            ids_and_scores(&got),
            ids_and_scores(&reference),
            "{shards} shards"
        );
    }
}
