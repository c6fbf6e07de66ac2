//! Shard-merge correctness: for N ∈ {1, 2, 4, 8}, the slices
//! `vecdb::partition` cuts for each `ShardSpec`, one planner each — what
//! the shard nodes of `semask-net` hold — must merge to *identical* ids
//! and scores as the unsharded planner for every exact strategy, the
//! router's path (plan on the whole collection, execute the chosen
//! strategy on every slice, merge) included. Sharding is an execution
//! detail, not a semantics change. Duplicate-distance ties are
//! exercised explicitly with deliberately duplicated vectors.

mod common;

use std::sync::Arc;

use semask::backend::CandidateSource;
use semask::retrieval::RetrievalStrategy;
use semask::{prepare_city, PlannerConfig, QueryPlanner, RetrievalBackend, SemaSkConfig};
use vecdb::{merge_top_k, partition, Collection, CollectionConfig, ScoredPoint, ShardSpec};

const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn prepared() -> semask::PreparedCity {
    let data = datagen::poi::generate_city(&datagen::CITIES[1], 300, 55);
    let llm = llm::SimLlm::new();
    prepare_city(&data, &llm, &SemaSkConfig::default()).expect("prep")
}

/// Every spec of an `n`-way split, in shard order.
fn specs(n: u32) -> impl Iterator<Item = ShardSpec> {
    (0..n).map(move |shard| ShardSpec::new(n, shard).expect("valid spec"))
}

/// One planner per slice of an `n`-way split, over the whole dataset as
/// a shard node builds it, on coefficients that price the exact scan and
/// the graph out of reach.
fn slice_planners(p: &semask::PreparedCity, n: u32) -> Vec<QueryPlanner> {
    let collection = p.db.collection(&p.collection_name).expect("collection");
    specs(n)
        .map(|spec| {
            let slice = partition(&collection.read(), spec).expect("partition");
            QueryPlanner::for_city(
                Arc::clone(&p.dataset),
                Arc::new(parking_lot::RwLock::new(slice)),
                PlannerConfig {
                    coefficients: common::prefilter_only(),
                },
            )
        })
        .collect()
}

/// What the router does with a shipped strategy: every slice answers,
/// the answers merge.
fn merged(
    slices: &[QueryPlanner],
    strategy: RetrievalStrategy,
    qv: &[f32],
    range: &geotext::BoundingBox,
) -> Vec<ScoredPoint> {
    let per_slice: Vec<Vec<ScoredPoint>> = slices
        .iter()
        .map(|s| {
            s.backend(strategy)
                .knn_in_range(&[qv], range, 10, None)
                .expect("slice answer")
                .remove(0)
        })
        .collect();
    merge_top_k(&per_slice, 10).0
}

fn ids_and_score_bits(hits: &[ScoredPoint]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

#[test]
fn sharded_topk_matches_unsharded_for_deterministic_strategies() {
    let p = prepared();
    let qv = embed::Embedder::embed(&p.embedder, "craft beer and live music");
    let ranges = [
        geotext::BoundingBox::from_center_km(p.city.center(), 2.0, 2.0),
        geotext::BoundingBox::from_center_km(p.city.center(), 8.0, 8.0),
        p.dataset.bounds().expect("non-empty dataset"),
    ];
    for n in SHARD_COUNTS {
        let slices = slice_planners(&p, n);
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
                assert_eq!(
                    ids_and_score_bits(&merged(&slices, strategy, &qv, range)),
                    ids_and_score_bits(&reference.hits),
                    "strategy {strategy}, {n} shards"
                );
            }
        }
    }
}

#[test]
fn planned_path_matches_across_shard_counts() {
    let p = prepared();
    let collection = p.db.collection(&p.collection_name).expect("collection");
    let planner = QueryPlanner::for_city(
        Arc::clone(&p.dataset),
        collection,
        PlannerConfig {
            coefficients: common::prefilter_only(),
        },
    );
    let qv = embed::Embedder::embed(&p.embedder, "quiet spot to read with good tea");
    // A mid-selectivity range: the pinned coefficients route it to the
    // (exact scoring) grid prefilter, so the router's path — plan on
    // the whole collection, ship the strategy, merge the slices — must
    // answer what the planner answers in process.
    let range = geotext::BoundingBox::from_center_km(p.city.center(), 6.0, 6.0);
    let reference = planner
        .retrieve_keyword(&qv, &range, None, 10, None)
        .expect("planned");
    assert_eq!(reference.strategy, RetrievalStrategy::GridPrefilter);
    let strategy = planner.plan_query(&range, None, 10, None).chosen;
    assert_eq!(strategy, reference.strategy);
    for n in SHARD_COUNTS {
        assert_eq!(
            ids_and_score_bits(&merged(&slice_planners(&p, n), strategy, &qv, &range)),
            ids_and_score_bits(&reference.hits),
            "{n} shards"
        );
    }
}

#[test]
fn duplicate_distance_ties_merge_identically() {
    // Eight points sharing one vector (all tied) plus two distinct ones:
    // the merge over slices must reproduce the flat collection's tie
    // order (ascending id) at every shard count, through the one backend.
    let mut flat = Collection::new(CollectionConfig::new(2));
    for id in 0..10u64 {
        let position = (0.001 * id as f64, -0.001 * id as f64);
        let vector = if id < 8 {
            vec![1.0, 0.0]
        } else {
            vec![0.0, 1.0]
        };
        flat.insert(id, vector, position).unwrap();
    }
    let range = geotext::BoundingBox::new(-1.0, -1.0, 1.0, 1.0).unwrap();
    let query = [1.0, 0.0];
    let exact_over = |collection| {
        RetrievalBackend::new(
            CandidateSource::ExactScan,
            Arc::new(parking_lot::RwLock::new(collection)),
            Arc::default(),
        )
        .knn_in_range(&[&query], &range, 5, None)
        .unwrap()
        .remove(0)
    };
    let merges: Vec<Vec<ScoredPoint>> = SHARD_COUNTS
        .iter()
        .map(|&n| {
            let per_slice: Vec<Vec<ScoredPoint>> = specs(n)
                .map(|spec| exact_over(partition(&flat, spec).unwrap()))
                .collect();
            merge_top_k(&per_slice, 5).0
        })
        .collect();
    let reference = exact_over(flat);
    assert_eq!(
        reference.iter().map(|h| h.id).collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4],
        "flat exact scan breaks ties by insertion (= id) order"
    );
    for (n, got) in SHARD_COUNTS.iter().zip(&merges) {
        assert_eq!(
            ids_and_score_bits(got),
            ids_and_score_bits(&reference),
            "{n} shards"
        );
    }
}
