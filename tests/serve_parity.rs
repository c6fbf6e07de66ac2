//! Serving-layer parity: queries submitted concurrently through
//! `ServeEngine` by many client threads receive **bit-identical**
//! ids, scores and reasons to the same queries answered one at a time
//! by `SemaSkEngine::query` — across batch caps {1, 16, 64} and the
//! SemaSK-EM and full (LLM-refined) variants.
//!
//! Micro-batch composition is scheduling-dependent (a batch is whatever
//! queued while the executor was busy), but the answers must not be: a
//! query's answer does not depend on its batch-mates
//! (`tests/batch_parity.rs`), so however the batcher slices the
//! traffic, every claim must come back exactly as the one-query
//! reference. Synchronization is claims only — no sleeps.

use std::sync::Arc;

use semask::{prepare_city, PreparedCity, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};
use semask_serve::api::{Request, ServeStatus};
use semask_serve::{ServeConfig, ServeEngine};

/// The mixed workload: generated per-city queries (distinct ranges)
/// plus batches of texts over two shared ranges, so flushes contain
/// both range-compatible groups and singletons.
fn workload(data: &datagen::CityData) -> Vec<SemaSkQuery> {
    let mut queries: Vec<SemaSkQuery> = datagen::queries::generate_queries(
        data,
        &datagen::queries::QueryGenConfig {
            per_city: 8,
            ..datagen::queries::QueryGenConfig::default()
        },
    )
    .into_iter()
    .map(|tq| SemaSkQuery::new(tq.range, tq.text))
    .collect();
    let center = data.city.center();
    let shared = [
        geotext::BoundingBox::from_center_km(center, 4.0, 4.0),
        geotext::BoundingBox::from_center_km(center, 9.0, 9.0),
    ];
    let texts = [
        "quiet coffee with pastries",
        "live music and craft beer",
        "late night ramen",
        "a bookstore to browse for an hour",
        "family friendly pizza",
        "rooftop cocktails at sunset",
    ];
    for range in &shared {
        for text in &texts {
            queries.push(SemaSkQuery::new(*range, *text));
        }
    }
    queries
}

/// One prepared city, with what an engine of either variant is built
/// from.
struct World {
    data: datagen::CityData,
    prepared: Arc<PreparedCity>,
    llm: Arc<llm::SimLlm>,
    config: SemaSkConfig,
}

impl World {
    fn engine(&self, variant: Variant) -> Arc<SemaSkEngine> {
        Arc::new(SemaSkEngine::new(
            Arc::clone(&self.prepared),
            Arc::clone(&self.llm),
            self.config.clone(),
            variant,
        ))
    }
}

fn world() -> World {
    let data = datagen::poi::generate_city(&datagen::CITIES[2], 320, 17);
    let llm = Arc::new(llm::SimLlm::new());
    // Plans are a function of the query alone, so the sequential
    // reference pass and the served pass route every query alike.
    let config = SemaSkConfig::default();
    let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prep"));
    World {
        data,
        prepared,
        llm,
        config,
    }
}

/// The bit-comparable signature of an outcome: POI ids, names, score
/// bits, recommendation flags and rendered reasons in order — the reason
/// is the re-rank's own words, so a refinement that differs shows.
type Signature = Vec<(u32, String, u32, bool, String)>;

fn signature(outcome: &semask::QueryOutcome) -> Signature {
    outcome
        .pois
        .iter()
        .map(|p| {
            (
                p.id.0,
                p.name.to_string(),
                p.embed_score.to_bits(),
                p.recommended,
                p.reason.to_string(),
            )
        })
        .collect()
}

#[test]
fn concurrent_serving_matches_sequential_queries() {
    let world = world();
    let queries = workload(&world.data);
    for variant in [Variant::EmbeddingOnly, Variant::Full] {
        let engine = world.engine(variant);
        let reference: Vec<Signature> = queries
            .iter()
            .map(|q| signature(&engine.query(q).expect("sequential query")))
            .collect();
        assert!(
            reference.iter().filter(|sig| !sig.is_empty()).count() > queries.len() / 2,
            "parity would be vacuous if most answers were empty"
        );
        if variant == Variant::Full {
            assert!(
                reference.iter().flatten().any(|poi| !poi.3),
                "the re-rank must demote something, or Full pins no more than EM"
            );
        }

        for max_batch in [1usize, 16, 64] {
            let serve = ServeEngine::new(
                Arc::clone(&engine),
                ServeConfig {
                    max_batch,
                    queue_capacity: queries.len().max(64),
                    result_cache_entries: 0,
                    negative_cache: false,
                },
            );

            // 4 client threads submit interleaved slices of the workload
            // concurrently and wait on their own claims.
            const CLIENTS: usize = 4;
            let served: Vec<(usize, Signature)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let serve = &serve;
                        let queries = &queries;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            for (i, q) in queries.iter().enumerate() {
                                if i % CLIENTS != c {
                                    continue;
                                }
                                let response = serve
                                    .submit_request(Request::new(i as u64, q.clone()))
                                    .wait();
                                assert_eq!(response.id, i as u64);
                                assert_eq!(response.status, ServeStatus::Ok);
                                let outcome = response.outcome.expect("served");
                                out.push((i, signature(&outcome)));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread"))
                    .collect()
            });

            assert_eq!(
                served.len(),
                queries.len(),
                "every submitted query answered \
                 (cap {max_batch}, {variant:?})"
            );
            for (i, sig) in &served {
                assert_eq!(
                    sig, &reference[*i],
                    "query {i} diverged from the sequential reference \
                     (cap {max_batch}, {variant:?})"
                );
            }
            serve.shutdown();
            let m = serve.metrics();
            assert_eq!(m.accepted, queries.len() as u64);
            assert_eq!(m.served, queries.len() as u64);
            assert_eq!(m.shed, 0);
            assert_eq!(m.failed, 0);
            assert!(m.max_batch <= max_batch as u64);
            // Planner observability flows through serving: plans carry
            // nonzero predictions, and actual filtering
            // time accumulates next to them.
            assert!(
                m.misprediction_ratio().is_some(),
                "served queries must accumulate predicted filtering cost"
            );
            assert!(!m.actual_filter.is_zero());
        }
    }
}
