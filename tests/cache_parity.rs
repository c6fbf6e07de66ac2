//! The caching subsystem's correctness battery: a cached serving stack
//! must be **bit-identical** to a cache-free one under arbitrary
//! interleavings of queries and live mutations.
//!
//! Two layers, two proofs:
//!
//! 1. **Serve-layer result + negative cache** — one engine, two
//!    [`ServeEngine`]s over it (caches on vs off). A proptest drives
//!    interleaved query/insert/update/delete sequences; after *every*
//!    op both stacks answer the same probe query and the answers must
//!    match bit-for-bit. Mutations publish through the engine directly
//!    (the external-writer scenario), so every probe after a publish is
//!    a stale-read detector: the cached stack may never replay a
//!    pre-mutation answer the plain stack no longer gives.
//! 2. **Plans are a function of the data** — twin engines built
//!    separately over identical data with the same given coefficients.
//!    Interleaved plan/mutation sequences must produce equal
//!    [`PlanDecision`]s (whole cost table) at every step. Nothing is
//!    cached in front of a plan, so this is what makes every cached
//!    *answer* above reproducible.
//!
//! [`PlanDecision`]: semask::PlanDecision

mod common;

use std::sync::{Arc, Mutex, OnceLock};

use datagen::{poi::generate_city, CITIES};
use geotext::{BoundingBox, GeoPoint, ObjectId};
use llm::SimLlm;
use proptest::prelude::*;
use semask::wal::{Mutation, PoiSpec, PoiUpdate};
use semask::{
    prepare_city, QueryOutcome, RetrievalStrategy, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant,
};
use semask_serve::api::{Request, ServeStatus};
use semask_serve::{ServeConfig, ServeEngine};

const TEXTS: &[&str] = &[
    "quiet coffee with pastries",
    "live music and cold beer",
    "family lunch near the pier",
    "late night snack run",
];

/// Keyword pool: nothing, a term seeded into the corpus at harness
/// build, a term no op ever inserts (permanently provably empty), and a
/// term that mid-sequence inserts make corpus-known — flipping its
/// queries off the negative-cache path while older sequences relied on
/// it, exactly the transition that must stay parity-clean.
const KEYWORDS: &[Option<&str>] = &[
    None,
    Some("landmark"),
    Some("qqzyxneverseen"),
    Some("glimmerhall"),
];

const RANGE_KM: &[f64] = &[1.0, 2.0, 5.0, 8.0];

/// Layers 1 and 2 build with `common::exact_only_config()`: answers and
/// plans are then a deterministic function of the corpus, independent of
/// which engine instance computed them.
fn build_engine(config: SemaSkConfig) -> (Arc<SemaSkEngine>, GeoPoint) {
    let data = generate_city(&CITIES[3], 40, 47);
    let center = data.city.center();
    let llm = Arc::new(SimLlm::new());
    let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prep"));
    (
        Arc::new(SemaSkEngine::new(
            prepared,
            llm,
            config,
            Variant::EmbeddingOnly,
        )),
        center,
    )
}

fn poi_spec(center: GeoPoint, n: u32, glimmer: bool) -> PoiSpec {
    PoiSpec {
        name: format!("Parity Rotation {n}"),
        lat: center.lat + 0.001 + f64::from(n % 7) * 0.0002,
        lon: center.lon + 0.001,
        categories: vec!["landmark".to_owned()],
        tips: if glimmer {
            vec!["the glimmerhall sessions are legendary".to_owned()]
        } else {
            vec!["a quiet landmark worth the detour".to_owned()]
        },
    }
}

/// The outcome bits that must match: POIs in order, scores as raw IEEE
/// bits. Latency fields are measurements, not answers — a cached reply
/// legitimately replays the original execution's timings.
fn signature(outcome: &QueryOutcome) -> Vec<(u32, String, u32, bool, String)> {
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

fn probe(center: GeoPoint, t: u8, r: u8, kw: u8) -> SemaSkQuery {
    let km = RANGE_KM[r as usize % RANGE_KM.len()];
    let range = BoundingBox::from_center_km(center, km, km);
    let mut query = SemaSkQuery::new(range, TEXTS[t as usize % TEXTS.len()]);
    if let Some(kw) = KEYWORDS[kw as usize % KEYWORDS.len()] {
        query = query.with_keywords(kw);
    }
    query
}

// ---------------------------------------------------------------------
// Layer 1: serve-layer result + negative cache vs a cache-free twin.
// ---------------------------------------------------------------------

struct ServeHarness {
    engine: Arc<SemaSkEngine>,
    cached: ServeEngine,
    plain: ServeEngine,
    center: GeoPoint,
    /// Live rotation POIs (shared across proptest cases; each case
    /// deletes what it inserted, so the set stays small).
    live: Mutex<Vec<ObjectId>>,
    counter: Mutex<u32>,
}

fn serve_harness() -> &'static ServeHarness {
    static HARNESS: OnceLock<ServeHarness> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let (engine, center) = build_engine(common::exact_only_config());
        // Seed one permanent landmark so the "landmark" keyword is
        // corpus-known from the start.
        engine
            .apply_mutations(&[Mutation::Insert(poi_spec(center, 0, false))])
            .expect("seed insert");
        let base = ServeConfig {
            max_batch: 1,
            queue_capacity: 64,
            result_cache_entries: 0,
            negative_cache: false,
        };
        let cached = ServeEngine::new(
            Arc::clone(&engine),
            ServeConfig {
                result_cache_entries: 256,
                negative_cache: true,
                ..base
            },
        );
        let plain = ServeEngine::new(Arc::clone(&engine), base);
        ServeHarness {
            engine,
            cached,
            plain,
            center,
            live: Mutex::new(Vec::new()),
            counter: Mutex::new(1),
        }
    })
}

fn ask(serve: &ServeEngine, query: SemaSkQuery) -> Vec<(u32, String, u32, bool, String)> {
    let response = serve.submit_request(Request::new(0, query)).wait();
    assert_eq!(response.status, ServeStatus::Ok);
    signature(&response.outcome.expect("query outcome"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_serving_is_bit_identical_under_interleaved_mutations(
        ops in prop::collection::vec((0u8..10, 0u8..4, 0u8..4, 0u8..4), 1..10),
    ) {
        let h = serve_harness();
        let mut case_live: Vec<ObjectId> = Vec::new();
        for (kind, t, r, kw) in ops {
            // Mutation ops first mutate, then fall through to the probe
            // below — which doubles as the publish-then-query stale-read
            // detector: the shape probed here was often cached by an
            // earlier step of this case, and after the publish the
            // cached stack must not replay it.
            match kind {
                6 | 7 => {
                    let n = {
                        let mut c = h.counter.lock().unwrap();
                        *c += 1;
                        *c
                    };
                    let batch = h
                        .engine
                        .apply_mutations(&[Mutation::Insert(poi_spec(h.center, n, kind == 7))])
                        .expect("insert");
                    case_live.push(batch.inserted[0]);
                }
                8 => {
                    if let Some(id) = case_live.last() {
                        h.engine
                            .apply_mutations(&[Mutation::Update {
                                id: id.0,
                                update: PoiUpdate {
                                    name: None,
                                    tips: Some(vec!["rewritten by the battery".to_owned()]),
                                },
                            }])
                            .expect("update");
                    }
                }
                9 => {
                    if let Some(id) = case_live.pop() {
                        h.engine
                            .apply_mutations(&[Mutation::Delete { id: id.0 }])
                            .expect("delete");
                    }
                }
                _ => {}
            }
            let query = probe(h.center, t, r, kw);
            let fresh = ask(&h.plain, query.clone());
            let cached = ask(&h.cached, query);
            prop_assert_eq!(
                &cached, &fresh,
                "cached stack diverged after op kind {} (epoch {})",
                kind, h.engine.mutation_epoch()
            );
        }
        // Keep the shared corpus bounded across cases.
        for id in case_live {
            h.engine
                .apply_mutations(&[Mutation::Delete { id: id.0 }])
                .expect("cleanup delete");
        }
        h.live.lock().unwrap().clear();
    }
}

#[test]
fn publish_invalidates_a_hot_cached_answer() {
    // The deterministic stale-read probe: cache a shape, verify it's
    // served from cache, publish a mutation that changes its answer,
    // and require the post-publish reply to reflect the mutation. Uses
    // a private engine (not the shared harness) so the proptest's
    // concurrent mutations can't invalidate the entry between asks.
    let (engine, center) = build_engine(common::exact_only_config());
    engine
        .apply_mutations(&[Mutation::Insert(poi_spec(center, 0, false))])
        .expect("seed insert");
    let base = ServeConfig {
        max_batch: 1,
        queue_capacity: 64,
        result_cache_entries: 0,
        negative_cache: false,
    };
    let cached = ServeEngine::new(
        Arc::clone(&engine),
        ServeConfig {
            result_cache_entries: 256,
            negative_cache: true,
            ..base
        },
    );
    let plain = ServeEngine::new(Arc::clone(&engine), base);
    let query = || probe(center, 0, 3, 1); // "landmark" keyword, widest range
    let first = ask(&cached, query());
    let replay = ask(&cached, query());
    assert_eq!(first, replay);
    assert_eq!(
        cached.metrics().cache_hits,
        1,
        "second ask of an identical shape must be a cache hit"
    );
    engine
        .apply_mutations(&[Mutation::Insert(poi_spec(center, 1, false))])
        .expect("publish insert");
    let after = ask(&cached, query());
    let fresh = ask(&plain, query());
    assert_eq!(after, fresh, "post-publish cached reply must be fresh");
    assert!(
        after
            .iter()
            .any(|(_, name, ..)| name == "Parity Rotation 1"),
        "the published POI must be visible immediately through the cached stack"
    );
    assert_eq!(cached.metrics().cache_stale_evictions, 1);
}

// ---------------------------------------------------------------------
// Layer 2: twin planners on the same given coefficients plan equally.
// ---------------------------------------------------------------------

struct Twins {
    a: Arc<SemaSkEngine>,
    b: Arc<SemaSkEngine>,
    center: GeoPoint,
    counter: Mutex<u32>,
}

fn twins() -> &'static Twins {
    static TWINS: OnceLock<Twins> = OnceLock::new();
    TWINS.get_or_init(|| {
        let (a, center) = build_engine(common::exact_only_config());
        let (b, _) = build_engine(common::exact_only_config());
        Twins {
            a,
            b,
            center,
            counter: Mutex::new(0),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn twin_engines_plan_identically_at_every_step(
        ops in prop::collection::vec((0u8..8, 0u8..4, 0u8..4, 1u8..16), 1..12),
    ) {
        let t = twins();
        let planner_a = &t.a.prepared().planner;
        let planner_b = &t.b.prepared().planner;
        let mut case_live: Vec<ObjectId> = Vec::new();
        for (kind, r, kw, k) in ops {
            if kind >= 6 {
                // Identical mutations on both twins: features (live
                // fraction, keyword stats) move in lockstep.
                let n = {
                    let mut c = t.counter.lock().unwrap();
                    *c += 1;
                    *c
                };
                if kind == 7 && !case_live.is_empty() {
                    let id = case_live.pop().expect("nonempty");
                    for engine in [&t.a, &t.b] {
                        engine
                            .apply_mutations(&[Mutation::Delete { id: id.0 }])
                            .expect("twin delete");
                    }
                } else {
                    let spec = poi_spec(t.center, n, false);
                    let a = t.a.apply_mutations(&[Mutation::Insert(spec.clone())]).expect("a");
                    let b = t.b.apply_mutations(&[Mutation::Insert(spec)]).expect("b");
                    prop_assert_eq!(a.inserted[0], b.inserted[0], "twin id allocation diverged");
                    case_live.push(a.inserted[0]);
                }
            }
            let km = RANGE_KM[r as usize % RANGE_KM.len()];
            let range = BoundingBox::from_center_km(t.center, km, km);
            let keywords = KEYWORDS[kw as usize % KEYWORDS.len()];
            let da = planner_a.plan_query(&range, keywords, k as usize, None);
            let db = planner_b.plan_query(&range, keywords, k as usize, None);
            prop_assert_eq!(&da, &db, "separately built planners diverged");
            // The route every cached answer of layer 1 was computed on.
            prop_assert_eq!(da.chosen, RetrievalStrategy::ExactScan);
        }
        for id in case_live {
            for engine in [&t.a, &t.b] {
                engine
                    .apply_mutations(&[Mutation::Delete { id: id.0 }])
                    .expect("twin cleanup");
            }
        }
    }
}
