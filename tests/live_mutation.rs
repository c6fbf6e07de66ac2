//! Live-mutation coherence under concurrent queries.
//!
//! A writer thread rotates a distinctive POI through atomic
//! `[Insert(next), Delete(prev)]` swap batches while reader threads
//! hammer the query path. Batch atomicity means every query observes
//! **exactly one** rotation POI — never zero (delete published before
//! insert) and never two (insert published before delete) — and the
//! mutation epoch is monotone from any reader's viewpoint.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use datagen::{poi::generate_city, CITIES};
use embed::Embedder;
use geotext::BoundingBox;
use llm::SimLlm;
use semask::wal::{Mutation, PoiSpec, PoiUpdate};
use semask::{prepare_city, RetrievalStrategy, SemaSkEngine, SemaSkQuery, Variant};

const ROTATIONS: u32 = 24;

fn engine() -> (SemaSkEngine, datagen::CityData) {
    let data = generate_city(&CITIES[3], 80, 47);
    let llm = Arc::new(SimLlm::new());
    let config = common::exact_only_config();
    let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prep"));
    (
        SemaSkEngine::new(prepared, llm, config, Variant::EmbeddingOnly),
        data,
    )
}

fn rotation_spec(center: geotext::GeoPoint, n: u32) -> PoiSpec {
    PoiSpec {
        name: format!("Phoenix Rotation {n}"),
        lat: center.lat + 0.001,
        lon: center.lon + 0.001,
        categories: vec!["landmark".to_owned()],
        tips: vec!["the phoenix rotation rises again".to_owned()],
    }
}

#[test]
fn swap_batches_are_atomic_under_concurrent_queries() {
    let (engine, data) = engine();
    let engine = Arc::new(engine);
    let center = data.city.center();
    let range = BoundingBox::from_center_km(center, 5.0, 5.0);
    let query = SemaSkQuery::new(range, "phoenix rotation landmark");

    // Seed rotation 0 and prove the probe query ranks it before
    // going concurrent — a ranking miss should fail loudly here, not
    // flake in a reader thread.
    let seeded = engine
        .apply_mutations(&[Mutation::Insert(rotation_spec(center, 0))])
        .expect("seed insert");
    let mut prev = seeded.inserted[0];
    let visible = |out: &semask::QueryOutcome| {
        out.pois
            .iter()
            .filter(|p| p.name.starts_with("Phoenix Rotation"))
            .count()
    };
    let probe = engine.query(&query).expect("probe");
    assert_eq!(visible(&probe), 1);
    // The exact scan reads the live collection directly — the route the
    // exactly-one-rotation count below is stated for.
    assert_eq!(
        probe.latency.filter_strategy,
        Some(RetrievalStrategy::ExactScan)
    );

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut last_epoch = 0;
                while !done.load(Ordering::Acquire) {
                    let out = engine.query(&query).expect("reader query");
                    assert_eq!(visible(&out), 1, "swap batch published non-atomically");
                    let epoch = engine.mutation_epoch();
                    assert!(epoch >= last_epoch, "mutation epoch went backwards");
                    last_epoch = epoch;
                }
            });
        }
        for n in 1..=ROTATIONS {
            let batch = engine
                .apply_mutations(&[
                    Mutation::Insert(rotation_spec(center, n)),
                    Mutation::Delete { id: prev.0 },
                ])
                .expect("swap batch");
            prev = batch.inserted[0];
        }
        done.store(true, Ordering::Release);
    });

    // Exactly the last rotation survives.
    let out = engine.query(&query).expect("final query");
    assert_eq!(visible(&out), 1);
    assert!(out
        .pois
        .iter()
        .any(|p| *p.name == format!("Phoenix Rotation {ROTATIONS}")));
}

#[test]
fn corpus_statistics_track_published_mutations() {
    let (engine, data) = engine();
    let center = data.city.center();
    let range = BoundingBox::from_center_km(center, 5.0, 5.0);
    let planner = &engine.prepared().planner;

    // A nonce token is unknown to the prep-time corpus.
    let before = planner
        .keyword_stats("zephyrquat", &range)
        .expect("tokenizes");
    assert_eq!(before.unknown_terms, 1, "nonce term known before insert");

    let id = engine
        .insert_poi(PoiSpec {
            name: "Zephyrquat Hall".to_owned(),
            lat: center.lat,
            lon: center.lon,
            categories: vec!["venue".to_owned()],
            tips: vec!["the glimmerpond sessions are legendary".to_owned()],
        })
        .expect("insert");
    for nonce in ["zephyrquat", "glimmerpond"] {
        let after = planner.keyword_stats(nonce, &range).expect("tokenizes");
        assert_eq!(after.unknown_terms, 0, "{nonce} not visible to planner");
        assert!(after.min_doc_freq >= 1.0);
    }

    // Updating the tips away from `glimmerpond` drops its postings
    // while the untouched name keeps `zephyrquat` alive.
    engine
        .update_poi(
            id,
            PoiUpdate {
                name: None,
                tips: Some(vec!["nothing distinctive anymore".to_owned()]),
            },
        )
        .expect("update");
    let gone = planner
        .keyword_stats("glimmerpond", &range)
        .expect("tokenizes");
    assert!(
        gone.unknown_terms == 1 || gone.min_doc_freq == 0.0,
        "stale postings survived the update: {gone:?}"
    );
    let kept = planner
        .keyword_stats("zephyrquat", &range)
        .expect("tokenizes");
    assert_eq!(kept.unknown_terms, 0, "update dropped unrelated postings");

    engine.delete_poi(id).expect("delete");
    let deleted = planner
        .keyword_stats("zephyrquat", &range)
        .expect("tokenizes");
    assert!(
        deleted.unknown_terms == 1 || deleted.min_doc_freq == 0.0,
        "stale postings survived the delete: {deleted:?}"
    );
}

#[test]
fn plans_after_a_live_insert_are_fresh() {
    // Every plan is computed from the live features, so there is nothing
    // to invalidate: a keyword shape planned before and after an insert
    // that carries the keyword must differ, and the plan after must be
    // the one a planner built from scratch over the post-insert city
    // makes (same `Fixed` coefficients, so the whole table is comparable).
    let (engine, data) = engine();
    let center = data.city.center();
    let range = engine.prepared().dataset.bounds().expect("non-empty city");
    let planner = &engine.prepared().planner;
    let plan = |p: &semask::QueryPlanner| p.plan_query(&range, Some("zephyrquat"), 10, None);

    let before = plan(planner);
    assert!(before.keyword_aware);
    engine
        .insert_poi(PoiSpec {
            name: "Zephyrquat Hall".to_owned(),
            lat: center.lat,
            lon: center.lon,
            categories: vec!["venue".to_owned()],
            tips: vec!["worth the detour".to_owned()],
        })
        .expect("insert");
    let after = plan(planner);
    assert_ne!(
        after.costs, before.costs,
        "the insert moved the population and the keyword's postings"
    );

    // The snapshot folds the insert into the base dataset; loading it
    // builds grid, corpus index and planner anew.
    let dir = std::env::temp_dir().join(format!("semask_fresh_plan_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    semask::persist::save_prepared(engine.prepared(), &dir).expect("save");
    let rebuilt = semask::persist::load_prepared(&dir, engine.config()).expect("load");
    assert_eq!(rebuilt.dataset.len(), data.dataset.len() + 1);
    assert_eq!(after, plan(&rebuilt.planner));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A written POI's stored point is the one preparation builds: an
/// inserted and an updated POI sit at their object's position with the
/// embedding of their enriched text, like every prepared one — and the
/// collection keeps nothing else of them.
#[test]
fn written_pois_carry_the_prepared_payload() {
    let data = generate_city(&CITIES[3], 80, 47);
    let llm = Arc::new(SimLlm::new());
    let config = common::exact_only_config();
    let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prep"));
    let engine = SemaSkEngine::new(prepared, llm, config, Variant::EmbeddingOnly);
    let inserted = engine
        .insert_poi(rotation_spec(data.city.center(), 1))
        .expect("insert");
    let updated = geotext::ObjectId(5);
    engine
        .update_poi(
            updated,
            PoiUpdate {
                name: Some("Renamed Payload Bistro".to_owned()),
                tips: Some(vec!["a completely new menu every week".to_owned()]),
            },
        )
        .expect("update");

    let prepared = engine.prepared();
    let overlay = prepared.live.overlay();
    let handle = prepared
        .db
        .collection(&prepared.collection_name)
        .expect("collection");
    let collection = handle.read();
    for id in [inserted, updated, geotext::ObjectId(6)] {
        let obj = overlay.get(&prepared.dataset, id).expect("live object");
        let (_, vector, position) = collection
            .iter_points()
            .find(|&(point, ..)| point == u64::from(id.0))
            .expect("stored point");
        assert_eq!(position, (obj.location.lat, obj.location.lon), "{id:?}");
        let text = semask::PreparedCity::embedding_text(obj);
        assert_eq!(vector, prepared.embedder.embed(&text).as_slice(), "{id:?}");
        assert!(
            obj.attrs.get_text("tip_summary").is_some(),
            "{id:?} enriched"
        );
    }
    assert_eq!(
        collection.memory_footprint().payload_bytes,
        16 * (data.dataset.len() + 2),
        "16 B a stored point: the prepared ones, the insert, and the update's re-insert"
    );
}
