//! Filtering-stage correctness on the one path. A single query is a
//! batch of one, so there is no sequential twin to compare against;
//! instead the suite pins the contract the one body must keep and holds
//! it to an independent reference:
//!
//! - the answer for a query does not depend on the queries submitted
//!   with it: a batch of N equals N batches of one (shared vs unshared
//!   candidate sets) and equals the same queries at other lane counts —
//!   across batch sizes {1, 16, 64}, mixed-range batches (grouping must
//!   not leak results between groups), and duplicate-vector tie cases;
//! - every exact strategy answers a 17-query slice exactly like the
//!   brute-force `vecdb::FlatIndex` scan;
//! - an engine batch fans out by whole queries: mixed batches of distinct
//!   and shared ranges, keyword-filtered and provably empty ones, at
//!   sizes {2, 3, 16, 64} × {`EmbeddingOnly`, `Full`}
//!   answer exactly as N calls to `query`, report one `filtering_ms`
//!   per batch, fail with the error of the lowest query index, and stay
//!   correct when four threads submit at once;
//! - the perf ledger's configuration (metro world, quantized tier)
//!   answers a batch of 64 like 64 batches of one at engine
//!   level, and its exact strategy returns the top 10 of a naive `f64`
//!   cosine — a reference that does not run the scoring kernel.

mod common;

use std::sync::Arc;

use embed::Embedder;
use semask::retrieval::RetrievalStrategy;
use semask::{
    prepare_city, Coefficients, PlannedQuery, PlannedRetrieval, PlannerConfig, QueryOutcome,
    QueryPlanner, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant,
};
use vecdb::ScoredPoint;

const BATCH_SIZES: [usize; 3] = [1, 16, 64];

fn prepared() -> semask::PreparedCity {
    let data = datagen::poi::generate_city(&datagen::CITIES[2], 320, 77);
    let llm = llm::SimLlm::new();
    prepare_city(&data, &llm, &SemaSkConfig::default()).expect("prep")
}

/// A planner over the prepared collection on `coefficients`: the
/// defaults and the banded set route the same queries differently, so
/// the parity below holds on more than one mix of strategies.
fn planner_with(p: &semask::PreparedCity, coefficients: Coefficients) -> QueryPlanner {
    let collection = p.db.collection(&p.collection_name).expect("collection");
    QueryPlanner::for_city(
        Arc::clone(&p.dataset),
        collection,
        PlannerConfig { coefficients },
    )
}

fn ids_and_scores(hits: &[ScoredPoint]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

/// A deterministic batch mixing ranges (several selectivity bands, so
/// batches span exact-scan, grid-prefilter, and HNSW groups) and query
/// texts.
fn make_batch(p: &semask::PreparedCity, n: usize) -> Vec<PlannedQuery> {
    let center = p.city.center();
    let ranges = [
        geotext::BoundingBox::from_center_km(center, 1.0, 1.0),
        geotext::BoundingBox::from_center_km(center, 6.0, 6.0),
        p.dataset.bounds().expect("non-empty dataset"),
    ];
    let texts = [
        "cozy coffee with pastries",
        "craft beer and live music",
        "ramen with a long line",
        "quiet bookstore cafe",
        "late night tacos",
    ];
    (0..n)
        .map(|i| {
            PlannedQuery::new(
                p.embedder.embed(texts[i % texts.len()]),
                ranges[i % ranges.len()],
                10,
            )
        })
        .collect()
}

fn assert_same_retrieval(a: &PlannedRetrieval, b: &PlannedRetrieval, context: &str) {
    assert_eq!(
        ids_and_scores(&a.hits),
        ids_and_scores(&b.hits),
        "{context}"
    );
    assert_eq!(a.strategy, b.strategy, "{context}");
    assert_eq!(a.estimated_fraction, b.estimated_fraction, "{context}");
    assert_eq!(a.predicted_cost_us, b.predicted_cost_us, "{context}");
}

#[test]
fn retrieve_batch_matches_sequential_retrieve() {
    // A batch of N (range groups share one candidate set and one kernel
    // pass) against N batches of one (nothing shared), the one-query
    // entry point, and the same queries in lanes of 5.
    let p = prepared();
    for coefficients in [Coefficients::default(), common::banded()] {
        let planner = planner_with(&p, coefficients);
        for batch_size in BATCH_SIZES {
            let context = format!("{coefficients:?} batch={batch_size}");
            let batch = make_batch(&p, batch_size);
            let batched = planner.retrieve_batch(&batch).expect("batched retrieval");
            assert_eq!(batched.len(), batch.len());
            let in_fives: Vec<PlannedRetrieval> = batch
                .chunks(5)
                .flat_map(|lane| planner.retrieve_batch(lane).expect("lane of 5"))
                .collect();
            for ((q, b), five) in batch.iter().zip(&batched).zip(&in_fives) {
                let mut one = planner
                    .retrieve_batch(std::slice::from_ref(q))
                    .expect("batch of one");
                assert_same_retrieval(b, &one.pop().expect("one answer"), &context);
                let single = planner
                    .retrieve_keyword(&q.vec, &q.range, None, q.k, q.ef)
                    .expect("one-query entry point");
                assert_same_retrieval(b, &single, &context);
                assert_same_retrieval(b, five, &context);
            }
        }
    }
}

#[test]
fn exact_strategies_match_flat_index_brute_force() {
    // The surviving kernel held to an independent reference rather than
    // to itself: every exact strategy's backend answers a 17-query slice
    // bit for bit like `FlatIndex` (per-query scoring, stable full sort)
    // masked to the range.
    let p = prepared();
    let collection = p.db.collection(&p.collection_name).expect("collection");
    let distance = collection.read().config().distance;
    let mut flat = vecdb::FlatIndex::new(distance);
    for o in p.dataset.iter() {
        let guard = collection.read();
        flat.push(guard.vector(u64::from(o.id.0)).expect("vector").to_vec());
    }
    let texts = ["cozy coffee", "live music", "ramen", "bookstore", "tacos"];
    let owned: Vec<Vec<f32>> = (0..17)
        .map(|i| p.embedder.embed(&format!("{i} {}", texts[i % texts.len()])))
        .collect();
    let queries: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
    let center = p.city.center();
    let ranges = [
        geotext::BoundingBox::from_center_km(center, 2.0, 2.0),
        geotext::BoundingBox::from_center_km(center, 9.0, 9.0),
    ];
    let planner = &p.planner;
    for range in &ranges {
        let in_range = |o: usize| range.contains(&p.dataset.objects()[o].location);
        for strategy in [
            RetrievalStrategy::ExactScan,
            RetrievalStrategy::GridPrefilter,
            RetrievalStrategy::IrTree,
        ] {
            let answers = planner
                .backend(strategy)
                .knn_in_range(&queries, range, 10, None)
                .expect("exact strategy");
            assert_eq!(answers.len(), queries.len());
            for (q, hits) in queries.iter().zip(&answers) {
                let expect: Vec<(u64, u32)> = flat
                    .search(q, 10, Some(&in_range))
                    .into_iter()
                    .map(|(o, d)| (o as u64, distance.similarity_from_distance(d).to_bits()))
                    .collect();
                assert!(!expect.is_empty(), "the range holds points");
                assert_eq!(ids_and_scores(hits), expect, "{strategy} vs brute force");
            }
        }
    }
}

#[test]
fn retrieve_batch_spans_strategy_groups() {
    // The mixed batch must actually exercise distinct plans — otherwise
    // the parity test above proves less than it claims.
    let p = prepared();
    let batch = make_batch(&p, 16);
    let results = p.planner.retrieve_batch(&batch).expect("batched retrieval");
    let strategies: std::collections::HashSet<_> = results.iter().map(|r| r.strategy).collect();
    assert!(
        strategies.len() >= 2,
        "expected multiple strategy groups, got {strategies:?}"
    );
    assert!(results.iter().all(|r| !r.hits.is_empty()));
}

#[test]
fn retrieve_batch_handles_duplicate_distance_ties() {
    // Duplicate vectors inside the collection produce tied scores; a
    // group of 16 must keep the tie order (ascending id) a group of one
    // produces. Build a planner over a collection with deliberate
    // duplicates.
    let data = datagen::poi::generate_city(&datagen::CITIES[0], 60, 5);
    let llm = llm::SimLlm::new();
    let p = prepare_city(&data, &llm, &SemaSkConfig::default()).expect("prep");
    let collection = p.db.collection(&p.collection_name).expect("collection");
    {
        // Clone one POI's vector onto several fresh ids inside the range,
        // creating exact score ties for any query.
        let mut c = collection.write();
        let v = c.vector(0).expect("point 0").to_vec();
        for id in 1000..1006u64 {
            let at = p.dataset[geotext::ObjectId(0)].location;
            c.insert(id, v.clone(), (at.lat, at.lon))
                .expect("insert duplicate");
        }
    }
    // The banded coefficients route the broad range to
    // filtered-HNSW: the tie semantics below need a collection-backed
    // strategy that sees the duplicates inserted past the
    // dataset-derived indexes.
    let planner = QueryPlanner::for_city(
        Arc::clone(&p.dataset),
        Arc::clone(&collection),
        PlannerConfig {
            coefficients: common::banded(),
        },
    );
    let qv = collection.read().vector(0).expect("point 0").to_vec();
    // The full dataset bounds: routes to filtered-HNSW, whose mask is
    // collection-backed and therefore sees the duplicate points.
    let range = p.dataset.bounds().expect("non-empty dataset");
    let batch: Vec<PlannedQuery> = (0..16)
        .map(|_| PlannedQuery::new(qv.clone(), range, 10))
        .collect();
    let batched = planner.retrieve_batch(&batch).expect("batched retrieval");
    let single = planner
        .retrieve_keyword(&qv, &range, None, 10, None)
        .expect("group of one");
    assert_eq!(single.strategy, RetrievalStrategy::FilteredHnsw);
    for b in &batched {
        assert_eq!(ids_and_scores(&b.hits), ids_and_scores(&single.hits));
    }
    // The ties are real: the duplicate ids share one score.
    let tied: Vec<u64> = single
        .hits
        .iter()
        .filter(|h| (h.score - single.hits[0].score).abs() < 1e-9)
        .map(|h| h.id)
        .collect();
    assert!(tied.len() >= 2, "expected tied top scores, got {tied:?}");
}

#[test]
fn ledger_configuration_batch_of_64_matches_batches_of_one() {
    // The perf ledger's world and tier — `generate_metro`, the forced
    // quantized scoring tier: over 64 distinct ranges (a quarter
    // keyword-filtered, narrow to metro-wide) any difference between a
    // batch of 64, lanes of 7, and 64 batches of one is a kernel bug.
    let data = datagen::generate_metro(&datagen::MetroConfig::new(4_000, 7));
    let llm = Arc::new(llm::SimLlm::new());
    let config = SemaSkConfig {
        scoring_tier: vecdb::ScoringTier::Quantized {
            rerank_factor: vecdb::ScoringTier::DEFAULT_RERANK_FACTOR,
        },
        ..SemaSkConfig::default()
    };
    let prepared =
        Arc::new(semask::prepare_city_with_threads(&data, &llm, &config, 2).expect("prep"));
    let word = common::corpus_word(&prepared.dataset, 17);
    let engine = SemaSkEngine::new(Arc::clone(&prepared), llm, config, Variant::EmbeddingOnly);

    let texts = [
        "a quiet cafe with strong espresso",
        "craft beer and live music",
        "late night tacos",
        "family friendly pizza",
        "vegan brunch with outdoor seating",
    ];
    let queries: Vec<SemaSkQuery> = (0..64)
        .map(|i| {
            // Distinct centres on a ring around a district's downtown
            // and distinct sizes from 1 km to 64 km.
            let base = data.dataset.objects()[(i * 61) % 4_000].location;
            let centre = geotext::GeoPoint::new(
                base.lat + 0.002 * (i % 7) as f64,
                base.lon - 0.002 * (i % 5) as f64,
            )
            .expect("a jittered in-world coordinate");
            let km = 1.0 + i as f64;
            let range = geotext::BoundingBox::from_center_km(centre, km, km);
            let q = SemaSkQuery::new(range, texts[i % texts.len()]);
            if i % 4 == 3 {
                q.with_keywords(&word)
            } else {
                q
            }
        })
        .collect();

    let fingerprint = |out: &semask::QueryOutcome| {
        let pois: Vec<(u32, u32)> = out
            .pois
            .iter()
            .map(|p| (p.id.0, p.embed_score.to_bits()))
            .collect();
        (pois, out.latency.filter_strategy)
    };
    let batched = engine.query_batch(&queries).expect("batch of 64");
    let in_sevens: Vec<semask::QueryOutcome> = queries
        .chunks(7)
        .flat_map(|lane| engine.query_batch(lane).expect("lane of 7"))
        .collect();
    let mut strategies = std::collections::HashSet::new();
    let mut answered = 0;
    for (i, q) in queries.iter().enumerate() {
        let single = engine.query(q).expect("batch of one");
        assert_eq!(fingerprint(&batched[i]), fingerprint(&single), "query {i}");
        assert_eq!(
            fingerprint(&in_sevens[i]),
            fingerprint(&single),
            "query {i}"
        );
        strategies.extend(single.latency.filter_strategy);
        answered += usize::from(!single.pois.is_empty());
    }
    assert!(
        answered >= 48,
        "only {answered} of 64 ranges hold an answer"
    );
    assert!(
        strategies.len() >= 2,
        "the ranges should span strategies, got {strategies:?}"
    );

    // An oracle that shares nothing with the scoring kernel (`FlatIndex`
    // runs it too): a naive `f64` cosine over every in-range vector.
    // Wherever the reference itself separates rank 10 from rank 11 by
    // more than 1e-5, the exact strategy — quantized coarse pass, then
    // full-precision rerank — must return exactly the reference top 10.
    let collection = prepared
        .db
        .collection(&prepared.collection_name)
        .expect("collection");
    let stored: Vec<Vec<f64>> = {
        let guard = collection.read();
        prepared
            .dataset
            .iter()
            .map(|o| {
                let v = guard.vector(u64::from(o.id.0)).expect("vector");
                v.iter().copied().map(f64::from).collect()
            })
            .collect()
    };
    let cosine = |a: &[f64], b: &[f64]| {
        let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(p, q)| p * q).sum::<f64>();
        dot(a, b) / (dot(a, a) * dot(b, b)).sqrt()
    };
    let mut decided = 0;
    for (i, q) in queries.iter().enumerate() {
        let vec = prepared.embedder.embed(&q.text);
        let wide: Vec<f64> = vec.iter().copied().map(f64::from).collect();
        let mut truth: Vec<(f64, u64)> = prepared
            .dataset
            .iter()
            .filter(|o| q.range.contains(&o.location))
            .map(|o| (cosine(&wide, &stored[o.id.0 as usize]), u64::from(o.id.0)))
            .collect();
        truth.sort_by(|a, b| b.0.total_cmp(&a.0));
        if truth.len() > 10 && truth[9].0 - truth[10].0 <= 1e-5 {
            continue;
        }
        decided += 1;
        let mut want: Vec<u64> = truth.iter().take(10).map(|&(_, id)| id).collect();
        let mut got: Vec<u64> = prepared
            .planner
            .retrieve_with(RetrievalStrategy::ExactScan, &vec, &q.range, 10, None)
            .expect("exact scan")
            .hits
            .iter()
            .map(|h| h.id)
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "query {i} vs the f64 reference");
    }
    assert!(decided >= 48, "the reference decided only {decided} of 64");
}

/// Engines of both refinement kinds over one prepared city, on the
/// banded coefficients, plus a word of the corpus.
fn engines() -> (SemaSkEngine, SemaSkEngine, String) {
    let data = datagen::poi::generate_city(&datagen::CITIES[2], 320, 77);
    let llm = Arc::new(llm::SimLlm::new());
    let config = SemaSkConfig {
        planner: PlannerConfig {
            coefficients: common::banded(),
        },
        ..SemaSkConfig::default()
    };
    let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prep"));
    let word = common::corpus_word(&prepared.dataset, 3);
    let engine = |variant| {
        SemaSkEngine::new(
            Arc::clone(&prepared),
            Arc::clone(&llm),
            config.clone(),
            variant,
        )
    };
    (engine(Variant::EmbeddingOnly), engine(Variant::Full), word)
}

/// A batch of `n` queries over mixed ranges: 2 km and 5 km boxes on
/// centres that differ per query, and the whole city for every third —
/// one range shared by several queries, some of them keyword-filtered.
/// One query in four carries a corpus word, one in eight a word no
/// document holds (provably empty), and from three queries up the last
/// repeats the first one's range.
fn mixed_engine_batch(engine: &SemaSkEngine, word: &str, n: usize) -> Vec<SemaSkQuery> {
    let prepared = engine.prepared();
    let center = prepared.city.center();
    let texts = [
        "cozy coffee with pastries",
        "craft beer and live music",
        "ramen with a long line",
        "quiet bookstore cafe",
        "late night tacos",
    ];
    let range_of = |i: usize| {
        let shifted = geotext::GeoPoint::new(
            center.lat + 0.0015 * (i / 3) as f64,
            center.lon - 0.0015 * (i / 3) as f64,
        )
        .expect("a jittered in-city coordinate");
        match i % 3 {
            0 => geotext::BoundingBox::from_center_km(shifted, 2.0, 2.0),
            1 => geotext::BoundingBox::from_center_km(shifted, 5.0, 5.0),
            _ => prepared.dataset.bounds().expect("non-empty dataset"),
        }
    };
    (0..n)
        .map(|i| {
            let range = range_of(if n >= 3 && i == n - 1 { 0 } else { i });
            let q = SemaSkQuery::new(range, format!("{i}: {}", texts[i % texts.len()]));
            match i % 8 {
                1 | 5 => q.with_keywords(word),
                6 => q.with_keywords("zzzunknowntoken"),
                _ => q,
            }
        })
        .collect()
}

/// Everything of an outcome that is an answer rather than a timing.
fn answer_of(out: &QueryOutcome) -> impl PartialEq + std::fmt::Debug {
    let pois: Vec<(u32, String, u32, bool, String)> = out
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
        .collect();
    (
        pois,
        out.latency.filter_strategy,
        out.latency.shard_candidates.clone(),
    )
}

#[test]
fn mixed_engine_batches_answer_like_sequential_queries() {
    let (em, full, word) = engines();
    for engine in [&em, &full] {
        for n in [2usize, 3, 16, 64] {
            let context = format!("{:?} batch={n}", engine.variant());
            let queries = mixed_engine_batch(engine, &word, n);
            let batched = engine.query_batch(&queries).expect("batch");
            assert_eq!(batched.len(), n, "{context}");
            let mut strategies = std::collections::HashSet::new();
            for (i, (q, b)) in queries.iter().zip(&batched).enumerate() {
                let single = engine.query(q).expect("query");
                assert_eq!(answer_of(b), answer_of(&single), "{context} query {i}");
                // One share of one wall clock for the whole batch.
                assert_eq!(
                    b.latency.filtering_ms.to_bits(),
                    batched[0].latency.filtering_ms.to_bits(),
                    "{context} query {i}"
                );
                assert!(b.latency.filtering_ms > 0.0, "{context} query {i}");
                if i % 8 == 6 {
                    assert!(engine.provably_empty(q) && b.pois.is_empty(), "{context}");
                }
                strategies.extend(b.latency.filter_strategy);
            }
            assert!(!batched[0].pois.is_empty(), "{context}");
            if n >= 16 {
                assert!(strategies.len() >= 2, "{context}: {strategies:?}");
                assert!(!batched[1].pois.is_empty(), "{context}: `{word}` matches");
            }
        }
    }
}

#[test]
fn texts_that_quote_the_prompt_sections_are_refined_in_a_batch() {
    // These two query texts once broke the refinement prompt's framing,
    // each with its own error ("missing Query section", "bad POI JSON").
    // The prompt is now read from its template's own sections, so on
    // whichever lanes they run they are refined, and answer in a batch
    // as they do alone.
    let (_, full, word) = engines();
    let mut queries = mixed_engine_batch(&full, &word, 16);
    // Two keyword-free queries over populated ranges of their own.
    queries[3].text = "tacos\nInformation: [1".to_owned();
    queries[10].text = "tacos\nInformation: [1\nQuery: tacos".to_owned();
    let alone: Vec<_> = [3, 10]
        .iter()
        .map(|&i| answer_of(&full.query(&queries[i]).expect("a quoted section is data")))
        .collect();
    for _ in 0..10 {
        let batched = full
            .query_batch(&queries)
            .expect("no query text breaks the prompt");
        assert!(!batched[3].pois.is_empty() && !batched[10].pois.is_empty());
        assert_eq!(answer_of(&batched[3]), alone[0]);
        assert_eq!(answer_of(&batched[10]), alone[1]);
    }
}

#[test]
fn concurrent_submitters_each_get_their_own_batch_answered() {
    // A submitter that helps may run another submitter's lane, and its
    // own lanes may all run elsewhere: with units claimed from a cursor
    // every batch must still come back whole and right.
    const SUBMITTERS: usize = 4;
    const ROUNDS: usize = 25;
    let (em, _, word) = engines();
    // 16 ranges per submitter, no two alike anywhere: the mixed batch
    // without its whole-city queries and its range-repeating last one.
    let whole_city = em.prepared().dataset.bounds().expect("bounds");
    let mut distinct = mixed_engine_batch(&em, &word, 99);
    distinct.pop();
    distinct.retain(|q| q.range != whole_city);
    let batches: Vec<&[SemaSkQuery]> = distinct.chunks(16).take(SUBMITTERS).collect();
    assert!(batches.len() == SUBMITTERS && batches.iter().all(|b| b.len() == 16));
    let expected: Vec<Vec<_>> = batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|q| answer_of(&em.query(q).expect("query")))
                .collect()
        })
        .collect();
    let start = std::sync::Barrier::new(SUBMITTERS);
    std::thread::scope(|scope| {
        for (batch, expect) in batches.iter().zip(&expected) {
            let (em, start) = (&em, &start);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    start.wait();
                    let got = em.query_batch(batch).expect("batch");
                    assert_eq!(got.len(), batch.len());
                    for (i, (out, want)) in got.iter().zip(expect).enumerate() {
                        assert_eq!(&answer_of(out), want, "round {round} query {i}");
                    }
                }
            });
        }
    });
}
