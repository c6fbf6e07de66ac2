//! Integration tests for the query planner's routing.
//!
//! One decision procedure over constant coefficients:
//!
//! - **The defaults**: the plan must be the argmin of the reported
//!   per-strategy cost table, near-empty ranges pin the exact scan, and —
//!   the keyword-aware part — a conjunctive *rare*-keyword query must
//!   run postings-first on the exact scan, the IR-tree is never chosen,
//!   and a no-keyword near-empty query stays on the exact scan. Two engines built separately over one city plan
//!   every query alike.
//! - **Given coefficients** (`PlannerConfig::coefficients`): used
//!   exactly as given, and route by selectivity the same way on every
//!   build.

mod common;

use std::sync::Arc;

use semask::retrieval::RetrievalStrategy;
use semask::{
    prepare_city, PlannerConfig, QueryPlanner, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant,
};

fn prepared() -> semask::PreparedCity {
    let data = datagen::poi::generate_city(&datagen::CITIES[0], 250, 77);
    let llm = llm::SimLlm::new();
    prepare_city(&data, &llm, &SemaSkConfig::default()).expect("prep")
}

/// A planner over the same prepared collection on the shared banded
/// coefficients.
fn fixed_planner(p: &semask::PreparedCity) -> QueryPlanner {
    let collection = p.db.collection(&p.collection_name).expect("collection");
    QueryPlanner::for_city(
        Arc::clone(&p.dataset),
        collection,
        PlannerConfig {
            coefficients: common::banded(),
        },
    )
}

/// A word from the corpus whose document frequency is at most `max_df`
/// (rare), or at least `min_df` (common), found via the planner's own
/// keyword statistics.
fn corpus_word_with_df(
    p: &semask::PreparedCity,
    range: &geotext::BoundingBox,
    pred: impl Fn(f64) -> bool,
) -> Option<String> {
    for obj in p.dataset.iter() {
        for word in obj.to_document().split_whitespace() {
            if word.len() < 4 || !word.chars().all(char::is_alphabetic) {
                continue;
            }
            if let Some(stats) = p.planner.keyword_stats(word, range) {
                if stats.unknown_terms == 0 && stats.terms == 1 && pred(stats.min_doc_freq) {
                    return Some(word.to_owned());
                }
            }
        }
    }
    None
}

#[test]
fn near_empty_range_routes_to_exact_scan() {
    let p = prepared();
    // A range far outside the city: nothing is estimated to qualify, so
    // every strategy's predicted cost is below measurement noise and the
    // planner pins the deterministic exact scan.
    let nowhere =
        geotext::BoundingBox::from_center_km(geotext::GeoPoint::new(10.0, 10.0).unwrap(), 1.0, 1.0);
    let plan = p.planner.plan(&nowhere);
    assert!(plan.near_empty, "fraction {}", plan.fraction);
    assert_eq!(plan.chosen, RetrievalStrategy::ExactScan);
    // Given coefficients go through the same pin.
    let plan = fixed_planner(&p).plan(&nowhere);
    assert!(plan.near_empty);
    assert_eq!(plan.chosen, RetrievalStrategy::ExactScan);
}

#[test]
fn calibrated_plan_is_the_argmin_of_its_cost_table() {
    // The default coefficients, calibrated once offline from the curves
    // in `BENCH_planner.json`.
    let p = prepared();
    for km in [1.0, 3.0, 8.0, 25.0] {
        let range = geotext::BoundingBox::from_center_km(p.city.center(), km, km);
        let plan = p.planner.plan(&range);
        if plan.near_empty {
            assert_eq!(plan.chosen, RetrievalStrategy::ExactScan);
            continue;
        }
        let best = plan
            .costs
            .iter()
            .filter(|c| c.viable)
            .min_by(|a, b| a.predicted_us.total_cmp(&b.predicted_us))
            .expect("viable strategies exist");
        assert_eq!(plan.chosen, best.strategy, "range {km} km");
        assert!(plan.predicted_us.is_finite() && plan.predicted_us >= 0.0);
        let ru = plan.runner_up.expect("runner-up reported");
        assert_ne!(ru.strategy, plan.chosen);
        assert!(ru.predicted_us >= plan.predicted_us, "runner-up not worse");
    }
}

#[test]
fn conjunctive_rare_keyword_routes_postings_first() {
    let p = prepared();
    let broad = p.dataset.bounds().expect("non-empty dataset");
    let rare = corpus_word_with_df(&p, &broad, |df| (1.0..=8.0).contains(&df))
        .expect("the corpus contains a rare word");
    let plan = p.planner.plan_query(&broad, Some(&rare), 10, None);
    assert!(plan.keyword_aware);
    assert_eq!(
        plan.chosen,
        RetrievalStrategy::ExactScan,
        "rare keyword `{rare}` over a broad range must run postings-first"
    );
    // Filtered HNSW cannot apply a conjunctive filter exactly, and the
    // IR-tree is no planner route: both must be priced out, never
    // merely disfavored.
    for strategy in [RetrievalStrategy::FilteredHnsw, RetrievalStrategy::IrTree] {
        let cost = plan.costs.iter().find(|c| c.strategy == strategy).unwrap();
        assert!(!cost.viable, "{strategy}");
    }

    // Without keywords the same broad range plans on spatial features
    // alone: HNSW is viable again, the IR-tree still is not, and the
    // decision is the table's argmin.
    let plan = p.planner.plan(&broad);
    assert!(!plan.keyword_aware);
    for c in &plan.costs {
        assert_eq!(
            c.viable,
            c.strategy != RetrievalStrategy::IrTree,
            "{}",
            c.strategy
        );
    }
    let best = plan
        .costs
        .iter()
        .min_by(|a, b| a.predicted_us.total_cmp(&b.predicted_us))
        .unwrap();
    assert_eq!(plan.chosen, best.strategy);
}

#[test]
fn keyword_retrieval_answers_the_conjunctive_set() {
    let p = prepared();
    let broad = p.dataset.bounds().expect("non-empty dataset");
    let word = corpus_word_with_df(&p, &broad, |df| df >= 1.0)
        .expect("the corpus contains an indexable word");
    let qv = embed::Embedder::embed(&p.embedder, "somewhere pleasant nearby");
    let planned = p
        .planner
        .retrieve_keyword(&qv, &broad, Some(&word), 10, None)
        .expect("keyword retrieval");
    assert!(!planned.hits.is_empty(), "keyword `{word}` matches POIs");
    // Reference semantics: in range AND document contains the term
    // (same stemming tokenizer as the index).
    let tokenizer = textindex::Tokenizer::new();
    let stem = tokenizer.tokenize(&word).remove(0);
    for h in &planned.hits {
        let obj = &p.dataset[geotext::ObjectId(h.id as u32)];
        assert!(broad.contains(&obj.location));
        assert!(
            tokenizer.tokenize(&obj.to_document()).contains(&stem),
            "hit {} does not contain `{word}`",
            h.id
        );
    }
    // The keyword filter genuinely narrows the answer: an unfiltered
    // retrieval over the same range is allowed to return non-matching
    // POIs, the filtered one is not (checked above).
    let unfiltered = p
        .planner
        .retrieve_keyword(&qv, &broad, None, 10, None)
        .expect("plain");
    assert!(unfiltered.hits.len() >= planned.hits.len() || planned.hits.len() == 10);
}

#[test]
fn fixed_coefficients_band_by_selectivity() {
    // The selectivity banding the deleted static cutoffs hard-coded, now
    // an outcome of the one procedure on given coefficients — identical
    // on every build.
    let p = prepared();
    let planner = fixed_planner(&p);
    // Selective but non-empty → the grid prefilter (probing the few
    // covered cells costs less than masking every point).
    let narrow = geotext::BoundingBox::from_center_km(p.city.center(), 1.0, 1.0);
    let plan = planner.plan(&narrow);
    assert!(!plan.near_empty, "fraction {}", plan.fraction);
    assert_eq!(plan.chosen, RetrievalStrategy::GridPrefilter);
    // Broad → filtered HNSW; with keywords the graph is priced out (it
    // cannot filter conjunctively) and the query stays exact.
    let all = p.dataset.bounds().expect("non-empty dataset");
    let plan = planner.plan(&all);
    assert_eq!(plan.chosen, RetrievalStrategy::FilteredHnsw);
    let plan = planner.plan_query(&all, Some("coffee"), 10, None);
    assert!(plan.keyword_aware);
    assert_ne!(plan.chosen, RetrievalStrategy::FilteredHnsw);
    // A planner built separately agrees on the whole cost table.
    let twin = fixed_planner(&p);
    assert_eq!(plan, twin.plan_query(&all, Some("coffee"), 10, None));
    assert_eq!(planner.plan(&narrow), twin.plan(&narrow));
}

#[test]
fn fixed_coefficients_are_used_as_given() {
    let p = prepared();
    let planner = fixed_planner(&p);
    assert_eq!(planner.config().coefficients, common::banded());
    // Executions change nothing: the plan after them is the plan before.
    let qv = embed::Embedder::embed(&p.embedder, "anything at all");
    let range = geotext::BoundingBox::from_center_km(p.city.center(), 4.0, 4.0);
    let before = planner.plan(&range);
    for _ in 0..5 {
        planner
            .retrieve_keyword(&qv, &range, None, 10, None)
            .expect("query");
    }
    assert_eq!(planner.plan(&range), before);
    // The banded coefficients price the graph below the defaults do, and
    // the table shows exactly that change.
    let hnsw = |plan: &semask::PlanDecision| plan.predicted_for(RetrievalStrategy::FilteredHnsw);
    let default_plan = p.planner.plan(&range);
    assert_eq!(before.fraction, default_plan.fraction);
    assert!(hnsw(&before) < hnsw(&default_plan));
    for strategy in [
        RetrievalStrategy::ExactScan,
        RetrievalStrategy::GridPrefilter,
        RetrievalStrategy::IrTree,
    ] {
        assert_eq!(
            before.predicted_for(strategy),
            default_plan.predicted_for(strategy)
        );
    }
}

#[test]
fn separately_built_engines_plan_identically() {
    // Two builds of one city under the default configuration: nothing a
    // build measures enters a plan, so the whole decision — chosen
    // strategy, runner-up, cost table — is equal for every query, and so
    // is the answer wherever the route is exact.
    let (a, b) = (prepared(), prepared());
    let broad = a.dataset.bounds().expect("non-empty dataset");
    let common_word = corpus_word_with_df(&a, &broad, |df| df >= 20.0).expect("a common word");
    let rare_word =
        corpus_word_with_df(&a, &broad, |df| (1.0..=8.0).contains(&df)).expect("a rare word");
    let qv = embed::Embedder::embed(&a.embedder, "a friendly place to eat");
    let mut exact_routes = 0;
    for km in [1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 16.0, 20.0] {
        let range = geotext::BoundingBox::from_center_km(a.city.center(), km, km);
        for keywords in [None, Some(common_word.as_str()), Some(rare_word.as_str())] {
            let context = format!("{km} km, keywords {keywords:?}");
            let plan = a.planner.plan_query(&range, keywords, 10, None);
            assert_eq!(
                plan,
                b.planner.plan_query(&range, keywords, 10, None),
                "{context}"
            );
            if plan.chosen == RetrievalStrategy::FilteredHnsw {
                continue;
            }
            exact_routes += 1;
            let answer = |p: &semask::PreparedCity| {
                let got = p
                    .planner
                    .retrieve_keyword(&qv, &range, keywords, 10, None)
                    .expect("retrieval");
                assert_eq!(got.strategy, plan.chosen, "{context}");
                got.hits
                    .iter()
                    .map(|h| (h.id, h.score.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(answer(&a), answer(&b), "{context}");
        }
    }
    assert!(exact_routes >= 16, "only {exact_routes} exact routes");
}

#[test]
fn exact_and_hnsw_agree_on_topk_ids() {
    let p = prepared();
    let qv = embed::Embedder::embed(&p.embedder, "spicy noodles late at night");
    let range = geotext::BoundingBox::from_center_km(p.city.center(), 6.0, 6.0);
    let exact = p
        .planner
        .retrieve_with(RetrievalStrategy::ExactScan, &qv, &range, 10, None)
        .expect("exact retrieval");
    // A generous beam makes HNSW exhaustive on a dataset this small.
    let hnsw = p
        .planner
        .retrieve_with(RetrievalStrategy::FilteredHnsw, &qv, &range, 10, Some(512))
        .expect("hnsw retrieval");
    assert_eq!(exact.strategy, RetrievalStrategy::ExactScan);
    assert_eq!(hnsw.strategy, RetrievalStrategy::FilteredHnsw);
    let mut a: Vec<u64> = exact.hits.iter().map(|h| h.id).collect();
    let mut b: Vec<u64> = hnsw.hits.iter().map(|h| h.id).collect();
    assert!(!a.is_empty());
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "exact and HNSW answer sets must match on small data");
}

#[test]
fn plan_and_costs_are_observable_in_latency_breakdown() {
    let p = Arc::new(prepared());
    let llm = Arc::new(llm::SimLlm::new());
    let engine = SemaSkEngine::new(
        Arc::clone(&p),
        llm,
        SemaSkConfig::default(),
        Variant::EmbeddingOnly,
    );

    let narrow = geotext::BoundingBox::from_center_km(p.city.center(), 1.0, 1.0);
    let out = engine
        .query(&SemaSkQuery::new(narrow, "coffee"))
        .expect("narrow query");
    // The strategy in the breakdown is the planner's decision for this
    // range (not asserted to a fixed band here)…
    let strategy = out.latency.filter_strategy.expect("strategy recorded");
    // …and the full cost table context rides along.
    assert!(out.latency.predicted_cost_us >= 0.0);
    if !p.planner.plan(&narrow).near_empty {
        let ru = out.latency.runner_up.expect("runner-up recorded");
        assert_ne!(ru.strategy, strategy);
    }
    assert!(
        out.latency.shard_candidates.is_empty(),
        "only the router's merge counts shard candidates"
    );
    assert!(out.latency.estimated_selectivity <= 0.10);

    // A keyword query surfaces its routing the same way.
    let broad = p.dataset.bounds().expect("non-empty dataset");
    let rare = corpus_word_with_df(&p, &broad, |df| (1.0..=8.0).contains(&df))
        .expect("a rare corpus word");
    let out = engine
        .query(&SemaSkQuery::new(broad, "coffee").with_keywords(rare))
        .expect("keyword query");
    assert_eq!(
        out.latency.filter_strategy,
        Some(RetrievalStrategy::ExactScan),
        "rare conjunctive keywords run postings-first"
    );
}

#[test]
fn keyword_batch_matches_sequential_keyword_queries() {
    let p = prepared();
    let broad = p.dataset.bounds().expect("non-empty dataset");
    let word = corpus_word_with_df(&p, &broad, |df| df >= 1.0).expect("an indexable corpus word");
    // Batch and sequential runs plan identically, so the comparison
    // below is bit-exact even for approximate strategies.
    let planner = &p.planner;
    let texts = ["quiet coffee", "live music", "late ramen"];
    let batch: Vec<semask::PlannedQuery> = texts
        .iter()
        .flat_map(|t| {
            let vec = embed::Embedder::embed(&p.embedder, t);
            [
                semask::PlannedQuery::new(vec.clone(), broad, 10).with_keywords(word.clone()),
                semask::PlannedQuery::new(vec, broad, 10),
            ]
        })
        .collect();
    let batched = planner.retrieve_batch(&batch).expect("batched");
    for (q, b) in batch.iter().zip(&batched) {
        let single = planner
            .retrieve_keyword(&q.vec, &q.range, q.keywords.as_deref(), q.k, q.ef)
            .expect("sequential");
        assert_eq!(
            b.hits
                .iter()
                .map(|h| (h.id, h.score.to_bits()))
                .collect::<Vec<_>>(),
            single
                .hits
                .iter()
                .map(|h| (h.id, h.score.to_bits()))
                .collect::<Vec<_>>(),
            "keyword batch parity (keywords: {:?})",
            q.keywords
        );
    }
    // Keyword-filtered members returned only matching POIs.
    let backend = planner.backend(RetrievalStrategy::ExactScan);
    let in_range = backend.filter_range(&broad).expect("range filter");
    assert!(batched[0].hits.len() <= in_range.len());
}

#[test]
fn tokenless_keywords_are_no_constraint() {
    // Empty, blank, stopword-only and punctuation-only texts carry no
    // token: each answers bit for bit as the query without keywords,
    // plans identically, and is never provably empty.
    let p = prepared();
    let planner = &p.planner;
    let qv = embed::Embedder::embed(&p.embedder, "somewhere nice");
    for km in [2.0, 8.0, 40.0] {
        let range = geotext::BoundingBox::from_center_km(p.city.center(), km, km);
        let answer = |keywords| {
            let got = planner.retrieve_keyword(&qv, &range, keywords, 10, None);
            let got = got.expect("retrieval");
            let hits = got.hits.iter().map(|h| (h.id, h.score.to_bits()));
            (got.strategy, hits.collect::<Vec<_>>())
        };
        for text in [
            "",
            " \t\n ",
            "the of and",
            "!!! -- ... ?",
            " The, of; AND! ",
        ] {
            let context = format!("`{text}` at {km} km");
            assert_eq!(answer(Some(text)), answer(None), "{context}");
            assert!(!planner.provably_empty(text), "{context}");
            assert!(planner.keyword_stats(text, &range).is_none(), "{context}");
            let plan = planner.plan_query(&range, Some(text), 10, None);
            assert_eq!(
                plan,
                planner.plan_query(&range, None, 10, None),
                "{context}"
            );
        }
    }
}
