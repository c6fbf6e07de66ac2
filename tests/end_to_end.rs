//! End-to-end integration tests across all crates: generate a city,
//! prepare it, and query it with every Table-2 method.

use std::sync::Arc;

use llm::SimLlm;
use semask::baselines::{Retriever, SemaSkRetriever, TfIdfRetriever};
use semask::eval::evaluate_city;
use semask::{prepare_city, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};

fn setup() -> (datagen::CityData, Arc<semask::PreparedCity>, Arc<SimLlm>) {
    let city = datagen::poi::generate_city(&datagen::CITIES[4], 250, 7);
    let llm = Arc::new(SimLlm::new());
    let prepared = Arc::new(prepare_city(&city, &llm, &SemaSkConfig::default()).expect("prep"));
    (city, prepared, llm)
}

fn queries(city: &datagen::CityData, n: usize) -> Vec<datagen::TestQuery> {
    datagen::queries::generate_queries(
        city,
        &datagen::queries::QueryGenConfig {
            per_city: n,
            ..Default::default()
        },
    )
}

#[test]
fn full_pipeline_answers_queries() {
    let (city, prepared, llm) = setup();
    let engine = SemaSkEngine::new(
        Arc::clone(&prepared),
        Arc::clone(&llm),
        SemaSkConfig::default(),
        Variant::Full,
    );
    let qs = queries(&city, 5);
    assert!(!qs.is_empty());
    for tq in &qs {
        let out = engine
            .query(&SemaSkQuery::new(tq.range, tq.text.clone()))
            .expect("query");
        // Every returned POI is inside the range.
        for poi in &out.pois {
            let obj = &prepared.dataset[poi.id];
            assert!(tq.range.contains(&obj.location), "POI outside range");
        }
        // Recommended POIs come first.
        let mut seen_not = false;
        for poi in &out.pois {
            if !poi.recommended {
                seen_not = true;
            } else {
                assert!(!seen_not, "recommended POI after non-recommended one");
            }
        }
        // Reasons are non-empty prose.
        for poi in &out.pois {
            assert!(!poi.reason.to_string().is_empty());
        }
    }
}

#[test]
fn refinement_beats_embedding_only_on_f1() {
    let (city, prepared, llm) = setup();
    let qs = queries(&city, 10);
    let full = SemaSkRetriever::new(SemaSkEngine::new(
        Arc::clone(&prepared),
        Arc::clone(&llm),
        SemaSkConfig::default(),
        Variant::Full,
    ));
    let em = SemaSkRetriever::new(SemaSkEngine::new(
        Arc::clone(&prepared),
        Arc::clone(&llm),
        SemaSkConfig::default(),
        Variant::EmbeddingOnly,
    ));
    let f_full = evaluate_city(&full as &dyn Retriever, &qs, 10).f1;
    let f_em = evaluate_city(&em as &dyn Retriever, &qs, 10).f1;
    assert!(
        f_full > f_em,
        "refinement should improve F1: full {f_full:.3} vs em {f_em:.3}"
    );
}

#[test]
fn semask_beats_tfidf_substantially() {
    let (city, prepared, llm) = setup();
    let qs = queries(&city, 10);
    let full = SemaSkRetriever::new(SemaSkEngine::new(
        Arc::clone(&prepared),
        Arc::clone(&llm),
        SemaSkConfig::default(),
        Variant::Full,
    ));
    let tfidf = TfIdfRetriever::new(&prepared.dataset);
    let f_full = evaluate_city(&full as &dyn Retriever, &qs, 10).f1;
    let f_tfidf = evaluate_city(&tfidf as &dyn Retriever, &qs, 10).f1;
    assert!(
        f_full > f_tfidf * 1.3,
        "SemaSK {f_full:.3} should clearly beat TF-IDF {f_tfidf:.3}"
    );
}

#[test]
fn latency_shape_filtering_far_below_refinement() {
    let (city, prepared, llm) = setup();
    let engine = SemaSkEngine::new(
        Arc::clone(&prepared),
        llm,
        SemaSkConfig::default(),
        Variant::Full,
    );
    let tq = &queries(&city, 3)[0];
    let out = engine
        .query(&SemaSkQuery::new(tq.range, tq.text.clone()))
        .expect("query");
    // The paper: filtering ~0.04 s, refinement 2-3 s. Shape: refinement
    // dominates by at least an order of magnitude.
    assert!(out.latency.refinement_ms > out.latency.filtering_ms * 10.0);
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let (city, prepared, llm) = setup();
        let engine = SemaSkEngine::new(
            Arc::clone(&prepared),
            llm,
            SemaSkConfig::default(),
            Variant::Full,
        );
        let tq = &queries(&city, 2)[0];
        let out = engine
            .query(&SemaSkQuery::new(tq.range, tq.text.clone()))
            .expect("query");
        out.pois
            .iter()
            .map(|p| (p.id, p.recommended, p.reason.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn llm_cost_accounting_covers_prep_and_queries() {
    let (city, prepared, llm) = setup();
    let after_prep = llm.cost_log().num_calls();
    assert_eq!(after_prep, city.dataset.len(), "one summarize call per POI");
    let engine = SemaSkEngine::new(
        Arc::clone(&prepared),
        Arc::clone(&llm),
        SemaSkConfig::default(),
        Variant::Full,
    );
    let tq = &queries(&city, 2)[0];
    engine
        .query(&SemaSkQuery::new(tq.range, tq.text.clone()))
        .expect("query");
    assert_eq!(llm.cost_log().num_calls(), after_prep + 1);
    let (calls_4o, _, cost_4o) = llm.cost_log().by_model(llm::ModelKind::Gpt4o);
    assert_eq!(calls_4o, 1);
    assert!(cost_4o > 0.0);
}
