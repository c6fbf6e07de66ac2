//! The negative cache's contract, pinned against brute force.
//!
//! The planner's provably-empty answer is a look-up in the corpus
//! vocabulary: a conjunctive keyword query is provably empty exactly when
//! one of its tokens was never interned. The vocabulary is the exact set
//! of tokens ever indexed, so the answer is exact in both directions.
//!
//! Two layers of the contract, plus one edge:
//!
//! 1. exactness under live growth — [`SemaSkEngine::provably_empty`]
//!    holds exactly when some token of the keywords appears in no
//!    document ever indexed (the base corpus plus every insert and every
//!    update's new text, tokenized by brute force), and a `true` answer
//!    executes empty;
//! 2. stability — once a keyword stops being provably empty (its tokens
//!    entered the corpus), no later mutation may flip it back (the
//!    vocabulary only grows);
//! 3. deletion — deleting every POI that holds a token leaves the token
//!    known, so its keyword is not provably empty, yet it executes empty.

mod common;

use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

use datagen::{poi::generate_city, CITIES};
use geotext::{BoundingBox, GeoPoint, ObjectId};
use llm::SimLlm;
use proptest::prelude::*;
use semask::{
    prepare_city, Mutation, PoiSpec, PoiUpdate, RetrievalStrategy, SemaSkEngine, SemaSkQuery,
    Variant,
};
use textindex::Tokenizer;

fn engine_over(pois: usize) -> (SemaSkEngine, GeoPoint) {
    let data = generate_city(&CITIES[1], pois, 23);
    let center = data.city.center();
    let llm = Arc::new(SimLlm::new());
    let config = common::exact_only_config();
    let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prep"));
    let engine = SemaSkEngine::new(prepared, llm, config, Variant::EmbeddingOnly);
    (engine, center)
}

/// The current document of live object `id`.
fn document(engine: &SemaSkEngine, id: ObjectId) -> String {
    let prepared = engine.prepared();
    prepared
        .live
        .overlay()
        .get_raw(&prepared.dataset, id)
        .expect("a live id")
        .to_document()
}

fn spec(name: String, center: GeoPoint, tip: String) -> PoiSpec {
    PoiSpec {
        name,
        lat: center.lat + 0.002,
        lon: center.lon - 0.002,
        categories: vec!["cafe".to_owned()],
        tips: vec![tip],
    }
}

struct EngineHarness {
    engine: SemaSkEngine,
    center: GeoPoint,
    /// Every token of every document ever indexed: the brute-force twin
    /// of the corpus vocabulary.
    indexed: Mutex<HashSet<String>>,
    /// Keywords observed non-provably-empty — later cases re-check them
    /// (layer 2).
    admitted: Mutex<Vec<String>>,
    /// Ids this test inserted, which its updates rewrite.
    inserted: Mutex<Vec<ObjectId>>,
}

fn engine_harness() -> &'static EngineHarness {
    static HARNESS: OnceLock<EngineHarness> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let (engine, center) = engine_over(60);
        let tokenizer = Tokenizer::new();
        let indexed = engine
            .prepared()
            .dataset
            .iter()
            .flat_map(|o| tokenizer.tokenize(&o.to_document()))
            .collect();
        EngineHarness {
            engine,
            center,
            indexed: Mutex::new(indexed),
            admitted: Mutex::new(Vec::new()),
            inserted: Mutex::new(Vec::new()),
        }
    })
}

/// Tip vocabulary the interleaving draws inserted-POI tokens from; the
/// `zq`-prefixed ones cannot collide with generated city text, so
/// whether they are corpus-known is controlled entirely by this test's
/// own inserts and updates.
const TIP_WORDS: &[&str] = &["zqlantern", "zqorchard", "zqgranite", "zqvelvet"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn provably_empty_is_authoritative_and_never_flips_back(
        ops in prop::collection::vec((0u8..6, 0u8..4, "[a-z]{1,7}"), 1..10),
    ) {
        let h = engine_harness();
        let tokenizer = Tokenizer::new();
        let range = BoundingBox::from_center_km(h.center, 6.0, 6.0);
        for (kind, word, random_kw) in ops {
            let tip_word = TIP_WORDS[word as usize % TIP_WORDS.len()];
            // Grow the corpus — an insert, or an update rewriting an
            // earlier insert's tip — and record the indexed text. No POI
            // is deleted here: layer 3 covers deletes on its own engine.
            let inserted = h.inserted.lock().unwrap().clone();
            let changed = match (kind, inserted.last()) {
                (0, _) => {
                    let n = inserted.len() + 1;
                    let tip = format!("a {tip_word} on every table");
                    let applied = h
                        .engine
                        .apply_mutations(&[Mutation::Insert(spec(
                            format!("Prescreen Probe {n}"),
                            h.center,
                            tip,
                        ))])
                        .expect("insert");
                    h.inserted.lock().unwrap().extend(&applied.inserted);
                    applied.inserted.first().copied()
                }
                (1, Some(&id)) => {
                    let tips = vec![format!("now a {tip_word} and {random_kw} corner")];
                    h.engine
                        .apply_mutations(&[Mutation::Update {
                            id: id.0,
                            update: PoiUpdate { name: None, tips: Some(tips) },
                        }])
                        .expect("update");
                    Some(id)
                }
                _ => None,
            };
            if let Some(id) = changed {
                h.indexed
                    .lock()
                    .unwrap()
                    .extend(tokenizer.tokenize(&document(&h.engine, id)));
            }
            // Probe a mix: the controlled tokens (absent until an op
            // indexes them, then known forever), and random keywords that
            // are usually out-of-vocabulary.
            for kw in [tip_word.to_owned(), random_kw.clone()] {
                let query = SemaSkQuery::new(range, "somewhere to sit down")
                    .with_keywords(kw.clone());
                // Layer 1: exact against the brute-force vocabulary.
                let never_indexed = {
                    let indexed = h.indexed.lock().unwrap();
                    tokenizer.tokenize(&kw).iter().any(|t| !indexed.contains(t))
                };
                prop_assert_eq!(
                    h.engine.provably_empty(&query),
                    never_indexed,
                    "keyword {:?}", kw
                );
                if never_indexed {
                    // ... and `true` executes empty.
                    let outcome = h.engine.query(&query).expect("query");
                    // The executed answer is the exact scan's: spatial
                    // filter ∩ live corpus AND-matches, no index between.
                    prop_assert_eq!(
                        outcome.latency.filter_strategy,
                        Some(RetrievalStrategy::ExactScan)
                    );
                    prop_assert!(
                        outcome.pois.is_empty(),
                        "provably_empty lied for keyword {:?}: {} matches",
                        kw, outcome.pois.len()
                    );
                } else {
                    h.admitted.lock().unwrap().push(kw);
                }
            }
        }
        // Layer 2: everything ever admitted stays admitted — corpus
        // vocabulary only grows, so a `false` can never become `true`.
        let admitted = h.admitted.lock().unwrap();
        for kw in admitted.iter() {
            let query = SemaSkQuery::new(range, "somewhere to sit down")
                .with_keywords(kw.clone());
            prop_assert!(
                !h.engine.provably_empty(&query),
                "keyword {:?} flipped back to provably-empty after growth", kw
            );
        }
    }
}

#[test]
fn a_token_deleted_everywhere_stays_known_and_matches_nothing() {
    let (engine, center) = engine_over(40);
    let range = BoundingBox::from_center_km(center, 6.0, 6.0);
    let query = SemaSkQuery::new(range, "somewhere to sit down").with_keywords("zqquartz");
    assert!(engine.provably_empty(&query), "not yet indexed");

    let tips = ["a zqquartz counter", "zqquartz tiles everywhere"];
    let holders = engine
        .apply_mutations(
            &tips
                .iter()
                .enumerate()
                .map(|(i, tip)| {
                    Mutation::Insert(spec(format!("Quartz {i}"), center, (*tip).to_owned()))
                })
                .collect::<Vec<_>>(),
        )
        .expect("insert")
        .inserted;
    assert!(!engine.provably_empty(&query));
    assert_eq!(
        engine.query(&query).expect("query").pois.len(),
        holders.len()
    );

    engine
        .apply_mutations(
            &holders
                .iter()
                .map(|id| Mutation::Delete { id: id.0 })
                .collect::<Vec<_>>(),
        )
        .expect("delete");
    assert!(
        !engine.provably_empty(&query),
        "the vocabulary is append-only: a deleted token stays known"
    );
    assert!(engine.query(&query).expect("query").pois.is_empty());
}
