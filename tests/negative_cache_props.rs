//! The negative cache's one-sided error contract, pinned against brute
//! force.
//!
//! The planner's provably-empty prescreen is a cuckoo filter over
//! **corpus tokens present** (see `semask::cuckoo` for why the polarity
//! is inverted from a naive "remember empty shapes" cache). Its
//! approximation may *false-positive* — claim a token is present when
//! it is not, which merely recomputes an empty answer the slow way —
//! but must never *false-negative*: claim a corpus token absent, which
//! would wrongly serve an empty answer for a query that has matches.
//!
//! Three layers of the contract:
//!
//! 1. the raw [`CuckooFilter`] vs an exact `HashSet` twin — every
//!    `contains == false` answer must be truly absent, across arbitrary
//!    insert/probe interleavings, before and after saturation;
//! 2. the engine's [`SemaSkEngine::provably_empty`] vs the executed
//!    answer — `true` must imply an empty result set for every probed
//!    query shape;
//! 3. stability under live growth — once a keyword stops being provably
//!    empty (its tokens entered the corpus), no later mutation may flip
//!    it back (vocabulary only grows).

mod common;

use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

use datagen::{poi::generate_city, CITIES};
use geotext::{BoundingBox, GeoPoint};
use llm::SimLlm;
use proptest::prelude::*;
use semask::{
    prepare_city, CuckooFilter, Mutation, PoiSpec, RetrievalStrategy, SemaSkEngine, SemaSkQuery,
    Variant,
};

// ---------------------------------------------------------------------
// Layer 1: filter vs exact-set twin.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn absence_answers_are_always_authoritative(
        capacity in 1usize..300,
        inserts in prop::collection::vec("[a-z]{1,6}", 0..400),
        probes in prop::collection::vec("[a-z]{1,6}", 0..64),
    ) {
        let mut filter = CuckooFilter::with_capacity(capacity);
        let mut truth: HashSet<String> = HashSet::new();
        for key in &inserts {
            // The production discipline (the corpus's `absorb`):
            // skip keys the filter already admits. A `true` answer is
            // stable forever, so the skip can never create a false
            // negative — even when the `true` was itself a false
            // positive, the twin below only checks `false` answers.
            if !filter.contains(key) {
                filter.insert(key);
            }
            truth.insert(key.clone());
            prop_assert!(
                filter.contains(key),
                "key {} vanished right after its insert", key
            );
        }
        // Every inserted key must still be found — saturation fails
        // open, so `contains` can only have become *more* permissive.
        for key in &truth {
            prop_assert!(filter.contains(key), "false negative for inserted key {}", key);
        }
        // And every "definitely absent" answer must be exactly true.
        for key in &probes {
            if !filter.contains(key) {
                prop_assert!(
                    !truth.contains(key),
                    "filter claimed inserted key {} is absent", key
                );
            }
        }
        if filter.is_saturated() {
            prop_assert!(filter.contains("anything-at-all"), "saturation must fail open");
        }
    }
}

// ---------------------------------------------------------------------
// Layers 2 + 3: engine-level contract under live growth.
// ---------------------------------------------------------------------

struct EngineHarness {
    engine: Arc<SemaSkEngine>,
    center: GeoPoint,
    /// Keywords observed non-provably-empty, with the insert counter at
    /// observation time — later cases re-check them (layer 3).
    admitted: Mutex<Vec<String>>,
    counter: Mutex<u32>,
}

fn engine_harness() -> &'static EngineHarness {
    static HARNESS: OnceLock<EngineHarness> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let data = generate_city(&CITIES[1], 60, 23);
        let center = data.city.center();
        let llm = Arc::new(SimLlm::new());
        let config = common::exact_only_config();
        let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prep"));
        EngineHarness {
            engine: Arc::new(SemaSkEngine::new(
                prepared,
                llm,
                config,
                Variant::EmbeddingOnly,
            )),
            center,
            admitted: Mutex::new(Vec::new()),
            counter: Mutex::new(0),
        }
    })
}

/// Tip vocabulary the interleaving draws inserted-POI tokens from; the
/// `zq`-prefixed ones cannot collide with generated city text, so
/// whether they are corpus-known is controlled entirely by this test's
/// own inserts.
const TIP_WORDS: &[&str] = &["zqlantern", "zqorchard", "zqgranite", "zqvelvet"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn provably_empty_is_authoritative_and_never_flips_back(
        ops in prop::collection::vec((0u8..4, 0u8..4, "[a-z]{1,7}"), 1..10),
    ) {
        let h = engine_harness();
        let range = BoundingBox::from_center_km(h.center, 6.0, 6.0);
        for (kind, word, random_kw) in ops {
            let tip_word = TIP_WORDS[word as usize % TIP_WORDS.len()];
            if kind == 0 {
                // Grow the corpus with a tip containing one controlled
                // token; POIs are never deleted here because the vocab
                // (and thus the prescreen) is append-only by design.
                let n = {
                    let mut c = h.counter.lock().unwrap();
                    *c += 1;
                    *c
                };
                h.engine
                    .apply_mutations(&[Mutation::Insert(PoiSpec {
                        name: format!("Prescreen Probe {n}"),
                        lat: h.center.lat + 0.002,
                        lon: h.center.lon - 0.002,
                        categories: vec!["cafe".to_owned()],
                        tips: vec![format!("a {tip_word} on every table")],
                    })])
                    .expect("insert");
            }
            // Probe a mix: the controlled tokens (absent until an op
            // inserts them, then present forever), and random keywords
            // that are usually out-of-vocabulary.
            for kw in [tip_word.to_owned(), random_kw.clone()] {
                let query = SemaSkQuery::new(range, "somewhere to sit down")
                    .with_keywords(kw.clone());
                if h.engine.provably_empty(&query) {
                    // Layer 2: `true` is authoritative — the executed
                    // answer must be empty.
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
        // Layer 3: everything ever admitted stays admitted — corpus
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
