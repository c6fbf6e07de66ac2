//! Figure-1 reproduction: the keyword-matching gap.
//!
//! The paper opens with a Google Maps search for "café" in Melbourne CBD
//! that returns only venues literally containing the keyword, missing
//! "Industry Beans" and "Starbucks". This example reproduces the effect
//! measurably: a classic IR-tree keyword search vs SemaSK on the same
//! range, sliced by whether a café's text (everything the keyword
//! search indexes: name, categories, tips and the rest) holds the word
//! at all, and by name opacity. It checks the conclusion it prints
//! against its own counts.
//!
//! ```sh
//! cargo run --release --example keyword_gap
//! ```

use std::collections::HashSet;
use std::sync::Arc;

use datagen::names::NameStyle;
use geotext::BoundingBox;
use llm::SimLlm;
use semask::{prepare_city, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};
use spatial::{IrTree, SpatialKeywordQuery};

fn main() {
    let city = datagen::poi::generate_city(&datagen::CITIES[0], 1200, 11);
    let ontology = concepts::Ontology::builtin();
    let coffee = ontology.id_of("coffee-specialty");

    // The "CBD": a 5 km x 5 km box downtown.
    let range = BoundingBox::from_center_km(datagen::CITIES[0].center(), 5.0, 5.0);

    // Ground truth: every in-range POI that actually is a café.
    let cafes: Vec<_> = city
        .dataset
        .range_scan(&range)
        .into_iter()
        .filter(|&id| ontology.satisfies(city.concepts_of(id), coffee))
        .collect();
    let opaque: Vec<_> = cafes
        .iter()
        .copied()
        .filter(|&id| city.name_styles[id.index()] == NameStyle::Opaque)
        .collect();
    // The cafés whose text never says "cafe", under the tokenizer the
    // keyword search uses: invisible to literal matching whatever their
    // name.
    let tokenizer = textindex::Tokenizer::new();
    let cafe = tokenizer.tokenize("cafe");
    let unsaid: Vec<_> = cafes
        .iter()
        .copied()
        .filter(|&id| {
            let tokens = tokenizer.tokenize(&city.dataset[id].to_document());
            !cafe.iter().all(|t| tokens.contains(t))
        })
        .collect();
    println!(
        "{} cafés inside the range; {} have opaque names (no 'cafe'/'coffee' in the name), \
         {} never say 'cafe' anywhere in their text",
        cafes.len(),
        opaque.len(),
        unsaid.len()
    );

    // --- Keyword matching (the Google-Maps-style search of Figure 1) ---
    let irtree = IrTree::build(&city.dataset);
    let keyword_hits: HashSet<_> = irtree
        .search(&SpatialKeywordQuery {
            range,
            keywords: "cafe".to_owned(),
        })
        .into_iter()
        .collect();
    let kw_found = cafes.iter().filter(|id| keyword_hits.contains(id)).count();
    let kw_found_opaque = opaque.iter().filter(|id| keyword_hits.contains(id)).count();
    let kw_found_unsaid = unsaid.iter().filter(|id| keyword_hits.contains(id)).count();
    println!("\nIR-tree keyword search for \"cafe\":");
    println!(
        "  finds {kw_found}/{} cafés overall, {kw_found_opaque}/{} of the opaque-named ones, \
         {kw_found_unsaid}/{} of those that never say 'cafe'",
        cafes.len(),
        opaque.len(),
        unsaid.len()
    );

    // --- SemaSK on the same intent ---
    let llm = Arc::new(SimLlm::new());
    let config = SemaSkConfig {
        k: 25,
        ..SemaSkConfig::default()
    };
    let prepared = Arc::new(prepare_city(&city, &llm, &config).expect("prep"));
    let engine = SemaSkEngine::new(prepared, llm, config, Variant::Full);
    let outcome = engine
        .query(&SemaSkQuery::new(range, "a café for a good cup of coffee"))
        .expect("query");
    let semask_ids: HashSet<_> = outcome.answer_ids().into_iter().collect();
    let sk_found = cafes.iter().filter(|id| semask_ids.contains(id)).count();
    let sk_found_opaque = opaque.iter().filter(|id| semask_ids.contains(id)).count();
    let sk_found_unsaid = unsaid.iter().filter(|id| semask_ids.contains(id)).count();
    println!("\nSemaSK on \"a café for a good cup of coffee\" (top-25 candidates):");
    println!(
        "  recommends {} POIs: {sk_found}/{} cafés overall, {sk_found_opaque}/{} of the \
         opaque-named ones, {sk_found_unsaid}/{} of those that never say 'cafe'",
        semask_ids.len(),
        cafes.len(),
        opaque.len(),
        unsaid.len()
    );
    for id in outcome.answer_ids().iter().take(8) {
        let o = &engine.prepared().dataset[*id];
        let style = match city.name_styles[id.index()] {
            NameStyle::Opaque => "(opaque name!)",
            NameStyle::Descriptive => "",
        };
        println!("    {:<26} {style}", o.name());
    }

    println!(
        "\nThe Figure-1 claim, quantified: keyword matching finds {kw_found_unsaid} of the {} \
         cafés whose text never says 'cafe',\nwhile semantics-aware search recovers \
         {sk_found_unsaid} of them. An opaque name alone does not hide a café\nhere: the \
         rest of its text (its categories, say) can still say 'cafe', so keyword matching \
         finds\n{kw_found_opaque}/{} opaque-named cafés and SemaSK {sk_found_opaque}/{}.",
        unsaid.len(),
        opaque.len(),
        opaque.len()
    );
    assert_eq!(
        kw_found_unsaid, 0,
        "literal keyword matching cannot find a café whose text lacks the keyword"
    );
    assert!(
        sk_found_unsaid > kw_found_unsaid,
        "the conclusion says SemaSK recovers cafés keyword matching cannot see"
    );
    assert!(
        sk_found_opaque >= kw_found_opaque,
        "SemaSK should never find fewer opaque cafés than keyword matching"
    );
}
