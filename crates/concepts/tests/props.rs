//! Property-based tests for the semantic world model.

use concepts::{ConceptDetector, ConceptId, Detection, FidelityProfile, Ontology, Stems};
use proptest::prelude::*;
use textindex::tokenizer::stem;
use textindex::Tokenizer;

/// Detection written out longhand: every ontology phrase, stemmed as
/// collected tokens, counted wherever it occurs in the text's collected
/// stems — one count per distinct (concept, stemmed phrase), surface-ness
/// sticky across a concept's phrases.
fn reference_detect(text: &str) -> Vec<Detection> {
    let stems_of = |s: &str| -> Vec<String> {
        Tokenizer::raw()
            .tokenize(s)
            .iter()
            .map(|t| stem(t))
            .collect()
    };
    let tokens = stems_of(text);
    let mut phrases: Vec<(ConceptId, Vec<String>, bool)> = Vec::new();
    for c in Ontology::builtin().concepts() {
        for (list, surface) in [(c.surface, true), (c.paraphrases, false)] {
            for phrase in list {
                let stems = stems_of(phrase);
                if stems.is_empty() {
                    continue;
                }
                match phrases.iter_mut().find(|p| p.0 == c.id && p.1 == stems) {
                    Some(p) => p.2 |= surface,
                    None => phrases.push((c.id, stems, surface)),
                }
            }
        }
    }
    let mut out: Vec<Detection> = Vec::new();
    for (concept, stems, surface) in &phrases {
        let hits = tokens.windows(stems.len()).filter(|w| w == stems).count() as u32;
        if hits == 0 {
            continue;
        }
        match out.iter_mut().find(|d| d.concept == *concept) {
            Some(d) => {
                d.via_surface |= surface;
                d.occurrences += hits;
            }
            None => out.push(Detection {
                concept: *concept,
                via_surface: *surface,
                occurrences: hits,
            }),
        }
    }
    out.sort_by_key(|d| d.concept);
    out
}

/// Phrase texts with words that stem to nothing ("ness"), stopwords,
/// apostrophes and upper case between the phrases.
fn arb_mixed_text() -> impl Strategy<Value = String> {
    const GLUE: &[&str] = &[
        " ", " ness ", " the ", " Mike's ", ", ", " NESSES ", " 24/7 ",
    ];
    (
        arb_phrase_text(),
        prop::collection::vec(0usize..GLUE.len(), 1..4),
    )
        .prop_map(|(text, glue)| {
            text.split(" and ")
                .enumerate()
                .map(|(i, part)| format!("{part}{}", GLUE[glue[i % glue.len()]]))
                .collect()
        })
}

/// Phrase texts with a word outside the phrase vocabulary ("xq…") pushed
/// in after every `step`-th word, so multi-word phrases are cut apart by
/// a stem that has no id.
fn arb_interrupted_text() -> impl Strategy<Value = String> {
    (arb_phrase_text(), 1usize..4, "[a-z]{0,3}").prop_map(|(text, step, tail)| {
        let mut out = String::new();
        for (i, word) in text.split(' ').enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(word);
            if i % step == step - 1 {
                out.push_str(" xq");
                out.push_str(&tail);
            }
        }
        out
    })
}

fn arb_phrase_text() -> impl Strategy<Value = String> {
    // Texts assembled from real ontology phrases plus noise words.
    let o = Ontology::builtin();
    let phrases: Vec<String> = o
        .concepts()
        .iter()
        .flat_map(|c| {
            c.surface
                .iter()
                .chain(c.paraphrases)
                .map(|s| (*s).to_owned())
        })
        .collect();
    (
        prop::collection::vec(0usize..phrases.len(), 0..5),
        prop::collection::vec("[a-z]{3,8}", 0..5),
    )
        .prop_map(move |(idx, noise)| {
            let mut parts: Vec<String> = idx.iter().map(|&i| phrases[i].clone()).collect();
            parts.extend(noise);
            parts.join(" and ")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn noisy_nonhallucinated_detections_are_subset_of_exact(text in arb_phrase_text()) {
        let d = ConceptDetector::builtin();
        // A profile without hallucinations can only *drop* detections.
        let profile = FidelityProfile {
            hallucination_rate: 0.0,
            ..FidelityProfile::embedding_small()
        };
        let exact: Vec<_> = d.detect_ids(&text);
        for c in d.detect_noisy_ids(&text, &profile) {
            prop_assert!(exact.contains(&c));
        }
    }

    #[test]
    fn perfect_profile_equals_exact(text in arb_phrase_text()) {
        let d = ConceptDetector::builtin();
        prop_assert_eq!(
            d.detect(&text),
            d.detect_noisy(&text, &FidelityProfile::perfect())
        );
    }

    #[test]
    fn detection_from_stems_equals_detection_from_text(text in arb_mixed_text()) {
        let d = ConceptDetector::builtin();
        let mut stems = Stems::default();
        d.tokenizer().for_each_token(&text, |tok| {
            stems.push(tok);
        });
        let collected: Vec<String> =
            Tokenizer::raw().tokenize(&text).iter().map(|t| stem(t)).collect();
        prop_assert_eq!(stems.iter().collect::<Vec<_>>(), collected);
        let exact = d.detect(&text);
        prop_assert_eq!(&d.detect_stems(&stems), &exact);
        prop_assert_eq!(&exact, &reference_detect(&text), "{:?}", text);
        let profile = FidelityProfile::embedding_small();
        prop_assert_eq!(
            d.detect_noisy_stems(&text, &stems, &profile),
            d.detect_noisy(&text, &profile)
        );
    }

    #[test]
    fn stems_outside_the_vocabulary_break_phrases(text in arb_interrupted_text()) {
        let d = ConceptDetector::builtin();
        let mut stems = Stems::default();
        d.tokenizer().for_each_token(&text, |tok| {
            stems.push(tok);
        });
        let exact = d.detect(&text);
        prop_assert_eq!(&d.detect_stems(&stems), &exact);
        prop_assert_eq!(&exact, &reference_detect(&text), "{:?}", text);
    }

    #[test]
    fn detection_is_case_insensitive(text in arb_phrase_text()) {
        let d = ConceptDetector::builtin();
        prop_assert_eq!(d.detect_ids(&text), d.detect_ids(&text.to_uppercase()));
    }

    #[test]
    fn satisfies_is_reflexive_and_monotone(
        a in 0u16..90, b in 0u16..90,
    ) {
        let o = Ontology::builtin();
        let a = concepts::ConceptId(a % o.len() as u16);
        let b = concepts::ConceptId(b % o.len() as u16);
        prop_assert!(o.satisfies(&[a], a));
        // Adding concepts never removes satisfaction.
        if o.satisfies(&[a], b) {
            prop_assert!(o.satisfies(&[a, concepts::ConceptId(0)], b));
        }
    }

    #[test]
    fn implied_closure_is_transitive(c in 0u16..90) {
        let o = Ontology::builtin();
        let c = concepts::ConceptId(c % o.len() as u16);
        for &d in o.implied(c) {
            for &e in o.implied(d) {
                prop_assert!(
                    o.implied(c).contains(&e),
                    "closure not transitive: {} -> {} -> {}",
                    o.concept(c).name,
                    o.concept(d).name,
                    o.concept(e).name
                );
            }
        }
    }
}
