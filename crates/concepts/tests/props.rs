//! Property-based tests for the semantic world model.

use concepts::hash::fnv1a;
use concepts::{ConceptDetector, ConceptId, Detection, FidelityProfile, Ontology, Reading};
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

/// Words a reader must get right: ontology phrase words with suffixes
/// that stem back into the vocabulary ("screens", "watching", "berries"),
/// multi-char lower-casing (`İ` → `i̇`), apostrophes inside and around
/// words, digits, tokens longer than 16 bytes (longer than any stem),
/// non-ASCII letters and whitespace, and upper case.
fn arb_segments() -> impl Strategy<Value = Vec<String>> {
    const WORDS: &[&str] = &[
        "big",
        "screens",
        "wall",
        "watching",
        "games",
        "pizzas",
        "berries",
        "burgers",
        "coffee",
        "pour",
        "overs",
        "candlelit",
        "tables",
        "sportsbars",
        "Mike's",
        "'quoted'",
        "don't",
        "24/7",
        "9:0-21:0",
        "4.5",
        "İstanbul",
        "İİ",
        "CAFÉ",
        "straße",
        "ΣΟΦΙΑ",
        "ǅemal",
        "naïve",
        "\u{a0}",
        "\u{3000}",
        "supercalifragilisticexpialidocious",
        "screeningsnesses",
        "ness",
        "relaxations",
        "tea",
        "live",
        "music",
        "happy",
        "hour",
        "wifi",
    ];
    const GLUE: &[&str] = &[" ", " ", ", ", "'", "-", "", ". ", "\n"];
    prop::collection::vec(
        prop::collection::vec((0usize..WORDS.len(), 0usize..GLUE.len()), 0..8),
        0..6,
    )
    .prop_map(|segments| {
        segments
            .iter()
            .map(|words| {
                words
                    .iter()
                    .map(|&(w, g)| format!("{}{}", WORDS[w], GLUE[g]))
                    .collect()
            })
            .collect()
    })
}

/// Reads `segments` in order through one reader.
fn read_segments(d: &ConceptDetector, segments: &[&str]) -> Reading {
    let mut reader = d.reader();
    for s in segments {
        reader.push(s);
    }
    reader.finish()
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
    fn detection_from_a_reading_equals_detection_from_text(text in arb_mixed_text()) {
        let d = ConceptDetector::builtin();
        let reading = d.read(&text);
        prop_assert_eq!(reading.hash(), fnv1a(text.as_bytes()));
        let exact = d.detect(&text);
        prop_assert_eq!(&d.detect_reading(&reading), &exact);
        prop_assert_eq!(&exact, &reference_detect(&text), "{:?}", text);
        let profile = FidelityProfile::embedding_small();
        prop_assert_eq!(
            d.detect_noisy_reading(&reading, &profile),
            d.detect_noisy(&text, &profile)
        );
    }

    #[test]
    fn stems_outside_the_vocabulary_break_phrases(text in arb_interrupted_text()) {
        let d = ConceptDetector::builtin();
        let exact = d.detect_reading(&d.read(&text));
        prop_assert_eq!(&exact, &reference_detect(&text), "{:?}", text);
    }

    #[test]
    fn a_reading_of_segments_is_the_reading_of_their_text(
        segments in arb_segments(),
        sep in 0usize..2,
        cut in 0usize..64,
    ) {
        let d = ConceptDetector::builtin();
        let sep = [". ", " "][sep];
        // Each segment followed by `sep`, as the prompt scanner feeds
        // string values, and joined by `sep`, as the summarizer feeds
        // tips.
        let mut followed = Vec::new();
        for s in &segments {
            followed.push(s.as_str());
            followed.push(sep);
        }
        let joined = segments.join(sep);
        for (parts, text) in [
            (followed.clone(), followed.concat()),
            (followed[..followed.len().saturating_sub(1)].to_vec(), joined),
        ] {
            let reading = read_segments(&d, &parts);
            prop_assert_eq!(reading.hash(), fnv1a(text.as_bytes()), "{:?}", text);
            prop_assert_eq!(&reading, &d.read(&text), "{:?}", text);
            prop_assert_eq!(&d.detect_reading(&reading), &reference_detect(&text), "{:?}", text);
            // Cut anywhere, even inside a word, the pieces read the same.
            let at = (0..=text.len())
                .filter(|&i| text.is_char_boundary(i))
                .nth(cut)
                .unwrap_or(text.len());
            let (a, b) = text.split_at(at);
            prop_assert_eq!(&read_segments(&d, &[a, "", b]), &reading, "{:?} cut at {}", text, at);
        }
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
