//! Query-result refinement (the GPT-4o / o1-mini task of Section 3.2).
//!
//! The simulated model reads the candidate POIs' raw attributes (the
//! prompt's JSON, as [`crate::prompts::extract_rerank`] scans it in one
//! pass: each POI's name and the concept reading of its string values,
//! no value tree and no copied text) and the user
//! query, judges semantic relevance by concept entailment at the
//! requesting model's fidelity, and emits the Python-dict-style
//! `{name: reason}` answer the paper's prompt demands — full matches
//! first, partial matches after (with their advantages and disadvantages
//! spelled out), and the empty dictionary when nothing is relevant.

use concepts::{ConceptDetector, ConceptId, FidelityProfile};

use crate::prompts::PromptPoi;
use crate::tasks::pretty_concept;

/// One entry of the re-ranked answer.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedEntry {
    /// POI name (the dict key).
    pub name: String,
    /// Why the model ranked it here (the dict value).
    pub reason: String,
    /// Whether every query requirement was matched (vs a partial match).
    pub full_match: bool,
    /// How many query requirements were matched.
    pub matched: usize,
}

/// Re-ranks `pois` against `query` at the given fidelity. Deterministic.
#[must_use]
pub fn rerank(
    pois: &[PromptPoi],
    query: &str,
    profile: &FidelityProfile,
    detector: &ConceptDetector,
) -> Vec<RankedEntry> {
    let ontology = detector.ontology();
    // What the model believes the query asks for.
    let required: Vec<ConceptId> = detector.detect_noisy_ids(query, profile);
    if required.is_empty() {
        // "If you could not complete the task … return the empty dictionary."
        return Vec::new();
    }

    struct Judged {
        entry: RankedEntry,
        held_occurrences: u32,
        original_index: usize,
    }

    let mut judged: Vec<Judged> = Vec::new();
    for (i, poi) in pois.iter().enumerate() {
        let detections = detector.detect_noisy_reading(&poi.reading, profile);
        let held: Vec<ConceptId> = detections.iter().map(|d| d.concept).collect();
        let matched_ids: Vec<ConceptId> = required
            .iter()
            .copied()
            .filter(|&r| ontology.satisfies(&held, r))
            .collect();
        if matched_ids.is_empty() {
            continue; // irrelevant: filtered out
        }
        let missing: Vec<ConceptId> = required
            .iter()
            .copied()
            .filter(|r| !matched_ids.contains(r))
            .collect();
        let full = missing.is_empty();
        let name = poi.name.clone();
        let matched_names: Vec<String> = matched_ids
            .iter()
            .map(|&c| pretty_concept(ontology, c))
            .collect();
        let reason = if full {
            format!(
                "{name} matches the request: it offers {}.",
                matched_names.join(" and ")
            )
        } else {
            let missing_names: Vec<String> = missing
                .iter()
                .map(|&c| pretty_concept(ontology, c))
                .collect();
            format!(
                "{name} partially matches: it offers {}, but there is no sign of {}.",
                matched_names.join(" and "),
                missing_names.join(" or ")
            )
        };
        let held_occurrences = detections
            .iter()
            .filter(|d| {
                matched_ids
                    .iter()
                    .any(|&m| d.concept == m || ontology.implied(d.concept).contains(&m))
            })
            .map(|d| d.occurrences)
            .sum();
        judged.push(Judged {
            entry: RankedEntry {
                name,
                reason,
                full_match: full,
                matched: matched_ids.len(),
            },
            held_occurrences,
            original_index: i,
        });
    }

    // Full matches first; more matched requirements first; stronger
    // textual evidence first; finally the retrieval order (embedding
    // rank) as the tiebreak.
    judged.sort_by(|a, b| {
        b.entry
            .full_match
            .cmp(&a.entry.full_match)
            .then(b.entry.matched.cmp(&a.entry.matched))
            .then(b.held_occurrences.cmp(&a.held_occurrences))
            .then(a.original_index.cmp(&b.original_index))
    });
    // Judgement call the prompt leaves to the model ("you *could* also
    // put it in the dictionary"): when full matches answer the question,
    // don't pad the result with partial matches.
    if judged.iter().any(|j| j.entry.full_match) {
        judged.retain(|j| j.entry.full_match);
    }
    judged.into_iter().map(|j| j.entry).collect()
}

/// Formats entries as the Python-dict answer the prompt requires.
#[must_use]
pub fn format_response(entries: &[RankedEntry]) -> String {
    if entries.is_empty() {
        return "{}".to_owned();
    }
    let mut s = String::from("{");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push('\'');
        s.push_str(&e.name.replace('\\', "\\\\").replace('\'', "\\'"));
        s.push_str("': '");
        s.push_str(&e.reason.replace('\\', "\\\\").replace('\'', "\\'"));
        s.push('\'');
    }
    s.push('}');
    s
}

/// Parses a Python-dict-style response back into ordered `(name, reason)`
/// pairs. Tolerates the empty dictionary.
#[must_use]
pub fn parse_rerank_response(s: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut chars = s.chars().peekable();
    for c in chars.by_ref() {
        if c == '{' {
            break;
        }
    }
    // Parse quoted keys until '}' (or exhaustion); each key is followed
    // by ':' and a quoted value.
    while let Some(key) = parse_quoted(&mut chars) {
        for c in chars.by_ref() {
            if c == ':' {
                break;
            }
        }
        let Some(value) = parse_quoted(&mut chars) else {
            break;
        };
        out.push((key, value));
    }
    out
}

fn parse_quoted(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    // Find the opening quote (or give up at '}'), remembering which quote
    // character opened the string — only that character closes it, so an
    // un-escaped `"` inside a `'`-quoted value is plain content.
    let open = loop {
        match chars.next()? {
            q @ ('\'' | '"') => break q,
            '}' => return None,
            _ => {}
        }
    };
    let mut s = String::new();
    loop {
        let c = chars.next()?;
        if c == '\\' {
            if let Some(next) = chars.next() {
                s.push(next);
            }
        } else if c == open {
            return Some(s);
        } else {
            s.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> ConceptDetector {
        ConceptDetector::builtin()
    }

    fn poi(d: &ConceptDetector, name: &str, categories: &str, tips: [&str; 2]) -> PromptPoi {
        PromptPoi {
            name: name.to_owned(),
            reading: d.read(&format!("{categories}. {name}. {}. {}. ", tips[0], tips[1])),
        }
    }

    fn pois() -> Vec<PromptPoi> {
        let d = &det();
        vec![
            poi(
                d,
                "The Corner Tap",
                "Bars, Sports Bars",
                [
                    "big screens on every wall",
                    "saucy drums and flats with blue cheese",
                ],
            ),
            poi(
                d,
                "Bella Notte",
                "Italian",
                ["fresh pasta made in house", "candlelit tables for two"],
            ),
            poi(
                d,
                "Quiet Beans",
                "Coffee & Tea",
                ["single origin pour overs", "laptop crowd on weekdays"],
            ),
        ]
    }

    #[test]
    fn relevant_poi_ranked_first_and_irrelevant_filtered() {
        let d = det();
        let r = rerank(
            &pois(),
            "somewhere to watch the game that serves chicken wings",
            &FidelityProfile::perfect(),
            &d,
        );
        assert!(!r.is_empty());
        assert_eq!(r[0].name, "The Corner Tap");
        assert!(r[0].full_match);
        // The Italian place has neither requirement: filtered out.
        assert!(!r.iter().any(|e| e.name == "Bella Notte"));
    }

    #[test]
    fn partial_match_listed_with_disadvantages() {
        let d = det();
        // Wings + romantic: nothing matches both; the bar matches wings.
        let r = rerank(
            &pois(),
            "a romantic place with chicken wings",
            &FidelityProfile::perfect(),
            &d,
        );
        let bar = r.iter().find(|e| e.name == "The Corner Tap").unwrap();
        assert!(!bar.full_match);
        assert!(bar.reason.contains("no sign of"));
        let bella = r.iter().find(|e| e.name == "Bella Notte").unwrap();
        assert!(!bella.full_match);
        // Full matches (none) would precede partials; partial with more
        // matches first.
        assert!(r.iter().all(|e| !e.full_match));
    }

    #[test]
    fn unintelligible_query_returns_empty() {
        let d = det();
        let r = rerank(&pois(), "qqq zzz xyzzy", &FidelityProfile::perfect(), &d);
        assert!(r.is_empty());
        assert_eq!(format_response(&r), "{}");
    }

    #[test]
    fn response_roundtrip() {
        let d = det();
        let r = rerank(
            &pois(),
            "good coffee for working on my laptop",
            &FidelityProfile::perfect(),
            &d,
        );
        let s = format_response(&r);
        let parsed = parse_rerank_response(&s);
        assert_eq!(parsed.len(), r.len());
        assert_eq!(parsed[0].0, r[0].name);
        assert_eq!(parsed[0].1, r[0].reason);
    }

    #[test]
    fn parse_handles_empty_dict() {
        assert!(parse_rerank_response("{}").is_empty());
        assert!(parse_rerank_response("").is_empty());
    }

    #[test]
    fn parse_handles_escaped_quotes() {
        let entries = vec![RankedEntry {
            name: "Mike's Place".to_owned(),
            reason: "it's the best".to_owned(),
            full_match: true,
            matched: 1,
        }];
        let s = format_response(&entries);
        let parsed = parse_rerank_response(&s);
        assert_eq!(parsed[0].0, "Mike's Place");
        assert_eq!(parsed[0].1, "it's the best");
    }

    #[test]
    fn deterministic_given_model() {
        let d = det();
        let p = FidelityProfile::gpt4o();
        let q = "a cozy spot with inventive seasonal drinks list";
        assert_eq!(rerank(&pois(), q, &p, &d), rerank(&pois(), q, &p, &d));
    }
}
