//! Tip summarization (the GPT-3.5 Turbo task of Section 3.1).
//!
//! The simulated model reads the tips, recovers the concepts they express
//! (at the requesting model's fidelity — an imperfect summarizer drops
//! information, which then degrades the embeddings built *from* the
//! summary, exactly as in the real pipeline), and writes a ~55-token
//! fluent summary mentioning each recovered concept.
//!
//! The tips are read once: fed to the detector's [`concepts::Reader`] as
//! the text they would join into with `" "`, which is never written.
//! Detection noise and the phrase salt both come from that reading's
//! hash, the FNV-1a of the joined text.

use concepts::{ConceptDetector, FidelityProfile};

use crate::tasks::render_concept;

/// Maximum concepts mentioned per summary (keeps summaries near the
/// paper's reported 55-token average).
const MAX_CONCEPTS: usize = 7;

/// Summarizes `tips` at the given fidelity. Deterministic.
#[must_use]
pub fn summarize(tips: &[String], profile: &FidelityProfile, detector: &ConceptDetector) -> String {
    // The tips are read as the one text they would join into with " ".
    let mut reader = detector.reader();
    for (i, tip) in tips.iter().enumerate() {
        if i > 0 {
            reader.push(" ");
        }
        reader.push(tip);
    }
    let reading = reader.finish();
    let mut detections = detector.detect_noisy_reading(&reading, profile);
    // Most-mentioned concepts first: a summarizer keeps the dominant
    // themes.
    detections.sort_by(|a, b| {
        b.occurrences
            .cmp(&a.occurrences)
            .then(a.concept.cmp(&b.concept))
    });
    detections.truncate(MAX_CONCEPTS);

    if detections.is_empty() {
        return "The feedback is sparse and does not highlight any consistent theme.".to_owned();
    }

    let ontology = detector.ontology();
    let salt = reading.hash();
    let phrases: Vec<String> = detections
        .iter()
        .enumerate()
        .map(|(i, d)| {
            // Summaries mostly restate themes in plain (surface) terms, the
            // way an LLM abstracts reviews.
            render_concept(ontology, d.concept, 0.75, salt ^ (i as u64 + 1)).to_owned()
        })
        .collect();

    let mut summary = String::from("The feedback highlights ");
    match phrases.len() {
        1 => summary.push_str(&phrases[0]),
        2 => {
            summary.push_str(&phrases[0]);
            summary.push_str(" and ");
            summary.push_str(&phrases[1]);
        }
        _ => {
            let head = &phrases[..phrases.len() - 1];
            summary.push_str(&head.join(", "));
            summary.push_str(", and ");
            summary.push_str(&phrases[phrases.len() - 1]);
        }
    }
    summary.push('.');
    if phrases.len() > 3 {
        summary.push_str(" Visitors repeatedly mention ");
        summary.push_str(&phrases[0]);
        summary.push_str(" as the standout.");
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use concepts::FidelityProfile;

    fn det() -> ConceptDetector {
        ConceptDetector::builtin()
    }

    #[test]
    fn summary_mentions_dominant_concepts() {
        let tips = vec![
            "Great coffee and the baristas are friendly".to_owned(),
            "Love the coffee here, cozy space".to_owned(),
            "coffee is excellent".to_owned(),
        ];
        let d = det();
        let s = summarize(&tips, &FidelityProfile::perfect(), &d);
        // At perfect fidelity the dominant concept (coffee) must appear in
        // re-detection of the summary.
        let ids = d.detect_ids(&s);
        assert!(
            ids.contains(&d.ontology().id_of("coffee-specialty")),
            "summary: {s}"
        );
    }

    #[test]
    fn summary_is_deterministic() {
        let tips = vec!["amazing pizza, thin crust charred at the edges".to_owned()];
        let d = det();
        let p = FidelityProfile::gpt35_turbo();
        assert_eq!(summarize(&tips, &p, &d), summarize(&tips, &p, &d));
    }

    #[test]
    fn empty_concepts_gives_fallback() {
        let tips = vec!["zzz qqq xxx".to_owned()];
        let d = det();
        let s = summarize(&tips, &FidelityProfile::perfect(), &d);
        assert!(s.contains("sparse"));
    }

    #[test]
    fn summary_token_count_near_paper_average() {
        // Paper: generated summaries average ~55 tokens. Rich tips should
        // produce summaries in the same ballpark (20–80 tokens).
        let tips = vec![
            "Great wings and cold beer, big screens on every wall".to_owned(),
            "Friendly staff, fast service even on game day".to_owned(),
            "Cozy patio outside, dogs welcome".to_owned(),
            "The burgers are juicy and huge".to_owned(),
        ];
        let d = det();
        let s = summarize(&tips, &FidelityProfile::perfect(), &d);
        let toks = crate::tokens::approx_tokens(&s);
        assert!((15..=90).contains(&toks), "summary has {toks} tokens: {s}");
    }

    #[test]
    fn lower_fidelity_preserves_fewer_concepts() {
        // Across many POIs, gpt-3.5 summaries should preserve fewer
        // concepts than perfect summaries.
        let d = det();
        let mut perfect_total = 0usize;
        let mut noisy_total = 0usize;
        for seed in 0..30u64 {
            let tips = vec![
                format!("visit number {seed}: candlelit tables for two"),
                "rotating taps of local brews".to_owned(),
                "shaded loops for morning runs".to_owned(),
            ];
            let sp = summarize(&tips, &FidelityProfile::perfect(), &d);
            let sn = summarize(&tips, &FidelityProfile::gpt35_turbo(), &d);
            perfect_total += d.detect_ids(&sp).len();
            noisy_total += d.detect_ids(&sn).len();
        }
        assert!(noisy_total <= perfect_total);
    }
}
