//! Test-query generation (the o1-mini task of Section 4).
//!
//! Given a POI information block, the simulated model picks one or two of
//! the POI's concepts and phrases a question about them *using
//! paraphrases that do not occur in the information text* — the paper's
//! instruction to produce "questions that are difficult to answer with
//! simple keyword matching, but easier with the semantic capabilities of
//! large language models".

use concepts::hash::{fnv1a, mix};
use concepts::{ConceptDetector, FidelityProfile};

/// Question templates; `{a}` and `{b}` are concept phrases.
const TEMPLATES_TWO: &[&str] = &[
    "I'm after a place known for {a} that also has {b}. Any recommendations?",
    "Where should I go if I want {a} and, ideally, {b}?",
    "Looking for somewhere with {a} — bonus points for {b}. What fits?",
];
const TEMPLATES_ONE: &[&str] = &[
    "Which place around here is best if I care about {a}?",
    "I'm looking for a spot with {a}. Do you have any recommendations?",
    "Where can I find {a}?",
];

/// Generates a query targeting the POI described by `info`. Deterministic
/// in `(info, profile)`.
#[must_use]
pub(crate) fn generate_query(
    info: &str,
    profile: &FidelityProfile,
    detector: &ConceptDetector,
) -> String {
    let ontology = detector.ontology();
    let info_lower = info.to_lowercase();
    let mut detected = detector.detect_noisy(info, profile);
    // Prefer the distinctive concepts (fewest implied generalities last).
    detected.sort_by_key(|d| d.concept);
    let h = fnv1a(info.as_bytes());

    // Choose up to two concepts, rotating by hash for variety.
    let chosen: Vec<_> = if detected.is_empty() {
        Vec::new()
    } else {
        let start = (mix(&[h, 1]) % detected.len() as u64) as usize;
        let mut v = vec![detected[start]];
        if detected.len() > 1 {
            let second = (start + 1 + (mix(&[h, 2]) % (detected.len() as u64 - 1)) as usize)
                % detected.len();
            if second != start {
                v.push(detected[second]);
            }
        }
        v
    };
    if chosen.is_empty() {
        return "What is a good place nearby worth visiting?".to_owned();
    }

    // Render each concept with a paraphrase NOT already present in the
    // info text ("difficult … with simple keyword matching").
    let phrase_for = |cid: concepts::ConceptId, salt: u64| -> String {
        let c = ontology.concept(cid);
        let n = c.paraphrases.len() as u64;
        for attempt in 0..n {
            let idx = ((mix(&[h, salt, attempt]) % n) as usize + attempt as usize) % n as usize;
            let p = c.paraphrases[idx];
            if !info_lower.contains(p) {
                return p.to_owned();
            }
        }
        // Everything already appears in the info; fall back to the name.
        c.name.replace('-', " ")
    };

    if chosen.len() >= 2 {
        let a = phrase_for(chosen[0].concept, 11);
        let b = phrase_for(chosen[1].concept, 22);
        let t = TEMPLATES_TWO[(mix(&[h, 3]) % TEMPLATES_TWO.len() as u64) as usize];
        t.replace("{a}", &a).replace("{b}", &b)
    } else {
        let a = phrase_for(chosen[0].concept, 11);
        let t = TEMPLATES_ONE[(mix(&[h, 3]) % TEMPLATES_ONE.len() as u64) as usize];
        t.replace("{a}", &a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> ConceptDetector {
        ConceptDetector::builtin()
    }

    #[test]
    fn query_avoids_surface_terms_from_info() {
        let d = det();
        let info = "The Corner Tap is a sports bar serving chicken wings and beer.";
        let q = generate_query(info, &FidelityProfile::perfect(), &d);
        // The query should not simply repeat the info's words verbatim.
        let ql = q.to_lowercase();
        assert!(!ql.contains("sports bar"), "query leaked surface term: {q}");
    }

    #[test]
    fn query_is_semantically_recoverable() {
        let d = det();
        let info = "Quiet Beans is a cafe with single origin pour overs and free wifi.";
        let q = generate_query(info, &FidelityProfile::perfect(), &d);
        // A perfect semantic model should detect at least one of the POI's
        // concepts in the generated query.
        let info_concepts = d.detect_ids(info);
        let query_concepts = d.detect_ids(&q);
        assert!(
            query_concepts.iter().any(|c| info_concepts.contains(c)),
            "query {q} shares no concept with info"
        );
    }

    #[test]
    fn deterministic() {
        let d = det();
        let p = FidelityProfile::o1_mini();
        let info = "Bella Notte serves fresh pasta made in house with candlelit tables for two.";
        assert_eq!(generate_query(info, &p, &d), generate_query(info, &p, &d));
    }

    #[test]
    fn conceptless_info_gets_fallback() {
        let d = det();
        let q = generate_query("zzz qqq", &FidelityProfile::perfect(), &d);
        assert!(q.contains("worth visiting"));
    }

    #[test]
    fn different_pois_get_different_queries() {
        let d = det();
        let p = FidelityProfile::o1_mini();
        let q1 = generate_query("A sports bar with big screens.", &p, &d);
        let q2 = generate_query("A cozy cafe with pour overs.", &p, &d);
        assert_ne!(q1, q2);
    }
}
