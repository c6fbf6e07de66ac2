//! Tip (short review) generation.
//!
//! Tips are rendered from a POI's latent concepts. Each concept is
//! guaranteed at least one mention across the POI's tips (so a perfect
//! reader *can* recover the ground truth), and each mention uses either a
//! surface term or a paraphrase — the mix that makes keyword matching
//! lossy but semantics recoverable. Volume is calibrated to the paper's
//! statistics: ~11 tips and ~147 tokens per POI.

use concepts::{ConceptId, Ontology};
use rand::rngs::StdRng;
use rand::Rng;

/// Probability a concept mention uses a surface term (vs a paraphrase).
const SURFACE_PROB: f64 = 0.55;

/// Openers that wrap a concept phrase into a review sentence.
const OPENERS: &[&str] = &[
    "",
    "Love this place - ",
    "Came by on a whim and ",
    "Honestly, ",
    "Can confirm: ",
    "Third visit this month. ",
    "If you're nearby, ",
    "Don't sleep on this spot. ",
];

/// Closers appended to some tips.
const CLOSERS: &[&str] = &[
    "",
    " Will be back!",
    " Five stars from me.",
    " Worth the trip.",
    " You won't regret it.",
    " Tell them I sent you.",
    " Solid all around.",
];

/// Concept-free filler tips (reviews often say nothing specific).
const FILLERS: &[&str] = &[
    "Solid spot, no complaints.",
    "Exactly what it says on the tin.",
    "Decent overall, would return.",
    "My go-to in this part of town.",
    "Pretty good, nothing to add.",
    "Does the job every time.",
];

fn phrase_for(ontology: &Ontology, id: ConceptId, rng: &mut StdRng) -> &'static str {
    let c = ontology.concept(id);
    let surface = rng.gen_bool(SURFACE_PROB) || c.paraphrases.is_empty();
    let pool: &[&str] = if surface { c.surface } else { c.paraphrases };
    pool[rng.gen_range(0..pool.len())]
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// Renders one tip mentioning the given concept phrases.
fn render_tip(phrases: &[&str], rng: &mut StdRng) -> String {
    let opener = OPENERS[rng.gen_range(0..OPENERS.len())];
    let closer = CLOSERS[rng.gen_range(0..CLOSERS.len())];
    let body = match phrases.len() {
        0 => FILLERS[rng.gen_range(0..FILLERS.len())].to_owned(),
        1 => format!("{}.", phrases[0]),
        _ => format!("{}, and {} too.", phrases[0], phrases[1]),
    };
    let mut tip = if opener.is_empty() {
        capitalize(&body)
    } else {
        format!("{opener}{body}")
    };
    tip.push_str(closer);
    tip
}

/// Generates the tips for a POI holding `concepts`.
///
/// Guarantees: every concept appears in at least one tip; tip count is
/// ~7–15 (mean ≈ 11).
pub(crate) fn generate_tips(
    concepts: &[ConceptId],
    ontology: &Ontology,
    rng: &mut StdRng,
) -> Vec<String> {
    let n_tips = rng.gen_range(7usize..=15).max(concepts.len());
    let mut tips = Vec::with_capacity(n_tips);

    // Pass 1: one tip per concept (guaranteed coverage), sometimes
    // pairing the concept with a second random concept.
    for (i, &c) in concepts.iter().enumerate() {
        let mut phrases = vec![phrase_for(ontology, c, rng)];
        if concepts.len() > 1 && rng.gen_bool(0.35) {
            let other = concepts[(i + 1 + rng.gen_range(0..concepts.len() - 1)) % concepts.len()];
            if other != c {
                phrases.push(phrase_for(ontology, other, rng));
            }
        }
        tips.push(render_tip(&phrases, rng));
    }

    // Pass 2: fill to n_tips with repeat mentions and fillers.
    while tips.len() < n_tips {
        if !concepts.is_empty() && rng.gen_bool(0.7) {
            let c = concepts[rng.gen_range(0..concepts.len())];
            tips.push(render_tip(&[phrase_for(ontology, c, rng)], rng));
        } else {
            tips.push(render_tip(&[], rng));
        }
    }
    tips
}

#[cfg(test)]
mod tests {
    use super::*;
    use concepts::ConceptDetector;
    use rand::SeedableRng;

    fn ontology() -> &'static Ontology {
        Ontology::builtin()
    }

    fn sample_concepts() -> Vec<ConceptId> {
        let o = ontology();
        vec![
            o.id_of("live-sports-viewing"),
            o.id_of("chicken-wings"),
            o.id_of("craft-beer"),
            o.id_of("friendly-staff"),
        ]
    }

    #[test]
    fn every_concept_is_recoverable_from_tips() {
        let o = ontology();
        let detector = ConceptDetector::builtin();
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let concepts = sample_concepts();
            let tips = generate_tips(&concepts, o, &mut rng);
            let joined = tips.join(" ");
            let found = detector.detect_ids(&joined);
            for c in &concepts {
                assert!(
                    found.contains(c),
                    "seed {seed}: concept {} not recoverable from {joined:?}",
                    o.concept(*c).name
                );
            }
        }
    }

    #[test]
    fn tip_count_in_paper_range() {
        let o = ontology();
        let mut rng = StdRng::seed_from_u64(5);
        let mut total = 0usize;
        let runs = 200;
        for _ in 0..runs {
            total += generate_tips(&sample_concepts(), o, &mut rng).len();
        }
        let avg = total as f64 / runs as f64;
        assert!((9.0..=13.0).contains(&avg), "avg tips {avg}");
    }

    #[test]
    fn token_volume_in_paper_range() {
        // Paper: ~147 tokens of tips per POI.
        let o = ontology();
        let mut rng = StdRng::seed_from_u64(9);
        let mut total_tokens = 0usize;
        let runs = 100;
        for _ in 0..runs {
            let tips = generate_tips(&sample_concepts(), o, &mut rng);
            total_tokens += tips
                .iter()
                .map(|t| t.split_whitespace().count())
                .sum::<usize>();
        }
        let avg = total_tokens as f64 / runs as f64;
        assert!((70.0..=220.0).contains(&avg), "avg tip tokens {avg}");
    }

    #[test]
    fn deterministic_per_seed() {
        let o = ontology();
        let mut r1 = StdRng::seed_from_u64(11);
        let mut r2 = StdRng::seed_from_u64(11);
        assert_eq!(
            generate_tips(&sample_concepts(), o, &mut r1),
            generate_tips(&sample_concepts(), o, &mut r2)
        );
    }

    #[test]
    fn conceptless_poi_gets_filler_tips() {
        let o = ontology();
        let mut rng = StdRng::seed_from_u64(2);
        let tips = generate_tips(&[], o, &mut rng);
        assert!(tips.len() >= 7);
    }
}
