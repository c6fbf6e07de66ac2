//! Task handlers behind the chat API.

pub mod querygen;
pub mod rerank;
pub mod summarize;

use concepts::hash::{mix, unit_float};
use concepts::{ConceptId, Ontology};

/// Human-readable name of a concept ("live-sports-viewing" → "live sports
/// viewing"), used in generated reasons and summaries.
#[must_use]
pub(crate) fn pretty_concept(ontology: &Ontology, id: ConceptId) -> String {
    ontology.concept(id).name.replace('-', " ")
}

/// Deterministically picks a phrase for mentioning `id`: surface term
/// with probability `surface_p`, paraphrase otherwise. `salt` varies the
/// pick per call site.
#[must_use]
pub(crate) fn render_concept(
    ontology: &Ontology,
    id: ConceptId,
    surface_p: f64,
    salt: u64,
) -> &'static str {
    let c = ontology.concept(id);
    let h = mix(&[u64::from(id.0), salt]);
    let use_surface = unit_float(h) < surface_p || c.paraphrases.is_empty();
    let pool: &[&str] = if use_surface {
        c.surface
    } else {
        c.paraphrases
    };
    let pick = (mix(&[h, 13]) % pool.len() as u64) as usize;
    pool[pick]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_replaces_dashes() {
        let o = Ontology::builtin();
        let id = o.id_of("live-sports-viewing");
        assert_eq!(pretty_concept(o, id), "live sports viewing");
    }

    #[test]
    fn render_is_deterministic_and_valid() {
        let o = Ontology::builtin();
        let id = o.id_of("coffee-specialty");
        let a = render_concept(o, id, 0.7, 5);
        let b = render_concept(o, id, 0.7, 5);
        assert_eq!(a, b);
        let c = o.concept(id);
        assert!(c.surface.contains(&a) || c.paraphrases.contains(&a));
    }

    #[test]
    fn surface_probability_extremes() {
        let o = Ontology::builtin();
        let id = o.id_of("pizza");
        let c = o.concept(id);
        for salt in 0..50 {
            assert!(c.surface.contains(&render_concept(o, id, 1.0, salt)));
            assert!(c.paraphrases.contains(&render_concept(o, id, 0.0, salt)));
        }
    }
}
