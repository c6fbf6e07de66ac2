//! Concept definitions.

/// Dense id of a concept within an [`crate::Ontology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ConceptId(pub u16);

impl ConceptId {
    /// The id as a usize, for slice indexing.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One semantic concept.
#[derive(Debug, Clone)]
pub struct Concept {
    /// Dense id.
    pub id: ConceptId,
    /// Stable kebab-case name, e.g. `live-sports-viewing`.
    pub name: &'static str,
    /// Phrases that literally name the concept. Keyword matching finds
    /// these.
    pub surface: &'static [&'static str],
    /// Phrases that imply the concept without naming it. Only semantic
    /// models find these.
    pub paraphrases: &'static [&'static str],
    /// Names of more general concepts this one implies (e.g. `espresso-
    /// drinks` implies `coffee-specialty`). Resolved to ids by the
    /// ontology.
    pub implies: &'static [&'static str],
}
