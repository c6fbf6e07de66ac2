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

/// Broad semantic domain of a concept; the data generator uses domains to
/// compose plausible POIs (a ramen shop gets food and service concepts,
/// not oil changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Domain {
    /// National or regional cuisines.
    Cuisine,
    /// Specific dishes and food items.
    FoodItem,
    /// Drinks and beverage programs.
    Drink,
    /// Atmosphere and setting.
    Ambience,
    /// Things to do at the venue.
    Activity,
    /// Service qualities and policies.
    Service,
    /// Physical amenities.
    Amenity,
    /// Dietary accommodations.
    Dietary,
    /// Non-food retail and services.
    Retail,
    /// Automotive services.
    Automotive,
    /// Health, beauty, and wellness.
    Wellness,
    /// Lodging, culture, and recreation.
    Leisure,
}

/// One semantic concept.
#[derive(Debug, Clone)]
pub struct Concept {
    /// Dense id.
    pub id: ConceptId,
    /// Stable kebab-case name, e.g. `live-sports-viewing`.
    pub name: &'static str,
    /// The concept's domain.
    pub domain: Domain,
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
