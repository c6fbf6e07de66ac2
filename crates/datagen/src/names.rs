//! POI name generation.
//!
//! Three naming patterns, matching how real venues are named:
//!
//! 1. `"{Owner}'s {TypeWord}"` — contains the category word ("Rosie's
//!    Cafe"),
//! 2. `"{Adjective} {TypeWord}"` — contains the category word ("Golden
//!    Grill"),
//! 3. **opaque** — `"{EvocativeA} {EvocativeB}"` with *no* category word
//!    ("Industry Beans"). These are the POIs that pure keyword matching
//!    misses — the paper's Figure 1 motivation.

use rand::rngs::StdRng;
use rand::Rng;

use crate::taxonomy::Archetype;

const OWNERS: &[&str] = &[
    "Rosie", "Mike", "Sal", "Maria", "Hank", "June", "Leo", "Priya", "Omar", "Gus", "Dot",
    "Frankie", "Nina", "Ray", "Lola", "Marco", "Ivy", "Joe", "Stella", "Max", "Ruby", "Ana",
    "Teddy", "Wanda", "Felix", "Mabel", "Otis", "Pearl", "Hugo", "Greta",
];

const ADJECTIVES: &[&str] = &[
    "Golden",
    "Blue Door",
    "Silver",
    "Lucky",
    "Old Town",
    "Union",
    "Royal",
    "Sunny",
    "Copper",
    "Broad Street",
    "Midtown",
    "Crosstown",
    "Riverside",
    "Hilltop",
    "Cornerstone",
    "Twin Oaks",
    "Redbrick",
    "Ironwood",
    "Harbor",
    "Summit",
    "Prairie",
    "Magnolia",
    "Cedar",
    "Walnut",
    "Fiveway",
    "Northside",
    "Southern",
    "Grand",
    "Little",
    "Velvet",
];

const EVOCATIVE_A: &[&str] = &[
    "Industry",
    "Anchor",
    "Crane",
    "Harvest",
    "Ember",
    "Drift",
    "Folk",
    "Hollow",
    "Wren",
    "Juniper",
    "Atlas",
    "Meridian",
    "Paper",
    "Stone",
    "Fable",
    "Garland",
    "Noble",
    "Quill",
    "Raven",
    "Sparrow",
    "Thistle",
    "Vagabond",
    "Willow",
    "Zephyr",
    "Cobalt",
    "Dandelion",
];

const EVOCATIVE_B: &[&str] = &[
    "Beans",
    "& Co",
    "Social",
    "Collective",
    "Works",
    "Supply",
    "Exchange",
    "Project",
    "Standard",
    "Union",
    "House",
    "Hall",
    "Department",
    "Society",
    "Club",
    "Room",
    "Post",
    "Mercantile",
    "Commons",
    "Parlor",
];

/// How a name was formed — recorded so experiments can slice results by
/// name opacity (the Figure-1 analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameStyle {
    /// Name contains the archetype's category word.
    Descriptive,
    /// Name is evocative and category-free.
    Opaque,
}

/// Generates a `(name, style)` pair for an archetype.
pub(crate) fn generate_name(archetype: &Archetype, rng: &mut StdRng) -> (String, NameStyle) {
    let roll: f64 = rng.gen();
    if roll < 0.40 {
        let owner = OWNERS[rng.gen_range(0..OWNERS.len())];
        let word = archetype.type_words[rng.gen_range(0..archetype.type_words.len())];
        (format!("{owner}'s {word}"), NameStyle::Descriptive)
    } else if roll < 0.70 {
        let adj = ADJECTIVES[rng.gen_range(0..ADJECTIVES.len())];
        let word = archetype.type_words[rng.gen_range(0..archetype.type_words.len())];
        (format!("{adj} {word}"), NameStyle::Descriptive)
    } else {
        let a = EVOCATIVE_A[rng.gen_range(0..EVOCATIVE_A.len())];
        let b = EVOCATIVE_B[rng.gen_range(0..EVOCATIVE_B.len())];
        (format!("{a} {b}"), NameStyle::Opaque)
    }
}

/// Street names for partial addresses.
pub(crate) const STREETS: &[&str] = &[
    "2nd Ave N",
    "Main St",
    "Market St",
    "Broad St",
    "Washington Ave",
    "College St",
    "Church St",
    "Union Ave",
    "5th St",
    "Oak St",
    "State St",
    "Walnut St",
    "Chestnut St",
    "Grand Blvd",
    "Jefferson Ave",
    "Monroe St",
    "Lafayette Rd",
    "Meridian St",
    "Delmar Blvd",
    "Euclid Ave",
];

/// Generates a partial street address (the raw dataset's addresses are
/// incomplete; the geocoder fills in the rest).
pub(crate) fn generate_street_address(rng: &mut StdRng) -> String {
    let number = rng.gen_range(100..9999);
    let street = STREETS[rng.gen_range(0..STREETS.len())];
    format!("{number} {street}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::ARCHETYPES;
    use rand::SeedableRng;

    #[test]
    fn names_are_deterministic_per_seed() {
        let a = &ARCHETYPES[0];
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        assert_eq!(generate_name(a, &mut r1), generate_name(a, &mut r2));
    }

    #[test]
    fn opaque_names_avoid_type_words() {
        let cafe = ARCHETYPES.iter().find(|a| a.key == "cafe").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut saw_opaque = false;
        for _ in 0..200 {
            let (name, style) = generate_name(cafe, &mut rng);
            if style == NameStyle::Opaque {
                saw_opaque = true;
                for w in cafe.type_words {
                    assert!(!name.contains(w), "opaque name `{name}` contains `{w}`");
                }
            }
        }
        assert!(saw_opaque);
    }

    #[test]
    fn roughly_thirty_percent_opaque() {
        let a = &ARCHETYPES[0];
        let mut rng = StdRng::seed_from_u64(99);
        let opaque = (0..2000)
            .filter(|_| generate_name(a, &mut rng).1 == NameStyle::Opaque)
            .count();
        let frac = opaque as f64 / 2000.0;
        assert!((0.25..0.35).contains(&frac), "opaque fraction {frac}");
    }

    #[test]
    fn street_addresses_look_plausible() {
        let mut rng = StdRng::seed_from_u64(3);
        let addr = generate_street_address(&mut rng);
        assert!(addr.split_whitespace().count() >= 2);
        assert!(addr.chars().next().unwrap().is_ascii_digit());
    }
}
