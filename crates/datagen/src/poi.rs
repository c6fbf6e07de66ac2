//! POI generation: assembling full Yelp-shaped records for one city.

use std::collections::BTreeMap;

use concepts::{ConceptId, Ontology};
use geotext::{AttributeValue, Dataset, GeoTextObject, ObjectId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::city::City;
use crate::names::{generate_name, generate_street_address, NameStyle};
use crate::taxonomy::{Archetype, ARCHETYPES, GLOBAL_OPTIONAL};
use crate::tips::generate_tips;

/// A generated city: the dataset plus its latent ground truth.
#[derive(Debug)]
pub struct CityData {
    /// Which city this is.
    pub city: City,
    /// The Yelp-shaped dataset (attributes per paper Table 1).
    pub dataset: Dataset,
    /// Latent concepts per POI (`truth[id.index()]`) — the generator's
    /// ground truth, standing in for the paper's manual annotation.
    pub truth: Vec<Vec<ConceptId>>,
    /// Name style per POI (descriptive vs opaque), for Figure-1 slicing.
    pub name_styles: Vec<NameStyle>,
    /// Archetype index (into `ARCHETYPES`) per POI.
    pub archetype_idx: Vec<usize>,
}

impl CityData {
    /// The latent concepts of one POI.
    #[must_use]
    pub fn concepts_of(&self, id: ObjectId) -> &[ConceptId] {
        &self.truth[id.index()]
    }

    /// The archetype of one POI.
    #[must_use]
    pub fn archetype_of(&self, id: ObjectId) -> &'static Archetype {
        &ARCHETYPES[self.archetype_idx[id.index()]]
    }
}

/// Approximate standard normal via the sum of 12 uniforms (Irwin–Hall).
fn gaussian(rng: &mut StdRng) -> f64 {
    let s: f64 = (0..12).map(|_| rng.gen::<f64>()).sum();
    s - 6.0
}

fn pick_archetype(rng: &mut StdRng) -> usize {
    let total: u32 = ARCHETYPES.iter().map(|a| a.weight).sum();
    let mut roll = rng.gen_range(0..total);
    for (i, a) in ARCHETYPES.iter().enumerate() {
        if roll < a.weight {
            return i;
        }
        roll -= a.weight;
    }
    ARCHETYPES.len() - 1
}

fn generate_hours(archetype: &Archetype, rng: &mut StdRng) -> BTreeMap<String, String> {
    let is_bar =
        archetype.categories.contains("Bars") || archetype.categories.contains("Nightlife");
    let is_breakfast =
        archetype.categories.contains("Breakfast") || archetype.categories.contains("Coffee");
    let (open, close) = if is_bar {
        (11 + rng.gen_range(0..5), 23 + rng.gen_range(0..3)) // close may be past midnight
    } else if is_breakfast {
        (5 + rng.gen_range(0..3), 15 + rng.gen_range(0..5))
    } else {
        (8 + rng.gen_range(0..3), 17 + rng.gen_range(0..5))
    };
    let close = close % 24;
    let mut hours = BTreeMap::new();
    for day in [
        "Monday",
        "Tuesday",
        "Wednesday",
        "Thursday",
        "Friday",
        "Saturday",
        "Sunday",
    ] {
        // Some venues close one weekday, like the paper's sample record.
        if day == "Monday" && rng.gen_bool(0.15) {
            hours.insert(day.to_owned(), "0:0-0:0".to_owned());
        } else {
            hours.insert(day.to_owned(), format!("{open}:0-{close}:0"));
        }
    }
    hours
}

/// Deterministic Yelp-style business id.
fn business_id(city_key: &str, index: usize) -> String {
    let h = concepts::hash::mix(&[concepts::hash::fnv1a(city_key.as_bytes()), index as u64]);
    format!("{h:016x}{:06}", index)
}

/// Generates `count` POIs for `city`. Deterministic in `(city, count,
/// seed)`.
#[must_use]
pub fn generate_city(city: &City, count: usize, seed: u64) -> CityData {
    let ontology = Ontology::builtin();
    let mut rng = StdRng::seed_from_u64(seed ^ concepts::hash::fnv1a(city.key.as_bytes()));
    let center = city.center();

    let mut dataset = Dataset::new(city.name);
    let mut truth: Vec<Vec<ConceptId>> = Vec::with_capacity(count);
    let mut name_styles = Vec::with_capacity(count);
    let mut archetype_idx = Vec::with_capacity(count);

    for i in 0..count {
        let ai = pick_archetype(&mut rng);
        let archetype = &ARCHETYPES[ai];

        // Location: gaussian scatter (σ ≈ 4 km) truncated to ±11 km so
        // every POI stays inside the geocoder's extent.
        let dy = (gaussian(&mut rng) * 4.0).clamp(-11.0, 11.0);
        let dx = (gaussian(&mut rng) * 4.0).clamp(-11.0, 11.0);
        let location = center.offset_km(dy, dx);

        // Latent concepts: all core + 1–3 optional + 1–2 global service.
        let mut concepts_held: Vec<ConceptId> =
            archetype.core.iter().map(|n| ontology.id_of(n)).collect();
        let n_opt = rng.gen_range(1..=3usize).min(archetype.optional.len());
        let mut opt_pool: Vec<&str> = archetype.optional.to_vec();
        for _ in 0..n_opt {
            if opt_pool.is_empty() {
                break;
            }
            let j = rng.gen_range(0..opt_pool.len());
            concepts_held.push(ontology.id_of(opt_pool.swap_remove(j)));
        }
        let n_glob = rng.gen_range(1..=2usize);
        for _ in 0..n_glob {
            let g = GLOBAL_OPTIONAL[rng.gen_range(0..GLOBAL_OPTIONAL.len())];
            let id = ontology.id_of(g);
            if !concepts_held.contains(&id) {
                concepts_held.push(id);
            }
        }
        concepts_held.sort();
        concepts_held.dedup();

        let (name, style) = generate_name(archetype, &mut rng);
        let tips = generate_tips(&concepts_held, ontology, &mut rng);
        let stars = (rng.gen_range(2..=10) as f64) / 2.0; // 1.0..=5.0 in halves
        let hours = generate_hours(archetype, &mut rng);
        let address = generate_street_address(&mut rng);
        let tip_count = tips.len() as i64;

        dataset.push(|id| {
            GeoTextObject::builder(id, location)
                .attr("business_id", business_id(city.key, i))
                .attr("name", name.clone())
                .attr("address", address.clone())
                .attr("city", city.name)
                .attr("state", city.state)
                .attr("stars", stars)
                .attr("tip_count", tip_count)
                .attr("is_open", rng.gen_bool(0.9))
                .attr("categories", archetype.categories)
                .attr("hours", AttributeValue::Map(hours.clone()))
                .attr("tips", tips.clone())
                .build()
                .expect("generated POI always has textual attributes")
        });
        truth.push(concepts_held);
        name_styles.push(style);
        archetype_idx.push(ai);
    }

    CityData {
        city: *city,
        dataset,
        truth,
        name_styles,
        archetype_idx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::CITIES;
    use concepts::ConceptDetector;

    #[test]
    fn generates_requested_count_with_dense_ids() {
        let data = generate_city(&CITIES[3], 200, 42);
        assert_eq!(data.dataset.len(), 200);
        assert_eq!(data.truth.len(), 200);
        assert_eq!(data.dataset.objects()[57].id, ObjectId(57));
    }

    #[test]
    fn deterministic() {
        let a = generate_city(&CITIES[0], 100, 7);
        let b = generate_city(&CITIES[0], 100, 7);
        assert_eq!(a.dataset.objects()[33], b.dataset.objects()[33]);
        assert_eq!(a.truth[33], b.truth[33]);
    }

    #[test]
    fn different_cities_differ() {
        let a = generate_city(&CITIES[0], 50, 7);
        let b = generate_city(&CITIES[1], 50, 7);
        assert_ne!(a.dataset.objects()[0].name(), b.dataset.objects()[0].name());
    }

    #[test]
    fn pois_stay_near_city_center() {
        let data = generate_city(&CITIES[2], 300, 1);
        let center = CITIES[2].center();
        for o in data.dataset.iter() {
            assert!(center.haversine_km(&o.location) < 17.0);
        }
    }

    #[test]
    fn records_have_paper_schema() {
        let data = generate_city(&CITIES[1], 20, 3);
        let o = &data.dataset.objects()[0];
        for key in [
            "business_id",
            "name",
            "address",
            "city",
            "state",
            "stars",
            "tip_count",
            "is_open",
            "categories",
            "hours",
            "tips",
        ] {
            assert!(o.attrs.get(key).is_some(), "missing attribute {key}");
        }
        assert_eq!(o.attrs.get_text("city"), Some("Nashville"));
    }

    #[test]
    fn dataset_stats_match_paper_shape() {
        let data = generate_city(&CITIES[0], 500, 11);
        let stats = data.dataset.stats();
        assert!(
            (9.0..=13.0).contains(&stats.avg_tips_per_object),
            "avg tips {}",
            stats.avg_tips_per_object
        );
        assert!(
            (70.0..=220.0).contains(&stats.avg_tip_tokens_per_object),
            "avg tip tokens {}",
            stats.avg_tip_tokens_per_object
        );
    }

    #[test]
    fn latent_concepts_recoverable_from_text() {
        let data = generate_city(&CITIES[4], 50, 13);
        let detector = ConceptDetector::builtin();
        let ontology = Ontology::builtin();
        for o in data.dataset.iter() {
            let found = detector.detect_ids(&o.to_document());
            for c in data.concepts_of(o.id) {
                assert!(
                    ontology.satisfies(&found, *c) || found.contains(c),
                    "POI {} lost concept {}",
                    o.name(),
                    ontology.concept(*c).name
                );
            }
        }
    }

    #[test]
    fn truth_includes_core_concepts() {
        let data = generate_city(&CITIES[0], 100, 5);
        let ontology = Ontology::builtin();
        for (i, o) in data.dataset.iter().enumerate() {
            let archetype = data.archetype_of(o.id);
            for core in archetype.core {
                assert!(
                    data.truth[i].contains(&ontology.id_of(core)),
                    "POI missing core concept {core}"
                );
            }
        }
    }
}
