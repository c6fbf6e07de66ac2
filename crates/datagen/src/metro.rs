//! Metro-scale synthesis: composing the five paper cities into one
//! large extent.
//!
//! The paper evaluates on 19,795 POIs across five cities. To exercise
//! the memory-efficiency tier (quantized scoring, a 12 B id column,
//! compressed tip text) we need worlds two to three orders of magnitude
//! larger, and they must stay *Yelp-shaped*: the same archetype mix,
//! the same latent-concept ground truth, the same tip style. Rather
//! than invent a new generator, [`generate_metro`] scales the existing
//! per-city generator and composes its output:
//!
//! - each paper city becomes a **district** of the metro, placed on a
//!   quincunx around the metro centre (±5.5 km offsets);
//! - district POI counts are **proportional to the paper's counts**, so
//!   the archetype and density mix of the original evaluation carries
//!   over to any scale;
//! - POI scatter within a district is the original city scatter scaled
//!   by 0.45, keeping every point within the reverse geocoder's 12 km
//!   half-extent of the metro centre;
//! - larger metros get **proportionally heavier tip corpora** (the
//!   `tip_factor` knob, auto-scaled with size), because real review
//!   volume grows superlinearly with market size and the compressed
//!   payload tier is only honest if the text actually dominates memory.
//!
//! Everything is deterministic in `(total_pois, seed)`.

use concepts::Ontology;
use geotext::EARTH_RADIUS_KM;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::city::{CITIES, METRO};
use crate::poi::{generate_city, CityData};
use crate::tips::generate_tips;

/// District centre offsets (km north, km east) from the metro centre —
/// a quincunx: one downtown core, four satellite districts.
const DISTRICT_OFFSETS_KM: [(f64, f64); 5] = [
    (0.0, 0.0),
    (5.5, 5.5),
    (5.5, -5.5),
    (-5.5, 5.5),
    (-5.5, -5.5),
];

/// How much a district compresses its source city's scatter. The city
/// generator clamps scatter to ±11 km per axis; 0.45 × 11 + 5.5 ≈
/// 10.5 km keeps every POI inside the geocoder's 12 km half-extent.
const DISTRICT_SCALE: f64 = 0.45;

/// Configuration for one metro synthesis.
#[derive(Debug, Clone, Copy)]
pub struct MetroConfig {
    /// Total POIs across all districts (the paper's world is ~20k;
    /// metro runs target 100k–1M).
    pub total_pois: usize,
    /// Master seed; the metro is deterministic in `(total_pois, seed)`.
    pub seed: u64,
    /// Tip-corpus multiplier: each POI's tips are augmented with
    /// `tip_factor - 1` extra generation rounds. `None` auto-scales:
    /// 1 below 100k POIs, 2 from 100k, 3 from 500k.
    pub tip_factor: Option<usize>,
}

impl MetroConfig {
    /// A metro of `total_pois` points with auto tip scaling.
    #[must_use]
    pub fn new(total_pois: usize, seed: u64) -> Self {
        Self {
            total_pois,
            seed,
            tip_factor: None,
        }
    }

    /// The effective tip multiplier (resolving the auto rule).
    #[must_use]
    pub(crate) fn effective_tip_factor(&self) -> usize {
        self.tip_factor
            .unwrap_or(match self.total_pois {
                n if n >= 500_000 => 3,
                n if n >= 100_000 => 2,
                _ => 1,
            })
            .max(1)
    }
}

/// Splits `total` across the districts proportionally to the paper's
/// per-city POI counts, distributing the rounding remainder to the
/// largest districts first so the sum is exact.
#[must_use]
pub(crate) fn district_counts(total: usize) -> Vec<usize> {
    let paper_total: usize = CITIES.iter().map(|c| c.paper_poi_count).sum();
    let mut counts: Vec<usize> = CITIES
        .iter()
        .map(|c| total * c.paper_poi_count / paper_total)
        .collect();
    let mut assigned: usize = counts.iter().sum();
    // Hand out the remainder in descending paper-count order
    // (deterministic: indices break ties).
    let mut order: Vec<usize> = (0..CITIES.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(CITIES[i].paper_poi_count));
    let mut cursor = 0;
    while assigned < total {
        counts[order[cursor % order.len()]] += 1;
        assigned += 1;
        cursor += 1;
    }
    counts
}

/// Generates a metro of `cfg.total_pois` POIs. Deterministic in
/// `(total_pois, seed)`; the result's `city` is [`METRO`] and ids are
/// dense `0..total_pois` in district order.
#[must_use]
pub fn generate_metro(cfg: &MetroConfig) -> CityData {
    let ontology = Ontology::builtin();
    let tip_factor = cfg.effective_tip_factor();
    let metro_center = METRO.center();
    let mut tip_rng = StdRng::seed_from_u64(cfg.seed ^ concepts::hash::fnv1a(METRO.key.as_bytes()));

    let mut dataset = geotext::Dataset::new(METRO.name);
    let mut truth = Vec::with_capacity(cfg.total_pois);
    let mut name_styles = Vec::with_capacity(cfg.total_pois);
    let mut archetype_idx = Vec::with_capacity(cfg.total_pois);

    for (district, count) in district_counts(cfg.total_pois).into_iter().enumerate() {
        let city = &CITIES[district];
        let src = generate_city(city, count, cfg.seed);
        let src_center = city.center();
        let cos_lat = src_center.lat.to_radians().cos().max(1e-9);
        let (off_n, off_e) = DISTRICT_OFFSETS_KM[district];

        for (i, obj) in src.dataset.objects().iter().enumerate() {
            // Recover the POI's (north, east) km offset from its source
            // city centre (inverse of `GeoPoint::offset_km`), compress
            // it, and re-plant it in the district.
            let dn_km = (obj.location.lat - src_center.lat).to_radians() * EARTH_RADIUS_KM;
            let de_km =
                (obj.location.lon - src_center.lon).to_radians() * EARTH_RADIUS_KM * cos_lat;
            let location = metro_center.offset_km(
                off_n + dn_km * DISTRICT_SCALE,
                off_e + de_km * DISTRICT_SCALE,
            );

            let mut attrs = obj.attrs.clone();
            if tip_factor > 1 {
                let mut tips: Vec<String> = attrs
                    .get("tips")
                    .and_then(|v| v.as_list())
                    .map(<[String]>::to_vec)
                    .unwrap_or_default();
                for _ in 1..tip_factor {
                    tips.extend(generate_tips(&src.truth[i], ontology, &mut tip_rng));
                }
                attrs.set("tip_count", tips.len() as i64);
                attrs.set("tips", tips);
            }

            dataset.push(|id| geotext::GeoTextObject {
                id,
                location,
                attrs,
            });
        }
        truth.extend(src.truth);
        name_styles.extend(src.name_styles);
        archetype_idx.extend(src.archetype_idx);
    }

    CityData {
        city: METRO,
        dataset,
        truth,
        name_styles,
        archetype_idx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotext::ObjectId;

    #[test]
    fn district_counts_sum_exactly_and_track_paper_mix() {
        for total in [100, 1_000, 19_795, 100_000, 1_000_000] {
            let counts = district_counts(total);
            assert_eq!(counts.iter().sum::<usize>(), total);
            // Philadelphia (index 2) is the paper's largest city and
            // must stay the largest district at any scale.
            let max = counts.iter().copied().max().unwrap();
            assert_eq!(counts[2], max, "counts {counts:?} at total {total}");
        }
    }

    #[test]
    fn deterministic_in_config() {
        let a = generate_metro(&MetroConfig::new(400, 9));
        let b = generate_metro(&MetroConfig::new(400, 9));
        assert_eq!(a.dataset.len(), b.dataset.len());
        assert_eq!(a.dataset.objects()[123], b.dataset.objects()[123]);
        assert_eq!(a.truth[123], b.truth[123]);
        // A different seed moves things.
        let c = generate_metro(&MetroConfig::new(400, 10));
        assert_ne!(
            a.dataset.objects()[0].location.lat,
            c.dataset.objects()[0].location.lat
        );
    }

    #[test]
    fn dense_ids_and_parallel_truth() {
        let m = generate_metro(&MetroConfig::new(777, 3));
        assert_eq!(m.dataset.len(), 777);
        assert_eq!(m.truth.len(), 777);
        assert_eq!(m.name_styles.len(), 777);
        assert_eq!(m.archetype_idx.len(), 777);
        assert_eq!(m.dataset.objects()[500].id, ObjectId(500));
    }

    #[test]
    fn every_poi_fits_the_geocoder_extent() {
        let m = generate_metro(&MetroConfig::new(2_000, 42));
        let center = METRO.center();
        for o in m.dataset.iter() {
            let d = center.haversine_km(&o.location);
            assert!(d < 16.0, "POI {} is {d:.1} km out", o.id.index());
        }
    }

    #[test]
    fn districts_are_spatially_separated() {
        // The downtown district (offset 0,0) and the NE district
        // (+5.5,+5.5) should have distinct centroids.
        let m = generate_metro(&MetroConfig::new(1_000, 5));
        let counts = district_counts(1_000);
        let first = &m.dataset.objects()[..counts[0]];
        let second = &m.dataset.objects()[counts[0]..counts[0] + counts[1]];
        let centroid = |objs: &[geotext::GeoTextObject]| {
            let n = objs.len() as f64;
            (
                objs.iter().map(|o| o.location.lat).sum::<f64>() / n,
                objs.iter().map(|o| o.location.lon).sum::<f64>() / n,
            )
        };
        let (lat_a, lon_a) = centroid(first);
        let (lat_b, lon_b) = centroid(second);
        let d = geotext::GeoPoint::new_unchecked(lat_a, lon_a)
            .haversine_km(&geotext::GeoPoint::new_unchecked(lat_b, lon_b));
        assert!(d > 4.0, "district centroids only {d:.1} km apart");
    }

    #[test]
    fn tip_factor_scales_the_corpus() {
        let base = generate_metro(&MetroConfig {
            total_pois: 300,
            seed: 11,
            tip_factor: Some(1),
        });
        let heavy = generate_metro(&MetroConfig {
            total_pois: 300,
            seed: 11,
            tip_factor: Some(3),
        });
        let avg = |m: &CityData| m.dataset.stats().avg_tips_per_object;
        let (a, b) = (avg(&base), avg(&heavy));
        assert!(
            b > 2.5 * a,
            "tip_factor=3 should ~triple the corpus (got {a:.1} -> {b:.1})"
        );
        // tip_count attribute stays consistent with the tips list.
        for o in heavy.dataset.iter().take(50) {
            let n = o.attrs.get("tips").and_then(|v| v.as_list()).unwrap().len();
            assert_eq!(
                o.attrs.get("tip_count").and_then(|v| v.as_f64()),
                Some(n as f64)
            );
        }
    }

    #[test]
    fn auto_tip_factor_steps_with_scale() {
        assert_eq!(MetroConfig::new(50_000, 0).effective_tip_factor(), 1);
        assert_eq!(MetroConfig::new(100_000, 0).effective_tip_factor(), 2);
        assert_eq!(MetroConfig::new(500_000, 0).effective_tip_factor(), 3);
        let forced = MetroConfig {
            total_pois: 1_000_000,
            seed: 0,
            tip_factor: Some(1),
        };
        assert_eq!(forced.effective_tip_factor(), 1);
    }

    #[test]
    fn districts_keep_source_city_names() {
        let m = generate_metro(&MetroConfig::new(500, 2));
        let counts = district_counts(500);
        assert_eq!(
            m.dataset.objects()[0].attrs.get_text("city"),
            Some("Indianapolis")
        );
        assert_eq!(
            m.dataset.objects()[counts[0]].attrs.get_text("city"),
            Some("Nashville")
        );
    }
}
