//! The five evaluation cities, with the paper's POI counts.

use geotext::GeoPoint;

/// One evaluation city.
#[derive(Debug, Clone, Copy)]
pub struct City {
    /// Short key used in tables ("IN", "NS", …) — the paper's labels.
    pub key: &'static str,
    /// Full name.
    pub name: &'static str,
    /// US state abbreviation.
    pub state: &'static str,
    /// Downtown coordinates.
    pub center_lat: f64,
    /// Downtown coordinates.
    pub center_lon: f64,
    /// Number of POIs in the paper's dataset for this city.
    pub paper_poi_count: usize,
    /// County name (for address completion).
    pub county: &'static str,
}

impl City {
    /// Downtown centre as a `GeoPoint`.
    #[must_use]
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new_unchecked(self.center_lat, self.center_lon)
    }
}

/// The paper's five test cities (Section 4): Indianapolis (4,235),
/// Nashville (3,716), Philadelphia (7,592), Santa Barbara (1,790), and
/// Saint Louis (2,462).
pub const CITIES: &[City] = &[
    City {
        key: "IN",
        name: "Indianapolis",
        state: "IN",
        center_lat: 39.7684,
        center_lon: -86.1581,
        paper_poi_count: 4235,
        county: "Marion County",
    },
    City {
        key: "NS",
        name: "Nashville",
        state: "TN",
        center_lat: 36.1627,
        center_lon: -86.7816,
        paper_poi_count: 3716,
        county: "Davidson County",
    },
    City {
        key: "PH",
        name: "Philadelphia",
        state: "PA",
        center_lat: 39.9526,
        center_lon: -75.1652,
        paper_poi_count: 7592,
        county: "Philadelphia County",
    },
    City {
        key: "SB",
        name: "Santa Barbara",
        state: "CA",
        center_lat: 34.4208,
        center_lon: -119.6982,
        paper_poi_count: 1790,
        county: "Santa Barbara County",
    },
    City {
        key: "SL",
        name: "Saint Louis",
        state: "MO",
        center_lat: 38.6270,
        center_lon: -90.1994,
        paper_poi_count: 2462,
        county: "St. Louis City",
    },
];

/// The synthetic metro used by the metro-scale benchmarks: one extent
/// composed of the five paper cities as districts (see
/// [`crate::metro`]). Not part of [`CITIES`] — the paper's totals stay
/// pinned; this is the scale-up world the paper never had data for.
pub const METRO: City = City {
    key: "MX",
    name: "Metroplex",
    state: "US",
    center_lat: 39.9612,
    center_lon: -82.9988,
    paper_poi_count: 100_000,
    county: "Metro County",
};

impl City {
    /// The world a key names: one of the paper's [`CITIES`] or the
    /// [`METRO`] — the one lookup for anything that stored a key (a
    /// persisted snapshot's manifest) and needs the city back.
    #[must_use]
    pub fn by_key(key: &str) -> Option<City> {
        CITIES
            .iter()
            .chain(std::iter::once(&METRO))
            .find(|c| c.key == key)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_key_knows_the_paper_cities_and_the_metro() {
        for c in CITIES {
            assert_eq!(City::by_key(c.key).map(|f| f.name), Some(c.name));
        }
        assert_eq!(City::by_key("MX").map(|c| c.name), Some(METRO.name));
        assert!(City::by_key("").is_none());
        assert!(City::by_key("ZZ").is_none());
    }

    #[test]
    fn five_cities_with_paper_counts() {
        assert_eq!(CITIES.len(), 5);
        let total: usize = CITIES.iter().map(|c| c.paper_poi_count).sum();
        assert_eq!(total, 19_795); // the paper's total
    }

    #[test]
    fn keys_match_paper_labels() {
        let keys: Vec<&str> = CITIES.iter().map(|c| c.key).collect();
        assert_eq!(keys, vec!["IN", "NS", "PH", "SB", "SL"]);
    }

    #[test]
    fn centers_are_valid_coordinates() {
        for c in CITIES {
            let p = c.center();
            assert!(p.lat > 30.0 && p.lat < 42.0);
            assert!(p.lon < -70.0 && p.lon > -125.0);
        }
    }
}
