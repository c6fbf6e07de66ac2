//! The full five-city benchmark workload.

use crate::city::CITIES;
use crate::poi::{generate_city, CityData};
use crate::queries::{generate_queries, QueryGenConfig, TestQuery};

/// Workload construction knobs.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// POI-count scale relative to the paper (1.0 ⇒ 19,795 POIs total;
    /// tests use smaller scales).
    pub scale: f64,
    /// Query generation parameters.
    pub queries: QueryGenConfig,
    /// Dataset RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            scale: 1.0,
            queries: QueryGenConfig::default(),
            seed: 0xda7a,
        }
    }
}

/// A generated five-city benchmark: datasets plus evaluation queries.
pub struct Workload {
    /// Per-city data, in [`CITIES`] order.
    pub cities: Vec<CityData>,
    /// Per-city query sets, aligned with `cities`.
    pub queries: Vec<Vec<TestQuery>>,
    /// The configuration used.
    pub config: WorkloadConfig,
}

impl Workload {
    /// Builds the workload. Deterministic in the configuration.
    #[must_use]
    pub fn build(config: WorkloadConfig) -> Self {
        let mut cities = Vec::with_capacity(CITIES.len());
        let mut queries = Vec::with_capacity(CITIES.len());
        for city in CITIES {
            let count = ((city.paper_poi_count as f64) * config.scale)
                .round()
                .max(10.0) as usize;
            let data = generate_city(city, count, config.seed);
            let qs = generate_queries(&data, &config.queries);
            cities.push(data);
            queries.push(qs);
        }
        Self {
            cities,
            queries,
            config,
        }
    }

    /// Total POIs across cities.
    #[must_use]
    pub fn total_pois(&self) -> usize {
        self.cities.iter().map(|c| c.dataset.len()).sum()
    }

    /// Total queries across cities.
    #[must_use]
    pub fn total_queries(&self) -> usize {
        self.queries.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-scale configuration for tests (≈ `frac` of paper size).
    fn test_scale(frac: f64) -> WorkloadConfig {
        WorkloadConfig {
            scale: frac,
            queries: QueryGenConfig {
                per_city: 10,
                ..QueryGenConfig::default()
            },
            seed: 0xda7a,
        }
    }

    #[test]
    fn small_workload_builds() {
        let w = Workload::build(test_scale(0.05));
        assert_eq!(w.cities.len(), 5);
        assert!(w.total_pois() > 500);
        assert_eq!(w.total_queries(), 50);
    }

    #[test]
    fn scale_controls_counts() {
        let w = Workload::build(test_scale(0.02));
        // 2% of 4,235 ≈ 85.
        assert!((80..=90).contains(&w.cities[0].dataset.len()));
    }

    #[test]
    fn deterministic() {
        let a = Workload::build(test_scale(0.02));
        let b = Workload::build(test_scale(0.02));
        assert_eq!(a.queries[0][0].text, b.queries[0][0].text);
        assert_eq!(
            a.cities[2].dataset.objects()[5],
            b.cities[2].dataset.objects()[5]
        );
    }
}
