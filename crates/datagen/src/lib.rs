//! # datagen — a synthetic Yelp-like geo-textual world
//!
//! The paper's dataset (Yelp Open Dataset, five US cities, 19,795 POIs)
//! cannot be redistributed; the paper itself ships construction
//! instructions instead of data. This crate is the reproduction's
//! equivalent: a deterministic generator of a Yelp-*shaped* world whose
//! semantics are known by construction.
//!
//! Every POI is generated from a **business archetype** (sports bar,
//! café, sushi restaurant, tire shop, …) that assigns it *latent semantic
//! concepts* from the shared [`concepts::Ontology`]. Tips are rendered
//! from those concepts — sometimes naming them (surface terms), sometimes
//! merely implying them (paraphrases) — which recreates the property the
//! paper's experiments rely on: text whose meaning exceeds its keywords
//! (Figure 1's "Industry Beans" café that never says "café").
//!
//! Because the latent concepts are known, *ground-truth relevance is
//! computable*: a query requiring concepts `{a, b}` is answered by
//! exactly the in-range POIs whose latent concepts entail both. This
//! replaces the paper's manual answer-set inspection.
//!
//! The [`queries`] module generates the evaluation workload the same way
//! the paper does — pick a target POI in a 5 km × 5 km range, phrase a
//! query about it that avoids its surface keywords, keep queries whose
//! answer sets are reasonable — and [`workload::Workload`] assembles the
//! full five-city benchmark.

#![warn(missing_docs)]

pub mod city;
pub mod export;
pub mod geocode;
pub mod metro;
pub mod names;
pub mod poi;
pub mod queries;
pub mod taxonomy;
pub mod tips;
pub mod workload;

pub use city::{City, CITIES, METRO};
pub use geocode::{Address, ReverseGeocoder};
pub use metro::{generate_metro, MetroConfig};
pub use poi::CityData;
pub use queries::TestQuery;
pub use taxonomy::Archetype;
pub use workload::{Workload, WorkloadConfig};
