//! # concepts — the semantic world model
//!
//! The reproduction replaces three proprietary dependencies (Yelp data,
//! OpenAI embeddings, OpenAI chat models) with simulations that must agree
//! on what language *means*. This crate is that shared ground: an ontology
//! of semantic concepts (cuisines, amenities, ambience, services, …), each
//! with
//!
//! - **surface terms** — words that literally name the concept (what
//!   keyword matching can find), and
//! - **paraphrases** — phrases that imply the concept without naming it
//!   (what only semantic understanding can find; the paper's "a variety of
//!   options" example).
//!
//! The [`ConceptDetector`] maps text to concept activations. Run at
//! perfect fidelity it defines *ground truth* (what a careful human
//! annotator would say, standing in for the paper's manual answer-set
//! inspection). Run through a [`FidelityProfile`] it simulates an
//! imperfect model: the embedding model detects paraphrases less reliably
//! than the big LLMs, which is exactly the gap SemaSK's refinement step
//! exploits.
//!
//! Detection noise is **deterministic**: whether a given model spots a
//! given concept in a given text is a pure function of (text, concept,
//! model salt), so data preparation and query processing see a consistent
//! world and every experiment is reproducible.

#![warn(missing_docs)]

pub mod concept;
pub mod detect;
pub mod hash;
pub mod ontology;

pub use concept::{Concept, ConceptId};
pub use detect::{ConceptDetector, Detection, FidelityProfile, Reader, Reading};
pub use ontology::Ontology;
