//! # embed — deterministic text-embedding simulator
//!
//! Stand-in for OpenAI's `text-embedding-3-small` (1,536-d) used by the
//! paper to pre-compute POI embeddings and query embeddings for the
//! filtering step.
//!
//! ## How the simulation works
//!
//! A real sentence embedding mixes two signals: *lexical* overlap and
//! *semantic* similarity. The [`SemanticEmbedder`] reproduces both:
//!
//! 1. **Semantic channel** — the text is run through the shared
//!    [`concepts::ConceptDetector`] at the embedding model's
//!    [`concepts::FidelityProfile`] (imperfect paraphrase recall, a
//!    little noise).
//!    Every detected concept contributes a fixed pseudo-random unit
//!    vector; implied (more general) concepts contribute at reduced
//!    weight, so "espresso" lands near "coffee".
//! 2. **Lexical channel** — a hashed bag-of-words random projection of
//!    the stemmed tokens (feature hashing), so texts sharing words are
//!    similar even without detected concepts.
//!
//! The result is L2-normalized. Everything is a pure function of the
//! input text, so prep-time and query-time embeddings agree, and the
//! whole pipeline is reproducible.
//!
//! Both channels sum *key vectors* — one pseudo-random unit vector per
//! concept or stemmed word. Deriving one costs `dim` hashes, so each
//! embedder computes a key's vector once and looks it up afterwards in a
//! memo of its own, the way a real model reads its embedding table (see
//! `hashvec`). The memo is bounded by
//! `hashvec::MEMO_BUDGET_BYTES` (a constant, 16 MiB); past it a new key
//! is computed per call and not stored, and a stored row adds exactly
//! the bits a computed one would. A text is tokenized once: the raw
//! token stream's stems feed concept detection, and the tokens the
//! lexical channel keeps feed it.
//!
//! A concept-free [`HashEmbedder`] is provided for ablations: it is what
//! an embedding would be *without* semantic understanding (it behaves
//! like smoothed TF matching).

#![warn(missing_docs)]

pub(crate) mod hashvec;
pub mod model;

pub use hashvec::HashEmbedder;
pub use model::{EmbedderConfig, SemanticEmbedder};

/// A text embedding model.
pub trait Embedder: Send + Sync {
    /// Embeds `text` into a fixed-dimension L2-normalized vector.
    fn embed(&self, text: &str) -> Vec<f32>;
    /// Output dimensionality.
    fn dim(&self) -> usize;
    /// Model name (for logs and experiment output).
    fn name(&self) -> &str;
}

/// Cosine similarity of two equal-length vectors (0 for zero vectors).
#[must_use]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    let denom = (na * nb).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        dot / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }
}
