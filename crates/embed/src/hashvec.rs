//! Feature-hashing utilities and the lexical-only baseline embedder.

use concepts::hash::{fnv1a, mix, unit_float};
use textindex::tokenizer::{stem, Tokenizer};

use crate::Embedder;

/// Deterministic pseudo-random unit vector for a 64-bit key.
///
/// Component `i` is drawn uniformly from `[-1, 1]` via hashing, then the
/// vector is normalized. Distinct keys give near-orthogonal vectors in
/// high dimensions — the standard random-projection property.
#[must_use]
pub fn key_vector(key: u64, dim: usize) -> Vec<f32> {
    let mut v = Vec::with_capacity(dim);
    let mut norm2 = 0.0f32;
    for i in 0..dim {
        let x = (unit_float(mix(&[key, i as u64])) * 2.0 - 1.0) as f32;
        norm2 += x * x;
        v.push(x);
    }
    let n = norm2.sqrt();
    if n > 0.0 {
        for x in &mut v {
            *x /= n;
        }
    }
    v
}

/// Adds `scale * key_vector(key)` into `acc`. Builds the key vector to
/// do it — one `Vec` a call; a memo of key vectors would spare both the
/// allocation and the hashing (ROADMAP item 3).
pub fn add_key_vector(acc: &mut [f32], key: u64, scale: f32) {
    let dim = acc.len();
    let v = key_vector(key, dim);
    for (a, x) in acc.iter_mut().zip(v) {
        *a += scale * x;
    }
}

/// L2-normalizes a vector in place (no-op for zero vectors).
pub fn normalize(v: &mut [f32]) {
    let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

/// A lexical-only embedder: hashed bag of stemmed words, random-projected
/// into `dim` dimensions.
///
/// No semantics at all — two texts are similar iff they share word forms.
/// Used in ablations as "what if the embedding model had no semantic
/// understanding".
#[derive(Debug)]
pub struct HashEmbedder {
    dim: usize,
    tokenizer: Tokenizer,
}

impl HashEmbedder {
    /// Creates a hash embedder with the given dimensionality.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            tokenizer: Tokenizer::new(),
        }
    }
}

impl Embedder for HashEmbedder {
    fn embed(&self, text: &str) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim];
        for tok in self.tokenizer.tokenize(text) {
            let key = fnv1a(stem(&tok).as_bytes());
            add_key_vector(&mut acc, key, 1.0);
        }
        normalize(&mut acc);
        acc
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn name(&self) -> &str {
        "hash-bow"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosine;

    #[test]
    fn key_vectors_are_unit_and_deterministic() {
        let a = key_vector(42, 128);
        let b = key_vector(42, 128);
        assert_eq!(a, b);
        let n: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
    }

    #[test]
    fn distinct_keys_near_orthogonal() {
        let a = key_vector(1, 256);
        let b = key_vector(2, 256);
        assert!(cosine(&a, &b).abs() < 0.25);
    }

    #[test]
    fn hash_embedder_similarity_tracks_overlap() {
        let e = HashEmbedder::new(256);
        let a = e.embed("fresh sushi rolls with salmon");
        let b = e.embed("sushi rolls made with fresh salmon");
        let c = e.embed("oil change and tire rotation");
        assert!(cosine(&a, &b) > 0.85);
        assert!(cosine(&a, &c) < 0.3);
    }

    #[test]
    fn hash_embedder_no_semantics() {
        // A paraphrase with zero word overlap looks unrelated.
        let e = HashEmbedder::new(256);
        let a = e.embed("watch the game on big screens");
        let b = e.embed("sports bar with football on tv");
        assert!(cosine(&a, &b) < 0.35);
    }

    #[test]
    fn empty_text_gives_zero_vector() {
        let e = HashEmbedder::new(64);
        let v = e.embed("");
        assert!(v.iter().all(|&x| x == 0.0));
    }
}
