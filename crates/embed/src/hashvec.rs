//! Feature-hashing utilities, the key-vector memo, and the lexical-only
//! baseline embedder.
//!
//! Every embedding here is a weighted sum of *key vectors*: one
//! pseudo-random unit vector per 64-bit key (a concept, or a stemmed
//! word), a pure function of the key. A real embedding model looks such
//! vectors up in a table; the simulation derives each one by hashing
//! (`dim` hashes and a normalisation), so each embedder keeps what it
//! derived in a key-vector memo and computes each key's vector once.
//! The memo is bounded by [`MEMO_BUDGET_BYTES`]: past the bound a new key
//! is computed exactly as before and not stored, so a stream of
//! never-seen words cannot grow a process. A hit and a miss add the same
//! bits, so what the memo holds never changes an embedding.

use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};

use concepts::hash::{fnv1a, mix, unit_float};
use textindex::tokenizer::{stem_into, Tokenizer};

use crate::Embedder;

/// Bytes of key vectors one embedder's memo may hold: 16 MiB, 16,384
/// rows at the default 256 dimensions.
pub(crate) const MEMO_BUDGET_BYTES: usize = 16 << 20;

/// Writes the key vector of `key` into `out`: a deterministic
/// pseudo-random unit vector of `out.len()` dimensions.
///
/// Component `i` is drawn uniformly from `[-1, 1]` via hashing, then the
/// vector is normalized. Distinct keys give near-orthogonal vectors in
/// high dimensions — the standard random-projection property.
fn fill_key_vector(key: u64, out: &mut [f32]) {
    let mut norm2 = 0.0f32;
    for (i, x) in out.iter_mut().enumerate() {
        *x = (unit_float(mix(&[key, i as u64])) * 2.0 - 1.0) as f32;
        norm2 += *x * *x;
    }
    let n = norm2.sqrt();
    if n > 0.0 {
        for x in out {
            *x /= n;
        }
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

/// The stored rows: one flat arena of `dim`-float rows and the key →
/// row index. The index keeps the default (keyed) hasher: its keys
/// derive from query text, which comes from outside the program.
#[derive(Debug, Default)]
struct MemoRows {
    index: HashMap<u64, u32>,
    arena: Vec<f32>,
}

/// Rows the arena grows by (a 1 MiB step at 256 dimensions), so its
/// capacity stays within one step of what it holds.
const GROW_ROWS: usize = 1024;

/// Key vectors computed once per key: a flat arena of rows behind one
/// lock, bounded by [`MEMO_BUDGET_BYTES`] (see the module docs).
#[derive(Debug)]
pub(crate) struct KeyVectorMemo {
    dim: usize,
    max_rows: usize,
    rows: RwLock<MemoRows>,
}

impl KeyVectorMemo {
    /// An empty memo of `dim`-dimensional key vectors.
    pub(crate) fn new(dim: usize) -> Self {
        Self::with_budget(dim, MEMO_BUDGET_BYTES)
    }

    /// An empty memo holding at most `budget` bytes of rows (none at
    /// `dim` 0).
    pub(crate) fn with_budget(dim: usize, budget: usize) -> Self {
        Self {
            dim,
            max_rows: budget
                .checked_div(dim * std::mem::size_of::<f32>())
                .unwrap_or(0),
            rows: RwLock::new(MemoRows::default()),
        }
    }

    /// Adds `scale * key_vector(key)` into `acc` for each `(key, scale)`
    /// of `terms`, in order — the same float operations in the same
    /// order whether a row was stored or computed. Takes the read lock
    /// once; takes the write lock once more only if some key missed and
    /// the memo has room, and stores the rows it computed.
    pub(crate) fn accumulate(&self, terms: &[(u64, f32)], acc: &mut [f32]) {
        debug_assert_eq!(acc.len(), self.dim);
        let dim = self.dim;
        // What this call computed: the i-th missed key's row is
        // `fresh[i * dim..]`, and `missed` maps the key to `i`.
        let mut missed: HashMap<u64, usize> = HashMap::new();
        let mut missed_keys: Vec<u64> = Vec::new();
        let mut fresh: Vec<f32> = Vec::new();
        let room = {
            let rows = self.rows.read().unwrap_or_else(PoisonError::into_inner);
            for &(key, scale) in terms {
                let row = match rows.index.get(&key) {
                    Some(&r) => &rows.arena[r as usize * dim..][..dim],
                    None => {
                        let i = *missed.entry(key).or_insert_with(|| {
                            missed_keys.push(key);
                            fresh.resize(missed_keys.len() * dim, 0.0);
                            fill_key_vector(key, &mut fresh[(missed_keys.len() - 1) * dim..]);
                            missed_keys.len() - 1
                        });
                        &fresh[i * dim..][..dim]
                    }
                };
                for (a, x) in acc.iter_mut().zip(row) {
                    *a += scale * x;
                }
            }
            rows.index.len() < self.max_rows
        };
        if missed_keys.is_empty() || !room {
            return;
        }
        // A row is indexed only after it is whole, so a writer that
        // panicked left at worst an unindexed row: the data stays valid
        // and a poisoned lock is safe to take over.
        let mut rows = self.rows.write().unwrap_or_else(PoisonError::into_inner);
        for (i, key) in missed_keys.into_iter().enumerate() {
            let r = rows.arena.len() / dim;
            if r >= self.max_rows {
                break;
            }
            if rows.index.contains_key(&key) {
                continue; // another embed stored it meanwhile
            }
            if rows.arena.len() == rows.arena.capacity() {
                let step = GROW_ROWS.min(self.max_rows - r);
                rows.arena.reserve_exact(step * dim);
            }
            rows.arena.extend_from_slice(&fresh[i * dim..][..dim]);
            rows.index.insert(key, r as u32);
        }
    }

    /// Stored rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .index
            .len()
    }

    /// Bytes the memo occupies: the arena's allocation plus the index's
    /// entries (key, row and one control byte a slot).
    pub(crate) fn bytes(&self) -> usize {
        let rows = self.rows.read().unwrap_or_else(PoisonError::into_inner);
        rows.arena.capacity() * std::mem::size_of::<f32>()
            + rows.index.capacity() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>() + 1)
    }

    /// The most rows the memo will store.
    #[cfg(test)]
    fn max_rows(&self) -> usize {
        self.max_rows
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
    memo: KeyVectorMemo,
}

impl HashEmbedder {
    /// Creates a hash embedder with the given dimensionality.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            tokenizer: Tokenizer::new(),
            memo: KeyVectorMemo::new(dim),
        }
    }
}

impl Embedder for HashEmbedder {
    fn embed(&self, text: &str) -> Vec<f32> {
        // Each token is a stem already, and is stemmed once more.
        let mut terms = Vec::new();
        let mut again = String::new();
        self.tokenizer.for_each_token(text, |tok| {
            again.clear();
            stem_into(tok, &mut again);
            terms.push((fnv1a(again.as_bytes()), 1.0));
        });
        let mut acc = vec![0.0f32; self.dim];
        self.memo.accumulate(&terms, &mut acc);
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

    fn key_vector(key: u64, dim: usize) -> Vec<f32> {
        let mut v = vec![0.0; dim];
        fill_key_vector(key, &mut v);
        v
    }

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

    #[test]
    fn memo_rows_are_the_key_vectors() {
        let memo = KeyVectorMemo::new(32);
        let terms = [(7, 1.0), (9, -0.5), (7, 2.0)];
        let mut cold = vec![0.0; 32];
        memo.accumulate(&terms, &mut cold);
        assert_eq!(memo.rows(), 2);
        let mut warm = vec![0.0; 32];
        memo.accumulate(&terms, &mut warm);
        assert_eq!(cold, warm);
        let mut by_hand = vec![0.0f32; 32];
        for (key, scale) in terms {
            for (a, x) in by_hand.iter_mut().zip(key_vector(key, 32)) {
                *a += scale * x;
            }
        }
        assert_eq!(cold, by_hand);
    }

    #[test]
    fn memo_stops_storing_at_its_bound() {
        let memo = KeyVectorMemo::with_budget(16, 10 * 16 * 4);
        assert_eq!(memo.max_rows(), 10);
        let terms: Vec<(u64, f32)> = (0..25).map(|k| (k, 1.0)).collect();
        let mut acc = vec![0.0; 16];
        memo.accumulate(&terms, &mut acc);
        assert_eq!(memo.rows(), 10);
        assert!(memo.bytes() >= 10 * 16 * 4);
        let mut again = vec![0.0; 16];
        memo.accumulate(&terms, &mut again);
        assert_eq!(acc, again);
        assert_eq!(memo.rows(), 10);
    }

    #[test]
    fn a_zero_dimension_memo_stores_nothing_and_does_not_panic() {
        let memo = KeyVectorMemo::new(0);
        memo.accumulate(&[(1, 1.0)], &mut []);
        assert_eq!((memo.max_rows(), memo.rows(), memo.bytes()), (0, 0, 0));
    }
}
