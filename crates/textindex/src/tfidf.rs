//! TF-IDF vectorization and cosine ranking — the stronger of the paper's
//! two baselines ("TF-IDF is more accurate, despite being a simpler
//! model").

use crate::inverted::{DocId, InvertedIndex};
use crate::sparse::SparseVector;

/// A TF-IDF model fit on a corpus (via an [`InvertedIndex`]).
///
/// Term weighting is the standard `tf · idf` scheme with
/// `idf(t) = ln((N + 1) / (df(t) + 1)) + 1` (smoothed, always positive),
/// and document vectors are L2-normalized so ranking reduces to dot
/// products.
#[derive(Debug, Clone)]
pub struct TfIdfModel {
    index: InvertedIndex,
    idf: Vec<f32>,
    doc_vectors: Vec<SparseVector>,
}

impl TfIdfModel {
    /// Fits TF-IDF on the documents already in `index`.
    #[must_use]
    pub fn fit(index: InvertedIndex) -> Self {
        let n = index.num_docs() as f32;
        let vocab_len = index.vocab().len();
        let mut idf = Vec::with_capacity(vocab_len);
        for t in 0..vocab_len as u32 {
            let df = index.doc_freq(t) as f32;
            idf.push(((n + 1.0) / (df + 1.0)).ln() + 1.0);
        }
        // Build normalized document vectors by walking all postings.
        let mut pairs: Vec<Vec<(u32, f32)>> = vec![Vec::new(); index.num_docs()];
        for t in 0..vocab_len as u32 {
            for p in index.postings(t).iter().filter(|p| p.is_live()) {
                pairs[p.doc as usize].push((t, p.tf as f32 * idf[t as usize]));
            }
        }
        let doc_vectors = pairs
            .into_iter()
            .map(|ps| {
                let mut v = SparseVector::from_pairs(ps);
                v.normalize();
                v
            })
            .collect();
        Self {
            index,
            idf,
            doc_vectors,
        }
    }

    /// Convenience: build the index from raw documents and fit.
    #[must_use]
    pub fn fit_documents<S: AsRef<str>>(docs: &[S]) -> Self {
        let mut index = InvertedIndex::new();
        for d in docs {
            index.add_document(d.as_ref());
        }
        Self::fit(index)
    }

    /// The underlying inverted index.
    #[must_use]
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Number of documents in the model.
    #[must_use]
    pub fn num_docs(&self) -> usize {
        self.doc_vectors.len()
    }

    /// Vectorizes free query text (L2-normalized).
    #[must_use]
    pub(crate) fn vectorize_query(&self, text: &str) -> SparseVector {
        let terms = self.index.query_terms(text);
        let mut pairs: Vec<(u32, f32)> = Vec::with_capacity(terms.len());
        // tf within the query:
        let mut sorted = terms;
        sorted.sort_unstable();
        let mut i = 0;
        while i < sorted.len() {
            let t = sorted[i];
            let mut tf = 0u32;
            while i < sorted.len() && sorted[i] == t {
                tf += 1;
                i += 1;
            }
            pairs.push((t, tf as f32 * self.idf[t as usize]));
        }
        let mut v = SparseVector::from_pairs(pairs);
        v.normalize();
        v
    }

    /// Cosine similarity between query text and a document.
    #[must_use]
    pub fn similarity(&self, query: &str, doc: DocId) -> f32 {
        let q = self.vectorize_query(query);
        self.doc_vectors
            .get(doc as usize)
            .map(|d| q.dot(d))
            .unwrap_or(0.0)
    }

    /// Ranks a candidate set of documents by cosine similarity to the
    /// query, descending; stable by doc id on ties.
    #[must_use]
    pub fn rank(&self, query: &str, candidates: &[DocId]) -> Vec<(DocId, f32)> {
        let q = self.vectorize_query(query);
        let mut scored: Vec<(DocId, f32)> = candidates
            .iter()
            .map(|&d| {
                let s = self
                    .doc_vectors
                    .get(d as usize)
                    .map(|v| q.dot(v))
                    .unwrap_or(0.0);
                (d, s)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TfIdfModel {
        TfIdfModel::fit_documents(&[
            "cozy cafe with great coffee and fresh pastries",
            "sports bar showing football games, chicken wings on the menu",
            "coffee roastery, espresso bar, pour over coffee",
            "ice cream parlor with milkshakes",
        ])
    }

    #[test]
    fn identical_doc_query_scores_highest() {
        let m = model();
        let ranked = m.rank("coffee espresso roastery", &[0, 1, 2, 3]);
        assert_eq!(ranked[0].0, 2);
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn doc_vectors_are_normalized() {
        let m = model();
        for d in 0..m.num_docs() as u32 {
            let n = m.doc_vectors[d as usize].norm();
            assert!((n - 1.0).abs() < 1e-5, "doc {d} norm {n}");
        }
    }

    #[test]
    fn unrelated_query_scores_zero() {
        let m = model();
        assert_eq!(m.similarity("sushi sashimi", 0), 0.0);
    }

    #[test]
    fn rare_terms_weigh_more_than_common() {
        // "coffee" appears in 2 docs, "football" in 1 → idf(football) > idf(coffee).
        let m = model();
        let s_football = m.similarity("football", 1);
        let s_coffee = m.similarity("coffee", 1);
        assert!(s_football > s_coffee);
    }

    #[test]
    fn paraphrase_fails_surface_matching() {
        // The paper's core motivation: a semantic paraphrase ("watch the
        // game") scores 0 unless it shares stemmed surface forms; "game"
        // does match "games", but "catch the match tonight" does not.
        let m = model();
        assert_eq!(m.similarity("catch tonight's match", 1), 0.0);
        assert!(m.similarity("watch football game", 1) > 0.0);
    }

    #[test]
    fn rank_is_stable_on_ties() {
        let m = model();
        let ranked = m.rank("zzz unknown terms", &[0, 1, 2, 3]);
        let ids: Vec<_> = ranked.iter().map(|(d, _)| *d).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
