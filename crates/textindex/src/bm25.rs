//! Okapi BM25 scoring over an [`InvertedIndex`].

use crate::inverted::{DocId, InvertedIndex};

/// BM25 parameters and precomputed statistics.
///
/// Used by the IR-tree for node-level relevance upper bounds and available
/// as an alternative keyword ranker. Default parameters `k1 = 1.2`,
/// `b = 0.75` are the standard Robertson values.
#[derive(Debug, Clone)]
pub struct Bm25Model {
    index: InvertedIndex,
    /// Term-frequency saturation parameter.
    pub k1: f32,
    /// Length-normalization parameter.
    pub b: f32,
    avg_len: f32,
}

impl Bm25Model {
    /// Wraps an index with default parameters.
    #[must_use]
    pub fn new(index: InvertedIndex) -> Self {
        Self::with_params(index, 1.2, 0.75)
    }

    /// Wraps an index with explicit parameters.
    #[must_use]
    pub(crate) fn with_params(index: InvertedIndex, k1: f32, b: f32) -> Self {
        let avg_len = index.avg_doc_len().max(1e-6);
        Self {
            index,
            k1,
            b,
            avg_len,
        }
    }

    /// The wrapped index.
    #[must_use]
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    fn idf(&self, term: u32) -> f32 {
        let n = self.index.num_docs() as f32;
        let df = self.index.doc_freq(term) as f32;
        // BM25+ style floor at 0 to avoid negative idf for very common terms.
        (((n - df + 0.5) / (df + 0.5)) + 1.0).ln().max(0.0)
    }

    /// BM25 score of `doc` for the query text.
    #[must_use]
    pub fn score(&self, query: &str, doc: DocId) -> f32 {
        let mut terms = self.index.query_terms(query);
        terms.sort_unstable();
        terms.dedup();
        let dl = self.index.doc_len(doc) as f32;
        let mut s = 0.0;
        for t in terms {
            let tf = self
                .index
                .postings(t)
                .binary_search_by_key(&doc, |p| p.doc)
                .ok()
                .map(|i| self.index.postings(t)[i].tf as f32)
                .unwrap_or(0.0);
            if tf == 0.0 {
                continue;
            }
            let denom = tf + self.k1 * (1.0 - self.b + self.b * dl / self.avg_len);
            s += self.idf(t) * tf * (self.k1 + 1.0) / denom;
        }
        s
    }

    /// Scores every document containing at least one query term,
    /// descending.
    #[must_use]
    pub fn rank_all(&self, query: &str) -> Vec<(DocId, f32)> {
        let mut terms = self.index.query_terms(query);
        terms.sort_unstable();
        terms.dedup();
        let mut scores: std::collections::HashMap<DocId, f32> = std::collections::HashMap::new();
        for t in terms {
            let idf = self.idf(t);
            for p in self.index.postings(t).iter().filter(|p| p.is_live()) {
                let dl = self.index.doc_len(p.doc) as f32;
                let tf = p.tf as f32;
                let denom = tf + self.k1 * (1.0 - self.b + self.b * dl / self.avg_len);
                *scores.entry(p.doc).or_insert(0.0) += idf * tf * (self.k1 + 1.0) / denom;
            }
        }
        let mut out: Vec<_> = scores.into_iter().collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Bm25Model {
        let mut idx = InvertedIndex::new();
        idx.add_document("coffee coffee coffee shop downtown");
        idx.add_document("coffee shop with pastries and more pastries");
        idx.add_document("hardware store with tools");
        Bm25Model::new(idx)
    }

    #[test]
    fn matching_doc_scores_positive() {
        let m = model();
        assert!(m.score("coffee", 0) > 0.0);
        assert_eq!(m.score("coffee", 2), 0.0);
    }

    #[test]
    fn tf_saturates() {
        // Doc 0 has tf=3 for coffee, doc 1 tf=1; doc 0 should score higher
        // but not 3x higher.
        let m = model();
        let s0 = m.score("coffee", 0);
        let s1 = m.score("coffee", 1);
        assert!(s0 > s1);
        assert!(s0 < 3.0 * s1);
    }

    #[test]
    fn rank_all_orders_descending() {
        let m = model();
        let r = m.rank_all("coffee pastries");
        assert_eq!(r[0].0, 1); // matches both terms
        assert!(r.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn unknown_query_empty() {
        let m = model();
        assert!(m.rank_all("sushi").is_empty());
    }
}
