//! Inverted index: term → postings with term frequencies.

use std::collections::HashMap;

use crate::tokenizer::Tokenizer;
use crate::vocab::{TermId, Vocabulary};

/// Dense document id within one index.
pub type DocId = u32;

/// One posting: a document and the term's frequency in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Posting {
    /// Document containing the term.
    pub doc: DocId,
    /// Term frequency in that document; 0 marks a removed document's
    /// posting, left in place until its list is compacted.
    pub tf: u32,
}

impl Posting {
    /// False for a removed document's posting.
    #[must_use]
    pub(crate) fn is_live(&self) -> bool {
        self.tf > 0
    }
}

/// A document's text mapped onto an index's vocabulary by
/// [`InvertedIndex::doc_terms`]: the planned half of an edit, applied by
/// [`InvertedIndex::add_terms`], [`InvertedIndex::update_terms`] or
/// [`InvertedIndex::remove_terms`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocTerms {
    /// Term ids the vocabulary held, ascending, each with its count.
    known: Vec<(TermId, u32)>,
    /// Tokens it did not hold, in first-seen order, each with its count.
    unknown: Vec<(String, u32)>,
    /// Tokens in the document.
    len: u32,
}

/// Aggregate statistics of one conjunctive keyword query against an
/// index — the feature source a cost-based planner reads to decide
/// whether a postings-first intersection beats spatial-first
/// filtering. Computed from the vocabulary and posting metadata alone;
/// no posting list is walked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryTermStats {
    /// Distinct query terms present in the corpus vocabulary.
    pub known_terms: usize,
    /// Distinct query tokens absent from the corpus — one such token
    /// makes a conjunctive (AND) match impossible.
    pub unknown_terms: usize,
    /// Smallest document frequency among the known terms (0 when there
    /// are none): the tightest upper bound on the AND-result size.
    pub min_doc_freq: usize,
    /// Estimated number of documents matching **all** terms, under the
    /// usual attribute-independence assumption
    /// (`N * prod(df_i / N)`, and exactly 0 when any term is unknown).
    pub estimated_and_matches: f64,
}

/// A classic inverted index over a corpus of documents.
///
/// Documents are added once via [`InvertedIndex::add_document`]; postings
/// are kept sorted by doc id (documents are added in increasing order) so
/// AND-queries are sorted-list intersections.
///
/// Removing a document marks its postings dead in place (`tf == 0`)
/// rather than shifting every posting behind them: a list is compacted
/// once half of it is dead, so a remove costs a binary search per term
/// and the dead share of any list stays below one half. Each term counts
/// its dead postings, so [`InvertedIndex::doc_freq`] stays exact.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    vocab: Vocabulary,
    postings: Vec<Vec<Posting>>,
    /// Dead postings in each term's list.
    dead: Vec<u32>,
    doc_lens: Vec<u32>,
    tokenizer: Tokenizer,
}

impl InvertedIndex {
    /// An empty index with the default tokenizer.
    #[must_use]
    pub fn new() -> Self {
        Self::with_tokenizer(Tokenizer::new())
    }

    /// An empty index with a custom tokenizer.
    #[must_use]
    pub(crate) fn with_tokenizer(tokenizer: Tokenizer) -> Self {
        Self {
            vocab: Vocabulary::new(),
            postings: Vec::new(),
            dead: Vec::new(),
            doc_lens: Vec::new(),
            tokenizer,
        }
    }

    /// Adds a document, returning its id: [`InvertedIndex::doc_terms`]
    /// then [`InvertedIndex::add_terms`].
    pub fn add_document(&mut self, text: &str) -> DocId {
        let terms = self.doc_terms(text);
        self.add_terms(terms)
    }

    /// Removes a document's postings. `text` must be the exact text the
    /// document was last indexed with — the live-update path keeps the
    /// authoritative copy (the dataset object) and hands it back here.
    /// The doc id itself stays allocated (ids are dense positions shared
    /// with the dataset), so `num_docs` does not shrink; the document
    /// simply stops matching any term and its length drops to zero.
    pub fn remove_document(&mut self, doc: DocId, text: &str) {
        let terms = self.doc_terms(text);
        self.remove_terms(doc, terms);
    }

    /// Re-indexes document `doc` in place: drops the postings of
    /// `old_text`'s terms that `new_text` lacks, leaves those it holds as
    /// often, and gives the rest of `new_text`'s the same id — updating a
    /// posting's count, reviving a dead posting where the list still
    /// holds one, inserting in doc order otherwise — so every posting
    /// list stays sorted and AND-queries stay sorted intersections.
    /// `old_text` must be the text `doc` was last indexed with.
    pub fn update_document(&mut self, doc: DocId, old_text: &str, new_text: &str) {
        let old = self.doc_terms(old_text);
        let new = self.doc_terms(new_text);
        self.update_terms(doc, old, new);
    }

    /// The first half of every edit: `text` tokenized once and mapped
    /// onto the vocabulary under a shared borrow, so a writer can plan
    /// an edit while queries read the index. Tokens the vocabulary does
    /// not hold yet are kept as strings, in first-seen order, for the
    /// second half ([`InvertedIndex::add_terms`],
    /// [`InvertedIndex::update_terms`], [`InvertedIndex::remove_terms`])
    /// to intern — which interns them exactly as
    /// [`InvertedIndex::add_document`] would have. Terms planned before
    /// an earlier edit is applied stay valid: the vocabulary only grows,
    /// and a token that edit interned is looked up again.
    #[must_use]
    pub fn doc_terms(&self, text: &str) -> DocTerms {
        let mut ids = Vec::new();
        // Unknown token → (first-seen rank, count).
        let mut unknown: HashMap<String, (usize, u32)> = HashMap::new();
        let mut len = 0u32;
        self.tokenizer.for_each_token(text, |tok| {
            len += 1;
            if let Some(id) = self.vocab.get(tok) {
                ids.push(id);
            } else if let Some((_, n)) = unknown.get_mut(tok) {
                *n += 1;
            } else {
                let rank = unknown.len();
                unknown.insert(tok.to_owned(), (rank, 1));
            }
        });
        ids.sort_unstable();
        let mut unknown: Vec<(String, (usize, u32))> = unknown.into_iter().collect();
        unknown.sort_unstable_by_key(|(_, (rank, _))| *rank);
        DocTerms {
            known: term_runs(&ids).collect(),
            unknown: unknown.into_iter().map(|(tok, (_, n))| (tok, n)).collect(),
            len,
        }
    }

    /// Adds a document planned by [`InvertedIndex::doc_terms`], returning
    /// its id.
    pub fn add_terms(&mut self, terms: DocTerms) -> DocId {
        let doc = self.doc_lens.len() as DocId;
        self.doc_lens.push(terms.len);
        for (term, tf) in terms.known {
            self.postings_mut(term).push(Posting { doc, tf });
        }
        for (tok, tf) in terms.unknown {
            let term = self.vocab.intern_owned(tok);
            self.postings_mut(term).push(Posting { doc, tf });
        }
        doc
    }

    /// [`InvertedIndex::remove_document`] with the text planned by
    /// [`InvertedIndex::doc_terms`].
    pub fn remove_terms(&mut self, doc: DocId, old: DocTerms) {
        for (term, _) in self.resolve(old, false) {
            self.kill(term, doc);
        }
        if let Some(len) = self.doc_lens.get_mut(doc as usize) {
            *len = 0;
        }
    }

    /// [`InvertedIndex::update_document`] with both texts planned by
    /// [`InvertedIndex::doc_terms`].
    pub fn update_terms(&mut self, doc: DocId, old: DocTerms, new: DocTerms) {
        if let Some(len) = self.doc_lens.get_mut(doc as usize) {
            *len = new.len;
        }
        let mut old = self.resolve(old, false).into_iter().peekable();
        for (term, tf) in self.resolve(new, true) {
            while let Some((gone, _)) = old.next_if(|o| o.0 < term) {
                self.kill(gone, doc);
            }
            // A term the old text held as often is left as it is.
            if old.next_if(|o| o.0 == term).is_some_and(|o| o.1 == tf) {
                continue;
            }
            let posts = self.postings_mut(term);
            match posts.binary_search_by_key(&doc, |p| p.doc) {
                Ok(i) => {
                    let revived = !posts[i].is_live();
                    posts[i].tf = tf;
                    if revived {
                        self.dead[term as usize] -= 1;
                    }
                }
                Err(at) => posts.insert(at, Posting { doc, tf }),
            }
        }
        for (gone, _) in old {
            self.kill(gone, doc);
        }
    }

    /// `(term, count)` for every distinct token of `terms`, ascending by
    /// term: a token it was planned without is interned (in first-seen
    /// order) when `intern`, looked up — and dropped if still unknown —
    /// otherwise.
    fn resolve(&mut self, terms: DocTerms, intern: bool) -> Vec<(TermId, u32)> {
        let mut out = terms.known;
        let planned = out.len();
        for (tok, tf) in terms.unknown {
            let term = if intern {
                Some(self.vocab.intern_owned(tok))
            } else {
                self.vocab.get(&tok)
            };
            out.extend(term.map(|t| (t, tf)));
        }
        if out.len() > planned {
            out.sort_unstable_by_key(|&(t, _)| t);
        }
        out
    }

    /// Marks `doc`'s posting of `term` dead, compacting the list once
    /// half of it is.
    fn kill(&mut self, term: TermId, doc: DocId) {
        let t = term as usize;
        let Some(posts) = self.postings.get_mut(t) else {
            return;
        };
        let Ok(i) = posts.binary_search_by_key(&doc, |p| p.doc) else {
            return;
        };
        if !posts[i].is_live() {
            return;
        }
        posts[i].tf = 0;
        self.dead[t] += 1;
        if 2 * self.dead[t] as usize >= posts.len() {
            posts.retain(Posting::is_live);
            self.dead[t] = 0;
        }
    }

    /// The posting list of `term`, created empty if the term is new.
    fn postings_mut(&mut self, term: TermId) -> &mut Vec<Posting> {
        let t = term as usize;
        if t >= self.postings.len() {
            self.postings.resize_with(t + 1, Vec::new);
            self.dead.resize(t + 1, 0);
        }
        &mut self.postings[t]
    }

    /// Number of documents.
    #[must_use]
    pub fn num_docs(&self) -> usize {
        self.doc_lens.len()
    }

    /// Token length of document `doc`.
    #[must_use]
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_lens.get(doc as usize).copied().unwrap_or(0)
    }

    /// Mean document length (0 for an empty index).
    #[must_use]
    pub(crate) fn avg_doc_len(&self) -> f32 {
        if self.doc_lens.is_empty() {
            0.0
        } else {
            self.doc_lens.iter().sum::<u32>() as f32 / self.doc_lens.len() as f32
        }
    }

    /// The index's vocabulary.
    #[must_use]
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The index's tokenizer — callers that look tokens up in
    /// [`InvertedIndex::vocab`] must tokenize exactly the way the index
    /// does.
    #[must_use]
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Postings for a term id (empty slice if unseen), removed
    /// documents' dead ones (`tf == 0`) included until the list is
    /// compacted.
    #[must_use]
    pub(crate) fn postings(&self, term: TermId) -> &[Posting] {
        self.postings
            .get(term as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Document frequency of a term: its live postings.
    #[must_use]
    pub fn doc_freq(&self, term: TermId) -> usize {
        let dead = self.dead.get(term as usize).copied().unwrap_or(0);
        self.postings(term).len() - dead as usize
    }

    /// Tokenizes raw query text with the index's tokenizer and maps the
    /// tokens to known term ids (OOV tokens drop out).
    #[must_use]
    pub fn query_terms(&self, text: &str) -> Vec<TermId> {
        let mut ids = Vec::new();
        self.tokenizer.for_each_token(text, |tok| {
            ids.extend(self.vocab.get(tok));
        });
        ids
    }

    /// Document-frequency statistics of a conjunctive query, for
    /// cost-based planners. Tokenizes with the index's
    /// tokenizer; duplicate tokens collapse to one term.
    #[must_use]
    pub fn query_stats(&self, text: &str) -> QueryTermStats {
        let tokens = self.tokenizer.tokenize(text);
        let mut seen: Vec<String> = tokens;
        seen.sort_unstable();
        seen.dedup();
        let n = self.num_docs();
        let mut stats = QueryTermStats {
            known_terms: 0,
            unknown_terms: 0,
            min_doc_freq: 0,
            estimated_and_matches: if n == 0 { 0.0 } else { n as f64 },
        };
        for token in &seen {
            match self.vocab.get(token) {
                None => stats.unknown_terms += 1,
                Some(term) => {
                    let df = self.doc_freq(term);
                    stats.known_terms += 1;
                    stats.min_doc_freq = if stats.known_terms == 1 {
                        df
                    } else {
                        stats.min_doc_freq.min(df)
                    };
                    if n > 0 {
                        stats.estimated_and_matches *= df as f64 / n as f64;
                    }
                }
            }
        }
        if stats.unknown_terms > 0 || stats.known_terms == 0 || n == 0 {
            stats.estimated_and_matches = 0.0;
        }
        stats
    }

    /// The distinct term ids of `text`'s tokens, rarest first — or
    /// `None` when some token was never interned, which no document can
    /// hold.
    fn conjunction(&self, text: &str) -> Option<Vec<TermId>> {
        let mut terms = Vec::new();
        let mut known = true;
        self.tokenizer
            .for_each_token(text, |tok| match self.vocab.get(tok) {
                Some(t) => terms.push(t),
                None => known = false,
            });
        if !known {
            return None;
        }
        terms.sort_unstable();
        terms.dedup();
        terms.sort_by_key(|&t| self.doc_freq(t));
        Some(terms)
    }

    /// Keeps the entries of `docs` (ascending by document) whose
    /// documents hold every one of `terms`: one merge pass over each
    /// posting list.
    fn retain_holding<T: Copy>(
        &self,
        docs: &mut Vec<T>,
        terms: &[TermId],
        doc_of: impl Fn(T) -> DocId,
    ) {
        for &t in terms {
            if docs.is_empty() {
                return;
            }
            let posts = self.postings(t);
            let mut j = 0;
            docs.retain(|&c| {
                let d = doc_of(c);
                while j < posts.len() && posts[j].doc < d {
                    j += 1;
                }
                j < posts.len() && posts[j].doc == d && posts[j].is_live()
            });
        }
    }

    /// Boolean AND query: ids (ascending) of documents containing *all*
    /// query terms. A token the index has never seen empties the answer,
    /// and so does a query with no tokens at all.
    ///
    /// This is the "query keywords to be matched by the textual attributes"
    /// semantics that the paper's Figure 1 shows failing for "café".
    #[must_use]
    pub fn and_query(&self, text: &str) -> Vec<DocId> {
        let Some(terms) = self.conjunction(text) else {
            return Vec::new();
        };
        let Some((&rarest, rest)) = terms.split_first() else {
            return Vec::new();
        };
        let mut docs: Vec<DocId> = self
            .postings(rarest)
            .iter()
            .filter(|p| p.is_live())
            .map(|p| p.doc)
            .collect();
        self.retain_holding(&mut docs, rest, |d| d);
        docs
    }

    /// The entries of `candidates` (ascending by document, `doc_of`
    /// naming each one's document) whose documents contain *all* of
    /// `text`'s tokens, in candidate order. A token the index has never
    /// seen empties the answer; a text with no tokens constrains nothing.
    ///
    /// Two loops answer the same set, whichever touches less:
    /// when `candidates × terms` is below the terms' summed document
    /// frequency, each candidate binary-searches every posting list;
    /// otherwise the candidates are merged against each posting list in
    /// turn, rarest first.
    #[must_use]
    pub fn and_among<T: Copy>(
        &self,
        text: &str,
        candidates: &[T],
        doc_of: impl Fn(T) -> DocId,
    ) -> Vec<T> {
        let Some(terms) = self.conjunction(text) else {
            return Vec::new();
        };
        let postings_len: usize = terms.iter().map(|&t| self.doc_freq(t)).sum();
        if candidates.len() * terms.len() < postings_len {
            candidates
                .iter()
                .copied()
                .filter(|&c| {
                    let d = doc_of(c);
                    terms.iter().all(|&t| {
                        let posts = self.postings(t);
                        posts
                            .binary_search_by_key(&d, |p| p.doc)
                            .is_ok_and(|i| posts[i].is_live())
                    })
                })
                .collect()
        } else {
            let mut out = candidates.to_vec();
            self.retain_holding(&mut out, &terms, doc_of);
            out
        }
    }

    /// Boolean OR query with per-document match counts, useful for weak
    /// keyword ranking (`count` = number of distinct query terms matched).
    #[must_use]
    pub fn or_query(&self, text: &str) -> Vec<(DocId, u32)> {
        let mut terms = self.query_terms(text);
        terms.sort_unstable();
        terms.dedup();
        let mut counts: HashMap<DocId, u32> = HashMap::new();
        for t in terms {
            for p in self.postings(t).iter().filter(|p| p.is_live()) {
                *counts.entry(p.doc).or_insert(0) += 1;
            }
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// `(term, count)` for each run of equal ids in a sorted id list.
fn term_runs(ids: &[TermId]) -> impl Iterator<Item = (TermId, u32)> + '_ {
    ids.chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add_document("cozy cafe with great coffee and pastries"); // 0
        idx.add_document("sports bar showing football games with chicken wings"); // 1
        idx.add_document("coffee roastery and espresso bar"); // 2
        idx.add_document("ice cream parlor"); // 3
        idx
    }

    #[test]
    fn and_query_intersects() {
        let idx = sample();
        assert_eq!(idx.and_query("coffee bar"), vec![2]);
        assert_eq!(idx.and_query("coffee"), vec![0, 2]);
        assert!(idx.and_query("coffee football").is_empty());
    }

    #[test]
    fn and_query_unknown_terms_empty() {
        let idx = sample();
        assert!(idx.and_query("sushi").is_empty());
        assert!(idx.and_query("").is_empty());
        // One unknown token empties the whole conjunction.
        assert!(idx.and_query("coffee sushi").is_empty());
    }

    #[test]
    fn stemming_applies_to_queries_and_docs() {
        let idx = sample();
        // "games" in doc 1 should match query "game".
        assert_eq!(idx.and_query("game"), vec![1]);
        assert_eq!(idx.and_query("wings"), vec![1]);
    }

    #[test]
    fn or_query_ranks_by_match_count() {
        let idx = sample();
        let r = idx.or_query("coffee bar pastries");
        assert_eq!(r[0].0, 0); // matches coffee + pastries
        assert_eq!(r[0].1, 2);
    }

    #[test]
    fn doc_stats() {
        let idx = sample();
        assert_eq!(idx.num_docs(), 4);
        assert!(idx.doc_len(0) >= 5);
        assert!(idx.avg_doc_len() > 0.0);
        let coffee = idx.vocab().get("coffee").unwrap();
        assert_eq!(idx.doc_freq(coffee), 2);
    }

    #[test]
    fn query_stats_report_df_and_postings() {
        let idx = sample();
        // "coffee" appears in docs 0 and 2; "bar" in docs 1 and 2.
        let s = idx.query_stats("coffee bar");
        assert_eq!(s.known_terms, 2);
        assert_eq!(s.unknown_terms, 0);
        assert_eq!(s.min_doc_freq, 2);
        // Independence estimate: 4 * (2/4) * (2/4) = 1 — and the true
        // AND-result ("coffee bar" → doc 2) is indeed 1 document.
        assert!((s.estimated_and_matches - 1.0).abs() < 1e-9);

        // An unknown token pins the conjunctive estimate to zero.
        let s = idx.query_stats("coffee sushi");
        assert_eq!(s.known_terms, 1);
        assert_eq!(s.unknown_terms, 1);
        assert_eq!(s.estimated_and_matches, 0.0);

        // Duplicates collapse; an empty query has no terms.
        assert_eq!(idx.query_stats("coffee coffee").known_terms, 1);
        let s = idx.query_stats("");
        assert_eq!(s.known_terms, 0);
        assert_eq!(s.estimated_and_matches, 0.0);
    }

    #[test]
    fn remove_document_zeroes_df_and_length() {
        let mut idx = sample();
        let coffee = idx.vocab().get("coffee").unwrap();
        assert_eq!(idx.doc_freq(coffee), 2);
        idx.remove_document(2, "coffee roastery and espresso bar");
        assert_eq!(idx.doc_freq(coffee), 1);
        assert_eq!(idx.and_query("coffee"), vec![0]);
        assert!(idx.and_query("roastery").is_empty());
        assert_eq!(idx.doc_len(2), 0);
        // Ids stay dense: the corpus size is unchanged.
        assert_eq!(idx.num_docs(), 4);
        // Removing twice (or with stale text) is harmless.
        idx.remove_document(2, "coffee roastery and espresso bar");
        assert_eq!(idx.doc_freq(coffee), 1);
    }

    #[test]
    fn update_document_reindexes_in_place_sorted() {
        let mut idx = sample();
        idx.update_document(
            1,
            "sports bar showing football games with chicken wings",
            "quiet coffee corner",
        );
        // Old terms are gone, new terms match at the same id.
        assert!(idx.and_query("football").is_empty());
        assert_eq!(idx.and_query("coffee"), vec![0, 1, 2]);
        // Postings stay sorted by doc id after a mid-corpus insert.
        let coffee = idx.vocab().get("coffee").unwrap();
        let docs: Vec<DocId> = idx.postings(coffee).iter().map(|p| p.doc).collect();
        assert_eq!(docs, vec![0, 1, 2]);
        assert!(idx.doc_len(1) > 0);
        assert_eq!(idx.num_docs(), 4);
    }

    #[test]
    fn tf_counted_per_doc() {
        let mut idx = InvertedIndex::new();
        idx.add_document("pizza pizza pizza");
        let t = idx.vocab().get("pizza").unwrap();
        assert_eq!(idx.postings(t), &[Posting { doc: 0, tf: 3 }]);
    }
}
