//! String interning: terms to dense ids.

use std::collections::HashMap;

/// Dense id of an interned term.
pub type TermId = u32;

/// A bidirectional term ↔ id mapping.
///
/// Term ids are dense and allocated in first-seen order, so they can index
/// into `Vec`-based statistics (document frequencies, topic counts, …).
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    map: HashMap<String, TermId>,
    terms: Vec<String>,
}

impl Vocabulary {
    /// An empty vocabulary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its id (existing or freshly allocated).
    pub fn intern(&mut self, term: &str) -> TermId {
        match self.map.get(term) {
            Some(&id) => id,
            None => self.intern_owned(term.to_owned()),
        }
    }

    /// [`Vocabulary::intern`] of a term the caller already owns.
    pub(crate) fn intern_owned(&mut self, term: String) -> TermId {
        if let Some(&id) = self.map.get(&term) {
            return id;
        }
        let id = self.terms.len() as TermId;
        self.terms.push(term.clone());
        self.map.insert(term, id);
        id
    }

    /// Id of an already-interned term.
    #[must_use]
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.map.get(term).copied()
    }

    /// The term string for an id.
    #[must_use]
    pub fn term(&self, id: TermId) -> Option<&str> {
        self.terms.get(id as usize).map(String::as_str)
    }

    /// Number of distinct terms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the vocabulary is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Interns every token in `tokens`, returning ids in order.
    pub fn intern_all(&mut self, tokens: &[String]) -> Vec<TermId> {
        tokens.iter().map(|t| self.intern(t)).collect()
    }

    /// Maps tokens to ids, dropping out-of-vocabulary tokens (for querying
    /// a frozen model).
    #[must_use]
    pub fn lookup_all(&self, tokens: &[String]) -> Vec<TermId> {
        tokens.iter().filter_map(|t| self.get(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("coffee");
        let b = v.intern("coffee");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), 0);
        assert_eq!(v.intern("b"), 1);
        assert_eq!(v.intern("a"), 0);
        assert_eq!(v.intern("c"), 2);
        assert_eq!(v.term(1), Some("b"));
        assert_eq!(v.term(3), None);
    }

    #[test]
    fn lookup_drops_oov() {
        let mut v = Vocabulary::new();
        v.intern("bar");
        let ids = v.lookup_all(&["bar".to_owned(), "unknown".to_owned()]);
        assert_eq!(ids, vec![0]);
    }
}
