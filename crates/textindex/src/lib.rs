//! # textindex — classic text retrieval substrate
//!
//! Everything the *non-semantic* side of the reproduction needs:
//!
//! - [`Tokenizer`] — lower-casing, punctuation stripping, stopword removal,
//!   and a light suffix-stripping stemmer,
//! - [`Vocabulary`] — string interning to dense term ids,
//! - [`InvertedIndex`] — term → postings with exact boolean AND queries,
//!   over the whole corpus or among given candidates,
//! - [`SparseVector`] — sorted sparse vectors with dot/cosine,
//! - [`TfIdfModel`] — the TF-IDF baseline ranker of the paper's Table 2,
//! - [`Bm25Model`] — BM25 ranking over an inverted index.
//!
//! The paper's observation that "the TF-IDF measure … ignores the broader
//! semantics of the keywords" is exactly what this crate implements: a
//! purely surface-form view of text.

#![warn(missing_docs)]

pub mod bm25;
pub(crate) mod inverted;
pub mod sparse;
pub mod tfidf;
pub mod tokenizer;
pub mod vocab;

pub use bm25::Bm25Model;
pub use inverted::{DocId, DocTerms, InvertedIndex, QueryTermStats};
pub use sparse::SparseVector;
pub use tfidf::TfIdfModel;
pub use tokenizer::Tokenizer;
pub use vocab::{TermId, Vocabulary};
