//! Baseline retrieval methods (paper Section 4, "Competitors"): LDA and
//! TF-IDF ranking of the POIs in the query range.

use geotext::{BoundingBox, Dataset, ObjectId};
use lda::{jensen_shannon, LdaConfig, LdaModel};
use spatial::GridIndex;
use textindex::{InvertedIndex, TfIdfModel, Tokenizer, Vocabulary};

use crate::engine::SemaSkEngine;
use crate::query::SemaSkQuery;
use crate::retrieval::grid_over;

/// A retrieval method: given `(q.r, q.T, k)`, return up to `k` POI ids,
/// best first. All of Table 2's columns implement this.
pub trait Retriever {
    /// Method name as it appears in result tables.
    fn name(&self) -> &str;
    /// Runs the query.
    fn retrieve(&self, range: &BoundingBox, text: &str, k: usize) -> Vec<ObjectId>;
}

/// Grid resolution of the baselines' spatial filter.
const BASELINE_GRID_RES: usize = 32;

/// Ids of the objects inside `range`, ascending — the spatial half of a
/// lexical baseline, which ranks with its own scorer and holds no
/// vectors.
fn in_range(grid: &GridIndex, range: &BoundingBox) -> Vec<ObjectId> {
    let mut ids = grid.range_query(range);
    ids.sort_unstable();
    ids
}

/// TF-IDF baseline: cosine similarity between the query vector and each
/// in-range POI's document vector — the stronger baseline in the paper
/// (average F1@10 of 0.19).
pub struct TfIdfRetriever {
    model: TfIdfModel,
    grid: GridIndex,
}

impl TfIdfRetriever {
    /// Fits TF-IDF on the dataset's documents (doc id = object id),
    /// filtering ranges through a grid.
    #[must_use]
    pub fn new(dataset: &Dataset) -> Self {
        let mut index = InvertedIndex::new();
        for o in dataset.iter() {
            index.add_document(&o.to_document());
        }
        Self {
            model: TfIdfModel::fit(index),
            grid: grid_over(dataset, BASELINE_GRID_RES),
        }
    }
}

impl Retriever for TfIdfRetriever {
    fn name(&self) -> &str {
        "TF-IDF"
    }

    fn retrieve(&self, range: &BoundingBox, text: &str, k: usize) -> Vec<ObjectId> {
        let candidates: Vec<u32> = in_range(&self.grid, range)
            .into_iter()
            .map(|id| id.0)
            .collect();
        self.model
            .rank(text, &candidates)
            .into_iter()
            .take(k)
            .map(|(d, _)| ObjectId(d))
            .collect()
    }
}

/// LDA baseline: Jensen–Shannon similarity between the query's inferred
/// topic distribution and each in-range POI's — following the
/// semantics-aware spatial keyword line of work the paper cites (and
/// reproducing its weakness on short texts; average F1@10 of 0.05).
pub struct LdaRetriever {
    model: LdaModel,
    vocab: Vocabulary,
    tokenizer: Tokenizer,
    grid: GridIndex,
}

impl LdaRetriever {
    /// Trains LDA on the dataset's documents.
    ///
    /// Tokenization is deliberately *raw* (no stopword removal): the
    /// classic naive LDA setup that relies on the topic model itself to
    /// absorb function words. On short documents (~150 tokens, like the
    /// paper's POIs) and conversational queries this breaks down — topic
    /// estimates are dominated by scaffolding words — reproducing the
    /// paper's observation that short texts make "it difficult for LDA to
    /// learn accurate distributions" (Table 2: LDA averages 0.05).
    #[must_use]
    pub fn new(dataset: &Dataset, config: LdaConfig) -> Self {
        let tokenizer = Tokenizer::raw();
        let mut vocab = Vocabulary::new();
        let docs: Vec<Vec<u32>> = dataset
            .iter()
            .map(|o| vocab.intern_all(&tokenizer.tokenize(&o.to_document())))
            .collect();
        let model = LdaModel::fit(&docs, vocab.len(), config);
        Self {
            model,
            vocab,
            tokenizer,
            grid: grid_over(dataset, BASELINE_GRID_RES),
        }
    }
}

impl Retriever for LdaRetriever {
    fn name(&self) -> &str {
        "LDA"
    }

    fn retrieve(&self, range: &BoundingBox, text: &str, k: usize) -> Vec<ObjectId> {
        let tokens = self.vocab.lookup_all(&self.tokenizer.tokenize(text));
        let seed = concepts::hash::fnv1a(text.as_bytes());
        let qdist = self.model.infer(&tokens, seed);
        let mut scored: Vec<(ObjectId, f64)> = in_range(&self.grid, range)
            .into_iter()
            .map(|id| {
                let d = self
                    .model
                    .doc_topics(id.index())
                    .map(|dist| jensen_shannon(&qdist, dist))
                    .unwrap_or(0.0);
                (id, d)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored.into_iter().map(|(id, _)| id).collect()
    }
}

/// BM25 baseline: Okapi BM25 over the in-range POIs' documents.
///
/// Not in the paper's Table 2 (which uses TF-IDF), but the natural
/// stronger keyword baseline — included so the ablation bench can show
/// that better lexical ranking still doesn't close the semantic gap.
pub struct Bm25Retriever {
    model: textindex::Bm25Model,
    grid: GridIndex,
}

impl Bm25Retriever {
    /// Fits BM25 on the dataset's documents (doc id = object id),
    /// filtering ranges through a grid like the other lexical baselines.
    #[must_use]
    pub fn new(dataset: &Dataset) -> Self {
        let mut index = InvertedIndex::new();
        for o in dataset.iter() {
            index.add_document(&o.to_document());
        }
        Self {
            model: textindex::Bm25Model::new(index),
            grid: grid_over(dataset, BASELINE_GRID_RES),
        }
    }
}

impl Retriever for Bm25Retriever {
    fn name(&self) -> &str {
        "BM25"
    }

    fn retrieve(&self, range: &BoundingBox, text: &str, k: usize) -> Vec<ObjectId> {
        let in_range: std::collections::HashSet<u32> = in_range(&self.grid, range)
            .into_iter()
            .map(|id| id.0)
            .collect();
        self.model
            .rank_all(text)
            .into_iter()
            .filter(|(d, _)| in_range.contains(d))
            .take(k)
            .map(|(d, _)| ObjectId(d))
            .collect()
    }
}

/// Adapter exposing a [`SemaSkEngine`] (any variant) as a [`Retriever`].
pub struct SemaSkRetriever {
    engine: SemaSkEngine,
    label: String,
}

impl SemaSkRetriever {
    /// Wraps an engine.
    #[must_use]
    pub fn new(engine: SemaSkEngine) -> Self {
        let label = engine.variant().label().to_owned();
        Self { engine, label }
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &SemaSkEngine {
        &self.engine
    }
}

impl Retriever for SemaSkRetriever {
    fn name(&self) -> &str {
        &self.label
    }

    fn retrieve(&self, range: &BoundingBox, text: &str, k: usize) -> Vec<ObjectId> {
        match self.engine.query(&SemaSkQuery::new(*range, text)) {
            Ok(outcome) => outcome.answer_ids().into_iter().take(k).collect(),
            Err(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{poi::generate_city, queries::QueryGenConfig, CITIES};

    fn city() -> datagen::CityData {
        generate_city(&CITIES[3], 120, 17)
    }

    #[test]
    fn tfidf_retriever_respects_range_and_k() {
        let data = city();
        let r = TfIdfRetriever::new(&data.dataset);
        let qs = datagen::queries::generate_queries(
            &data,
            &QueryGenConfig {
                per_city: 3,
                ..QueryGenConfig::default()
            },
        );
        for tq in &qs {
            let got = r.retrieve(&tq.range, &tq.text, 10);
            assert!(got.len() <= 10);
            for id in &got {
                assert!(tq.range.contains(&data.dataset[*id].location));
            }
        }
    }

    #[test]
    fn tfidf_finds_literal_matches_first() {
        let data = city();
        let r = TfIdfRetriever::new(&data.dataset);
        // Query using a literal category word present in some POI.
        let all = data.dataset.bounds().unwrap();
        let got = r.retrieve(&all, "pizza", 5);
        if let Some(first) = got.first() {
            let doc = data.dataset[*first].to_document().to_lowercase();
            assert!(doc.contains("pizza"));
        }
    }

    #[test]
    fn lda_retriever_runs_and_respects_range() {
        let data = city();
        let r = LdaRetriever::new(
            &data.dataset,
            lda::LdaConfig {
                num_topics: 8,
                iterations: 30,
                ..lda::LdaConfig::default()
            },
        );
        let qs = datagen::queries::generate_queries(
            &data,
            &QueryGenConfig {
                per_city: 2,
                ..QueryGenConfig::default()
            },
        );
        for tq in &qs {
            let got = r.retrieve(&tq.range, &tq.text, 10);
            assert!(got.len() <= 10);
            for id in &got {
                assert!(tq.range.contains(&data.dataset[*id].location));
            }
        }
    }

    #[test]
    fn retriever_names() {
        let data = city();
        assert_eq!(TfIdfRetriever::new(&data.dataset).name(), "TF-IDF");
        assert_eq!(Bm25Retriever::new(&data.dataset).name(), "BM25");
    }

    #[test]
    fn bm25_respects_range_and_finds_literal_matches() {
        let data = city();
        let r = Bm25Retriever::new(&data.dataset);
        let all = data.dataset.bounds().unwrap();
        let got = r.retrieve(&all, "pizza", 5);
        for id in &got {
            assert!(data.dataset[*id]
                .to_document()
                .to_lowercase()
                .contains("pizza"));
        }
        // A small sub-range restricts results spatially.
        let small = geotext::BoundingBox::from_center_km(data.city.center(), 3.0, 3.0);
        for id in r.retrieve(&small, "pizza", 10) {
            assert!(small.contains(&data.dataset[id].location));
        }
    }
}
