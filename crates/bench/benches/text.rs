//! Criterion bench for the text substrates: TF-IDF ranking, embedding
//! generation, concept detection — the per-query and per-POI costs of
//! the non-LLM pipeline stages.
//!
//! `per_query/embed_query` embeds one fixed text, so after its first call
//! every key vector comes from the embedder's memo; `embed_query_cold`
//! embeds texts of words no call has used before, so every lexical key
//! is computed — the input with no reuse at all.

use criterion::{criterion_group, criterion_main, Criterion};
use std::cell::Cell;
use std::hint::black_box;

use concepts::{ConceptDetector, FidelityProfile};
use embed::{Embedder, SemanticEmbedder};
use textindex::{InvertedIndex, TfIdfModel, Tokenizer};

fn bench_text(c: &mut Criterion) {
    let data = datagen::poi::generate_city(&datagen::CITIES[1], 3716, 3);
    let docs: Vec<String> = data.dataset.iter().map(|o| o.to_document()).collect();

    let mut group = c.benchmark_group("text");
    group.sample_size(10);
    group.bench_function("tfidf_fit_3716_docs", |b| {
        b.iter_with_large_drop(|| {
            let mut idx = InvertedIndex::new();
            for d in &docs {
                idx.add_document(d);
            }
            TfIdfModel::fit(idx)
        });
    });
    let tokenizer = Tokenizer::new();
    group.bench_function("tokenize_3716_docs", |b| {
        b.iter(|| {
            let mut tokens = 0usize;
            for d in &docs {
                tokenizer.for_each_token(d, |_| tokens += 1);
            }
            tokens
        });
    });
    group.finish();

    let mut idx = InvertedIndex::new();
    for d in &docs {
        idx.add_document(d);
    }
    let model = TfIdfModel::fit(idx);
    let candidates: Vec<u32> = (0..500u32).collect();

    let mut group = c.benchmark_group("per_query");
    group.bench_function("tfidf_rank_500_candidates", |b| {
        b.iter(|| black_box(model.rank("sports bar with chicken wings", &candidates)));
    });

    let embedder = SemanticEmbedder::default_model();
    group.bench_function("embed_query", |b| {
        b.iter(|| black_box(embedder.embed("a bar to watch football that serves chicken")));
    });
    // Eight words per text, as many as `embed_query`'s text, each one
    // never embedded before.
    let next_word = Cell::new(0u64);
    group.bench_function("embed_query_cold", |b| {
        b.iter(|| {
            let n = next_word.get();
            next_word.set(n + 8);
            let text = format!(
                "q{n}x q{}x q{}x q{}x q{}x q{}x q{}x q{}x",
                n + 1,
                n + 2,
                n + 3,
                n + 4,
                n + 5,
                n + 6,
                n + 7
            );
            black_box(embedder.embed(&text))
        });
    });
    group.bench_function("embed_poi_document", |b| {
        b.iter(|| black_box(embedder.embed(&docs[0])));
    });

    let detector = ConceptDetector::builtin();
    let profile = FidelityProfile::gpt4o();
    group.bench_function("concept_detect_poi", |b| {
        b.iter(|| black_box(detector.detect_noisy(&docs[0], &profile)));
    });
    group.finish();
}

criterion_group!(benches, bench_text);
criterion_main!(benches);
