//! Criterion bench for the HNSW substrate: build throughput and search
//! latency vs beam width, against flat exact search — and the scoring
//! kernel all of them bottom out in, on its own (`kernel/*`: one 256-d
//! comparison, L1-hot, over `f32` vectors and over `u8` codes, and four
//! `f32` rows in one call).
//!
//! The build is timed on two kinds of vector, because neighbour
//! selection spends very differently on them: `hnsw/build-4k-256` over
//! uniform random vectors (nearly every candidate is selected) and
//! `hnsw/build-4k-metro` over the perf ledger's own world — clustered
//! POI embeddings, where most candidates are pruned by a closer one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use embed::{Embedder, SemanticEmbedder};
use semask::{PreparedCity, SemaSkConfig};
use vecdb::{inv_norm, Distance, FlatIndex, HnswConfig, HnswIndex, QuantizedVectors, Rows};

fn pseudo_vec(seed: u64, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|i| {
            let h = concepts::hash::mix(&[seed, i as u64]);
            (concepts::hash::unit_float(h) * 2.0 - 1.0) as f32
        })
        .collect()
}

/// `n` pseudo-random vectors of dimension `dim` as one row-major arena.
fn arena(n: usize, dim: usize, first_seed: u64) -> Vec<f32> {
    (0..n as u64)
        .flat_map(|i| pseudo_vec(first_seed + i, dim))
        .collect()
}

fn norms(rows: Rows<'_>) -> Vec<f32> {
    rows.iter().map(inv_norm).collect()
}

fn build(rows: Rows<'_>, inv: &[f32]) -> HnswIndex {
    let mut idx = HnswIndex::new(Distance::Cosine, HnswConfig::default());
    for i in 0..rows.len() {
        idx.insert(i, rows, inv);
    }
    idx
}

fn bench_kernel(c: &mut Criterion) {
    let dim = 256usize;
    // A handful of stored vectors (8 KB of f32s, 2 KB of codes) so the
    // operands stay L1-resident without the loop collapsing to one pair.
    let flat = arena(8, dim, 0);
    let stored = Rows::new(&flat, dim);
    let inv = norms(stored);
    let codes = QuantizedVectors::encode(stored);
    let q = pseudo_vec(1_000_000, dim);
    let q_inv = inv_norm(&q);

    let mut group = c.benchmark_group("kernel");
    group.bench_function("f32-256", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % stored.len();
            Distance::Cosine.distance_normed(black_box(&q), q_inv, stored.row(i), inv[i])
        });
    });
    // Four of the stored rows in one call, as the beam search scores a
    // node's neighbours; per row it is `f32-256`'s comparison bit for bit.
    group.bench_function("f32-256x4", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % stored.len();
            let pick = |r: usize| (i + r) % stored.len();
            Distance::Cosine.distance_normed_rows(
                black_box(&q),
                q_inv,
                std::array::from_fn(|r| stored.row(pick(r))),
                std::array::from_fn(|r| inv[pick(r)]),
            )
        });
    });
    group.bench_function("u8-256", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % stored.len();
            codes.distance_with_query_inv(Distance::Cosine, black_box(&q), q_inv, i)
        });
    });
    group.finish();
}

fn bench_hnsw(c: &mut Criterion) {
    let n = 4000usize;
    let dim = 256usize;
    let uniform = arena(n, dim, 0);
    let vectors = Rows::new(&uniform, dim);
    let queries: Vec<Vec<f32>> = (0..32).map(|i| pseudo_vec(1_000_000 + i, dim)).collect();

    let inv = norms(vectors);
    let idx = build(vectors, &inv);
    let mut flat = FlatIndex::new(Distance::Cosine);
    for v in vectors.iter() {
        flat.push(v.to_vec());
    }

    // The ledger's world (4,000-POI metro, seed 7) through the engine's
    // embedder: the vectors `prep.prepare_s` inserts.
    let embedder = SemanticEmbedder::new(SemaSkConfig::default().embedder);
    let metro_arena: Vec<f32> = datagen::generate_metro(&datagen::MetroConfig::new(n, 7))
        .dataset
        .iter()
        .flat_map(|obj| embedder.embed(&PreparedCity::embedding_text(obj)))
        .collect();
    let metro = Rows::new(&metro_arena, embedder.dim());
    let metro_inv = norms(metro);

    let mut group = c.benchmark_group("hnsw");
    // The ledger's world size and dimension: what `prep.prepare_s` pays.
    group.bench_function("build-4k-256", |b| {
        b.iter_with_large_drop(|| build(vectors, &inv));
    });
    group.bench_function("build-4k-metro", |b| {
        b.iter_with_large_drop(|| build(metro, &metro_inv));
    });
    for ef in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("search_ef", ef), &ef, |b, &ef| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(idx.search(q, 10, ef, vectors, &inv, None))
            });
        });
    }
    group.bench_function("flat_exact", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(flat.search(q, 10, None))
        });
    });
    group.bench_function("insert_1", |b| {
        b.iter_with_large_drop(|| {
            // Rebuild a small index to measure amortized insert cost.
            build(Rows::new(&uniform[..200 * dim], dim), &inv[..200])
        });
    });
    group.finish();
}

criterion_group!(benches, bench_kernel, bench_hnsw);
criterion_main!(benches);
