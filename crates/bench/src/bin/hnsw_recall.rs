//! HNSW recall/latency characterisation — the vector-database substrate
//! behind SemaSK's filtering step (Qdrant stand-in).
//!
//! Prints recall@10 vs the `ef` search beam and vs the `M` link budget,
//! against exact (flat) search, on POI embeddings from the generated
//! Nashville dataset. Run with
//! `cargo run -p bench --release --bin hnsw_recall`.

use std::time::Instant;

use bench::scale_from_env;
use embed::{Embedder, SemanticEmbedder};
use vecdb::{Distance, FlatIndex, HnswConfig, HnswIndex, Rows};

fn recall(got: &[(usize, f32)], truth: &[(usize, f32)]) -> f64 {
    let t: Vec<usize> = truth.iter().map(|x| x.0).collect();
    got.iter().filter(|(i, _)| t.contains(i)).count() as f64 / t.len().max(1) as f64
}

fn main() {
    let scale = scale_from_env(1.0);
    eprintln!("generating Nashville POIs (scale {scale}) and embeddings ...");
    let city = datagen::poi::generate_city(&datagen::CITIES[1], (3716.0 * scale) as usize, 7);
    let embedder = SemanticEmbedder::default_model();
    let vectors: Vec<Vec<f32>> = city
        .dataset
        .iter()
        .map(|o| embedder.embed(&o.to_document()))
        .collect();
    let queries: Vec<Vec<f32>> = (0..50)
        .map(|i| embedder.embed(&format!("query {i}: cozy cafe with pour overs and wifi")))
        .collect();

    let mut flat = FlatIndex::new(Distance::Cosine);
    for v in &vectors {
        flat.push(v.clone());
    }
    let truths: Vec<Vec<(usize, f32)>> = queries.iter().map(|q| flat.search(q, 10, None)).collect();

    println!("\n--- recall@10 vs ef (M = 16) ---");
    println!("{:<8}{:>12}{:>16}", "ef", "recall@10", "mean query us");
    let inv: Vec<f32> = vectors.iter().map(|v| vecdb::inv_norm(v)).collect();
    let arena = vectors.concat();
    let rows = Rows::new(&arena, embedder.dim());
    let mut idx = HnswIndex::new(Distance::Cosine, HnswConfig::default());
    for i in 0..vectors.len() {
        idx.insert(i, rows, &inv);
    }
    for ef in [10usize, 20, 40, 80, 160, 320] {
        let mut r = 0.0;
        let t0 = Instant::now();
        for (q, truth) in queries.iter().zip(&truths) {
            let got = idx.search(q, 10, ef, rows, &inv, None);
            r += recall(&got, truth);
        }
        let us = t0.elapsed().as_micros() as f64 / queries.len() as f64;
        println!("{ef:<8}{:>12.3}{:>16.1}", r / queries.len() as f64, us);
    }

    println!("\n--- recall@10 vs M (ef = 64) ---");
    println!("{:<8}{:>12}", "M", "recall@10");
    for m in [4usize, 8, 16, 32] {
        let mut idx = HnswIndex::new(
            Distance::Cosine,
            HnswConfig {
                m,
                m0: m * 2,
                ..HnswConfig::default()
            },
        );
        for i in 0..vectors.len() {
            idx.insert(i, rows, &inv);
        }
        let mut r = 0.0;
        for (q, truth) in queries.iter().zip(&truths) {
            let got = idx.search(q, 10, 64, rows, &inv, None);
            r += recall(&got, truth);
        }
        println!("{m:<8}{:>12.3}", r / queries.len() as f64);
    }

    println!("\nExpected shape: recall rises monotonically with ef and M, approaching");
    println!("exact search; latency grows with ef (the classic HNSW trade-off).");
}
