//! Batched queries: answer many semantics-aware spatial keyword queries
//! in one call through `SemaSkEngine::query_batch`, and compare against
//! the same queries issued one at a time.
//!
//! One filtering path serves both: `query` is `query_batch` of one. A
//! batch plans once per distinct range group, shares the grid
//! candidate set across each group, and streams stored vectors through
//! the single-pass scoring kernel — a query's answer never depends on
//! its batch-mates (`tests/batch_parity.rs` pins this bit-for-bit at
//! the retrieval layer), so grouping buys speed only.
//!
//! ```sh
//! cargo run --release --example batch_queries
//! ```

use std::sync::Arc;
use std::time::Instant;

use geotext::BoundingBox;
use llm::SimLlm;
use semask::{prepare_city, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};

fn main() {
    // Offline prep, as in the quickstart.
    let city = datagen::poi::generate_city(&datagen::CITIES[1], 400, 42);
    let llm = Arc::new(SimLlm::new());
    let config = SemaSkConfig::default();
    let prepared = Arc::new(prepare_city(&city, &llm, &config).expect("preparation"));
    // SemaSK-EM (no LLM reranking) keeps the output focused on the
    // batched filtering stage.
    let engine = SemaSkEngine::new(prepared, Arc::clone(&llm), config, Variant::EmbeddingOnly);

    // A batch of queries: two range groups (downtown 5 km, wider 12 km)
    // x four texts. Queries sharing a range are planned and candidate-
    // generated once.
    let texts = [
        "quiet coffee with pastries",
        "live music and craft beer",
        "late night ramen",
        "a bookstore to browse for an hour",
    ];
    let center = datagen::CITIES[1].center();
    let ranges = [
        BoundingBox::from_center_km(center, 5.0, 5.0),
        BoundingBox::from_center_km(center, 12.0, 12.0),
    ];
    let queries: Vec<SemaSkQuery> = ranges
        .iter()
        .flat_map(|r| texts.iter().map(|t| SemaSkQuery::new(*r, *t)))
        .collect();

    // One batched call...
    let t0 = Instant::now();
    let batched = engine.query_batch(&queries).expect("batched queries");
    let batched_ms = t0.elapsed().as_secs_f64() * 1000.0;

    // ...vs the same queries one at a time.
    let t0 = Instant::now();
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| engine.query(q).expect("query"))
        .collect();
    let sequential_ms = t0.elapsed().as_secs_f64() * 1000.0;

    println!(
        "{} queries ({} range groups): batched {batched_ms:.2} ms, sequential {sequential_ms:.2} ms",
        queries.len(),
        ranges.len(),
    );
    for (q, (b, s)) in queries.iter().zip(batched.iter().zip(&sequential)) {
        let b_ids: Vec<_> = b.pois.iter().map(|p| p.id).collect();
        let s_ids: Vec<_> = s.pois.iter().map(|p| p.id).collect();
        assert_eq!(b_ids, s_ids, "batched and sequential answers must agree");
        let strategy = b
            .latency
            .filter_strategy
            .map_or("none", semask::retrieval::RetrievalStrategy::label);
        println!(
            "  [{strategy:>14}] \"{}\" -> top: {}",
            q.text,
            b.pois.first().map_or("(no results)", |p| &*p.name),
        );
    }
    println!("batched answers identical to sequential — batching is pure execution speed");
}
