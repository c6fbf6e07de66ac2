//! Pins for the quantized-first scoring tier:
//!
//! - recall@k against full-precision ground truth stays ≥ 0.95 at the
//!   default `rerank_factor = 4`;
//! - `ScoringTier::Full` is bit-identical to the pre-quantization
//!   engine (the escape hatch the parity suites ride on);
//! - `ScoringTier::Auto` below the activation threshold is also
//!   bit-identical, so existing small-collection callers see no change
//!   without opting out.

use vecdb::{Collection, CollectionConfig, Filter, ScoringTier, SearchParams, SearchStrategy};

const DIM: usize = 32;

fn pseudo(seed: u64, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xff51_afd7_ed55_8ccd);
            ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
        })
        .collect()
}

fn build(n: usize, tier: ScoringTier) -> Collection {
    let mut c = Collection::new(CollectionConfig {
        scoring_tier: tier,
        ..CollectionConfig::new(DIM)
    });
    for i in 0..n {
        let position = ((i % 100) as f64 * 0.01, (i / 100) as f64 * 0.01);
        c.insert(i as u64, pseudo(i as u64 + 1, DIM), position)
            .unwrap();
    }
    c
}

#[test]
fn quantized_recall_at_10_is_pinned() {
    let n = 4_000;
    let k = 10;
    let full = build(n, ScoringTier::Full);
    let quant = build(n, ScoringTier::Quantized { rerank_factor: 4 });
    let queries: Vec<Vec<f32>> = (0..50u64).map(|q| pseudo(q + 77, DIM)).collect();
    let mut hits = 0usize;
    let mut total = 0usize;
    for q in &queries {
        let params = SearchParams::top_k(k).with_strategy(SearchStrategy::Exact);
        let truth = full.search(q, &params).unwrap();
        let got = quant.search(q, &params).unwrap();
        let truth_ids: Vec<u64> = truth.iter().map(|h| h.id).collect();
        hits += got.iter().filter(|h| truth_ids.contains(&h.id)).count();
        total += k;
    }
    let recall = hits as f64 / total as f64;
    assert!(
        recall >= 0.95,
        "quantized recall@{k} = {recall:.3}, expected >= 0.95"
    );
    // And rerank keeps reported scores full-precision: every returned
    // (id, score) must match, bit for bit, what the full-precision
    // engine scores that id at.
    let q = pseudo(123_456, DIM);
    let params = SearchParams::top_k(k).with_strategy(SearchStrategy::Exact);
    for h in quant.search(&q, &params).unwrap() {
        let exact = full.knn_among(&q, &[h.id], 1).unwrap();
        assert_eq!(
            h.score.to_bits(),
            exact[0].score.to_bits(),
            "id {}: reranked score must be the full-precision score",
            h.id
        );
    }
}

#[test]
fn full_tier_is_bit_identical_to_auto_below_threshold() {
    // Below AUTO_QUANT_THRESHOLD, Auto never activates the tier: the
    // two configurations must produce bit-identical results on every
    // strategy, filtered or not.
    let n = 2_000;
    assert!(n < vecdb::AUTO_QUANT_THRESHOLD);
    let full = build(n, ScoringTier::Full);
    let auto = build(n, ScoringTier::Auto);
    let filter = Filter::geo_box(0.1, 0.0, 0.8, 0.2);
    for strategy in [SearchStrategy::Exact, SearchStrategy::Hnsw] {
        for q_seed in 0..20u64 {
            let q = pseudo(q_seed + 9_000, DIM);
            let params = SearchParams::top_k(10)
                .with_strategy(strategy)
                .with_filter(filter.clone());
            let a = full.search(&q, &params).unwrap();
            let b = auto.search(&q, &params).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id, "strategy {strategy:?} seed {q_seed}");
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "strategy {strategy:?} seed {q_seed}: scores differ in bits"
                );
            }
        }
    }
}

/// Bit-level equality of two hit lists.
fn assert_same_bits(a: &[vecdb::ScoredPoint], b: &[vecdb::ScoredPoint]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.score.to_bits(), y.score.to_bits());
    }
}

#[test]
fn quantized_batch_matches_sequential_bitwise() {
    // Under the quantized tier each query of a slice runs its own
    // coarse-scan-then-rerank inside the one search body, so a slice of
    // 16 must answer like 16 slices of one and like slices of 3 (recall
    // against full precision is pinned above).
    let n = 3_000;
    let c = build(n, ScoringTier::Quantized { rerank_factor: 4 });
    let queries: Vec<Vec<f32>> = (0..16).map(|i| pseudo(i + 31_337, DIM)).collect();
    let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
    let params = SearchParams::top_k(7).with_strategy(SearchStrategy::Exact);
    let batched = c.search_batch(&refs, &params).unwrap();
    let in_threes: Vec<_> = refs
        .chunks(3)
        .flat_map(|chunk| c.search_batch(chunk, &params).unwrap())
        .collect();
    for ((q, b), t) in queries.iter().zip(&batched).zip(&in_threes) {
        assert_same_bits(&c.search(q, &params).unwrap(), b);
        assert_same_bits(t, b);
    }

    // The candidate-list entry point, over an explicit candidate set
    // large enough to engage the coarse pass.
    let ids: Vec<u64> = (0..n as u64).step_by(2).collect();
    let batched = c.knn_among_batch(&refs, &ids, 9).unwrap();
    let in_threes: Vec<_> = refs
        .chunks(3)
        .flat_map(|chunk| c.knn_among_batch(chunk, &ids, 9).unwrap())
        .collect();
    for ((q, b), t) in queries.iter().zip(&batched).zip(&in_threes) {
        assert_same_bits(&c.knn_among(q, &ids, 9).unwrap(), b);
        assert_same_bits(t, b);
    }
}

#[test]
fn quantized_tier_activates_and_reports_memory() {
    let c = build(200, ScoringTier::Quantized { rerank_factor: 4 });
    let fp = c.memory_footprint();
    assert!(fp.quant_bytes > 0, "forced tier must build the code store");
    assert!(
        fp.quant_bytes < fp.vector_bytes / 2,
        "codes {} should be far smaller than vectors {}",
        fp.quant_bytes,
        fp.vector_bytes
    );
    assert!(fp.resident_bytes() < fp.total_bytes());

    // Auto below threshold: no quantized store, resident == total.
    let small = build(200, ScoringTier::Auto);
    let fp = small.memory_footprint();
    assert_eq!(fp.quant_bytes, 0);
    assert_eq!(fp.resident_bytes(), fp.total_bytes());
}

#[test]
fn deletes_are_respected_by_quantized_scans() {
    let mut c = build(2_000, ScoringTier::Quantized { rerank_factor: 4 });
    let q = pseudo(55, DIM);
    let params = SearchParams::top_k(5).with_strategy(SearchStrategy::Exact);
    let before = c.search(&q, &params).unwrap();
    // Delete the top hit: it must vanish from subsequent results.
    c.delete(before[0].id).unwrap();
    let after = c.search(&q, &params).unwrap();
    assert!(after.iter().all(|h| h.id != before[0].id));
}
