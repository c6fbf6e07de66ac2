//! Property tests for the planner's calibrated cost model
//! (`semask::cost`), on the pure model API — no city preparation, so
//! thousands of cases stay cheap.
//!
//! Pinned invariants:
//!
//! - **Argmin**: for any model snapshot and any query features,
//!   `CalibratedModel::plan` returns the strategy with minimal predicted
//!   cost among the viable ones — except the documented near-empty pin,
//!   which must fire exactly when fewer than one candidate is estimated
//!   (keyword-free) and always chooses the exact scan.
//! - **No poisoned costs**: no sequence of online observations — valid,
//!   extreme, negative, NaN, or infinite — ever makes a viable
//!   strategy's predicted cost negative, NaN, or non-finite.
//! - **Keyword viability**: filtered HNSW is priced out (non-viable,
//!   infinite) for every keyword-bearing query, and the conjunctive
//!   keyword filter never *raises* the IR-tree's predicted cost above
//!   its keyword-free prediction for the same range when the keyword
//!   narrows the candidate set.

use proptest::prelude::*;
use semask::cost::{
    strategy_index, CalibratedModel, Coefficients, KeywordFeatures, ProbeSample, QueryFeatures,
    NEAR_EMPTY_CANDIDATES, STRATEGIES,
};
use semask::retrieval::RetrievalStrategy;

/// Features from generated raw numbers, with the derived fields kept
/// consistent (candidates = fraction * points).
#[allow(clippy::too_many_arguments)]
fn features(
    points: f64,
    fraction: f64,
    cells: f64,
    k: usize,
    kw_selectivity: Option<f64>,
) -> QueryFeatures {
    let keyword = kw_selectivity.map(|sel| {
        let corpus_matches = points * sel;
        KeywordFeatures {
            terms: 2,
            unknown_terms: 0,
            min_doc_freq: corpus_matches.ceil(),
            corpus_matches,
            range_matches: corpus_matches * fraction,
        }
    });
    QueryFeatures {
        points,
        dim: 64.0,
        fraction,
        candidates: points * fraction,
        covered_cells: cells,
        k,
        ef_effective: ((4 * k).max(64)) as f64,
        keyword,
    }
}

/// A model whose coefficients come from synthetic (but plausible)
/// probe samples, so calibration code is on the tested path too.
fn calibrated(scale: f64) -> CalibratedModel {
    let mk = |strategy, candidates: f64, cells: f64, fraction: f64, elapsed: f64| ProbeSample {
        strategy,
        points: 2000.0,
        candidates,
        covered_cells: cells,
        fraction,
        ef_effective: 64.0,
        elapsed_us: elapsed * scale,
    };
    CalibratedModel::new(Coefficients::fit(&[
        mk(RetrievalStrategy::ExactScan, 14.0, 4.0, 0.007, 57.5),
        mk(RetrievalStrategy::ExactScan, 894.0, 460.0, 0.447, 276.7),
        mk(RetrievalStrategy::GridPrefilter, 14.0, 4.0, 0.007, 4.5),
        mk(RetrievalStrategy::GridPrefilter, 894.0, 460.0, 0.447, 200.8),
        mk(RetrievalStrategy::FilteredHnsw, 2000.0, 1024.0, 1.0, 134.4),
    ]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_is_argmin_of_viable_costs(
        points in 1.0f64..100_000.0,
        fraction in 0.0f64..1.0,
        cells in 0.0f64..4096.0,
        k in 1usize..100,
        probe_scale in 0.1f64..10.0,
    ) {
        let model = calibrated(probe_scale);
        let f = features(points, fraction, cells, k, None);
        let plan = model.plan(&f);
        prop_assert_eq!(plan.costs.len(), STRATEGIES.len());
        for c in &plan.costs {
            prop_assert!(c.viable, "no keywords: every strategy is viable");
            prop_assert!(
                c.predicted_us.is_finite() && c.predicted_us >= 0.0,
                "cost of {} is {}", c.strategy, c.predicted_us
            );
        }
        if f.candidates < NEAR_EMPTY_CANDIDATES {
            prop_assert!(plan.near_empty);
            prop_assert_eq!(plan.chosen, RetrievalStrategy::ExactScan);
        } else {
            prop_assert!(!plan.near_empty);
            let best = plan
                .costs
                .iter()
                .min_by(|a, b| a.predicted_us.total_cmp(&b.predicted_us))
                .unwrap();
            prop_assert!(
                plan.predicted_us <= best.predicted_us,
                "chosen {} at {} vs best {} at {}",
                plan.chosen, plan.predicted_us, best.strategy, best.predicted_us
            );
            let ru = plan.runner_up.expect("runner-up exists");
            prop_assert!(ru.strategy != plan.chosen);
            prop_assert!(ru.predicted_us >= plan.predicted_us);
        }
    }

    #[test]
    fn observations_never_poison_costs(
        observations in collection::vec(
            (0usize..4, -1e300f64..1e300, -1e300f64..1e300),
            1..80,
        ),
        poison_kind in 0usize..4,
        points in 1.0f64..10_000.0,
        fraction in 0.0f64..1.0,
    ) {
        let model = calibrated(1.0);
        for (s, predicted, actual) in &observations {
            model.observe(STRATEGIES[*s], *predicted, *actual);
        }
        // Explicit poison values beyond what the ranges above produce.
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0][poison_kind];
        for s in STRATEGIES {
            model.observe(s, poison, 1.0);
            model.observe(s, 1.0, poison);
        }
        let f = features(points, fraction, 512.0, 10, None);
        let plan = model.plan(&f);
        for c in &plan.costs {
            prop_assert!(
                c.predicted_us.is_finite() && c.predicted_us >= 0.0,
                "{} poisoned to {}", c.strategy, c.predicted_us
            );
        }
        // The argmin invariant holds for the updated snapshot too.
        if !plan.near_empty {
            let best = plan
                .costs
                .iter()
                .min_by(|a, b| a.predicted_us.total_cmp(&b.predicted_us))
                .unwrap();
            prop_assert_eq!(plan.chosen, best.strategy);
        }
    }

    #[test]
    fn keyword_queries_price_out_hnsw_and_reward_pruning(
        points in 10.0f64..100_000.0,
        fraction in 0.05f64..1.0,
        kw_selectivity in 0.0f64..1.0,
    ) {
        let model = calibrated(1.0);
        let plain = features(points, fraction, 512.0, 10, None);
        let kw = features(points, fraction, 512.0, 10, Some(kw_selectivity));
        let plan = model.plan(&kw);
        let hnsw = plan.costs[strategy_index(RetrievalStrategy::FilteredHnsw)];
        prop_assert!(!hnsw.viable);
        prop_assert!(hnsw.predicted_us.is_infinite());
        // A keyword filter narrows what the IR-tree traverses, so its
        // keyword prediction never exceeds its keyword-free prediction
        // by more than the constant per-term overhead.
        let ir_plain = model.plan(&plain).predicted_for(RetrievalStrategy::IrTree);
        let ir_kw = plan.predicted_for(RetrievalStrategy::IrTree);
        prop_assert!(
            ir_kw <= ir_plain + 1.0,
            "keyword IR-tree {ir_kw} vs plain {ir_plain}"
        );
    }
}
