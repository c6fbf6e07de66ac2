//! Property tests for the planner's cost model (`semask::cost`), on the
//! pure model API — no city preparation, so thousands of cases stay
//! cheap. Coefficients are drawn over positive values, six orders of
//! magnitude around the defaults.
//!
//! Pinned invariants:
//!
//! - **Argmin**: for any coefficients and any query features,
//!   `Coefficients::plan` returns the strategy with minimal predicted
//!   cost among the viable ones — except the documented near-empty pin,
//!   which must fire exactly when fewer than one candidate is estimated
//!   (keyword-free) and always chooses the exact scan.
//! - **No poisoned costs**: no positive coefficients and no features —
//!   from one point to a billion, with or without keywords — ever make a
//!   viable strategy's predicted cost negative, NaN, or non-finite.
//! - **Keyword viability**: filtered HNSW is priced out (non-viable,
//!   infinite) for every keyword-bearing query, and a rarer conjunction
//!   never costs the postings-first exact scan more.
//! - **Two keyword routes**: the IR-tree is never viable nor chosen, and
//!   a keyword plan picks the exact scan or the grid prefilter.

use proptest::prelude::*;
use semask::cost::{
    strategy_index, Coefficients, KeywordFeatures, QueryFeatures, NEAR_EMPTY_CANDIDATES, STRATEGIES,
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

/// Coefficients drawn over positive values, each spanning six orders
/// of magnitude around its default.
fn coefficients() -> impl Strategy<Value = Coefficients> {
    collection::vec(-3.0f64..3.0, 6).prop_map(|e| {
        let d = Coefficients::default();
        let scaled = |default: f64, exponent: f64| default * 10f64.powf(exponent);
        Coefficients {
            mask_us: scaled(d.mask_us, e[0]),
            score_us: scaled(d.score_us, e[1]),
            cell_us: scaled(d.cell_us, e[2]),
            gen_us: scaled(d.gen_us, e[3]),
            hop_us: scaled(d.hop_us, e[4]),
            isect_us: scaled(d.isect_us, e[5]),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_is_argmin_of_viable_costs(
        points in 1.0f64..100_000.0,
        fraction in 0.0f64..1.0,
        cells in 0.0f64..4096.0,
        k in 1usize..100,
        coef in coefficients(),
    ) {
        let f = features(points, fraction, cells, k, None);
        let plan = coef.plan(&f);
        prop_assert_eq!(plan.costs.len(), STRATEGIES.len());
        for c in plan.costs.iter().filter(|c| c.strategy != RetrievalStrategy::IrTree) {
            prop_assert!(c.viable, "no keywords: every planner route is viable");
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
    fn positive_coefficients_never_poison_costs(
        coef in coefficients(),
        points in 1.0f64..1e9,
        fraction in 0.0f64..1.0,
        cells in 0.0f64..1e6,
        k in 1usize..1000,
        keyword in (0u8..2, 0.0f64..1.0),
    ) {
        let kw_selectivity = (keyword.0 == 1).then_some(keyword.1);
        let f = features(points, fraction, cells, k, kw_selectivity);
        let plan = coef.plan(&f);
        for c in &plan.costs {
            if c.viable {
                prop_assert!(
                    c.predicted_us.is_finite() && c.predicted_us >= 0.0,
                    "{} poisoned to {}", c.strategy, c.predicted_us
                );
            } else {
                prop_assert_eq!(c.predicted_us, f64::INFINITY);
            }
        }
        prop_assert!(plan.costs[strategy_index(RetrievalStrategy::ExactScan)].viable);
        // The argmin invariant holds at these extremes too.
        if !plan.near_empty {
            let best = plan
                .costs
                .iter()
                .filter(|c| c.viable)
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
        coef in coefficients(),
    ) {
        let kw = features(points, fraction, 512.0, 10, Some(kw_selectivity));
        let plan = coef.plan(&kw);
        let hnsw = plan.costs[strategy_index(RetrievalStrategy::FilteredHnsw)];
        prop_assert!(!hnsw.viable);
        prop_assert!(hnsw.predicted_us.is_infinite());
        // The postings-first scan walks, looks up and scores only the
        // conjunctive matches, so a rarer conjunction never costs more.
        let rarer = features(points, fraction, 512.0, 10, Some(kw_selectivity / 2.0));
        let exact = |plan: &semask::PlanDecision| plan.predicted_for(RetrievalStrategy::ExactScan);
        prop_assert!(
            exact(&coef.plan(&rarer)) <= exact(&plan),
            "rarer {} vs {}", exact(&coef.plan(&rarer)), exact(&plan)
        );
    }

    #[test]
    fn the_irtree_is_never_planned(
        coef in coefficients(),
        points in 1.0f64..1e9,
        fraction in 0.0f64..1.0,
        cells in 0.0f64..1e6,
        k in 1usize..1000,
        keyword in (0u8..2, 0.0f64..1.0),
    ) {
        let kw_selectivity = (keyword.0 == 1).then_some(keyword.1);
        let plan = coef.plan(&features(points, fraction, cells, k, kw_selectivity));
        let irtree = plan.costs[strategy_index(RetrievalStrategy::IrTree)];
        prop_assert!(!irtree.viable);
        prop_assert!(plan.chosen != RetrievalStrategy::IrTree);
        prop_assert!(plan.runner_up.is_none_or(|ru| ru.strategy != RetrievalStrategy::IrTree));
        if kw_selectivity.is_some() {
            prop_assert!(plan.keyword_aware);
            prop_assert!(
                matches!(
                    plan.chosen,
                    RetrievalStrategy::ExactScan | RetrievalStrategy::GridPrefilter
                ),
                "keyword plan chose {}", plan.chosen
            );
        }
    }
}
