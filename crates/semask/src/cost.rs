//! The planner's cost model: one formula per retrieval strategy over
//! query features, priced with constant coefficients.
//!
//! The planner decides the way System R priced plans: each
//! [`RetrievalStrategy`] has a cost formula over query features
//! (estimated candidates, grid cells touched, HNSW beam width, keyword
//! posting statistics) in work units, weighted by [`Coefficients`], and
//! the planner picks the argmin of the predicted costs
//! ([`Coefficients::plan`]). The IR-tree is priced at `+∞`: it is the
//! keyword-matching baseline, kept as a forced route only, so a keyword
//! plan chooses between the exact scan and the grid prefilter. Nothing
//! here reads a clock: a decision is a pure function of the features and
//! the coefficients, so two planners built separately over the same data
//! plan every query alike.

use crate::retrieval::RetrievalStrategy;

/// All strategies, in the fixed order cost tables use.
pub const STRATEGIES: [RetrievalStrategy; 4] = [
    RetrievalStrategy::ExactScan,
    RetrievalStrategy::FilteredHnsw,
    RetrievalStrategy::GridPrefilter,
    RetrievalStrategy::IrTree,
];

/// Index of a strategy in [`STRATEGIES`] (and in every cost table).
#[must_use]
pub fn strategy_index(strategy: RetrievalStrategy) -> usize {
    match strategy {
        RetrievalStrategy::ExactScan => 0,
        RetrievalStrategy::FilteredHnsw => 1,
        RetrievalStrategy::GridPrefilter => 2,
        RetrievalStrategy::IrTree => 3,
    }
}

/// Keyword-derived features of one query, read from the corpus
/// [`textindex::InvertedIndex`] statistics (document frequencies — see
/// [`textindex::InvertedIndex::query_stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeywordFeatures {
    /// Distinct query terms found in the corpus vocabulary.
    pub terms: usize,
    /// Distinct query tokens absent from the corpus (any such token
    /// empties the conjunctive result).
    pub unknown_terms: usize,
    /// Smallest document frequency among the known terms.
    pub min_doc_freq: f64,
    /// Estimated corpus-wide conjunctive match count.
    pub corpus_matches: f64,
    /// Estimated conjunctive matches **inside the query range**
    /// (`corpus_matches * fraction`, assuming keyword/location
    /// independence).
    pub range_matches: f64,
}

/// Everything a cost formula may look at for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryFeatures {
    /// Live points in the collection (`vecdb::CollectionStats::points`).
    pub points: f64,
    /// Vector dimensionality.
    pub dim: f64,
    /// Estimated fraction of the dataset inside the range.
    pub fraction: f64,
    /// Estimated spatial candidates (`fraction * points`).
    pub candidates: f64,
    /// Grid cells a prefilter probe touches for this range.
    pub covered_cells: f64,
    /// Result budget.
    pub k: usize,
    /// Effective HNSW beam width (`ef`, or the `max(4k, 64)` default).
    pub ef_effective: f64,
    /// Conjunctive keyword features, when the query carries keywords.
    pub keyword: Option<KeywordFeatures>,
}

impl QueryFeatures {
    /// The number of candidates the chosen scan strategy will actually
    /// score: all spatial candidates, narrowed by the keyword filter
    /// when one is present.
    fn scored_candidates(&self) -> f64 {
        match &self.keyword {
            Some(kw) => kw.range_matches.min(self.candidates),
            None => self.candidates,
        }
    }
}

/// Per-unit costs, all in microseconds, that weight the cost formulas.
/// The values must be finite and positive; [`Coefficients::default`] is
/// what every planner prices with unless its `PlannerConfig` says
/// otherwise (tests price a strategy out of reach to pin a route).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// Geo-mask evaluation per stored point: one pass over the store's
    /// typed `(lat, lon)` column, which the exact scan pays for
    /// **every** stored point, whatever the selectivity — ~2 ns a point,
    /// where the JSON look-up it replaced cost ~58. The postings-first
    /// keyword scan pays it once per corpus match instead (one position
    /// look-up).
    pub mask_us: f64,
    /// Scoring one candidate through the fused-dot-product kernel.
    pub score_us: f64,
    /// Probing one covered grid cell.
    pub cell_us: f64,
    /// Collecting/routing one candidate id (grid collect, `knn_among`
    /// id resolution).
    pub gen_us: f64,
    /// HNSW cost per unit of effective beam width at fraction 1 (the
    /// filtered beam degrades as the filter tightens, down to a 2 %
    /// selectivity floor).
    pub hop_us: f64,
    /// Touching one element of a sorted-list intersection (posting list
    /// ∩ posting list, or spatial candidates ∩ corpus matches).
    pub isect_us: f64,
}

/// Selectivity floor for the filtered-HNSW cost: below this fraction
/// the beam search mostly visits filtered-out nodes and the model stops
/// extrapolating further.
const FRACTION_FLOOR: f64 = 0.02;

/// Below one estimated in-range object every strategy costs less than
/// the measurement noise; the planner pins the exact scan (the
/// index-free baseline) for determinism. See [`PlanDecision::near_empty`].
pub const NEAR_EMPTY_CANDIDATES: f64 = 1.0;

impl Default for Coefficients {
    /// Magnitudes transcribed from `BENCH_planner.json`'s recorded
    /// curves. `mask_us` is what a timing fit answered on the 4,000-POI
    /// ledger world (0.0020 – 0.0030 over three builds; the bare column
    /// pass, `collection/geo-mask-4k`, is 2 ns a point and the scan's
    /// per-query constant comes on top).
    fn default() -> Self {
        Self {
            mask_us: 0.002,
            score_us: 0.11,
            cell_us: 0.02,
            gen_us: 0.08,
            hop_us: 2.0,
            isect_us: 0.004,
        }
    }
}

/// The cost formula of each strategy: a pure function of query features
/// and coefficients, in microseconds.
/// `INFINITY` means *not executable* for this query shape.
fn predict_us(strategy: RetrievalStrategy, f: &QueryFeatures, coef: &Coefficients) -> f64 {
    match strategy {
        // Without keywords the geo mask visits every live point and the
        // qualifying ones are scored in place. With keywords the scan
        // runs postings-first: intersect the posting lists (the rarest
        // list against each of the others), look up the position of
        // every match, and score the ones in range by id through
        // `knn_among` (one id resolution each).
        RetrievalStrategy::ExactScan => match &f.keyword {
            None => coef.mask_us * f.points + coef.score_us * f.candidates,
            Some(kw) => {
                coef.isect_us * kw.min_doc_freq * kw.terms as f64
                    + coef.mask_us * kw.corpus_matches
                    + (coef.gen_us + coef.score_us) * f.scored_candidates()
            }
        },
        // Probe the covered cells, collect candidates, intersect them
        // with the corpus matches when keywords are present, score them.
        RetrievalStrategy::GridPrefilter => {
            let intersect = f
                .keyword
                .map_or(0.0, |kw| coef.isect_us * (f.candidates + kw.corpus_matches));
            coef.cell_us * f.covered_cells
                + coef.gen_us * f.candidates
                + intersect
                + coef.score_us * f.scored_candidates()
        }
        // Beam search whose effective cost grows as the filter tightens;
        // cannot execute a conjunctive keyword filter exactly, so keyword
        // queries price it out entirely.
        RetrievalStrategy::FilteredHnsw => {
            if f.keyword.is_some() {
                return f64::INFINITY;
            }
            coef.hop_us * f.ef_effective / f.fraction.max(FRACTION_FLOOR)
        }
        // Not a planner route: the keyword-matching baseline runs only
        // when a caller forces it (`QueryPlanner::retrieve_with`).
        RetrievalStrategy::IrTree => f64::INFINITY,
    }
}

/// One strategy's predicted cost inside a [`PlanDecision`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyCost {
    /// The strategy priced.
    pub strategy: RetrievalStrategy,
    /// Predicted microseconds (`INFINITY` when not executable for this
    /// query shape).
    pub predicted_us: f64,
    /// Whether the strategy can execute this query at all.
    pub viable: bool,
}

/// The full outcome of planning one query: the chosen strategy, the
/// runner-up it beat, and the whole cost table — everything needed to
/// debug a misroute after the fact.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// The strategy the planner dispatches to.
    pub chosen: RetrievalStrategy,
    /// Predicted cost of the chosen strategy, microseconds.
    pub predicted_us: f64,
    /// The best strategy the choice beat, with its predicted cost.
    pub runner_up: Option<StrategyCost>,
    /// Predicted cost of every strategy, in [`STRATEGIES`] order.
    pub costs: Vec<StrategyCost>,
    /// The selectivity estimate the features were derived from.
    pub fraction: f64,
    /// True when fewer than [`NEAR_EMPTY_CANDIDATES`] objects are
    /// estimated in range and no keywords are present: every strategy
    /// costs less than measurement noise, so the planner pins the exact
    /// scan instead of trusting sub-noise cost differences.
    pub near_empty: bool,
    /// Whether keyword features entered this decision.
    pub keyword_aware: bool,
}

impl PlanDecision {
    /// The predicted cost of `strategy` in this decision's table.
    #[must_use]
    pub fn predicted_for(&self, strategy: RetrievalStrategy) -> f64 {
        self.costs[strategy_index(strategy)].predicted_us
    }
}

impl Coefficients {
    /// Prices every strategy for `features` and returns the argmin
    /// decision (plus the full table). The near-empty pin is documented
    /// on [`PlanDecision::near_empty`].
    #[must_use]
    pub fn plan(&self, features: &QueryFeatures) -> PlanDecision {
        let costs: Vec<StrategyCost> = STRATEGIES
            .iter()
            .map(|&strategy| {
                let predicted_us = predict_us(strategy, features, self);
                StrategyCost {
                    strategy,
                    predicted_us,
                    viable: predicted_us.is_finite(),
                }
            })
            .collect();
        let near_empty = features.candidates < NEAR_EMPTY_CANDIDATES && features.keyword.is_none();
        let argmin = costs
            .iter()
            .filter(|c| c.viable)
            .min_by(|a, b| a.predicted_us.total_cmp(&b.predicted_us))
            .expect("the exact scan is always viable");
        let chosen = if near_empty {
            RetrievalStrategy::ExactScan
        } else {
            argmin.strategy
        };
        let runner_up = costs
            .iter()
            .filter(|c| c.viable && c.strategy != chosen)
            .min_by(|a, b| a.predicted_us.total_cmp(&b.predicted_us))
            .copied();
        PlanDecision {
            chosen,
            predicted_us: costs[strategy_index(chosen)].predicted_us,
            runner_up,
            costs,
            fraction: features.fraction,
            near_empty,
            keyword_aware: features.keyword.is_some(),
        }
    }
}

/// Zeroes: the plan memo is gone. Kept only because `ledger/src/sut.rs:387`
/// reads it; leaves with the `retrieval.plan_memo_hit_rate` row in the
/// next benchmark PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanMemoStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(points: f64, fraction: f64) -> QueryFeatures {
        QueryFeatures {
            points,
            dim: 64.0,
            fraction,
            candidates: points * fraction,
            covered_cells: (1024.0 * fraction).max(1.0),
            k: 10,
            ef_effective: 64.0,
            keyword: None,
        }
    }

    fn rare_keyword(f: &QueryFeatures) -> QueryFeatures {
        QueryFeatures {
            keyword: Some(KeywordFeatures {
                terms: 2,
                unknown_terms: 0,
                min_doc_freq: 3.0,
                corpus_matches: 2.0,
                range_matches: 2.0 * f.fraction,
            }),
            ..*f
        }
    }

    #[test]
    fn chosen_is_argmin_of_viable_costs() {
        let coef = Coefficients::default();
        for fraction in [0.01, 0.05, 0.2, 0.5, 1.0] {
            let f = features(2000.0, fraction);
            let plan = coef.plan(&f);
            let best = plan
                .costs
                .iter()
                .filter(|c| c.viable)
                .min_by(|a, b| a.predicted_us.total_cmp(&b.predicted_us))
                .unwrap();
            assert!(!plan.near_empty);
            assert_eq!(plan.chosen, best.strategy, "fraction {fraction}");
            assert!(plan.runner_up.is_some());
            assert_ne!(plan.runner_up.unwrap().strategy, plan.chosen);
        }
    }

    #[test]
    fn near_empty_pins_exact_scan() {
        let coef = Coefficients::default();
        let plan = coef.plan(&features(2000.0, 0.0001));
        assert!(plan.near_empty);
        assert_eq!(plan.chosen, RetrievalStrategy::ExactScan);
        // The full table is still priced and observable.
        assert_eq!(plan.costs.len(), 4);
    }

    #[test]
    fn rare_conjunctive_keywords_route_postings_first() {
        let coef = Coefficients::default();
        // Broad range, rare keyword: the postings-first scan touches ~2
        // matches while the grid pays for the full spatial candidate set.
        let f = rare_keyword(&features(2000.0, 0.8));
        let plan = coef.plan(&f);
        assert_eq!(plan.chosen, RetrievalStrategy::ExactScan);
        assert!(plan.keyword_aware);
        // HNSW is priced out entirely for conjunctive keyword queries,
        // and the IR-tree for every query.
        for strategy in [RetrievalStrategy::FilteredHnsw, RetrievalStrategy::IrTree] {
            let cost = plan.costs[strategy_index(strategy)];
            assert!(!cost.viable);
            assert!(cost.predicted_us.is_infinite());
        }
        // A common keyword over a small range: the grid's few spatial
        // candidates are cheaper to intersect than the long postings.
        let small = features(2000.0, 0.01);
        let common = QueryFeatures {
            keyword: Some(KeywordFeatures {
                terms: 1,
                unknown_terms: 0,
                min_doc_freq: 1500.0,
                corpus_matches: 1500.0,
                range_matches: 1500.0 * small.fraction,
            }),
            ..small
        };
        assert_eq!(coef.plan(&common).chosen, RetrievalStrategy::GridPrefilter);
    }
}
