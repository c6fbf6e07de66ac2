//! The planner's cost subsystem: calibrated per-strategy cost models,
//! a lock-free coefficient snapshot, and the online feedback loop.
//!
//! The planner decides the way database optimizers do: each
//! [`RetrievalStrategy`] has a cost formula over query features
//! (estimated candidates, grid cells touched, HNSW beam width, keyword
//! posting statistics), the formula's coefficients are **calibrated by
//! micro-probing the live backends** when a `QueryPlanner` is built, and
//! the planner picks the argmin of the predicted costs. A
//! [`CalibratedModel::observe`] feedback loop then folds every query's
//! measured filtering latency back into per-strategy scale factors
//! (EWMA), so the model tracks the machine it is actually running on.
//!
//! Concurrency: plans are read on every thread of a `query_batch` — the
//! submitting thread and the pool's workers — while observations stream
//! in from the queries finishing beside them. The mutable half of the
//! model (the per-strategy scales) lives behind a seqlock whose readers
//! are lock-free and always see a *consistent* snapshot, so concurrent
//! planners never compare costs from two different model generations.
//!
//! There is one decision procedure — features → price → argmin.
//! [`CostModel`] only says where the coefficients come from: timing
//! probes (the default) or the caller ([`CostModel::Fixed`], for plans
//! that must be identical across separately built planners).

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::retrieval::RetrievalStrategy;

/// Where the planner's [`Coefficients`] come from. The decision
/// procedure is the same either way ([`CalibratedModel::plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CostModel {
    /// Fitted from micro-probes of the live backends when the planner is
    /// built, then refined online from observed latencies while
    /// `PlannerConfig::online_updates` is on (the default).
    #[default]
    Calibrated,
    /// Used exactly as given: no probes, and no observations whatever
    /// `online_updates` says, so two planners built separately over the
    /// same data return equal [`PlanDecision`]s — which timing probes
    /// cannot give. Pricing a strategy's coefficients out of reach pins
    /// the route. The values must be finite and positive.
    Fixed(Coefficients),
}

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

/// Calibrated per-unit costs, all in microseconds. Fixed after
/// calibration; the online loop adjusts per-strategy *scales* on top,
/// which keeps every invariant trivial: base coefficients are clamped
/// positive once, scales are clamped to `[0.1, 10]` on every update, so
/// predicted costs can never go negative or NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// Geo-mask evaluation per stored point: one pass over the store's
    /// typed `(lat, lon)` column, which the exact scan pays for
    /// **every** stored point, whatever the selectivity — ~2 ns a point,
    /// where the JSON look-up it replaced cost ~58.
    pub mask_us: f64,
    /// Scoring one candidate through the fused-dot-product kernel.
    pub score_us: f64,
    /// Probing one covered grid cell.
    pub cell_us: f64,
    /// Collecting/routing one candidate id (grid collect, IR-tree leaf
    /// reporting, `knn_among` id resolution).
    pub gen_us: f64,
    /// HNSW cost per unit of effective beam width at fraction 1 (the
    /// filtered beam degrades as the filter tightens, down to a 2 %
    /// selectivity floor).
    pub hop_us: f64,
    /// Touching one element of a sorted-list intersection (keyword
    /// candidate ∩ spatial candidate merge).
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

const COEF_MIN: f64 = 1e-6;
const COEF_MAX: f64 = 1e7;
/// Online scale clamp: observations can speed a strategy up or slow it
/// down at most this far from its calibrated baseline.
const SCALE_MIN: f64 = 0.1;
/// See [`SCALE_MIN`].
const SCALE_MAX: f64 = 10.0;
const RATIO_CLAMP: f64 = 4.0;
const EWMA_ALPHA: f64 = 0.3;

fn clamp_coef(v: f64) -> f64 {
    if v.is_finite() {
        v.clamp(COEF_MIN, COEF_MAX)
    } else {
        COEF_MIN
    }
}

impl Default for Coefficients {
    /// Magnitudes transcribed from `BENCH_planner.json`'s recorded
    /// curves, used when a backend cannot be probed (empty collection,
    /// degenerate probe geometry). Calibration overrides them.
    /// `mask_us` is the start-up fit's own answer on the 4,000-POI
    /// ledger world (0.0020 – 0.0030 over three planners; the bare
    /// column pass, `collection/geo-mask-4k`, is 2 ns a point and the
    /// fit folds the scan's per-query constant in on top).
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

/// One timed probe of a real backend, input to [`Coefficients::fit`].
#[derive(Debug, Clone, Copy)]
pub struct ProbeSample {
    /// The strategy probed.
    pub strategy: RetrievalStrategy,
    /// Live points at probe time.
    pub points: f64,
    /// Estimated candidates for the probe range.
    pub candidates: f64,
    /// Grid cells the probe range covers.
    pub covered_cells: f64,
    /// Estimated selectivity of the probe range.
    pub fraction: f64,
    /// Effective beam width used.
    pub ef_effective: f64,
    /// Measured wall clock, microseconds (min over repetitions — minima
    /// are robust against preemption on a loaded box).
    pub elapsed_us: f64,
}

impl Coefficients {
    /// Fits coefficients from micro-probe samples of the live backends.
    /// Every solved value is clamped positive; degenerate probe
    /// geometry (identical candidate counts, singular systems) falls
    /// back to the defaults per coefficient.
    #[must_use]
    pub fn fit(samples: &[ProbeSample]) -> Self {
        let mut coef = Self::default();
        let of = |s: RetrievalStrategy| -> Vec<&ProbeSample> {
            samples.iter().filter(|p| p.strategy == s).collect()
        };

        // Exact scan: t = mask*n + score*c. Two probes at different
        // candidate counts separate the slope from the intercept.
        let exact = of(RetrievalStrategy::ExactScan);
        if let [a, b] = exact[..] {
            let (lo, hi) = if a.candidates <= b.candidates {
                (a, b)
            } else {
                (b, a)
            };
            if hi.candidates - lo.candidates >= 1.0 && lo.points > 0.0 {
                coef.score_us =
                    clamp_coef((hi.elapsed_us - lo.elapsed_us) / (hi.candidates - lo.candidates));
                coef.mask_us =
                    clamp_coef((lo.elapsed_us - coef.score_us * lo.candidates) / lo.points);
            }
        }

        // Grid prefilter: t = cell*cells + (gen + score)*c. Solve the
        // 2x2 system from two probes, then split off the shared scoring
        // coefficient.
        let grid = of(RetrievalStrategy::GridPrefilter);
        if let [a, b] = grid[..] {
            let det = a.covered_cells * b.candidates - b.covered_cells * a.candidates;
            if det.abs() > 1e-9 {
                let cell = (a.elapsed_us * b.candidates - b.elapsed_us * a.candidates) / det;
                let per_cand =
                    (a.covered_cells * b.elapsed_us - b.covered_cells * a.elapsed_us) / det;
                coef.cell_us = clamp_coef(cell);
                coef.gen_us = clamp_coef(per_cand - coef.score_us);
            }
        }

        // Filtered HNSW: t = hop * ef / max(fraction, floor). Probe at a
        // broad range where the filter barely degrades the beam.
        if let Some(h) = of(RetrievalStrategy::FilteredHnsw).first() {
            if h.ef_effective > 0.0 {
                coef.hop_us =
                    clamp_coef(h.elapsed_us * h.fraction.max(FRACTION_FLOOR) / h.ef_effective);
            }
        }

        // IR-tree traversal shares the candidate-collection and scoring
        // path with the grid (BENCH_planner.json measures them within
        // ~20% of each other); a dedicated probe refines nothing the
        // online loop will not, and would force the lazily built tree on
        // every `prepare_city`. Its per-candidate cost reuses gen/score;
        // the posting/intersection coefficient keeps its default until
        // observations arrive.
        coef
    }
}

/// Cost of a keyword filter for the spatial-first strategies: a sorted
/// intersection of the spatial candidates with the corpus AND-match
/// list.
fn keyword_intersect_us(f: &QueryFeatures, coef: &Coefficients) -> f64 {
    match &f.keyword {
        Some(kw) => coef.isect_us * (f.candidates + kw.corpus_matches),
        None => 0.0,
    }
}

/// The cost formula of each strategy: a pure function of query features
/// and coefficients, in microseconds (before the online scale).
/// `INFINITY` means *not executable* for this query shape.
fn predict_us(strategy: RetrievalStrategy, f: &QueryFeatures, coef: &Coefficients) -> f64 {
    match strategy {
        // The geo mask visits every live point, qualifying candidates
        // are scored — in place by the scan, or, when a keyword filter
        // thinned them first, by id through `knn_among` like the IR-tree's
        // (one id resolution per scored candidate). With the mask at a
        // few µs that second path is one the planner takes.
        RetrievalStrategy::ExactScan => {
            let per_scored = match f.keyword {
                Some(_) => coef.gen_us + coef.score_us,
                None => coef.score_us,
            };
            coef.mask_us * f.points
                + keyword_intersect_us(f, coef)
                + per_scored * f.scored_candidates()
        }
        // Probe the covered cells, collect candidates, score them.
        RetrievalStrategy::GridPrefilter => {
            coef.cell_us * f.covered_cells
                + coef.gen_us * f.candidates
                + keyword_intersect_us(f, coef)
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
        // R-tree descent plus per-candidate reporting and scoring. With
        // conjunctive keywords the node keyword summaries prune the
        // traversal down to the *matching* candidates — which is exactly
        // why rare-keyword queries route here.
        RetrievalStrategy::IrTree => {
            let descent = coef.cell_us * (f.points + 2.0).log2();
            match &f.keyword {
                None => descent + (coef.gen_us + coef.score_us) * f.candidates,
                Some(kw) => {
                    descent
                        + coef.gen_us * kw.terms as f64
                        + (coef.gen_us + coef.score_us) * f.scored_candidates()
                }
            }
        }
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
    /// Model generation the decision was planned against (0 = no
    /// observations yet).
    pub model_version: u64,
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

/// Lock-free snapshot of the four online scales (one per strategy, in
/// [`STRATEGIES`] order): a seqlock. Readers retry while a writer is
/// mid-update (sequence odd) or raced one (sequence changed), so every
/// returned snapshot is a consistent model generation; writers serialize
/// on a mutex. The sequence doubles as the model version (two increments
/// per completed update).
struct ScaleCell {
    seq: AtomicU64,
    slots: [AtomicU64; 4],
    write: Mutex<()>,
}

impl ScaleCell {
    /// Every scale at 1.0 (the calibrated baseline), version 0.
    fn new() -> Self {
        let one = || AtomicU64::new(1.0f64.to_bits());
        Self {
            seq: AtomicU64::new(0),
            slots: [one(), one(), one(), one()],
            write: Mutex::new(()),
        }
    }

    /// A consistent `(scales, version)` snapshot. Lock-free: never
    /// blocks, retries only while an update is in flight.
    fn load(&self) -> ([f64; 4], u64) {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let vals = self
                .slots
                .each_ref()
                .map(|slot| f64::from_bits(slot.load(Ordering::Relaxed)));
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return (vals, s1 / 2);
            }
        }
    }

    /// Completed updates so far (the model version).
    fn version(&self) -> u64 {
        self.seq.load(Ordering::Acquire) / 2
    }

    /// Applies `update` to the scale of one strategy under the write
    /// lock, publishing a new consistent snapshot. The stored value is
    /// clamped to `[SCALE_MIN, SCALE_MAX]`.
    fn update(&self, index: usize, update: impl FnOnce(f64) -> f64) {
        let _guard = self
            .write
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let current = f64::from_bits(self.slots[index].load(Ordering::Relaxed));
        let mut next = update(current);
        if !next.is_finite() {
            next = current;
        }
        let next = next.clamp(SCALE_MIN, SCALE_MAX);
        self.seq.fetch_add(1, Ordering::Release); // odd: update in flight
        fence(Ordering::Release);
        self.slots[index].store(next.to_bits(), Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release); // even: published
    }
}

/// The cost model: base coefficients (fitted from the build-time
/// micro-probes, or given — see [`CostModel`]) plus one online EWMA
/// scale per strategy, all four behind one seqlock snapshot. A
/// strategy's price is its base prediction times its scale.
pub struct CalibratedModel {
    base: Coefficients,
    scales: ScaleCell,
}

impl CalibratedModel {
    /// A model over calibrated (or default) coefficients, every scale
    /// at 1.
    #[must_use]
    pub fn new(base: Coefficients) -> Self {
        Self {
            base,
            scales: ScaleCell::new(),
        }
    }

    /// The calibrated base coefficients.
    #[must_use]
    pub fn coefficients(&self) -> &Coefficients {
        &self.base
    }

    /// Current per-strategy scales, in [`STRATEGIES`] order.
    #[must_use]
    pub fn scales(&self) -> [f64; 4] {
        self.scales.load().0
    }

    /// Completed online updates (the model version).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.scales.version()
    }

    /// Prices every strategy for `features` against one consistent
    /// model snapshot and returns the argmin decision (plus the full
    /// table). The near-empty pin is documented on
    /// [`PlanDecision::near_empty`].
    #[must_use]
    pub fn plan(&self, features: &QueryFeatures) -> PlanDecision {
        let (scales, version) = self.scales.load();
        let costs: Vec<StrategyCost> = STRATEGIES
            .iter()
            .zip(scales)
            .map(|(&strategy, scale)| {
                let raw = predict_us(strategy, features, &self.base);
                let predicted_us = if raw.is_finite() { raw * scale } else { raw };
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
            model_version: version,
            near_empty,
            keyword_aware: features.keyword.is_some(),
        }
    }

    /// Folds one observed execution back into the model: the strategy's
    /// scale moves toward `actual / predicted` by an EWMA step in the
    /// log domain, ratio-clamped per observation and hard-clamped to
    /// `[0.1, 10]` overall. Non-finite or non-positive inputs are
    /// rejected, so no observation sequence can ever make a predicted
    /// cost negative or NaN.
    pub fn observe(&self, strategy: RetrievalStrategy, predicted_us: f64, actual_us: f64) {
        if !predicted_us.is_finite()
            || !actual_us.is_finite()
            || predicted_us <= 0.0
            || actual_us <= 0.0
        {
            return;
        }
        let ratio = (actual_us / predicted_us).clamp(1.0 / RATIO_CLAMP, RATIO_CLAMP);
        self.scales.update(strategy_index(strategy), |current| {
            let target = (current * ratio).clamp(SCALE_MIN, SCALE_MAX);
            (current.ln() * (1.0 - EWMA_ALPHA) + target.ln() * EWMA_ALPHA).exp()
        });
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
        let model = CalibratedModel::new(Coefficients::default());
        for fraction in [0.01, 0.05, 0.2, 0.5, 1.0] {
            let f = features(2000.0, fraction);
            let plan = model.plan(&f);
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
        let model = CalibratedModel::new(Coefficients::default());
        let plan = model.plan(&features(2000.0, 0.0001));
        assert!(plan.near_empty);
        assert_eq!(plan.chosen, RetrievalStrategy::ExactScan);
        // The full table is still priced and observable.
        assert_eq!(plan.costs.len(), 4);
    }

    #[test]
    fn rare_conjunctive_keywords_route_to_the_irtree() {
        let model = CalibratedModel::new(Coefficients::default());
        // Broad range, rare keyword: the keyword-pruned traversal
        // touches ~2 candidates while every scan strategy pays for the
        // full spatial candidate set.
        let f = rare_keyword(&features(2000.0, 0.8));
        let plan = model.plan(&f);
        assert_eq!(plan.chosen, RetrievalStrategy::IrTree);
        assert!(plan.keyword_aware);
        // HNSW is priced out entirely for conjunctive keyword queries.
        let hnsw = plan.costs[strategy_index(RetrievalStrategy::FilteredHnsw)];
        assert!(!hnsw.viable);
        assert!(hnsw.predicted_us.is_infinite());
    }

    #[test]
    fn observe_rejects_poison_and_keeps_costs_finite() {
        let model = CalibratedModel::new(Coefficients::default());
        let f = features(500.0, 0.3);
        let before = model.plan(&f);
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            model.observe(RetrievalStrategy::GridPrefilter, bad, 10.0);
            model.observe(RetrievalStrategy::GridPrefilter, 10.0, bad);
        }
        assert_eq!(model.version(), 0, "poison observations are dropped");
        // A flood of extreme (but valid) observations stays clamped.
        for _ in 0..200 {
            model.observe(RetrievalStrategy::ExactScan, 1.0, 1e12);
            model.observe(RetrievalStrategy::FilteredHnsw, 1e12, 1.0);
        }
        let after = model.plan(&f);
        for c in &after.costs {
            if c.viable {
                assert!(c.predicted_us.is_finite() && c.predicted_us > 0.0);
            }
        }
        let i_exact = strategy_index(RetrievalStrategy::ExactScan);
        let i_hnsw = strategy_index(RetrievalStrategy::FilteredHnsw);
        let scales = model.scales();
        assert!((scales[i_exact] - SCALE_MAX).abs() < 1e-9);
        assert!((scales[i_hnsw] - SCALE_MIN).abs() < 1e-9);
        assert!(model.version() >= 400);
        assert!(after.model_version > before.model_version);
    }

    #[test]
    fn observations_move_predictions_toward_actuals() {
        let model = CalibratedModel::new(Coefficients::default());
        let f = features(1000.0, 0.3);
        let before = model
            .plan(&f)
            .predicted_for(RetrievalStrategy::GridPrefilter);
        // The backend consistently measures at a fixed level 2x the
        // initial prediction; the prediction must converge to it.
        let actual = before * 2.0;
        for _ in 0..50 {
            let p = model
                .plan(&f)
                .predicted_for(RetrievalStrategy::GridPrefilter);
            model.observe(RetrievalStrategy::GridPrefilter, p, actual);
        }
        let after = model
            .plan(&f)
            .predicted_for(RetrievalStrategy::GridPrefilter);
        assert!(
            (after - actual).abs() / actual < 0.1,
            "EWMA converges near the observed level: {before} -> {after} (target {actual})"
        );
    }

    #[test]
    fn scale_cell_snapshots_are_consistent_under_contention() {
        let cell = std::sync::Arc::new(ScaleCell::new());
        // Writers keep all four slots equal at all times; any torn read
        // would surface as a mixed snapshot.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            {
                let cell = std::sync::Arc::clone(&cell);
                let stop = std::sync::Arc::clone(&stop);
                scope.spawn(move || {
                    for round in 1..500u64 {
                        let v = 1.0 + (round % 7) as f64;
                        for i in 0..4 {
                            cell.update(i, |_| v);
                        }
                    }
                    stop.store(true, Ordering::Release);
                });
            }
            for _ in 0..3 {
                let cell = std::sync::Arc::clone(&cell);
                let stop = std::sync::Arc::clone(&stop);
                scope.spawn(move || {
                    let mut last_version = 0;
                    while !stop.load(Ordering::Acquire) {
                        let (scales, version) = cell.load();
                        assert!(version >= last_version, "version went backwards");
                        last_version = version;
                        for s in scales {
                            assert!((SCALE_MIN..=SCALE_MAX).contains(&s));
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn fit_recovers_synthetic_coefficients() {
        // The mask term at what the geo column costs: a few µs of the
        // narrow probe, and still separable from the scoring slope.
        let truth = Coefficients {
            mask_us: 0.002,
            score_us: 0.4,
            cell_us: 0.01,
            gen_us: 0.1,
            hop_us: 1.5,
            isect_us: 0.004,
        };
        let mk = |strategy, points: f64, candidates: f64, cells: f64, fraction: f64| {
            let f = QueryFeatures {
                points,
                dim: 64.0,
                fraction,
                candidates,
                covered_cells: cells,
                k: 10,
                ef_effective: 64.0,
                keyword: None,
            };
            let elapsed = predict_us(strategy, &f, &truth);
            ProbeSample {
                strategy,
                points,
                candidates,
                covered_cells: cells,
                fraction,
                ef_effective: 64.0,
                elapsed_us: elapsed,
            }
        };
        let samples = [
            mk(RetrievalStrategy::ExactScan, 2000.0, 20.0, 4.0, 0.01),
            mk(RetrievalStrategy::ExactScan, 2000.0, 900.0, 460.0, 0.45),
            mk(RetrievalStrategy::GridPrefilter, 2000.0, 20.0, 4.0, 0.01),
            mk(RetrievalStrategy::GridPrefilter, 2000.0, 900.0, 460.0, 0.45),
            mk(RetrievalStrategy::FilteredHnsw, 2000.0, 2000.0, 1024.0, 1.0),
        ];
        let fitted = Coefficients::fit(&samples);
        assert!((fitted.mask_us - truth.mask_us).abs() / truth.mask_us < 0.05);
        assert!((fitted.score_us - truth.score_us).abs() / truth.score_us < 0.05);
        assert!((fitted.cell_us - truth.cell_us).abs() / truth.cell_us < 0.05);
        assert!((fitted.gen_us - truth.gen_us).abs() / truth.gen_us < 0.05);
        assert!((fitted.hop_us - truth.hop_us).abs() / truth.hop_us < 0.05);
    }

    #[test]
    fn fit_degenerate_probes_fall_back_to_defaults() {
        let fitted = Coefficients::fit(&[]);
        assert_eq!(fitted, Coefficients::default());
        // Identical candidate counts cannot separate slope from
        // intercept; the fit must not divide by ~zero.
        let p = ProbeSample {
            strategy: RetrievalStrategy::ExactScan,
            points: 100.0,
            candidates: 5.0,
            covered_cells: 2.0,
            fraction: 0.05,
            ef_effective: 64.0,
            elapsed_us: 10.0,
        };
        let fitted = Coefficients::fit(&[p, p]);
        assert!(fitted.mask_us.is_finite() && fitted.mask_us > 0.0);
        assert!(fitted.score_us.is_finite() && fitted.score_us > 0.0);
    }
}
