//! The retrieval layer's planning half: a selectivity estimator, the
//! corpus keyword statistics, and a cost-based query planner.
//!
//! The paper's filtering step answers one question — *top-k objects by
//! embedding similarity within the range `q.r`* — and the planner
//! answers it three ways ([`RetrievalStrategy`]):
//!
//! 1. **Exact scan**: brute-force the qualifying points. Optimal when
//!    the range is highly selective. With a conjunctive keyword filter
//!    it runs **postings-first**: the corpus posting lists are
//!    intersected, rarest first, and the matches whose collection
//!    position lies in range are scored.
//! 2. **Filtered HNSW**: beam search over the graph with a geo filter
//!    mask. Wins when the range is broad; never serves keywords.
//! 3. **Grid prefilter**: a uniform grid narrows candidates in O(cells),
//!    then only those are scored (with keywords: the candidates holding
//!    every keyword).
//!
//! A fourth, the **IR-tree** (Li et al., TKDE 2011), is the
//! keyword-matching baseline the paper argues against. It is not a
//! planner route — the cost model prices it at `+∞` — and runs only when
//! a caller forces it through [`QueryPlanner::retrieve_with`].
//!
//! All four execute through one type, [`crate::backend::RetrievalBackend`]
//! — a candidate source over one collection, with **one** k-NN method
//! over a slice of query vectors (a single query is a slice of one).
//! [`QueryPlanner`] picks among the three routes per query group by
//! pricing each with the cost formulas in [`crate::cost`] —
//! fed by grid-cell cardinality estimates from [`SelectivityEstimator`],
//! keyword posting statistics from the corpus inverted index, and
//! `vecdb` collection statistics — and dispatching to the argmin. Every
//! consumer of the filtering stage — `SemaSkEngine`, `PreparedCity`, the
//! shard servers of `semask-net` — goes through the planner.
//!
//! A keyword text with no tokens is no constraint (the tokenless rule,
//! stated once on `QueryPlanner::keyword_constraint`).

use std::fmt;
use std::sync::{Arc, OnceLock};

use geotext::{BoundingBox, Dataset, GeoPoint, ObjectId};
use parking_lot::RwLock;
use spatial::{GridIndex, IrTree, Item};
use textindex::DocTerms;
use vecdb::{CollectionHandle, ScoredPoint, VecDbError};

use crate::backend::{CandidateSource, RetrievalBackend};
use crate::cost::{
    Coefficients, KeywordFeatures, PlanDecision, PlanMemoStats, QueryFeatures, StrategyCost,
};

/// Errors from the retrieval layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum RetrievalError {
    /// Vector database failure.
    VecDb(VecDbError),
}

impl fmt::Display for RetrievalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetrievalError::VecDb(e) => write!(f, "vector db: {e}"),
        }
    }
}

impl std::error::Error for RetrievalError {}

impl From<VecDbError> for RetrievalError {
    fn from(e: VecDbError) -> Self {
        RetrievalError::VecDb(e)
    }
}

/// The filtering strategies the planner can dispatch to. Observable in
/// `LatencyBreakdown::filter_strategy` and result debug output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetrievalStrategy {
    /// Exact scan of points qualifying under the geo filter; with
    /// keywords, postings-first — the corpus matches whose position lies
    /// in range, scored by id.
    ExactScan,
    /// Filtered HNSW graph search.
    FilteredHnsw,
    /// Uniform-grid candidate prefilter, then exact scoring.
    GridPrefilter,
    /// IR-tree range traversal, then exact scoring: the keyword-matching
    /// baseline. Never planned (priced at `+∞`); reachable only through
    /// [`QueryPlanner::retrieve_with`], for debugging and benches.
    IrTree,
}

impl RetrievalStrategy {
    /// Stable label for logs and result tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RetrievalStrategy::ExactScan => "exact-scan",
            RetrievalStrategy::FilteredHnsw => "filtered-hnsw",
            RetrievalStrategy::GridPrefilter => "grid-prefilter",
            RetrievalStrategy::IrTree => "ir-tree",
        }
    }
}

impl fmt::Display for RetrievalStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The key batch execution groups queries under: bit-identical range
/// plus identical `(k, ef)` budgets. Queries sharing a key are planned
/// once and share one candidate set in
/// [`QueryPlanner::retrieve_batch`].
///
/// Public so layers *above* batch execution (the `semask-serve`
/// admission queue foremost) can order a micro-batch by key before
/// handing it to [`crate::engine::SemaSkEngine::query_batch`], keeping
/// range-compatible queries contiguous and group sharing maximal. The
/// `Ord` impl is an arbitrary but stable total order — meaningful only
/// for grouping, not geographically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchGroupKey {
    range_bits: [u64; 4],
    k: usize,
    ef: Option<usize>,
    /// Hash of the conjunctive keyword filter (0 when the query carries
    /// none). Keeps keyword-filtered queries out of unfiltered groups
    /// for *ordering*; batch execution additionally compares the actual
    /// keyword strings, so a hash collision can only cost grouping
    /// efficiency, never correctness.
    keywords: u64,
}

impl BatchGroupKey {
    /// The key for a query over `range` with result budget `(k, ef)`
    /// and no keyword filter.
    #[must_use]
    pub fn new(range: &BoundingBox, k: usize, ef: Option<usize>) -> Self {
        Self::with_keywords(range, k, ef, None)
    }

    /// The key for a query that may carry a conjunctive keyword filter.
    #[must_use]
    pub fn with_keywords(
        range: &BoundingBox,
        k: usize,
        ef: Option<usize>,
        keywords: Option<&str>,
    ) -> Self {
        use std::hash::{Hash, Hasher};
        let keywords = match keywords.filter(|kw| !kw.trim().is_empty()) {
            None => 0,
            Some(kw) => {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                kw.hash(&mut h);
                h.finish() | 1 // never 0, so "has keywords" stays visible
            }
        };
        Self {
            range_bits: [
                range.min_lat.to_bits(),
                range.min_lon.to_bits(),
                range.max_lat.to_bits(),
                range.max_lon.to_bits(),
            ],
            k,
            ef,
            keywords,
        }
    }
}

/// The grid the prefilter strategy, the selectivity estimator and the
/// lexical baselines query: every object of `dataset` at `resolution`
/// cells per axis.
pub(crate) fn grid_over(dataset: &Dataset, resolution: usize) -> GridIndex {
    let items = dataset
        .iter()
        .map(|o| Item::new(o.id, o.location))
        .collect();
    GridIndex::build(items, resolution).expect("non-zero grid resolution")
}

/// Live-inserted points the frozen dataset-derived indexes (grid,
/// IR-tree) cannot see. The collection-backed strategies (exact scan,
/// filtered HNSW) pick inserts up from the collection itself; the
/// index strategies merge this buffer into their candidate sets so
/// all four keep answering `filter_range` and `knn_in_range` from the
/// same live membership. Deletes need no counterpart here — every
/// candidate path already masks them through the collection's
/// soft-delete set (`contains` / `knn_among_batch`). Periodic
/// compaction (checkpoint + reopen) folds the buffer back into rebuilt
/// indexes.
#[derive(Debug, Default)]
pub struct SidePoints {
    points: RwLock<Vec<(u64, GeoPoint)>>,
}

impl SidePoints {
    /// Records a live-inserted point.
    pub(crate) fn push(&self, id: u64, location: GeoPoint) {
        self.points.write().push((id, location));
    }

    /// Ids of buffered points inside `range`, in insertion order.
    #[must_use]
    pub(crate) fn ids_in_range(&self, range: &BoundingBox) -> Vec<ObjectId> {
        self.points
            .read()
            .iter()
            .filter(|(_, loc)| range.contains(loc))
            .map(|(id, _)| ObjectId(*id as u32))
            .collect()
    }

    /// Number of buffered points inside `range`.
    fn count_in_range(&self, range: &BoundingBox) -> usize {
        self.points
            .read()
            .iter()
            .filter(|(_, loc)| range.contains(loc))
            .count()
    }

    /// Number of buffered points.
    fn len(&self) -> usize {
        self.points.read().len()
    }
}

/// Estimates the fraction of the dataset inside a range from grid-cell
/// cardinality counts — O(cells), never touching the objects.
#[derive(Clone)]
pub struct SelectivityEstimator {
    grid: Arc<GridIndex>,
    total: usize,
}

impl SelectivityEstimator {
    /// An estimator over a prebuilt grid.
    #[must_use]
    pub fn new(grid: Arc<GridIndex>) -> Self {
        let total = grid.len();
        Self { grid, total }
    }

    /// Estimated number of objects inside `range`.
    fn estimate_count(&self, range: &BoundingBox) -> f64 {
        self.grid.estimate_range_count(range)
    }

    /// Estimated fraction of the dataset inside `range`, in `[0, 1]`.
    #[must_use]
    pub fn estimate_fraction(&self, range: &BoundingBox) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.estimate_count(range) / self.total as f64).clamp(0.0, 1.0)
    }

    /// Number of grid cells a prefilter probe over `range` touches —
    /// the probe-cost feature of the grid strategy's cost model.
    #[must_use]
    pub fn covered_cells(&self, range: &BoundingBox) -> usize {
        self.grid.covered_cells(range)
    }
}

/// Planner configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerConfig {
    /// The coefficients every strategy is priced with; the argmin wins.
    /// The default is [`Coefficients::default`]. Pricing a strategy out
    /// of reach pins a route, which is how tests hold one.
    pub coefficients: Coefficients,
}

/// One query of a batch submitted to [`QueryPlanner::retrieve_batch`]:
/// an embedded text plus its spatial constraint and result budget.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The query embedding.
    pub vec: Vec<f32>,
    /// The spatial constraint `q.r`.
    pub range: BoundingBox,
    /// Number of results.
    pub k: usize,
    /// Optional HNSW beam width override.
    pub ef: Option<usize>,
    /// Optional conjunctive keyword filter: only objects whose documents
    /// contain **all** these terms qualify (the classic spatial-keyword
    /// semantics), answered from the live corpus postings. A text with
    /// no tokens is no constraint.
    pub keywords: Option<String>,
}

impl PlannedQuery {
    /// A batch query with the default beam width and no keyword filter.
    #[must_use]
    pub fn new(vec: Vec<f32>, range: BoundingBox, k: usize) -> Self {
        Self {
            vec,
            range,
            k,
            ef: None,
            keywords: None,
        }
    }

    /// Builder-style conjunctive keyword filter.
    #[must_use]
    pub fn with_keywords(mut self, keywords: impl Into<String>) -> Self {
        self.keywords = Some(keywords.into());
        self
    }

    /// The grouping key batch execution shares work under: queries with
    /// bit-identical ranges, identical result budgets, and the same
    /// keyword filter plan once and share one candidate set.
    #[must_use]
    pub fn group_key(&self) -> BatchGroupKey {
        BatchGroupKey::with_keywords(&self.range, self.k, self.ef, self.keywords.as_deref())
    }
}

/// The outcome of a planned retrieval: hits plus the observable plan.
#[derive(Debug, Clone)]
pub struct PlannedRetrieval {
    /// Top-k hits, best first.
    pub hits: Vec<ScoredPoint>,
    /// The strategy the planner chose.
    pub strategy: RetrievalStrategy,
    /// The selectivity estimate the choice was based on.
    pub estimated_fraction: f64,
    /// Predicted cost of the chosen strategy in microseconds.
    pub predicted_cost_us: f64,
    /// The best strategy the plan beat, with its predicted cost — the
    /// margin a misroute investigation starts from.
    pub runner_up: Option<StrategyCost>,
}

/// Effective HNSW beam width: the explicit `ef`, or the default the
/// collection applies ([`vecdb::default_ef`] — shared so the cost model
/// always prices the beam the search will actually run).
fn ef_effective(k: usize, ef: Option<usize>) -> f64 {
    ef.unwrap_or_else(|| vecdb::default_ef(k)) as f64
}

/// The nominal result budget [`QueryPlanner::plan`] prices when the
/// caller gives only a range (the paper's `k = 10` default).
const DEFAULT_PLAN_K: usize = 10;

/// Grid resolution (cells per axis) of the prefilter index and the
/// selectivity estimator.
const GRID_RESOLUTION: usize = 32;

/// The corpus keyword statistics and the one exact conjunctive match
/// source: an inverted index over every object's
/// `GeoTextObject::to_document()` text, kept live by the mutation hooks,
/// so the postings-first scan and the grid's intersection read the same
/// postings. A doc id *is* an object id: a [`Dataset`]'s ids are dense
/// and in order, and a live insert claims the next one. Built lazily on
/// the first keyword-aware call.
struct CorpusText {
    index: textindex::InvertedIndex,
}

impl CorpusText {
    fn build(dataset: &Dataset) -> Self {
        let mut index = textindex::InvertedIndex::new();
        for o in dataset.iter() {
            index.add_document(&o.to_document());
        }
        Self { index }
    }

    /// Keyword features for the cost model of a text with tokens.
    fn keyword_features(&self, keywords: &str, fraction: f64) -> KeywordFeatures {
        let stats = self.index.query_stats(keywords);
        KeywordFeatures {
            terms: stats.known_terms,
            unknown_terms: stats.unknown_terms,
            min_doc_freq: stats.min_doc_freq as f64,
            corpus_matches: stats.estimated_and_matches,
            range_matches: stats.estimated_and_matches * fraction,
        }
    }
}

/// The bit pattern identifying a bounding box exactly — the key of a
/// shared spatial candidate set (two ranges share one only when every
/// coordinate is bit-identical).
fn range_key_bits(range: &BoundingBox) -> [u64; 4] {
    [
        range.min_lat.to_bits(),
        range.min_lon.to_bits(),
        range.max_lat.to_bits(),
        range.max_lon.to_bits(),
    ]
}

/// Spatial candidate sets computed during one planner execution, keyed
/// by range bits (see [`QueryPlanner::keyword_candidates`]). Only the
/// grid route builds one, and every backend's `filter_range` answers the
/// same set, so the strategy is no part of the key.
type SpatialShared = std::collections::HashMap<[u64; 4], Arc<Vec<ObjectId>>>;

/// The positions of equal keys, one list per distinct key, lists in order
/// of each key's first appearance and positions ascending within a list.
pub(crate) fn group_indices<K: std::hash::Hash + Eq>(
    keys: impl Iterator<Item = K>,
) -> Vec<Vec<usize>> {
    let mut group_of = std::collections::HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, key) in keys.enumerate() {
        let g = *group_of.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    groups
}

/// A cost-based planner over the retrieval backends.
///
/// Each strategy is priced by the [`crate::cost`] formulas (see
/// [`PlannerConfig::coefficients`]) and the argmin wins: broad ranges land
/// on the HNSW graph, mid-selectivity ranges on the grid prefilter,
/// near-empty ranges on the exact scan. A conjunctive keyword query
/// chooses between the postings-first exact scan (rare keywords, broad
/// ranges) and the grid's spatial-first intersection (common keywords,
/// small ranges). The IR-tree is never chosen; its backend serves only
/// [`QueryPlanner::retrieve_with`].
///
/// Every strategy runs over the one collection the planner was built
/// on: a prepared city's, or a shard process's slice of it
/// ([`vecdb::partition`]) beside indexes over the whole dataset.
pub struct QueryPlanner {
    exact: RetrievalBackend,
    hnsw: RetrievalBackend,
    grid: RetrievalBackend,
    /// The backend over the IR-tree, built on the first forced IR-tree
    /// call: no plan routes there, so eager construction — tokenizing the
    /// whole corpus — would tax every `prepare_city` for a debugging
    /// route.
    irtree: OnceLock<RetrievalBackend>,
    /// Corpus keyword statistics, built on the first keyword-aware call.
    /// Behind a lock because live mutations delta it in place.
    corpus_text: OnceLock<RwLock<CorpusText>>,
    /// Live-inserted points the frozen grid/IR-tree cannot see; shared
    /// with the backends over those indexes.
    side: Arc<SidePoints>,
    dataset: Arc<Dataset>,
    collection: CollectionHandle,
    estimator: SelectivityEstimator,
    config: PlannerConfig,
}

impl QueryPlanner {
    /// Builds the planner for a prepared city: a grid over the dataset
    /// plus the two collection-backed strategies (the IR-tree backend is
    /// built lazily on first use), all scoring against `collection`.
    #[must_use]
    pub fn for_city(
        dataset: Arc<Dataset>,
        collection: CollectionHandle,
        config: PlannerConfig,
    ) -> Self {
        let grid = Arc::new(grid_over(&dataset, GRID_RESOLUTION));
        let side = Arc::new(SidePoints::default());
        let backend =
            |source| RetrievalBackend::new(source, Arc::clone(&collection), Arc::clone(&side));
        let exact = backend(CandidateSource::ExactScan);
        let hnsw = backend(CandidateSource::FilteredHnsw);
        let gridb = backend(CandidateSource::Grid(Arc::clone(&grid)));
        let estimator = SelectivityEstimator::new(grid);
        Self {
            exact,
            hnsw,
            grid: gridb,
            irtree: OnceLock::new(),
            corpus_text: OnceLock::new(),
            side,
            dataset,
            collection,
            estimator,
            config,
        }
    }

    /// The planner's configuration.
    #[must_use]
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// The selectivity estimator (exposed for diagnostics and benches).
    #[must_use]
    pub fn estimator(&self) -> &SelectivityEstimator {
        &self.estimator
    }

    /// The backend over the IR-tree, built on first request.
    fn irtree(&self) -> &RetrievalBackend {
        self.irtree.get_or_init(|| {
            RetrievalBackend::new(
                CandidateSource::IrTree(Arc::new(IrTree::build(&self.dataset))),
                Arc::clone(&self.collection),
                Arc::clone(&self.side),
            )
        })
    }

    /// The corpus keyword statistics, built on first request. Always
    /// built from the immutable base dataset: every text delta since
    /// prep arrives through the live hooks, and the first hook call
    /// forces this build *before* applying its own delta, so a late
    /// build can never miss one.
    fn corpus_text(&self) -> &RwLock<CorpusText> {
        self.corpus_text
            .get_or_init(|| RwLock::new(CorpusText::build(&self.dataset)))
    }

    /// The backend implementing a strategy (the IR-tree is built on
    /// first request).
    #[must_use]
    pub fn backend(&self, strategy: RetrievalStrategy) -> &RetrievalBackend {
        match strategy {
            RetrievalStrategy::ExactScan => &self.exact,
            RetrievalStrategy::FilteredHnsw => &self.hnsw,
            RetrievalStrategy::GridPrefilter => &self.grid,
            RetrievalStrategy::IrTree => self.irtree(),
        }
    }

    /// Plans a live text edit off the mutation gate: `doc` mapped onto
    /// the corpus vocabulary under the corpus's read lock, for one of the
    /// hooks below to apply. The vocabulary only grows and one writer
    /// commits at a time, so the plan stays valid until its commit, after
    /// an earlier edit of the same batch too.
    pub(crate) fn doc_terms(&self, doc: &str) -> DocTerms {
        self.corpus_text().read().index.doc_terms(doc)
    }

    /// Absorbs a live insert: the point joins the side buffer (so the
    /// frozen grid prefilter sees it) and its planned document joins the
    /// corpus index (so keyword matches and statistics hold it; dense
    /// object ids are claimed in corpus order, so the doc id is the
    /// object id). Caller (the engine's apply path) holds the mutation
    /// write gate.
    pub(crate) fn live_insert(&self, id: ObjectId, location: GeoPoint, terms: DocTerms) {
        let d = self.corpus_text().write().index.add_terms(terms);
        debug_assert_eq!(d, id.0, "corpus doc ids stay dense under live inserts");
        self.side.push(u64::from(id.0), location);
    }

    /// Absorbs a live text update: the corpus index re-indexes the
    /// document in place.
    pub(crate) fn live_update(&self, id: ObjectId, old: DocTerms, new: DocTerms) {
        let mut corpus = self.corpus_text().write();
        corpus.index.update_terms(id.0, old, new);
    }

    /// Absorbs a live delete: the corpus index drops the document's
    /// postings. The spatial side needs no bookkeeping — every candidate
    /// path masks deletes through the collection's soft-delete set.
    pub(crate) fn live_delete(&self, id: ObjectId, old: DocTerms) {
        self.corpus_text().write().index.remove_terms(id.0, old);
    }

    /// `f` over the live corpus index, under its read lock.
    #[cfg(test)]
    pub(crate) fn with_corpus<R>(&self, f: impl FnOnce(&textindex::InvertedIndex) -> R) -> R {
        f(&self.corpus_text().read().index)
    }

    /// **The tokenless rule**, stated once: a keyword text with no tokens
    /// under the corpus tokenizer — empty, whitespace-only, stopword-only
    /// (`"the of and"`) or punctuation-only — is no constraint, so the
    /// query answers exactly as it would without keywords and is never
    /// provably empty. Returns the text that constrains, if any. Features,
    /// plans, `provably_empty` and `keyword_stats` all ask here first, so
    /// the corpus matchers, which answer nothing for such text, never
    /// see it.
    fn keyword_constraint<'a>(&self, keywords: Option<&'a str>) -> Option<&'a str> {
        // Blank text needs no corpus to be told apart.
        let keywords = keywords.filter(|kw| !kw.trim().is_empty())?;
        let mut tokens = false;
        let corpus = self.corpus_text().read();
        corpus
            .index
            .tokenizer()
            .for_each_token(keywords, |_| tokens = true);
        tokens.then_some(keywords)
    }

    /// True when a conjunctive keyword query is **provably empty**: some
    /// query token was never interned into the corpus vocabulary, so no
    /// document can AND-match and both keyword execution paths answer
    /// the empty set. The vocabulary only grows — a token deleted from
    /// every document stays known, and its query executes empty — so
    /// `false` never promises matches exist, while `true` is exact. A
    /// text with no tokens is no constraint, so never provably empty.
    /// `tests/negative_cache_props.rs` pins this against brute-force
    /// ground truth.
    #[must_use]
    pub fn provably_empty(&self, keywords: &str) -> bool {
        let Some(keywords) = self.keyword_constraint(Some(keywords)) else {
            return false;
        };
        let corpus = self.corpus_text().read();
        let mut unknown = false;
        corpus.index.tokenizer().for_each_token(keywords, |t| {
            unknown |= corpus.index.vocab().get(t).is_none();
        });
        unknown
    }

    /// Keyword features of `keywords` against the corpus statistics —
    /// the planner's view of a conjunctive filter, exposed for
    /// diagnostics and tests. `None` when the text has no tokens.
    #[must_use]
    pub fn keyword_stats(&self, keywords: &str, range: &BoundingBox) -> Option<KeywordFeatures> {
        let keywords = self.keyword_constraint(Some(keywords))?;
        let fraction = self.estimate_live_fraction(range);
        Some(
            self.corpus_text()
                .read()
                .keyword_features(keywords, fraction),
        )
    }

    /// Selectivity estimate including live inserts: the grid histogram
    /// knows only prep-time points, so buffered side points join both
    /// the in-range count and the population. Identical to the plain
    /// estimate while no inserts are buffered.
    fn estimate_live_fraction(&self, range: &BoundingBox) -> f64 {
        let side_total = self.side.len();
        if side_total == 0 {
            return self.estimator.estimate_fraction(range);
        }
        let est = self.estimator.estimate_count(range) + self.side.count_in_range(range) as f64;
        let total = self.dataset.len() + side_total;
        if total == 0 {
            return 0.0;
        }
        (est / total as f64).clamp(0.0, 1.0)
    }

    /// Assembles the cost-model features of one query.
    fn features(
        &self,
        range: &BoundingBox,
        keywords: Option<&str>,
        k: usize,
        ef: Option<usize>,
    ) -> QueryFeatures {
        let fraction = self.estimate_live_fraction(range);
        let stats = self.collection.read().stats();
        let keyword = self
            .keyword_constraint(keywords)
            .map(|kw| self.corpus_text().read().keyword_features(kw, fraction));
        QueryFeatures {
            points: stats.points as f64,
            dim: stats.dim as f64,
            fraction,
            candidates: fraction * stats.points as f64,
            covered_cells: self.estimator.covered_cells(range) as f64,
            k,
            ef_effective: ef_effective(k, ef),
            keyword,
        }
    }

    /// Plans one fully specified query: prices every strategy for the
    /// range (and conjunctive keywords, if any) and returns the argmin
    /// decision with the complete cost table. Always computed from the
    /// live features, so a plan after a mutation is fresh by
    /// construction.
    #[must_use]
    pub fn plan_query(
        &self,
        range: &BoundingBox,
        keywords: Option<&str>,
        k: usize,
        ef: Option<usize>,
    ) -> PlanDecision {
        self.config
            .coefficients
            .plan(&self.features(range, keywords, k, ef))
    }

    /// Zeroes: plans are no longer memoized. Kept only because
    /// `ledger/src/sut.rs:387` calls it; leaves with the
    /// `retrieval.plan_memo_hit_rate` row in the next benchmark PR.
    #[must_use]
    pub fn plan_memo_stats(&self) -> PlanMemoStats {
        PlanMemoStats::default()
    }

    /// Chooses a strategy for a bare range (no keywords, nominal
    /// `k = 10` budget). The full decision — chosen strategy, runner-up,
    /// per-strategy predicted costs — is returned; callers that only
    /// need the choice read [`PlanDecision::chosen`] and
    /// [`PlanDecision::fraction`].
    #[must_use]
    pub fn plan(&self, range: &BoundingBox) -> PlanDecision {
        self.plan_query(range, None, DEFAULT_PLAN_K, None)
    }

    /// Candidate ids of a keyword-filtered query under a strategy,
    /// ascending, all read from the live corpus postings. The exact scan
    /// runs postings-first: `and_query` intersects the posting lists,
    /// rarest first, and the live matches whose collection position lies
    /// in `range` stay. Every other strategy runs spatial-first: its
    /// backend's `filter_range`, narrowed by `and_among`. Both answer the
    /// same set — pinned fresh and across live mutations by
    /// `keyword_retrieval_matches_across_strategies`.
    ///
    /// `spatial_shared` is the caller's cache of spatial candidate sets
    /// keyed by range bits: keyword groups of one execution that share a
    /// range run `filter_range` **once** and each intersect the shared
    /// set with their own conjunctive matches — pure reuse of a
    /// deterministic computation.
    fn keyword_candidates(
        &self,
        strategy: RetrievalStrategy,
        range: &BoundingBox,
        keywords: &str,
        spatial_shared: &mut SpatialShared,
    ) -> Result<Vec<ObjectId>, RetrievalError> {
        if strategy == RetrievalStrategy::ExactScan {
            let matches = self.corpus_text().read().index.and_query(keywords);
            let live = self.collection.read();
            return Ok(matches
                .into_iter()
                .filter(|&doc| {
                    live.position(u64::from(doc))
                        .is_some_and(|(lat, lon)| range.contains(&GeoPoint { lat, lon }))
                })
                .map(ObjectId)
                .collect());
        }
        let spatial = match spatial_shared.entry(range_key_bits(range)) {
            std::collections::hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
            std::collections::hash_map::Entry::Vacant(v) => {
                let computed = Arc::new(self.backend(strategy).filter_range(range)?);
                Arc::clone(v.insert(computed))
            }
        };
        Ok(self
            .corpus_text()
            .read()
            .index
            .and_among(keywords, &spatial, |id| id.0))
    }

    /// Plans and executes the filtering stage for one query with an
    /// optional conjunctive keyword filter — a one-query
    /// [`QueryPlanner::retrieve_batch`]: top-k by embedding similarity
    /// among the objects inside `range` whose documents contain **all**
    /// the keywords. The cost model weighs the keyword statistics — rare
    /// conjunctions run postings-first on the exact scan, common ones
    /// over small ranges intersect the grid's candidates, and filtered
    /// HNSW is priced out (it cannot apply the filter exactly).
    ///
    /// # Errors
    /// Propagates backend failures.
    pub fn retrieve_keyword(
        &self,
        query_vec: &[f32],
        range: &BoundingBox,
        keywords: Option<&str>,
        k: usize,
        ef: Option<usize>,
    ) -> Result<PlannedRetrieval, RetrievalError> {
        let query = PlannedQuery {
            vec: query_vec.to_vec(),
            range: *range,
            k,
            ef,
            keywords: keywords.map(str::to_owned),
        };
        self.execute_one(&query, None)
    }

    /// A debugging entry point: executes the filtering stage for one
    /// keyword-free query on an explicitly chosen strategy, bypassing the
    /// cost model's choice — the same executor as
    /// [`QueryPlanner::retrieve_batch`] with the strategy forced. It is
    /// the only way to reach the IR-tree, whose plan reports a predicted
    /// cost of `+∞` (not a planner route).
    ///
    /// # Errors
    /// Propagates backend failures.
    pub fn retrieve_with(
        &self,
        strategy: RetrievalStrategy,
        query_vec: &[f32],
        range: &BoundingBox,
        k: usize,
        ef: Option<usize>,
    ) -> Result<PlannedRetrieval, RetrievalError> {
        let query = PlannedQuery {
            vec: query_vec.to_vec(),
            range: *range,
            k,
            ef,
            keywords: None,
        };
        self.execute_one(&query, Some(strategy))
    }

    fn execute_one(
        &self,
        query: &PlannedQuery,
        forced: Option<RetrievalStrategy>,
    ) -> Result<PlannedRetrieval, RetrievalError> {
        let mut answers = self.execute(std::slice::from_ref(query), forced)?;
        Ok(answers.pop().expect("one answer per query"))
    }

    /// Plans and executes the filtering stage — the one executor; every
    /// other `retrieve_*` entry point is a one-query call of it.
    ///
    /// Queries are grouped by (range, k, ef, keywords): each distinct
    /// group is **planned once** (one selectivity estimate, one strategy
    /// choice) and handed to its backend's
    /// [`RetrievalBackend::knn_in_range`], which shares the index
    /// candidate set across the whole group and streams stored vectors
    /// through the scoring kernel once. Groups run one after another on
    /// the calling thread, in order of their first query; a caller that
    /// wants distinct ranges side by side runs one call per range on the
    /// shared pool, as [`crate::engine::SemaSkEngine::query_batch`] does.
    ///
    /// Results align with `queries`, and the answer for query `i` does
    /// not depend on the other queries submitted with it
    /// (`tests/batch_parity.rs` pins a batch of N against N batches of
    /// one and against brute force).
    ///
    /// # Errors
    /// Propagates the failure of the first group, in that order, to fail.
    pub fn retrieve_batch(
        &self,
        queries: &[PlannedQuery],
    ) -> Result<Vec<PlannedRetrieval>, RetrievalError> {
        self.execute(queries, None)
    }

    /// The group executor behind every `retrieve_*` entry point. With
    /// `forced = Some(strategy)` every group executes on that strategy's
    /// backend instead of the plan's choice (the plan is still made: it
    /// supplies the reported estimates and the forced strategy's
    /// predicted cost).
    fn execute(
        &self,
        queries: &[PlannedQuery],
        forced: Option<RetrievalStrategy>,
    ) -> Result<Vec<PlannedRetrieval>, RetrievalError> {
        // Group query indices by (range, k, ef, keywords). The key carries
        // the *actual* keyword string next to the hashed group key, so a
        // hash collision can never merge differently filtered queries.
        let groups = group_indices(
            queries
                .iter()
                .map(|q| (q.group_key(), q.keywords.as_deref())),
        );

        // One group at a time: plan, generate candidates, score, scatter
        // to the original query order. The group's backend shares
        // candidate generation and scoring across its members.
        let mut spatial_shared = SpatialShared::new();
        let mut out: Vec<Option<PlannedRetrieval>> = (0..queries.len()).map(|_| None).collect();
        for members in &groups {
            let first = &queries[members[0]];
            let decision =
                self.plan_query(&first.range, first.keywords.as_deref(), first.k, first.ef);
            // The strategy that executes: the plan's choice unless forced.
            let strategy = forced.unwrap_or(decision.chosen);
            // Borrowed straight from the callers' `PlannedQuery`s —
            // grouping copies no embedding data.
            let vecs: Vec<&[f32]> = members.iter().map(|&i| queries[i].vec.as_slice()).collect();
            let answers = if decision.keyword_aware {
                let kw = first
                    .keywords
                    .as_deref()
                    .expect("keyword-aware plans only arise from keyword queries");
                let candidates =
                    self.keyword_candidates(strategy, &first.range, kw, &mut spatial_shared)?;
                let ids: Vec<u64> = candidates.iter().map(|id| u64::from(id.0)).collect();
                self.collection
                    .read()
                    .knn_among_batch(&vecs, &ids, first.k)?
            } else {
                self.backend(strategy)
                    .knn_in_range(&vecs, &first.range, first.k, first.ef)?
            };
            for (&i, hits) in members.iter().zip(answers) {
                out[i] = Some(PlannedRetrieval {
                    hits,
                    strategy,
                    estimated_fraction: decision.fraction,
                    predicted_cost_us: decision.predicted_for(strategy),
                    runner_up: decision.runner_up,
                });
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every query assigned to exactly one group"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SemaSkConfig;
    use crate::prep::prepare_city;
    use datagen::{poi::generate_city, CITIES};
    use embed::Embedder;
    use std::collections::HashSet;

    fn prepared() -> crate::prep::PreparedCity {
        let data = generate_city(&CITIES[2], 200, 33);
        let llm = llm::SimLlm::new();
        prepare_city(&data, &llm, &SemaSkConfig::default()).unwrap()
    }

    /// Every object's document tokens at the live overlay's epoch, by
    /// id (`None` once deleted).
    fn documents(p: &crate::prep::PreparedCity) -> Vec<Option<HashSet<String>>> {
        let tokenizer = textindex::Tokenizer::new();
        let overlay = p.live.overlay();
        (0..overlay.next_id())
            .map(|i| {
                let doc = overlay.get(&p.dataset, ObjectId(i))?.to_document();
                Some(tokenizer.tokenize(&doc).into_iter().collect())
            })
            .collect()
    }

    /// Brute force: the `candidates` whose document holds every token of
    /// `keywords`.
    fn holding_all(
        docs: &[Option<HashSet<String>>],
        keywords: &str,
        candidates: &[ObjectId],
    ) -> Vec<ObjectId> {
        let wanted = textindex::Tokenizer::new().tokenize(keywords);
        let holds = |id: &ObjectId| {
            let held = docs[id.index()].as_ref();
            held.is_some_and(|held| wanted.iter().all(|w| held.contains(w)))
        };
        candidates.iter().copied().filter(holds).collect()
    }

    /// The postings route, the grid route and a forced IR-tree intersect
    /// each answer the brute-force candidate set for every probe, and so
    /// does `and_among` over one candidate at a time (its binary-search
    /// loop; the routes run its merge). Returns how many probes match
    /// something.
    fn assert_routes_agree(
        planner: &QueryPlanner,
        docs: &[Option<HashSet<String>>],
        range: &BoundingBox,
        probes: &[String],
    ) -> usize {
        let spatial = planner
            .backend(RetrievalStrategy::ExactScan)
            .filter_range(range)
            .unwrap();
        let mut matching = 0;
        for kw in probes {
            let expected = holding_all(docs, kw, &spatial);
            matching += usize::from(!expected.is_empty());
            for strategy in [
                RetrievalStrategy::ExactScan,
                RetrievalStrategy::GridPrefilter,
                RetrievalStrategy::IrTree,
            ] {
                let got = planner
                    .keyword_candidates(strategy, range, kw, &mut SpatialShared::new())
                    .unwrap();
                assert_eq!(got, expected, "{strategy} on `{kw}`");
            }
            let corpus = planner.corpus_text().read();
            for &c in &spatial {
                let want = Vec::from_iter(expected.contains(&c).then_some(c));
                let got = corpus.index.and_among(kw, &[c], |id| id.0);
                assert_eq!(got, want, "`{kw}` over {c:?}");
            }
        }
        matching
    }

    #[test]
    fn all_backends_agree_on_answer_sets() {
        let p = prepared();
        let qv = p.embedder.embed("cozy coffee with pastries");
        let range = geotext::BoundingBox::from_center_km(p.city.center(), 8.0, 8.0);
        let planner = &p.planner;
        let ids_of = |strategy| -> HashSet<u64> {
            planner
                .backend(strategy)
                .knn_in_range(&[&qv], &range, 5, None)
                .unwrap()[0]
                .iter()
                .map(|h| h.id)
                .collect()
        };
        let reference = ids_of(RetrievalStrategy::ExactScan);
        assert!(!reference.is_empty());
        for strategy in [RetrievalStrategy::GridPrefilter, RetrievalStrategy::IrTree] {
            let got = ids_of(strategy);
            // Grid and IR-tree prefilters score candidates exactly, so
            // they must match the exact scan bit-for-bit.
            assert_eq!(got, reference, "strategy {strategy} diverged");
        }
    }

    #[test]
    fn filter_range_consistent_across_backends() {
        let p = prepared();
        let range = geotext::BoundingBox::from_center_km(p.city.center(), 5.0, 5.0);
        let planner = &p.planner;
        let reference = planner
            .backend(RetrievalStrategy::ExactScan)
            .filter_range(&range)
            .unwrap();
        for strategy in [
            RetrievalStrategy::FilteredHnsw,
            RetrievalStrategy::GridPrefilter,
            RetrievalStrategy::IrTree,
        ] {
            let got = planner.backend(strategy).filter_range(&range).unwrap();
            assert_eq!(got, reference, "strategy {strategy} diverged");
        }
        // And it matches the dataset ground truth.
        let truth: Vec<ObjectId> = p
            .dataset
            .iter()
            .filter(|o| range.contains(&o.location))
            .map(|o| o.id)
            .collect();
        assert_eq!(reference, truth);
    }

    #[test]
    fn calibrated_plan_is_argmin_and_pins_near_empty() {
        let p = prepared();
        let planner = &p.planner; // the default coefficients
        for km in [1.0, 4.0, 12.0, 40.0] {
            let range = geotext::BoundingBox::from_center_km(p.city.center(), km, km);
            let plan = planner.plan(&range);
            assert_eq!(plan.costs.len(), 4);
            if plan.near_empty {
                assert_eq!(plan.chosen, RetrievalStrategy::ExactScan);
                continue;
            }
            let best = plan
                .costs
                .iter()
                .filter(|c| c.viable)
                .min_by(|a, b| a.predicted_us.total_cmp(&b.predicted_us))
                .unwrap();
            assert_eq!(plan.chosen, best.strategy, "range {km} km");
            let ru = plan.runner_up.expect("a runner-up exists");
            assert_ne!(ru.strategy, plan.chosen);
            assert!(ru.predicted_us >= plan.predicted_us);
        }
        // Nothing in range → the deterministic exact-scan pin.
        let nowhere = geotext::BoundingBox::from_center_km(
            geotext::GeoPoint::new(10.0, 10.0).unwrap(),
            1.0,
            1.0,
        );
        let plan = planner.plan(&nowhere);
        assert!(plan.near_empty);
        assert_eq!(plan.chosen, RetrievalStrategy::ExactScan);
    }

    #[test]
    fn keyword_retrieval_matches_across_strategies() {
        use crate::engine::{SemaSkEngine, Variant};
        use crate::wal::{Mutation, PoiSpec, PoiUpdate};
        let p = Arc::new(prepared());
        let planner = &p.planner;
        let center = p.city.center();
        let range = geotext::BoundingBox::from_center_km(center, 20.0, 20.0);
        // A keyword that occurs in the corpus: a plain word of the first
        // object's document.
        let docs = documents(&p);
        let doc = p.dataset[ObjectId(0)].to_document();
        let word = doc
            .split_whitespace()
            .find(|w| w.chars().all(char::is_alphabetic) && w.len() >= 4)
            .expect("a plain word in the corpus")
            .to_owned();
        let qv = p.embedder.embed("somewhere nice");
        let planned = planner
            .retrieve_keyword(&qv, &range, Some(&word), 10, None)
            .unwrap();
        let holders = planner
            .keyword_candidates(
                RetrievalStrategy::ExactScan,
                &range,
                &word,
                &mut SpatialShared::new(),
            )
            .unwrap();
        assert!(holders.len() >= 2, "keyword `{word}` matches {holders:?}");
        for h in &planned.hits {
            assert!(
                holders.contains(&ObjectId(h.id as u32)),
                "hit outside the set"
            );
        }
        let (rewritten, victim) = (holders[0], holders[holders.len() - 1]);
        let mut probes: Vec<String> = vec![word.clone()];
        probes.extend(docs[victim.index()].clone().unwrap());
        assert_eq!(
            assert_routes_agree(planner, &docs, &range, &probes),
            probes.len()
        );

        // Insert a POI whose tips carry a token the corpus never held,
        // rewrite one holder's tips to carry it too, and delete another
        // holder: the routes must still agree with brute force.
        let engine = SemaSkEngine::new(
            Arc::clone(&p),
            Arc::new(llm::SimLlm::new()),
            SemaSkConfig::default(),
            Variant::EmbeddingOnly,
        );
        assert!(planner.provably_empty("zorblatt"));
        let tips = |text: &str| vec![text.to_owned()];
        let spec = PoiSpec {
            name: "Quokka Lantern".to_owned(),
            lat: center.lat,
            lon: center.lon,
            categories: tips("cafe"),
            tips: tips("the zorblatt pastries are superb"),
        };
        let update = PoiUpdate {
            name: None,
            tips: Some(tips("a zorblatt counter opened here")),
        };
        engine
            .apply_mutations(&[
                Mutation::Insert(spec),
                Mutation::Update {
                    id: rewritten.0,
                    update,
                },
                Mutation::Delete { id: victim.0 },
            ])
            .unwrap();
        let live = documents(&p);
        assert!(live[victim.index()].is_none());
        // The new token alone and beside the keyword, an unknown token
        // beside it, and every token the rewrite took out of the holder's
        // document.
        probes.push("zorblatt".to_owned());
        probes.push(format!("zorblatt {word}"));
        probes.push(format!("zzzunknowntoken {word}"));
        let (old, new) = (&docs[rewritten.index()], &live[rewritten.index()]);
        probes.extend(
            old.as_ref()
                .unwrap()
                .difference(new.as_ref().unwrap())
                .cloned(),
        );
        let matching = assert_routes_agree(planner, &live, &range, &probes);
        assert!(matching >= 3, "{matching} of {probes:?} match");
    }

    #[test]
    fn filter_range_tracks_deletions() {
        let p = prepared();
        let range = geotext::BoundingBox::from_center_km(p.city.center(), 5.0, 5.0);
        let planner = &p.planner;
        let before = planner
            .backend(RetrievalStrategy::GridPrefilter)
            .filter_range(&range)
            .unwrap();
        assert!(!before.is_empty());
        let victim = before[0];
        p.db.collection(&p.collection_name)
            .unwrap()
            .write()
            .delete(u64::from(victim.0))
            .unwrap();
        // Every backend drops the deleted point, dataset-derived indexes
        // included.
        for strategy in [
            RetrievalStrategy::ExactScan,
            RetrievalStrategy::FilteredHnsw,
            RetrievalStrategy::GridPrefilter,
            RetrievalStrategy::IrTree,
        ] {
            let after = planner.backend(strategy).filter_range(&range).unwrap();
            assert!(
                !after.contains(&victim),
                "strategy {strategy} still returns the deleted point"
            );
        }
    }

    #[test]
    fn strategy_labels_are_stable() {
        assert_eq!(RetrievalStrategy::ExactScan.label(), "exact-scan");
        assert_eq!(RetrievalStrategy::FilteredHnsw.label(), "filtered-hnsw");
        assert_eq!(RetrievalStrategy::GridPrefilter.label(), "grid-prefilter");
        assert_eq!(RetrievalStrategy::IrTree.label(), "ir-tree");
    }
}
