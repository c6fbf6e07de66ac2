//! The retrieval layer's planning half: a selectivity estimator, the
//! corpus keyword statistics, and a cost-based query planner.
//!
//! The paper's filtering step answers one question — *top-k objects by
//! embedding similarity within the range `q.r`* — and this codebase can
//! answer it four ways ([`RetrievalStrategy`]):
//!
//! 1. **Exact scan**: brute-force the qualifying points. Optimal when
//!    the range is highly selective.
//! 2. **Filtered HNSW**: beam search over the graph with a geo filter
//!    mask. Wins when the range is broad.
//! 3. **Grid prefilter**: a uniform grid narrows candidates in O(cells),
//!    then only those are scored.
//! 4. **IR-tree**: the spatial keyword index traverses its R-tree for
//!    the range, then candidates are scored. Conjunctive keyword filters
//!    prune this traversal natively.
//!
//! All four execute through one type, [`crate::backend::RetrievalBackend`]
//! — a candidate source over one collection, with **one** k-NN method
//! over a slice of query vectors (a single query is a slice of one).
//! [`QueryPlanner`] picks among them per query group by pricing each
//! strategy with the cost formulas in [`crate::cost`] —
//! fed by grid-cell cardinality estimates from [`SelectivityEstimator`],
//! keyword posting statistics from the corpus inverted index, and
//! `vecdb` collection statistics — and dispatching to the argmin. Every
//! consumer of the filtering stage — `SemaSkEngine`, `PreparedCity`, the
//! shard servers of `semask-net` — goes through the planner.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use geotext::{BoundingBox, Dataset, GeoPoint, ObjectId};
use parking_lot::RwLock;
use spatial::{GridIndex, IrTree, Item, SpatialKeywordQuery};
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
    /// Exact scan of points qualifying under the geo filter.
    ExactScan,
    /// Filtered HNSW graph search.
    FilteredHnsw,
    /// Uniform-grid candidate prefilter, then exact scoring.
    GridPrefilter,
    /// IR-tree range traversal, then exact scoring.
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

    /// A sentinel key for non-query work (live mutations) riding the
    /// same admission queue: all mutations group together, and the key
    /// can never collide with a real query's — valid bounding boxes
    /// carry finite coordinates, whose bit patterns are never all-ones.
    #[must_use]
    pub fn mutation() -> Self {
        Self {
            range_bits: [u64::MAX; 4],
            k: usize::MAX,
            ef: None,
            keywords: u64::MAX,
        }
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
/// prefilter strategies merge this buffer into their candidate sets so
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
    pub fn push(&self, id: u64, location: GeoPoint) {
        self.points.write().push((id, location));
    }

    /// Ids of buffered points inside `range`, in insertion order.
    #[must_use]
    pub fn ids_in_range(&self, range: &BoundingBox) -> Vec<ObjectId> {
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
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.read().len()
    }

    /// True when no live inserts are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.read().is_empty()
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
    /// semantics, answered natively by the IR-tree).
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

/// The corpus keyword statistics and conjunctive match source: an
/// inverted index over the same `GeoTextObject::to_document()` texts
/// (and the same tokenizer) the IR-tree indexes, so the spatial-first
/// intersect path and the IR-tree's native keyword traversal agree on
/// every query. A doc id *is* an object id: a [`Dataset`]'s ids are dense
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

    /// True when the conjunctive query is **provably empty**: some query
    /// token was never interned into the corpus vocabulary, so no
    /// document can AND-match. Exact, since the vocabulary is the set
    /// itself; `false` for text without tokens (no constraint).
    fn provably_empty(&self, keywords: &str) -> bool {
        let vocab = self.index.vocab();
        let mut unknown = false;
        self.index
            .tokenizer()
            .for_each_token(keywords, |t| unknown |= vocab.get(t).is_none());
        unknown
    }

    /// Keyword features for the cost model, or `None` when the text
    /// tokenizes to nothing (no constraint).
    fn keyword_features(&self, keywords: &str, fraction: f64) -> Option<KeywordFeatures> {
        let stats = self.index.query_stats(keywords);
        if stats.known_terms == 0 && stats.unknown_terms == 0 {
            return None;
        }
        Some(KeywordFeatures {
            terms: stats.known_terms,
            unknown_terms: stats.unknown_terms,
            min_doc_freq: stats.min_doc_freq as f64,
            corpus_matches: stats.estimated_and_matches,
            range_matches: stats.estimated_and_matches * fraction,
        })
    }

    /// Appends a live-inserted object's document. Dense object ids are
    /// claimed in corpus order, so the new doc id equals the object id.
    fn live_insert(&mut self, obj: ObjectId, doc: &str) {
        let d = self.index.add_document(doc);
        debug_assert_eq!(d, obj.0, "corpus doc ids stay dense under live inserts");
    }

    /// Re-indexes an object's document after a live update.
    fn live_update(&mut self, obj: ObjectId, old_doc: &str, new_doc: &str) {
        self.index.update_document(obj.0, old_doc, new_doc);
    }

    /// Removes a deleted object's postings so df and match sets stay
    /// honest.
    fn live_delete(&mut self, obj: ObjectId, doc: &str) {
        self.index.remove_document(obj.0, doc);
    }
}

/// The bit pattern identifying a bounding box exactly — the spatial half
/// of a candidate-sharing key (two ranges share a spatial candidate set
/// only when every coordinate is bit-identical).
fn range_key_bits(range: &BoundingBox) -> [u64; 4] {
    [
        range.min_lat.to_bits(),
        range.min_lon.to_bits(),
        range.max_lat.to_bits(),
        range.max_lon.to_bits(),
    ]
}

/// Spatial candidate sets computed during one planner execution, keyed
/// by `(range bits, strategy)` (see [`QueryPlanner::keyword_candidates`]).
type SpatialShared = std::collections::HashMap<([u64; 4], RetrievalStrategy), Arc<Vec<ObjectId>>>;

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

/// A cost-based planner over the four retrieval backends.
///
/// Each strategy is priced by the [`crate::cost`] formulas (see
/// [`PlannerConfig::coefficients`]) and the argmin wins: broad ranges land
/// on the HNSW graph, mid-selectivity ranges on the grid prefilter,
/// near-empty ranges on the exact scan, and **conjunctive keyword-heavy
/// queries on the IR-tree**, whose per-node keyword summaries prune the
/// traversal down to the matching candidates.
///
/// Every strategy runs over the one collection the planner was built
/// on: a prepared city's, or a shard process's slice of it
/// ([`vecdb::partition`]) beside indexes over the whole dataset.
pub struct QueryPlanner {
    exact: RetrievalBackend,
    hnsw: RetrievalBackend,
    grid: RetrievalBackend,
    /// The IR-tree and the backend over it, built on first use:
    /// similarity queries without keywords route to the other three
    /// backends, so eager construction — tokenizing the whole corpus —
    /// would tax every `prepare_city` for an index only keyword-driven
    /// callers touch.
    irtree: OnceLock<(Arc<IrTree>, RetrievalBackend)>,
    /// Corpus keyword statistics, built on the first keyword-aware call.
    /// Behind a lock because live mutations delta it in place.
    corpus_text: OnceLock<RwLock<CorpusText>>,
    /// Live-inserted points the frozen grid/IR-tree cannot see; shared
    /// with the backends over those indexes.
    side: Arc<SidePoints>,
    /// Set once a live insert or update changes any document text: the
    /// IR-tree's per-node keyword summaries were built at prep time, so
    /// its *native* keyword traversal can no longer be trusted and
    /// keyword candidates fall back to the intersect path (which reads
    /// the live corpus index) until compaction rebuilds the tree.
    live_dirty: AtomicBool,
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
            live_dirty: AtomicBool::new(false),
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

    /// The shared IR-tree and the backend over it, built on first
    /// request.
    fn irtree(&self) -> &(Arc<IrTree>, RetrievalBackend) {
        self.irtree.get_or_init(|| {
            let tree = Arc::new(IrTree::build(&self.dataset));
            let backend = RetrievalBackend::new(
                CandidateSource::IrTree(Arc::clone(&tree)),
                Arc::clone(&self.collection),
                Arc::clone(&self.side),
            );
            (tree, backend)
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
            RetrievalStrategy::IrTree => &self.irtree().1,
        }
    }

    /// Absorbs a live insert: the point joins the side buffer (so the
    /// frozen grid/IR-tree prefilters see it) and its document joins the
    /// corpus index (so keyword df/match statistics price it). Caller
    /// (the engine's apply path) holds the mutation write gate.
    pub(crate) fn live_insert(&self, id: ObjectId, location: GeoPoint, doc: &str) {
        self.corpus_text().write().live_insert(id, doc);
        self.side.push(u64::from(id.0), location);
        self.live_dirty.store(true, Ordering::Release);
    }

    /// Absorbs a live text update: the corpus index re-indexes the
    /// document in place.
    pub(crate) fn live_update(&self, id: ObjectId, old_doc: &str, new_doc: &str) {
        self.corpus_text().write().live_update(id, old_doc, new_doc);
        self.live_dirty.store(true, Ordering::Release);
    }

    /// Absorbs a live delete: the corpus index drops the document's
    /// postings. The spatial side needs no bookkeeping — every candidate
    /// path masks deletes through the collection's soft-delete set.
    pub(crate) fn live_delete(&self, id: ObjectId, doc: &str) {
        // No `live_dirty` here: deletes reach candidates through the
        // collection's soft-delete masks.
        self.corpus_text().write().live_delete(id, doc);
    }

    /// True when a conjunctive keyword query is **provably empty**: some
    /// query token was never interned into the corpus vocabulary, so no
    /// document can AND-match and both keyword execution paths answer
    /// the empty set. The vocabulary only grows — a token deleted from
    /// every document stays known, and its query executes empty — so
    /// `false` never promises matches exist, while `true` is exact.
    /// `tests/negative_cache_props.rs` pins this against brute-force
    /// ground truth.
    #[must_use]
    pub fn provably_empty(&self, keywords: &str) -> bool {
        if keywords.trim().is_empty() {
            return false;
        }
        self.corpus_text().read().provably_empty(keywords)
    }

    /// Keyword features of `keywords` against the corpus statistics —
    /// the planner's view of a conjunctive filter, exposed for
    /// diagnostics and tests. `None` when the text tokenizes to nothing.
    #[must_use]
    pub fn keyword_stats(&self, keywords: &str, range: &BoundingBox) -> Option<KeywordFeatures> {
        let fraction = self.estimate_live_fraction(range);
        self.corpus_text()
            .read()
            .keyword_features(keywords, fraction)
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
        let keyword = keywords
            .filter(|kw| !kw.trim().is_empty())
            .and_then(|kw| self.corpus_text().read().keyword_features(kw, fraction));
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

    /// Candidate ids of a keyword-filtered query under a strategy: the
    /// IR-tree traverses range and keywords together (its node keyword
    /// summaries prune non-matching subtrees); the scan strategies
    /// intersect their spatial candidates with the corpus AND-match
    /// list. Both paths answer the same set — pinned by
    /// `tests/planner_routing.rs`.
    ///
    /// `spatial_shared` is the caller's cache of spatial candidate sets
    /// keyed by `(range bits, strategy)`: keyword groups of one
    /// execution that share a range run `filter_range` **once** and each
    /// intersect the shared set with their own conjunctive matches —
    /// pure reuse of a deterministic computation.
    fn keyword_candidates(
        &self,
        strategy: RetrievalStrategy,
        range: &BoundingBox,
        keywords: &str,
        spatial_shared: &mut SpatialShared,
    ) -> Result<Vec<ObjectId>, RetrievalError> {
        // The native traversal prunes with per-node keyword summaries
        // frozen at prep time, so once any live mutation has changed
        // document text every strategy takes the intersect path: its
        // spatial side is side-point-aware and its corpus side reads the
        // live index, so the candidate set stays equal to what a freshly
        // built tree would answer.
        if strategy == RetrievalStrategy::IrTree && !self.live_dirty.load(Ordering::Acquire) {
            // Couples range and keywords; nothing to share across groups.
            let mut ids = self.irtree().0.search(&SpatialKeywordQuery {
                range: *range,
                keywords: keywords.to_owned(),
            });
            // The tree was built at prep time: drop points deleted since.
            let live = self.collection.read();
            ids.retain(|id| live.contains(u64::from(id.0)));
            return Ok(ids);
        }
        use std::collections::hash_map::Entry;
        let spatial = match spatial_shared.entry((range_key_bits(range), strategy)) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(v) => {
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
    /// conjunctions route to the IR-tree's pruned traversal, common ones
    /// stay on the scan strategies with a posting-list intersection, and
    /// filtered HNSW is priced out (it cannot apply the filter exactly).
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

    /// Executes the filtering stage for one query with an explicitly
    /// chosen strategy (bypassing the cost model's choice — used by
    /// benches and ablations): the same executor as
    /// [`QueryPlanner::retrieve_batch`] with the strategy forced.
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
    /// [`RetrievalBackend::knn_in_range`], which shares the grid/IR-tree
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

    /// Every object's document, by id (`None` once deleted).
    fn documents(p: &crate::prep::PreparedCity) -> Vec<Option<String>> {
        p.dataset.iter().map(|o| Some(o.to_document())).collect()
    }

    /// Brute force: the `candidates` whose document holds every token of
    /// `keywords`.
    fn holding_all(
        docs: &[Option<String>],
        keywords: &str,
        candidates: &[ObjectId],
    ) -> Vec<ObjectId> {
        let tokenizer = textindex::Tokenizer::new();
        let wanted = tokenizer.tokenize(keywords);
        candidates
            .iter()
            .copied()
            .filter(|id| {
                docs[id.index()].as_ref().is_some_and(|doc| {
                    let held: HashSet<String> = tokenizer.tokenize(doc).into_iter().collect();
                    wanted.iter().all(|w| held.contains(w))
                })
            })
            .collect()
    }

    /// Which loop `and_among` runs over `n` candidates: `Some(true)` for
    /// the per-candidate search, `Some(false)` for the merge, `None` when
    /// an unknown token answers before either.
    fn search_loop(index: &textindex::InvertedIndex, keywords: &str, n: usize) -> Option<bool> {
        let mut terms = Vec::new();
        for token in index.tokenizer().tokenize(keywords) {
            terms.push(index.vocab().get(&token)?);
        }
        terms.sort_unstable();
        terms.dedup();
        let postings: usize = terms.iter().map(|&t| index.doc_freq(t)).sum();
        Some(n * terms.len() < postings)
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
        let p = prepared();
        let planner = &p.planner;
        let qv = p.embedder.embed("somewhere nice");
        let range = geotext::BoundingBox::from_center_km(p.city.center(), 20.0, 20.0);
        // Pick a keyword that actually occurs in the corpus: the first
        // token of some object's document.
        let doc = p.dataset.iter().next().unwrap().to_document();
        let word = doc
            .split_whitespace()
            .find(|w| w.chars().all(char::is_alphabetic) && w.len() >= 4)
            .expect("a plain word in the corpus")
            .to_owned();
        let planned = planner
            .retrieve_keyword(&qv, &range, Some(&word), 10, None)
            .unwrap();
        // Reference: the exact spatial filter narrowed to the documents
        // holding the keyword — strategy-independent by design.
        let spatial = planner
            .backend(RetrievalStrategy::ExactScan)
            .filter_range(&range)
            .unwrap();
        let expected = holding_all(&documents(&p), &word, &spatial);
        let got: Vec<ObjectId> = planned.hits.iter().map(|h| ObjectId(h.id as u32)).collect();
        assert!(!expected.is_empty(), "keyword `{word}` matches something");
        for id in &got {
            assert!(expected.contains(id), "hit outside the conjunctive set");
        }
        // And the IR-tree's native traversal agrees with the intersect
        // path on the full candidate set.
        let mut shared = SpatialShared::new();
        let native = planner
            .keyword_candidates(RetrievalStrategy::IrTree, &range, &word, &mut shared)
            .unwrap();
        let intersected = planner
            .keyword_candidates(RetrievalStrategy::GridPrefilter, &range, &word, &mut shared)
            .unwrap();
        assert_eq!(native, intersected);
        assert_eq!(native, expected);
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
    fn candidate_first_prescreen_matches_intersection() {
        // The one matcher against brute force, each of its two loops
        // forced by the size of the candidate set: the whole range merges
        // against the postings, one or two candidates binary-search them.
        let p = prepared();
        let planner = &p.planner;
        let range = geotext::BoundingBox::from_center_km(p.city.center(), 12.0, 12.0);
        let spatial = planner
            .backend(RetrievalStrategy::ExactScan)
            .filter_range(&range)
            .unwrap();
        assert!(spatial.len() > 2);
        let docs = documents(&p);
        let corpus = planner.corpus_text().read();
        // Cover common terms (long postings), rare terms, an unknown
        // term, and an unknown term beside a known one.
        let mut probes: Vec<String> = Vec::new();
        for o in p.dataset.iter().take(10) {
            let doc = o.to_document();
            let mut words = doc.split_whitespace().filter(|w| w.len() >= 3);
            if let Some(w) = words.next() {
                probes.push(w.to_owned());
            }
            if let (Some(a), Some(b)) = (words.next(), words.next()) {
                probes.push(format!("{a} {b}"));
            }
        }
        probes.push("zzzunknowntoken".to_owned());
        probes.push("zzzunknowntoken coffee".to_owned());
        let mid = spatial.len() / 2;
        let (mut searched, mut merged) = (0, 0);
        for kw in &probes {
            for candidates in [&spatial[..], &spatial[..1], &spatial[mid..mid + 2]] {
                match search_loop(&corpus.index, kw, candidates.len()) {
                    Some(true) => searched += 1,
                    Some(false) => merged += 1,
                    None => {}
                }
                assert_eq!(
                    corpus.index.and_among(kw, candidates, |id| id.0),
                    holding_all(&docs, kw, candidates),
                    "`{kw}` over {} candidates",
                    candidates.len()
                );
            }
        }
        assert!(
            searched > 0 && merged > 0,
            "{searched} searched, {merged} merged"
        );
    }

    #[test]
    fn prescreen_stays_exact_across_live_mutations() {
        let p = prepared();
        let planner = &p.planner;
        let range = p.dataset.bounds().unwrap();
        // Seed the corpus, then mutate: delete one document, rewrite
        // another. Neither may match on its old text afterwards.
        let mut docs = documents(&p);
        let d0 = docs[0].take().unwrap();
        let d1 = docs[1].replace("replacement text entirely different tokens".to_owned());
        planner.live_delete(ObjectId(0), &d0);
        planner.live_update(ObjectId(1), &d1.unwrap(), docs[1].as_deref().unwrap());
        let spatial = planner
            .backend(RetrievalStrategy::ExactScan)
            .filter_range(&range)
            .unwrap();
        let corpus = planner.corpus_text().read();
        // The deleted document's most widespread word: common enough for
        // the search loop over two candidates.
        let common = d0
            .split_whitespace()
            .max_by_key(|w| {
                let stats = corpus.index.query_stats(w);
                usize::from(stats.known_terms == 1 && stats.unknown_terms == 0) * stats.min_doc_freq
            })
            .unwrap()
            .to_owned();
        let (mut searched, mut merged) = (0, 0);
        for kw in [
            d0.split_whitespace().next().unwrap().to_owned(),
            common,
            "replacement".to_owned(),
            "entirely different".to_owned(),
        ] {
            for candidates in [&spatial[..], &[ObjectId(0), ObjectId(1)], &[ObjectId(1)]] {
                match search_loop(&corpus.index, &kw, candidates.len()) {
                    Some(true) => searched += 1,
                    Some(false) => merged += 1,
                    None => {}
                }
                assert_eq!(
                    corpus.index.and_among(&kw, candidates, |id| id.0),
                    holding_all(&docs, &kw, candidates),
                    "`{kw}` over {} candidates after mutations",
                    candidates.len()
                );
            }
        }
        assert!(
            searched > 0 && merged > 0,
            "{searched} searched, {merged} merged"
        );
    }

    #[test]
    fn strategy_labels_are_stable() {
        assert_eq!(RetrievalStrategy::ExactScan.label(), "exact-scan");
        assert_eq!(RetrievalStrategy::FilteredHnsw.label(), "filtered-hnsw");
        assert_eq!(RetrievalStrategy::GridPrefilter.label(), "grid-prefilter");
        assert_eq!(RetrievalStrategy::IrTree.label(), "ir-tree");
    }
}
