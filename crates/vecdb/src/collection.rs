//! Collections: vectors + positions + index, searched the way the caller
//! names.

use std::collections::BinaryHeap;

use crate::codec::{corrupt, Reader, Writer};
use crate::distance::{inv_norm, Distance};
use crate::error::VecDbError;
use crate::hnsw::{HnswConfig, HnswIndex, InsertPlan};
use crate::payload::{self, Filter, PayloadStore};
use crate::quant::{QuantizedVectors, ScoringTier};
use crate::rows::Rows;
use crate::PointId;

/// Point count at which [`ScoringTier::Auto`] switches the exact-scan
/// paths to quantized-first scoring. Below it a full-precision scan is
/// already cache-resident and the tier would only add a rerank pass;
/// above it the 4× smaller code array wins on memory traffic.
pub const AUTO_QUANT_THRESHOLD: usize = 32_768;

/// Minimum points before a forced [`ScoringTier::Quantized`] trains its
/// codebook — a global affine codebook fitted to fewer vectors than
/// this is noise.
const QUANT_MIN_POINTS: usize = 64;

/// Configuration of a collection.
#[derive(Debug, Clone)]
pub struct CollectionConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Distance metric.
    pub distance: Distance,
    /// HNSW parameters.
    pub hnsw: HnswConfig,
    /// Which representation exact scans score over (quantized-first
    /// with full-precision rerank vs. full precision throughout).
    pub scoring_tier: ScoringTier,
}

impl CollectionConfig {
    /// Default configuration at a given dimension.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            distance: Distance::Cosine,
            hnsw: HnswConfig::default(),
            scoring_tier: ScoringTier::Auto,
        }
    }

    /// Refuses a configuration no collection can serve: `dim = 0` (every
    /// vector is empty and every score 0, so a search "ranks" points by
    /// nothing) and graph parameters [`HnswConfig::validate`] refuses.
    ///
    /// # Errors
    /// [`VecDbError::InvalidConfig`] naming the offending field.
    pub(crate) fn validate(&self) -> Result<(), VecDbError> {
        if self.dim == 0 {
            return Err(VecDbError::InvalidConfig {
                cause: "dim = 0 (must be at least 1)".to_owned(),
            });
        }
        self.hnsw.validate()
    }

    /// Appends the configuration to the meta section: `dim`
    /// (`u64`), the metric (`u8`: 0 cosine, 1 dot, 2 Euclid), `m`, `m0`,
    /// `ef_construction` and `seed` (`u64` each) and the scoring tier
    /// (`u8`: 0 auto, 1 full, 2 quantized followed by its
    /// `rerank_factor` as `u64`).
    fn pack(&self, w: &mut Writer) {
        w.len64(self.dim);
        w.u8(match self.distance {
            Distance::Cosine => 0,
            Distance::Dot => 1,
            Distance::Euclid => 2,
        });
        w.len64(self.hnsw.m);
        w.len64(self.hnsw.m0);
        w.len64(self.hnsw.ef_construction);
        w.u64(self.hnsw.seed);
        match self.scoring_tier {
            ScoringTier::Auto => w.u8(0),
            ScoringTier::Full => w.u8(1),
            ScoringTier::Quantized { rerank_factor } => {
                w.u8(2);
                w.len64(rerank_factor);
            }
        }
    }

    /// Reads back what [`CollectionConfig::pack`] wrote. The values are
    /// not judged here: that is [`CollectionConfig::validate`]'s job.
    fn unpack(r: &mut Reader<'_>) -> Result<Self, VecDbError> {
        let dim = r.len64()?;
        let distance = match r.u8()? {
            0 => Distance::Cosine,
            1 => Distance::Dot,
            2 => Distance::Euclid,
            t => return Err(corrupt(format!("distance tag {t}"))),
        };
        let hnsw = HnswConfig {
            m: r.len64()?,
            m0: r.len64()?,
            ef_construction: r.len64()?,
            seed: r.u64()?,
        };
        let scoring_tier = match r.u8()? {
            0 => ScoringTier::Auto,
            1 => ScoringTier::Full,
            2 => ScoringTier::Quantized {
                rerank_factor: r.len64()?,
            },
            t => return Err(corrupt(format!("scoring tier tag {t}"))),
        };
        Ok(Self {
            dim,
            distance,
            hnsw,
            scoring_tier,
        })
    }
}

/// Resident-memory accounting for one collection, component by
/// component — the report the metro bench gates layout regressions on.
/// Every figure is an accounting estimate from container sizes, not an
/// allocator census. The HNSW graph — each link, and the 4 B of cached
/// distance beside it — is outside this accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryFootprint {
    /// Stored points (including soft-deleted offsets).
    pub points: usize,
    /// Full-precision vectors + their cached inverse norms.
    pub vector_bytes: usize,
    /// Quantized codes + their cached inverse norms (0 when the tier is
    /// off).
    pub quant_bytes: usize,
    /// The id → offset column: 12 B for every id the collection has
    /// stored (an 8 B id and a 4 B offset), a deleted one included.
    pub id_index_bytes: usize,
    /// The position column: 16 B a point, a `(lat, lon)` pair of `f64`.
    pub payload_bytes: usize,
}

impl MemoryFootprint {
    /// Bytes the steady-state *scoring* path keeps hot: codes when the
    /// quantized tier is active (the f32 store is then only touched for
    /// the `rerank_factor × k` survivors per query), the full vectors
    /// otherwise — plus the id index and positions, which every filtered
    /// query walks.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let scoring = if self.quant_bytes > 0 {
            self.quant_bytes
        } else {
            self.vector_bytes
        };
        scoring + self.id_index_bytes + self.payload_bytes
    }

    /// Everything, including the full-precision rerank store when the
    /// quantized tier is active. The rerank store currently stays in
    /// RAM (spilling it is a roadmap item), so this is the honest
    /// process-size figure.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.vector_bytes + self.quant_bytes + self.id_index_bytes + self.payload_bytes
    }

    /// [`MemoryFootprint::resident_bytes`] per stored point.
    #[must_use]
    pub fn resident_bytes_per_point(&self) -> usize {
        self.resident_bytes().checked_div(self.points).unwrap_or(0)
    }
}

/// A point-in-time statistical summary of a collection — the feature
/// source cost-based planners read before choosing an access path
/// (cheap: every field is already tracked, nothing is scanned).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionStats {
    /// Live (non-deleted) points.
    pub points: usize,
    /// Soft-deleted points still occupying graph nodes.
    pub deleted: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Distance metric in use.
    pub distance: Distance,
    /// Whether every stored vector has its inverse L2 norm cached, i.e.
    /// cosine scoring runs as one fused dot product per candidate.
    pub norm_cached: bool,
}

/// A search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredPoint {
    /// Caller-assigned point id.
    pub id: PointId,
    /// Similarity score (**higher is closer**; for cosine this is the
    /// cosine similarity).
    pub score: f32,
}

/// How a search is executed. The collection runs the one its caller
/// names and decides nothing itself: choosing between them per query is
/// a planner's job (`semask`'s `QueryPlanner`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Exact scan of the qualifying points: the reference answer.
    Exact,
    /// Filtered HNSW graph search.
    Hnsw,
}

/// The HNSW beam width used when a search does not set `ef`
/// explicitly: `max(4k, 64)`. The single source of truth — external
/// cost models price HNSW searches with this same default.
#[must_use]
pub fn default_ef(k: usize) -> usize {
    (4 * k).max(64)
}

/// Search-time parameters.
#[derive(Debug, Clone)]
pub struct SearchParams {
    /// Number of results.
    pub k: usize,
    /// HNSW beam width (defaults to [`default_ef`] when `None`).
    pub ef: Option<usize>,
    /// Optional geo box.
    pub filter: Option<Filter>,
    /// Execution strategy.
    pub strategy: SearchStrategy,
}

impl SearchParams {
    /// Exact top-k search with no filter; the graph is searched only
    /// when a caller names [`SearchStrategy::Hnsw`].
    #[must_use]
    pub fn top_k(k: usize) -> Self {
        Self {
            k,
            ef: None,
            filter: None,
            strategy: SearchStrategy::Exact,
        }
    }

    /// Builder-style filter.
    #[must_use]
    pub fn with_filter(mut self, filter: Filter) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Builder-style execution strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style beam width.
    #[must_use]
    pub fn with_ef(mut self, ef: usize) -> Self {
        self.ef = Some(ef);
        self
    }
}

/// A named set of points — an id, a vector and a position each — and an
/// HNSW index.
#[derive(Debug, Clone)]
pub struct Collection {
    config: CollectionConfig,
    ids: Vec<PointId>,
    /// Every stored vector in one row-major arena: offset `o` is
    /// `vectors[o * dim..(o + 1) * dim]`, read through [`Rows`].
    vectors: Vec<f32>,
    /// Cached inverse L2 norm per offset, filled at insert time: stored
    /// data is immutable, so cosine scoring never re-derives a stored
    /// vector's norm (it degenerates to one fused dot product).
    inv_norms: Vec<f32>,
    positions: PayloadStore,
    /// Where each id lives, derived from `ids` and `deleted` — so a
    /// snapshot does not store it.
    by_id: IdColumn,
    /// Soft-delete flags per offset (the HNSW graph keeps the node for
    /// connectivity; search skips flagged offsets — Qdrant's strategy).
    deleted: Vec<bool>,
    /// Offsets not flagged in `deleted`.
    live: usize,
    hnsw: HnswIndex,
    /// u8 codes for the quantized scoring tier, one row per offset.
    /// Built lazily when the tier activates; grown per insert with the
    /// frozen codebook and re-encoded when the collection doubles.
    quant: Option<QuantizedVectors>,
    /// Point count at the last codebook (re-)training.
    quant_trained_at: usize,
}

impl Collection {
    /// An empty collection.
    #[must_use]
    pub fn new(config: CollectionConfig) -> Self {
        let hnsw = HnswIndex::new(config.distance, config.hnsw.clone());
        Self {
            config,
            ids: Vec::new(),
            vectors: Vec::new(),
            inv_norms: Vec::new(),
            positions: PayloadStore::default(),
            by_id: IdColumn::default(),
            deleted: Vec::new(),
            live: 0,
            hnsw,
            quant: None,
            quant_trained_at: 0,
        }
    }

    /// Number of live (non-deleted) points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the collection has no live points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The collection's configuration.
    #[must_use]
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// The stored vectors, row `o` at offset `o`.
    fn rows(&self) -> Rows<'_> {
        Rows::new(&self.vectors, self.config.dim)
    }

    /// Statistical summary for cost-based planners: size, dimensionality,
    /// metric, and whether the norm cache covers every stored vector.
    #[must_use]
    pub fn stats(&self) -> CollectionStats {
        CollectionStats {
            points: self.live,
            deleted: self.ids.len() - self.live,
            dim: self.config.dim,
            distance: self.config.distance,
            norm_cached: self.inv_norms.len() == self.ids.len(),
        }
    }

    /// Inserts a point at `position`, a `(lat, lon)` pair. Live ids must
    /// be unique; to change a point, delete it and insert the id again
    /// (the HNSW graph itself is append-only).
    /// [`Collection::plan_insert`] then [`Collection::insert_planned`].
    ///
    /// # Errors
    /// See [`Collection::insert_planned`].
    pub fn insert(
        &mut self,
        id: PointId,
        vector: Vec<f32>,
        position: (f64, f64),
    ) -> Result<(), VecDbError> {
        let plan = self.plan_insert(&vector)?;
        self.insert_planned(id, vector, position, plan)
    }

    /// Plans the graph insert of `vector` as the next point without
    /// changing anything, so it runs under a read lock (module docs of
    /// [`crate::hnsw`], "Planned inserts").
    ///
    /// # Errors
    /// What [`Collection::insert`] refuses about the vector: a dimension
    /// other than the configured one, a NaN or infinity, or a
    /// configuration `CollectionConfig::validate` refuses.
    pub fn plan_insert(&self, vector: &[f32]) -> Result<InsertPlan, VecDbError> {
        self.check_vector(vector)?;
        Ok(self.hnsw.plan_insert(vector, self.rows(), &self.inv_norms))
    }

    /// Stores a point with the graph edits `plan` (made for `vector` by
    /// [`Collection::plan_insert`]) computed. A plan gone stale — another
    /// point was inserted since, as by an earlier insert of the same
    /// batch — is made again here.
    ///
    /// # Errors
    /// What [`Collection::plan_insert`] refuses about the vector,
    /// [`VecDbError::NonFinitePosition`] for a NaN or infinite
    /// coordinate, and [`VecDbError::PointExists`] for a live id; nothing
    /// is stored then.
    pub fn insert_planned(
        &mut self,
        id: PointId,
        vector: Vec<f32>,
        position: (f64, f64),
        plan: InsertPlan,
    ) -> Result<(), VecDbError> {
        self.check_vector(&vector)?;
        let position = payload::checked(position)?;
        let offset = self.ids.len();
        if !self.by_id.claim(id, offset) {
            return Err(VecDbError::PointExists { id });
        }
        self.ids.push(id);
        self.inv_norms.push(inv_norm(&vector));
        self.vectors.extend_from_slice(&vector);
        self.positions.push(position);
        self.deleted.push(false);
        self.live += 1;
        let plan = if plan.offset() == offset {
            plan
        } else {
            self.hnsw.plan_insert(&vector, self.rows(), &self.inv_norms)
        };
        self.hnsw.apply(plan);
        self.maintain_quant();
        Ok(())
    }

    /// What every insert refuses about a vector.
    fn check_vector(&self, vector: &[f32]) -> Result<(), VecDbError> {
        // What `VectorDb::add_collection` refuses, `new` may not
        // smuggle in: dimension 0 has no rows to store.
        self.config.validate()?;
        if vector.len() != self.config.dim {
            return Err(VecDbError::DimensionMismatch {
                expected: self.config.dim,
                found: vector.len(),
            });
        }
        if vector.iter().any(|x| !x.is_finite()) {
            return Err(VecDbError::NonFiniteVector);
        }
        Ok(())
    }

    /// Keeps the quantized tier in sync with the vector store: trains
    /// the codebook once the tier's activation threshold is reached,
    /// appends with the frozen codebook in between, and re-encodes
    /// everything when the collection has doubled since training (so
    /// the global codebook tracks the value range as data grows).
    fn maintain_quant(&mut self) {
        let activate_at = match self.config.scoring_tier {
            ScoringTier::Full => return,
            ScoringTier::Quantized { .. } => QUANT_MIN_POINTS,
            ScoringTier::Auto => AUTO_QUANT_THRESHOLD,
        };
        let n = self.ids.len();
        if n < activate_at {
            return;
        }
        let rows = Rows::new(&self.vectors, self.config.dim);
        if self.quant.is_none() || n >= self.quant_trained_at.saturating_mul(2) {
            self.quant = Some(QuantizedVectors::encode(rows));
            self.quant_trained_at = n;
        } else if let Some(q) = &mut self.quant {
            q.push(rows.row(n - 1));
        }
    }

    /// The quantized store and rerank factor, when the configured tier
    /// is active for the current collection size.
    fn active_quant(&self) -> Option<(&QuantizedVectors, usize)> {
        let rerank = match self.config.scoring_tier {
            ScoringTier::Full => return None,
            ScoringTier::Quantized { rerank_factor } => rerank_factor.max(1),
            ScoringTier::Auto => ScoringTier::DEFAULT_RERANK_FACTOR,
        };
        self.quant.as_ref().map(|q| (q, rerank))
    }

    /// Soft-deletes a point: it disappears from every search and lookup,
    /// while its graph node keeps serving as a routing hop.
    pub fn delete(&mut self, id: PointId) -> Result<(), VecDbError> {
        let offset = self
            .by_id
            .remove(id)
            .ok_or(VecDbError::PointNotFound { id })?;
        self.deleted[offset] = true;
        self.live -= 1;
        Ok(())
    }

    /// Whether a live (non-deleted) point with this id exists.
    #[must_use]
    pub fn contains(&self, id: PointId) -> bool {
        self.by_id.get(id).is_some()
    }

    /// The `(lat, lon)` of a live point; `None` when the id is unknown or
    /// deleted.
    #[must_use]
    pub fn position(&self, id: PointId) -> Option<(f64, f64)> {
        self.by_id.get(id).map(|o| self.positions.position(o))
    }

    /// The vector of a point.
    pub fn vector(&self, id: PointId) -> Result<&[f32], VecDbError> {
        self.by_id
            .get(id)
            .map(|o| self.rows().row(o))
            .ok_or(VecDbError::PointNotFound { id })
    }

    /// Which offsets qualify: live points, and of those the ones whose
    /// position lies inside `filter`'s box.
    fn live_mask(&self, filter: Option<&Filter>) -> Vec<bool> {
        let mut mask = filter.map_or_else(
            || vec![true; self.deleted.len()],
            |f| self.positions.mask(f),
        );
        for (qualifies, &dead) in mask.iter_mut().zip(&self.deleted) {
            *qualifies &= !dead;
        }
        mask
    }

    /// Ids of all live points whose position lies inside `filter`'s box.
    #[must_use]
    pub fn filter_ids(&self, filter: &Filter) -> Vec<PointId> {
        let mask = self.live_mask(Some(filter));
        let qualifying = mask.iter().zip(&self.ids).filter(|(&m, _)| m);
        qualifying.map(|(_, &id)| id).collect()
    }

    /// Component-by-component resident-memory accounting.
    #[must_use]
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let n = self.ids.len();
        MemoryFootprint {
            points: n,
            // The row-major arena plus the inverse-norm cache.
            vector_bytes: (self.vectors.len() + self.inv_norms.len()) * 4,
            quant_bytes: self
                .quant
                .as_ref()
                .map_or(0, |q| q.memory_bytes() + q.len() * 4),
            id_index_bytes: self.by_id.memory_bytes(),
            payload_bytes: self.positions.memory_bytes(),
        }
    }

    /// k-NN search with an optional geo box: a one-query
    /// [`Collection::search_batch`].
    pub fn search(
        &self,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<Vec<ScoredPoint>, VecDbError> {
        let mut answers = self.search_batch(&[query], params)?;
        Ok(answers.pop().expect("one answer per query"))
    }

    /// Exact top-k over an explicit candidate id list: a one-query
    /// [`Collection::knn_among_batch`].
    pub fn knn_among(
        &self,
        query: &[f32],
        ids: &[PointId],
        k: usize,
    ) -> Result<Vec<ScoredPoint>, VecDbError> {
        let mut answers = self.knn_among_batch(&[query], ids, k)?;
        Ok(answers.pop().expect("one answer per query"))
    }

    fn check_dims(&self, queries: &[&[f32]]) -> Result<(), VecDbError> {
        match queries.iter().find(|q| q.len() != self.config.dim) {
            Some(q) => Err(VecDbError::DimensionMismatch {
                expected: self.config.dim,
                found: q.len(),
            }),
            None => Ok(()),
        }
    }

    /// k-NN search for `queries.len()` queries sharing one
    /// [`SearchParams`] — the one search body; every other search entry
    /// point is a one-query call of it. Returns each query's hits, best
    /// first; the answer for query `i` does not depend on the other
    /// queries in the slice. The strategy `params` names is the one that
    /// runs.
    ///
    /// The filter mask is evaluated **once** for the whole slice, and the
    /// full-precision exact scan streams each stored vector through the
    /// `Distance::score_batch` kernel — every stored vector is loaded
    /// from memory once per call instead of once per query.
    ///
    /// # Errors
    /// [`VecDbError::DimensionMismatch`] if any query has the wrong
    /// dimension.
    pub fn search_batch(
        &self,
        queries: &[&[f32]],
        params: &SearchParams,
    ) -> Result<Vec<Vec<ScoredPoint>>, VecDbError> {
        self.check_dims(queries)?;
        let empty = || Ok(vec![Vec::new(); queries.len()]);
        if self.is_empty() || params.k == 0 {
            return empty();
        }

        // Evaluate the filter once into a bitmap (deleted points never
        // qualify).
        let mask: Option<Vec<bool>> = (params.filter.is_some() || self.live < self.ids.len())
            .then(|| self.live_mask(params.filter.as_ref()));
        let mask = mask.as_deref();
        let qualifying = mask.map_or(self.len(), |m| m.iter().filter(|&&b| b).count());
        if qualifying == 0 {
            return empty();
        }

        let per_query: Vec<Vec<(usize, f32)>> = match params.strategy {
            SearchStrategy::Exact => {
                // Offsets double as the tie-break key: equal distances
                // keep insertion order. The coarse pass runs only when it
                // would prune something.
                let candidates = (0..self.ids.len())
                    .filter(|&o| mask.is_none_or(|m| m[o]))
                    .map(|o| (o, o));
                let quant = self
                    .quant_fetch(params.k)
                    .filter(|&(_, fetch)| qualifying > fetch);
                self.top_k_scored(queries, candidates, params.k, quant)
            }
            SearchStrategy::Hnsw => {
                // Graph traversal is inherently per-query; the slice still
                // shares the mask evaluation above.
                let ef = params.ef.unwrap_or_else(|| default_ef(params.k));
                queries
                    .iter()
                    .map(|q| self.hnsw_hits(q, params.k, ef, mask))
                    .collect()
            }
        };

        Ok(per_query
            .into_iter()
            .map(|hits| {
                hits.into_iter()
                    .map(|(o, d)| self.scored_point(self.ids[o], d))
                    .collect()
            })
            .collect())
    }

    /// Exact top-k over an explicit candidate id list for
    /// `queries.len()` queries (used by backends that pre-filter
    /// candidates with an external spatial index) — the one
    /// candidate-scoring body. Unknown and deleted ids are skipped; ids
    /// are resolved to offsets **once** for the slice; the answer for
    /// query `i` does not depend on the other queries.
    ///
    /// # Errors
    /// [`VecDbError::DimensionMismatch`] if any query has the wrong
    /// dimension.
    pub fn knn_among_batch(
        &self,
        queries: &[&[f32]],
        ids: &[PointId],
        k: usize,
    ) -> Result<Vec<Vec<ScoredPoint>>, VecDbError> {
        self.check_dims(queries)?;
        let resolved: Vec<(PointId, usize)> = ids
            .iter()
            .filter_map(|&id| self.by_id.get(id).map(|o| (id, o)))
            .collect();
        // Quantized coarse pass, engaged only when the candidate list is
        // meaningfully larger than the rerank budget (a size check, so
        // the decision is a deterministic function of collection state).
        let quant = self
            .quant_fetch(k)
            .filter(|&(_, fetch)| resolved.len() > fetch.saturating_mul(2));
        Ok(self
            .top_k_scored(queries, resolved.iter().copied(), k, quant)
            .into_iter()
            .map(|hits| {
                hits.into_iter()
                    .map(|(id, d)| self.scored_point(id, d))
                    .collect()
            })
            .collect())
    }

    fn scored_point(&self, id: PointId, distance: f32) -> ScoredPoint {
        ScoredPoint {
            id,
            score: self.config.distance.similarity_from_distance(distance),
        }
    }

    /// The active quantized store with its coarse-pass budget
    /// `rerank_factor × k`.
    fn quant_fetch(&self, k: usize) -> Option<(&QuantizedVectors, usize)> {
        self.active_quant()
            .map(|(quant, rerank_factor)| (quant, k.saturating_mul(rerank_factor)))
    }

    /// The exact-scoring kernel behind [`Collection::search_batch`] and
    /// [`Collection::knn_among_batch`]: for every query, the `k` nearest
    /// of `candidates` — `(tie-break key, offset)` pairs — ascending by
    /// `(distance, key)`.
    ///
    /// With `quant = Some((codes, fetch))` each query runs a two-pass
    /// scan of its own: a coarse pass scores every candidate over the u8
    /// codes (¼ the memory traffic of the f32 store), keeps the best
    /// `fetch`, and a rerank pass rescores only those survivors at full
    /// precision — so reported distances are always full-precision.
    /// Otherwise one pass streams each candidate vector through
    /// [`Distance::score_batch`] for all queries at once (for cosine: one
    /// fused dot product per stored vector and query).
    fn top_k_scored<K, I>(
        &self,
        queries: &[&[f32]],
        candidates: I,
        k: usize,
        quant: Option<(&QuantizedVectors, usize)>,
    ) -> Vec<Vec<(K, f32)>>
    where
        K: Ord + Copy,
        I: Iterator<Item = (K, usize)> + Clone,
    {
        let distance = self.config.distance;
        let rows = self.rows();
        let by_distance = |a: f32, b: f32| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
        let q_invs: Vec<f32> = queries.iter().map(|q| inv_norm(q)).collect();
        let mut scored: Vec<Vec<(K, f32)>> = match quant {
            Some((codes, fetch)) => queries
                .iter()
                .zip(&q_invs)
                .map(|(q, &q_inv)| {
                    // The best `fetch` so far, worst on top: a candidate
                    // that cannot place costs one comparison.
                    let mut best: BinaryHeap<Ranked<K>> = BinaryHeap::with_capacity(fetch);
                    for (key, o) in candidates.clone() {
                        let d = codes.distance_with_query_inv(distance, q, q_inv, o);
                        let ranked = Ranked(d, key, o);
                        if best.len() < fetch {
                            best.push(ranked);
                        } else if let Some(mut worst) = best.peek_mut() {
                            if ranked < *worst {
                                *worst = ranked;
                            }
                        }
                    }
                    best.into_sorted_vec()
                        .into_iter()
                        .map(|Ranked(_, key, o)| {
                            let d =
                                distance.distance_normed(q, q_inv, rows.row(o), self.inv_norms[o]);
                            (key, d)
                        })
                        .collect()
                })
                .collect(),
            None => {
                let capacity = candidates.size_hint().1.unwrap_or(0);
                let mut scored: Vec<Vec<(K, f32)>> = queries
                    .iter()
                    .map(|_| Vec::with_capacity(capacity))
                    .collect();
                let mut row = vec![0.0f32; queries.len()];
                for (key, o) in candidates {
                    distance.score_batch(
                        queries,
                        &q_invs,
                        rows.row(o),
                        self.inv_norms[o],
                        &mut row,
                    );
                    for (per_query, &d) in scored.iter_mut().zip(&row) {
                        per_query.push((key, d));
                    }
                }
                scored
            }
        };
        for per_query in &mut scored {
            // O(n) selection + O(k log k) sort instead of a full sort.
            top_k_by(per_query, k, |a, b| {
                by_distance(a.1, b.1).then(a.0.cmp(&b.0))
            });
        }
        scored
    }

    /// Filtered HNSW beam search.
    fn hnsw_hits(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        mask: Option<&[bool]>,
    ) -> Vec<(usize, f32)> {
        match mask {
            None => self
                .hnsw
                .search(query, k, ef, self.rows(), &self.inv_norms, None),
            Some(m) => {
                let accept = |o: usize| m[o];
                self.hnsw
                    .search(query, k, ef, self.rows(), &self.inv_norms, Some(&accept))
            }
        }
    }

    /// Appends the collection's five sections to `w`, ending each. A
    /// collection has no container of its own: a crate that stores one
    /// declares a [`crate::codec::Format`] and packs these sections into
    /// it beside whatever else it keeps, so one file carries one
    /// checksum; [`Collection::from_sections`] reads them back. All
    /// integers and floats are little-endian; every stored float goes out
    /// as its own bits, so a restored collection scores identically:
    ///
    /// ```text
    /// 0 meta      config    dim u64, metric u8 (0 cosine, 1 dot, 2 Euclid), m u64,
    ///                       m0 u64, ef_construction u64, seed u64, tier u8 (0 auto,
    ///                       1 full, 2 quantized + rerank_factor u64)
    ///             points    n u64, n × u64 ids, n × u8 delete flags,
    ///                       quant_trained_at u64, n × (lat f64, lon f64)
    /// 1 vectors   len × dim f32, row-major
    /// 2 inv_norms len f32
    /// 3 quant     empty when the tier is off, else dim u64, len u64, min f32,
    ///             scale f32, len × dim u8 codes, len f32 inverse norms
    /// 4 hnsw      entry u32 (u32::MAX = none), top_level u32, nodes u32, then per
    ///             node: level u32 and, per layer 0..=level, count u32 + count × u32
    /// ```
    ///
    /// A point is its id, its delete flag, its position, its vector, its
    /// inverse norm, its codes when the quantized tier is on, and its
    /// graph node. The encoding is canonical: a collection has one byte
    /// string, and re-packing a restored collection reproduces it.
    /// Nothing derived is stored: the id → offset index and the live
    /// count are rebuilt from the ids and delete flags on load.
    pub fn pack_sections(&self, w: &mut Writer) {
        let n = self.ids.len();
        // Meta (25 B a point: id, delete flag, position), vectors, norms,
        // codes + their norms, and ~2·m0 links a node.
        w.reserve(n * (25 + self.config.dim * 5 + 8 + 8 * self.config.hnsw.m0));
        self.config.pack(w);
        w.len64(n);
        w.u64s(&self.ids);
        w.bools(&self.deleted);
        w.len64(self.quant_trained_at);
        self.positions.pack(w);
        w.end_section();
        w.f32s(&self.vectors);
        w.end_section();
        w.f32s(&self.inv_norms);
        w.end_section();
        if let Some(quant) = &self.quant {
            quant.pack(w);
        }
        w.end_section();
        self.hnsw.pack(w);
        w.end_section();
    }

    /// Rebuilds a collection from the five sections
    /// [`Collection::pack_sections`] wrote, trusting none of them: the
    /// container ([`crate::codec::Format::open`]) has checked its
    /// checksum and section table, and here every declared length is
    /// checked against the bytes that remain before anything is
    /// allocated for it, and the parts must then agree with each other —
    /// one point count across ids, vectors, norms, positions, delete
    /// flags, graph nodes and codes, the configured dimension
    /// throughout, no id live at two offsets, every position finite, and
    /// every graph link inside the graph. Sections that fail any of this
    /// are an error here rather than a panic in some later query.
    ///
    /// # Errors
    /// [`VecDbError::Snapshot`] naming the first check that failed
    /// ([`VecDbError::NonFiniteVector`] for a stored NaN or infinity,
    /// [`VecDbError::InvalidConfig`] for a configuration
    /// `CollectionConfig::validate` refuses — dimension 0, or graph
    /// parameters the next insert would panic on).
    pub fn from_sections(
        [mut meta, mut rows, mut norms, quant, hnsw]: [Reader<'_>; 5],
    ) -> Result<Self, VecDbError> {
        // What the graph's arenas may take: no more than the snapshot.
        let budget = [&meta, &rows, &norms, &quant, &hnsw]
            .iter()
            .map(|r| r.remaining())
            .sum();
        let config = CollectionConfig::unpack(&mut meta)?;
        config.validate()?;
        let n = meta.len64()?;
        let ids = meta.u64s(n)?;
        let deleted = meta.bools(n)?;
        let quant_trained_at = meta.len64()?;
        let positions = PayloadStore::unpack(&mut meta, n)?;
        meta.finish()?;

        let dim = config.dim;
        if n.checked_mul(dim).and_then(|x| x.checked_mul(4)) != Some(rows.remaining()) {
            return Err(corrupt(format!(
                "{} vector bytes for {n} points of dimension {dim}",
                rows.remaining()
            )));
        }
        let vectors = rows.f32s(n * dim)?;
        let inv_norms = norms.f32s(n)?;
        norms.finish()?;
        // What `insert` refuses, a snapshot may not smuggle in: a NaN
        // would break the total order every top-k sort relies on.
        if !vectors.iter().chain(&inv_norms).all(|x| x.is_finite()) {
            return Err(VecDbError::NonFiniteVector);
        }
        let quant = match quant.remaining() {
            0 => None,
            _ => Some(QuantizedVectors::unpack(quant)?),
        };
        let hnsw = HnswIndex::unpack(hnsw, config.distance, config.hnsw.clone(), budget)?;

        let counts = [
            ("graph nodes", hnsw.len()),
            (
                "quantized vectors",
                quant.as_ref().map_or(n, QuantizedVectors::len),
            ),
        ];
        if let Some((what, found)) = counts.into_iter().find(|&(_, found)| found != n) {
            return Err(corrupt(format!("{found} {what} for {n} points")));
        }
        if quant.as_ref().is_some_and(|q| q.dim() != dim) {
            return Err(corrupt("quantized vectors of another dimension"));
        }
        let by_id = IdColumn::derive(&ids, &deleted)?;
        let live = deleted.iter().filter(|&&d| !d).count();

        Ok(Self {
            config,
            ids,
            vectors,
            inv_norms,
            positions,
            by_id,
            deleted,
            live,
            hnsw,
            quant,
            quant_trained_at,
        })
    }

    /// Iterates over the live points: `(id, vector, (lat, lon))`.
    /// Offsets of soft-deleted points are skipped. This is the bulk-read
    /// surface the shard nodes use to cut their slice out of a prepared
    /// collection.
    pub fn iter_points(&self) -> impl Iterator<Item = (PointId, &[f32], (f64, f64))> + '_ {
        self.ids
            .iter()
            .enumerate()
            .filter(|(o, _)| !self.deleted[*o])
            .map(|(o, &id)| (id, self.rows().row(o), self.positions.position(o)))
    }
}

/// The offset an id holds in [`IdColumn`] once its point is deleted.
const GONE: u32 = u32::MAX;

/// Id → offset: every id the collection has stored, ascending, beside
/// the offset of its live point or [`GONE`]. A deleted id keeps its
/// slot, so deleting a point and inserting its id again — an update —
/// is two binary searches and no allocation; a new id above the largest
/// is a push.
#[derive(Debug, Clone, Default)]
struct IdColumn {
    keys: Vec<PointId>,
    offsets: Vec<u32>,
}

impl IdColumn {
    /// The offset of `id`'s live point.
    fn get(&self, id: PointId) -> Option<usize> {
        let i = self.keys.binary_search(&id).ok()?;
        let offset = self.offsets[i];
        (offset != GONE).then_some(offset as usize)
    }

    /// Maps `id` to `offset`, unless `id` is live already.
    fn claim(&mut self, id: PointId, offset: usize) -> bool {
        let offset = u32::try_from(offset)
            .ok()
            .filter(|&o| o != GONE)
            .expect("fewer than u32::MAX points");
        match self.keys.binary_search(&id) {
            Ok(i) if self.offsets[i] != GONE => return false,
            Ok(i) => self.offsets[i] = offset,
            Err(i) => {
                self.keys.insert(i, id);
                self.offsets.insert(i, offset);
            }
        }
        true
    }

    /// Takes `id` out, returning the offset its live point had.
    fn remove(&mut self, id: PointId) -> Option<usize> {
        let i = self.keys.binary_search(&id).ok()?;
        let offset = std::mem::replace(&mut self.offsets[i], GONE);
        (offset != GONE).then_some(offset as usize)
    }

    /// The column `claim` and `remove` leave behind for points stored as
    /// `ids` with these delete flags: every stored id, at its one live
    /// offset or [`GONE`].
    ///
    /// # Errors
    /// [`VecDbError::Snapshot`] for an id live at two offsets, or for
    /// more points than an offset can name.
    fn derive(ids: &[PointId], deleted: &[bool]) -> Result<Self, VecDbError> {
        let n = u32::try_from(ids.len())
            .ok()
            .filter(|&n| n != GONE)
            .ok_or_else(|| corrupt(format!("{} points", ids.len())))?;
        // Stable: an id's offsets stay ascending.
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by_key(|&o| ids[o as usize]);
        let mut column = Self {
            keys: Vec::with_capacity(ids.len()),
            offsets: Vec::with_capacity(ids.len()),
        };
        for o in order {
            let id = ids[o as usize];
            let offset = if deleted[o as usize] { GONE } else { o };
            if column.keys.last() != Some(&id) {
                column.keys.push(id);
                column.offsets.push(offset);
                continue;
            }
            let slot = column.offsets.last_mut().expect("parallel to keys");
            if offset != GONE {
                if *slot != GONE {
                    return Err(corrupt(format!(
                        "id {id} is live at offsets {slot} and {o}"
                    )));
                }
                *slot = offset;
            }
        }
        Ok(column)
    }

    /// 12 B an id: the id and its offset.
    fn memory_bytes(&self) -> usize {
        self.keys.len() * (std::mem::size_of::<PointId>() + std::mem::size_of::<u32>())
    }
}

/// A coarse-pass survivor `(distance, key, offset)`, ordered by
/// `(distance, key)` — the order every top-k of the collection selects
/// by, so the `fetch` least of a bounded heap are exactly the first
/// `fetch` of a full sort.
struct Ranked<K>(f32, K, usize);

impl<K: Ord> Ord for Ranked<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let by_distance = self.0.partial_cmp(&other.0);
        by_distance
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.1.cmp(&other.1))
    }
}

impl<K: Ord> PartialOrd for Ranked<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> PartialEq for Ranked<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<K: Ord> Eq for Ranked<K> {}

/// Reduces `items` to its `k` smallest elements under `cmp`, sorted —
/// exactly the first `k` of a full sort by `cmp`, computed with an O(n)
/// partial selection instead of sorting the whole slice. `cmp` must be a
/// total order (callers tie-break equal distances by offset or id).
fn top_k_by<T, F>(items: &mut Vec<T>, k: usize, mut cmp: F)
where
    F: FnMut(&T, &T) -> std::cmp::Ordering,
{
    if items.len() > k && k > 0 {
        items.select_nth_unstable_by(k - 1, &mut cmp);
    }
    items.truncate(k);
    items.sort_by(cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(angle: f32) -> Vec<f32> {
        vec![angle.cos(), angle.sin()]
    }

    fn collection_with_points(n: usize) -> Collection {
        let mut c = Collection::new(CollectionConfig::new(2));
        for i in 0..n {
            let angle = i as f32 * 0.01;
            let position = (i as f64 * 0.001, -(i as f64) * 0.001);
            c.insert(i as PointId, unit(angle), position).unwrap();
        }
        c
    }

    #[test]
    fn insert_and_lookup() {
        let c = collection_with_points(10);
        assert_eq!(c.len(), 10);
        let (_, _, position) = c.iter_points().find(|&(id, ..)| id == 3).unwrap();
        assert_eq!(position, (0.003, -0.003));
        assert!(c.vector(99).is_err());
        assert_eq!(c.vector(0).unwrap().len(), 2);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut c = Collection::new(CollectionConfig::new(4));
        let err = c.insert(0, vec![1.0; 3], (0.0, 0.0));
        assert!(matches!(err, Err(VecDbError::DimensionMismatch { .. })));
    }

    #[test]
    fn nan_rejected() {
        let mut c = Collection::new(CollectionConfig::new(2));
        let err = c.insert(0, vec![f32::NAN, 0.0], (0.0, 0.0));
        assert_eq!(err, Err(VecDbError::NonFiniteVector));
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut c = Collection::new(CollectionConfig::new(2));
        c.insert(7, vec![1.0, 0.0], (0.0, 0.0)).unwrap();
        assert!(c.insert(7, vec![0.0, 1.0], (0.0, 0.0)).is_err());
    }

    #[test]
    fn unfiltered_search_finds_self() {
        let c = collection_with_points(200);
        for strategy in [SearchStrategy::Exact, SearchStrategy::Hnsw] {
            let params = SearchParams::top_k(1).with_strategy(strategy);
            let r = c.search(&unit(0.5), &params).unwrap();
            assert_eq!(r[0].id, 50, "{strategy:?}");
            assert!(r[0].score > 0.9999, "{strategy:?}");
        }
    }

    #[test]
    fn scores_descend() {
        let c = collection_with_points(100);
        for strategy in [SearchStrategy::Exact, SearchStrategy::Hnsw] {
            let params = SearchParams::top_k(10).with_strategy(strategy);
            let r = c.search(&unit(0.3), &params).unwrap();
            assert!(
                r.windows(2).all(|w| w[0].score >= w[1].score),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn filtered_search_respects_filter() {
        let c = collection_with_points(200);
        // Points 100..=200 — half the collection, broad enough that the
        // filtered graph search has to walk past non-qualifying nodes.
        let f = Filter::geo_box(0.0995, -0.2005, 0.2005, -0.0995);
        for strategy in [SearchStrategy::Exact, SearchStrategy::Hnsw] {
            let params = SearchParams::top_k(5)
                .with_filter(f.clone())
                .with_strategy(strategy);
            let r = c.search(&unit(0.31), &params).unwrap();
            assert_eq!(r.len(), 5, "{strategy:?}");
            assert!(r.iter().all(|p| p.id >= 100), "{strategy:?}");
        }
    }

    #[test]
    fn selective_filter_triggers_exact_and_is_correct() {
        let c = collection_with_points(500);
        // Geo filter matching only ~10 points, under the default exact
        // scan.
        let f = Filter::geo_box(0.0, -0.010, 0.010, 0.0);
        let r = c
            .search(&unit(0.0), &SearchParams::top_k(3).with_filter(f.clone()))
            .unwrap();
        assert_eq!(r.len(), 3);
        let qualifying = c.filter_ids(&f);
        assert!(r.iter().all(|p| qualifying.contains(&p.id)));
        // Exact top-1 under the filter is point 0 (closest angle to 0).
        assert_eq!(r[0].id, 0);
    }

    #[test]
    fn empty_filter_result_is_empty() {
        let c = collection_with_points(50);
        let f = Filter::geo_box(10.0, 10.0, 11.0, 11.0);
        let r = c
            .search(&unit(0.0), &SearchParams::top_k(5).with_filter(f))
            .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn exact_flag_matches_hnsw_on_easy_data() {
        let c = collection_with_points(300);
        let q = unit(1.23);
        let approx = c
            .search(
                &q,
                &SearchParams::top_k(5).with_strategy(SearchStrategy::Hnsw),
            )
            .unwrap();
        let exact = c.search(&q, &SearchParams::top_k(5)).unwrap();
        assert_eq!(
            approx.iter().map(|p| p.id).collect::<Vec<_>>(),
            exact.iter().map(|p| p.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn explicit_strategies_execute_as_requested() {
        let c = collection_with_points(300);
        let f = Filter::geo_box(0.0, -0.3, 0.3, 0.0);
        let q = unit(0.2);
        let search = |strategy| {
            let params = SearchParams::top_k(5)
                .with_filter(f.clone())
                .with_strategy(strategy);
            c.search(&q, &params).unwrap()
        };
        let exact = search(SearchStrategy::Exact);
        let hnsw = search(SearchStrategy::Hnsw);
        let qualifying = c.filter_ids(&f);
        assert!(exact
            .iter()
            .chain(&hnsw)
            .all(|p| qualifying.contains(&p.id)));
        // Same answer set (equidistant ties may order differently).
        let mut a: Vec<_> = exact.iter().map(|p| p.id).collect();
        let mut b: Vec<_> = hnsw.iter().map(|p| p.id).collect();
        assert_eq!(a[0], b[0]);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn knn_among_scores_candidate_subset() {
        let c = collection_with_points(100);
        let ids: Vec<PointId> = vec![10, 20, 30, 999]; // 999 unknown → skipped
        let r = c.knn_among(&unit(0.2), &ids, 2).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].id, 20); // angle 0.20 exactly
        assert!(r[0].score >= r[1].score);
        // Wrong-length queries are rejected, not silently mis-scored.
        assert!(matches!(
            c.knn_among(&[1.0, 2.0, 3.0], &ids, 2),
            Err(VecDbError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn k_zero_returns_empty() {
        let c = collection_with_points(10);
        assert!(c
            .search(&unit(0.0), &SearchParams::top_k(0))
            .unwrap()
            .is_empty());
    }

    /// Splits `queries` into slices of `lanes` and concatenates the
    /// answers — the same function at a different lane count.
    fn search_in_lanes(
        c: &Collection,
        queries: &[&[f32]],
        params: &SearchParams,
        lanes: usize,
    ) -> Vec<Vec<ScoredPoint>> {
        queries
            .chunks(lanes)
            .flat_map(|chunk| c.search_batch(chunk, params).unwrap())
            .collect()
    }

    #[test]
    fn search_batch_matches_sequential_search() {
        // One body: a slice of 17 must answer exactly like 17 slices of
        // one and like slices of 5 (different kernel lane counts).
        let c = collection_with_points(300);
        let owned: Vec<Vec<f32>> = (0..17).map(|i| unit(i as f32 * 0.13)).collect();
        let queries: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
        let filters = [None, Some(Filter::geo_box(0.0995, -0.3, 0.3, -0.0995))];
        for filter in filters {
            for strategy in [SearchStrategy::Exact, SearchStrategy::Hnsw] {
                let mut params = SearchParams::top_k(7).with_strategy(strategy);
                if let Some(f) = filter.clone() {
                    params = params.with_filter(f);
                }
                let batched = c.search_batch(&queries, &params).unwrap();
                assert_eq!(batched.len(), queries.len());
                for lanes in [1, 5] {
                    let split = search_in_lanes(&c, &queries, &params, lanes);
                    assert_eq!(batched, split, "{strategy:?} lanes={lanes}");
                }
            }
        }
    }

    #[test]
    fn exact_search_batch_matches_flat_index_brute_force() {
        // The surviving kernel held to an independent reference: the
        // brute-force `FlatIndex` scan (per-query `distance_normed` and a
        // stable sort), bit for bit, unfiltered and under a broad and a
        // selective filter.
        let c = collection_with_points(300);
        let mut flat = crate::FlatIndex::new(c.config().distance);
        for o in 0..300u64 {
            flat.push(c.vector(o).unwrap().to_vec());
        }
        let owned: Vec<Vec<f32>> = (0..17).map(|i| unit(i as f32 * 0.13)).collect();
        let queries: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
        let broad = Filter::geo_box(0.0995, -0.3, 0.3, -0.0995);
        let narrow = Filter::geo_box(0.0, -0.010, 0.010, 0.0);
        for filter in [None, Some(broad), Some(narrow)] {
            let mut params = SearchParams::top_k(7).with_strategy(SearchStrategy::Exact);
            if let Some(f) = filter.clone() {
                params = params.with_filter(f);
            }
            let qualifying: Option<Vec<PointId>> = filter.as_ref().map(|f| c.filter_ids(f));
            let mask = |o: usize| {
                qualifying
                    .as_ref()
                    .is_none_or(|ids| ids.contains(&(o as PointId)))
            };
            let batched = c.search_batch(&queries, &params).unwrap();
            for (q, b) in queries.iter().zip(&batched) {
                let expect: Vec<ScoredPoint> = flat
                    .search(q, 7, Some(&mask))
                    .into_iter()
                    .map(|(o, d)| c.scored_point(o as PointId, d))
                    .collect();
                assert_eq!(b, &expect, "filter={filter:?}");
            }
        }
        // The candidate-list entry point, against the same reference.
        let ids: Vec<PointId> = (0..300).step_by(3).collect();
        let in_list = |o: usize| o.is_multiple_of(3);
        let batched = c.knn_among_batch(&queries, &ids, 7).unwrap();
        for (q, b) in queries.iter().zip(&batched) {
            let expect: Vec<ScoredPoint> = flat
                .search(q, 7, Some(&in_list))
                .into_iter()
                .map(|(o, d)| c.scored_point(o as PointId, d))
                .collect();
            assert_eq!(b, &expect);
        }
    }

    #[test]
    fn coarse_pass_keeps_the_first_fetch_of_a_full_sort() {
        // Every vector stored three times, so coarse distances tie in
        // threes and the key decides: the bounded heap must keep exactly
        // the first `fetch` of a full sort by (distance, key). With a
        // rerank factor of 1 the coarse cut of 10 splits a triple and is
        // the answer itself; the candidate list runs in descending id
        // order, so arrival order cannot stand in for the key.
        let mut c = Collection::new(CollectionConfig {
            scoring_tier: ScoringTier::Quantized { rerank_factor: 1 },
            ..CollectionConfig::new(2)
        });
        for i in 0..300u64 {
            c.insert(i, unit((i / 3) as f32 * 0.05), (0.0, 0.0))
                .unwrap();
        }
        let codes = c.quant.as_ref().expect("tier active");
        let metric = c.config.distance;
        let by =
            |a: &(f32, usize), b: &(f32, usize)| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1));
        let descending: Vec<PointId> = (0..300).rev().collect();
        for qi in 0..12 {
            let q = unit(qi as f32 * 0.37);
            let q_inv = inv_norm(&q);
            let mut coarse: Vec<(f32, usize)> = (0..300)
                .map(|o| (codes.distance_with_query_inv(metric, &q, q_inv, o), o))
                .collect();
            coarse.sort_by(by);
            let mut fine: Vec<(f32, usize)> = coarse[..10]
                .iter()
                .map(|&(_, o)| {
                    let v = c.rows().row(o);
                    (metric.distance_normed(&q, q_inv, v, c.inv_norms[o]), o)
                })
                .collect();
            fine.sort_by(by);
            let want: Vec<ScoredPoint> = fine
                .iter()
                .map(|&(d, o)| c.scored_point(o as PointId, d))
                .collect();
            let exact = SearchParams::top_k(10).with_strategy(SearchStrategy::Exact);
            assert_eq!(c.search(&q, &exact).unwrap(), want, "query {qi}");
            assert_eq!(
                c.knn_among(&q, &descending, 10).unwrap(),
                want,
                "query {qi}"
            );
        }
    }

    #[test]
    fn search_batch_handles_ties_like_sequential() {
        // Identical vectors → identical scores; the exact scan must keep
        // the insertion-order tie-break at every lane count.
        let mut c = Collection::new(CollectionConfig::new(2));
        for id in 0..6u64 {
            c.insert(id, vec![1.0, 0.0], (0.0, 0.0)).unwrap();
        }
        let params = SearchParams::top_k(4).with_strategy(SearchStrategy::Exact);
        let queries: [&[f32]; 2] = [&[1.0, 0.0], &[0.6, 0.8]];
        let batched = c.search_batch(&queries, &params).unwrap();
        for (q, b) in queries.iter().zip(&batched) {
            assert_eq!(b, &c.search(q, &params).unwrap());
        }
        assert_eq!(
            batched[0].iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn search_batch_empty_inputs() {
        let c = collection_with_points(10);
        assert!(c
            .search_batch(&[], &SearchParams::top_k(3))
            .unwrap()
            .is_empty());
        let empty = Collection::new(CollectionConfig::new(2));
        let q = unit(0.1);
        let out = empty
            .search_batch(&[q.as_slice()], &SearchParams::top_k(3))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
        assert!(matches!(
            c.search_batch(&[&[1.0, 2.0, 3.0]], &SearchParams::top_k(1)),
            Err(VecDbError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn knn_among_batch_matches_sequential() {
        // A slice of 9 against 9 slices of one and slices of 4.
        let c = collection_with_points(120);
        let ids: Vec<PointId> = (0..120).step_by(2).chain([999]).collect();
        let owned: Vec<Vec<f32>> = (0..9).map(|i| unit(0.07 * i as f32)).collect();
        let queries: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
        let batched = c.knn_among_batch(&queries, &ids, 5).unwrap();
        for (q, b) in queries.iter().zip(&batched) {
            assert_eq!(b, &c.knn_among(q, &ids, 5).unwrap());
        }
        let in_fours: Vec<Vec<ScoredPoint>> = queries
            .chunks(4)
            .flat_map(|chunk| c.knn_among_batch(chunk, &ids, 5).unwrap())
            .collect();
        assert_eq!(batched, in_fours);
        assert!(matches!(
            c.knn_among_batch(&[&[0.0f32; 3] as &[f32]], &ids, 5),
            Err(VecDbError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn query_dim_checked() {
        let c = collection_with_points(10);
        assert!(matches!(
            c.search(&[1.0, 2.0, 3.0], &SearchParams::top_k(1)),
            Err(VecDbError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn id_column_starts_empty() {
        let column = IdColumn::default();
        assert_eq!(column.get(0), None);
        assert_eq!(column.get(u64::MAX), None);
        assert_eq!(column.memory_bytes(), 0);
    }

    #[test]
    fn id_column_dense_sequential_ids() {
        let mut column = IdColumn::default();
        for i in 0..10_000u64 {
            assert!(column.claim(i, i as usize * 3));
        }
        for i in 0..10_000u64 {
            assert_eq!(column.get(i), Some(i as usize * 3), "key {i}");
        }
        assert_eq!(column.get(10_000), None);
    }

    #[test]
    fn id_column_sparse_and_clustered_ids() {
        // Not ascending: every few keys lands below one already stored.
        let keys: Vec<u64> = (0..5_000u64)
            .map(|i| i * 17 + (i % 7) * 1000 + if i > 2500 { 1 << 40 } else { 0 })
            .chain([u64::MAX, u64::MAX - 1])
            .collect();
        let mut column = IdColumn::default();
        for (offset, &k) in keys.iter().enumerate() {
            assert!(column.claim(k, offset));
        }
        for (offset, &k) in keys.iter().enumerate() {
            assert_eq!(column.get(k), Some(offset), "key {k}");
        }
        assert!(column.keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(column.get(3), None);
        assert_eq!(column.get((1 << 40) + 3), None);
    }

    #[test]
    fn id_column_remove_and_reinsert() {
        let mut column = IdColumn::default();
        for i in 0..3_000u64 {
            column.claim(i, i as usize);
        }
        for i in (0..3_000u64).step_by(3) {
            assert_eq!(column.remove(i), Some(i as usize), "remove {i}");
            assert_eq!(column.remove(i), None, "double remove {i}");
        }
        for i in 0..3_000u64 {
            let want = (i % 3 != 0).then_some(i as usize);
            assert_eq!(column.get(i), want, "key {i}");
        }
        // The same ids again at new offsets reuse their slots.
        for i in (0..3_000u64).step_by(3) {
            assert!(column.claim(i, i as usize + 100_000));
        }
        for i in (0..3_000u64).step_by(3) {
            assert_eq!(column.get(i), Some(i as usize + 100_000));
        }
        assert_eq!(column.keys.len(), 3_000);
        assert_eq!(column.offsets.len(), 3_000);
    }

    #[test]
    fn id_column_refuses_to_claim_a_live_id() {
        let mut column = IdColumn::default();
        for i in 0..2_000u64 {
            assert!(column.claim(i, 1));
        }
        for i in 0..2_000u64 {
            assert!(!column.claim(i, 2), "key {i} claimed twice");
            assert_eq!(column.get(i), Some(1));
        }
        // An update is a remove, then a claim at the new offset.
        for i in 0..2_000u64 {
            column.remove(i);
            assert!(column.claim(i, 2));
        }
        for i in 0..2_000u64 {
            assert_eq!(column.get(i), Some(2));
        }
        assert_eq!(column.keys.len(), 2_000);
    }

    #[test]
    fn id_column_derived_on_load_equals_the_one_built_by_claims() {
        // Offsets are appended as the collection appends points: a
        // re-insert of a deleted id takes a fresh offset.
        let mut built = IdColumn::default();
        let mut ids = Vec::new();
        let mut deleted = Vec::new();
        let mut insert = |built: &mut IdColumn, ids: &mut Vec<PointId>, id: PointId| {
            assert!(built.claim(id, ids.len()));
            ids.push(id);
            deleted.push(false);
        };
        for i in 0..2_500u64 {
            insert(&mut built, &mut ids, i * 5);
        }
        insert(&mut built, &mut ids, 1_000_000);
        insert(&mut built, &mut ids, 3);
        let removed = [10, 25, 3].map(|id| built.remove(id).unwrap());
        insert(&mut built, &mut ids, 25);
        for o in removed {
            deleted[o] = true;
        }

        let derived = IdColumn::derive(&ids, &deleted).unwrap();
        assert_eq!(derived.keys, built.keys);
        assert_eq!(derived.offsets, built.offsets);
        assert_eq!(derived.get(25), Some(ids.len() - 1));
        assert_eq!(derived.get(10), None);
        assert_eq!(derived.memory_bytes(), built.memory_bytes());

        // One id live at two offsets is refused.
        let mut twice = deleted.clone();
        twice[5] = false; // offset 5 held id 25 before its delete
        assert!(matches!(
            IdColumn::derive(&ids, &twice),
            Err(VecDbError::Snapshot { .. })
        ));
    }

    #[test]
    fn id_column_memory_is_12_bytes_an_id_and_beats_a_hashmap() {
        let mut column = IdColumn::default();
        for i in 0..100_000u64 {
            column.claim(i, i as usize);
        }
        for i in (0..100_000u64).step_by(2) {
            column.remove(i);
        }
        // A deleted id keeps its slot.
        assert_eq!(column.memory_bytes(), 100_000 * 12);
        let hashmap_estimate = 100_000 * 21; // SwissTable (u64, usize) at 7/8 load
        assert!(
            column.memory_bytes() < hashmap_estimate * 3 / 4,
            "id column {} vs hashmap {}",
            column.memory_bytes(),
            hashmap_estimate
        );
    }
}
