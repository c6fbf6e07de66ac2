//! Sharded collections: hash-partitioned points across N inner
//! [`Collection`]s behind one search surface.
//!
//! This is the partitioned-collection design of distributed vector
//! stores (Qdrant shards, pgvector partitioned tables): each point lives
//! in exactly one shard chosen by a deterministic hash of its id, every
//! shard answers the query independently, and the per-shard top-k lists
//! are combined by a binary-heap k-way merge that dedups by point id.
//! Because the hash is deterministic and shards are disjoint, exact
//! search over a [`ShardedCollection`] returns bit-identical ids and
//! scores to the same search over one flat [`Collection`] (ties included
//! — the merge breaks equal scores by ascending id, matching the flat
//! exact scan over id-ordered insertions).

use std::collections::BinaryHeap;
use std::collections::HashSet;

use crate::collection::{Collection, CollectionConfig, ExecutedStrategy, PlannedSearch};
use crate::collection::{ScoredPoint, SearchParams};
use crate::db::CollectionHandle;
use crate::error::VecDbError;
use crate::payload::Filter;
use crate::PointId;

/// Deterministic shard routing: Fibonacci multiplicative hash of the
/// point id, reduced to `[0, shards)`. Stable across processes — no
/// `RandomState` — so snapshots and re-partitions agree.
#[must_use]
pub fn shard_of(id: PointId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    ((id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % shards.max(1)
}

/// Identity of one shard within a fixed-size shard set: "shard `shard`
/// of `shards`". Carried on the wire by cross-process shard servers so
/// a remote executor can verify which slice of the id space it owns
/// ([`ShardSpec::owns`] is [`shard_of`] applied to its own index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Total number of shards in the set (≥ 1).
    pub shards: u32,
    /// This shard's index, in `[0, shards)`.
    pub shard: u32,
}

impl ShardSpec {
    /// A validated spec. Returns `None` when `shards == 0` or
    /// `shard >= shards`.
    #[must_use]
    pub fn new(shards: u32, shard: u32) -> Option<Self> {
        (shards >= 1 && shard < shards).then_some(Self { shards, shard })
    }

    /// Whether this shard owns `id` under deterministic hash routing.
    #[must_use]
    pub fn owns(&self, id: PointId) -> bool {
        shard_of(id, self.shards as usize) == self.shard as usize
    }
}

/// A [`PlannedSearch`] with per-shard detail attached.
#[derive(Debug, Clone)]
pub struct ShardedSearch {
    /// Merged top-k hits, best first.
    pub hits: Vec<ScoredPoint>,
    /// The strategy the shards executed ([`ExecutedStrategy::FilteredHnsw`]
    /// if *any* shard searched its graph — the approximate path dominates
    /// the result's exactness guarantee).
    pub executed: ExecutedStrategy,
    /// Total live points matching the filter, summed over shards.
    pub qualifying: usize,
    /// Candidates each shard contributed to the pre-merge pool (its own
    /// top-k length), aligned with shard index.
    pub per_shard_hits: Vec<usize>,
}

/// One entry of the k-way merge: ordered by score descending, ties by
/// ascending id (so the merge reproduces a flat exact scan over
/// id-ordered insertions).
struct MergeEntry {
    score: f32,
    id: PointId,
    shard: usize,
    pos: usize,
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for MergeEntry {}

impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher score wins; equal scores prefer the lower id.
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Binary-heap k-way merge of per-shard top-k lists (each sorted best
/// first), deduplicating by point id. Returns the merged global top-k
/// plus how many candidates each shard contributed to the pool.
#[must_use]
pub fn merge_top_k(per_shard: &[Vec<ScoredPoint>], k: usize) -> (Vec<ScoredPoint>, Vec<usize>) {
    let contributed: Vec<usize> = per_shard.iter().map(Vec::len).collect();
    let mut heap: BinaryHeap<MergeEntry> = per_shard
        .iter()
        .enumerate()
        .filter_map(|(shard, hits)| {
            hits.first().map(|h| MergeEntry {
                score: h.score,
                id: h.id,
                shard,
                pos: 0,
            })
        })
        .collect();
    let mut seen: HashSet<PointId> = HashSet::with_capacity(k);
    let mut merged = Vec::with_capacity(k);
    while merged.len() < k {
        let Some(top) = heap.pop() else { break };
        // Shards are disjoint by construction, but the merge stays
        // correct for arbitrary (e.g. replicated) inputs: first
        // occurrence wins, duplicates are skipped.
        if seen.insert(top.id) {
            merged.push(ScoredPoint {
                id: top.id,
                score: top.score,
            });
        }
        let next = top.pos + 1;
        if let Some(h) = per_shard[top.shard].get(next) {
            heap.push(MergeEntry {
                score: h.score,
                id: h.id,
                shard: top.shard,
                pos: next,
            });
        }
    }
    (merged, contributed)
}

/// Batched counterpart of [`merge_top_k`]: consumes a `per_shard[s][q]`
/// matrix of per-shard, per-query top-k lists, transposes it by move
/// (no hit cloning), and merges each query's lists. Returns one
/// `(merged top-k, per-shard contribution counts)` pair per query —
/// the one transpose-and-merge every batched sharded backend shares.
#[must_use]
pub fn merge_top_k_batch(
    per_shard: Vec<Vec<Vec<ScoredPoint>>>,
    k: usize,
) -> Vec<(Vec<ScoredPoint>, Vec<usize>)> {
    let shards = per_shard.len();
    let n_queries = per_shard.first().map_or(0, Vec::len);
    let mut by_query: Vec<Vec<Vec<ScoredPoint>>> =
        (0..n_queries).map(|_| Vec::with_capacity(shards)).collect();
    for shard in per_shard {
        debug_assert_eq!(shard.len(), n_queries, "ragged per-shard batch");
        for (q, hits) in shard.into_iter().enumerate() {
            by_query[q].push(hits);
        }
    }
    by_query
        .into_iter()
        .map(|lists| merge_top_k(&lists, k))
        .collect()
}

/// N inner collections behind the same search surface as one
/// [`Collection`]. Writes route by [`shard_of`]; searches fan out over
/// every shard and merge.
///
/// Each shard is an ordinary [`CollectionHandle`], so per-shard readers
/// (e.g. one retrieval backend per shard) can lock and search shards
/// independently — the fan-out itself carries no extra synchronization.
pub struct ShardedCollection {
    config: CollectionConfig,
    shards: Vec<CollectionHandle>,
}

impl ShardedCollection {
    /// An empty sharded collection with `shards` partitions (at least 1).
    #[must_use]
    pub fn new(config: CollectionConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| {
                    CollectionHandle::new(parking_lot::RwLock::new(Collection::new(config.clone())))
                })
                .collect(),
            config,
        }
    }

    /// Re-partitions the live points of an existing collection into
    /// `shards` partitions (per-shard HNSW graphs are rebuilt on
    /// insertion).
    ///
    /// # Errors
    /// Propagates insertion failures (cannot happen for a well-formed
    /// source: ids are unique and vectors already validated).
    pub fn from_collection(source: &Collection, shards: usize) -> Result<Self, VecDbError> {
        let sharded = Self::new(source.config().clone(), shards);
        for (id, vector, payload) in source.iter_points() {
            let shard = &sharded.shards[shard_of(id, sharded.shards.len())];
            shard.write().insert(id, vector.to_vec(), payload.clone())?;
        }
        Ok(sharded)
    }

    /// The shared configuration of every shard.
    #[must_use]
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// Number of shards (≥ 1).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard handles, aligned with shard index. Per-shard consumers
    /// (retrieval backends, rebalancers) build on these.
    #[must_use]
    pub fn shards(&self) -> &[CollectionHandle] {
        &self.shards
    }

    /// The shard a point id routes to.
    #[must_use]
    pub fn shard_of(&self, id: PointId) -> usize {
        shard_of(id, self.shards.len())
    }

    /// Total live points across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Inserts a point into its hash-routed shard.
    ///
    /// # Errors
    /// Same contract as [`Collection::insert`]; id uniqueness is global
    /// because routing is deterministic.
    pub fn insert(
        &self,
        id: PointId,
        vector: Vec<f32>,
        payload: crate::payload::Payload,
    ) -> Result<(), VecDbError> {
        self.shards[self.shard_of(id)]
            .write()
            .insert(id, vector, payload)
    }

    /// Soft-deletes a point from its shard.
    ///
    /// # Errors
    /// [`VecDbError::PointNotFound`] if no live point has this id.
    pub fn delete(&self, id: PointId) -> Result<(), VecDbError> {
        self.shards[self.shard_of(id)].write().delete(id)
    }

    /// Whether a live point with this id exists.
    #[must_use]
    pub fn contains(&self, id: PointId) -> bool {
        self.shards[self.shard_of(id)].read().contains(id)
    }

    /// Ids of all live points matching `filter`, ascending.
    #[must_use]
    pub fn filter_ids(&self, filter: &Filter) -> Vec<PointId> {
        let mut ids: Vec<PointId> = self
            .shards
            .iter()
            .flat_map(|s| s.read().filter_ids(filter))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// k-NN search fanned out over every shard, merged to a global top-k.
    ///
    /// # Errors
    /// Propagates the first shard failure.
    pub fn search(
        &self,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<Vec<ScoredPoint>, VecDbError> {
        self.search_sharded(query, params).map(|s| s.hits)
    }

    /// Like [`ShardedCollection::search`], reporting the merged execution
    /// metadata ([`PlannedSearch`]) with per-shard qualifying counts
    /// summed.
    ///
    /// # Errors
    /// Propagates the first shard failure.
    pub fn search_planned(
        &self,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<PlannedSearch, VecDbError> {
        let s = self.search_sharded(query, params)?;
        Ok(PlannedSearch {
            hits: s.hits,
            executed: s.executed,
            qualifying: s.qualifying,
        })
    }

    /// The fan-out/merge for one query: a one-query
    /// [`ShardedCollection::search_batch_sharded`].
    ///
    /// # Errors
    /// Propagates the first shard failure.
    pub fn search_sharded(
        &self,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<ShardedSearch, VecDbError> {
        let mut answers = self.search_batch_sharded(&[query], params)?;
        Ok(answers.pop().expect("one answer per query"))
    }

    /// The full fan-out/merge: every shard answers the whole slice
    /// through [`Collection::search_batch`] in parallel on the shared
    /// [`crate::pool`] worker pool (one pooled job per shard — a channel
    /// send, not a thread spawn — and one pass over each shard's vectors
    /// for all queries), then each query's per-shard lists heap-merge to
    /// its top-k with per-shard contribution counts. The answer for
    /// query `i` does not depend on the other queries in the slice.
    ///
    /// # Errors
    /// Propagates the first shard failure.
    pub fn search_batch_sharded(
        &self,
        queries: &[&[f32]],
        params: &SearchParams,
    ) -> Result<Vec<ShardedSearch>, VecDbError> {
        // per_shard[s][q]: shard s's planned answer to query q.
        let per_shard: Vec<Vec<PlannedSearch>> = crate::pool::global()
            .run_homed(
                self.shards.len(),
                |i| i,
                |i| self.shards[i].read().search_batch(queries, params),
            )
            .into_iter()
            .collect::<Result<_, _>>()?;
        // Split the plan metadata off per query, then hand the bare hit
        // matrix to the shared move-based transpose-and-merge.
        let mut qualifying = vec![0usize; queries.len()];
        let mut executed = vec![ExecutedStrategy::ExactScan; queries.len()];
        let hit_matrix: Vec<Vec<Vec<ScoredPoint>>> = per_shard
            .into_iter()
            .map(|shard| {
                shard
                    .into_iter()
                    .enumerate()
                    .map(|(q, p)| {
                        qualifying[q] += p.qualifying;
                        if p.executed == ExecutedStrategy::FilteredHnsw {
                            executed[q] = ExecutedStrategy::FilteredHnsw;
                        }
                        p.hits
                    })
                    .collect()
            })
            .collect();
        Ok(merge_top_k_batch(hit_matrix, params.k)
            .into_iter()
            .zip(qualifying.into_iter().zip(executed))
            .map(
                |((hits, per_shard_hits), (qualifying, executed))| ShardedSearch {
                    hits,
                    executed,
                    qualifying,
                    per_shard_hits,
                },
            )
            .collect())
    }

    /// Exact top-k over an explicit candidate list for one query: a
    /// one-query [`ShardedCollection::knn_among_batch`].
    ///
    /// # Errors
    /// [`VecDbError::DimensionMismatch`] on a wrong-length query.
    pub fn knn_among(
        &self,
        query: &[f32],
        ids: &[PointId],
        k: usize,
    ) -> Result<Vec<ScoredPoint>, VecDbError> {
        let mut answers = self.knn_among_batch(&[query], ids, k)?;
        Ok(answers.pop().expect("one answer per query"))
    }

    /// Exact top-k over an explicit candidate list: candidate ids route
    /// to their shards once, each shard scores the whole slice with
    /// [`Collection::knn_among_batch`] on the shared pool, and each
    /// query's per-shard lists merge. Unknown and deleted ids are
    /// skipped.
    ///
    /// # Errors
    /// [`VecDbError::DimensionMismatch`] on a wrong-length query.
    pub fn knn_among_batch(
        &self,
        queries: &[&[f32]],
        ids: &[PointId],
        k: usize,
    ) -> Result<Vec<Vec<ScoredPoint>>, VecDbError> {
        let routed = self.route(ids);
        // per_shard[s][q]: shard s's top-k for query q over its slice.
        let per_shard: Vec<Vec<Vec<ScoredPoint>>> = crate::pool::global()
            .run_homed(
                self.shards.len(),
                |i| i,
                |i| {
                    self.shards[i]
                        .read()
                        .knn_among_batch(queries, &routed[i], k)
                },
            )
            .into_iter()
            .collect::<Result<_, _>>()?;
        Ok(merge_top_k_batch(per_shard, k)
            .into_iter()
            .map(|(hits, _)| hits)
            .collect())
    }

    /// Routes candidate ids to their owning shards, preserving order
    /// within each shard.
    fn route(&self, ids: &[PointId]) -> Vec<Vec<PointId>> {
        let mut routed: Vec<Vec<PointId>> = vec![Vec::new(); self.shards.len()];
        for &id in ids {
            routed[self.shard_of(id)].push(id);
        }
        routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::SearchStrategy;
    use crate::payload::Payload;
    use serde_json::json;

    fn unit(angle: f32) -> Vec<f32> {
        vec![angle.cos(), angle.sin()]
    }

    fn flat_and_sharded(n: usize, shards: usize) -> (Collection, ShardedCollection) {
        let mut flat = Collection::new(CollectionConfig::new(2));
        for i in 0..n {
            let angle = i as f32 * 0.01;
            let payload = Payload::from_pairs(&[
                ("lat", json!(i as f64 * 0.001)),
                ("lon", json!(-(i as f64) * 0.001)),
            ]);
            flat.insert(i as PointId, unit(angle), payload).unwrap();
        }
        let sharded = ShardedCollection::from_collection(&flat, shards).unwrap();
        (flat, sharded)
    }

    #[test]
    fn routing_is_deterministic_and_covers_all_shards() {
        for shards in [1, 2, 4, 8] {
            let hit: std::collections::HashSet<usize> =
                (0..1000u64).map(|id| shard_of(id, shards)).collect();
            assert_eq!(hit.len(), shards, "{shards} shards all populated");
            for id in 0..100u64 {
                assert_eq!(shard_of(id, shards), shard_of(id, shards));
            }
        }
    }

    #[test]
    fn repartition_preserves_membership() {
        let (flat, sharded) = flat_and_sharded(200, 4);
        assert_eq!(sharded.len(), flat.len());
        assert_eq!(sharded.shard_count(), 4);
        for id in 0..200u64 {
            assert!(sharded.contains(id));
        }
        let per_shard: Vec<usize> = sharded.shards().iter().map(|s| s.read().len()).collect();
        assert_eq!(per_shard.iter().sum::<usize>(), 200);
        assert!(per_shard.iter().all(|&n| n > 0), "no empty shard at n=200");
    }

    #[test]
    fn exact_search_matches_flat_collection() {
        let (flat, _) = flat_and_sharded(300, 1);
        for shards in [1, 2, 4, 8] {
            let sharded = ShardedCollection::from_collection(&flat, shards).unwrap();
            let params = SearchParams::top_k(7).with_strategy(SearchStrategy::Exact);
            let q = unit(1.1);
            let expect = flat.search(&q, &params).unwrap();
            let got = sharded.search(&q, &params).unwrap();
            assert_eq!(got, expect, "shards={shards}");
        }
    }

    #[test]
    fn filtered_search_and_filter_ids_match_flat() {
        let (flat, sharded) = flat_and_sharded(400, 4);
        let f = Filter::geo_box(0.0, -0.05, 0.05, 0.0);
        assert_eq!(sharded.filter_ids(&f), flat.filter_ids(&f));
        let params = SearchParams::top_k(5)
            .with_filter(f)
            .with_strategy(SearchStrategy::Exact);
        let q = unit(0.2);
        assert_eq!(
            sharded.search(&q, &params).unwrap(),
            flat.search(&q, &params).unwrap()
        );
    }

    #[test]
    fn duplicate_distance_ties_break_by_ascending_id() {
        // Five identical vectors → five identical scores. The flat exact
        // scan returns them in insertion (= id) order; the sharded merge
        // must reproduce that order across any shard count.
        let mut flat = Collection::new(CollectionConfig::new(2));
        for id in 0..5u64 {
            flat.insert(id, vec![1.0, 0.0], Payload::new()).unwrap();
        }
        let params = SearchParams::top_k(3).with_strategy(SearchStrategy::Exact);
        let expect = flat.search(&[1.0, 0.0], &params).unwrap();
        assert_eq!(
            expect.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        for shards in [1, 2, 4, 8] {
            let sharded = ShardedCollection::from_collection(&flat, shards).unwrap();
            let got = sharded.search(&[1.0, 0.0], &params).unwrap();
            assert_eq!(got, expect, "shards={shards}");
        }
    }

    #[test]
    fn merge_dedups_replicated_inputs() {
        let a = vec![
            ScoredPoint { id: 1, score: 0.9 },
            ScoredPoint { id: 2, score: 0.5 },
        ];
        let b = vec![
            ScoredPoint { id: 1, score: 0.9 },
            ScoredPoint { id: 3, score: 0.7 },
        ];
        let (merged, contributed) = merge_top_k(&[a, b], 10);
        assert_eq!(
            merged.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![1, 3, 2]
        );
        assert_eq!(contributed, vec![2, 2]);
    }

    #[test]
    fn writes_route_and_report_per_shard() {
        let sharded = ShardedCollection::new(CollectionConfig::new(2), 4);
        for id in 0..40u64 {
            sharded
                .insert(id, unit(id as f32 * 0.1), Payload::new())
                .unwrap();
        }
        assert_eq!(sharded.len(), 40);
        sharded.delete(17).unwrap();
        assert!(!sharded.contains(17));
        assert_eq!(sharded.len(), 39);
        assert!(sharded.delete(17).is_err());
        let s = sharded
            .search_sharded(
                &unit(0.5),
                &SearchParams::top_k(5).with_strategy(SearchStrategy::Exact),
            )
            .unwrap();
        assert_eq!(s.hits.len(), 5);
        assert_eq!(s.qualifying, 39);
        assert_eq!(s.per_shard_hits.len(), 4);
        assert!(s.per_shard_hits.iter().sum::<usize>() >= 5);
    }

    #[test]
    fn batched_sharded_search_matches_single_query_path() {
        // A slice of 13 against 13 slices of one, and against the flat
        // collection (itself pinned to `FlatIndex` brute force).
        let (flat, _) = flat_and_sharded(250, 1);
        let owned: Vec<Vec<f32>> = (0..13).map(|i| unit(0.11 * i as f32)).collect();
        let queries: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
        let params = SearchParams::top_k(6).with_strategy(SearchStrategy::Exact);
        for shards in [1, 2, 4] {
            let sharded = ShardedCollection::from_collection(&flat, shards).unwrap();
            let batched = sharded.search_batch_sharded(&queries, &params).unwrap();
            assert_eq!(batched.len(), queries.len());
            for (q, b) in queries.iter().zip(&batched) {
                let single = sharded.search_sharded(q, &params).unwrap();
                assert_eq!(b.hits, single.hits, "shards={shards}");
                assert_eq!(b.qualifying, single.qualifying);
                assert_eq!(b.per_shard_hits, single.per_shard_hits);
                assert_eq!(b.hits, flat.search(q, &params).unwrap());
            }
        }
    }

    #[test]
    fn batched_knn_among_matches_single_query_path() {
        let (flat, sharded) = flat_and_sharded(180, 4);
        let ids: Vec<PointId> = (0..180).step_by(2).collect();
        let owned: Vec<Vec<f32>> = (0..9).map(|i| unit(0.2 * i as f32)).collect();
        let queries: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
        let batched = sharded.knn_among_batch(&queries, &ids, 5).unwrap();
        for (q, b) in queries.iter().zip(&batched) {
            assert_eq!(b, &sharded.knn_among(q, &ids, 5).unwrap());
            assert_eq!(b, &flat.knn_among(q, &ids, 5).unwrap());
        }
    }

    #[test]
    fn knn_among_matches_flat() {
        let (flat, sharded) = flat_and_sharded(150, 4);
        let ids: Vec<PointId> = (0..150).step_by(3).collect();
        let q = unit(0.8);
        assert_eq!(
            sharded.knn_among(&q, &ids, 6).unwrap(),
            flat.knn_among(&q, &ids, 6).unwrap()
        );
        assert!(sharded.knn_among(&[1.0], &ids, 6).is_err());
    }
}
