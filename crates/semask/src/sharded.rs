//! Sharded execution of the filtering stage: one [`RetrievalBackend`]
//! per shard, fanned out in parallel and merged.
//!
//! [`ShardedBackend`] is the scale-out seam promised by the retrieval
//! refactor: it wraps N inner backends — one per shard of a
//! [`vecdb::ShardedCollection`] — and implements the same
//! [`RetrievalBackend`] trait, so `SemaSkEngine`, `PreparedCity`, and the
//! baselines run unchanged on sharded data. The fan-out executes on the
//! persistent shared worker pool ([`vecdb::pool::global`]): dispatching
//! a shard's work costs a channel send on long-lived threads, not an OS
//! thread spawn per shard per query as the earlier scoped-thread version
//! did. The per-shard top-k lists combine through
//! [`vecdb::merge_top_k_batch`]'s binary-heap k-way merge with id dedup.
//!
//! Candidate-generation indexes (the grid, the IR-tree) stay global.
//! [`ShardedPrefilterBackend`] queries the shared index **once** per
//! query, routes the candidate ids to their owning shards with
//! [`vecdb::shard_of`], and hands each shard only its slice to score —
//! so no per-shard spatial index is built, no shard ever sees a foreign
//! id, and every point is scored exactly once across the fleet.

use std::sync::Arc;

use geotext::{BoundingBox, ObjectId};
use spatial::{GridIndex, IrTree, SpatialKeywordQuery};
use vecdb::{merge_top_k_batch, shard_of, CollectionHandle, ScoredPoint};

use crate::retrieval::{KnnAnswers, RetrievalBackend, RetrievalError, RetrievalStrategy};

/// Runs `f(shard_index)` for each of `n` shards on the shared worker
/// pool and collects the results in shard order, with each shard's
/// execution time in microseconds (the job body only — queueing and
/// merge excluded, so the number tracks the shard's own work and can
/// feed the per-shard cost scales) — the one fan-out primitive every
/// sharded backend shares (so pool policy changes in exactly one place).
/// Shard `i` is enqueued on its *home worker* (`run_homed` with the
/// shard index as the home), so the same worker — and, when the pool is
/// core-bound, the same core — scores the same shard on every fan-out;
/// idle workers steal if a shard runs long.
fn fan_out<T, F>(n: usize, f: F) -> Result<(Vec<T>, Vec<f64>), RetrievalError>
where
    T: Send,
    F: Fn(usize) -> Result<T, RetrievalError> + Sync,
{
    let timed: Vec<(Result<T, RetrievalError>, f64)> = vecdb::pool::global().run_homed(
        n,
        |i| i,
        |i| {
            let t0 = std::time::Instant::now();
            let result = f(i);
            (result, t0.elapsed().as_secs_f64() * 1e6)
        },
    );
    let mut values = Vec::with_capacity(n);
    let mut timings = Vec::with_capacity(n);
    for (result, us) in timed {
        values.push(result?);
        timings.push(us);
    }
    Ok((values, timings))
}

/// N per-shard backends of one strategy behind the single-backend trait.
pub struct ShardedBackend {
    strategy: RetrievalStrategy,
    shards: Vec<Box<dyn RetrievalBackend>>,
}

impl ShardedBackend {
    /// Wraps per-shard backends (all implementing `strategy`).
    ///
    /// # Panics
    /// If `shards` is empty.
    #[must_use]
    pub fn new(strategy: RetrievalStrategy, shards: Vec<Box<dyn RetrievalBackend>>) -> Self {
        assert!(!shards.is_empty(), "a sharded backend needs >= 1 shard");
        Self { strategy, shards }
    }

    /// Number of shards the fan-out covers.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl RetrievalBackend for ShardedBackend {
    fn strategy(&self) -> RetrievalStrategy {
        self.strategy
    }

    fn knn_in_range(
        &self,
        query_vecs: &[&[f32]],
        range: &BoundingBox,
        k: usize,
        ef: Option<usize>,
    ) -> Result<KnnAnswers, RetrievalError> {
        // One pooled job per shard answers the whole slice (each inner
        // backend shares work across it), then each query's per-shard
        // lists merge.
        let (per_shard, shard_us) = fan_out(self.shards.len(), |i| {
            let inner = self.shards[i].knn_in_range(query_vecs, range, k, ef)?;
            Ok(inner.per_query.into_iter().map(|(hits, _)| hits).collect())
        })?;
        Ok(KnnAnswers {
            per_query: merge_top_k_batch(per_shard, k),
            shard_us,
        })
    }

    fn filter_range(&self, range: &BoundingBox) -> Result<Vec<ObjectId>, RetrievalError> {
        let (per_shard, _) = fan_out(self.shards.len(), |i| self.shards[i].filter_range(range))?;
        let mut ids: Vec<ObjectId> = per_shard.into_iter().flatten().collect();
        ids.sort_unstable();
        ids.dedup();
        Ok(ids)
    }

    fn knn_in_range_shard(
        &self,
        shard: usize,
        query_vec: &[f32],
        range: &BoundingBox,
        k: usize,
        ef: Option<usize>,
    ) -> Result<Vec<ScoredPoint>, RetrievalError> {
        // One shard's contribution to the pre-merge pool: exactly what
        // `knn_in_range` hands the merge for this index.
        match self.shards.get(shard) {
            Some(backend) => backend
                .knn_in_range(&[query_vec], range, k, ef)
                .map(KnnAnswers::into_only_hits),
            None => Ok(Vec::new()),
        }
    }
}

/// The shared candidate-generation index of a prefilter strategy.
enum PrefilterIndex {
    /// Uniform grid (the [`RetrievalStrategy::GridPrefilter`] path).
    Grid(Arc<GridIndex>),
    /// IR-tree with an empty keyword set (the
    /// [`RetrievalStrategy::IrTree`] path).
    IrTree(Arc<IrTree>),
}

impl PrefilterIndex {
    fn candidates(&self, range: &BoundingBox) -> Vec<ObjectId> {
        match self {
            PrefilterIndex::Grid(g) => g.range_query(range),
            PrefilterIndex::IrTree(t) => t.search(&SpatialKeywordQuery {
                range: *range,
                keywords: String::new(),
            }),
        }
    }
}

/// Sharded execution of the prefilter strategies (grid, IR-tree): one
/// global candidate-index query, ids routed to their owning shards, and
/// parallel per-shard exact scoring over disjoint slices.
///
/// The generic [`ShardedBackend`] would hand the *full* candidate list
/// to every shard (each skipping foreign ids — O(candidates x shards)
/// lookup work); this backend pre-routes with [`vecdb::shard_of`] so
/// the total lookup work stays O(candidates) at any shard count.
pub struct ShardedPrefilterBackend {
    index: PrefilterIndex,
    shards: Vec<CollectionHandle>,
}

impl ShardedPrefilterBackend {
    /// A sharded grid-prefilter backend over a shared grid.
    ///
    /// # Panics
    /// If `shards` is empty.
    #[must_use]
    pub fn grid(grid: Arc<GridIndex>, shards: Vec<CollectionHandle>) -> Self {
        assert!(!shards.is_empty(), "a sharded backend needs >= 1 shard");
        Self {
            index: PrefilterIndex::Grid(grid),
            shards,
        }
    }

    /// A sharded IR-tree backend over a shared tree.
    ///
    /// # Panics
    /// If `shards` is empty.
    #[must_use]
    pub fn irtree(tree: Arc<IrTree>, shards: Vec<CollectionHandle>) -> Self {
        assert!(!shards.is_empty(), "a sharded backend needs >= 1 shard");
        Self {
            index: PrefilterIndex::IrTree(tree),
            shards,
        }
    }

    /// Number of shards the fan-out covers.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Routes candidate ids to their owning shards.
    fn route(&self, candidates: &[ObjectId]) -> Vec<Vec<u64>> {
        let n = self.shards.len();
        let mut routed: Vec<Vec<u64>> = vec![Vec::new(); n];
        for id in candidates {
            let id = u64::from(id.0);
            routed[shard_of(id, n)].push(id);
        }
        routed
    }
}

impl RetrievalBackend for ShardedPrefilterBackend {
    fn strategy(&self) -> RetrievalStrategy {
        match self.index {
            PrefilterIndex::Grid(_) => RetrievalStrategy::GridPrefilter,
            PrefilterIndex::IrTree(_) => RetrievalStrategy::IrTree,
        }
    }

    fn knn_in_range(
        &self,
        query_vecs: &[&[f32]],
        range: &BoundingBox,
        k: usize,
        _ef: Option<usize>,
    ) -> Result<KnnAnswers, RetrievalError> {
        // Candidate generation and shard routing happen once for the
        // whole slice; each shard then streams its candidate vectors
        // through the scoring kernel in one pooled job.
        let routed = self.route(&self.index.candidates(range));
        let (per_shard, shard_us) = fan_out(self.shards.len(), |i| {
            Ok(self.shards[i]
                .read()
                .knn_among_batch(query_vecs, &routed[i], k)?)
        })?;
        Ok(KnnAnswers {
            per_query: merge_top_k_batch(per_shard, k),
            shard_us,
        })
    }

    fn knn_in_range_shard(
        &self,
        shard: usize,
        query_vec: &[f32],
        range: &BoundingBox,
        k: usize,
        _ef: Option<usize>,
    ) -> Result<Vec<ScoredPoint>, RetrievalError> {
        // The candidate index is global and deterministic, so a remote
        // executor regenerates the same candidate list, routes it, and
        // scores only its own slice.
        let Some(handle) = self.shards.get(shard) else {
            return Ok(Vec::new());
        };
        let routed = self.route(&self.index.candidates(range));
        Ok(handle.read().knn_among(query_vec, &routed[shard], k)?)
    }

    fn filter_range(&self, range: &BoundingBox) -> Result<Vec<ObjectId>, RetrievalError> {
        // Membership checks are hash lookups — not worth a thread per
        // shard; only drop candidates deleted since the index was built.
        let routed = self.route(&self.index.candidates(range));
        let mut ids: Vec<ObjectId> = Vec::new();
        for (shard, shard_ids) in self.shards.iter().zip(&routed) {
            let guard = shard.read();
            ids.extend(
                shard_ids
                    .iter()
                    .filter(|&&id| guard.contains(id))
                    .map(|&id| ObjectId(id as u32)),
            );
        }
        ids.sort_unstable();
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SemaSkConfig;
    use crate::prep::prepare_city;
    use crate::retrieval::PlannerConfig;
    use datagen::{poi::generate_city, CITIES};
    use embed::Embedder;

    fn prepared_with_shards(shards: usize) -> crate::prep::PreparedCity {
        let data = generate_city(&CITIES[2], 220, 33);
        let llm = llm::SimLlm::new();
        let config = SemaSkConfig {
            planner: PlannerConfig {
                shards,
                ..PlannerConfig::default()
            },
            ..SemaSkConfig::default()
        };
        prepare_city(&data, &llm, &config).unwrap()
    }

    #[test]
    fn sharded_planner_reports_shard_count() {
        let p = prepared_with_shards(4);
        assert_eq!(p.planner.shard_count(), 4);
        let unsharded = prepared_with_shards(1);
        assert_eq!(unsharded.planner.shard_count(), 1);
    }

    #[test]
    fn sharded_retrieve_reports_per_shard_candidates() {
        let p = prepared_with_shards(4);
        let qv = p.embedder.embed("ramen with a long line");
        let range = geotext::BoundingBox::from_center_km(p.city.center(), 8.0, 8.0);
        let planned = p
            .planner
            .retrieve_keyword(&qv, &range, None, 10, None)
            .unwrap();
        assert_eq!(planned.shard_candidates.len(), 4);
        assert!(!planned.hits.is_empty());
        assert!(planned.shard_candidates.iter().sum::<usize>() >= planned.hits.len());
    }

    #[test]
    fn unsharded_retrieve_reports_no_shards() {
        let p = prepared_with_shards(1);
        let qv = p.embedder.embed("ramen with a long line");
        let range = geotext::BoundingBox::from_center_km(p.city.center(), 8.0, 8.0);
        let planned = p
            .planner
            .retrieve_keyword(&qv, &range, None, 10, None)
            .unwrap();
        assert!(planned.shard_candidates.is_empty());
    }

    #[test]
    fn sharded_filter_range_is_the_union_of_shards() {
        let p1 = prepared_with_shards(1);
        let p4 = prepared_with_shards(4);
        let range = geotext::BoundingBox::from_center_km(p1.city.center(), 6.0, 6.0);
        for strategy in [
            RetrievalStrategy::ExactScan,
            RetrievalStrategy::GridPrefilter,
            RetrievalStrategy::IrTree,
        ] {
            let expect = p1.planner.backend(strategy).filter_range(&range).unwrap();
            let got = p4.planner.backend(strategy).filter_range(&range).unwrap();
            assert_eq!(got, expect, "strategy {strategy}");
        }
    }
}
