//! The one executor of the filtering stage: a candidate source over N
//! collection slices. Unsharded is N = 1.
//!
//! The paper's filtering step — top-k by embedding similarity among the
//! objects inside the query range — runs four ways ([`CandidateSource`]):
//! an exact scan or a filtered HNSW search of the collection itself, or
//! exact scoring of the candidates a uniform grid or an IR-tree finds in
//! the range. [`RetrievalBackend`] executes all four the same way over
//! the `slices` it was built on — the whole collection, or the disjoint
//! hash partitions of [`vecdb::partition`]: *generate candidates once →
//! run one job per slice → merge*.
//!
//! - Candidate-generation indexes stay global. An index source is
//!   queried **once** per query group, live-inserted [`SidePoints`] in
//!   range are appended, and the ids are routed to their owning slices
//!   with [`vecdb::shard_of`] — so no per-slice spatial index is built,
//!   no slice sees a foreign id, and lookup work stays O(candidates) at
//!   any N. Scan sources need no candidates: each slice filters itself.
//! - The per-slice job is the only scoring body.
//!   [`RetrievalBackend::knn_in_range_shard`] *is* job `i`, so merging
//!   every slice's answer with [`vecdb::merge_top_k`] reproduces
//!   [`RetrievalBackend::knn_in_range`] by construction — the seam a
//!   cross-process shard server executes.
//! - With one slice the job runs inline on the caller's thread: no pool
//!   dispatch, no hashing, no merge, no per-shard bookkeeping. With more,
//!   the slices fan out on the shared pool ([`vecdb::pool::global`]) and
//!   the per-slice top-k lists combine through
//!   [`vecdb::merge_top_k_batch`]'s k-way merge.

use std::sync::Arc;
use std::time::Instant;

use geotext::{BoundingBox, ObjectId};
use spatial::{GridIndex, IrTree, SpatialKeywordQuery};
use vecdb::{
    merge_top_k_batch, shard_of, CollectionHandle, Filter, ScoredPoint, SearchParams,
    SearchStrategy,
};

use crate::retrieval::{KnnAnswers, RetrievalError, RetrievalStrategy, SidePoints};

/// Where a strategy's candidates come from.
pub enum CandidateSource {
    /// Every point of the collection inside the range, scored exactly.
    ExactScan,
    /// The collection's HNSW graph, searched under a geo filter mask.
    FilteredHnsw,
    /// A uniform grid narrows candidates in O(cells); they are then
    /// scored exactly.
    Grid(Arc<GridIndex>),
    /// The spatial keyword index (Li et al., TKDE 2011); with an empty
    /// keyword set its traversal is an R-tree range query.
    IrTree(Arc<IrTree>),
}

fn geo_filter(range: &BoundingBox) -> Filter {
    Filter::geo_box(range.min_lat, range.min_lon, range.max_lat, range.max_lon)
}

/// One strategy of the filtering stage, executable over one or many
/// collection slices (see the module docs).
///
/// **The one contract of [`RetrievalBackend::knn_in_range`]:** the answer
/// for query `i` — ids, scores, tie order, per-shard counts — does not
/// depend on the other queries in the slice. Sharing work across the
/// slice (one candidate generation, one geo-mask evaluation, one pass
/// over stored vectors via the [`vecdb::Distance::score_batch`] kernel)
/// is an execution detail, never a semantics change; a single query is a
/// slice of one.
pub struct RetrievalBackend {
    source: CandidateSource,
    slices: Vec<CollectionHandle>,
    side: Arc<SidePoints>,
}

impl RetrievalBackend {
    /// A backend scoring `source`'s candidates against `slices`: the one
    /// whole collection, or every partition of [`vecdb::partition`] in
    /// shard order. Index sources additionally see the live-inserted
    /// points of `side`, which their frozen index cannot.
    ///
    /// # Panics
    /// If `slices` is empty.
    #[must_use]
    pub fn new(
        source: CandidateSource,
        slices: Vec<CollectionHandle>,
        side: Arc<SidePoints>,
    ) -> Self {
        assert!(!slices.is_empty(), "a backend needs >= 1 collection slice");
        Self {
            source,
            slices,
            side,
        }
    }

    /// Which strategy this backend implements.
    #[must_use]
    pub fn strategy(&self) -> RetrievalStrategy {
        match self.source {
            CandidateSource::ExactScan => RetrievalStrategy::ExactScan,
            CandidateSource::FilteredHnsw => RetrievalStrategy::FilteredHnsw,
            CandidateSource::Grid(_) => RetrievalStrategy::GridPrefilter,
            CandidateSource::IrTree(_) => RetrievalStrategy::IrTree,
        }
    }

    /// An index source's candidates in `range` — index hits, then live
    /// side points — as the id list each slice scores; `None` for the
    /// scan sources, whose slices filter themselves. One slice takes the
    /// whole list unhashed.
    fn routed_candidates(&self, range: &BoundingBox) -> Option<Vec<Vec<u64>>> {
        let mut candidates = match &self.source {
            CandidateSource::ExactScan | CandidateSource::FilteredHnsw => return None,
            CandidateSource::Grid(grid) => grid.range_query(range),
            CandidateSource::IrTree(tree) => tree.search(&SpatialKeywordQuery {
                range: *range,
                keywords: String::new(),
            }),
        };
        candidates.extend(self.side.ids_in_range(range));
        let ids = candidates.into_iter().map(|id| u64::from(id.0));
        let n = self.slices.len();
        if n == 1 {
            return Some(vec![ids.collect()]);
        }
        let mut routed = vec![Vec::new(); n];
        for id in ids {
            routed[shard_of(id, n)].push(id);
        }
        Some(routed)
    }

    /// The scoring body: slice `i`'s top-k for every query vector — over
    /// its share of `routed` (index sources), or over its own points in
    /// `range` (scan sources; one geo-mask evaluation for the whole
    /// slice of queries inside [`vecdb::Collection::search_batch`]).
    fn score_slice(
        &self,
        i: usize,
        routed: Option<&[Vec<u64>]>,
        query_vecs: &[&[f32]],
        range: &BoundingBox,
        k: usize,
        ef: Option<usize>,
    ) -> Result<Vec<Vec<ScoredPoint>>, RetrievalError> {
        let slice = self.slices[i].read();
        if let Some(routed) = routed {
            return Ok(slice.knn_among_batch(query_vecs, &routed[i], k)?);
        }
        let params = SearchParams {
            k,
            ef,
            filter: Some(geo_filter(range)),
            strategy: match self.source {
                CandidateSource::FilteredHnsw => SearchStrategy::Hnsw,
                _ => SearchStrategy::Exact,
            },
        };
        let planned = slice.search_batch(query_vecs, &params)?;
        Ok(planned.into_iter().map(|p| p.hits).collect())
    }

    /// Runs `job(i)` for every slice and collects the results in slice
    /// order. One slice runs inline and reports no timings. More run on
    /// the shared worker pool — the pool's threads claim slices in
    /// order, so a long slice holds up only the thread that took it —
    /// with each job's execution time in microseconds (the job body
    /// only — queueing and merge excluded, so the number tracks the
    /// slice's own work and can feed the per-shard cost scales).
    fn fan_out<T, F>(&self, job: F) -> Result<(Vec<T>, Vec<f64>), RetrievalError>
    where
        T: Send,
        F: Fn(usize) -> Result<T, RetrievalError> + Sync,
    {
        let n = self.slices.len();
        if n == 1 {
            return Ok((vec![job(0)?], Vec::new()));
        }
        let timed: Vec<(Result<T, RetrievalError>, f64)> = vecdb::pool::global().run(n, |i| {
            let t0 = Instant::now();
            let result = job(i);
            (result, t0.elapsed().as_secs_f64() * 1e6)
        });
        let mut values = Vec::with_capacity(n);
        let mut timings = Vec::with_capacity(n);
        for (result, us) in timed {
            values.push(result?);
            timings.push(us);
        }
        Ok((values, timings))
    }

    /// For every vector of `query_vecs`: the top-k objects by embedding
    /// similarity within `range`, best first, plus per-shard counts and
    /// timings when there is more than one slice (see [`KnnAnswers`]).
    ///
    /// # Errors
    /// [`RetrievalError::VecDb`] on store errors.
    pub fn knn_in_range(
        &self,
        query_vecs: &[&[f32]],
        range: &BoundingBox,
        k: usize,
        ef: Option<usize>,
    ) -> Result<KnnAnswers, RetrievalError> {
        let routed = self.routed_candidates(range);
        let (mut per_slice, shard_us) =
            self.fan_out(|i| self.score_slice(i, routed.as_deref(), query_vecs, range, k, ef))?;
        if per_slice.len() == 1 {
            return Ok(KnnAnswers::unsharded(per_slice.pop().expect("one slice")));
        }
        Ok(KnnAnswers {
            per_query: merge_top_k_batch(per_slice, k),
            shard_us,
        })
    }

    /// Slice `shard`'s contribution to [`RetrievalBackend::knn_in_range`]
    /// for one query: exactly the list that slice's job hands the merge
    /// (index candidates are deterministic, so a remote executor
    /// regenerates the same list, routes it, and scores only its own
    /// share). With one slice, slice 0 is the whole answer.
    ///
    /// # Errors
    /// [`RetrievalError::NoSuchShard`] when `shard` is not a slice of this
    /// backend; otherwise as [`RetrievalBackend::knn_in_range`].
    pub fn knn_in_range_shard(
        &self,
        shard: usize,
        query_vec: &[f32],
        range: &BoundingBox,
        k: usize,
        ef: Option<usize>,
    ) -> Result<Vec<ScoredPoint>, RetrievalError> {
        if shard >= self.slices.len() {
            return Err(RetrievalError::NoSuchShard {
                shard,
                shards: self.slices.len(),
            });
        }
        let routed = self.routed_candidates(range);
        let mut hits = self.score_slice(shard, routed.as_deref(), &[query_vec], range, k, ef)?;
        Ok(hits.pop().expect("one answer per query"))
    }

    /// Ids of all live objects within `range`, ascending — the pure
    /// spatial filter keyword-filtered queries intersect with.
    ///
    /// # Errors
    /// [`RetrievalError::VecDb`] on store errors.
    pub fn filter_range(&self, range: &BoundingBox) -> Result<Vec<ObjectId>, RetrievalError> {
        let mut ids: Vec<u64> = match self.routed_candidates(range) {
            // Only drop candidates deleted since the index was built;
            // membership checks are hash lookups — not worth a pool job
            // per slice.
            Some(mut routed) => {
                for (slice, ids) in self.slices.iter().zip(&mut routed) {
                    let guard = slice.read();
                    ids.retain(|&id| guard.contains(id));
                }
                routed.into_iter().flatten().collect()
            }
            // The graph accelerates similarity search, not pure range
            // filters: both scan sources answer with a payload scan.
            None => {
                let filter = geo_filter(range);
                let (per_slice, _) =
                    self.fan_out(|i| Ok(self.slices[i].read().filter_ids(&filter)))?;
                per_slice.into_iter().flatten().collect()
            }
        };
        ids.sort_unstable();
        Ok(ids.into_iter().map(|id| ObjectId(id as u32)).collect())
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
    fn a_shard_the_planner_does_not_have_is_an_error() {
        for shards in [1, 4] {
            let p = prepared_with_shards(shards);
            let qv = p.embedder.embed("ramen with a long line");
            let range = geotext::BoundingBox::from_center_km(p.city.center(), 8.0, 8.0);
            for strategy in [
                RetrievalStrategy::ExactScan,
                RetrievalStrategy::FilteredHnsw,
                RetrievalStrategy::GridPrefilter,
                RetrievalStrategy::IrTree,
            ] {
                let slice = |shard| {
                    p.planner
                        .execute_shard_slice(strategy, &qv, &range, 10, None, shard)
                };
                assert!(slice(shards - 1).is_ok(), "{strategy}, {shards} shards");
                assert!(
                    matches!(
                        slice(shards),
                        Err(RetrievalError::NoSuchShard { shard, shards: have })
                            if shard == shards && have == shards
                    ),
                    "{strategy}, {shards} shards"
                );
            }
        }
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
