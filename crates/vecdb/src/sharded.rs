//! Hash partitioning of a collection's id space, and the merge that
//! puts per-partition answers back together.
//!
//! This is the partitioned-collection design of distributed vector
//! stores (Qdrant shards, pgvector partitioned tables): each point lives
//! in exactly one slice chosen by a deterministic hash of its id
//! ([`shard_of`], [`partition`]), every slice answers a query
//! independently, and the per-slice top-k lists are combined by a
//! binary-heap k-way merge that dedups by point id ([`merge_top_k`]).
//! Because the hash is deterministic and slices are disjoint, merging
//! exact per-slice answers returns bit-identical ids and scores to the
//! same search over the one flat [`Collection`] (ties included — the
//! merge breaks equal scores by ascending id, matching the flat exact
//! scan over id-ordered insertions).
//!
//! The crate has one search surface, [`Collection`]'s. A slice lives in
//! a process of its own (`semask-net`'s shard nodes); the router is the
//! one place per-slice answers are merged.

use std::collections::BinaryHeap;
use std::collections::HashSet;

use crate::collection::{Collection, ScoredPoint};
use crate::error::VecDbError;
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

/// The slice of `source` that `spec` owns: every live point with
/// [`ShardSpec::owns`]`(id)`, in the source's insertion order, in a
/// collection of the source's configuration that builds its own HNSW
/// graph on insertion. A shard process calls this once at boot and then
/// drops the source.
///
/// # Errors
/// Propagates insertion failures (cannot happen for a well-formed
/// source: ids are unique and vectors already validated).
pub fn partition(source: &Collection, spec: ShardSpec) -> Result<Collection, VecDbError> {
    let mut slice = Collection::new(source.config().clone());
    for (id, vector, position) in source.iter_points() {
        if spec.owns(id) {
            slice.insert(id, vector.to_vec(), position)?;
        }
    }
    Ok(slice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::{CollectionConfig, SearchParams, SearchStrategy};
    use crate::payload::Filter;

    fn unit(angle: f32) -> Vec<f32> {
        vec![angle.cos(), angle.sin()]
    }

    fn flat(n: usize) -> Collection {
        let mut flat = Collection::new(CollectionConfig::new(2));
        for i in 0..n {
            let angle = i as f32 * 0.01;
            let position = (i as f64 * 0.001, -(i as f64) * 0.001);
            flat.insert(i as PointId, unit(angle), position).unwrap();
        }
        flat
    }

    /// The `shards` slices of `flat`, in shard order.
    fn slices(flat: &Collection, shards: u32) -> Vec<Collection> {
        (0..shards)
            .map(|shard| partition(flat, ShardSpec::new(shards, shard).unwrap()).unwrap())
            .collect()
    }

    /// Every slice's answer to one search, merged — the module's
    /// contract is that this equals the flat collection's answer.
    fn merged_search(
        slices: &[Collection],
        query: &[f32],
        params: &SearchParams,
    ) -> Vec<ScoredPoint> {
        let per_slice: Vec<Vec<ScoredPoint>> = slices
            .iter()
            .map(|s| s.search(query, params).unwrap())
            .collect();
        merge_top_k(&per_slice, params.k).0
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
        let flat = flat(200);
        let slices = slices(&flat, 4);
        for id in 0..200u64 {
            for (i, slice) in slices.iter().enumerate() {
                assert_eq!(slice.contains(id), i == shard_of(id, 4), "id {id}");
            }
            let owner = &slices[shard_of(id, 4)];
            assert_eq!(owner.vector(id).unwrap(), flat.vector(id).unwrap());
        }
        // Each point keeps its position.
        let positions =
            |c: &Collection| -> Vec<_> { c.iter_points().map(|(id, _, p)| (id, p)).collect() };
        let mut cut: Vec<_> = slices.iter().flat_map(positions).collect();
        cut.sort_by_key(|&(id, _)| id);
        assert_eq!(cut, positions(&flat));
        let per_slice: Vec<usize> = slices.iter().map(Collection::len).collect();
        assert_eq!(per_slice.iter().sum::<usize>(), flat.len());
        assert!(per_slice.iter().all(|&n| n > 0), "no empty slice at n=200");
        let whole = partition(&flat, ShardSpec::new(1, 0).unwrap()).unwrap();
        assert_eq!(whole.len(), flat.len(), "one shard owns every point");
    }

    #[test]
    fn exact_search_matches_flat_collection() {
        let flat = flat(300);
        let params = SearchParams::top_k(7).with_strategy(SearchStrategy::Exact);
        let q = unit(1.1);
        let expect = flat.search(&q, &params).unwrap();
        for shards in [1, 2, 4, 8] {
            assert_eq!(
                merged_search(&slices(&flat, shards), &q, &params),
                expect,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn filtered_search_and_filter_ids_match_flat() {
        let flat = flat(400);
        let slices = slices(&flat, 4);
        let f = Filter::geo_box(0.0, -0.05, 0.05, 0.0);
        let mut ids: Vec<PointId> = slices.iter().flat_map(|s| s.filter_ids(&f)).collect();
        ids.sort_unstable();
        assert_eq!(ids, flat.filter_ids(&f));
        let params = SearchParams::top_k(5)
            .with_filter(f)
            .with_strategy(SearchStrategy::Exact);
        let q = unit(0.2);
        assert_eq!(
            merged_search(&slices, &q, &params),
            flat.search(&q, &params).unwrap()
        );
    }

    #[test]
    fn duplicate_distance_ties_break_by_ascending_id() {
        // Five identical vectors → five identical scores. The flat exact
        // scan returns them in insertion (= id) order; the merge must
        // reproduce that order across any slice count.
        let mut flat = Collection::new(CollectionConfig::new(2));
        for id in 0..5u64 {
            flat.insert(id, vec![1.0, 0.0], (0.0, 0.0)).unwrap();
        }
        let params = SearchParams::top_k(3).with_strategy(SearchStrategy::Exact);
        let expect = flat.search(&[1.0, 0.0], &params).unwrap();
        assert_eq!(
            expect.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        for shards in [1, 2, 4, 8] {
            let got = merged_search(&slices(&flat, shards), &[1.0, 0.0], &params);
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
}
