//! How the shared pool schedules a fan-out is an *execution* detail:
//! one backend per `vecdb::partition` slice, run as one pool job each
//! and merged, must return **bit-identical** ids and scores to the flat
//! collection queried one query at a time — across shards {1, 4, 8} ×
//! batch {1, 64}, and on a pathologically skewed partition where one
//! shard owns almost every point (one long index beside seven short
//! ones). The pool's own contract is pinned directly: every index runs
//! exactly once however many fan-outs share the pool and however soon it
//! is dropped, and indices are handed out in ascending order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use semask::backend::CandidateSource;
use semask::RetrievalBackend;
use vecdb::{
    merge_top_k, partition, shard_of, Collection, CollectionConfig, ScoredPoint, SearchParams,
    ShardSpec, WorkerPool,
};

const DIM: usize = 8;

/// Deterministic pseudo-random unit-ish vector, same mix as the vecdb
/// kernel probes: no rand dependency, stable across runs.
fn vector(seed: u64) -> Vec<f32> {
    (0..DIM)
        .map(|j| {
            let mut h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(j as u64 + 1);
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            ((h % 2000) as f32 / 1000.0) - 1.0
        })
        .collect()
}

fn position(id: u64) -> (f64, f64) {
    (0.001 * id as f64, -0.001 * id as f64)
}

/// A flat collection over the given point ids.
fn flat_over(ids: &[u64]) -> Collection {
    let mut flat = Collection::new(CollectionConfig::new(DIM));
    for &id in ids {
        flat.insert(id, vector(id), position(id)).expect("insert");
    }
    flat
}

fn ids_and_scores(hits: &[ScoredPoint]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

/// Every slice's answer to `queries`, one job per slice on the shared
/// pool, merged per query.
fn pooled_fanout(slices: &[RetrievalBackend], queries: &[&[f32]]) -> Vec<Vec<ScoredPoint>> {
    let everywhere = geotext::BoundingBox::new(-90.0, -180.0, 90.0, 180.0).expect("valid range");
    let per_slice = vecdb::pool::global().run(slices.len(), |i| {
        slices[i]
            .knn_in_range(queries, &everywhere, 10, None)
            .expect("slice search")
    });
    (0..queries.len())
        .map(|q| {
            let lists: Vec<Vec<ScoredPoint>> = per_slice.iter().map(|s| s[q].clone()).collect();
            merge_top_k(&lists, 10).0
        })
        .collect()
}

/// The parity harness: for each shard count and batch size, the pooled
/// fan-out over slices must reproduce the flat sequential reference bit
/// for bit, single-query and batched paths alike.
fn assert_parity(ids: &[u64], shard_counts: &[u32], label: &str) {
    let flat = flat_over(ids);
    // Forced-exact search: deterministic scoring, so bit-identity is a
    // hard requirement, not a heuristic coincidence.
    let params = SearchParams::top_k(10).with_exact(true);
    for &batch in &[1usize, 64] {
        let queries: Vec<Vec<f32>> = (0..batch).map(|q| vector(1_000_000 + q as u64)).collect();
        let query_refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let reference: Vec<Vec<(u64, u32)>> = query_refs
            .iter()
            .map(|q| ids_and_scores(&flat.search(q, &params).expect("flat search")))
            .collect();
        assert!(
            reference.iter().any(|r| !r.is_empty()),
            "parity would be vacuous on empty answers ({label})"
        );
        for &shards in shard_counts {
            // Every test point sits inside the fan-out's range, so the
            // backends' geo filter qualifies what the unfiltered flat
            // reference scans.
            let slices: Vec<RetrievalBackend> = (0..shards)
                .map(|shard| {
                    let spec = ShardSpec::new(shards, shard).expect("valid spec");
                    RetrievalBackend::new(
                        CandidateSource::ExactScan,
                        Arc::new(parking_lot::RwLock::new(
                            partition(&flat, spec).expect("partition"),
                        )),
                        Arc::default(),
                    )
                })
                .collect();
            // Single-query fan-out, one query at a time.
            for (q, want) in query_refs.iter().zip(&reference) {
                let got = pooled_fanout(&slices, &[q]);
                assert_eq!(
                    &ids_and_scores(&got[0]),
                    want,
                    "single-query fan-out diverged ({label}, {shards} shards, batch {batch})"
                );
            }
            // Batched fan-out: one pooled job per slice for the whole
            // batch.
            let got = pooled_fanout(&slices, &query_refs);
            assert_eq!(got.len(), batch);
            for (i, (hits, want)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    &ids_and_scores(hits),
                    want,
                    "batched fan-out diverged at query {i} \
                     ({label}, {shards} shards, batch {batch})"
                );
            }
        }
    }
}

#[test]
fn pooled_fanout_matches_flat_sequential_search() {
    let ids: Vec<u64> = (0..400).collect();
    assert_parity(&ids, &[1, 4, 8], "uniform ids");
}

#[test]
fn pathologically_skewed_shard_still_matches() {
    // Build an id population where, at 8 shards, one shard owns ~95% of
    // the points: one slice's job runs far longer than the others while
    // the rest of the pool claims past it — and the merge must still be
    // bit-identical.
    let hot_shard = 0usize;
    let mut ids: Vec<u64> = Vec::new();
    let mut cold = 0usize;
    for id in 0..100_000u64 {
        if shard_of(id, 8) == hot_shard {
            ids.push(id);
        } else if cold < 20 {
            ids.push(id);
            cold += 1;
        }
        if ids.len() >= 400 {
            break;
        }
    }
    let hot = ids
        .iter()
        .filter(|&&id| shard_of(id, 8) == hot_shard)
        .count();
    assert!(
        hot >= ids.len() * 9 / 10,
        "the skew premise holds: {hot}/{} ids on shard {hot_shard}",
        ids.len()
    );
    assert_parity(&ids, &[1, 4, 8], "skewed ids");
}

/// The cursor hands indices out in ascending order: when index `i`
/// starts, every index below it has been claimed. A claim is not visible
/// from inside the job, but each thread records the index it claimed
/// before it claims another, so an index below `i` that is not recorded
/// yet is held by another thread between its claim and its record — at
/// most one such index per other participant (every worker, plus the
/// submitter, less the thread recording `i`).
#[test]
fn indices_are_claimed_in_ascending_order() {
    const N: usize = 64;
    for workers in 1..=4 {
        let pool = WorkerPool::new(workers);
        for _ in 0..50 {
            let claims = Mutex::new(Vec::with_capacity(N));
            pool.run(N, |i| {
                claims.lock().expect("claim log").push(i);
                // A little work per index, so every participant claims.
                std::hint::black_box((0..200).sum::<usize>());
            });
            let claims = claims.into_inner().expect("claim log");
            let mut recorded = [false; N];
            for &i in &claims {
                let unrecorded_below = recorded[..i].iter().filter(|&&seen| !seen).count();
                assert!(
                    unrecorded_below <= workers,
                    "index {i} started with {unrecorded_below} lower indices unclaimed \
                     ({workers} workers): {claims:?}"
                );
                recorded[i] = true;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Back-to-back fan-outs of mixed sizes (0, 1 and inline included)
    /// from one client on one pool: each runs every index exactly once
    /// and returns its results in index order, while a worker may still
    /// hold the previous record, reading its spent cursor, as the next
    /// one is published.
    #[test]
    fn back_to_back_fanouts_run_every_index_exactly_once(
        workers in 1usize..5,
        sizes in proptest::collection::vec(0usize..49, 1..8),
    ) {
        let pool = WorkerPool::new(workers);
        for (f, &jobs) in sizes.iter().enumerate() {
            let counts: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
            let results = pool.run(jobs, |i| {
                counts[i].fetch_add(1, Ordering::SeqCst);
                i
            });
            prop_assert_eq!(results, (0..jobs).collect::<Vec<_>>(), "fan-out {}", f);
            for (i, count) in counts.iter().enumerate() {
                prop_assert_eq!(count.load(Ordering::SeqCst), 1, "fan-out {} job {}", f, i);
            }
        }
    }

    /// Concurrent fan-outs from several client threads on one shared
    /// pool, then shutdown: every client's indices run exactly once
    /// while the pool's threads move between their records, and
    /// dropping the pool right afterwards never loses or re-runs one.
    #[test]
    fn concurrent_fanouts_survive_shutdown_exactly_once(
        workers in 1usize..5,
        jobs in 0usize..49,
        clients in 1usize..4,
    ) {
        let pool = Arc::new(WorkerPool::new(workers));
        let counts: Vec<Vec<AtomicUsize>> = (0..clients)
            .map(|_| (0..jobs).map(|_| AtomicUsize::new(0)).collect())
            .collect();
        std::thread::scope(|scope| {
            for c in 0..clients {
                let pool = Arc::clone(&pool);
                let counts = &counts;
                scope.spawn(move || {
                    pool.run(jobs, |i| {
                        counts[c][i].fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
        });
        drop(pool);
        for (c, client) in counts.iter().enumerate() {
            for (i, count) in client.iter().enumerate() {
                prop_assert_eq!(count.load(Ordering::SeqCst), 1, "client {} job {}", c, i);
            }
        }
    }
}
