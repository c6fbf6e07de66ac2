//! Shard-pinned, work-stealing execution is an *execution* detail:
//! fan-outs with shard-home affinity (and core binding on the global
//! pool) must return **bit-identical** ids and scores to the flat
//! collection queried one query at a time — across shards {1, 4, 8} ×
//! batch {1, 64}, and on a
//! pathologically skewed partition where one shard owns almost every
//! point (so the stealing path, not just the pinned path, does the
//! work). A property test pins the pool's core invariant directly:
//! however jobs are homed and stolen, every job runs exactly once, and
//! dropping the pool (shutdown) never drops or double-runs one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use semask::sharded::CandidateSource;
use semask::RetrievalBackend;
use vecdb::{
    partition, shard_of, Collection, CollectionConfig, Payload, ScoredPoint, SearchParams,
    WorkerPool,
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

fn payload(id: u64) -> Payload {
    Payload::from_pairs(&[
        ("lat", serde_json::json!(0.001 * id as f64)),
        ("lon", serde_json::json!(-0.001 * id as f64)),
    ])
}

/// A flat collection over the given point ids.
fn flat_over(ids: &[u64]) -> Collection {
    let mut flat = Collection::new(CollectionConfig::new(DIM));
    for &id in ids {
        flat.insert(id, vector(id), payload(id)).expect("insert");
    }
    flat
}

fn ids_and_scores(hits: &[ScoredPoint]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

/// The parity harness: for each shard count and batch size, the pooled
/// sharded fan-out must reproduce the flat sequential reference bit for
/// bit, single-query and batched paths alike.
fn assert_parity(ids: &[u64], shard_counts: &[usize], label: &str) {
    let flat = flat_over(ids);
    // Forced-exact search: deterministic scoring, so bit-identity is a
    // hard requirement, not a heuristic coincidence.
    let params = SearchParams::top_k(10).with_exact(true);
    // Every test point sits inside this range, so the backend's geo
    // filter qualifies what the unfiltered flat reference scans.
    let everywhere = geotext::BoundingBox::new(-90.0, -180.0, 90.0, 180.0).expect("valid range");
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
            let sharded = RetrievalBackend::new(
                CandidateSource::ExactScan,
                partition(&flat, shards).expect("partition"),
                Arc::default(),
            );
            // Single-query fan-out, one query at a time.
            for (q, want) in query_refs.iter().zip(&reference) {
                let got = sharded
                    .knn_in_range(&[q], &everywhere, 10, None)
                    .expect("sharded search");
                assert_eq!(
                    &ids_and_scores(&got.into_only_hits()),
                    want,
                    "single-query fan-out diverged ({label}, {shards} shards, batch {batch})"
                );
            }
            // Batched fan-out: one pooled job per shard for the whole
            // batch.
            let got = sharded
                .knn_in_range(&query_refs, &everywhere, 10, None)
                .expect("sharded batch")
                .per_query;
            assert_eq!(got.len(), batch);
            for (i, ((hits, _), want)) in got.iter().zip(&reference).enumerate() {
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
fn pinned_fanout_matches_flat_sequential_search() {
    let ids: Vec<u64> = (0..400).collect();
    assert_parity(&ids, &[1, 4, 8], "uniform ids");
}

#[test]
fn pathologically_skewed_shard_still_matches() {
    // Build an id population where, at 8 shards, one shard owns ~95% of
    // the points: the home worker of that shard cannot finish alone, so
    // correctness here rides on idle workers *stealing* its queued
    // batch work — and the merge must still be bit-identical.
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

#[test]
fn all_jobs_homed_on_one_worker_run_exactly_once() {
    // Directly exercise the pinned+stolen deque path: every job homed
    // on worker 0 of a 4-worker pool; stealing must spread them without
    // dropping or duplicating any.
    let pool = WorkerPool::new(4);
    let counts: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
    pool.run_homed(
        counts.len(),
        |_| 0,
        |i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        },
    );
    for (i, c) in counts.iter().enumerate() {
        assert_eq!(c.load(Ordering::SeqCst), 1, "job {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the worker count, job count, and (possibly constant,
    /// possibly striped) home mapping, `run_homed` runs every job
    /// exactly once — and dropping the pool immediately afterwards
    /// (shutdown with stealing possibly mid-flight on other deques)
    /// never loses or re-runs one.
    #[test]
    fn stealing_never_drops_or_double_runs(
        workers in 1usize..5,
        jobs in 0usize..48,
        stripe in 1usize..7,
        constant_home in 0usize..8,
        use_constant in 0usize..2,
    ) {
        let pool = WorkerPool::new(workers);
        let counts: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
        pool.run_homed(jobs, |i| {
            if use_constant == 1 { constant_home } else { i / stripe }
        }, |i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        drop(pool);
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::SeqCst), 1, "job {}", i);
        }
    }

    /// Concurrent fan-outs from several client threads on one shared
    /// pool, then shutdown: the reservation protocol keeps every
    /// client's jobs exactly-once even while their deques steal from
    /// each other.
    #[test]
    fn concurrent_fanouts_survive_shutdown_exactly_once(
        workers in 1usize..4,
        jobs in 1usize..32,
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
                    pool.run_homed(jobs, |i| i % 2, |i| {
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
