//! Serving counters.
//!
//! Lock-free atomics bumped on the submit and flush paths, snapshotted
//! on demand. The counters are the observable half of the backpressure
//! story: `shed` growing means the admission queue is refusing work.
//! A batch is whatever queued while the executor was busy, so
//! `mean_batch_size` reads as *load*, not as a quality to maximise:
//! near 1 the executor is keeping up with arrivals one by one, and
//! approaching the cap the server is saturated and running cap-sized
//! flushes back to back. `mean_queue_wait` is, likewise, the time a
//! query spent waiting for the executor to come free — nothing else
//! holds a query in the queue.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Live counters, shared between the submit path, the batcher thread,
/// and metric readers.
#[derive(Debug, Default)]
pub(crate) struct ServeMetrics {
    accepted: AtomicU64,
    shed: AtomicU64,
    served: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    groups: AtomicU64,
    panicked_batches: AtomicU64,
    max_batch: AtomicU64,
    queue_wait_ns: AtomicU64,
    /// Planner cost-model observability: cumulative predicted vs
    /// measured filtering time — a drifting ratio means the model is
    /// misrouting.
    predicted_filter_ns: AtomicU64,
    actual_filter_ns: AtomicU64,
    /// Result-cache observability: admission-time hits/misses, entries
    /// dropped because a mutation epoch moved past them, outcomes
    /// written back after flushes, and queries answered empty by the
    /// negative (provably-empty keyword) cache. All stay 0 with the
    /// caches disabled.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_stale_evictions: AtomicU64,
    cache_insertions: AtomicU64,
    negative_hits: AtomicU64,
}

impl ServeMetrics {
    /// Records an accepted submission.
    pub(crate) fn record_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a shed (queue-full) submission.
    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a flushed batch: its size, its number of distinct batch
    /// groups, and the per-query admission-to-flush waits.
    pub(crate) fn record_flush(
        &self,
        size: usize,
        groups: usize,
        waits: impl Iterator<Item = Duration>,
    ) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.groups.fetch_add(groups as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
        let mut total_ns = 0u64;
        for w in waits {
            total_ns = total_ns.saturating_add(u64::try_from(w.as_nanos()).unwrap_or(u64::MAX));
        }
        self.queue_wait_ns.fetch_add(total_ns, Ordering::Relaxed);
    }

    /// Records `n` claims answered with an outcome.
    pub(crate) fn record_served(&self, n: usize) {
        self.served.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records `n` claims answered with an error.
    pub(crate) fn record_failed(&self, n: usize) {
        self.failed.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records a batch whose executor panicked.
    pub(crate) fn record_panicked_batch(&self) {
        self.panicked_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one served outcome's planner observability: the
    /// predicted vs measured retrieval time. The pair accumulates only
    /// when *both* sides are usable — a zero prediction (an outcome that
    /// never planned) or a non-finite value would otherwise pour
    /// unpaired time into one counter and corrupt
    /// [`MetricsSnapshot::misprediction_ratio`].
    pub(crate) fn record_plan(&self, predicted_us: f64, actual_retrieval_ms: f64) {
        let usable = |v: f64| v.is_finite() && v > 0.0;
        if !usable(predicted_us) || !usable(actual_retrieval_ms) {
            return;
        }
        let to_ns = |v: f64| -> u64 { (v as u64).min(u64::MAX / 2) };
        self.predicted_filter_ns
            .fetch_add(to_ns(predicted_us * 1e3), Ordering::Relaxed);
        self.actual_filter_ns
            .fetch_add(to_ns(actual_retrieval_ms * 1e6), Ordering::Relaxed);
    }

    /// Records a result-cache hit served at admission.
    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a result-cache miss (the query proceeded to the queue).
    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cached outcome evicted because the engine's mutation
    /// epoch moved past the epoch it was computed at.
    pub(crate) fn record_cache_stale_eviction(&self) {
        self.cache_stale_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` outcomes written back into the result cache after a
    /// flush.
    pub(crate) fn record_cache_insertions(&self, n: usize) {
        self.cache_insertions.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records a query answered empty by the negative cache without
    /// occupying a batch slot.
    pub(crate) fn record_negative_hit(&self) {
        self.negative_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy (individual counters are
    /// read independently; exact cross-counter consistency is not
    /// promised while the server is running).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
            panicked_batches: self.panicked_batches.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            queue_wait: Duration::from_nanos(self.queue_wait_ns.load(Ordering::Relaxed)),
            predicted_filter: Duration::from_nanos(
                self.predicted_filter_ns.load(Ordering::Relaxed),
            ),
            actual_filter: Duration::from_nanos(self.actual_filter_ns.load(Ordering::Relaxed)),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_stale_evictions: self.cache_stale_evictions.load(Ordering::Relaxed),
            cache_insertions: self.cache_insertions.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Submissions admitted to the queue.
    pub accepted: u64,
    /// Submissions refused with `Overloaded` (queue full).
    pub shed: u64,
    /// Claims answered with an outcome.
    pub served: u64,
    /// Claims answered with an error.
    pub failed: u64,
    /// Micro-batches flushed.
    pub batches: u64,
    /// Total distinct batch groups across all flushes (≥ `batches`).
    pub groups: u64,
    /// Batches whose executor panicked (their claims are in `failed`).
    pub panicked_batches: u64,
    /// Largest flushed batch.
    pub max_batch: u64,
    /// Total admission-to-flush queue wait across all flushed queries.
    pub queue_wait: Duration,
    /// Cumulative filtering time the cost model *predicted* for served
    /// queries.
    pub predicted_filter: Duration,
    /// Cumulative filtering time those queries actually *measured*.
    pub actual_filter: Duration,
    /// Queries answered from the result cache at admission.
    pub cache_hits: u64,
    /// Queries that consulted the result cache and missed.
    pub cache_misses: u64,
    /// Cached outcomes evicted because a newer mutation epoch published.
    pub cache_stale_evictions: u64,
    /// Outcomes written back into the result cache after flushes.
    pub cache_insertions: u64,
    /// Queries answered empty by the negative keyword cache.
    pub negative_hits: u64,
}

impl MetricsSnapshot {
    /// Mean flushed batch size (0 when nothing has flushed).
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.served + self.failed) as f64 / self.batches as f64
        }
    }

    /// Mean admission-to-flush wait per flushed query: the time spent
    /// waiting for the executor to be free.
    #[must_use]
    pub fn mean_queue_wait(&self) -> Duration {
        let flushed = self.served + self.failed;
        if flushed == 0 {
            return Duration::ZERO;
        }
        // In nanoseconds: `Duration`'s own division takes a `u32`.
        let mean = self.queue_wait.as_nanos() / u128::from(flushed);
        Duration::from_nanos(u64::try_from(mean).unwrap_or(u64::MAX))
    }

    /// Result-cache hit rate over queries that consulted it (`None`
    /// until any lookup happens — e.g. with the cache disabled).
    #[must_use]
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / lookups as f64)
        }
    }

    /// Measured-over-predicted filtering time across served queries
    /// (1.0 = the constant coefficients price this host exactly; `None`
    /// until predictions accumulate). Persistently far from 1 means misrouting risk —
    /// check per-outcome `LatencyBreakdown::runner_up` margins.
    #[must_use]
    pub fn misprediction_ratio(&self) -> Option<f64> {
        if self.predicted_filter.is_zero() {
            None
        } else {
            Some(self.actual_filter.as_secs_f64() / self.predicted_filter.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_events() {
        let m = ServeMetrics::default();
        m.record_accept();
        m.record_accept();
        m.record_shed();
        m.record_flush(
            2,
            1,
            [Duration::from_millis(1), Duration::from_millis(3)].into_iter(),
        );
        m.record_served(2);
        let s = m.snapshot();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.shed, 1);
        assert_eq!(s.served, 2);
        assert_eq!(s.batches, 1);
        assert_eq!(s.groups, 1);
        assert_eq!(s.max_batch, 2);
        assert_eq!(s.queue_wait, Duration::from_millis(4));
        assert!((s.mean_batch_size() - 2.0).abs() < 1e-12);
        assert_eq!(s.mean_queue_wait(), Duration::from_millis(2));
    }

    #[test]
    fn empty_metrics_divide_safely() {
        let s = ServeMetrics::default().snapshot();
        assert_eq!(s.mean_batch_size(), 0.0);
        assert_eq!(s.mean_queue_wait(), Duration::ZERO);
    }

    #[test]
    fn mean_queue_wait_counts_past_u32_queries() {
        let s = MetricsSnapshot {
            served: 1 << 33,
            queue_wait: Duration::from_secs(1 << 33),
            ..ServeMetrics::default().snapshot()
        };
        assert_eq!(s.mean_queue_wait(), Duration::from_secs(1));
    }

    #[test]
    fn plan_observability_accumulates() {
        let m = ServeMetrics::default();
        assert_eq!(m.snapshot().misprediction_ratio(), None);
        m.record_plan(100.0, 0.2); // predicted 100 µs, measured 200 µs
        m.record_plan(100.0, 0.2);
        let s = m.snapshot();
        assert_eq!(s.predicted_filter, Duration::from_micros(200));
        assert_eq!(s.actual_filter, Duration::from_micros(400));
        assert!((s.misprediction_ratio().unwrap() - 2.0).abs() < 1e-9);
        // Poison inputs drop the whole pair — neither counter moves,
        // even when the other half of the pair is valid.
        m.record_plan(f64::NAN, -5.0);
        m.record_plan(50.0, f64::NAN);
        m.record_plan(0.0, 1.0); // an outcome that never planned
        let s = m.snapshot();
        assert_eq!(s.predicted_filter, Duration::from_micros(200));
        assert_eq!(s.actual_filter, Duration::from_micros(400));
    }

    #[test]
    fn cache_counters_accumulate() {
        let m = ServeMetrics::default();
        assert_eq!(m.snapshot().cache_hit_rate(), None);
        m.record_cache_hit();
        m.record_cache_hit();
        m.record_cache_miss();
        m.record_cache_stale_eviction();
        m.record_cache_insertions(4);
        m.record_negative_hit();
        let s = m.snapshot();
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_stale_evictions, 1);
        assert_eq!(s.cache_insertions, 4);
        assert_eq!(s.negative_hits, 1);
        assert!((s.cache_hit_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_batch_tracks_maximum() {
        let m = ServeMetrics::default();
        m.record_flush(3, 2, std::iter::empty());
        m.record_flush(7, 1, std::iter::empty());
        m.record_flush(2, 1, std::iter::empty());
        assert_eq!(m.snapshot().max_batch, 7);
        assert_eq!(m.snapshot().groups, 4);
    }
}
