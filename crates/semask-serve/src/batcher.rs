//! The deterministic batching core.
//!
//! [`BatcherCore`] is the admission queue plus the one flush rule as a
//! synchronous state machine: callers feed it submissions stamped with
//! the current clock reading, and [`BatcherCore::poll`] hands back a
//! micro-batch **iff the queue is non-empty** — up to `max_batch` of
//! the oldest entries. Nothing waits for companions: whoever drives the
//! core polls it whenever the executor is free, so a batch is whatever
//! queued while the previous flush ran — one query under a lone client,
//! cap-sized chunks under saturation, no setting in between. Repeated
//! `poll` until `None` is also the shutdown drain.
//!
//! It owns **no thread, no lock, and no clock** — the threaded
//! [`crate::ServeEngine`] drives it under a mutex, and the property
//! tests drive the very same code single-threaded.
//!
//! Generic over the payload `T` (the serving layer carries a query plus
//! its claim's slot; tests carry a bare id) so the state machine can be
//! exercised without building a city.

use std::time::Duration;

use semask::retrieval::BatchGroupKey;

use crate::queue::BoundedQueue;

/// One accepted submission waiting in (or flushed out of) the queue.
#[derive(Debug)]
pub struct Pending<T> {
    /// The caller's payload.
    pub item: T,
    /// The batch-group key execution will group this entry under.
    pub key: BatchGroupKey,
    /// Clock reading at admission.
    pub arrival: Duration,
    /// Admission sequence number (unique, monotone).
    pub seq: u64,
}

/// The admission queue + flush rule state machine.
#[derive(Debug)]
pub struct BatcherCore<T> {
    queue: BoundedQueue<Pending<T>>,
    max_batch: usize,
    next_seq: u64,
}

impl<T> BatcherCore<T> {
    /// A core whose flushes hold at most `max_batch` entries (clamped
    /// to at least 1) over an admission queue of `queue_capacity`.
    #[must_use]
    pub fn new(max_batch: usize, queue_capacity: usize) -> Self {
        Self {
            queue: BoundedQueue::new(queue_capacity),
            max_batch: max_batch.max(1),
            next_seq: 0,
        }
    }

    /// Queries currently waiting for a flush.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The admission-queue capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Admits `item` at time `now`, or sheds it if the queue is full.
    ///
    /// # Errors
    /// The rejected item when the queue is at capacity (the caller maps
    /// this to `ServeStatus::Overloaded`).
    pub fn submit(&mut self, item: T, key: BatchGroupKey, now: Duration) -> Result<(), T> {
        let seq = self.next_seq;
        let pending = Pending {
            item,
            key,
            arrival: now,
            seq,
        };
        match self.queue.push(pending) {
            Ok(()) => {
                self.next_seq += 1;
                Ok(())
            }
            Err(rejected) => Err(rejected.item),
        }
    }

    /// The next micro-batch, or `None` iff the queue is empty: up to
    /// `max_batch` entries in FIFO admission order, ordered by
    /// [`BatchGroupKey`] (admission order within a group) so
    /// range-compatible queries are contiguous for the executor.
    pub fn poll(&mut self) -> Option<Vec<Pending<T>>> {
        if self.queue.is_empty() {
            return None;
        }
        let mut batch = self.queue.take_up_to(self.max_batch);
        batch.sort_by(|a, b| a.key.cmp(&b.key).then(a.seq.cmp(&b.seq)));
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotext::{BoundingBox, GeoPoint};

    fn key(i: u8) -> BatchGroupKey {
        let center = GeoPoint::new(40.0 + f64::from(i), -90.0).unwrap();
        BatchGroupKey::new(&BoundingBox::from_center_km(center, 2.0, 2.0), 10, None)
    }

    fn core(max_batch: usize, capacity: usize) -> BatcherCore<u32> {
        BatcherCore::new(max_batch, capacity)
    }

    #[test]
    fn empty_queue_is_idle() {
        assert!(core(4, 16).poll().is_none());
    }

    #[test]
    fn lone_entry_flushes_on_first_poll() {
        // Far under the cap, no companions, no time passing: it leaves.
        let mut c = core(64, 16);
        c.submit(7, key(0), Duration::from_millis(5)).unwrap();
        let batch = c.poll().expect("a non-empty queue flushes");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].item, 7);
        assert_eq!(batch[0].arrival, Duration::from_millis(5));
        assert!(c.poll().is_none());
    }

    #[test]
    fn flushes_at_cap_in_group_order() {
        let mut c = core(4, 16);
        // Interleave two range groups; the flush groups them contiguously
        // while keeping admission order within each group.
        c.submit(0, key(0), Duration::ZERO).unwrap();
        c.submit(1, key(1), Duration::ZERO).unwrap();
        c.submit(2, key(0), Duration::ZERO).unwrap();
        c.submit(3, key(1), Duration::ZERO).unwrap();
        let batch = c.poll().expect("a non-empty queue flushes");
        assert_eq!(batch.len(), 4);
        let keys: Vec<BatchGroupKey> = batch.iter().map(|p| p.key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "flush is ordered by group key");
        // Within each group, admission order (seq) is preserved.
        for w in batch.windows(2) {
            if w[0].key == w[1].key {
                assert!(w[0].seq < w[1].seq);
            }
        }
        assert!(c.poll().is_none());
    }

    #[test]
    fn oversized_backlog_flushes_in_cap_sized_chunks() {
        let mut c = core(3, 16);
        for i in 0..8 {
            c.submit(i, key(0), Duration::ZERO).unwrap();
        }
        let mut sizes = Vec::new();
        while let Some(batch) = c.poll() {
            sizes.push(batch.len());
        }
        assert_eq!(sizes, vec![3, 3, 2]);
    }

    #[test]
    fn shed_returns_item_and_recovers_after_drain() {
        let mut c = core(64, 2);
        c.submit(1, key(0), Duration::ZERO).unwrap();
        c.submit(2, key(0), Duration::ZERO).unwrap();
        assert_eq!(c.submit(3, key(0), Duration::ZERO), Err(3));
        assert_eq!(c.poll().expect("queued work flushes").len(), 2);
        assert!(c.poll().is_none());
        assert!(c.submit(3, key(0), Duration::ZERO).is_ok());
    }

    #[test]
    fn drain_respects_cap_and_empties() {
        // Repeated `poll` is the drain: the oldest `max_batch` entries
        // leave first, whatever their group.
        let mut c = core(2, 16);
        for i in 0..5 {
            c.submit(i, key(i as u8 % 2), Duration::ZERO).unwrap();
        }
        let mut batches = Vec::new();
        while let Some(batch) = c.poll() {
            let mut items: Vec<u32> = batch.iter().map(|p| p.item).collect();
            items.sort_unstable();
            batches.push(items);
        }
        assert_eq!(batches, vec![vec![0, 1], vec![2, 3], vec![4]]);
        assert_eq!(c.queued(), 0);
    }

    #[test]
    fn cap_clamps_to_one() {
        let mut c = core(0, 16);
        c.submit(1, key(0), Duration::ZERO).unwrap();
        c.submit(2, key(0), Duration::ZERO).unwrap();
        assert_eq!(c.poll().expect("cap 0 still flushes").len(), 1);
        assert_eq!(c.poll().expect("one at a time").len(), 1);
    }

    #[test]
    fn seq_is_unique_and_monotone() {
        let mut c = core(64, 8);
        for i in 0..6 {
            c.submit(i, key(0), Duration::ZERO).unwrap();
        }
        let batch = c.poll().expect("queued work flushes");
        let seqs: Vec<u64> = batch.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
    }
}
