//! Property tests for the batching core, polled synchronously over
//! arbitrary submit/poll schedules — no threads, no sleeps; a
//! [`semask::clock::MockClock`] stamps the arrivals.
//!
//! Pinned invariants:
//!
//! - **The one flush rule**: `poll()` is `None` **iff** the queue is
//!   empty — the batcher never rests while a query is queued and the
//!   executor (here: the test) is free to take it.
//! - **Size cap**: no flushed batch exceeds `max_batch` (and none is
//!   empty).
//! - **Exactly once**: every accepted query appears in exactly one
//!   flushed batch — including the final drain, which is just more
//!   polling — and shed queries appear in none.
//! - **Shedding**: a submission is refused only when the queue is at
//!   capacity, and the refused item is handed back intact.
//! - **Group order**: flushes are ordered by batch-group key, admission
//!   order within each group.
//! - **Stamps**: each flushed entry carries the clock reading it was
//!   admitted at (what the serving layer's queue-wait metric is built
//!   from).

use std::collections::HashMap;
use std::time::Duration;

use geotext::{BoundingBox, GeoPoint};
use proptest::prelude::*;
use semask::clock::{Clock, MockClock};
use semask::retrieval::BatchGroupKey;
use semask_serve::batcher::BatcherCore;

fn key(i: u8) -> BatchGroupKey {
    let center = GeoPoint::new(40.0 + f64::from(i), -90.0).expect("valid point");
    BatchGroupKey::new(&BoundingBox::from_center_km(center, 2.0, 2.0), 10, None)
}

/// One `poll`, checked against the flush rule and the per-flush
/// invariants; flushed items are recorded in `flushed`. `arrivals[id]`
/// is the clock reading item `id` was submitted at. Returns whether a
/// batch left.
fn checked_poll(
    core: &mut BatcherCore<u64>,
    max_batch: usize,
    arrivals: &[Duration],
    flushed: &mut HashMap<u64, u32>,
) -> Result<bool, String> {
    let queued = core.queued();
    let Some(batch) = core.poll() else {
        prop_assert!(queued == 0, "poll rested with {queued} queued");
        return Ok(false);
    };
    prop_assert!(queued > 0, "flush out of an empty queue");
    prop_assert!(
        batch.len() == queued.min(max_batch),
        "flush of {} from {queued} queued at cap {max_batch}",
        batch.len()
    );
    prop_assert!(core.queued() == queued - batch.len());
    for w in batch.windows(2) {
        prop_assert!(w[0].key <= w[1].key, "flush not ordered by group key");
        if w[0].key == w[1].key {
            prop_assert!(w[0].seq < w[1].seq, "admission order broken within a group");
        }
    }
    for p in &batch {
        prop_assert!(
            p.arrival == arrivals[p.item as usize],
            "arrival stamp altered"
        );
        *flushed.entry(p.item).or_insert(0) += 1;
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batching_invariants_hold_over_arbitrary_schedules(
        max_batch in 1usize..9,
        capacity in 1usize..6,
        // (op, arg) events: op 0 = submit with key arg%3, op 1 = advance
        // the mock clock by arg milliseconds, op 2 = one poll (the
        // executor came free) — so backlogs of every depth up to the
        // capacity meet the poll.
        events in collection::vec((0u8..3, 0u8..6), 1..120),
    ) {
        let clock = MockClock::new();
        let mut core: BatcherCore<u64> = BatcherCore::new(max_batch, capacity);
        let mut arrivals: Vec<Duration> = Vec::new();
        let mut accepted = 0usize;
        let mut shed = 0usize;
        let mut flushed: HashMap<u64, u32> = HashMap::new();

        for &(op, arg) in &events {
            match op {
                0 => {
                    let id = arrivals.len() as u64;
                    arrivals.push(clock.now());
                    match core.submit(id, key(arg % 3), clock.now()) {
                        Ok(()) => accepted += 1,
                        Err(returned) => {
                            prop_assert_eq!(returned, id, "shed must return the submitted item");
                            prop_assert_eq!(
                                core.queued(),
                                core.capacity(),
                                "shed below capacity"
                            );
                            shed += 1;
                        }
                    }
                }
                1 => clock.advance(Duration::from_millis(u64::from(arg))),
                _ => {
                    checked_poll(&mut core, max_batch, &arrivals, &mut flushed)?;
                }
            }
        }

        // Shutdown: polling until `None` is the drain.
        while checked_poll(&mut core, max_batch, &arrivals, &mut flushed)? {}
        prop_assert_eq!(core.queued(), 0);

        // Exactly once: accepted queries all answered, each once; shed
        // queries never answered.
        prop_assert_eq!(flushed.len(), accepted, "accepted vs answered mismatch");
        prop_assert!(flushed.values().all(|&c| c == 1), "a query was answered twice");
        prop_assert_eq!(accepted + shed, arrivals.len());
    }
}
