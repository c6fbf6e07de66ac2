//! Backpressure and failure-containment battery for the serving layer.
//!
//! Everything here is deterministic without sleeps: a channel-gated
//! executor lets the test hold the batcher mid-flush — the only thing
//! that makes a submission queue — while it probes the admission queue.
//!
//! Pinned behavior:
//!
//! - With the queue full, `submit_request` resolves its claim with
//!   `Overloaded` immediately — `try_wait()` answers at once, with the
//!   request's id and without parking (shed, no deadlock, no unbounded
//!   memory) — and the queue recovers after a drain. After `shutdown`
//!   every submission resolves the same way with `ShuttingDown`.
//! - A panicking scorer — driven through the real `vecdb` worker pool,
//!   the same fan-out path `query_batch` uses — poisons only its own
//!   batch; accepted claims elsewhere are served and the server (and
//!   the pool) keep working.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use semask::clock::MockClock;
use semask::engine::EngineError;
use semask::query::{LatencyBreakdown, QueryOutcome, SemaSkQuery};
use semask_serve::api::{PendingResponse, Request, Response, ServeStatus};
use semask_serve::{BatchExecutor, ServeConfig, ServeEngine};

fn query(i: u8) -> SemaSkQuery {
    let center = geotext::GeoPoint::new(40.0, -90.0 + f64::from(i) * 0.01).expect("valid point");
    SemaSkQuery::new(
        geotext::BoundingBox::from_center_km(center, 2.0, 2.0),
        format!("query {i}"),
    )
}

/// Submits `query` as request `id` at normal priority, no deadline.
fn submit(serve: &ServeEngine, id: u64, query: SemaSkQuery) -> PendingResponse {
    serve.submit_request(Request::new(id, query))
}

/// Whether `pending` is answered `Ok`.
fn answered_ok(pending: PendingResponse) -> bool {
    pending.wait().status == ServeStatus::Ok
}

/// The response `pending` already holds: a refusal resolves its claim
/// at admission, so probing it never parks and never hands it back.
fn resolved(pending: PendingResponse) -> Response {
    match pending.try_wait() {
        Ok(response) => response,
        Err(pending) => panic!("request {} is still waiting", pending.id()),
    }
}

fn empty_outcomes(n: usize) -> Vec<QueryOutcome> {
    (0..n)
        .map(|_| QueryOutcome {
            pois: Vec::new(),
            latency: LatencyBreakdown::default(),
        })
        .collect()
}

/// An executor the test can hold mid-batch: it announces each entry on
/// `entered` and then blocks until a token arrives on `release`.
struct GatedExecutor {
    entered: Sender<usize>,
    release: Mutex<Receiver<()>>,
}

impl BatchExecutor for GatedExecutor {
    fn execute_batch(&self, queries: &[SemaSkQuery]) -> Result<Vec<QueryOutcome>, EngineError> {
        self.entered.send(queries.len()).expect("test listening");
        self.release
            .lock()
            .expect("gate lock")
            .recv()
            .expect("release token");
        Ok(empty_outcomes(queries.len()))
    }
}

#[test]
fn full_queue_sheds_immediately_and_recovers_after_drain() {
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel();
    let serve = ServeEngine::with_parts(
        Arc::new(GatedExecutor {
            entered: entered_tx,
            release: Mutex::new(release_rx),
        }),
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch: 2,
            queue_capacity: 2,
            result_cache_entries: 0,
            negative_cache: false,
        },
    );
    // Dropped before `serve`: on unwind the held executor's `recv` fails
    // instead of blocking the server's shutdown forever.
    let release_tx = release_tx;

    // The executor is free, so the first submission leaves alone; the
    // batcher blocks inside the executor with the admission queue empty.
    let t1 = submit(&serve, 1, query(1));
    assert_eq!(entered_rx.recv().expect("first flush"), 1);

    // Fill the (bounded) admission queue while the batcher is held.
    let t2 = submit(&serve, 2, query(2));
    let t3 = submit(&serve, 3, query(3));
    assert_eq!(serve.queued(), 2);

    // Full: the next submission sheds immediately — no blocking, no
    // growth — and its claim is already answered, with no outcome.
    for id in [4, 5] {
        let shed = resolved(submit(&serve, id, query(id as u8)));
        assert_eq!((shed.id, shed.status), (id, ServeStatus::Overloaded));
        assert!(shed.outcome.is_none());
    }
    let m = serve.metrics();
    assert_eq!(m.shed, 2);
    assert_eq!(m.accepted, 3);

    // Release the held batch; the first claim resolves.
    release_tx.send(()).expect("release");
    assert!(answered_ok(t1));

    // The batcher now flushes the pair that queued meanwhile.
    assert_eq!(entered_rx.recv().expect("second flush"), 2);
    release_tx.send(()).expect("release");
    assert!(answered_ok(t2));
    assert!(answered_ok(t3));

    // Recovered: the queue accepts again after the drain. Pre-load the
    // release token so this flush's executor call does not block.
    release_tx.send(()).expect("release for the last flush");
    let t6 = submit(&serve, 6, query(6));
    serve.shutdown();
    assert!(answered_ok(t6));

    let m = serve.metrics();
    assert_eq!(m.accepted, 4);
    assert_eq!(m.served, 4, "every accepted claim answered exactly once");
    assert_eq!(m.shed, 2);
    let late = resolved(submit(&serve, 7, query(7)));
    assert_eq!((late.id, late.status), (7, ServeStatus::ShuttingDown));
    assert!(late.outcome.is_none());
}

/// A scorer that panics on a marked query, fanned out on the **real**
/// shared `vecdb` worker pool — the regression half: the pool's
/// per-job panic capture must re-raise on the batcher thread (not kill
/// a pool worker silently), the serving layer must contain it to the
/// batch, and the pool must stay usable for the next batch. Gated, so
/// the test decides which queries share a flush.
struct PanickingScorerExecutor {
    gate: GatedExecutor,
}

impl BatchExecutor for PanickingScorerExecutor {
    fn execute_batch(&self, queries: &[SemaSkQuery]) -> Result<Vec<QueryOutcome>, EngineError> {
        self.gate.execute_batch(queries)?;
        let scored = vecdb::pool::global().run(queries.len(), |i| {
            assert!(
                !queries[i].text.contains("panic-pill"),
                "scorer panicked on a poisoned vector"
            );
            i
        });
        assert_eq!(scored.len(), queries.len());
        Ok(empty_outcomes(queries.len()))
    }
}

#[test]
fn panicking_scorer_poisons_only_its_batch() {
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel();
    let serve = ServeEngine::with_parts(
        Arc::new(PanickingScorerExecutor {
            gate: GatedExecutor {
                entered: entered_tx,
                release: Mutex::new(release_rx),
            },
        }),
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch: 2,
            queue_capacity: 8,
            result_cache_entries: 0,
            negative_cache: false,
        },
    );
    // Dropped before `serve` (see the test above).
    let release_tx = release_tx;

    // Each round holds the executor with one query so the next two
    // queue behind it and leave as one flush of two.
    let flush_of_two = |first: SemaSkQuery, pair: [SemaSkQuery; 2]| {
        let held = submit(&serve, 0, first);
        assert_eq!(entered_rx.recv().expect("held flush"), 1);
        let pair = pair.map(|q| submit(&serve, 0, q));
        release_tx.send(()).expect("release");
        assert!(answered_ok(held));
        assert_eq!(entered_rx.recv().expect("the pair's flush"), 2);
        release_tx.send(()).expect("release");
        pair.map(|p| p.wait().status)
    };

    // This flush contains the poisoned query: both of its claims fail
    // with BatchPanicked — and nothing else does.
    let poisoned = flush_of_two(
        query(0),
        [query(1), SemaSkQuery::new(query(2).range, "panic-pill")],
    );
    assert_eq!(
        poisoned,
        [ServeStatus::BatchPanicked, ServeStatus::BatchPanicked]
    );

    // The server and the shared pool both survive: the next batch is
    // served normally through the same pool.
    let healthy = flush_of_two(query(3), [query(4), query(5)]);
    assert_eq!(healthy, [ServeStatus::Ok, ServeStatus::Ok]);

    serve.shutdown();
    let m = serve.metrics();
    assert_eq!(m.panicked_batches, 1);
    assert_eq!(m.failed, 2);
    assert_eq!(m.served, 4);
    assert_eq!(m.batches, 4);
}
