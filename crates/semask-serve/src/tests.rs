use super::*;
use api::{PendingResponse, Request, ServeStatus};
use geotext::{BoundingBox, GeoPoint};
use semask::clock::MockClock;
use semask::query::LatencyBreakdown;
use std::sync::mpsc::{channel, Receiver, Sender};

fn query(i: u8) -> SemaSkQuery {
    let center = GeoPoint::new(40.0, -90.0 + f64::from(i) * 0.01).unwrap();
    SemaSkQuery::new(
        BoundingBox::from_center_km(center, 2.0, 2.0),
        format!("query {i}"),
    )
}

/// Submits `query` at normal priority with no deadline; these tests
/// correlate by claim, not by id.
fn submit(serve: &ServeEngine, query: SemaSkQuery) -> PendingResponse {
    serve.submit_request(Request::new(0, query))
}

/// Waits on `pending` and returns its outcome, which must be `Ok`.
fn served(pending: PendingResponse) -> QueryOutcome {
    let response = pending.wait();
    assert_eq!(response.status, ServeStatus::Ok);
    response
        .outcome
        .expect("an Ok response carries its outcome")
}

/// Whether `pending` is answered `Ok`.
fn answered_ok(pending: PendingResponse) -> bool {
    pending.wait().status == ServeStatus::Ok
}

/// The text of the query a test holds the executor with.
const PLUG: &str = "plug";

/// The executor's side of a hold. Nothing makes a query wait but a
/// busy executor, so this is how a test forms a multi-query flush:
/// hold the executor with the plug query, submit the queries of
/// interest, release — they leave as the next flush (in cap-sized
/// chunks). Every flush announces its size on `entered`; a flush
/// carrying the plug then blocks until the test sends a token.
struct Gate {
    entered: Sender<usize>,
    release: Mutex<Receiver<()>>,
}

/// The test's side of a [`Gate`]. A test re-binds it after building
/// its server, so that on unwind it drops first: the held executor's
/// `recv` then fails instead of blocking the server's shutdown forever.
struct Holder {
    entered: Receiver<usize>,
    release: Sender<()>,
}

fn gate() -> (Gate, Holder) {
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel();
    (
        Gate {
            entered: entered_tx,
            release: Mutex::new(release_rx),
        },
        Holder {
            entered: entered_rx,
            release: release_tx,
        },
    )
}

impl Gate {
    fn announce(&self, queries: &[SemaSkQuery]) {
        // A test that stopped listening (shutdown on drop) is fine.
        let _ = self.entered.send(queries.len());
    }

    fn hold_plug(&self, queries: &[SemaSkQuery]) {
        if queries.iter().any(|q| q.text == PLUG) {
            self.release
                .lock()
                .expect("gate lock")
                .recv()
                .expect("release token");
        }
    }
}

impl Holder {
    /// Submits the plug and returns once its flush has entered the
    /// executor: until [`Holder::release`], submissions queue.
    fn hold(&self, serve: &ServeEngine) -> PendingResponse {
        let plug = submit(serve, SemaSkQuery::new(query(0).range, PLUG));
        assert_eq!(self.next_flush(), 1, "the plug leaves alone");
        plug
    }

    fn release(&self, plug: PendingResponse) {
        self.release.send(()).expect("executor holding");
        assert!(answered_ok(plug));
    }

    /// The size of the next flush to enter the executor.
    fn next_flush(&self) -> usize {
        self.entered.recv().expect("a flush enters the executor")
    }
}

/// An executor that answers every query with an empty outcome;
/// `fail_text` batches error, `panic_text` batches panic, and a
/// gated one can be held (see [`Gate`]).
struct ScriptedExecutor {
    gate: Option<Gate>,
    fail_text: Option<String>,
    panic_text: Option<String>,
}

impl ScriptedExecutor {
    fn ok() -> Self {
        Self {
            gate: None,
            fail_text: None,
            panic_text: None,
        }
    }

    fn held() -> (Self, Holder) {
        let (gate, holder) = gate();
        (
            Self {
                gate: Some(gate),
                ..Self::ok()
            },
            holder,
        )
    }
}

impl BatchExecutor for ScriptedExecutor {
    fn execute_batch(&self, queries: &[SemaSkQuery]) -> Result<Vec<QueryOutcome>, EngineError> {
        if let Some(gate) = &self.gate {
            gate.announce(queries);
            gate.hold_plug(queries);
        }
        if let Some(t) = &self.panic_text {
            assert!(
                !queries.iter().any(|q| q.text.contains(t.as_str())),
                "scripted panic"
            );
        }
        if let Some(t) = &self.fail_text {
            if queries.iter().any(|q| q.text.contains(t.as_str())) {
                return Err(EngineError::UnknownSuburb {
                    suburb: "scripted".to_owned(),
                });
            }
        }
        Ok(queries
            .iter()
            .map(|_| QueryOutcome {
                pois: Vec::new(),
                latency: LatencyBreakdown::default(),
            })
            .collect())
    }
}

#[test]
fn cap_flush_answers_tickets_without_time_advancing() {
    // Mock clock frozen at zero: nothing a flush needs is time.
    let exec = Arc::new(ScriptedExecutor::ok());
    let serve = ServeEngine::with_parts(
        Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch: 2,
            queue_capacity: 8,
            result_cache_entries: 0,
            negative_cache: false,
        },
    );
    let t1 = submit(&serve, query(1));
    let t2 = submit(&serve, query(2));
    assert!(answered_ok(t1));
    assert!(answered_ok(t2));
    let m = serve.metrics();
    assert_eq!(m.accepted, 2);
    assert_eq!(m.served, 2);
    assert!(m.max_batch <= 2);
}

#[test]
fn shutdown_drains_sub_cap_queue_exactly_once() {
    // One query, far under the cap: flushed before the shutdown or
    // by its drain, it is answered exactly once either way.
    let exec = Arc::new(ScriptedExecutor::ok());
    let serve = ServeEngine::with_parts(
        Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch: 64,
            queue_capacity: 8,
            result_cache_entries: 0,
            negative_cache: false,
        },
    );
    let t = submit(&serve, query(1));
    serve.shutdown();
    assert!(answered_ok(t));
    assert_eq!(serve.metrics().served, 1);
    // After shutdown, admissions are refused at once.
    let refused = submit(&serve, query(2))
        .try_wait()
        .ok()
        .expect("refused at admission");
    assert_eq!(refused.status, ServeStatus::ShuttingDown);
    assert!(refused.outcome.is_none());
    // Idempotent.
    serve.shutdown();
}

#[test]
fn engine_error_fails_whole_batch_but_not_the_server() {
    let (exec, holder) = ScriptedExecutor::held();
    let exec = Arc::new(ScriptedExecutor {
        fail_text: Some("poison".to_owned()),
        ..exec
    });
    let serve = ServeEngine::with_parts(
        Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch: 2,
            queue_capacity: 8,
            result_cache_entries: 0,
            negative_cache: false,
        },
    );
    // Dropped before `serve`, so a failing assert does not hang.
    let holder = holder;
    // The poison pill and an innocent query share one flush.
    let plug = holder.hold(&serve);
    let t1 = submit(&serve, query(1));
    let t2 = submit(&serve, SemaSkQuery::new(query(2).range, "poison pill"));
    holder.release(plug);
    for t in [t1, t2] {
        let response = t.wait();
        assert!(matches!(response.status, ServeStatus::EngineError { .. }));
        assert!(response.outcome.is_none());
    }
    // The server still serves the next batch.
    let t3 = submit(&serve, query(3));
    let t4 = submit(&serve, query(4));
    assert!(answered_ok(t3));
    assert!(answered_ok(t4));
    let m = serve.metrics();
    assert_eq!(m.failed, 2);
    assert_eq!(m.served, 3, "the plug and the two after the failure");
}

#[test]
fn try_take_probe_and_group_count_metric() {
    let (exec, holder) = ScriptedExecutor::held();
    let exec = Arc::new(exec);
    let serve = ServeEngine::with_parts(
        Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch: 4,
            queue_capacity: 8,
            result_cache_entries: 0,
            negative_cache: false,
        },
    );
    // Dropped before `serve`, so a failing assert does not hang.
    let holder = holder;
    // Two distinct ranges in one flush → 2 groups recorded (plus the
    // plug's flush of one).
    let plug = holder.hold(&serve);
    let shared = query(1).range;
    let claims = vec![
        submit(&serve, SemaSkQuery::new(shared, "a")),
        submit(&serve, SemaSkQuery::new(shared, "b")),
        submit(&serve, query(9)),
        submit(&serve, query(9)),
    ];
    holder.release(plug);
    assert_eq!(holder.next_flush(), 4);
    for t in claims {
        assert!(answered_ok(t));
    }
    let m = serve.metrics();
    assert_eq!(m.batches, 2);
    assert_eq!(m.groups, 3);
    // try_wait on an unfulfilled claim returns the claim back (not a
    // hang, not a lost claim): waiting on it afterwards still works.
    let plug = holder.hold(&serve);
    let probe = submit(&serve, query(5));
    let Err(probe) = probe.try_wait() else {
        panic!("nothing flushes while the executor is held");
    };
    holder.release(plug);
    assert!(answered_ok(probe), "claim survives a not-ready probe");
}

#[test]
fn racing_shutdown_callers_all_observe_a_drained_server() {
    let exec = Arc::new(ScriptedExecutor::ok());
    let serve = Arc::new(ServeEngine::with_parts(
        Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch: 64,
            queue_capacity: 8,
            result_cache_entries: 0,
            negative_cache: false,
        },
    ));
    let t = submit(&serve, query(1));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let serve = Arc::clone(&serve);
            scope.spawn(move || {
                serve.shutdown();
                // Whichever caller returns, the drain is complete.
                assert_eq!(serve.metrics().served, 1);
            });
        }
    });
    assert!(answered_ok(t));
}

#[test]
fn submit_request_unifies_outcomes_and_refusals() {
    let exec = Arc::new(ScriptedExecutor::ok());
    let serve = ServeEngine::with_parts(
        Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch: 2,
            queue_capacity: 8,
            result_cache_entries: 0,
            negative_cache: false,
        },
    );
    let p1 = serve.submit_request(Request::new(41, query(1)));
    let p2 = serve.submit_request(Request::new(42, query(2)));
    let r1 = p1.wait();
    let r2 = p2.wait();
    assert_eq!((r1.id, r2.id), (41, 42), "correlation ids echo");
    assert_eq!(r1.status, ServeStatus::Ok);
    assert!(r1.outcome.is_some() && r2.outcome.is_some());
    serve.shutdown();
    // Post-shutdown submission is a resolved response, not an Err.
    let refused = serve.submit_request(Request::new(43, query(3))).wait();
    assert_eq!(refused.id, 43);
    assert_eq!(refused.status, ServeStatus::ShuttingDown);
    assert!(refused.outcome.is_none());
}

#[test]
fn low_priority_sheds_before_the_queue_fills() {
    // Executor held: the queue only grows. Capacity 8 reserves 2
    // slots from the Low class, which must shed once 6 are queued
    // while Normal is still admitted.
    let (exec, holder) = ScriptedExecutor::held();
    let exec = Arc::new(exec);
    let serve = ServeEngine::with_parts(
        Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch: 64,
            queue_capacity: 8,
            result_cache_entries: 0,
            negative_cache: false,
        },
    );
    // Dropped before `serve`, so a failing assert does not hang.
    let holder = holder;
    let plug = holder.hold(&serve);
    let mut pending = Vec::new();
    for i in 1..7 {
        pending.push(submit(&serve, query(i)));
    }
    let low = serve
        .submit_request(Request::new(1, query(7)).with_priority(api::Priority::Low))
        .wait();
    assert_eq!(low.status, ServeStatus::Overloaded, "low class shed");
    let normal = serve.submit_request(Request::new(2, query(8)));
    holder.release(plug);
    assert_eq!(normal.wait().status, ServeStatus::Ok);
    for t in pending {
        assert!(answered_ok(t));
    }
    assert_eq!(serve.metrics().shed, 1);
}

#[test]
fn request_deadline_times_out_without_consuming_the_server() {
    // Executor held: the query cannot flush until the release, so
    // a 10ms wall-clock deadline must expire first.
    let (exec, holder) = ScriptedExecutor::held();
    let exec = Arc::new(exec);
    let serve = ServeEngine::with_parts(
        Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch: 64,
            queue_capacity: 8,
            result_cache_entries: 0,
            negative_cache: false,
        },
    );
    // Dropped before `serve`, so a failing assert does not hang.
    let holder = holder;
    let plug = holder.hold(&serve);
    let pending =
        serve.submit_request(Request::new(7, query(1)).with_deadline(Duration::from_millis(10)));
    let response = pending.wait();
    assert_eq!(response.id, 7);
    assert_eq!(response.status, ServeStatus::Timeout);
    assert!(response.outcome.is_none());
    // The abandoned claim doesn't wedge the server or its shutdown.
    holder.release(plug);
    serve.shutdown();
    assert_eq!(serve.metrics().served, 2);
}

#[test]
fn pending_response_probe_answers_exactly_when_wait_would_not_park() {
    let (exec, holder) = ScriptedExecutor::held();
    let serve = ServeEngine::with_parts(
        Arc::new(exec),
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch: 64,
            queue_capacity: 2,
            result_cache_entries: 0,
            negative_cache: false,
        },
    );
    // Dropped before `serve`, so a failing assert does not hang.
    let holder = holder;
    let plug = holder.hold(&serve);
    let queued = serve.submit_request(Request::new(1, query(1)));
    let expired = serve.submit_request(Request::new(2, query(2)).with_deadline(Duration::ZERO));
    let refused = serve.submit_request(Request::new(3, query(3)));
    // Held behind the plug with no deadline: the claim comes back.
    let Err(queued) = queued.try_wait() else {
        panic!("nothing flushes while the executor is held");
    };
    assert_eq!(queued.id(), 1);
    // A passed deadline and a refusal are answers already.
    let expired = expired.try_wait().ok().expect("deadline passed");
    assert_eq!((expired.id, expired.status), (2, ServeStatus::Timeout));
    let refused = refused.try_wait().ok().expect("shed at admission");
    assert_eq!((refused.id, refused.status), (3, ServeStatus::Overloaded));
    holder.release(plug);
    assert_eq!(holder.next_flush(), 2);
    // The claim survived the probe, and once its flush has run the
    // probe answers.
    let mut queued = queued;
    let response = loop {
        match queued.try_wait() {
            Ok(response) => break response,
            Err(back) => queued = back,
        }
        std::thread::yield_now();
    };
    assert_eq!((response.id, response.status), (1, ServeStatus::Ok));
}

#[test]
fn unrepresentable_deadline_means_no_deadline() {
    let serve = ServeEngine::with_parts(
        Arc::new(ScriptedExecutor::ok()),
        Arc::new(MockClock::new()),
        ServeConfig::default(),
    );
    let response = serve
        .submit_request(Request::new(9, query(1)).with_deadline(Duration::MAX))
        .wait();
    assert_eq!(response.status, ServeStatus::Ok);
}

#[test]
fn lone_submission_is_answered_without_companions_or_time() {
    // Cap 64, one query, a clock that never advances: the executor
    // is free, so the query leaves alone and at once.
    let serve = ServeEngine::with_parts(
        Arc::new(ScriptedExecutor::ok()),
        Arc::new(MockClock::new()),
        ServeConfig::default(),
    );
    let answered = serve
        .submit_request(Request::new(1, query(1)).with_deadline(Duration::from_secs(5)))
        .wait();
    assert_eq!(
        answered.status,
        ServeStatus::Ok,
        "a lone query waits for nobody"
    );
    let m = serve.metrics();
    assert_eq!((m.batches, m.max_batch), (1, 1));
    assert_eq!(m.queue_wait, Duration::ZERO);
}

/// Holds flush 1, submits `n`, releases, and returns the sizes of
/// the flushes the `n` left in.
fn flushes_after_a_held_one(max_batch: usize, n: u8) -> Vec<usize> {
    let (exec, holder) = ScriptedExecutor::held();
    let serve = ServeEngine::with_parts(
        Arc::new(exec),
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch,
            ..ServeConfig::default()
        },
    );
    // Dropped before `serve`, so a failing assert does not hang.
    let holder = holder;
    let plug = holder.hold(&serve);
    let claims: Vec<PendingResponse> = (1..=n).map(|i| submit(&serve, query(i))).collect();
    holder.release(plug);
    for t in claims {
        assert!(answered_ok(t));
    }
    // Every claim is answered, so every flush has announced itself.
    holder.entered.try_iter().collect()
}

#[test]
fn arrivals_during_a_held_flush_leave_as_the_next_batch() {
    assert_eq!(flushes_after_a_held_one(64, 5), vec![5]);
    assert_eq!(flushes_after_a_held_one(2, 5), vec![2, 2, 1]);
}

#[test]
fn queue_wait_is_the_time_the_executor_was_busy() {
    let (exec, holder) = ScriptedExecutor::held();
    let clock = Arc::new(MockClock::new());
    let serve = ServeEngine::with_parts(
        Arc::new(exec),
        Arc::clone(&clock) as Arc<dyn Clock>,
        ServeConfig::default(),
    );
    // Dropped before `serve`, so a failing assert does not hang.
    let holder = holder;
    let plug = holder.hold(&serve);
    let claims: Vec<PendingResponse> = (1..=3).map(|i| submit(&serve, query(i))).collect();
    clock.advance(Duration::from_millis(7));
    holder.release(plug);
    for t in claims {
        assert!(answered_ok(t));
    }
    // The plug waited for nothing; the three behind it waited out
    // its 7 ms of (simulated) execution, to the nanosecond.
    let m = serve.metrics();
    assert_eq!(m.batches, 2);
    assert_eq!(m.queue_wait, 3 * Duration::from_millis(7));
}

/// A cache-battery executor: counts executed batches, stamps each
/// outcome's `filtering_ms` with the execution ordinal (so a cached
/// answer — which replays an *old* outcome — is distinguishable
/// from a recompute), and exposes a settable mutation epoch plus a
/// scripted provably-empty marker text.
struct EpochExecutor {
    executions: std::sync::atomic::AtomicU64,
    epoch: std::sync::atomic::AtomicU64,
    empty_text: Option<String>,
}

impl EpochExecutor {
    fn new() -> Self {
        Self {
            executions: std::sync::atomic::AtomicU64::new(0),
            epoch: std::sync::atomic::AtomicU64::new(0),
            empty_text: None,
        }
    }

    fn executions(&self) -> u64 {
        self.executions.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl BatchExecutor for EpochExecutor {
    fn execute_batch(&self, queries: &[SemaSkQuery]) -> Result<Vec<QueryOutcome>, EngineError> {
        let ordinal = 1 + self
            .executions
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(queries
            .iter()
            .map(|_| QueryOutcome {
                pois: Vec::new(),
                latency: LatencyBreakdown {
                    filtering_ms: ordinal as f64,
                    ..LatencyBreakdown::default()
                },
            })
            .collect())
    }

    fn mutation_epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::SeqCst)
    }

    fn provably_empty(&self, query: &SemaSkQuery) -> bool {
        self.empty_text.as_ref().is_some_and(|t| {
            query
                .keywords
                .as_deref()
                .is_some_and(|kw| kw.contains(t.as_str()))
        })
    }
}

fn cache_serve(exec: Arc<EpochExecutor>, negative: bool) -> ServeEngine {
    ServeEngine::with_parts(
        exec as Arc<dyn BatchExecutor>,
        Arc::new(MockClock::new()),
        ServeConfig {
            max_batch: 1,
            queue_capacity: 8,
            result_cache_entries: 8,
            negative_cache: negative,
        },
    )
}

#[test]
fn result_cache_replays_same_shape_without_executing() {
    let exec = Arc::new(EpochExecutor::new());
    let serve = cache_serve(Arc::clone(&exec), false);
    let first = served(submit(&serve, query(1)));
    assert_eq!(exec.executions(), 1);
    // Same shape again: answered at admission, replaying the first
    // execution's outcome — no second batch.
    let second = served(submit(&serve, query(1)));
    assert_eq!(exec.executions(), 1);
    assert_eq!(second.latency.filtering_ms, first.latency.filtering_ms);
    // A different shape misses and executes.
    served(submit(&serve, query(2)));
    assert_eq!(exec.executions(), 2);
    let m = serve.metrics();
    assert_eq!(m.cache_hits, 1);
    assert_eq!(m.cache_misses, 2);
    assert_eq!(m.cache_insertions, 2);
    assert_eq!(m.cache_hit_rate(), Some(1.0 / 3.0));
    serve.shutdown();
}

#[test]
fn epoch_bump_invalidates_every_cached_answer() {
    let exec = Arc::new(EpochExecutor::new());
    let serve = cache_serve(Arc::clone(&exec), false);
    served(submit(&serve, query(1)));
    // The epoch moves (a mutation batch published elsewhere): the
    // cached entry must never be served again.
    exec.epoch.store(1, std::sync::atomic::Ordering::SeqCst);
    let recomputed = served(submit(&serve, query(1)));
    assert_eq!(exec.executions(), 2, "stale entry recomputed");
    assert_eq!(recomputed.latency.filtering_ms, 2.0);
    let m = serve.metrics();
    assert_eq!(m.cache_stale_evictions, 1);
    // At the new epoch the recomputed answer caches normally again.
    served(submit(&serve, query(1)));
    assert_eq!(exec.executions(), 2);
    assert_eq!(serve.metrics().cache_hits, 1);
    serve.shutdown();
}

#[test]
fn negative_cache_answers_empty_without_a_batch_slot() {
    let exec = Arc::new(EpochExecutor {
        empty_text: Some("ghost".to_owned()),
        ..EpochExecutor::new()
    });
    let serve = cache_serve(Arc::clone(&exec), true);
    let out = served(submit(&serve, query(1).with_keywords("ghost token")));
    assert!(out.pois.is_empty());
    assert_eq!(exec.executions(), 0, "provably-empty query never executed");
    let m = serve.metrics();
    assert_eq!(m.negative_hits, 1);
    assert_eq!(m.accepted, 0, "never occupied a queue slot");
    serve.shutdown();
}

#[test]
fn submit_request_reports_cache_status() {
    let exec = Arc::new(EpochExecutor {
        empty_text: Some("ghost".to_owned()),
        ..EpochExecutor::new()
    });
    let serve = cache_serve(Arc::clone(&exec), true);
    let request = |id: u64, q: SemaSkQuery| Request {
        id,
        query: q,
        priority: api::Priority::Normal,
        deadline: None,
    };
    let miss = serve.submit_request(request(1, query(1))).wait();
    assert_eq!(miss.cached, api::CacheStatus::Miss);
    let hit = serve.submit_request(request(2, query(1))).wait();
    assert_eq!(hit.cached, api::CacheStatus::Hit);
    assert_eq!(
        hit.id, 2,
        "correlation id is the request's, not the cache's"
    );
    let negative = serve
        .submit_request(request(3, query(9).with_keywords("ghost")))
        .wait();
    assert_eq!(negative.cached, api::CacheStatus::Negative);
    assert!(negative
        .outcome
        .expect("negative hit is Ok")
        .pois
        .is_empty());
    serve.shutdown();
}

#[test]
fn a_shut_down_server_refuses_cached_shapes_too() {
    let exec = Arc::new(EpochExecutor {
        empty_text: Some("ghost".to_owned()),
        ..EpochExecutor::new()
    });
    let serve = cache_serve(Arc::clone(&exec), true);
    let ghost = || query(9).with_keywords("ghost");
    // Up: the answered shape hits, the provably-empty keyword is
    // answered negatively.
    served(submit(&serve, query(1)));
    assert!(answered_ok(submit(&serve, query(1))));
    assert!(answered_ok(submit(&serve, ghost())));
    let hit = serve.submit_request(Request::new(1, query(1))).wait();
    assert_eq!(hit.cached, api::CacheStatus::Hit);
    let negative = serve.submit_request(Request::new(2, ghost())).wait();
    assert_eq!(negative.cached, api::CacheStatus::Negative);
    assert_eq!(exec.executions(), 1);
    let up = serve.metrics();

    serve.shutdown();
    // Down: the same shapes are refused like any fresh one.
    for q in [query(1), ghost(), query(2)] {
        let refused = serve.submit_request(Request::new(3, q)).wait();
        assert_eq!(refused.status, ServeStatus::ShuttingDown);
        assert!(refused.outcome.is_none());
    }
    let down = serve.metrics();
    assert_eq!(
        (down.cache_hits, down.negative_hits),
        (up.cache_hits, up.negative_hits),
        "a refused query counts as neither"
    );
}
