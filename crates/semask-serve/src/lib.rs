//! # semask-serve — the micro-batching serving layer
//!
//! `SemaSkEngine::query_batch` runs a batch of queries on the shared
//! worker pool; this crate is the *admission* side that turns live
//! concurrent traffic into batches that engine can exploit:
//!
//! ```text
//!  client threads ──submit_request()──▶ bounded admission queue ──▶ batcher
//!        ▲                           (full ⇒ Overloaded, shed)     │ executor free ⇒
//!        │                                                         │ flush what queued
//!   PendingResponse::wait() ◀── claims fulfilled per batch ◀───────┘ (≤ max_batch)
//!                              SemaSkEngine::query_batch (worker pool)
//! ```
//!
//! - [`ServeEngine::submit_request`] is the one way in. It accepts
//!   [`api::Request`]s from any number of threads and returns an
//!   [`api::PendingResponse`] immediately; [`api::PendingResponse::wait`]
//!   blocks until the query's micro-batch has executed (or the
//!   request's deadline passes), and
//!   [`api::PendingResponse::try_wait`] probes without parking.
//! - There is **one flush rule**: the moment the executor is free, the
//!   batcher flushes whatever has queued — up to
//!   [`ServeConfig::max_batch`] of the oldest entries — and it parks
//!   only on an empty queue. Nothing waits for companions: a lone query
//!   leaves alone (its latency is its execution), and under load a
//!   batch is what arrived while the previous flush ran. Each flush is
//!   ordered by [`semask::retrieval::BatchGroupKey`] so
//!   range-compatible queries stay contiguous through `query_batch`'s
//!   group sharing. Only queries are queued: writers publish through
//!   the engine directly, and the result cache reads the epoch they
//!   bump ([`BatchExecutor::mutation_epoch`]).
//! - Backpressure is explicit and immediate: a full queue sheds with
//!   [`api::ServeStatus::Overloaded`] instead of blocking unboundedly.
//! - [`ServeEngine::shutdown`] stops admissions, drains every accepted
//!   query through the executor and joins the batcher thread; every
//!   accepted claim is answered exactly once, and every later
//!   submission — cached shape or not — is refused with
//!   [`api::ServeStatus::ShuttingDown`].
//! - A panicking executor poisons **only its batch** (those claims get
//!   [`api::ServeStatus::BatchPanicked`]); the server keeps serving.
//!
//! The rule lives in the deterministic [`batcher::BatcherCore`] state
//! machine, which the property tests drive single-threaded; the
//! threaded battery forms multi-query flushes by holding the executor
//! (nothing else makes a query wait) — no sleeps as synchronization
//! anywhere in the tests.

#![warn(missing_docs)]

pub mod api;
pub mod batcher;
mod cache;
mod executor;
pub mod metrics;
pub mod queue;
mod ticket;

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use semask::clock::{Clock, SystemClock};
use semask::engine::{EngineError, SemaSkEngine};
use semask::query::{LatencyBreakdown, QueryOutcome, SemaSkQuery};

use batcher::{BatcherCore, Pending};
use cache::{CacheKey, Lookup, ResultCache};
use metrics::{MetricsSnapshot, ServeMetrics};
use ticket::{Doorbell, TicketState};

pub use executor::BatchExecutor;
pub use metrics::MetricsSnapshot as ServeMetricsSnapshot;

/// Serving-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// No flush is larger than this many queries (clamped to at least
    /// 1): it bounds one flush's latency and memory. Not a fill target
    /// — the batcher flushes whatever has queued as soon as the
    /// executor is free.
    pub max_batch: usize,
    /// Admission-queue capacity: submissions beyond this shed with
    /// [`api::ServeStatus::Overloaded`]. Bounds the server's memory and
    /// worst-case queueing delay.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries; 0 (default) disables the
    /// cache. When enabled, queries whose exact shape (range bits,
    /// text, keywords) was answered at the executor's *current*
    /// mutation epoch are answered at admission without occupying a
    /// batch slot; any published mutation batch bumps the epoch and
    /// invalidates every cached answer, so a cached response is always
    /// bit-identical to what a fresh execution would return.
    pub result_cache_entries: usize,
    /// Consult the executor's negative cache
    /// ([`BatchExecutor::provably_empty`]) at admission: queries whose
    /// keyword filter contains a token absent from the whole corpus are
    /// answered empty immediately instead of occupying a batch slot.
    /// Off by default — executors without keyword substrates report
    /// nothing provably empty anyway.
    pub negative_cache: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            queue_capacity: 1024,
            result_cache_entries: 0,
            negative_cache: false,
        }
    }
}

/// Why an *accepted* query failed. A claim never hands one out: the
/// batcher settles each claim with a `Result` of this error, and
/// [`api::PendingResponse::wait`] folds it into the response's
/// [`api::ServeStatus`] through [`api::Response::from_result`] — the
/// same fold a handler uses to answer from a direct engine call.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The engine reported an error for this query's batch. The error is
    /// shared by every claim of the batch.
    Engine(Arc<EngineError>),
    /// This query's batch panicked in the executor (or the executor
    /// broke its length contract). Only this batch is poisoned; the
    /// server keeps serving.
    BatchPanicked,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::BatchPanicked => write!(f, "batch executor panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The queue entry the batcher carries: the query plus its claim's
/// slot.
type Job = (SemaSkQuery, Arc<TicketState>);

struct Inner {
    /// The admission queue and its flush rule.
    core: Mutex<BatcherCore<Job>>,
    /// Set once, by [`ServeEngine::shutdown`], while holding the `core`
    /// lock: the batcher's poll-or-park and `submit_inner`'s admission
    /// both read it under that lock and so cannot miss it. The
    /// admission-time cache consult reads it without the lock.
    shutdown: AtomicBool,
    /// Wakes the batcher: new submission, or shutdown.
    wake: Condvar,
    /// Wakes parked claims, once per fulfilled flush.
    bell: Arc<Doorbell>,
    clock: Arc<dyn Clock>,
    executor: Arc<dyn BatchExecutor>,
    metrics: ServeMetrics,
    /// The epoch-stamped result cache ([`ServeConfig::result_cache_entries`]
    /// > 0), consulted at admission.
    cache: Option<ResultCache>,
    /// Consult [`BatchExecutor::provably_empty`] at admission
    /// ([`ServeConfig::negative_cache`]).
    negative_cache: bool,
}

impl Inner {
    /// The admission-time cache consult: answers `query` without
    /// queueing it when a cache tier can, recording the hit/miss
    /// counters. Tried in tier order — the negative cache first (an
    /// atomic filter probe, no lock), then the result cache.
    ///
    /// The mutation epoch is read *before* the result-cache lookup: a
    /// publish racing the consult can only make a current entry look
    /// stale (harmless recompute), never let a pre-publish answer
    /// survive the publish.
    ///
    /// A server that has shut down answers nothing from its caches: the
    /// query falls through to `submit_inner`, which refuses it like any
    /// other, so every client sees the same server.
    fn cached_answer(&self, query: &SemaSkQuery) -> Option<(QueryOutcome, api::CacheStatus)> {
        if self.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        if self.negative_cache && self.executor.provably_empty(query) {
            self.metrics.record_negative_hit();
            return Some((
                QueryOutcome {
                    pois: Vec::new(),
                    latency: LatencyBreakdown::default(),
                },
                api::CacheStatus::Negative,
            ));
        }
        let cache = self.cache.as_ref()?;
        let epoch = self.executor.mutation_epoch();
        match cache.get(&CacheKey::of(query), epoch) {
            Lookup::Hit(outcome) => {
                self.metrics.record_cache_hit();
                Some((outcome, api::CacheStatus::Hit))
            }
            Lookup::Stale => {
                self.metrics.record_cache_stale_eviction();
                self.metrics.record_cache_miss();
                None
            }
            Lookup::Miss => {
                self.metrics.record_cache_miss();
                None
            }
        }
    }

    /// Writes a successful flush's outcomes back into the result cache,
    /// stamped with the epoch captured before the flush executed.
    /// Stamping with the *captured* epoch is what keeps a racing
    /// publish safe: an outcome that actually observed the publish gets
    /// stamped with the older epoch and reads as stale, never the
    /// reverse. The pre-insert epoch re-check just skips writes that
    /// would be dead on arrival.
    fn cache_outcomes(&self, queries: &[SemaSkQuery], outcomes: &[QueryOutcome], epoch: u64) {
        let Some(cache) = &self.cache else { return };
        if outcomes.len() != queries.len() || self.executor.mutation_epoch() != epoch {
            return;
        }
        for (query, outcome) in queries.iter().zip(outcomes) {
            cache.insert(CacheKey::of(query), outcome.clone(), epoch);
        }
        self.metrics.record_cache_insertions(queries.len());
    }

    /// Fulfils a whole flush in one pass: write every slot, then ring
    /// the doorbell once. `results` must yield exactly one entry per
    /// claim.
    fn fulfil_batch(
        &self,
        tickets: Vec<Arc<TicketState>>,
        results: impl IntoIterator<Item = Result<QueryOutcome, ServeError>>,
    ) {
        for (ticket, result) in tickets.iter().zip(results) {
            ticket.set(result);
        }
        self.bell.ring();
    }

    /// Settles a finished (or died-trying) batch: metrics plus one
    /// batched fulfilment.
    fn settle(
        &self,
        tickets: Vec<Arc<TicketState>>,
        result: std::thread::Result<Result<Vec<QueryOutcome>, EngineError>>,
    ) {
        let n = tickets.len();
        match result {
            Ok(Ok(outcomes)) if outcomes.len() == n => {
                self.metrics.record_served(n);
                for outcome in &outcomes {
                    self.metrics.record_plan(
                        outcome.latency.predicted_cost_us,
                        outcome.latency.retrieval_ms,
                    );
                }
                self.fulfil_batch(tickets, outcomes.into_iter().map(Ok));
            }
            Ok(Ok(_wrong_len)) => {
                // Executor contract violation: treat like a poisoned
                // batch rather than guessing an alignment.
                self.metrics.record_panicked_batch();
                self.metrics.record_failed(n);
                self.fulfil_batch(
                    tickets,
                    std::iter::repeat_with(|| Err(ServeError::BatchPanicked)).take(n),
                );
            }
            Ok(Err(e)) => {
                self.metrics.record_failed(n);
                let e = Arc::new(e);
                self.fulfil_batch(
                    tickets,
                    std::iter::repeat_with(|| Err(ServeError::Engine(Arc::clone(&e)))).take(n),
                );
            }
            Err(_panic) => {
                self.metrics.record_panicked_batch();
                self.metrics.record_failed(n);
                self.fulfil_batch(
                    tickets,
                    std::iter::repeat_with(|| Err(ServeError::BatchPanicked)).take(n),
                );
            }
        }
    }

    /// Executes one flushed batch and fulfils its claims. Never
    /// unwinds: executor panics are contained to the batch.
    fn execute(&self, batch: Vec<Pending<Job>>, flushed_at: Duration) {
        let n = batch.len();
        let groups = 1 + batch.windows(2).filter(|w| w[0].key != w[1].key).count();
        self.metrics.record_flush(
            n,
            groups,
            batch.iter().map(|p| flushed_at.saturating_sub(p.arrival)),
        );
        // The batch owns its entries: split them into the query slice
        // the executor sees and the claims to fulfil, no clones.
        let (queries, tickets): (Vec<SemaSkQuery>, Vec<Arc<TicketState>>) =
            batch.into_iter().map(|p| p.item).unzip();
        // The cache stamp for this flush's outcomes, captured before
        // anything executes.
        let epoch = self.executor.mutation_epoch();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.executor.execute_batch(&queries)
        }));
        if let Ok(Ok(outcomes)) = &result {
            self.cache_outcomes(&queries, outcomes, epoch);
        }
        self.settle(tickets, result);
    }
}

/// The batcher thread: flush whatever has queued, repeat; park only on
/// an empty queue, and exit on an empty queue after shutdown — so a
/// shutdown with work queued drains it through the same loop. The poll
/// and the park are one critical section under the queue lock, so a
/// submission cannot slip between them.
fn batcher_loop(inner: &Inner) {
    let mut core = inner
        .core
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    loop {
        if let Some(batch) = core.poll() {
            drop(core);
            inner.execute(batch, inner.clock.now());
            core = inner
                .core
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        } else if inner.shutdown.load(Ordering::SeqCst) {
            return;
        } else {
            core = inner
                .wake
                .wait(core)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// The serving front end: concurrent `submit_request`, micro-batched
/// execution, explicit backpressure, graceful shutdown.
///
/// Cheap to share: clone an `Arc<ServeEngine>` into each client thread.
pub struct ServeEngine {
    inner: Arc<Inner>,
    /// The batcher thread, taken and joined by the first `shutdown`.
    batcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ServeEngine {
    /// Serves `engine` with the given configuration on the real clock.
    #[must_use]
    pub fn new(engine: Arc<SemaSkEngine>, config: ServeConfig) -> Self {
        Self::with_parts(engine, Arc::new(SystemClock::new()), config)
    }

    /// Fully seamed constructor: any executor, any clock (the clock
    /// only stamps queue waits — no decision reads it). The test battery
    /// uses this with gated/panicking executors to pin behavior without
    /// sleeps.
    #[must_use]
    pub fn with_parts(
        executor: Arc<dyn BatchExecutor>,
        clock: Arc<dyn Clock>,
        config: ServeConfig,
    ) -> Self {
        let inner = Arc::new(Inner {
            core: Mutex::new(BatcherCore::new(config.max_batch, config.queue_capacity)),
            shutdown: AtomicBool::new(false),
            wake: Condvar::new(),
            bell: Arc::new(Doorbell::new()),
            clock,
            executor,
            metrics: ServeMetrics::default(),
            cache: (config.result_cache_entries > 0)
                .then(|| ResultCache::new(config.result_cache_entries)),
            negative_cache: config.negative_cache,
        });
        let batcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("semask-serve-batcher".to_owned())
                .spawn(move || batcher_loop(&inner))
                .expect("spawning the batcher thread")
        };
        Self {
            inner,
            batcher: Mutex::new(Some(batcher)),
        }
    }

    /// Submits one [`api::Request`] and returns the claim on its
    /// [`api::Response`] — the serve layer's one way in. Never an
    /// error: admission refusals resolve the claim immediately with
    /// [`api::ServeStatus::Overloaded`] (the bounded queue is full; the
    /// query is shed, never queued) or [`api::ServeStatus::ShuttingDown`]
    /// (after [`ServeEngine::shutdown`]), and a request deadline turns
    /// into [`api::ServeStatus::Timeout`] at wait time. This is the same
    /// request/response contract the `semask-net` wire protocol
    /// carries, so a caller cannot tell a local server from a remote
    /// one by its API shape.
    ///
    /// [`api::Priority::Low`] requests are admitted only while the
    /// admission would leave at least a quarter of the queue's capacity
    /// free — under load the best-effort class sheds first, leaving
    /// headroom for the classes above it.
    ///
    /// With the caches enabled ([`ServeConfig::result_cache_entries`],
    /// [`ServeConfig::negative_cache`]) a query answerable at admission
    /// returns an already-answered claim — it never occupies a queue
    /// slot, so it can succeed even when a fresh query would shed. Not
    /// after [`ServeEngine::shutdown`], though: a server that has shut
    /// down refuses a cached shape like any other.
    #[must_use]
    pub fn submit_request(&self, request: api::Request) -> api::PendingResponse {
        let api::Request {
            id,
            query,
            priority,
            deadline,
        } = request;
        // A deadline `Instant` cannot represent is no deadline.
        let deadline = deadline.and_then(|d| Instant::now().checked_add(d));
        let state = match self.inner.cached_answer(&query) {
            Some((outcome, cached)) => api::PendingState::Cached(outcome, cached),
            None => self.admit(query, priority),
        };
        api::PendingResponse {
            id,
            deadline,
            state,
        }
    }

    /// Queues `query` behind the admission checks: a claim waiting on
    /// its flush, or the refusal it resolved to.
    fn admit(&self, query: SemaSkQuery, priority: api::Priority) -> api::PendingState {
        let key = self.inner.executor.group_key(&query);
        let ticket = Arc::new(TicketState::new(Arc::clone(&self.inner.bell)));
        let mut core = self
            .inner
            .core
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return api::PendingState::Ready(api::ServeStatus::ShuttingDown);
        }
        // The best-effort class needs free headroom: a quarter of the
        // queue stays reserved for Normal/High so a flood of Low
        // traffic cannot starve them at admission.
        let capacity = core.capacity();
        let has_room =
            priority != api::Priority::Low || core.queued() + capacity.div_ceil(4) < capacity;
        let admitted = has_room
            && core
                .submit((query, Arc::clone(&ticket)), key, self.inner.clock.now())
                .is_ok();
        drop(core);
        if admitted {
            self.inner.metrics.record_accept();
            self.inner.wake.notify_one();
            api::PendingState::Waiting(ticket)
        } else {
            self.inner.metrics.record_shed();
            api::PendingState::Ready(api::ServeStatus::Overloaded)
        }
    }

    /// Queries currently waiting in the admission queue (diagnostic; the
    /// value is stale the moment it returns).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.inner
            .core
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .queued()
    }

    /// A snapshot of the serving counters.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Graceful shutdown: stops admitting, flushes every accepted query
    /// through the executor (every outstanding claim is answered), and
    /// joins the batcher thread — when it returns, none of **this
    /// server's** work is in flight (a flush's pool fan-out returns
    /// only after every job it submitted finished). Idempotent, safe
    /// to race from several threads — every caller returns only after
    /// the drain is complete — and also runs on drop.
    pub fn shutdown(&self) {
        {
            let _core = self
                .inner
                .core
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.wake.notify_all();
        // Join while holding the handle lock: a concurrent shutdown()
        // caller blocks here until the first caller's drain finished,
        // so *every* caller returns to a fully drained server. (The
        // batcher never touches this lock — no deadlock.)
        let mut batcher = self
            .batcher
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(handle) = batcher.take() {
            handle.join().expect("the batcher thread never panics");
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests;
