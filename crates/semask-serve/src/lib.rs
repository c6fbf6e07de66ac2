//! # semask-serve — the micro-batching serving layer
//!
//! PR 3 built the *execution* engine for high throughput
//! (`SemaSkEngine::query_batch` on the shared worker pool); this crate
//! is the *admission* side that turns live concurrent traffic into
//! batches that engine can exploit:
//!
//! ```text
//!  client threads ──submit()──▶ bounded admission queue ──▶ batcher
//!        ▲                      (full ⇒ Overloaded, shed)     │ executor free ⇒
//!        │                                                    │ flush what queued
//!   Ticket::wait() ◀── tickets fulfilled per batch ◀──────────┘ (≤ max_batch)
//!                          SemaSkEngine::query_batch (worker pool)
//! ```
//!
//! - [`ServeEngine::submit`] accepts queries from any number of threads
//!   and returns a [`Ticket`] immediately; [`Ticket::wait`] blocks until
//!   the query's micro-batch has executed.
//! - There is **one flush rule**: the moment the executor is free, the
//!   batcher flushes whatever has queued — up to
//!   [`ServeConfig::max_batch`] of the oldest entries — and it parks
//!   only on an empty queue. Nothing waits for companions: a lone query
//!   leaves alone (its latency is its execution), and under load a
//!   batch is what arrived while the previous flush ran. Each flush is
//!   ordered by [`semask::retrieval::BatchGroupKey`] so
//!   range-compatible queries stay contiguous through `query_batch`'s
//!   group sharing.
//! - Backpressure is explicit and immediate: a full queue sheds with
//!   [`SubmitError::Overloaded`] instead of blocking unboundedly.
//! - [`ServeEngine::shutdown`] stops admissions, drains every accepted
//!   query through the executor and joins the batcher thread; every
//!   accepted ticket is answered exactly once, and every later
//!   submission — cached shape or not — is refused.
//! - A panicking executor poisons **only its batch** (those tickets get
//!   [`ServeError::BatchPanicked`]); the server keeps serving.
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
use semask::retrieval::BatchGroupKey;
use semask::wal::Mutation;

use batcher::{BatcherCore, Pending};
use cache::{CacheKey, Lookup, ResultCache};
use metrics::{MetricsSnapshot, ServeMetrics};
use ticket::{Doorbell, TicketState};

pub use executor::BatchExecutor;
pub use metrics::MetricsSnapshot as ServeMetricsSnapshot;
pub use ticket::Ticket;

/// Serving-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// No flush is larger than this many queries (clamped to at least
    /// 1): it bounds one flush's latency and memory. Not a fill target
    /// — the batcher flushes whatever has queued as soon as the
    /// executor is free.
    pub max_batch: usize,
    /// Admission-queue capacity: submissions beyond this shed with
    /// [`SubmitError::Overloaded`]. Bounds the server's memory and
    /// worst-case queueing delay.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries; 0 (default) disables the
    /// cache. When enabled, queries whose exact shape (range bits,
    /// text, keywords) was answered at the executor's *current*
    /// mutation epoch are fulfilled at admission without occupying a
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

/// Why a submission was refused. Refusals are immediate — `submit`
/// never blocks on a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full; the query was shed. Retry later (or
    /// against another replica) — accepted work is unaffected.
    Overloaded,
    /// [`ServeEngine::shutdown`] has begun; no new work is admitted.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "admission queue full (overloaded, query shed)"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an *accepted* query failed (delivered through [`Ticket::wait`]).
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The engine reported an error for this query's batch. The error is
    /// shared by every ticket of the batch.
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

/// One admitted work item: a query to batch, or a live mutation to
/// apply ahead of the queries in its flush. Mutations ride the same
/// bounded admission queue (same backpressure, same shutdown drain) so
/// readers and writers share one fairness domain.
enum Work {
    /// A query, batch-grouped by its range/budget key.
    Query(SemaSkQuery),
    /// A live mutation, grouped under [`BatchGroupKey::mutation`].
    Mutate(Mutation),
}

/// The queue entry the batcher carries: the work item plus its ticket.
type Job = (Work, Arc<TicketState>);

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
    /// Wakes ticket waiters, once per fulfilled flush.
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
    /// ticket.
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

    /// Executes one flushed batch and fulfils its tickets. Never
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
        // the executor sees and the tickets to fulfil, no clones.
        // Mutations flushed alongside queries apply *first*, so every
        // query in the flush observes the post-mutation epoch — the
        // simplest consistency story for a mixed flush.
        let mut queries: Vec<SemaSkQuery> = Vec::with_capacity(n);
        let mut tickets: Vec<Arc<TicketState>> = Vec::with_capacity(n);
        let mut mutations: Vec<Mutation> = Vec::new();
        let mut mutation_tickets: Vec<Arc<TicketState>> = Vec::new();
        for p in batch {
            match p.item.0 {
                Work::Query(q) => {
                    queries.push(q);
                    tickets.push(p.item.1);
                }
                Work::Mutate(m) => {
                    mutations.push(m);
                    mutation_tickets.push(p.item.1);
                }
            }
        }
        if !mutations.is_empty() {
            self.apply_mutation_batch(&mutations, mutation_tickets);
        }
        if queries.is_empty() {
            return;
        }
        // The cache stamp for this flush's outcomes: captured after its
        // mutations applied, before anything executes.
        let epoch = self.executor.mutation_epoch();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.executor.execute_batch(&queries)
        }));
        if let Ok(Ok(outcomes)) = &result {
            self.cache_outcomes(&queries, outcomes, epoch);
        }
        self.settle(tickets, result);
    }

    /// Applies one flush's mutations through the executor and fulfils
    /// their tickets: an empty outcome on success (the batch's fate is
    /// shared — it applied atomically or not at all), the error or a
    /// panic marker otherwise. Mirrors [`Inner::settle`]'s containment.
    fn apply_mutation_batch(&self, mutations: &[Mutation], tickets: Vec<Arc<TicketState>>) {
        let n = tickets.len();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.executor.apply_mutations(mutations)
        }));
        match result {
            Ok(Ok(receipt)) => {
                self.metrics.record_mutations(
                    receipt.applied,
                    receipt.wal_bytes,
                    receipt.checkpoint_records,
                );
                self.metrics.record_served(n);
                self.fulfil_batch(
                    tickets,
                    std::iter::repeat_with(|| {
                        Ok(QueryOutcome {
                            pois: Vec::new(),
                            latency: LatencyBreakdown::default(),
                        })
                    })
                    .take(n),
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

/// The serving front end: concurrent `submit`, micro-batched execution,
/// explicit backpressure, graceful shutdown.
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

    /// Submits a query for batched execution. Returns immediately: a
    /// [`Ticket`] on admission, [`SubmitError::Overloaded`] when the
    /// bounded queue is full (the query is shed, never queued), or
    /// [`SubmitError::ShuttingDown`] after [`ServeEngine::shutdown`].
    ///
    /// Deprecated in favor of [`ServeEngine::submit_request`], the
    /// unified-API form that carries a correlation id, priority, and
    /// deadline and reports every failure mode as one
    /// [`api::ServeStatus`] space shared with the wire protocol. This
    /// wrapper stays (without a `#[deprecated]` attribute, so existing
    /// callers build warning-free) and submits at
    /// [`api::Priority::Normal`] with no deadline.
    ///
    /// # Errors
    /// See above — `submit` never blocks on queue pressure.
    ///
    /// With the caches enabled ([`ServeConfig::result_cache_entries`],
    /// [`ServeConfig::negative_cache`]) a query answerable at admission
    /// returns an already-fulfilled ticket — it never occupies a queue
    /// slot, so it can succeed even when a fresh query would shed. Not
    /// after [`ServeEngine::shutdown`], though: a server that has shut
    /// down refuses a cached shape like any other.
    pub fn submit(&self, query: SemaSkQuery) -> Result<Ticket, SubmitError> {
        if let Some((outcome, _cached)) = self.inner.cached_answer(&query) {
            let state = Arc::new(TicketState::new(Arc::clone(&self.inner.bell)));
            state.set(Ok(outcome));
            return Ok(Ticket { state });
        }
        self.submit_inner(Work::Query(query), api::Priority::Normal)
    }

    /// Submits a live mutation. It rides the same bounded admission
    /// queue as queries (same backpressure, same shutdown drain) and
    /// applies *before* the queries of whatever flush carries it, so a
    /// ticket-holder's subsequent queries observe its effects. The
    /// ticket resolves with an empty outcome on success; a mutation
    /// batch rejected by the executor fails every mutation ticket in
    /// its flush with the executor's error.
    ///
    /// # Errors
    /// [`SubmitError::Overloaded`] / [`SubmitError::ShuttingDown`],
    /// exactly as for [`ServeEngine::submit`].
    pub fn submit_mutation(&self, mutation: Mutation) -> Result<Ticket, SubmitError> {
        self.submit_inner(Work::Mutate(mutation), api::Priority::Normal)
    }

    /// Submits one [`api::Request`] and returns the claim on its
    /// [`api::Response`]. Never an error: admission refusals resolve
    /// the pending response immediately with the matching
    /// [`api::ServeStatus`], and a request deadline turns into
    /// [`api::ServeStatus::Timeout`] at wait time. This is the same
    /// request/response contract the `semask-net` wire protocol
    /// carries, so a caller cannot tell a local server from a remote
    /// one by its API shape.
    ///
    /// [`api::Priority::Low`] requests are admitted only while the
    /// admission would leave at least a quarter of the queue's capacity
    /// free — under load the best-effort class sheds first, leaving
    /// headroom for the classes above it.
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
        let state = if let Some((outcome, cached)) = self.inner.cached_answer(&query) {
            api::PendingState::Cached(outcome, cached)
        } else {
            match self.submit_inner(Work::Query(query), priority) {
                Ok(ticket) => api::PendingState::Waiting(ticket),
                Err(e) => api::PendingState::Ready(api::ServeStatus::from(e)),
            }
        };
        api::PendingResponse {
            id,
            deadline,
            state,
        }
    }

    /// The one admission path behind [`ServeEngine::submit`] and
    /// [`ServeEngine::submit_request`].
    fn submit_inner(&self, work: Work, priority: api::Priority) -> Result<Ticket, SubmitError> {
        let key = match &work {
            Work::Query(query) => self.inner.executor.group_key(query),
            Work::Mutate(_) => BatchGroupKey::mutation(),
        };
        let ticket_state = Arc::new(TicketState::new(Arc::clone(&self.inner.bell)));
        let mut core = self
            .inner
            .core
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        // The best-effort class needs free headroom: a quarter of the
        // queue stays reserved for Normal/High so a flood of Low
        // traffic cannot starve them at admission.
        if priority == api::Priority::Low {
            let capacity = core.capacity();
            if core.queued() + capacity.div_ceil(4) >= capacity {
                drop(core);
                self.inner.metrics.record_shed();
                return Err(SubmitError::Overloaded);
            }
        }
        let now = self.inner.clock.now();
        match core.submit((work, Arc::clone(&ticket_state)), key, now) {
            Ok(()) => {
                drop(core);
                self.inner.metrics.record_accept();
                self.inner.wake.notify_one();
                Ok(Ticket {
                    state: ticket_state,
                })
            }
            Err(_rejected) => {
                drop(core);
                self.inner.metrics.record_shed();
                Err(SubmitError::Overloaded)
            }
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
    /// through the executor (every outstanding ticket is answered), and
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
