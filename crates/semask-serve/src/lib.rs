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
pub mod metrics;
pub mod queue;

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use semask::clock::{Clock, SystemClock};
use semask::durable::{DurableEngine, DurableError, MutationReceipt};
use semask::engine::{EngineError, SemaSkEngine};
use semask::query::{LatencyBreakdown, QueryOutcome, SemaSkQuery};
use semask::retrieval::BatchGroupKey;
use semask::wal::Mutation;

use batcher::{BatcherCore, Pending};
use cache::{CacheKey, Lookup, ResultCache};
use metrics::{MetricsSnapshot, ServeMetrics};

pub use metrics::MetricsSnapshot as ServeMetricsSnapshot;

/// Longest single condvar park in [`Ticket::wait_deadline`]: deadlines
/// further out are reached in several wakeups. Keeps the timeout
/// arithmetic comfortably inside what `Condvar::wait_timeout` supports.
const MAX_PARK: Duration = Duration::from_secs(3600);

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

/// Executes a flushed micro-batch. The seam between the admission layer
/// and the engine: production uses [`SemaSkEngine`] (via
/// `query_batch`), tests substitute gated, failing, or panicking
/// executors to pin scheduling-independent behavior.
pub trait BatchExecutor: Send + Sync + 'static {
    /// Answers the batch, one outcome per query, aligned with `queries`.
    ///
    /// # Errors
    /// An engine error fails the whole batch (every ticket receives it).
    fn execute_batch(&self, queries: &[SemaSkQuery]) -> Result<Vec<QueryOutcome>, EngineError>;

    /// The key a query will be batch-grouped under. Defaults to the
    /// range alone; engine-backed executors refine it with their
    /// configured `(k, ef)` budget.
    fn group_key(&self, query: &SemaSkQuery) -> BatchGroupKey {
        BatchGroupKey::new(&query.range, 0, None)
    }

    /// Applies a batch of live mutations, ordered before any queries
    /// flushed alongside them. Executors without a mutation path keep
    /// the default, which rejects the batch (every mutation ticket gets
    /// the error); [`SemaSkEngine`] applies in memory,
    /// [`DurableEngine`] logs + fsyncs first.
    ///
    /// # Errors
    /// An error fails the whole mutation batch; queries in the same
    /// flush still execute.
    fn apply_mutations(&self, mutations: &[Mutation]) -> Result<MutationReceipt, EngineError> {
        let _ = mutations;
        Err(EngineError::Mutation {
            message: "this executor does not accept live mutations".to_owned(),
        })
    }

    /// The executor's current mutation epoch: a counter that advances
    /// whenever a mutation batch publishes. The result cache stamps
    /// every entry with the epoch its outcome was computed at and
    /// serves it only while the epoch still matches — so a published
    /// mutation invalidates every cached answer at once. Executors
    /// without a mutation path keep the default constant 0, making
    /// cached entries valid forever (correct: nothing can change their
    /// answers).
    fn mutation_epoch(&self) -> u64 {
        0
    }

    /// Whether `query` is *provably* empty — e.g. its keyword filter
    /// demands a token absent from the executor's whole corpus, so no
    /// execution strategy could return a candidate. `true` must be
    /// authoritative (the serving layer answers the query empty without
    /// executing it); `false` is always safe. Default: nothing is
    /// provably empty.
    fn provably_empty(&self, query: &SemaSkQuery) -> bool {
        let _ = query;
        false
    }
}

impl BatchExecutor for SemaSkEngine {
    fn execute_batch(&self, queries: &[SemaSkQuery]) -> Result<Vec<QueryOutcome>, EngineError> {
        self.query_batch(queries)
    }

    fn group_key(&self, query: &SemaSkQuery) -> BatchGroupKey {
        self.batch_group_key(query)
    }

    fn apply_mutations(&self, mutations: &[Mutation]) -> Result<MutationReceipt, EngineError> {
        let batch = SemaSkEngine::apply_mutations(self, mutations)?;
        Ok(MutationReceipt {
            epoch: batch.epoch,
            inserted: batch.inserted,
            applied: mutations.len() as u64,
            wal_bytes: 0,
            checkpoint_records: None,
        })
    }

    fn mutation_epoch(&self) -> u64 {
        SemaSkEngine::mutation_epoch(self)
    }

    fn provably_empty(&self, query: &SemaSkQuery) -> bool {
        SemaSkEngine::provably_empty(self, query)
    }
}

impl BatchExecutor for DurableEngine {
    fn execute_batch(&self, queries: &[SemaSkQuery]) -> Result<Vec<QueryOutcome>, EngineError> {
        self.engine().query_batch(queries)
    }

    fn group_key(&self, query: &SemaSkQuery) -> BatchGroupKey {
        self.engine().batch_group_key(query)
    }

    fn apply_mutations(&self, mutations: &[Mutation]) -> Result<MutationReceipt, EngineError> {
        self.mutate_batch(mutations).map_err(|e| match e {
            DurableError::Engine(e) => e,
            other => EngineError::Mutation {
                message: format!("durability: {other}"),
            },
        })
    }

    fn mutation_epoch(&self) -> u64 {
        self.engine().mutation_epoch()
    }

    fn provably_empty(&self, query: &SemaSkQuery) -> bool {
        self.engine().provably_empty(query)
    }
}

/// The server-wide fulfilment doorbell, shared by every ticket of one
/// server. A flush fulfils all its tickets in one pass — write every
/// slot, then bump the generation and ring **once** — instead of a
/// per-ticket lock-and-notify, which dominated the serving overhead at
/// large caps (one syscall-bound `notify_all` per ticket).
///
/// Lost wakeups are impossible by lock ordering: a waiter re-checks its
/// slot *while holding the generation lock* and parks on that same
/// lock, and the fulfiller writes all slots strictly before taking the
/// generation lock to ring. So at the moment a waiter decides to park,
/// either its slot is already set (it doesn't park) or the ring for it
/// is still in the future (the park is woken).
struct Doorbell {
    generation: Mutex<u64>,
    rung: Condvar,
}

impl Doorbell {
    fn new() -> Self {
        Self {
            generation: Mutex::new(0),
            rung: Condvar::new(),
        }
    }

    /// One batched wakeup for everything written since the last ring.
    fn ring(&self) {
        let mut generation = self
            .generation
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *generation = generation.wrapping_add(1);
        self.rung.notify_all();
    }
}

/// One ticket slot, fulfilled exactly once by the batcher.
struct TicketState {
    slot: Mutex<Option<Result<QueryOutcome, ServeError>>>,
    bell: Arc<Doorbell>,
}

impl TicketState {
    fn new(bell: Arc<Doorbell>) -> Self {
        Self {
            slot: Mutex::new(None),
            bell,
        }
    }

    /// Writes the answer without waking anyone — the flush rings the
    /// shared [`Doorbell`] once after *all* its slots are written.
    fn set(&self, result: Result<QueryOutcome, ServeError>) {
        let mut slot = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        debug_assert!(slot.is_none(), "ticket fulfilled twice");
        *slot = Some(result);
    }
}

/// A claim on one accepted query's eventual answer.
///
/// Every accepted ticket is answered exactly once — by its batch's
/// flush, or by the shutdown drain.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Blocks until the query's micro-batch has executed and returns its
    /// outcome.
    ///
    /// # Errors
    /// [`ServeError`] when the batch failed or panicked.
    pub fn wait(self) -> Result<QueryOutcome, ServeError> {
        // Fast path: already answered.
        if let Some(result) = self
            .state
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            return result;
        }
        // Park on the shared doorbell. The slot re-check happens while
        // holding the generation lock (see Doorbell) so the single
        // batched ring per flush cannot be missed. Slot and generation
        // locks are never held together by the fulfiller, so the
        // slot-inside-generation nesting here cannot deadlock.
        let mut generation = self
            .state
            .bell
            .generation
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = self
                .state
                .slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
            {
                return result;
            }
            generation = self
                .state
                .bell
                .rung
                .wait(generation)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Like [`Ticket::wait`], but gives up at `deadline` (wall clock):
    /// the settled result when the batch executed in time, or the
    /// ticket back (claim intact, waitable again) on expiry. The
    /// server-side work is unaffected by an expired wait — only the
    /// claim's owner stopped waiting.
    ///
    /// # Errors
    /// The ticket itself, when `deadline` passed before the answer.
    pub fn wait_deadline(
        self,
        deadline: Instant,
    ) -> Result<Result<QueryOutcome, ServeError>, Ticket> {
        // Same doorbell protocol as `wait` (slot re-check under the
        // generation lock), with a bounded park per loop. The bell Arc
        // is cloned so the guard's borrow doesn't pin `self`, which the
        // expiry path returns by value.
        let bell = Arc::clone(&self.state.bell);
        let mut generation = bell
            .generation
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = self
                .state
                .slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
            {
                return Ok(result);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(generation);
                return Err(self);
            }
            let timeout = deadline.saturating_duration_since(now).min(MAX_PARK);
            let (guard, _timed_out) = bell
                .rung
                .wait_timeout(generation, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            generation = guard;
        }
    }

    /// Non-blocking probe: the outcome if the batch has executed, or
    /// the ticket back (unconsumed) if it has not — so a poll loop can
    /// keep the claim and later [`Ticket::wait`] without deadlocking.
    ///
    /// # Errors
    /// The ticket itself, when the answer is not ready yet.
    pub fn try_wait(self) -> Result<Result<QueryOutcome, ServeError>, Ticket> {
        let taken = self
            .state
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        taken.ok_or(self)
    }
}

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
                        outcome.latency.cost_model_version,
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
mod tests {
    use super::*;
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

    /// The test's side of a [`Gate`].
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
        fn hold(&self, serve: &ServeEngine) -> Ticket {
            let plug = serve
                .submit(SemaSkQuery::new(query(0).range, PLUG))
                .expect("plug admitted");
            assert_eq!(self.next_flush(), 1, "the plug leaves alone");
            plug
        }

        fn release(&self, plug: Ticket) {
            self.release.send(()).expect("executor holding");
            assert!(plug.wait().is_ok());
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

    /// Records the executor-call order and counts mutations, so the
    /// mutations-before-queries contract of a mixed flush is pinned.
    struct MutationRecorder {
        gate: Gate,
        events: Mutex<Vec<&'static str>>,
    }

    impl BatchExecutor for MutationRecorder {
        fn execute_batch(&self, queries: &[SemaSkQuery]) -> Result<Vec<QueryOutcome>, EngineError> {
            self.gate.announce(queries);
            self.gate.hold_plug(queries);
            self.events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push("queries");
            Ok(queries
                .iter()
                .map(|_| QueryOutcome {
                    pois: Vec::new(),
                    latency: LatencyBreakdown::default(),
                })
                .collect())
        }

        fn apply_mutations(&self, mutations: &[Mutation]) -> Result<MutationReceipt, EngineError> {
            self.events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push("mutations");
            Ok(MutationReceipt {
                epoch: 1,
                inserted: Vec::new(),
                applied: mutations.len() as u64,
                wal_bytes: 77,
                checkpoint_records: Some(3),
            })
        }
    }

    #[test]
    fn mutations_apply_before_their_flushmates_and_count() {
        let (gate, holder) = gate();
        let exec = Arc::new(MutationRecorder {
            gate,
            events: Mutex::new(Vec::new()),
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
        // One mutation + one query queue behind the held plug: a single
        // mixed flush, mutations strictly first.
        let plug = holder.hold(&serve);
        let tm = serve.submit_mutation(Mutation::Delete { id: 0 }).unwrap();
        let tq = serve.submit(query(1)).unwrap();
        holder.release(plug);
        let out = tm.wait().expect("mutation ticket resolves Ok");
        assert!(out.pois.is_empty(), "mutation outcome carries no POIs");
        assert!(tq.wait().is_ok());
        assert_eq!(
            *exec
                .events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            vec!["queries", "mutations", "queries"],
            "the plug's flush, then the mixed one"
        );
        let m = serve.metrics();
        assert_eq!(m.batches, 2);
        assert_eq!(m.mutations_applied, 1);
        assert_eq!(m.wal_bytes, 77);
        assert_eq!(m.last_checkpoint_records, 3);
        assert_eq!(m.served, 3, "plug, mutation and query tickets all served");
    }

    #[test]
    fn mutation_on_plain_executor_fails_cleanly() {
        // ScriptedExecutor keeps the trait default: no mutation path.
        let serve = ServeEngine::with_parts(
            Arc::new(ScriptedExecutor::ok()),
            Arc::new(MockClock::new()),
            ServeConfig {
                max_batch: 2,
                queue_capacity: 8,
                result_cache_entries: 0,
                negative_cache: false,
            },
        );
        let tm = serve.submit_mutation(Mutation::Delete { id: 9 }).unwrap();
        let tq = serve.submit(query(1)).unwrap();
        assert!(matches!(tm.wait(), Err(ServeError::Engine(_))));
        // Queries are unaffected by the rejected mutation, whether they
        // left in its flush or the next.
        assert!(tq.wait().is_ok());
        let m = serve.metrics();
        assert_eq!(m.mutations_applied, 0);
        assert_eq!(m.failed, 1);
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
        let t1 = serve.submit(query(1)).unwrap();
        let t2 = serve.submit(query(2)).unwrap();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
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
        let t = serve.submit(query(1)).unwrap();
        serve.shutdown();
        assert!(t.wait().is_ok());
        assert_eq!(serve.metrics().served, 1);
        // After shutdown, admissions are refused.
        assert!(matches!(
            serve.submit(query(2)),
            Err(SubmitError::ShuttingDown)
        ));
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
        // The poison pill and an innocent query share one flush.
        let plug = holder.hold(&serve);
        let t1 = serve.submit(query(1)).unwrap();
        let t2 = serve
            .submit(SemaSkQuery::new(query(2).range, "poison pill"))
            .unwrap();
        holder.release(plug);
        assert!(matches!(t1.wait(), Err(ServeError::Engine(_))));
        assert!(matches!(t2.wait(), Err(ServeError::Engine(_))));
        // The server still serves the next batch.
        let t3 = serve.submit(query(3)).unwrap();
        let t4 = serve.submit(query(4)).unwrap();
        assert!(t3.wait().is_ok());
        assert!(t4.wait().is_ok());
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
        // Two distinct ranges in one flush → 2 groups recorded (plus the
        // plug's flush of one).
        let plug = holder.hold(&serve);
        let shared = query(1).range;
        let tickets: Vec<Ticket> = vec![
            serve.submit(SemaSkQuery::new(shared, "a")).unwrap(),
            serve.submit(SemaSkQuery::new(shared, "b")).unwrap(),
            serve.submit(query(9)).unwrap(),
            serve.submit(query(9)).unwrap(),
        ];
        holder.release(plug);
        assert_eq!(holder.next_flush(), 4);
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        let m = serve.metrics();
        assert_eq!(m.batches, 2);
        assert_eq!(m.groups, 3);
        // try_wait on an unfulfilled ticket returns the ticket back (not
        // a hang, not a lost claim): waiting on it afterwards still works.
        let plug = holder.hold(&serve);
        let probe = serve.submit(query(5)).unwrap();
        let Err(probe) = probe.try_wait() else {
            panic!("nothing flushes while the executor is held");
        };
        holder.release(plug);
        assert!(probe.wait().is_ok(), "claim survives a not-ready probe");
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
        let t = serve.submit(query(1)).unwrap();
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
        assert!(t.wait().is_ok());
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
        let p1 = serve.submit_request(api::Request::new(41, query(1)));
        let p2 = serve.submit_request(api::Request::new(42, query(2)));
        let r1 = p1.wait();
        let r2 = p2.wait();
        assert_eq!((r1.id, r2.id), (41, 42), "correlation ids echo");
        assert_eq!(r1.status, api::ServeStatus::Ok);
        assert!(r1.outcome.is_some() && r2.outcome.is_some());
        serve.shutdown();
        // Post-shutdown submission is a resolved response, not an Err.
        let refused = serve.submit_request(api::Request::new(43, query(3))).wait();
        assert_eq!(refused.id, 43);
        assert_eq!(refused.status, api::ServeStatus::ShuttingDown);
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
        let plug = holder.hold(&serve);
        let mut pending = Vec::new();
        for i in 1..7 {
            pending.push(serve.submit(query(i)).unwrap());
        }
        let low = serve
            .submit_request(api::Request::new(1, query(7)).with_priority(api::Priority::Low))
            .wait();
        assert_eq!(low.status, api::ServeStatus::Overloaded, "low class shed");
        let normal = serve.submit_request(api::Request::new(2, query(8)));
        holder.release(plug);
        assert_eq!(normal.wait().status, api::ServeStatus::Ok);
        for t in pending {
            assert!(t.wait().is_ok());
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
        let plug = holder.hold(&serve);
        let pending = serve.submit_request(
            api::Request::new(7, query(1)).with_deadline(Duration::from_millis(10)),
        );
        let response = pending.wait();
        assert_eq!(response.id, 7);
        assert_eq!(response.status, api::ServeStatus::Timeout);
        assert!(response.outcome.is_none());
        // The abandoned claim doesn't wedge the server or its shutdown.
        holder.release(plug);
        serve.shutdown();
        assert_eq!(serve.metrics().served, 2);
    }

    #[test]
    fn unrepresentable_deadline_means_no_deadline() {
        let serve = ServeEngine::with_parts(
            Arc::new(ScriptedExecutor::ok()),
            Arc::new(MockClock::new()),
            ServeConfig::default(),
        );
        let response = serve
            .submit_request(api::Request::new(9, query(1)).with_deadline(Duration::MAX))
            .wait();
        assert_eq!(response.status, api::ServeStatus::Ok);
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
        let t = serve.submit(query(1)).unwrap();
        let answered = t.wait_deadline(Instant::now() + Duration::from_secs(5));
        assert!(
            matches!(answered, Ok(Ok(_))),
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
        let plug = holder.hold(&serve);
        let tickets: Vec<Ticket> = (1..=n).map(|i| serve.submit(query(i)).unwrap()).collect();
        holder.release(plug);
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        // Every ticket is answered, so every flush has announced itself.
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
        let plug = holder.hold(&serve);
        let tickets: Vec<Ticket> = (1..=3).map(|i| serve.submit(query(i)).unwrap()).collect();
        clock.advance(Duration::from_millis(7));
        holder.release(plug);
        for t in tickets {
            assert!(t.wait().is_ok());
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
        let first = serve.submit(query(1)).unwrap().wait().unwrap();
        assert_eq!(exec.executions(), 1);
        // Same shape again: answered at admission, replaying the first
        // execution's outcome — no second batch.
        let second = serve.submit(query(1)).unwrap().wait().unwrap();
        assert_eq!(exec.executions(), 1);
        assert_eq!(second.latency.filtering_ms, first.latency.filtering_ms);
        // A different shape misses and executes.
        serve.submit(query(2)).unwrap().wait().unwrap();
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
        serve.submit(query(1)).unwrap().wait().unwrap();
        // The epoch moves (a mutation batch published elsewhere): the
        // cached entry must never be served again.
        exec.epoch.store(1, std::sync::atomic::Ordering::SeqCst);
        let recomputed = serve.submit(query(1)).unwrap().wait().unwrap();
        assert_eq!(exec.executions(), 2, "stale entry recomputed");
        assert_eq!(recomputed.latency.filtering_ms, 2.0);
        let m = serve.metrics();
        assert_eq!(m.cache_stale_evictions, 1);
        // At the new epoch the recomputed answer caches normally again.
        serve.submit(query(1)).unwrap().wait().unwrap();
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
        let out = serve
            .submit(query(1).with_keywords("ghost token"))
            .unwrap()
            .wait()
            .unwrap();
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
        let request = |id: u64, q: SemaSkQuery| api::Request {
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
        // answered negatively, through both entry points.
        serve.submit(query(1)).unwrap().wait().unwrap();
        assert!(serve.submit(query(1)).unwrap().wait().is_ok());
        assert!(serve.submit(ghost()).unwrap().wait().is_ok());
        let hit = serve.submit_request(api::Request::new(1, query(1))).wait();
        assert_eq!(hit.cached, api::CacheStatus::Hit);
        let negative = serve.submit_request(api::Request::new(2, ghost())).wait();
        assert_eq!(negative.cached, api::CacheStatus::Negative);
        assert_eq!(exec.executions(), 1);
        let up = serve.metrics();

        serve.shutdown();
        // Down: the same shapes are refused like any fresh one.
        for q in [query(1), ghost(), query(2)] {
            assert!(matches!(
                serve.submit(q.clone()),
                Err(SubmitError::ShuttingDown)
            ));
            let refused = serve.submit_request(api::Request::new(3, q)).wait();
            assert_eq!(refused.status, api::ServeStatus::ShuttingDown);
            assert!(refused.outcome.is_none());
        }
        let down = serve.metrics();
        assert_eq!(
            (down.cache_hits, down.negative_hits),
            (up.cache_hits, up.negative_hits),
            "a refused query counts as neither"
        );
    }
}
