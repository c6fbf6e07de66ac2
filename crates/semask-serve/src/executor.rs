//! The seam between the admission layer and the engine.

use semask::engine::{EngineError, SemaSkEngine};
use semask::query::{QueryOutcome, SemaSkQuery};
use semask::retrieval::BatchGroupKey;

/// Executes a flushed micro-batch. The seam between the admission layer
/// and the engine: production uses [`SemaSkEngine`] (via
/// `query_batch`), tests substitute gated, failing, or panicking
/// executors to pin scheduling-independent behavior.
pub trait BatchExecutor: Send + Sync + 'static {
    /// Answers the batch, one outcome per query, aligned with `queries`.
    ///
    /// # Errors
    /// An engine error fails the whole batch (every claim receives it).
    fn execute_batch(&self, queries: &[SemaSkQuery]) -> Result<Vec<QueryOutcome>, EngineError>;

    /// The key a query will be batch-grouped under. Defaults to the
    /// range alone; engine-backed executors refine it with their
    /// configured `(k, ef)` budget.
    fn group_key(&self, query: &SemaSkQuery) -> BatchGroupKey {
        BatchGroupKey::new(&query.range, 0, None)
    }

    /// The executor's current mutation epoch: a counter that advances
    /// whenever a mutation batch publishes. Writers publish through the
    /// engine directly, never through the admission queue. The result
    /// cache stamps every entry with the epoch its outcome was computed
    /// at and serves it only while the epoch still matches — so a
    /// published mutation invalidates every cached answer at once.
    /// Executors without a mutation path keep the default constant 0,
    /// making cached entries valid forever (correct: nothing can change
    /// their answers).
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

    fn mutation_epoch(&self) -> u64 {
        SemaSkEngine::mutation_epoch(self)
    }

    fn provably_empty(&self, query: &SemaSkQuery) -> bool {
        SemaSkEngine::provably_empty(self, query)
    }
}
