//! The seam between the admission layer and the engine.

use semask::durable::{DurableEngine, DurableError, MutationReceipt};
use semask::engine::{EngineError, SemaSkEngine};
use semask::query::{QueryOutcome, SemaSkQuery};
use semask::retrieval::BatchGroupKey;
use semask::wal::Mutation;

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
