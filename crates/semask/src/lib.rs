//! # semask — semantics-aware spatial keyword querying
//!
//! The paper's primary contribution: an RAG-style filter-and-refine query
//! processor for geo-textual data.
//!
//! ```text
//!           ┌─────────────── Data Preparation ───────────────┐
//!  raw POIs │ address completion → tip summarization (LLM) → │
//!           │ embedding generation → vector database         │
//!           └─────────────────────────────────────────────────┘
//!           ┌─────────────── Query Processing ───────────────┐
//!   query q │ embed q.T → filtered ANN over range q.r (top-k)│
//!           │ → LLM re-ranks raw attributes → final answer   │
//!           └─────────────────────────────────────────────────┘
//! ```
//!
//! Public API tour:
//!
//! - [`prep::prepare_city`] runs the offline pipeline for one city and
//!   returns a [`prep::PreparedCity`],
//! - [`engine::SemaSkEngine`] answers [`query::SemaSkQuery`]s and comes
//!   in the paper's three variants ([`engine::Variant`]): `Full`
//!   (GPT-4o), `O1` (o1-mini), and `EmbeddingOnly` (SemaSK-EM),
//! - [`baselines`] provides the LDA and TF-IDF competitors behind the
//!   common [`baselines::Retriever`] trait,
//! - [`eval`] computes F1@k and aggregates the paper's Table 2,
//! - [`engine::SemaSkEngine::apply_mutations`] mutates a live engine
//!   (insert/update/delete POIs) under concurrent queries, and
//!   [`durable::DurableEngine`] makes those mutations crash-durable
//!   with a write-ahead log ([`wal`]) and folding checkpoints.

#![warn(missing_docs)]

pub mod backend;
pub mod baselines;
pub mod clock;
pub mod config;
pub mod cost;
pub mod durable;
pub mod engine;
pub mod eval;
pub mod live;
pub mod persist;
pub mod prep;
pub mod query;
pub mod retrieval;
pub mod wal;

pub use backend::RetrievalBackend;
pub use clock::{Clock, MockClock, SystemClock};
pub use config::SemaSkConfig;
pub use cost::{
    Coefficients, KeywordFeatures, PlanDecision, PlanMemoStats, QueryFeatures, StrategyCost,
};
pub use durable::{CheckpointPolicy, DurableEngine, DurableError, MutationReceipt, RecoverReport};
pub use engine::{AppliedBatch, EngineError, SemaSkEngine, Variant};
pub use eval::{f1_at_k, CityScore, PrecisionRecall};
pub use live::{LiveState, Overlay};
pub use prep::{prepare_city, prepare_city_with_threads, PreparedCity};
pub use query::{LatencyBreakdown, QueryOutcome, RankedPoi, Reason, SemaSkQuery};
pub use retrieval::{
    BatchGroupKey, PlannedQuery, PlannedRetrieval, PlannerConfig, QueryPlanner, RetrievalError,
    RetrievalStrategy, SelectivityEstimator,
};
pub use wal::{Mutation, PoiSpec, PoiUpdate, Wal, WalError, WalRecord, WalStats};
