//! # vecdb — an embedded vector database
//!
//! Substitute for the Qdrant instance the paper uses to store POI
//! embeddings. The paper relies on exactly two Qdrant capabilities, both
//! implemented here natively:
//!
//! - **approximate k-NN over embeddings** via an [`hnsw::HnswIndex`]
//!   (Malkov & Yashunin's Hierarchical Navigable Small World graphs, the
//!   same algorithm Qdrant runs), and
//! - **a geo bounding-box filter** — restricting search to points whose
//!   position lies inside the query range `q.r`, read from a typed
//!   `(lat, lon)` column.
//!
//! A point is an id, a vector and a position — nothing else: the
//! attributes the LLM reads live in the caller's dataset, not here. A
//! [`Collection`] owns the vectors, the positions and the HNSW graph and
//! picks a query strategy the way Qdrant does: when a filter is so
//! selective that few points qualify, it brute-force scans the
//! candidates (exact); when the filter is broad, it runs filtered HNSW
//! search (approximate).
//! [`VectorDb`] manages named collections behind `parking_lot` locks and
//! persists each as one packed, checksummed snapshot file (format in
//! [`db`]).

#![warn(missing_docs)]

pub mod codec;
pub mod collection;
pub mod db;
pub mod distance;
pub mod error;
pub mod flat;
pub mod hnsw;
pub mod payload;
pub mod pool;
pub mod quant;
pub mod rows;
pub mod sharded;

pub use codec::{crc32, UnsealedSnapshot};
pub use collection::{
    default_ef, Collection, CollectionConfig, CollectionStats, ExecutedStrategy, MemoryFootprint,
    PlannedSearch, ScoredPoint, SearchParams, SearchStrategy, AUTO_QUANT_THRESHOLD,
};
pub use db::{CollectionHandle, VectorDb};
pub use distance::{inv_norm, Distance};
pub use error::VecDbError;
pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex, InsertPlan};
pub use payload::Filter;
pub use pool::WorkerPool;
pub use quant::{QuantizedVectors, ScoringTier};
pub use rows::Rows;
pub use sharded::{merge_top_k, partition, shard_of, ShardSpec};

/// Id of a point within a collection (caller-assigned, e.g. the
/// `ObjectId` of a POI).
pub type PointId = u64;
