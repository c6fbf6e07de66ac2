//! Error types for the vector database.

use std::fmt;

/// Errors produced by the `vecdb` crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VecDbError {
    /// A vector's length did not match the collection dimension.
    DimensionMismatch {
        /// Collection dimension.
        expected: usize,
        /// Supplied vector length.
        found: usize,
    },
    /// Named collection does not exist.
    CollectionNotFound {
        /// The missing collection's name.
        name: String,
    },
    /// A collection with this name already exists.
    CollectionExists {
        /// The duplicate name.
        name: String,
    },
    /// A point id was not found in the collection.
    PointNotFound {
        /// The missing point id.
        id: u64,
    },
    /// A live point with this id already exists.
    PointExists {
        /// The duplicate point id.
        id: u64,
    },
    /// A vector contained NaN or infinity.
    NonFiniteVector,
    /// A position's latitude or longitude was NaN or infinite.
    NonFinitePosition,
    /// Snapshot (de)serialization failed.
    Snapshot {
        /// Human-readable cause.
        cause: String,
    },
    /// A collection was configured with parameters nothing can be built
    /// from; refused where the configuration enters, not at the first
    /// insert.
    InvalidConfig {
        /// The offending field and value.
        cause: String,
    },
}

impl fmt::Display for VecDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VecDbError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, got {found}")
            }
            VecDbError::CollectionNotFound { name } => {
                write!(f, "collection `{name}` not found")
            }
            VecDbError::CollectionExists { name } => {
                write!(f, "collection `{name}` already exists")
            }
            VecDbError::PointNotFound { id } => write!(f, "point {id} not found"),
            VecDbError::PointExists { id } => write!(f, "point {id} already exists"),
            VecDbError::NonFiniteVector => write!(f, "vector contains NaN or infinity"),
            VecDbError::NonFinitePosition => write!(f, "position is NaN or infinite"),
            VecDbError::Snapshot { cause } => write!(f, "snapshot error: {cause}"),
            VecDbError::InvalidConfig { cause } => write!(f, "invalid configuration: {cause}"),
        }
    }
}

impl std::error::Error for VecDbError {}
