//! Error types for spatial indexes.

use std::fmt;

/// Errors produced by the `spatial` crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpatialError {
    /// Requested grid resolution was zero.
    ZeroResolution,
}

impl fmt::Display for SpatialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpatialError::ZeroResolution => write!(f, "grid resolution must be positive"),
        }
    }
}

impl std::error::Error for SpatialError {}
