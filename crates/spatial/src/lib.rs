//! # spatial — spatial index substrate
//!
//! The paper's filtering step needs to restrict POIs to a query range
//! `q.r`; its related work (and our Figure-1 reproduction) is built on
//! classic spatial keyword indexes. This crate provides:
//!
//! - [`GridIndex`] — a uniform grid: the range prefilter behind the
//!   planner's grid strategy,
//! - [`IrTree`] — the IR-tree of Li et al. (TKDE 2011) cited by the paper:
//!   an R-tree whose nodes each carry the keywords in their subtree. It
//!   answers conjunctive range queries ([`IrTree::search`]: in range, and
//!   the document holds every keyword), pruning every subtree that lacks
//!   a keyword; it has no top-k. It is the "keyword matching" competitor
//!   that SemaSK's Figure 1 motivates against.

#![warn(missing_docs)]

pub mod error;
pub mod grid;
pub mod irtree;

pub use error::SpatialError;
pub use grid::GridIndex;
pub use irtree::{IrTree, SpatialKeywordQuery};

use geotext::{GeoPoint, ObjectId};

/// An indexed spatial item: an object id at a point location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// The object's id.
    pub id: ObjectId,
    /// The object's location.
    pub point: GeoPoint,
}

impl Item {
    /// Creates an item.
    #[must_use]
    pub fn new(id: ObjectId, point: GeoPoint) -> Self {
        Self { id, point }
    }
}
