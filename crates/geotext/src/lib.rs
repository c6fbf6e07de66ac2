//! # geotext — the geo-textual data model
//!
//! Shared substrate for the SemaSK reproduction. A *geo-textual object*
//! (paper Section 3) is an object `o` with a location attribute `o.l`
//! (a pair of geo-coordinates) plus a set of non-spatial attributes `o.A`
//! represented as key–value pairs whose keys are textual and whose values
//! may be textual, numerical, categorical, boolean, lists, or maps (e.g.
//! opening hours).
//!
//! This crate provides:
//!
//! - [`GeoPoint`] — WGS84 latitude/longitude with great-circle distance,
//! - [`BoundingBox`] — axis-aligned query ranges (`q.r` in the paper),
//! - [`AttributeValue`] / [`AttributeSet`] — the `o.A` attribute model,
//! - [`GeoTextObject`] — a full geo-textual object (POI), and its JSON
//!   text ([`GeoTextObject::write_json`], the refinement prompt's and the
//!   JSONL export's format, written without a value tree),
//! - [`Dataset`] — an in-memory collection with id lookup and text
//!   statistics (used to check the generator against the paper's dataset
//!   statistics: 19,795 POIs, avg 11 tips / 147 tokens per POI).

#![warn(missing_docs)]

pub mod attr;
pub(crate) mod bbox;
pub mod dataset;
pub mod error;
mod json;
pub mod object;
pub mod point;

pub use attr::{AttributeSet, AttributeValue};
pub use bbox::BoundingBox;
pub use dataset::{Dataset, DatasetStats};
pub use error::GeoTextError;
pub use json::json_array;
pub use object::{GeoTextObject, ObjectBuilder, ObjectId};
pub use point::GeoPoint;

/// Mean Earth radius in kilometres (IUGG value), used by all distance
/// computations in the workspace.
pub const EARTH_RADIUS_KM: f64 = 6371.0088;
