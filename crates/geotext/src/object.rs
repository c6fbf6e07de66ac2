//! Geo-textual objects (POIs).

use crate::attr::{AttributeSet, AttributeValue};
use crate::error::GeoTextError;
use crate::point::GeoPoint;

/// A stable object identifier, unique within a [`crate::Dataset`].
///
/// Stored as a `u32` index (the paper's datasets top out at ~81,500 POIs,
/// and keeping ids small keeps index postings compact — see the perf-guide
/// note on smaller integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The id as a usize, for slice indexing.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// A geo-textual object `o = (o.l, o.A)`: a location plus an attribute set
/// with at least one textual attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoTextObject {
    /// Identifier within the owning dataset.
    pub id: ObjectId,
    /// The location attribute `o.l`.
    pub location: GeoPoint,
    /// The non-spatial attributes `o.A`.
    pub attrs: AttributeSet,
}

impl GeoTextObject {
    /// Starts building an object at `location`.
    #[must_use]
    pub fn builder(id: ObjectId, location: GeoPoint) -> ObjectBuilder {
        ObjectBuilder {
            id,
            location,
            attrs: AttributeSet::new(),
        }
    }

    /// The object's display name (the `name` attribute), or its id string.
    #[must_use]
    pub fn name(&self) -> &str {
        self.attrs.get_text("name").unwrap_or("<unnamed>")
    }

    /// Full textual document for indexing/embedding: every attribute
    /// flattened, one per line.
    #[must_use]
    pub fn to_document(&self) -> String {
        self.attrs.to_document()
    }
}

/// Builder for [`GeoTextObject`], enforcing the "at least one textual
/// attribute" invariant at [`ObjectBuilder::build`] time.
#[derive(Debug, Clone)]
pub struct ObjectBuilder {
    id: ObjectId,
    location: GeoPoint,
    attrs: AttributeSet,
}

impl ObjectBuilder {
    /// Adds an attribute.
    #[must_use]
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<AttributeValue>) -> Self {
        self.attrs.set(key, value);
        self
    }

    /// Finishes the object, validating the textual-attribute invariant.
    pub fn build(self) -> Result<GeoTextObject, GeoTextError> {
        if !self.attrs.has_textual() {
            return Err(GeoTextError::NoTextualAttribute { id: self.id.0 });
        }
        Ok(GeoTextObject {
            id: self.id,
            location: self.location,
            attrs: self.attrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GeoTextObject {
        GeoTextObject::builder(ObjectId(7), GeoPoint::new(36.162649, -86.775973).unwrap())
            .attr("name", "Mike's Ice Cream")
            .attr("address", "129 2nd Ave N")
            .attr("stars", 1.5)
            .attr("tip_count", 10i64)
            .attr("is_open", true)
            .attr(
                "categories",
                vec![
                    "Ice Cream & Frozen Yogurt".to_owned(),
                    "Fast Food".to_owned(),
                ],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn builder_builds_sample_record() {
        let o = sample();
        assert_eq!(o.name(), "Mike's Ice Cream");
        assert_eq!(o.id.to_string(), "o7");
        assert_eq!(o.attrs.get("stars").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn builder_rejects_all_numeric() {
        let r = GeoTextObject::builder(ObjectId(0), GeoPoint::new(0.0, 0.0).unwrap())
            .attr("stars", 3.0)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn write_json_includes_coordinates() {
        let mut j = String::new();
        sample().write_json(&mut j);
        assert_eq!(
            j,
            "{\"address\":\"129 2nd Ave N\",\"categories\":[\"Ice Cream & Frozen Yogurt\",\
             \"Fast Food\"],\"is_open\":true,\"latitude\":36.162649,\"longitude\":-86.775973,\
             \"name\":\"Mike's Ice Cream\",\"stars\":1.5,\"tip_count\":10}"
        );
    }

    #[test]
    fn document_contains_all_text() {
        let doc = sample().to_document();
        assert!(doc.contains("Mike's Ice Cream"));
        assert!(doc.contains("Fast Food"));
        assert!(doc.contains("129 2nd Ave N"));
    }

    #[test]
    fn unnamed_object_has_placeholder_name() {
        let o = GeoTextObject::builder(ObjectId(1), GeoPoint::new(0.0, 0.0).unwrap())
            .attr("tips", vec!["great".to_owned()])
            .build()
            .unwrap();
        assert_eq!(o.name(), "<unnamed>");
    }
}
