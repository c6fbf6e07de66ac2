//! In-memory datasets of geo-textual objects.

use crate::bbox::BoundingBox;
use crate::error::GeoTextError;
use crate::object::{GeoTextObject, ObjectId};

/// An in-memory dataset `O = {o_1, ..., o_n}` with dense `ObjectId`s.
///
/// Objects are stored in id order (`objects[i].id == ObjectId(i)`), so id
/// lookup is O(1) slice indexing. Datasets are the unit handed to index
/// builders, the data-preparation pipeline, and the evaluation harness.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Human-readable dataset name (e.g. the city name).
    pub name: String,
    objects: Vec<GeoTextObject>,
}

impl Dataset {
    /// Creates an empty dataset.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            objects: Vec::new(),
        }
    }

    /// Creates a dataset from objects, validating that ids are dense and
    /// in order.
    pub fn from_objects(
        name: impl Into<String>,
        objects: Vec<GeoTextObject>,
    ) -> Result<Self, GeoTextError> {
        let dataset = Self {
            name: name.into(),
            objects,
        };
        dataset.check_dense_ids()?;
        Ok(dataset)
    }

    /// Checks the invariant every id lookup relies on:
    /// `objects[i].id == ObjectId(i)`. [`Dataset::push`] keeps it by
    /// construction; [`Dataset::from_objects`] runs this.
    ///
    /// # Errors
    /// [`GeoTextError::NonDenseIds`] naming the first out-of-place id.
    fn check_dense_ids(&self) -> Result<(), GeoTextError> {
        match self
            .objects
            .iter()
            .enumerate()
            .find(|(i, o)| o.id.index() != *i)
        {
            Some((i, o)) => Err(GeoTextError::NonDenseIds {
                expected: i as u32,
                found: o.id.0,
            }),
            None => Ok(()),
        }
    }

    /// Appends an object, assigning it the next dense id. Returns the id.
    pub fn push(&mut self, build: impl FnOnce(ObjectId) -> GeoTextObject) -> ObjectId {
        let id = ObjectId(self.objects.len() as u32);
        let obj = build(id);
        debug_assert_eq!(obj.id, id);
        self.objects.push(obj);
        id
    }

    /// Number of objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// O(1) id lookup.
    #[must_use]
    pub fn get(&self, id: ObjectId) -> Option<&GeoTextObject> {
        self.objects.get(id.index())
    }

    /// Mutable id lookup (used by the data-preparation pipeline to attach
    /// completed addresses and tip summaries).
    pub fn get_mut(&mut self, id: ObjectId) -> Option<&mut GeoTextObject> {
        self.objects.get_mut(id.index())
    }

    /// All objects in id order.
    #[must_use]
    pub fn objects(&self) -> &[GeoTextObject] {
        &self.objects
    }

    /// Iterates ids and objects.
    pub fn iter(&self) -> impl Iterator<Item = &GeoTextObject> {
        self.objects.iter()
    }

    /// Linear scan returning ids of objects inside `range` — the brute
    /// force oracle that the spatial indexes are property-tested against.
    #[must_use]
    pub fn range_scan(&self, range: &BoundingBox) -> Vec<ObjectId> {
        self.objects
            .iter()
            .filter(|o| range.contains(&o.location))
            .map(|o| o.id)
            .collect()
    }

    /// Bounding box of all object locations (None if empty).
    #[must_use]
    pub fn bounds(&self) -> Option<BoundingBox> {
        let mut it = self.objects.iter();
        let first = it.next()?;
        let mut b = BoundingBox::from_point(first.location);
        for o in it {
            b.expand_to_point(o.location);
        }
        Some(b)
    }

    /// Text statistics used to calibrate the synthetic generator against
    /// the paper's reported dataset statistics.
    #[must_use]
    pub fn stats(&self) -> DatasetStats {
        let mut total_tips = 0usize;
        let mut total_tip_tokens = 0usize;
        let mut with_tips = 0usize;
        for o in &self.objects {
            if let Some(tips) = o.attrs.get("tips").and_then(|v| v.as_list()) {
                if !tips.is_empty() {
                    with_tips += 1;
                }
                total_tips += tips.len();
                total_tip_tokens += tips
                    .iter()
                    .map(|t| t.split_whitespace().count())
                    .sum::<usize>();
            }
        }
        let n = self.objects.len().max(1);
        DatasetStats {
            num_objects: self.objects.len(),
            objects_with_tips: with_tips,
            avg_tips_per_object: total_tips as f64 / n as f64,
            avg_tip_tokens_per_object: total_tip_tokens as f64 / n as f64,
        }
    }
}

impl std::ops::Index<ObjectId> for Dataset {
    type Output = GeoTextObject;
    fn index(&self, id: ObjectId) -> &GeoTextObject {
        &self.objects[id.index()]
    }
}

/// Summary statistics of a dataset's textual content.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Total number of objects.
    pub num_objects: usize,
    /// Objects that have at least one tip.
    pub objects_with_tips: usize,
    /// Average number of tips per object (paper: ~11).
    pub avg_tips_per_object: f64,
    /// Average total tip tokens per object (paper: ~147).
    pub avg_tip_tokens_per_object: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::GeoPoint;

    fn obj(id: u32, lat: f64, lon: f64) -> GeoTextObject {
        GeoTextObject::builder(ObjectId(id), GeoPoint::new(lat, lon).unwrap())
            .attr("name", format!("poi-{id}"))
            .attr(
                "tips",
                vec!["nice place to eat".to_owned(), "good".to_owned()],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn push_assigns_dense_ids() {
        let mut d = Dataset::new("t");
        let a = d.push(|id| obj(id.0, 1.0, 1.0));
        let b = d.push(|id| obj(id.0, 2.0, 2.0));
        assert_eq!(a, ObjectId(0));
        assert_eq!(b, ObjectId(1));
        assert_eq!(d.len(), 2);
        assert_eq!(d[b].name(), "poi-1");
    }

    #[test]
    fn from_objects_rejects_non_dense() {
        let objs = vec![obj(0, 1.0, 1.0), obj(2, 2.0, 2.0)];
        assert!(Dataset::from_objects("t", objs).is_err());
    }

    #[test]
    fn range_scan_filters() {
        let mut d = Dataset::new("t");
        d.push(|id| obj(id.0, 1.0, 1.0));
        d.push(|id| obj(id.0, 5.0, 5.0));
        d.push(|id| obj(id.0, 1.5, 1.5));
        let r = BoundingBox::new(0.0, 0.0, 2.0, 2.0).unwrap();
        let hits = d.range_scan(&r);
        assert_eq!(hits, vec![ObjectId(0), ObjectId(2)]);
    }

    #[test]
    fn bounds_cover_all() {
        let mut d = Dataset::new("t");
        assert!(d.bounds().is_none());
        d.push(|id| obj(id.0, 1.0, -3.0));
        d.push(|id| obj(id.0, -2.0, 4.0));
        let b = d.bounds().unwrap();
        assert_eq!(b, BoundingBox::new(-2.0, -3.0, 1.0, 4.0).unwrap());
    }

    #[test]
    fn stats_count_tips() {
        let mut d = Dataset::new("t");
        d.push(|id| obj(id.0, 1.0, 1.0));
        d.push(|id| obj(id.0, 2.0, 2.0));
        let s = d.stats();
        assert_eq!(s.num_objects, 2);
        assert_eq!(s.objects_with_tips, 2);
        assert!((s.avg_tips_per_object - 2.0).abs() < 1e-12);
        assert!((s.avg_tip_tokens_per_object - 5.0).abs() < 1e-12);
    }
}
