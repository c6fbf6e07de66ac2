//! Axis-aligned bounding boxes over latitude/longitude.
//!
//! A [`BoundingBox`] is the paper's query range `q.r` ("a region, e.g. a
//! rectangle"): the experiments use 5 km × 5 km boxes centred on a random
//! point in each city. Boxes are also the building block of the R-tree in
//! the `spatial` crate.

use crate::error::GeoTextError;
use crate::point::GeoPoint;

/// An axis-aligned rectangle in (lat, lon) space.
///
/// Degenerate (point) boxes are allowed. Boxes never wrap the antimeridian;
/// the synthetic world and the paper's US cities never need that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Southern edge (minimum latitude).
    pub min_lat: f64,
    /// Western edge (minimum longitude).
    pub min_lon: f64,
    /// Northern edge (maximum latitude).
    pub max_lat: f64,
    /// Eastern edge (maximum longitude).
    pub max_lon: f64,
}

impl BoundingBox {
    /// Creates a box, checking that min ≤ max on both axes and that all
    /// coordinates are valid.
    pub fn new(
        min_lat: f64,
        min_lon: f64,
        max_lat: f64,
        max_lon: f64,
    ) -> Result<Self, GeoTextError> {
        GeoPoint::new(min_lat, min_lon)?;
        GeoPoint::new(max_lat, max_lon)?;
        if min_lat > max_lat || min_lon > max_lon {
            return Err(GeoTextError::InvalidBoundingBox {
                min_lat,
                min_lon,
                max_lat,
                max_lon,
            });
        }
        Ok(Self {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        })
    }

    /// A degenerate box covering exactly one point.
    #[must_use]
    pub(crate) fn from_point(p: GeoPoint) -> Self {
        Self {
            min_lat: p.lat,
            min_lon: p.lon,
            max_lat: p.lat,
            max_lon: p.lon,
        }
    }

    /// The box of the given physical size (in kilometres) centred at
    /// `center`. This is how the paper forms query ranges: "a 5 km × 5 km
    /// region centered at the point".
    #[must_use]
    pub fn from_center_km(center: GeoPoint, width_km: f64, height_km: f64) -> Self {
        let half_w = width_km / 2.0;
        let half_h = height_km / 2.0;
        let sw = center.offset_km(-half_h, -half_w);
        let ne = center.offset_km(half_h, half_w);
        Self {
            min_lat: sw.lat,
            min_lon: sw.lon,
            max_lat: ne.lat,
            max_lon: ne.lon,
        }
    }

    /// Smallest box containing every point in `points`. Returns `None` for
    /// an empty slice.
    #[must_use]
    pub fn enclosing(points: &[GeoPoint]) -> Option<Self> {
        let first = points.first()?;
        let mut b = Self::from_point(*first);
        for p in &points[1..] {
            b.expand_to_point(*p);
        }
        Some(b)
    }

    /// Whether `p` lies inside the box (edges inclusive).
    #[must_use]
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lat >= self.min_lat
            && p.lat <= self.max_lat
            && p.lon >= self.min_lon
            && p.lon <= self.max_lon
    }

    /// Whether `other` lies entirely inside this box.
    #[must_use]
    pub fn contains_box(&self, other: &BoundingBox) -> bool {
        other.min_lat >= self.min_lat
            && other.max_lat <= self.max_lat
            && other.min_lon >= self.min_lon
            && other.max_lon <= self.max_lon
    }

    /// Whether the two boxes overlap (edge contact counts).
    #[must_use]
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min_lat <= other.max_lat
            && self.max_lat >= other.min_lat
            && self.min_lon <= other.max_lon
            && self.max_lon >= other.min_lon
    }

    /// Grows the box in place to include `p`.
    pub(crate) fn expand_to_point(&mut self, p: GeoPoint) {
        self.min_lat = self.min_lat.min(p.lat);
        self.max_lat = self.max_lat.max(p.lat);
        self.min_lon = self.min_lon.min(p.lon);
        self.max_lon = self.max_lon.max(p.lon);
    }

    /// Grows the box in place to include `other`.
    pub fn expand_to_box(&mut self, other: &BoundingBox) {
        self.min_lat = self.min_lat.min(other.min_lat);
        self.max_lat = self.max_lat.max(other.max_lat);
        self.min_lon = self.min_lon.min(other.min_lon);
        self.max_lon = self.max_lon.max(other.max_lon);
    }

    /// The union of two boxes.
    #[must_use]
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        let mut b = *self;
        b.expand_to_box(other);
        b
    }

    /// Geometric centre of the box.
    #[must_use]
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new_unchecked(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )
    }

    /// Area in squared degrees — a *relative* measure used by R-tree split
    /// and choose-subtree heuristics, where only comparisons matter.
    #[must_use]
    pub(crate) fn area_deg2(&self) -> f64 {
        (self.max_lat - self.min_lat) * (self.max_lon - self.min_lon)
    }

    /// Area increase (in squared degrees) needed to include `other`.
    #[must_use]
    pub fn enlargement_deg2(&self, other: &BoundingBox) -> f64 {
        self.union(other).area_deg2() - self.area_deg2()
    }

    /// Approximate width and height of the box in kilometres.
    #[must_use]
    pub fn extent_km(&self) -> (f64, f64) {
        let sw = GeoPoint::new_unchecked(self.min_lat, self.min_lon);
        let se = GeoPoint::new_unchecked(self.min_lat, self.max_lon);
        let nw = GeoPoint::new_unchecked(self.max_lat, self.min_lon);
        (sw.haversine_km(&se), sw.haversine_km(&nw))
    }

    /// Lower bound on the distance from `p` to any point in the box, in
    /// kilometres (0 if `p` is inside). Used for best-first kNN search.
    #[must_use]
    pub fn min_distance_km(&self, p: &GeoPoint) -> f64 {
        let clamped = GeoPoint::new_unchecked(
            p.lat.clamp(self.min_lat, self.max_lat),
            p.lon.clamp(self.min_lon, self.max_lon),
        );
        p.haversine_km(&clamped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn new_rejects_inverted() {
        assert!(BoundingBox::new(1.0, 0.0, 0.0, 1.0).is_err());
        assert!(BoundingBox::new(0.0, 1.0, 1.0, 0.0).is_err());
        assert!(BoundingBox::new(0.0, 0.0, 0.0, 0.0).is_ok());
    }

    #[test]
    fn from_center_km_has_requested_extent() {
        let c = p(39.9526, -75.1652); // Philadelphia
        let b = BoundingBox::from_center_km(c, 5.0, 5.0);
        let (w, h) = b.extent_km();
        assert!((w - 5.0).abs() < 0.05, "w={w}");
        assert!((h - 5.0).abs() < 0.05, "h={h}");
        assert!(b.contains(&c));
    }

    #[test]
    fn contains_edges_inclusive() {
        let b = BoundingBox::new(0.0, 0.0, 1.0, 1.0).unwrap();
        assert!(b.contains(&p(0.0, 0.0)));
        assert!(b.contains(&p(1.0, 1.0)));
        assert!(b.contains(&p(0.5, 0.5)));
        assert!(!b.contains(&p(1.0001, 0.5)));
        assert!(!b.contains(&p(0.5, -0.0001)));
    }

    #[test]
    fn intersects_cases() {
        let a = BoundingBox::new(0.0, 0.0, 2.0, 2.0).unwrap();
        let b = BoundingBox::new(1.0, 1.0, 3.0, 3.0).unwrap();
        let c = BoundingBox::new(2.0, 2.0, 3.0, 3.0).unwrap(); // corner touch
        let d = BoundingBox::new(5.0, 5.0, 6.0, 6.0).unwrap();
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(a.intersects(&c));
        assert!(!a.intersects(&d));
    }

    #[test]
    fn contains_box_cases() {
        let outer = BoundingBox::new(0.0, 0.0, 10.0, 10.0).unwrap();
        let inner = BoundingBox::new(1.0, 1.0, 2.0, 2.0).unwrap();
        let overlapping = BoundingBox::new(9.0, 9.0, 11.0, 11.0).unwrap();
        assert!(outer.contains_box(&inner));
        assert!(outer.contains_box(&outer));
        assert!(!outer.contains_box(&overlapping));
        assert!(!inner.contains_box(&outer));
    }

    #[test]
    fn union_and_enlargement() {
        let a = BoundingBox::new(0.0, 0.0, 1.0, 1.0).unwrap();
        let b = BoundingBox::new(2.0, 2.0, 3.0, 3.0).unwrap();
        let u = a.union(&b);
        assert_eq!(u, BoundingBox::new(0.0, 0.0, 3.0, 3.0).unwrap());
        assert!((a.enlargement_deg2(&b) - (9.0 - 1.0)).abs() < 1e-12);
        assert_eq!(a.enlargement_deg2(&a), 0.0);
    }

    #[test]
    fn enclosing_points() {
        let pts = [p(1.0, 2.0), p(-1.0, 5.0), p(0.0, 0.0)];
        let b = BoundingBox::enclosing(&pts).unwrap();
        assert_eq!(b, BoundingBox::new(-1.0, 0.0, 1.0, 5.0).unwrap());
        assert!(BoundingBox::enclosing(&[]).is_none());
    }

    #[test]
    fn min_distance_zero_inside_positive_outside() {
        let b = BoundingBox::from_center_km(p(38.627, -90.1994), 5.0, 5.0);
        assert_eq!(b.min_distance_km(&b.center()), 0.0);
        let far = b.center().offset_km(10.0, 0.0);
        let d = b.min_distance_km(&far);
        assert!((d - 7.5).abs() < 0.1, "got {d}"); // 10 km - half-height 2.5 km
    }

    #[test]
    fn area_is_in_square_degrees() {
        let b = BoundingBox::new(0.0, 0.0, 2.0, 3.0).unwrap();
        assert!((b.area_deg2() - 6.0).abs() < 1e-12);
    }
}
