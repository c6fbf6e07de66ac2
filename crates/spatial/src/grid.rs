//! A uniform grid index over point data.
//!
//! The simplest possible spatial index: partition the data's bounding box
//! into `res × res` cells and keep a bucket per cell. It is the range
//! prefilter of the planner's grid strategy and of the keyword
//! baselines; its tests check it against a linear scan.

use geotext::{BoundingBox, GeoPoint, ObjectId};

use crate::error::SpatialError;
use crate::Item;

/// A fixed-resolution uniform grid.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bounds: BoundingBox,
    res: usize,
    cells: Vec<Vec<Item>>,
    len: usize,
}

impl GridIndex {
    /// Builds a grid with `res × res` cells covering `items`.
    pub fn build(items: Vec<Item>, res: usize) -> Result<Self, SpatialError> {
        if res == 0 {
            return Err(SpatialError::ZeroResolution);
        }
        let bounds = BoundingBox::enclosing(&items.iter().map(|i| i.point).collect::<Vec<_>>())
            .unwrap_or(BoundingBox {
                min_lat: 0.0,
                min_lon: 0.0,
                max_lat: 0.0,
                max_lon: 0.0,
            });
        let mut grid = Self {
            bounds,
            res,
            cells: vec![Vec::new(); res * res],
            len: 0,
        };
        for item in items {
            grid.insert(item);
        }
        Ok(grid)
    }

    /// Number of items stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn cell_of(&self, p: &GeoPoint) -> (usize, usize) {
        let lat_span = (self.bounds.max_lat - self.bounds.min_lat).max(f64::EPSILON);
        let lon_span = (self.bounds.max_lon - self.bounds.min_lon).max(f64::EPSILON);
        let r = ((p.lat - self.bounds.min_lat) / lat_span * self.res as f64) as isize;
        let c = ((p.lon - self.bounds.min_lon) / lon_span * self.res as f64) as isize;
        (
            r.clamp(0, self.res as isize - 1) as usize,
            c.clamp(0, self.res as isize - 1) as usize,
        )
    }

    /// Inserts an item. Points outside the original bounds are clamped
    /// into the boundary cells (the grid does not regrow).
    pub fn insert(&mut self, item: Item) {
        let (r, c) = self.cell_of(&item.point);
        self.cells[r * self.res + c].push(item);
        self.len += 1;
    }

    /// The inclusive cell-index window `(r0, c0, r1, c1)` a range
    /// touches, or `None` when the range misses the grid's bounds. The
    /// single source of truth for range → cell mapping, shared by
    /// [`GridIndex::range_query`] and [`GridIndex::estimate_range_count`].
    fn cell_window(&self, range: &BoundingBox) -> Option<(usize, usize, usize, usize)> {
        if self.len == 0 || !range.intersects(&self.bounds) {
            return None;
        }
        let lo = GeoPoint::new_unchecked(
            range
                .min_lat
                .clamp(self.bounds.min_lat, self.bounds.max_lat),
            range
                .min_lon
                .clamp(self.bounds.min_lon, self.bounds.max_lon),
        );
        let hi = GeoPoint::new_unchecked(
            range
                .max_lat
                .clamp(self.bounds.min_lat, self.bounds.max_lat),
            range
                .max_lon
                .clamp(self.bounds.min_lon, self.bounds.max_lon),
        );
        let (r0, c0) = self.cell_of(&lo);
        let (r1, c1) = self.cell_of(&hi);
        Some((r0, c0, r1, c1))
    }

    /// All items whose point lies inside `range`.
    #[must_use]
    pub fn range_query(&self, range: &BoundingBox) -> Vec<ObjectId> {
        let Some((r0, c0, r1, c1)) = self.cell_window(range) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for r in r0..=r1 {
            for c in c0..=c1 {
                for item in &self.cells[r * self.res + c] {
                    if range.contains(&item.point) {
                        out.push(item.id);
                    }
                }
            }
        }
        out
    }

    /// Estimates how many items fall inside `range` from per-cell
    /// cardinalities alone, without touching the items.
    ///
    /// Cells fully covered by `range` contribute their whole count;
    /// boundary cells contribute proportionally to the overlapped cell
    /// area (a uniformity assumption within each cell). This is the
    /// selectivity estimate a query planner uses to choose a filtering
    /// strategy — O(cells intersected), independent of item count.
    #[must_use]
    pub fn estimate_range_count(&self, range: &BoundingBox) -> f64 {
        let Some((r0, c0, r1, c1)) = self.cell_window(range) else {
            return 0.0;
        };
        let lat_span = (self.bounds.max_lat - self.bounds.min_lat).max(f64::EPSILON);
        let lon_span = (self.bounds.max_lon - self.bounds.min_lon).max(f64::EPSILON);
        let cell_h = lat_span / self.res as f64;
        let cell_w = lon_span / self.res as f64;
        let mut estimate = 0.0;
        for r in r0..=r1 {
            let cell_min_lat = self.bounds.min_lat + r as f64 * cell_h;
            let lat_overlap = (range.max_lat.min(cell_min_lat + cell_h)
                - range.min_lat.max(cell_min_lat))
            .clamp(0.0, cell_h);
            for c in c0..=c1 {
                let count = self.cells[r * self.res + c].len();
                if count == 0 {
                    continue;
                }
                let cell_min_lon = self.bounds.min_lon + c as f64 * cell_w;
                let lon_overlap = (range.max_lon.min(cell_min_lon + cell_w)
                    - range.min_lon.max(cell_min_lon))
                .clamp(0.0, cell_w);
                let fraction = (lat_overlap / cell_h) * (lon_overlap / cell_w);
                estimate += count as f64 * fraction;
            }
        }
        estimate
    }

    /// Number of grid cells a range query over `range` would touch — the
    /// probe cost a query planner charges the grid-prefilter strategy
    /// (0 when the range misses the grid's bounds entirely).
    #[must_use]
    pub fn covered_cells(&self, range: &BoundingBox) -> usize {
        match self.cell_window(range) {
            Some((r0, c0, r1, c1)) => (r1 - r0 + 1) * (c1 - c0 + 1),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: u32, lat: f64, lon: f64) -> Item {
        Item::new(ObjectId(id), GeoPoint::new(lat, lon).unwrap())
    }

    #[test]
    fn zero_resolution_rejected() {
        assert!(GridIndex::build(vec![], 0).is_err());
    }

    #[test]
    fn empty_grid() {
        let g = GridIndex::build(vec![], 4).unwrap();
        assert!(g.is_empty());
        let r = BoundingBox::new(0.0, 0.0, 1.0, 1.0).unwrap();
        assert!(g.range_query(&r).is_empty());
    }

    #[test]
    fn range_query_matches_filter() {
        let items: Vec<Item> = (0..100)
            .map(|i| {
                item(
                    i,
                    40.0 + (i / 10) as f64 * 0.01,
                    -75.0 + (i % 10) as f64 * 0.01,
                )
            })
            .collect();
        let g = GridIndex::build(items.clone(), 5).unwrap();
        let range = BoundingBox::new(40.02, -74.97, 40.06, -74.93).unwrap();
        let mut got = g.range_query(&range);
        got.sort();
        let mut want: Vec<ObjectId> = items
            .iter()
            .filter(|i| range.contains(&i.point))
            .map(|i| i.id)
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn query_outside_bounds_is_empty() {
        let items = vec![item(0, 40.0, -75.0)];
        let g = GridIndex::build(items, 4).unwrap();
        let r = BoundingBox::new(10.0, 10.0, 11.0, 11.0).unwrap();
        assert!(g.range_query(&r).is_empty());
    }

    #[test]
    fn estimate_tracks_true_count_on_uniform_data() {
        let items: Vec<Item> = (0..400)
            .map(|i| {
                item(
                    i,
                    40.0 + (i / 20) as f64 * 0.01,
                    -75.0 + (i % 20) as f64 * 0.01,
                )
            })
            .collect();
        let g = GridIndex::build(items.clone(), 8).unwrap();
        for (range, _label) in [
            (
                BoundingBox::new(40.0, -75.0, 40.05, -74.95).unwrap(),
                "small",
            ),
            (
                BoundingBox::new(40.02, -74.98, 40.15, -74.85).unwrap(),
                "mid",
            ),
            (BoundingBox::new(39.9, -75.1, 40.3, -74.7).unwrap(), "all"),
        ] {
            let truth = items.iter().filter(|i| range.contains(&i.point)).count() as f64;
            let est = g.estimate_range_count(&range);
            // Within half the items or 35% relative — a planner-grade
            // estimate, not an exact count.
            assert!(
                (est - truth).abs() <= (truth * 0.35).max(8.0),
                "estimate {est} vs truth {truth} for {range:?}"
            );
        }
    }

    #[test]
    fn covered_cells_counts_window() {
        let items: Vec<Item> = (0..100)
            .map(|i| {
                item(
                    i,
                    40.0 + (i / 10) as f64 * 0.01,
                    -75.0 + (i % 10) as f64 * 0.01,
                )
            })
            .collect();
        let g = GridIndex::build(items, 5).unwrap();
        // The whole data extent touches every cell.
        let all = BoundingBox::new(39.9, -75.1, 40.2, -74.8).unwrap();
        assert_eq!(g.covered_cells(&all), 25);
        // A miss touches none.
        let far = BoundingBox::new(10.0, 10.0, 11.0, 11.0).unwrap();
        assert_eq!(g.covered_cells(&far), 0);
        // A sub-range touches a proper sub-window.
        let some = BoundingBox::new(40.0, -75.0, 40.04, -74.96).unwrap();
        let cells = g.covered_cells(&some);
        assert!((1..25).contains(&cells), "window of {cells} cells");
    }

    #[test]
    fn estimate_zero_outside_bounds() {
        let g = GridIndex::build(vec![item(0, 40.0, -75.0)], 4).unwrap();
        let far = BoundingBox::new(10.0, 10.0, 11.0, 11.0).unwrap();
        assert_eq!(g.estimate_range_count(&far), 0.0);
    }

    #[test]
    fn single_point_dataset() {
        let g = GridIndex::build(vec![item(3, 1.0, 2.0)], 8).unwrap();
        let r = BoundingBox::new(0.5, 1.5, 1.5, 2.5).unwrap();
        assert_eq!(g.range_query(&r), vec![ObjectId(3)]);
    }
}
