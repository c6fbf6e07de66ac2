//! Point positions and the geo filter.
//!
//! SemaSK keeps every attribute of a POI in its `Dataset`; the vector
//! store keeps only what a query range reads: one `(lat, lon)` pair of
//! `f64` per point, Qdrant's typed geo payload field. `PayloadStore` is
//! that column and the one evaluator of a [`Filter`], whose one variant
//! is [`Filter::GeoBoundingBox`], SemaSK's query range.

use crate::codec::{corrupt, Reader, Writer};
use crate::error::VecDbError;

/// A filter over stored positions.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Filter {
    /// The point's position must fall inside the box (edges inclusive).
    /// Qdrant's `geo_bounding_box` condition.
    GeoBoundingBox {
        /// Southern edge.
        min_lat: f64,
        /// Western edge.
        min_lon: f64,
        /// Northern edge.
        max_lat: f64,
        /// Eastern edge.
        max_lon: f64,
    },
}

impl Filter {
    /// The geo filter: positions inside the box, edges inclusive.
    #[must_use]
    pub fn geo_box(min_lat: f64, min_lon: f64, max_lat: f64, max_lon: f64) -> Self {
        Filter::GeoBoundingBox {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        }
    }
}

/// The position column: `geo[o]` is the `(lat, lon)` of offset `o`,
/// both finite — [`crate::Collection::insert`] refuses anything else,
/// and so does the snapshot reader.
///
/// **Packed** (the snapshot's meta section), the column is one block of
/// `f64` pairs, as many as the collection has points; the count is the
/// collection's, not stored again.
#[derive(Debug, Clone, Default)]
pub(crate) struct PayloadStore {
    geo: Vec<[f64; 2]>,
}

impl PayloadStore {
    /// Appends a position [`checked`] has passed.
    pub(crate) fn push(&mut self, position: [f64; 2]) {
        self.geo.push(position);
    }

    /// The `(lat, lon)` stored at `offset`.
    pub(crate) fn position(&self, offset: usize) -> (f64, f64) {
        let [lat, lon] = self.geo[offset];
        (lat, lon)
    }

    /// Whether each offset's position lies inside `filter`'s box, in
    /// offset order: one pass over a flat array of `f64` pairs.
    pub(crate) fn mask(&self, filter: &Filter) -> Vec<bool> {
        self.geo.iter().map(|&p| in_box(p, filter)).collect()
    }

    /// Heap bytes: 16 a point.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.geo.len() * std::mem::size_of::<[f64; 2]>()
    }

    /// Appends the column to a snapshot section: every `(lat, lon)` as
    /// `f64` bits, in offset order.
    pub(crate) fn pack(&self, w: &mut Writer) {
        w.f64s(self.geo.as_flattened());
    }

    /// Reads back the `n` positions [`PayloadStore::pack`] wrote,
    /// refusing a coordinate `push` would have refused.
    pub(crate) fn unpack(r: &mut Reader<'_>, n: usize) -> Result<Self, VecDbError> {
        let flat = r.f64s(n.checked_mul(2).ok_or_else(|| corrupt("position count"))?)?;
        let mut geo = Vec::with_capacity(n);
        for (o, p) in flat.chunks_exact(2).enumerate() {
            let p = checked((p[0], p[1]))
                .map_err(|_| corrupt(format!("the position of offset {o} is not finite")))?;
            geo.push(p);
        }
        Ok(Self { geo })
    }
}

/// `(lat, lon)` as a column entry, if both are finite.
pub(crate) fn checked((lat, lon): (f64, f64)) -> Result<[f64; 2], VecDbError> {
    if lat.is_finite() && lon.is_finite() {
        Ok([lat, lon])
    } else {
        Err(VecDbError::NonFinitePosition)
    }
}

/// The geo verdict: whether a position lies inside `filter`'s box,
/// edges included. A NaN edge fails every comparison.
#[inline]
fn in_box([lat, lon]: [f64; 2], filter: &Filter) -> bool {
    let Filter::GeoBoundingBox {
        min_lat,
        min_lon,
        max_lat,
        max_lon,
    } = filter;
    lat >= *min_lat && lat <= *max_lat && lon >= *min_lon && lon <= *max_lon
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `filter`'s verdict on `position` once stored.
    fn holds(filter: &Filter, position: (f64, f64)) -> bool {
        let mut s = PayloadStore::default();
        s.push(checked(position).unwrap());
        s.mask(filter)[0]
    }

    #[test]
    fn geo_box_inclusive_edges() {
        let f = Filter::geo_box(0.0, 0.0, 1.0, 1.0);
        assert!(holds(&f, (0.0, 0.0)));
        assert!(holds(&f, (1.0, 1.0)));
        assert!(holds(&f, (-0.0, -0.0)));
        assert!(!holds(&f, (1.00001, 0.5)));
    }

    #[test]
    fn a_position_that_is_not_finite_is_refused() {
        for bad in [
            (f64::NAN, 0.0),
            (0.0, f64::NAN),
            (f64::INFINITY, 0.0),
            (0.0, f64::NEG_INFINITY),
        ] {
            assert_eq!(checked(bad), Err(VecDbError::NonFinitePosition), "{bad:?}");
        }
        assert!(checked((-0.0, -1e308)).is_ok());
    }

    /// `store` packed, and read back from those bytes.
    fn repack(store: &PayloadStore) -> (Vec<u8>, Result<PayloadStore, VecDbError>) {
        let mut w = Writer::plain(0);
        store.pack(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::over(&bytes);
        let n = store.geo.len();
        let back = PayloadStore::unpack(&mut r, n).and_then(|s| r.finish().map(|()| s));
        (bytes, back)
    }

    #[test]
    fn packed_store_round_trip() {
        let mut s = PayloadStore::default();
        for i in 0..100 {
            s.push([i as f64 * 0.01, -(i as f64) * 0.01]);
        }
        s.push([-0.0, f64::MAX]);
        let (bytes, back) = repack(&s);
        let back = back.unwrap();
        let n = s.geo.len();
        assert_eq!(bytes.len(), 16 * n);
        assert_eq!(back.geo.len(), n);
        for o in 0..n {
            let bits = |(lat, lon): (f64, f64)| (lat.to_bits(), lon.to_bits());
            assert_eq!(bits(back.position(o)), bits(s.position(o)), "offset {o}");
        }
        assert_eq!(back.memory_bytes(), s.memory_bytes());
        assert_eq!(s.memory_bytes(), 16 * n);
    }

    #[test]
    fn a_packed_position_that_is_not_finite_is_refused() {
        let mut s = PayloadStore::default();
        s.push([0.5, 0.5]);
        s.push([0.25, -0.25]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in 0..4 {
                let mut damaged = s.clone();
                damaged.geo[at / 2][at % 2] = bad;
                assert!(repack(&damaged).1.is_err(), "{bad} at coordinate {at}");
            }
        }
        assert!(repack(&s).1.is_ok());
    }

    fn hostile_bound(pick: usize, x: f64) -> f64 {
        match pick {
            0 => x,
            1 => -0.0,
            2 => 0.0,
            3 => 1.0,
            4 => -1.0,
            5 => 1e308,
            6 => -1e308,
            7 => f64::NAN,
            8 => f64::INFINITY,
            9 => f64::NEG_INFINITY,
            10 => 180.0,
            _ => -180.0,
        }
    }
    const HOSTILE_BOUNDS: usize = 12;

    fn hostile_coordinate(pick: usize, x: f64) -> f64 {
        match pick {
            0 => -0.0,
            1 => 0.0,
            2 => 1e308,
            3 => -f64::MIN_POSITIVE,
            _ => x,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The column gives every position the verdict of the box
        /// compared against the position that was pushed — on boxes with
        /// a stored position on their edges, inverted and NaN-edged
        /// boxes among them — before and after a trip through the packed
        /// form, which re-packs to the same bytes.
        #[test]
        fn the_column_answers_like_the_positions_it_was_given(
            positions in prop::collection::vec(
                ((0usize..8, -1.0f64..1.0), (0usize..8, -1.0f64..1.0)),
                1..40,
            ),
            boxes in prop::collection::vec(
                prop::collection::vec((0..HOSTILE_BOUNDS, -1.0f64..1.0), 4),
                1..6,
            ),
        ) {
            let positions: Vec<(f64, f64)> = positions
                .into_iter()
                .map(|((a, x), (b, y))| (hostile_coordinate(a, x), hostile_coordinate(b, y)))
                .collect();
            let mut filters = vec![Filter::geo_box(-90.0, -180.0, 90.0, 180.0)];
            for &(lat, lon) in positions.iter().take(4) {
                filters.push(Filter::geo_box(lat, lon, lat, lon));
                filters.push(Filter::geo_box(f64::NEG_INFINITY, -180.0, lat, lon));
                filters.push(Filter::geo_box(lat, lon, 90.0, f64::INFINITY));
            }
            for b in &boxes {
                let [s, w, n, e] = [0, 1, 2, 3].map(|i| hostile_bound(b[i].0, b[i].1));
                filters.push(Filter::geo_box(s, w, n, e));
            }
            let mut store = PayloadStore::default();
            for &p in &positions {
                store.push(checked(p).unwrap());
            }
            let (bytes, back) = repack(&store);
            let back = back.unwrap();
            for s in [&store, &back] {
                for f in &filters {
                    let Filter::GeoBoundingBox { min_lat, min_lon, max_lat, max_lon } = *f;
                    let want: Vec<bool> = positions
                        .iter()
                        .map(|&(lat, lon)| {
                            min_lat <= lat && lat <= max_lat && min_lon <= lon && lon <= max_lon
                        })
                        .collect();
                    prop_assert_eq!(s.mask(f), want, "filter {:?}", f);
                }
            }
            prop_assert!(repack(&back).0 == bytes);
        }
    }
}
