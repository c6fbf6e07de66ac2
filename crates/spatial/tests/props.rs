//! Property-based tests: the grid agrees with a brute-force scan on
//! arbitrary point sets and query boxes.

use geotext::{BoundingBox, GeoPoint, ObjectId};
use proptest::prelude::*;
use spatial::{GridIndex, Item};

fn arb_items(max: usize) -> impl Strategy<Value = Vec<Item>> {
    prop::collection::vec((30.0f64..31.0, -91.0f64..-90.0), 1..max).prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (lat, lon))| Item::new(ObjectId(i as u32), GeoPoint::new(lat, lon).unwrap()))
            .collect()
    })
}

fn arb_box() -> impl Strategy<Value = BoundingBox> {
    (30.0f64..31.0, -91.0f64..-90.0, 0.001f64..0.5, 0.001f64..0.5).prop_map(|(lat, lon, dh, dw)| {
        BoundingBox::new(lat, lon, (lat + dh).min(31.0), (lon + dw).min(-90.0)).unwrap()
    })
}

fn brute_range(items: &[Item], range: &BoundingBox) -> Vec<ObjectId> {
    let mut v: Vec<ObjectId> = items
        .iter()
        .filter(|i| range.contains(&i.point))
        .map(|i| i.id)
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_matches_rtree(items in arb_items(200), range in arb_box()) {
        let g = GridIndex::build(items.clone(), 8).unwrap();
        let mut got = g.range_query(&range);
        got.sort();
        prop_assert_eq!(got, brute_range(&items, &range));
    }
}
