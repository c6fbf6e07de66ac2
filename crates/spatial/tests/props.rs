//! Property-based tests: the grid and the IR-tree agree with a
//! brute-force scan on arbitrary point sets, query boxes and keywords.

use std::collections::HashSet;

use geotext::{BoundingBox, Dataset, GeoPoint, GeoTextObject, ObjectId};
use proptest::prelude::*;
use spatial::{GridIndex, IrTree, Item, SpatialKeywordQuery};
use textindex::Tokenizer;

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

/// POIs whose tips draw on a four-letter alphabet, so conjunctions of
/// several words often match.
fn arb_dataset(max: usize) -> impl Strategy<Value = Dataset> {
    let poi = (
        30.0f64..31.0,
        -91.0f64..-90.0,
        prop::collection::vec("[a-d]{2,3}", 1..8),
    );
    prop::collection::vec(poi, 1..max).prop_map(|pois| {
        let mut d = Dataset::new("props");
        for (lat, lon, words) in pois {
            d.push(|id| {
                GeoTextObject::builder(id, GeoPoint::new(lat, lon).unwrap())
                    .attr("name", format!("poi {}", id.0))
                    .attr("tips", vec![words.join(" ")])
                    .build()
                    .unwrap()
            });
        }
        d
    })
}

/// Up to three keywords, about one in five `zq…`, which no document of
/// [`arb_dataset`] holds.
fn arb_keywords() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..5, "[a-d]{2,3}"), 0..4).prop_map(|ws| {
        ws.into_iter()
            .map(|(unknown, w)| if unknown == 0 { format!("zq{w}") } else { w })
            .collect::<Vec<_>>()
            .join(" ")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn irtree_search_matches_brute_force(
        dataset in arb_dataset(300),
        range in arb_box(),
        keywords in arb_keywords(),
        fanout in 2usize..12,
    ) {
        let tree = IrTree::build_with_fanout(&dataset, fanout);
        let t = Tokenizer::new();
        let wanted = t.tokenize(&keywords);
        // In range, and the document holds every token: an unknown token
        // empties the answer, blank keywords keep everything in range.
        let want: Vec<ObjectId> = dataset
            .iter()
            .filter(|o| range.contains(&o.location))
            .filter(|o| {
                let held: HashSet<String> = t.tokenize(&o.to_document()).into_iter().collect();
                wanted.iter().all(|w| held.contains(w))
            })
            .map(|o| o.id)
            .collect();
        let got = tree.search(&SpatialKeywordQuery { range, keywords: keywords.clone() });
        prop_assert_eq!(got, want, "keywords {:?}", keywords);
    }
}
