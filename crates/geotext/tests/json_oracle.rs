//! `GeoTextObject::write_json` against the value-tree path it replaced:
//! the same bytes for hostile objects.

mod oracle;

use std::collections::BTreeMap;

use geotext::{AttributeSet, AttributeValue, GeoPoint, GeoTextObject, ObjectId};
use proptest::prelude::*;

/// SplitMix64: each object below is drawn from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Quotes, backslashes, every control character, DEL, non-ASCII and
    /// astral text, and any scalar value.
    fn char(&mut self) -> char {
        const SPECIAL: &[char] = &[
            '"',
            '\\',
            '/',
            '\u{7f}',
            'é',
            '\u{2028}',
            '🦀',
            '\u{10ffff}',
        ];
        match self.below(4) {
            0 => char::from(self.below(0x20) as u8),
            1 => SPECIAL[self.below(SPECIAL.len())],
            2 => loop {
                if let Some(c) = char::from_u32(self.next() as u32 % 0x11_0000) {
                    break c;
                }
            },
            _ => char::from(b' ' + self.below(95) as u8),
        }
    }

    fn string(&mut self) -> String {
        (0..self.below(12)).map(|_| self.char()).collect()
    }

    fn float(&mut self) -> f64 {
        const FLOATS: &[f64] = &[
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324,
            1e-7,
            1e16,
            1e21,
            36.162649,
        ];
        if self.below(3) == 0 {
            f64::from_bits(self.next())
        } else {
            FLOATS[self.below(FLOATS.len())]
        }
    }

    fn value(&mut self) -> AttributeValue {
        match self.below(6) {
            0 => AttributeValue::Text(self.string()),
            1 => AttributeValue::Number(self.float()),
            2 => AttributeValue::Integer(match self.below(4) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => self.next() as i64,
            }),
            3 => AttributeValue::Bool(self.below(2) == 0),
            4 => AttributeValue::List((0..self.below(4)).map(|_| self.string()).collect()),
            _ => AttributeValue::Map(
                (0..self.below(4))
                    .map(|_| (self.string(), self.string()))
                    .collect::<BTreeMap<_, _>>(),
            ),
        }
    }

    fn key(&mut self) -> String {
        match self.below(6) {
            0 => "latitude".to_owned(),
            1 => "longitude".to_owned(),
            2 => "name".to_owned(),
            _ => self.string(),
        }
    }

    fn object(&mut self) -> GeoTextObject {
        let mut attrs = AttributeSet::new();
        for _ in 0..self.below(8) {
            let key = self.key();
            let value = self.value();
            attrs.set(key, value);
        }
        GeoTextObject {
            id: ObjectId(self.next() as u32),
            location: GeoPoint {
                lat: self.float(),
                lon: self.float(),
            },
            attrs,
        }
    }
}

fn written(o: &GeoTextObject) -> String {
    let mut out = String::new();
    o.write_json(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn write_json_writes_the_value_trees_bytes(seed in 0u64..u64::MAX) {
        let o = Rng(seed).object();
        prop_assert_eq!(written(&o), oracle::json_of(&o), "{:?}", o);
    }
}

#[test]
fn empty_lists_maps_and_sets_match() {
    let mut attrs = AttributeSet::new();
    attrs.set("list", AttributeValue::List(Vec::new()));
    attrs.set("map", AttributeValue::Map(BTreeMap::new()));
    attrs.set("", "");
    let o = GeoTextObject {
        id: ObjectId(0),
        location: GeoPoint {
            lat: -0.0,
            lon: f64::NAN,
        },
        attrs,
    };
    assert_eq!(written(&o), oracle::json_of(&o));
    let bare = GeoTextObject {
        attrs: AttributeSet::new(),
        ..o
    };
    assert_eq!(written(&bare), oracle::json_of(&bare));
}

#[test]
fn json_array_joins_objects() {
    let mut rng = Rng(7);
    let objects: Vec<GeoTextObject> = (0..5).map(|_| rng.object()).collect();
    let expected = format!(
        "[{}]",
        objects
            .iter()
            .map(oracle::json_of)
            .collect::<Vec<_>>()
            .join(",")
    );
    assert_eq!(geotext::json_array(&objects), expected);
    assert_eq!(geotext::json_array(&objects[..0]), "[]");
}
