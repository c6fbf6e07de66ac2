//! The JSON text of an object, written straight from its fields.
//!
//! The refinement prompt carries each candidate's raw attributes "in JSON
//! format" (paper Section 3.2), and `datagen`'s JSONL export writes the
//! same text. Both call [`crate::GeoTextObject::write_json`], which
//! writes into a caller's buffer ([`json_array`] for the prompt's array):
//! no value tree is built on the way.

use std::fmt::Write as _;

use crate::attr::AttributeValue;
use crate::object::GeoTextObject;

/// The JSON array of `objects`, each as [`GeoTextObject::write_json`]
/// writes it, separated by commas — the refinement prompt's
/// `Information:` section. The buffer is sized once the first object is
/// written: the rest are taken to be about as long.
#[must_use]
pub fn json_array<'a>(objects: impl IntoIterator<Item = &'a GeoTextObject>) -> String {
    let mut objects = objects.into_iter();
    let mut out = String::from("[");
    if let Some(first) = objects.next() {
        first.write_json(&mut out);
        out.reserve(out.len() * objects.size_hint().0 + 1);
        for o in objects {
            out.push(',');
            o.write_json(&mut out);
        }
    }
    out.push(']');
    out
}

/// One member of an object's JSON: an attribute, or a coordinate.
enum Member<'a> {
    Attr(&'a AttributeValue),
    Coord(f64),
}

impl GeoTextObject {
    /// Appends the object's JSON to `out`: every attribute plus
    /// `latitude` and `longitude` taken from [`GeoTextObject::location`],
    /// as one object on one line. The bytes are fixed:
    ///
    /// - keys in byte order; `latitude` / `longitude` replace attributes
    ///   of those names, and of two attributes with one key the later is
    ///   written;
    /// - a finite float as Rust's `{:?}` (shortest round trip, always
    ///   with a fraction or an exponent), a non-finite one as `null`, an
    ///   integer in decimal, a boolean as `true` / `false`;
    /// - a list as an array of strings, a map as an object of strings,
    ///   keys in byte order;
    /// - strings escaped as `\"`, `\\`, `\n`, `\r`, `\t`, `\b`, `\f`, and
    ///   `\u00xx` (lower-case hex) for any other control character below
    ///   U+0020; every other character, non-ASCII included, as itself;
    /// - no whitespace.
    pub fn write_json(&self, out: &mut String) {
        let mut members: Vec<(&str, Member<'_>)> = Vec::with_capacity(self.attrs.len() + 2);
        members.extend(
            self.attrs
                .iter()
                .filter(|&(k, _)| k != "latitude" && k != "longitude")
                .map(|(k, v)| (k, Member::Attr(v))),
        );
        members.push(("latitude", Member::Coord(self.location.lat)));
        members.push(("longitude", Member::Coord(self.location.lon)));
        // Stable, so of equal keys the later stays later and is kept.
        members.sort_by(|a, b| a.0.cmp(b.0));
        out.push('{');
        let mut first = true;
        for (i, (key, member)) in members.iter().enumerate() {
            if members.get(i + 1).is_some_and(|next| next.0 == *key) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            write_str(key, out);
            out.push(':');
            match member {
                Member::Attr(v) => write_value(v, out),
                Member::Coord(x) => write_f64(*x, out),
            }
        }
        out.push('}');
    }
}

fn write_value(v: &AttributeValue, out: &mut String) {
    match v {
        AttributeValue::Text(s) => write_str(s, out),
        AttributeValue::Number(n) => write_f64(*n, out),
        AttributeValue::Integer(i) => {
            let _ = write!(out, "{i}");
        }
        AttributeValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        AttributeValue::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(item, out);
            }
            out.push(']');
        }
        AttributeValue::Map(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_str(v, out);
            }
            out.push('}');
        }
    }
}

fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a JSON string, copying each run of bytes that needs no
/// escape as one slice: one scan finds where the run stops.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    while let Some(n) = bytes[run..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
    {
        // Every byte that stops the run is ASCII, so both cuts fall on
        // character boundaries.
        let at = run + n;
        out.push_str(&s[run..at]);
        match bytes[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use crate::{GeoPoint, GeoTextObject, ObjectId};

    fn json_of(o: &GeoTextObject) -> String {
        let mut out = String::new();
        o.write_json(&mut out);
        out
    }

    #[test]
    fn write_json_round_trips_types() {
        let o = GeoTextObject::builder(ObjectId(0), GeoPoint::new(1.0, -2.5).unwrap())
            .attr("name", "X")
            .attr("stars", 4.5)
            .attr("tip_count", 10i64)
            .attr("is_open", true)
            .build()
            .unwrap();
        let j: serde_json::Value = serde_json::from_str(&json_of(&o)).unwrap();
        assert_eq!(j["name"], "X");
        assert_eq!(j["stars"], 4.5);
        assert_eq!(j["tip_count"], 10);
        assert_eq!(j["is_open"], true);
        assert_eq!(j["latitude"], 1.0);
        assert_eq!(j["longitude"], -2.5);
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let o = GeoTextObject::builder(ObjectId(0), GeoPoint::new(0.0, 0.0).unwrap())
            .attr("name", "a\"b\\c\nd\u{1}e\u{8}\u{c}\u{7f}é🦀")
            .build()
            .unwrap();
        assert_eq!(
            json_of(&o),
            "{\"latitude\":0.0,\"longitude\":0.0,\
             \"name\":\"a\\\"b\\\\c\\nd\\u0001e\\b\\f\u{7f}é🦀\"}"
        );
    }

    #[test]
    fn coordinates_replace_attributes_of_their_names() {
        let o = GeoTextObject::builder(ObjectId(0), GeoPoint::new(3.0, 4.0).unwrap())
            .attr("longitude", "far east")
            .attr("name", "N")
            .attr("latitude", 99i64)
            .build()
            .unwrap();
        assert_eq!(
            json_of(&o),
            "{\"latitude\":3.0,\"longitude\":4.0,\"name\":\"N\"}"
        );
    }
}
