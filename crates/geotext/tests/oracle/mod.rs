//! The value-tree path the refinement prompt's JSON used to take, kept
//! as the oracle for `GeoTextObject::write_json`: a `serde_json::Map`
//! of the attributes, then `latitude` and `longitude` from the location,
//! printed by `serde_json::to_string`.
//!
//! Shared by `crates/geotext/tests/json_oracle.rs` and the root
//! package's `tests/refinement_prompt.rs`.

use geotext::{AttributeValue, GeoTextObject};
use serde_json::{json, Map, Value};

fn value_of(v: &AttributeValue) -> Value {
    match v {
        AttributeValue::Text(s) => Value::String(s.clone()),
        AttributeValue::Number(n) => json!(n),
        AttributeValue::Integer(i) => json!(i),
        AttributeValue::Bool(b) => Value::Bool(*b),
        AttributeValue::List(items) => json!(items),
        AttributeValue::Map(m) => json!(m),
    }
}

/// The object as the value tree the prompt was printed from.
pub fn tree_of(o: &GeoTextObject) -> Value {
    let mut map = Map::new();
    for (k, v) in o.attrs.iter() {
        map.insert(k.to_owned(), value_of(v));
    }
    map.insert("latitude".to_owned(), json!(o.location.lat));
    map.insert("longitude".to_owned(), json!(o.location.lon));
    Value::Object(map)
}

/// The bytes the old path wrote for `o`.
pub fn json_of(o: &GeoTextObject) -> String {
    serde_json::to_string(&tree_of(o)).expect("a value tree always prints")
}
