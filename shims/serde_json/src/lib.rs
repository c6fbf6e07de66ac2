//! Minimal vendored stand-in for the `serde_json` crate.
//!
//! Provides the subset this workspace uses: the [`Value`] tree, the
//! [`json!`] macro, [`Map`], and the `to_string` / `to_string_pretty` /
//! `from_str` entry points. There is no typed (de)serialization: the
//! parser builds a [`Value`], the printer walks one, and `json!` converts
//! its leaves with `From<_> for Value`.
//!
//! Formatting guarantees relied on elsewhere in the workspace:
//!
//! - floats are written with `{:?}`, which is shortest-roundtrip and
//!   always includes a fraction or exponent, so float/integer kinds
//!   survive a JSON roundtrip, and
//! - objects iterate in sorted key order ([`Map`] wraps a `BTreeMap`,
//!   like real serde_json without `preserve_order`), so serialized output
//!   is deterministic.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

mod parse;

/// A JSON parse error.
#[derive(Debug, Clone)]
pub struct Error(pub(crate) String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A JSON number: integer or float, as in real serde_json.
#[derive(Debug, Clone, Copy)]
pub struct Number(pub(crate) N);

#[derive(Debug, Clone, Copy)]
pub(crate) enum N {
    I(i64),
    U(u64),
    F(f64),
}

impl Number {
    /// The value as `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            N::I(i) => Some(i as f64),
            N::U(u) => Some(u as f64),
            N::F(f) => Some(f),
        }
    }

    /// The value as `i64`, if integral and in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::I(i) => Some(i),
            N::U(u) => i64::try_from(u).ok(),
            N::F(_) => None,
        }
    }

    /// The value as `u64`, if integral and non-negative.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::I(i) => u64::try_from(i).ok(),
            N::U(u) => Some(u),
            N::F(_) => None,
        }
    }

    /// Whether the number is a float (not an integer that converts).
    #[must_use]
    pub fn is_f64(&self) -> bool {
        matches!(self.0, N::F(_))
    }

    /// A float number (`None` for non-finite input, like real serde_json).
    #[must_use]
    pub fn from_f64(f: f64) -> Option<Self> {
        f.is_finite().then_some(Number(N::F(f)))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (N::I(a), N::I(b)) => a == b,
            (N::U(a), N::U(b)) => a == b,
            (N::F(a), N::F(b)) => a == b,
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::I(i) => write!(f, "{i}"),
            N::U(u) => write!(f, "{u}"),
            // `{:?}` is shortest-roundtrip and always keeps a fraction or
            // exponent, so floats stay floats across a JSON roundtrip.
            N::F(x) if x.is_finite() => write!(f, "{x:?}"),
            N::F(_) => write!(f, "null"),
        }
    }
}

/// A JSON object: string keys to values, sorted by key.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map(BTreeMap<String, Value>);

impl Map {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Map(BTreeMap::new())
    }

    /// Inserts a key/value pair, returning the previous value if any.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.0.insert(key, value)
    }

    /// Looks up a key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> std::collections::btree_map::Iter<'_, String, Value> {
        self.0.iter()
    }

    /// Iterates values in key order.
    pub fn values(&self) -> std::collections::btree_map::Values<'_, String, Value> {
        self.0.values()
    }
}

impl IntoIterator for Map {
    type Item = (String, Value);
    type IntoIter = std::collections::btree_map::IntoIter<String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::collections::btree_map::Iter<'a, String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Map(iter.into_iter().collect())
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    /// The string content, if a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content as `f64` (integers convert).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// Whether this is a float number (not an integer that converts).
    #[must_use]
    pub fn is_f64(&self) -> bool {
        matches!(self, Value::Number(n) if n.is_f64())
    }

    /// The numeric content as `i64`, if integral.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The numeric content as `u64`, if integral and non-negative.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The boolean content, if a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array content, if an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object content, if an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object-key lookup (`None` for non-objects / missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(self, &mut out, None, 0);
        f.write_str(&out)
    }
}

// ---- comparisons with literals, as in real serde_json ----

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! eq_num {
    ($($t:ty => $conv:expr),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                #[allow(clippy::redundant_closure_call)]
                ($conv)(self, *other)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

eq_num! {
    f64 => |v: &Value, x: f64| v.as_f64() == Some(x),
    f32 => |v: &Value, x: f32| v.as_f64() == Some(f64::from(x)),
    i32 => |v: &Value, x: i32| v.as_i64() == Some(i64::from(x)),
    i64 => |v: &Value, x: i64| v.as_i64() == Some(x),
    u32 => |v: &Value, x: u32| v.as_u64() == Some(u64::from(x)),
    u64 => |v: &Value, x: u64| v.as_u64() == Some(x),
    usize => |v: &Value, x: usize| v.as_u64() == Some(x as u64)
}

// ---- conversions (what `json!` builds its leaves with) ----

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            #[allow(unused_comparisons, clippy::cast_possible_wrap)]
            fn from(i: $t) -> Self {
                if (i as i128) > i64::MAX as i128 {
                    Value::Number(Number(N::U(i as u64)))
                } else {
                    Value::Number(Number(N::I(i as i64)))
                }
            }
        }
    )*};
}

from_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Number::from_f64(f).map_or(Value::Null, Value::Number)
    }
}

impl From<f32> for Value {
    fn from(f: f32) -> Self {
        Value::from(f64::from(f))
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        o.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Value>> From<&[T]> for Value {
    fn from(v: &[T]) -> Self {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<V: Into<Value>> From<BTreeMap<String, V>> for Value {
    fn from(m: BTreeMap<String, V>) -> Self {
        Value::Object(m.into_iter().map(|(k, v)| (k, v.into())).collect())
    }
}

impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::Object(m)
    }
}

/// A borrowed value converts as a copy of itself, so `json!` can take
/// its leaves by reference.
impl<T: Clone + Into<Value>> From<&T> for Value {
    fn from(v: &T) -> Self {
        v.clone().into()
    }
}

// ---- entry points ----

/// Prints a value as compact JSON text.
pub fn to_string(value: &Value) -> Result<String, Error> {
    Ok(value.to_string())
}

/// Prints a value as JSON text indented by two spaces a level.
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(value, &mut out, Some(2), 0);
    Ok(out)
}

/// Parses a value from JSON text.
pub fn from_str(s: &str) -> Result<Value, Error> {
    parse::parse(s)
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Opens a non-empty container's next line: a newline and the padding of
/// `depth` levels when pretty-printing, nothing when compact.
fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline(out, indent, depth);
            out.push(']');
        }
        Value::Object(m) if m.is_empty() => out.push_str("{}"),
        Value::Object(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(v, out, indent, depth + 1);
            }
            newline(out, indent, depth);
            out.push('}');
        }
    }
}

/// Builds a [`Value`] from JSON-like literal syntax.
///
/// Supports the shapes used in this workspace: `json!(null)`, scalars,
/// expression interpolation, arrays, and objects with string-literal keys
/// whose values may be nested `json!` syntax or arbitrary expressions.
/// An interpolated expression is borrowed and converted with
/// `From<&T> for Value`, so it stays usable after the macro.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => { $crate::json_array!([ $($tt)* ] -> []) };
    ({ $($tt:tt)* }) => { $crate::json_object!({ $($tt)* } -> []) };
    ($other:expr) => { $crate::Value::from(&$other) };
}

/// Internal: accumulates array elements (`tt` muncher).
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    // End of input: emit.
    ([] -> [$($elems:expr),*]) => { $crate::Value::Array(vec![$($elems),*]) };
    // Nested structures followed by more elements.
    ([ null $(, $($rest:tt)*)? ] -> [$($elems:expr),*]) => {
        $crate::json_array!([ $($($rest)*)? ] -> [$($elems,)* $crate::Value::Null])
    };
    ([ [ $($inner:tt)* ] $(, $($rest:tt)*)? ] -> [$($elems:expr),*]) => {
        $crate::json_array!([ $($($rest)*)? ] -> [$($elems,)* $crate::json!([ $($inner)* ])])
    };
    ([ { $($inner:tt)* } $(, $($rest:tt)*)? ] -> [$($elems:expr),*]) => {
        $crate::json_array!([ $($($rest)*)? ] -> [$($elems,)* $crate::json!({ $($inner)* })])
    };
    // Expression element (greedy up to the next top-level comma).
    ([ $head:expr $(, $($rest:tt)*)? ] -> [$($elems:expr),*]) => {
        $crate::json_array!([ $($($rest)*)? ] -> [$($elems,)* $crate::Value::from(&$head)])
    };
}

/// Internal: accumulates object entries (`tt` muncher).
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    ({} -> [$(($key:expr, $val:expr)),*]) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $( map.insert(String::from($key), $val); )*
        $crate::Value::Object(map)
    }};
    ({ $key:literal : null $(, $($rest:tt)*)? } -> [$($acc:tt),*]) => {
        $crate::json_object!({ $($($rest)*)? } -> [$($acc,)* ($key, $crate::Value::Null)])
    };
    ({ $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)? } -> [$($acc:tt),*]) => {
        $crate::json_object!({ $($($rest)*)? } -> [$($acc,)* ($key, $crate::json!([ $($inner)* ]))])
    };
    ({ $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)? } -> [$($acc:tt),*]) => {
        $crate::json_object!({ $($($rest)*)? } -> [$($acc,)* ($key, $crate::json!({ $($inner)* }))])
    };
    ({ $key:literal : $val:expr $(, $($rest:tt)*)? } -> [$($acc:tt),*]) => {
        $crate::json_object!({ $($($rest)*)? } -> [$($acc,)* ($key, $crate::Value::from(&$val))])
    };
}
