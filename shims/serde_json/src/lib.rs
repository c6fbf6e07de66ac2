//! Minimal vendored stand-in for the `serde_json` crate.
//!
//! Provides the subset this workspace uses: the [`Value`] tree, the
//! [`json!`] macro, [`Map`], and the `to_string` / `to_string_pretty` /
//! `to_writer` / `from_str` entry points, all expressed over the vendored
//! `serde` shim's `Content` data model.
//!
//! Formatting guarantees relied on elsewhere in the workspace:
//!
//! - floats are written with `{:?}`, which is shortest-roundtrip and
//!   always includes a fraction or exponent, so float/integer kinds
//!   survive a JSON roundtrip, and
//! - objects iterate in sorted key order ([`Map`] wraps a `BTreeMap`,
//!   like real serde_json without `preserve_order`), so serialized output
//!   is deterministic.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;

use serde::{Content, DeError, Deserialize, Serialize};

mod parse;

/// A JSON (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error(pub(crate) String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.to_string())
    }
}

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
            N::F(x) if x.is_finite() => write!(f, "{x:?}"),
            N::F(_) => write!(f, "null"),
        }
    }
}

/// A JSON object: string keys to values, sorted by key.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map<K = String, V = Value>
where
    K: Ord,
{
    inner: BTreeMap<K, V>,
}

impl<K: Ord, V> Map<K, V> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Map {
            inner: BTreeMap::new(),
        }
    }

    /// Inserts a key/value pair, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.insert(key, value)
    }

    /// Looks up a key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.inner.get(key)
    }

    /// Removes a key.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.inner.remove(key)
    }

    /// Whether a key is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.inner.contains_key(key)
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.inner.iter()
    }

    /// Iterates keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.inner.keys()
    }

    /// Iterates values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.inner.values()
    }
}

impl<K: Ord, V> IntoIterator for Map<K, V> {
    type Item = (K, V);
    type IntoIter = std::collections::btree_map::IntoIter<K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a Map<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::collections::btree_map::Iter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for Map<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        Map {
            inner: iter.into_iter().collect(),
        }
    }
}

impl<V: Serialize> Serialize for Map<String, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.inner
                .iter()
                .map(|(k, v)| (k.clone(), v.to_content()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for Map<String, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_content(v)?)))
                .collect(),
            _ => Err(DeError::expected("map", c)),
        }
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
    Object(Map<String, Value>),
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
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
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
        f.write_str(&to_string(self).map_err(|_| fmt::Error)?)
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

// ---- conversions ----

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

impl From<&String> for Value {
    fn from(s: &String) -> Self {
        Value::String(s.clone())
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

impl From<Map<String, Value>> for Value {
    fn from(m: Map<String, Value>) -> Self {
        Value::Object(m)
    }
}

// ---- Content bridge ----

impl From<&Value> for Content {
    fn from(v: &Value) -> Content {
        match v {
            Value::Null => Content::Null,
            Value::Bool(b) => Content::Bool(*b),
            Value::Number(Number(N::I(i))) => Content::I64(*i),
            Value::Number(Number(N::U(u))) => Content::U64(*u),
            Value::Number(Number(N::F(f))) => Content::F64(*f),
            Value::String(s) => Content::Str(s.clone()),
            Value::Array(items) => Content::Seq(items.iter().map(Content::from).collect()),
            Value::Object(m) => Content::Map(
                m.iter()
                    .map(|(k, v)| (k.clone(), Content::from(v)))
                    .collect(),
            ),
        }
    }
}

impl From<&Content> for Value {
    fn from(c: &Content) -> Value {
        match c {
            Content::Null => Value::Null,
            Content::Bool(b) => Value::Bool(*b),
            Content::I64(i) => Value::Number(Number(N::I(*i))),
            Content::U64(u) => Value::Number(Number(N::U(*u))),
            Content::F64(f) => Value::Number(Number(N::F(*f))),
            Content::Str(s) => Value::String(s.clone()),
            Content::Seq(items) => Value::Array(items.iter().map(Value::from).collect()),
            Content::Map(entries) => Value::Object(
                entries
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(v)))
                    .collect(),
            ),
        }
    }
}

impl Serialize for Value {
    fn to_content(&self) -> Content {
        Content::from(self)
    }
}

impl Deserialize for Value {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Ok(Value::from(c))
    }
}

// ---- entry points ----

/// Serializes a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to pretty-printed JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out, Some(2), 0);
    Ok(out)
}

/// Serializes a value as JSON into a writer.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<(), Error> {
    let s = to_string(value)?;
    writer
        .write_all(s.as_bytes())
        .map_err(|e| Error(e.to_string()))
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let content = parse::parse(s)?;
    Ok(T::from_content(&content)?)
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(Value::from(&value.to_content()))
}

/// Infallible [`Value`] conversion used by the `json!` macro (any
/// serializable value has a value-tree form).
#[doc(hidden)]
pub fn value_of<T: Serialize + ?Sized>(value: &T) -> Value {
    Value::from(&value.to_content())
}

/// Reconstructs a typed value from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    Ok(T::from_content(&Content::from(value))?)
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_content(c: &Content, out: &mut String, indent: Option<usize>, depth: usize) {
    let (nl, pad, pad_in) = match indent {
        Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
        None => ("", String::new(), String::new()),
    };
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::I64(i) => out.push_str(&i.to_string()),
        Content::U64(u) => out.push_str(&u.to_string()),
        // `{:?}` is shortest-roundtrip and always keeps a fraction or
        // exponent, so floats stay floats across a JSON roundtrip.
        Content::F64(f) if f.is_finite() => out.push_str(&format!("{f:?}")),
        Content::F64(_) => out.push_str("null"),
        Content::Str(s) => write_escaped(s, out),
        Content::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_content(item, out, indent, depth + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Content::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_content(v, out, indent, depth + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Builds a [`Value`] from JSON-like literal syntax.
///
/// Supports the shapes used in this workspace: `json!(null)`, scalars,
/// expression interpolation, arrays, and objects with string-literal keys
/// whose values may be nested `json!` syntax or arbitrary expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => { $crate::json_array!([ $($tt)* ] -> []) };
    ({ $($tt:tt)* }) => { $crate::json_object!({ $($tt)* } -> []) };
    ($other:expr) => { $crate::value_of(&$other) };
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
        $crate::json_array!([ $($($rest)*)? ] -> [$($elems,)* $crate::value_of(&$head)])
    };
}

/// Internal: accumulates object entries (`tt` muncher).
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    ({} -> [$(($key:expr, $val:expr)),*]) => {{
        #[allow(unused_mut)]
        let mut map: $crate::Map<String, $crate::Value> = $crate::Map::new();
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
        $crate::json_object!({ $($($rest)*)? } -> [$($acc,)* ($key, $crate::value_of(&$val))])
    };
}
