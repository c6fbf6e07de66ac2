//! Minimal vendored stand-in for the `serde` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small slice of serde's API the `serde_json` shim
//! is built on: a self-describing [`Content`] data model, the
//! [`Serialize`] / [`Deserialize`] traits expressed against it, and
//! impls for the std types `serde_json::Value`, `json!` and
//! `from_str` reach. There are no derive macros: the workspace's own
//! types are packed by `vecdb::codec`, and JSON at the edges is built
//! and read as a `serde_json::Value`.
//!
//! Intentional deviations from real serde, chosen for determinism:
//!
//! - Floats deserialize only from float content (the JSON writer in our
//!   `serde_json` shim always emits a fraction or exponent for floats),
//!   so an integer and a float never decode as each other.
//! - Maps with integer keys serialize with stringified, sorted keys.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

/// A self-describing serialized value — the pivot between Rust values and
/// concrete formats (JSON, in our case).
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer that does not fit in `i64`.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// A sequence.
    Seq(Vec<Content>),
    /// A map with string keys, preserving insertion order.
    Map(Vec<(String, Content)>),
}

impl Content {
    /// A short name of the content kind, for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::I64(_) | Content::U64(_) => "integer",
            Content::F64(_) => "float",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

/// A deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(String);

impl DeError {
    /// An error with a custom message.
    #[must_use]
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }

    /// A type-mismatch error.
    #[must_use]
    pub fn expected(what: &str, got: &Content) -> Self {
        DeError(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// A type that can be serialized into [`Content`].
pub trait Serialize {
    /// Converts `self` into content.
    fn to_content(&self) -> Content;
}

/// A type that can be reconstructed from [`Content`].
pub trait Deserialize: Sized {
    /// Reconstructs a value from content.
    fn from_content(content: &Content) -> Result<Self, DeError>;
}

// ---- primitive impls ----

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool", c)),
        }
    }
}

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                #[allow(unused_comparisons)]
                if (*self as i128) >= 0 && (*self as i128) > i64::MAX as i128 {
                    Content::U64(*self as u64)
                } else {
                    Content::I64(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let wide: i128 = match c {
                    Content::I64(i) => i128::from(*i),
                    Content::U64(u) => i128::from(*u),
                    _ => return Err(DeError::expected("integer", c)),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::custom(format!("integer {wide} out of range")))
            }
        }
    )*};
}

int_impl!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::F64(x) => Ok(*x),
            // The JSON writer always marks floats with a fraction or
            // exponent, so integer content here is a genuine type error
            // (this strictness keeps untagged enums deterministic).
            _ => Err(DeError::expected("float", c)),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        f64::from_content(c).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string", c)),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_owned())
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

// ---- composite impls ----

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            _ => Err(DeError::expected("sequence", c)),
        }
    }
}

macro_rules! tuple_impl {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$i.to_content()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                match c {
                    Content::Seq(items) => {
                        let mut it = items.iter();
                        Ok(($(
                            {
                                let _ = $i;
                                $t::from_content(
                                    it.next().ok_or_else(|| DeError::custom("tuple too short"))?,
                                )?
                            },
                        )+))
                    }
                    _ => Err(DeError::expected("sequence", c)),
                }
            }
        }
    )*};
}

tuple_impl! {
    (A:0)
    (A:0, B:1)
    (A:0, B:1, C:2)
    (A:0, B:1, C:2, D:3)
}

/// Conversion between map keys and their string form (JSON object keys
/// are always strings, as in real `serde_json`).
pub trait MapKey: Sized {
    /// Renders the key as a string.
    fn to_key(&self) -> String;
    /// Parses the key back.
    fn from_key(s: &str) -> Result<Self, DeError>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, DeError> {
        Ok(s.to_owned())
    }
}

macro_rules! int_key_impl {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(s: &str) -> Result<Self, DeError> {
                s.parse()
                    .map_err(|_| DeError::custom(format!("invalid integer key `{s}`")))
            }
        }
    )*};
}

int_key_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey + Eq + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_content(&self) -> Content {
        let mut entries: Vec<(String, Content)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_content()))
            .collect();
        // Deterministic snapshots regardless of hash order.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Content::Map(entries)
    }
}

impl<K: MapKey + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_content(v)?)))
                .collect(),
            _ => Err(DeError::expected("map", c)),
        }
    }
}

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_content()))
                .collect(),
        )
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_content(v)?)))
                .collect(),
            _ => Err(DeError::expected("map", c)),
        }
    }
}

impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
}

impl Deserialize for Content {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Ok(c.clone())
    }
}
