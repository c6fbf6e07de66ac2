//! Attribute values and attribute sets (`o.A` in the paper).
//!
//! The paper models each object as key–value pairs where "all attribute
//! keys are textual, while the attribute values may be numerical,
//! categorical, or textual, with at least one being textual". The Yelp
//! sample record (paper Table 1) additionally has list-valued attributes
//! (categories, tips) and a map-valued attribute (hours), so the value
//! enum covers those too.

use std::collections::BTreeMap;
use std::fmt;

/// A single attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeValue {
    /// Free text, e.g. a name, address, or tip summary.
    Text(String),
    /// A real number, e.g. `stars = 1.5`.
    Number(f64),
    /// An integer count, e.g. `tip_count = 10`.
    Integer(i64),
    /// A boolean flag, e.g. `is_open`.
    Bool(bool),
    /// A list of strings, e.g. `categories` or raw `tips`.
    List(Vec<String>),
    /// A string-to-string map, e.g. opening `hours` per weekday.
    Map(BTreeMap<String, String>),
}

impl AttributeValue {
    /// Returns the text content if this is a `Text` value.
    #[must_use]
    pub(crate) fn as_text(&self) -> Option<&str> {
        match self {
            AttributeValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the list content if this is a `List` value.
    #[must_use]
    pub fn as_list(&self) -> Option<&[String]> {
        match self {
            AttributeValue::List(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the numeric content for `Number` or `Integer` values.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttributeValue::Number(n) => Some(*n),
            AttributeValue::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Whether the value carries any text usable for keyword querying.
    #[must_use]
    pub(crate) fn is_textual(&self) -> bool {
        matches!(
            self,
            AttributeValue::Text(_) | AttributeValue::List(_) | AttributeValue::Map(_)
        )
    }

    /// Flattens the value into a display string used when building
    /// documents for indexing, embedding, or LLM prompts.
    #[must_use]
    pub fn flatten(&self) -> String {
        match self {
            AttributeValue::Text(s) => s.clone(),
            AttributeValue::Number(n) => format!("{n}"),
            AttributeValue::Integer(i) => format!("{i}"),
            AttributeValue::Bool(b) => format!("{b}"),
            AttributeValue::List(v) => v.join(", "),
            AttributeValue::Map(m) => m
                .iter()
                .map(|(k, v)| format!("{k}: {v}"))
                .collect::<Vec<_>>()
                .join(", "),
        }
    }
}

impl fmt::Display for AttributeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.flatten())
    }
}

impl From<&str> for AttributeValue {
    fn from(s: &str) -> Self {
        AttributeValue::Text(s.to_owned())
    }
}

impl From<String> for AttributeValue {
    fn from(s: String) -> Self {
        AttributeValue::Text(s)
    }
}

impl From<f64> for AttributeValue {
    fn from(n: f64) -> Self {
        AttributeValue::Number(n)
    }
}

impl From<i64> for AttributeValue {
    fn from(i: i64) -> Self {
        AttributeValue::Integer(i)
    }
}

impl From<bool> for AttributeValue {
    fn from(b: bool) -> Self {
        AttributeValue::Bool(b)
    }
}

impl From<Vec<String>> for AttributeValue {
    fn from(v: Vec<String>) -> Self {
        AttributeValue::List(v)
    }
}

/// An ordered set of named attributes (insertion order preserved so that
/// prompt serialisations are deterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributeSet {
    entries: Vec<(String, AttributeValue)>,
}

impl AttributeSet {
    /// Creates an empty attribute set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces an attribute, preserving original position on
    /// replacement.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<AttributeValue>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Looks up an attribute by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&AttributeValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Convenience accessor for a text attribute.
    #[must_use]
    pub fn get_text(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(AttributeValue::as_text)
    }

    /// Removes an attribute, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<AttributeValue> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttributeValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether at least one attribute value is textual — the paper's
    /// well-formedness condition for keyword-based querying.
    #[must_use]
    pub fn has_textual(&self) -> bool {
        self.entries.iter().any(|(_, v)| v.is_textual())
    }

    /// Concatenates all textual content into one document string
    /// (`key: value` lines), used for indexing and embedding input.
    #[must_use]
    pub fn to_document(&self) -> String {
        let mut doc = String::new();
        for (k, v) in &self.entries {
            if !doc.is_empty() {
                doc.push('\n');
            }
            doc.push_str(k);
            doc.push_str(": ");
            doc.push_str(&v.flatten());
        }
        doc
    }
}

impl FromIterator<(String, AttributeValue)> for AttributeSet {
    fn from_iter<T: IntoIterator<Item = (String, AttributeValue)>>(iter: T) -> Self {
        let mut set = AttributeSet::new();
        for (k, v) in iter {
            set.set(k, v);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_replace() {
        let mut a = AttributeSet::new();
        a.set("name", "Mike's Ice Cream");
        a.set("stars", 1.5);
        assert_eq!(a.get_text("name"), Some("Mike's Ice Cream"));
        assert_eq!(a.get("stars").unwrap().as_f64(), Some(1.5));
        a.set("stars", 4.0);
        assert_eq!(a.get("stars").unwrap().as_f64(), Some(4.0));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn insertion_order_preserved() {
        let mut a = AttributeSet::new();
        a.set("z", 1i64);
        a.set("a", 2i64);
        a.set("m", 3i64);
        let keys: Vec<_> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn remove_works() {
        let mut a = AttributeSet::new();
        a.set("x", true);
        assert!(a.remove("x").is_some());
        assert!(a.remove("x").is_none());
        assert!(a.is_empty());
    }

    #[test]
    fn has_textual_detects_lists_and_maps() {
        let mut a = AttributeSet::new();
        a.set("stars", 3.5);
        assert!(!a.has_textual());
        a.set("categories", vec!["Ice Cream".to_owned()]);
        assert!(a.has_textual());
    }

    #[test]
    fn flatten_map_is_sorted_and_stable() {
        let mut m = BTreeMap::new();
        m.insert("Monday".to_owned(), "0:0-0:0".to_owned());
        m.insert("Friday".to_owned(), "8:0-19:0".to_owned());
        let v = AttributeValue::Map(m);
        assert_eq!(v.flatten(), "Friday: 8:0-19:0, Monday: 0:0-0:0");
    }

    #[test]
    fn to_document_joins_lines() {
        let mut a = AttributeSet::new();
        a.set("name", "Pep Boys");
        a.set(
            "categories",
            vec!["Automotive".to_owned(), "Tires".to_owned()],
        );
        let doc = a.to_document();
        assert_eq!(doc, "name: Pep Boys\ncategories: Automotive, Tires");
    }
}
