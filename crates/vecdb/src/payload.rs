//! Point payloads, payload filters, and the payload storage tier.
//!
//! Payloads are JSON objects attached to points, as in Qdrant. Filters
//! are a small condition language evaluated against payloads; SemaSK uses
//! [`Filter::GeoBoundingBox`] to implement the query range.
//!
//! [`PayloadStore`] is the storage seam: in plain mode it is a
//! `Vec<Payload>`; in compressed mode long text fields are split out of
//! each payload into an FSST arena ([`crate::fsst`]) and the filter
//! path evaluates against the remaining *skeleton* (geo coordinates,
//! numbers, short strings) — a filter never decompresses text unless it
//! explicitly references a compressed field.

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::fsst::{CompressedStrings, SymbolTable};

/// A JSON-object payload attached to a point.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Payload(pub serde_json::Map<String, Value>);

impl Payload {
    /// An empty payload.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a payload from key/value pairs.
    #[must_use]
    pub fn from_pairs(pairs: &[(&str, Value)]) -> Self {
        let mut m = serde_json::Map::new();
        for (k, v) in pairs {
            m.insert((*k).to_owned(), v.clone());
        }
        Self(m)
    }

    /// Field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// Numeric field lookup (accepts integers and floats).
    #[must_use]
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.0.get(key).and_then(Value::as_f64)
    }

    /// Sets a field.
    pub fn set(&mut self, key: impl Into<String>, value: Value) {
        self.0.insert(key.into(), value);
    }
}

/// A filter over payloads. All coordinates are in the payload's `lat` /
/// `lon` fields unless field names are overridden.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Filter {
    /// Point's (`lat_key`, `lon_key`) numeric fields must fall inside the
    /// box (edges inclusive). Qdrant's `geo_bounding_box` condition.
    GeoBoundingBox {
        /// Payload field holding latitude.
        lat_key: String,
        /// Payload field holding longitude.
        lon_key: String,
        /// Southern edge.
        min_lat: f64,
        /// Western edge.
        min_lon: f64,
        /// Northern edge.
        max_lat: f64,
        /// Eastern edge.
        max_lon: f64,
    },
    /// A string field must equal the given value exactly.
    MatchKeyword {
        /// Payload field.
        key: String,
        /// Required value.
        value: String,
    },
    /// A numeric field must lie in `[gte, lte]` (either bound optional).
    Range {
        /// Payload field.
        key: String,
        /// Lower bound, inclusive.
        gte: Option<f64>,
        /// Upper bound, inclusive.
        lte: Option<f64>,
    },
    /// All sub-filters must hold.
    And(Vec<Filter>),
    /// At least one sub-filter must hold.
    Or(Vec<Filter>),
    /// The sub-filter must not hold.
    Not(Box<Filter>),
}

impl Filter {
    /// Convenience constructor for the common geo filter on `lat`/`lon`.
    #[must_use]
    pub fn geo_box(min_lat: f64, min_lon: f64, max_lat: f64, max_lon: f64) -> Self {
        Filter::GeoBoundingBox {
            lat_key: "lat".to_owned(),
            lon_key: "lon".to_owned(),
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        }
    }

    /// Evaluates the filter against a payload.
    #[must_use]
    pub fn matches(&self, payload: &Payload) -> bool {
        match self {
            Filter::GeoBoundingBox {
                lat_key,
                lon_key,
                min_lat,
                min_lon,
                max_lat,
                max_lon,
            } => {
                let (Some(lat), Some(lon)) = (payload.get_f64(lat_key), payload.get_f64(lon_key))
                else {
                    return false;
                };
                lat >= *min_lat && lat <= *max_lat && lon >= *min_lon && lon <= *max_lon
            }
            Filter::MatchKeyword { key, value } => payload
                .get(key)
                .and_then(Value::as_str)
                .is_some_and(|s| s == value),
            Filter::Range { key, gte, lte } => {
                let Some(x) = payload.get_f64(key) else {
                    return false;
                };
                gte.is_none_or(|lo| x >= lo) && lte.is_none_or(|hi| x <= hi)
            }
            Filter::And(fs) => fs.iter().all(|f| f.matches(payload)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(payload)),
            Filter::Not(f) => !f.matches(payload),
        }
    }
}

/// Text fields at least this long are eligible for compression;
/// shorter values stay in the skeleton (compressing a city name saves
/// nothing and would force decompression on keyword filters).
const COMPRESS_MIN_LEN: usize = 64;

/// Number of buffered long strings that triggers symbol-table training.
/// Until then strings are held raw; at the trigger the table trains on
/// them and every buffered string is compressed retroactively.
const TRAIN_AT: usize = 1024;

/// Cap on training-sample strings (training is quadratic-ish in sample
/// bytes; a thousand tips pin the symbol distribution well enough).
const TRAIN_SAMPLE: usize = 1024;

/// A long text field split out of a payload: either still raw (table
/// not yet trained) or an index into the FSST arena.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum TextRef {
    /// Uncompressed, awaiting table training.
    Raw(String),
    /// Index into the [`CompressedStrings`] arena.
    Packed(u32),
}

/// One extracted text field of one payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TextSlot {
    key: String,
    text: TextRef,
}

/// The compressed-text side table of a [`PayloadStore`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TextTier {
    /// Extracted fields per payload offset (parallel to the skeletons).
    slots: Vec<Vec<TextSlot>>,
    /// Raw strings currently buffered awaiting training.
    pending: usize,
    /// The arena, present once the table has been trained.
    packed: Option<CompressedStrings>,
}

/// Payload storage with an optional compressed-text tier.
///
/// Plain mode stores payloads verbatim. Compressed mode keeps a
/// *skeleton* (every field except long text) inline and moves long
/// text into a shared FSST arena with per-string random access; a
/// payload is only reassembled — and its text only decompressed — when
/// a caller asks for the full payload (refinement) or a filter
/// explicitly references a compressed field (none of the hot geo /
/// range / keyword filters do).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PayloadStore {
    skeletons: Vec<Payload>,
    text: Option<TextTier>,
}

impl PayloadStore {
    /// A store that keeps payloads verbatim.
    #[must_use]
    pub fn plain() -> Self {
        Self {
            skeletons: Vec::new(),
            text: None,
        }
    }

    /// A store that compresses long text fields.
    #[must_use]
    pub fn compressed() -> Self {
        Self {
            skeletons: Vec::new(),
            text: Some(TextTier {
                slots: Vec::new(),
                pending: 0,
                packed: None,
            }),
        }
    }

    /// Whether the compressed-text tier is active.
    #[must_use]
    pub fn is_compressed(&self) -> bool {
        self.text.is_some()
    }

    /// Number of stored payloads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.skeletons.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.skeletons.is_empty()
    }

    /// Whether a deserialized store can be read without indexing past
    /// anything: text slots parallel the skeletons and every packed
    /// reference names a string the arena holds.
    pub(crate) fn is_consistent(&self) -> bool {
        self.text.as_ref().is_none_or(|tier| {
            let arena = tier.packed.as_ref().map_or(0, CompressedStrings::len);
            tier.slots.len() == self.skeletons.len()
                && tier.slots.iter().flatten().all(|slot| match slot.text {
                    TextRef::Raw(_) => true,
                    TextRef::Packed(i) => (i as usize) < arena,
                })
        })
    }

    /// Appends a payload.
    pub fn push(&mut self, payload: Payload) {
        if self.text.is_some() {
            let (skeleton, slots) = Self::split(payload);
            self.skeletons.push(skeleton);
            let tier = self.text.as_mut().expect("checked above");
            tier.pending += slots
                .iter()
                .filter(|s| matches!(s.text, TextRef::Raw(_)))
                .count();
            tier.slots.push(slots);
            self.absorb_pending();
        } else {
            self.skeletons.push(payload);
        }
    }

    /// Replaces the payload at `offset`. Packed strings the old payload
    /// referenced stay in the arena as garbage until a rebuild; the
    /// arena is append-only by design.
    pub fn set(&mut self, offset: usize, payload: Payload) {
        if self.text.is_some() {
            let (skeleton, slots) = Self::split(payload);
            self.skeletons[offset] = skeleton;
            let tier = self.text.as_mut().expect("checked above");
            tier.pending += slots
                .iter()
                .filter(|s| matches!(s.text, TextRef::Raw(_)))
                .count();
            tier.slots[offset] = slots;
            self.absorb_pending();
        } else {
            self.skeletons[offset] = payload;
        }
    }

    /// The skeleton at `offset`: the full payload in plain mode, the
    /// payload minus compressed text fields in compressed mode. This is
    /// the filter path's view — no decompression, ever.
    #[must_use]
    pub fn skeleton(&self, offset: usize) -> &Payload {
        &self.skeletons[offset]
    }

    /// The full payload at `offset`, reassembling compressed text.
    #[must_use]
    pub fn get(&self, offset: usize) -> Payload {
        let mut p = self.skeletons[offset].clone();
        if let Some(tier) = &self.text {
            for slot in &tier.slots[offset] {
                let v = match &slot.text {
                    TextRef::Raw(s) => s.clone(),
                    TextRef::Packed(i) => tier
                        .packed
                        .as_ref()
                        .expect("packed ref implies trained arena")
                        .get(*i),
                };
                p.set(slot.key.clone(), Value::String(v));
            }
        }
        p
    }

    /// Evaluates `filter` at `offset` against the skeleton, falling
    /// back to the reassembled payload only when the filter references
    /// a field that was split into the text tier — so the hot filter
    /// path (geo boxes, numeric ranges, short keywords) never touches
    /// compressed bytes.
    #[must_use]
    pub fn matches(&self, offset: usize, filter: &Filter) -> bool {
        if let Some(tier) = &self.text {
            let slots = &tier.slots[offset];
            if !slots.is_empty() && slots.iter().any(|s| filter_references(filter, &s.key)) {
                return filter.matches(&self.get(offset));
            }
        }
        filter.matches(&self.skeletons[offset])
    }

    /// Estimated heap bytes: JSON size of the skeletons plus the text
    /// tier (raw buffered strings at full size, packed strings at
    /// arena size). An accounting estimate, not an allocator census.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let skeleton_bytes: usize = self
            .skeletons
            .iter()
            .map(|p| serde_json::to_string(p).map_or(0, |s| s.len()) + 24)
            .sum();
        let text_bytes = self.text.as_ref().map_or(0, |tier| {
            let raw: usize = tier
                .slots
                .iter()
                .flatten()
                .map(|s| match &s.text {
                    TextRef::Raw(t) => t.len() + s.key.len() + 16,
                    TextRef::Packed(_) => s.key.len() + 16,
                })
                .sum();
            raw + tier
                .packed
                .as_ref()
                .map_or(0, CompressedStrings::memory_bytes)
        });
        skeleton_bytes + text_bytes
    }

    /// Splits a payload into its skeleton and extracted text slots.
    fn split(payload: Payload) -> (Payload, Vec<TextSlot>) {
        let mut skeleton = serde_json::Map::new();
        let mut slots = Vec::new();
        for (k, v) in payload.0 {
            match v {
                Value::String(s) if s.len() >= COMPRESS_MIN_LEN => {
                    slots.push(TextSlot {
                        key: k,
                        text: TextRef::Raw(s),
                    });
                }
                other => {
                    skeleton.insert(k, other);
                }
            }
        }
        (Payload(skeleton), slots)
    }

    /// Trains the symbol table once enough raw text has accumulated,
    /// then drains every raw slot into the arena. Also compresses
    /// stragglers that arrive after training.
    fn absorb_pending(&mut self) {
        let Some(tier) = self.text.as_mut() else {
            return;
        };
        if tier.pending == 0 {
            return;
        }
        if tier.packed.is_none() {
            if tier.pending < TRAIN_AT {
                return;
            }
            let sample: Vec<&[u8]> = tier
                .slots
                .iter()
                .flatten()
                .filter_map(|s| match &s.text {
                    TextRef::Raw(t) => Some(t.as_bytes()),
                    TextRef::Packed(_) => None,
                })
                .take(TRAIN_SAMPLE)
                .collect();
            tier.packed = Some(CompressedStrings::new(SymbolTable::train(&sample)));
        }
        let arena = tier.packed.as_mut().expect("trained above");
        for slot in tier.slots.iter_mut().flatten() {
            if let TextRef::Raw(t) = &slot.text {
                slot.text = TextRef::Packed(arena.push(t));
            }
        }
        tier.pending = 0;
    }
}

/// Whether `filter` mentions payload field `key` anywhere.
fn filter_references(filter: &Filter, key: &str) -> bool {
    match filter {
        Filter::GeoBoundingBox {
            lat_key, lon_key, ..
        } => lat_key == key || lon_key == key,
        Filter::MatchKeyword { key: k, .. } | Filter::Range { key: k, .. } => k == key,
        Filter::And(fs) | Filter::Or(fs) => fs.iter().any(|f| filter_references(f, key)),
        Filter::Not(f) => filter_references(f, key),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn poi(lat: f64, lon: f64, city: &str, stars: f64) -> Payload {
        Payload::from_pairs(&[
            ("lat", json!(lat)),
            ("lon", json!(lon)),
            ("city", json!(city)),
            ("stars", json!(stars)),
        ])
    }

    #[test]
    fn geo_box_inclusive_edges() {
        let f = Filter::geo_box(0.0, 0.0, 1.0, 1.0);
        assert!(f.matches(&poi(0.0, 0.0, "x", 3.0)));
        assert!(f.matches(&poi(1.0, 1.0, "x", 3.0)));
        assert!(!f.matches(&poi(1.00001, 0.5, "x", 3.0)));
    }

    #[test]
    fn geo_box_missing_fields_fails() {
        let f = Filter::geo_box(0.0, 0.0, 1.0, 1.0);
        assert!(!f.matches(&Payload::new()));
    }

    #[test]
    fn match_keyword() {
        let f = Filter::MatchKeyword {
            key: "city".to_owned(),
            value: "Nashville".to_owned(),
        };
        assert!(f.matches(&poi(0.5, 0.5, "Nashville", 4.0)));
        assert!(!f.matches(&poi(0.5, 0.5, "Philadelphia", 4.0)));
    }

    #[test]
    fn range_bounds() {
        let f = Filter::Range {
            key: "stars".to_owned(),
            gte: Some(3.0),
            lte: Some(4.5),
        };
        assert!(f.matches(&poi(0.0, 0.0, "x", 3.0)));
        assert!(f.matches(&poi(0.0, 0.0, "x", 4.5)));
        assert!(!f.matches(&poi(0.0, 0.0, "x", 5.0)));
        let open = Filter::Range {
            key: "stars".to_owned(),
            gte: Some(3.0),
            lte: None,
        };
        assert!(open.matches(&poi(0.0, 0.0, "x", 5.0)));
    }

    #[test]
    fn boolean_combinators() {
        let f = Filter::And(vec![
            Filter::geo_box(0.0, 0.0, 1.0, 1.0),
            Filter::Not(Box::new(Filter::MatchKeyword {
                key: "city".to_owned(),
                value: "Springfield".to_owned(),
            })),
        ]);
        assert!(f.matches(&poi(0.5, 0.5, "Nashville", 3.0)));
        assert!(!f.matches(&poi(0.5, 0.5, "Springfield", 3.0)));
        let g = Filter::Or(vec![
            Filter::MatchKeyword {
                key: "city".to_owned(),
                value: "A".to_owned(),
            },
            Filter::MatchKeyword {
                key: "city".to_owned(),
                value: "B".to_owned(),
            },
        ]);
        assert!(g.matches(&poi(0.0, 0.0, "B", 1.0)));
        assert!(!g.matches(&poi(0.0, 0.0, "C", 1.0)));
    }

    fn tip_payload(i: usize) -> Payload {
        Payload::from_pairs(&[
            ("lat", json!(i as f64 * 0.01)),
            ("lon", json!(-(i as f64) * 0.01)),
            ("name", json!(format!("poi-{i}"))),
            (
                "tips",
                json!(format!(
                    "visitor {i} says the coffee here is excellent and the \
                     staff were friendly; the pastries remain outstanding"
                )),
            ),
        ])
    }

    #[test]
    fn plain_store_round_trips() {
        let mut s = PayloadStore::plain();
        for i in 0..10 {
            s.push(tip_payload(i));
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.get(3), tip_payload(3));
        assert_eq!(s.skeleton(3), &tip_payload(3));
    }

    #[test]
    fn compressed_store_round_trips_before_and_after_training() {
        let mut s = PayloadStore::compressed();
        let n = super::TRAIN_AT + 50; // crosses the training trigger
        for i in 0..n {
            s.push(tip_payload(i));
        }
        for i in [0, 1, super::TRAIN_AT - 1, super::TRAIN_AT, n - 1] {
            assert_eq!(s.get(i), tip_payload(i), "payload {i}");
        }
        // Stragglers after training compress on arrival.
        s.push(tip_payload(n));
        assert_eq!(s.get(n), tip_payload(n));
    }

    #[test]
    fn compressed_store_saves_memory() {
        let mut plain = PayloadStore::plain();
        let mut packed = PayloadStore::compressed();
        for i in 0..(super::TRAIN_AT + 200) {
            plain.push(tip_payload(i));
            packed.push(tip_payload(i));
        }
        assert!(
            (packed.memory_bytes() as f64) < plain.memory_bytes() as f64 * 0.8,
            "compressed {} vs plain {}",
            packed.memory_bytes(),
            plain.memory_bytes()
        );
    }

    #[test]
    fn skeleton_filters_never_need_text() {
        let mut s = PayloadStore::compressed();
        for i in 0..20 {
            s.push(tip_payload(i));
        }
        let geo = Filter::geo_box(0.0, -1.0, 0.05, 0.0);
        assert!(s.matches(3, &geo));
        assert!(!s.matches(10, &geo));
        // The skeleton genuinely lacks the long text field.
        assert!(s.skeleton(3).get("tips").is_none());
        assert!(s.skeleton(3).get("name").is_some());
    }

    #[test]
    fn filters_on_compressed_fields_still_answer_correctly() {
        let mut s = PayloadStore::compressed();
        for i in 0..5 {
            s.push(tip_payload(i));
        }
        let text = tip_payload(2)
            .get("tips")
            .and_then(Value::as_str)
            .unwrap()
            .to_owned();
        let f = Filter::MatchKeyword {
            key: "tips".to_owned(),
            value: text,
        };
        assert!(s.matches(2, &f));
        assert!(!s.matches(3, &f));
    }

    #[test]
    fn set_replaces_and_reassembles() {
        let mut s = PayloadStore::compressed();
        for i in 0..10 {
            s.push(tip_payload(i));
        }
        s.set(4, tip_payload(1000));
        assert_eq!(s.get(4), tip_payload(1000));
    }

    #[test]
    fn store_serde_round_trip() {
        let mut s = PayloadStore::compressed();
        for i in 0..(super::TRAIN_AT + 10) {
            s.push(tip_payload(i));
        }
        let json = serde_json::to_string(&s).unwrap();
        let back: PayloadStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), s.len());
        for i in [0, super::TRAIN_AT + 5] {
            assert_eq!(back.get(i), s.get(i));
        }
    }

    #[test]
    fn payload_accessors() {
        let mut p = poi(1.0, 2.0, "x", 3.5);
        assert_eq!(p.get_f64("lat"), Some(1.0));
        assert_eq!(p.get("city").and_then(Value::as_str), Some("x"));
        p.set("is_open", json!(true));
        assert_eq!(p.get("is_open"), Some(&json!(true)));
    }
}
