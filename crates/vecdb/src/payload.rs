//! Point payloads, the geo filter, and the payload storage tier.
//!
//! Payloads are JSON objects attached to points, as in Qdrant. The one
//! filter is [`Filter::GeoBoundingBox`], SemaSK's query range.
//!
//! [`PayloadStore`] is the storage seam, and the one evaluator of a
//! [`Filter`]. A point's position lives in a typed geo column — one
//! `(lat, lon)` pair of `f64` per offset, Qdrant's typed geo payload
//! field — and the geo filter reads nothing else. The rest of each
//! payload is a JSON *skeleton*; in compressed mode long text fields are
//! further split out of it into an FSST arena ([`crate::fsst`]), which
//! no filter reads.

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::codec::{corrupt, Reader, Writer};
use crate::error::VecDbError;
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

/// The payload fields a point's position is read from.
const LAT: &str = "lat";
const LON: &str = "lon";

/// A filter over stored payloads, evaluated by [`PayloadStore::matches`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Filter {
    /// The point's position — its payload's numeric `lat` / `lon` fields,
    /// as the store's geo column holds them — must fall inside the box
    /// (edges inclusive). A point without a position is outside every
    /// box. Qdrant's `geo_bounding_box` condition.
    GeoBoundingBox {
        /// Southern edge.
        min_lat: f64,
        /// Western edge.
        min_lon: f64,
        /// Northern edge.
        max_lat: f64,
        /// Eastern edge.
        max_lon: f64,
    },
}

impl Filter {
    /// The geo filter: positions inside the box, edges inclusive.
    #[must_use]
    pub fn geo_box(min_lat: f64, min_lon: f64, max_lat: f64, max_lon: f64) -> Self {
        Filter::GeoBoundingBox {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        }
    }
}

/// Text fields at least this long are eligible for compression;
/// shorter values stay in the skeleton (compressing a city name saves
/// nothing).
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
#[derive(Debug, Clone)]
enum TextRef {
    /// Uncompressed, awaiting table training.
    Raw(String),
    /// Index into the [`CompressedStrings`] arena.
    Packed(u32),
}

/// One extracted text field of one payload.
#[derive(Debug, Clone)]
struct TextSlot {
    key: String,
    text: TextRef,
}

/// The compressed-text side table of a [`PayloadStore`].
#[derive(Debug, Clone)]
struct TextTier {
    /// Extracted fields per payload offset (parallel to the skeletons).
    slots: Vec<Vec<TextSlot>>,
    /// Raw strings currently buffered awaiting training.
    pending: usize,
    /// The arena, present once the table has been trained.
    packed: Option<CompressedStrings>,
}

/// Payload storage: a typed geo column, a JSON skeleton per point, and
/// an optional compressed-text tier.
///
/// **Where a position lives.** `geo[o]` is the `(lat, lon)` the geo
/// filter evaluates for offset `o` and the only thing it reads: the
/// payload's `lat` / `lon` as [`Payload::get_f64`] answers them, or a
/// NaN pair — outside every box — when either is missing or not a
/// number. When both are finite floats (every point SemaSK stores) the
/// two fields are *moved*: they leave the skeleton and exist only in
/// the column, and [`PayloadStore::get`] puts them back. Anything else
/// — integers, non-finite floats, half a pair — stays in the skeleton
/// as the `Value` it was, and the column carries the number beside it.
/// So a position is in the column alone exactly when the column holds a
/// latitude and the skeleton has no `lat` field.
///
/// **The skeleton** is every other field. Plain mode keeps all of them
/// inline; compressed mode moves long text into a shared FSST arena
/// with per-string random access. A payload is only reassembled — and
/// its text only decompressed — when a caller asks for the full payload.
///
/// **Packed** (the snapshot's meta section, `PayloadStore::pack`), a
/// store is its parts as they are: the column as `f64` bits, the
/// skeletons in the binary `Value` encoding, the text tier's slots and
/// arena. The reader accepts only parts `push` could have produced
/// together, so a restored store answers every geo box and gives back
/// every payload as the stored one did.
#[derive(Debug, Clone)]
pub struct PayloadStore {
    skeletons: Vec<Payload>,
    geo: Vec<[f64; 2]>,
    text: Option<TextTier>,
}

impl PayloadStore {
    /// A store that keeps payload text verbatim.
    #[must_use]
    pub fn plain() -> Self {
        Self {
            skeletons: Vec::new(),
            geo: Vec::new(),
            text: None,
        }
    }

    /// A store that compresses long text fields.
    #[must_use]
    pub fn compressed() -> Self {
        Self {
            text: Some(TextTier {
                slots: Vec::new(),
                pending: 0,
                packed: None,
            }),
            ..Self::plain()
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

    /// Appends the store to a snapshot section: the payload count
    /// (`u64`); the geo column as one block of `(lat, lon)` `f64` pairs;
    /// each skeleton as a binary `Value` object (entries only, no tag);
    /// then a text-tier flag byte and, when set, the count of raw
    /// strings awaiting training (`u64`), per payload its slot count
    /// (`u32`) and per slot its key and either `0` + the raw string or
    /// `1` + the arena index (`u32`), and an arena flag byte followed,
    /// once trained, by the arena ([`CompressedStrings::pack`]).
    ///
    /// # Errors
    /// A payload nested deeper than the codec allows, or a string or
    /// container too long for its `u32` length.
    pub(crate) fn pack(&self, w: &mut Writer) -> Result<(), VecDbError> {
        w.len64(self.len());
        w.f64s(self.geo.as_flattened());
        for skeleton in &self.skeletons {
            w.object(&skeleton.0)?;
        }
        w.bool(self.text.is_some());
        let Some(tier) = &self.text else {
            return Ok(());
        };
        w.len64(tier.pending);
        for slots in &tier.slots {
            w.u32(u32::try_from(slots.len()).map_err(|_| corrupt("text slots"))?);
            for slot in slots {
                w.str(&slot.key)?;
                match &slot.text {
                    TextRef::Raw(text) => {
                        w.u8(0);
                        w.str(text)?;
                    }
                    TextRef::Packed(i) => {
                        w.u8(1);
                        w.u32(*i);
                    }
                }
            }
        }
        w.bool(tier.packed.is_some());
        if let Some(arena) = &tier.packed {
            arena.pack(w);
        }
        Ok(())
    }

    /// Reads back what [`PayloadStore::pack`] wrote and checks that the
    /// parts agree the way `push` leaves them: each column entry is the
    /// position its skeleton holds, or — when the skeleton has neither
    /// `lat` nor `lon` — a moved pair of finite floats; a payload's text
    /// slots have ascending keys its skeleton lacks; every packed slot
    /// names a string the arena holds; and once the arena is trained
    /// nothing is left raw.
    pub(crate) fn unpack(r: &mut Reader<'_>) -> Result<Self, VecDbError> {
        let n = r.len64()?;
        let flat = r.f64s(n.checked_mul(2).ok_or_else(|| corrupt("payload count"))?)?;
        let geo: Vec<[f64; 2]> = flat.chunks_exact(2).map(|p| [p[0], p[1]]).collect();
        // Every skeleton takes at least its entry count.
        r.count(n, 4)?;
        let mut skeletons = Vec::with_capacity(n);
        for _ in 0..n {
            skeletons.push(Payload(r.object()?));
        }
        let text = if r.bool()? {
            let pending = r.len64()?;
            let mut slots = Vec::with_capacity(n);
            for _ in 0..n {
                let count = r.u32()? as usize;
                // A key length, a kind byte and four bytes of either kind.
                let count = r.count(count, 9)?;
                let mut row = Vec::new();
                for _ in 0..count {
                    let key = r.str()?.to_owned();
                    let text = match r.u8()? {
                        0 => TextRef::Raw(r.str()?.to_owned()),
                        1 => TextRef::Packed(r.u32()?),
                        k => return Err(corrupt(format!("text slot kind {k}"))),
                    };
                    row.push(TextSlot { key, text });
                }
                slots.push(row);
            }
            let packed = if r.bool()? {
                Some(CompressedStrings::unpack(r)?)
            } else {
                None
            };
            Some(TextTier {
                slots,
                pending,
                packed,
            })
        } else {
            None
        };
        let store = Self {
            skeletons,
            geo,
            text,
        };
        store.check()?;
        Ok(store)
    }

    /// The agreement [`PayloadStore::unpack`] requires of its parts.
    fn check(&self) -> Result<(), VecDbError> {
        for (o, (skeleton, &stored)) in self.skeletons.iter().zip(&self.geo).enumerate() {
            let m = &skeleton.0;
            let moved = !m.contains_key(LAT)
                && !m.contains_key(LON)
                && stored.iter().all(|x| x.is_finite());
            let agrees = moved || {
                let (position, movable) = position_of(skeleton);
                !movable && position.map(f64::to_bits) == stored.map(f64::to_bits)
            };
            if !agrees {
                return Err(corrupt(format!(
                    "payload {o}: the geo column disagrees with the payload"
                )));
            }
            let Some(tier) = &self.text else { continue };
            let slots = &tier.slots[o];
            let keys_fit = slots.windows(2).all(|w| w[0].key < w[1].key)
                && slots.iter().all(|slot| {
                    !m.contains_key(&slot.key) && !(moved && (slot.key == LAT || slot.key == LON))
                });
            if !keys_fit {
                return Err(corrupt(format!(
                    "payload {o}: a text slot's key repeats a field"
                )));
            }
        }
        let Some(tier) = &self.text else {
            return Ok(());
        };
        let arena = tier.packed.as_ref().map_or(0, CompressedStrings::len);
        let slots_resolve = tier.slots.iter().flatten().all(|slot| match slot.text {
            TextRef::Raw(_) => tier.packed.is_none(),
            TextRef::Packed(i) => (i as usize) < arena,
        });
        if !slots_resolve || (tier.packed.is_some() && tier.pending != 0) {
            return Err(corrupt("text slots and the FSST arena disagree"));
        }
        Ok(())
    }

    /// Appends a payload.
    pub fn push(&mut self, mut payload: Payload) {
        self.geo.push(take_position(&mut payload));
        let Some(tier) = self.text.as_mut() else {
            self.skeletons.push(payload);
            return;
        };
        let (skeleton, mut slots) = Self::split(payload);
        self.skeletons.push(skeleton);
        match tier.packed.as_mut() {
            // Trained: this payload's text is the only raw text there is.
            Some(arena) => {
                for slot in &mut slots {
                    slot.pack_into(arena);
                }
                tier.slots.push(slots);
            }
            None => {
                tier.pending += slots.len();
                tier.slots.push(slots);
                tier.train_when_due();
            }
        }
    }

    /// The position at `offset` when it lives in the column alone (see
    /// the type docs).
    fn moved_position(&self, offset: usize) -> Option<[f64; 2]> {
        let position = self.geo[offset];
        (!position[0].is_nan() && !self.skeletons[offset].0.contains_key(LAT)).then_some(position)
    }

    /// The full payload at `offset` — what was stored, `Value` for
    /// `Value`: a moved position put back, compressed text reassembled.
    #[must_use]
    pub fn get(&self, offset: usize) -> Payload {
        let mut p = self.skeletons[offset].clone();
        if let Some([lat, lon]) = self.moved_position(offset) {
            p.set(LAT, Value::from(lat));
            p.set(LON, Value::from(lon));
        }
        if let Some(tier) = &self.text {
            for slot in &tier.slots[offset] {
                p.set(slot.key.clone(), Value::String(tier.text_of(slot)));
            }
        }
        p
    }

    /// Evaluates `filter` at `offset` — the one evaluator: the geo box
    /// reads the `(lat, lon)` column and nothing else.
    #[must_use]
    pub fn matches(&self, offset: usize, filter: &Filter) -> bool {
        in_box(self.geo[offset], filter)
    }

    /// [`PayloadStore::matches`] at every offset, in offset order: one
    /// pass over a flat array of `f64` pairs.
    #[must_use]
    pub fn mask(&self, filter: &Filter) -> Vec<bool> {
        self.geo.iter().map(|&p| in_box(p, filter)).collect()
    }

    /// Estimated heap bytes: the geo column (16 B a point), the JSON
    /// size of the skeletons — which no longer hold a moved position —
    /// and the text tier (raw buffered strings at full size, packed
    /// strings at arena size). An accounting estimate, not an allocator
    /// census.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let geo_bytes = self.geo.len() * std::mem::size_of::<[f64; 2]>();
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
        geo_bytes + skeleton_bytes + text_bytes
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
}

impl TextSlot {
    /// Moves raw text into `arena`; packed text stays where it is.
    fn pack_into(&mut self, arena: &mut CompressedStrings) {
        if let TextRef::Raw(t) = &self.text {
            self.text = TextRef::Packed(arena.push(t));
        }
    }
}

impl TextTier {
    /// Trains the symbol table once [`TRAIN_AT`] raw strings have
    /// accumulated, then drains every one of them into the arena in slot
    /// order. Called only before training: afterwards each push packs
    /// its own text on arrival.
    fn train_when_due(&mut self) {
        if self.pending < TRAIN_AT {
            return;
        }
        let sample: Vec<&[u8]> = self
            .slots
            .iter()
            .flatten()
            .filter_map(|s| match &s.text {
                TextRef::Raw(t) => Some(t.as_bytes()),
                TextRef::Packed(_) => None,
            })
            .take(TRAIN_SAMPLE)
            .collect();
        let arena = self
            .packed
            .insert(CompressedStrings::new(SymbolTable::train(&sample)));
        for slot in self.slots.iter_mut().flatten() {
            slot.pack_into(arena);
        }
        self.pending = 0;
    }
}

/// The geo verdict: whether a column entry lies inside `filter`'s box,
/// edges included. A NaN — no position, or a NaN edge — fails every
/// comparison.
#[inline]
fn in_box([lat, lon]: [f64; 2], filter: &Filter) -> bool {
    let Filter::GeoBoundingBox {
        min_lat,
        min_lon,
        max_lat,
        max_lon,
    } = filter;
    lat >= *min_lat && lat <= *max_lat && lon >= *min_lon && lon <= *max_lon
}

/// The geo-column entry for `payload` — its `lat` / `lon` as
/// [`Payload::get_f64`] reads them, a NaN pair when either is missing
/// or not a number — and whether both are finite floats, the one shape
/// the column gives back bit for bit.
fn position_of(payload: &Payload) -> ([f64; 2], bool) {
    let (Some(lat), Some(lon)) = (payload.get_f64(LAT), payload.get_f64(LON)) else {
        return ([f64::NAN; 2], false);
    };
    let finite_float = |key, x: f64| x.is_finite() && payload.get(key).is_some_and(Value::is_f64);
    ([lat, lon], finite_float(LAT, lat) && finite_float(LON, lon))
}

/// [`position_of`], taking the two fields out of the payload when they
/// are movable.
fn take_position(payload: &mut Payload) -> [f64; 2] {
    let (position, movable) = position_of(payload);
    if movable {
        payload.0.remove(LAT);
        payload.0.remove(LON);
    }
    position
}

impl TextTier {
    /// The text a slot holds, decompressed if packed.
    fn text_of(&self, slot: &TextSlot) -> String {
        match &slot.text {
            TextRef::Raw(s) => s.clone(),
            TextRef::Packed(i) => self
                .packed
                .as_ref()
                .expect("packed ref implies trained arena")
                .get(*i),
        }
    }
}

#[cfg(test)]
impl Filter {
    /// The evaluator the geo column replaced, kept as the reference the
    /// column is held to: the box checked against a reassembled
    /// payload's `lat` / `lon` as its JSON map holds them.
    fn matches_payload(&self, payload: &Payload) -> bool {
        let Filter::GeoBoundingBox {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        } = self;
        let (Some(lat), Some(lon)) = (payload.get_f64(LAT), payload.get_f64(LON)) else {
            return false;
        };
        lat >= *min_lat && lat <= *max_lat && lon >= *min_lon && lon <= *max_lon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde_json::json;

    fn poi(lat: f64, lon: f64, city: &str, stars: f64) -> Payload {
        Payload::from_pairs(&[
            ("lat", json!(lat)),
            ("lon", json!(lon)),
            ("city", json!(city)),
            ("stars", json!(stars)),
        ])
    }

    /// `filter`'s verdict on `payload` once stored.
    fn holds(filter: &Filter, payload: Payload) -> bool {
        let mut s = PayloadStore::plain();
        s.push(payload);
        s.matches(0, filter)
    }

    #[test]
    fn geo_box_inclusive_edges() {
        let f = Filter::geo_box(0.0, 0.0, 1.0, 1.0);
        assert!(holds(&f, poi(0.0, 0.0, "x", 3.0)));
        assert!(holds(&f, poi(1.0, 1.0, "x", 3.0)));
        assert!(!holds(&f, poi(1.00001, 0.5, "x", 3.0)));
    }

    #[test]
    fn geo_box_missing_fields_fails() {
        let f = Filter::geo_box(0.0, 0.0, 1.0, 1.0);
        assert!(!holds(&f, Payload::new()));
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
        assert!(s.skeletons[3].get("tips").is_none());
        assert!(s.skeletons[3].get("name").is_some());
    }

    #[test]
    fn a_float_position_is_moved_not_copied() {
        let mut s = PayloadStore::plain();
        let mut unmoved = PayloadStore::plain();
        for i in 0..20 {
            s.push(tip_payload(i));
            let mut p = tip_payload(i);
            p.set("lat", json!(i)); // an integer stays where it is
            unmoved.push(p);
        }
        // The position is in the column and nowhere else, and the
        // column's 16 B cost less than the JSON the two numbers were.
        let skeleton = &s.skeletons[3];
        assert!(skeleton.get("lat").is_none() && skeleton.get("lon").is_none());
        assert!(unmoved.skeletons[3].get("lat").is_some());
        assert!(s.memory_bytes() < unmoved.memory_bytes());
        // The box still finds it.
        let north = Filter::geo_box(0.025, -1.0, 1.0, 0.0);
        assert!(s.matches(3, &north) && !s.matches(2, &north));
        assert_eq!(s.get(3), tip_payload(3));
    }

    /// `store` packed, and read back from those bytes.
    fn repack(store: &PayloadStore) -> (Vec<u8>, Result<PayloadStore, VecDbError>) {
        let mut w = crate::codec::COLLECTION.writer(0);
        store.pack(&mut w).unwrap();
        let bytes = w.into_body();
        let mut r = Reader::over(&bytes);
        let back = PayloadStore::unpack(&mut r).and_then(|s| r.finish().map(|()| s));
        (bytes, back)
    }

    #[test]
    fn packed_store_round_trip() {
        let mut s = PayloadStore::compressed();
        for i in 0..(super::TRAIN_AT + 10) {
            s.push(tip_payload(i));
        }
        let (_, back) = repack(&s);
        let back = back.unwrap();
        assert_eq!(back.len(), s.len());
        for i in [0, super::TRAIN_AT + 5] {
            assert_eq!(back.get(i), s.get(i));
        }
        assert_eq!(back.memory_bytes(), s.memory_bytes());
    }

    #[test]
    fn payload_accessors() {
        let mut p = poi(1.0, 2.0, "x", 3.5);
        assert_eq!(p.get_f64("lat"), Some(1.0));
        assert_eq!(p.get("city").and_then(Value::as_str), Some("x"));
        p.set("is_open", json!(true));
        assert_eq!(p.get("is_open"), Some(&json!(true)));
    }

    // ---- the column against the evaluator it replaced ----

    /// Every shape a `lat` / `lon` field has been seen to take, and a
    /// few it should never: `None` is a missing field.
    fn hostile_value(pick: usize, x: f64) -> Option<Value> {
        let long = "a position written out in words, seventy characters or more of it, to be exact";
        assert!(long.len() >= COMPRESS_MIN_LEN);
        Some(match pick {
            0 => return None,
            1 => json!(x),
            2 => json!(-0.0),
            3 => json!(0.0),
            4 => json!(1.0),
            5 => json!(1e308),
            6 => json!(0),
            7 => json!(1),
            8 => json!(-1),
            9 => json!(u64::MAX),
            10 => json!("0.5"),
            11 => json!(long),
            12 => Value::Null,
            13 => json!({ "lat": 0.5, "lon": 0.5 }),
            14 => json!(f64::NAN),
            15 => json!(f64::INFINITY),
            16 => json!(true),
            _ => json!(-x),
        })
    }
    const HOSTILE_VALUES: usize = 18;

    fn hostile_payload((lat, lon, x, y, extras): (usize, usize, f64, f64, usize)) -> Payload {
        let mut p = Payload::new();
        for (key, v) in [
            ("lat", hostile_value(lat, x)),
            ("lon", hostile_value(lon, y)),
        ] {
            if let Some(v) = v {
                p.set(key, v);
            }
        }
        if extras & 1 == 1 {
            p.set("name", json!("a"));
            p.set("zone", json!(7));
        }
        if extras & 2 == 2 {
            p.set(
                "tips",
                json!(format!(
                    "visitor {lat}{lon} found the coffee here excellent and the staff kind"
                )),
            );
        }
        p
    }

    fn hostile_bound(pick: usize, x: f64) -> f64 {
        match pick {
            0 => x,
            1 => -0.0,
            2 => 0.0,
            3 => 1.0,
            4 => -1.0,
            5 => 1e308,
            6 => -1e308,
            7 => f64::NAN,
            8 => f64::INFINITY,
            9 => f64::NEG_INFINITY,
            10 => 180.0,
            _ => -180.0,
        }
    }
    const HOSTILE_BOUNDS: usize = 12;

    /// The boxes every stored payload is judged by: the whole world,
    /// boxes with a stored position exactly on their edges, and the
    /// generated boxes (inverted and NaN-edged ones among them).
    fn filters_over(boxes: &[Vec<(usize, f64)>], payloads: &[Payload]) -> Vec<Filter> {
        let mut out = vec![Filter::geo_box(-90.0, -180.0, 90.0, 180.0)];
        // Boxes with a stored position on their edges.
        for p in payloads.iter().take(4) {
            if let (Some(lat), Some(lon)) = (p.get_f64("lat"), p.get_f64("lon")) {
                out.push(Filter::geo_box(lat, lon, lat, lon));
                out.push(Filter::geo_box(f64::NEG_INFINITY, -180.0, lat, lon));
                out.push(Filter::geo_box(lat, lon, 90.0, f64::INFINITY));
            }
        }
        for b in boxes {
            let [s, w, n, e] = [0, 1, 2, 3].map(|i| hostile_bound(b[i].0, b[i].1));
            out.push(Filter::geo_box(s, w, n, e));
        }
        out
    }

    /// `store` holds exactly `model`, `Value` for `Value` (`Debug`
    /// tells `1` from `1.0` and `-0.0` from `0.0`; `==` does not), and
    /// gives every filter the reference's verdict at every offset.
    fn check_against_model(
        store: &PayloadStore,
        model: &[Payload],
        filters: &[Filter],
        stage: &str,
    ) -> Result<(), String> {
        prop_assert_eq!(store.len(), model.len(), "{}", stage);
        for (o, stored) in model.iter().enumerate() {
            let got = store.get(o);
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{stored:?}"),
                "{} offset {}",
                stage,
                o
            );
            for f in filters {
                prop_assert_eq!(
                    store.matches(o, f),
                    f.matches_payload(&got),
                    "{} offset {} payload {:?} filter {:?}",
                    stage,
                    o,
                    stored,
                    f
                );
            }
        }
        Ok(())
    }

    fn hostile_payloads(max: usize) -> impl Strategy<Value = Vec<Payload>> {
        let one = (
            0..HOSTILE_VALUES,
            0..HOSTILE_VALUES,
            -1.0f64..1.0,
            -1.0f64..1.0,
            0usize..4,
        );
        prop::collection::vec(one.prop_map(hostile_payload), 1..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The geo column gives every point the verdict the JSON
        /// look-up gave it, and gives back the payload that was stored,
        /// through a store's whole life: pushes, FSST training, and a
        /// trip through the serialized form.
        #[test]
        fn the_column_answers_like_the_payload_it_was_read_from(
            payloads in hostile_payloads(40),
            boxes in prop::collection::vec(
                prop::collection::vec((0..HOSTILE_BOUNDS, -1.0f64..1.0), 4),
                1..6,
            ),
            compressed in 0usize..2,
            train in 0usize..4,
        ) {
            let filters = filters_over(&boxes, &payloads);
            let mut store = if compressed == 1 {
                PayloadStore::compressed()
            } else {
                PayloadStore::plain()
            };
            let mut model: Vec<Payload> = Vec::new();
            for p in &payloads {
                store.push(p.clone());
                model.push(p.clone());
            }
            check_against_model(&store, &model, &filters, "pushed")?;

            // One case in four crosses the training trigger, so packed
            // references and a trained arena are live for what follows.
            if train == 0 {
                for i in 0..TRAIN_AT {
                    store.push(tip_payload(i));
                    model.push(tip_payload(i));
                }
                prop_assert_eq!(
                    store.text.as_ref().is_some_and(|t| t.packed.is_some()),
                    compressed == 1
                );
                check_against_model(&store, &model, &filters[..3], "trained")?;
            }

            // Packed and read back, the store is the one that was packed:
            // every payload `Value` for `Value`, every verdict, the bytes.
            let (bytes, back) = repack(&store);
            let back = back.unwrap();
            let few = if train == 0 { &filters[..3] } else { &filters[..] };
            check_against_model(&back, &model, few, "reloaded")?;
            prop_assert!(repack(&back).0 == bytes);
        }
    }

    #[test]
    fn a_column_that_disagrees_with_its_skeleton_is_refused() {
        let mut s = PayloadStore::plain();
        s.push(tip_payload(1)); // moved: floats
        let mut p = tip_payload(2);
        p.set("lat", json!(3)); // kept: an integer
        s.push(p);
        s.push(Payload::new()); // no position
        assert!(repack(&s).1.is_ok());
        // An empty skeleton beside a finite pair reads as a moved
        // position, beside a NaN pair as none: both are payloads `push`
        // makes. Everything else disagrees.
        let nan = [f64::NAN; 2];
        for (o, column, loads) in [
            (0, [f64::NAN, 0.5], false),
            (0, nan, true),
            (1, [3.0, 0.25], false),
            (1, nan, false),
            (2, [0.5, 0.5], true),
            (2, [0.5, f64::NAN], false),
        ] {
            let mut damaged = s.clone();
            damaged.geo[o] = column;
            assert_eq!(
                repack(&damaged).1.is_ok(),
                loads,
                "offset {o} column {column:?}"
            );
        }
        // A skeleton that still holds a movable pair.
        let mut damaged = s.clone();
        damaged.skeletons[0].set("lat", json!(0.01));
        damaged.skeletons[0].set("lon", json!(-0.01));
        assert!(repack(&damaged).1.is_err());
    }
}
