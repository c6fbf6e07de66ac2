//! The byte layer under snapshots: the crate's one checksum, a
//! section-framed container, a bounds-checked cursor, and the binary
//! encoding of JSON payload values.
//!
//! A container is `magic | version | crc32 | section table | sections`;
//! a [`Format`] names its magic, the one version its readers accept and
//! its section count. A collection snapshot is one of five sections
//! (layout in [`crate::db`]); a crate that stores more beside a collection declares
//! a format of its own and packs the collection's sections into it with
//! [`crate::Collection::pack_sections`], so one file carries one
//! checksum. [`Writer`] builds a container in a single buffer and
//! [`Writer::finish`] hands it over as an [`UnsealedSnapshot`] — every
//! section in place, the section table and checksum not yet written — so
//! the caller decides on which thread the checksum pass runs;
//! [`UnsealedSnapshot::seal`] writes them. [`Format::open`] verifies
//! magic, version and checksum and only then hands out one [`Reader`]
//! per section. A `Reader` never indexes past its slice and never
//! allocates for a count it has not first checked against the bytes
//! that remain, so a hostile length costs an `Err`, not a panic or an
//! allocation.
//!
//! Fixed-width arrays (vectors, norms, ids, codes, links, offsets) go
//! out and come back as one block each (`Writer::f32s`,
//! `Reader::f32s` and their `u32` / `u64` / `f64` twins), not element
//! by element.
//!
//! A JSON [`Value`] is written as a one-byte tag and its contents, all
//! little-endian:
//!
//! ```text
//! 0 null   1 false   2 true
//! 3 i64    4 u64     5 f64        8 bytes: the integer, or the float's bits
//! 6 string u32 byte length + UTF-8
//! 7 array  u32 count + count values
//! 8 object u32 count + count × (u32 key length + UTF-8 key, value),
//!          keys strictly ascending
//! ```
//!
//! Each number keeps the kind it was stored as — `1`, `1.0` and a `u64`
//! above `i64::MAX` are three encodings, and `-0.0` keeps its sign bit —
//! so a restored payload is the stored one `Value` for `Value`. Nesting
//! is bounded at `MAX_DEPTH` (128) both ways: a writer refuses to produce
//! what a reader would refuse to read, and a hostile file cannot recurse
//! the reader off its stack.

use serde::Content;
use serde_json::{Map, Value};

use crate::error::VecDbError;

/// A container format: the bytes it starts with, the only version its
/// readers accept, and `N` sections. A layout change bumps the version;
/// any other value is rejected, never migrated.
#[derive(Debug, Clone, Copy)]
pub struct Format<const N: usize> {
    /// First bytes of every file of this format.
    pub magic: [u8; 8],
    /// The version this build writes and the only one it reads.
    pub version: u32,
}

/// A collection snapshot: meta, vectors, inverse norms, quantizer, HNSW
/// graph.
pub(crate) const COLLECTION: Format<5> = Format {
    magic: *b"VECDBSNP",
    version: 3,
};

/// Byte offset the checksum covers from (everything after the CRC field).
const BODY: usize = 8 + 4 + 4;

/// Deepest nesting of arrays and objects a stored payload may have
/// (serde_json's own recursion limit).
const MAX_DEPTH: usize = 128;

/// Tags of the binary [`Value`] encoding (module docs).
mod tag {
    pub const NULL: u8 = 0;
    pub const FALSE: u8 = 1;
    pub const TRUE: u8 = 2;
    pub const I64: u8 = 3;
    pub const U64: u8 = 4;
    pub const F64: u8 = 5;
    pub const STRING: u8 = 6;
    pub const ARRAY: u8 = 7;
    pub const OBJECT: u8 = 8;
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum of WAL
/// records and of collection snapshots. Hand-rolled tables so nothing
/// needs an external checksum crate; the constant matches the
/// ubiquitous `crc32` everyone else computes, which keeps both formats
/// inspectable with standard tools.
///
/// Slicing-by-8: eight bytes per step through eight tables, because a
/// checkpoint and a restart each checksum the whole snapshot (7 MB at
/// 4,000 POIs: ~25 ms a byte at a time, ~5 ms this way).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        // t[k][i]: the CRC of byte `i` followed by `k` zero bytes.
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    });
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// A snapshot that could not be written, read or believed.
pub fn corrupt(cause: impl Into<String>) -> VecDbError {
    VecDbError::Snapshot {
        cause: cause.into(),
    }
}

impl<const N: usize> Format<N> {
    /// Bytes before the first section: the fixed prefix, the section
    /// count and one `u64` length per section.
    const HEADER: usize = BODY + 4 + N * 8;

    /// A writer of this format with room for `body_hint` section bytes.
    #[must_use]
    pub fn writer(&self, body_hint: usize) -> Writer {
        let mut buf = Vec::with_capacity(Self::HEADER + body_hint);
        buf.extend_from_slice(&self.magic);
        buf.extend_from_slice(&self.version.to_le_bytes());
        // Checksum and section table: filled in by `seal`.
        buf.resize(Self::HEADER, 0);
        Writer {
            buf,
            ends: Vec::with_capacity(N),
            sections: N,
        }
    }

    /// Verifies a file's magic, version and checksum, then its section
    /// table (the declared lengths must tile the rest of the file
    /// exactly), and returns one cursor per section.
    ///
    /// # Errors
    /// [`VecDbError::Snapshot`] naming the first check that failed; a
    /// file of another version is named by its version.
    pub fn open<'a>(&self, file: &'a [u8]) -> Result<[Reader<'a>; N], VecDbError> {
        let mut head = Reader { rest: file };
        if head.take(self.magic.len())? != self.magic {
            return Err(corrupt(format!(
                "not a {} file (bad magic)",
                String::from_utf8_lossy(&self.magic)
            )));
        }
        let version = head.u32()?;
        if version != self.version {
            return Err(corrupt(format!(
                "snapshot format version {version}, this build reads only {}",
                self.version
            )));
        }
        let stored = head.u32()?;
        if crc32(head.rest) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        if head.u32()? as usize != N {
            return Err(corrupt("wrong section count"));
        }
        let mut lens = [0usize; N];
        for len in &mut lens {
            *len = head.len64()?;
        }
        let mut sections = [Reader { rest: &[] }; N];
        for (section, len) in sections.iter_mut().zip(lens) {
            section.rest = head.take(len)?;
        }
        head.finish()?;
        Ok(sections)
    }
}

/// Builds a container in one buffer: append a section's bytes, call
/// [`Writer::end_section`], repeat for every section of the format,
/// [`Writer::finish`]. [`Format::writer`] makes one.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
    /// Where each finished section ended.
    ends: Vec<usize>,
    /// Sections the format holds.
    sections: usize,
}

impl Writer {
    /// Makes room for `additional` more bytes.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// One byte, 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `usize` length or count, stored as `u64`.
    pub fn len64(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f32(&mut self, v: f32) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64`'s bits, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed (`u32`) string.
    pub fn str(&mut self, s: &str) -> Result<(), VecDbError> {
        let len =
            u32::try_from(s.len()).map_err(|_| corrupt(format!("a {}-byte string", s.len())))?;
        self.u32(len);
        self.bytes(s.as_bytes());
        Ok(())
    }

    /// `vs` as one block of little-endian words: the buffer grows once
    /// and each word is copied into its slot.
    fn words<const N: usize, T: Copy>(&mut self, vs: &[T], encode: fn(T) -> [u8; N]) {
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * N, 0);
        for (slot, &v) in self.buf[start..].chunks_exact_mut(N).zip(vs) {
            slot.copy_from_slice(&encode(v));
        }
    }

    /// One byte a flag, 0 or 1.
    pub(crate) fn bools(&mut self, vs: &[bool]) {
        self.words(vs, |b| [u8::from(b)]);
    }

    pub(crate) fn f32s(&mut self, vs: &[f32]) {
        self.words(vs, f32::to_le_bytes);
    }

    /// `vs` as one block of little-endian words.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.words(vs, u32::to_le_bytes);
    }

    pub(crate) fn u64s(&mut self, vs: &[u64]) {
        self.words(vs, u64::to_le_bytes);
    }

    pub(crate) fn f64s(&mut self, vs: &[f64]) {
        self.words(vs, f64::to_le_bytes);
    }

    /// A JSON object's entries (no tag), keys ascending as the map
    /// keeps them, in the encoding of the module docs.
    ///
    /// # Errors
    /// A value nested deeper than [`MAX_DEPTH`], or a string or
    /// container too long for its `u32` length.
    pub(crate) fn object(&mut self, m: &Map<String, Value>) -> Result<(), VecDbError> {
        self.object_at(m, 0)
    }

    fn value_at(&mut self, v: &Value, depth: usize) -> Result<(), VecDbError> {
        match v {
            Value::Null => self.u8(tag::NULL),
            Value::Bool(false) => self.u8(tag::FALSE),
            Value::Bool(true) => self.u8(tag::TRUE),
            // `Content` is the one place the number's stored kind shows.
            Value::Number(n) => match Content::from(&Value::Number(*n)) {
                Content::I64(i) => {
                    self.u8(tag::I64);
                    self.bytes(&i.to_le_bytes());
                }
                Content::U64(u) => {
                    self.u8(tag::U64);
                    self.u64(u);
                }
                Content::F64(x) => {
                    self.u8(tag::F64);
                    self.f64(x);
                }
                _ => unreachable!("a number converts to a number"),
            },
            Value::String(s) => {
                self.u8(tag::STRING);
                self.str(s)?;
            }
            Value::Array(items) => {
                self.u8(tag::ARRAY);
                self.count32(items.len(), depth)?;
                for item in items {
                    self.value_at(item, depth + 1)?;
                }
            }
            Value::Object(m) => {
                self.u8(tag::OBJECT);
                self.object_at(m, depth)?;
            }
        }
        Ok(())
    }

    fn object_at(&mut self, m: &Map<String, Value>, depth: usize) -> Result<(), VecDbError> {
        self.count32(m.len(), depth)?;
        for (k, v) in m.iter() {
            self.str(k)?;
            self.value_at(v, depth + 1)?;
        }
        Ok(())
    }

    /// The element count of a container opened at `depth`.
    fn count32(&mut self, count: usize, depth: usize) -> Result<(), VecDbError> {
        if depth >= MAX_DEPTH {
            return Err(corrupt(format!(
                "a payload nested deeper than {MAX_DEPTH} levels"
            )));
        }
        let count =
            u32::try_from(count).map_err(|_| corrupt(format!("a {count}-element container")))?;
        self.u32(count);
        Ok(())
    }

    /// Closes the current section at the bytes appended so far.
    pub fn end_section(&mut self) {
        self.ends.push(self.buf.len());
    }

    /// Hands over every section's bytes, the section table and the
    /// checksum still unwritten.
    ///
    /// # Panics
    /// If the sections ended are not the format's count.
    #[must_use]
    pub fn finish(self) -> UnsealedSnapshot {
        assert_eq!(
            self.ends.len(),
            self.sections,
            "a container of this format has {} sections",
            self.sections
        );
        UnsealedSnapshot {
            buf: self.buf,
            ends: self.ends,
        }
    }
}

/// A packed container whose section table and checksum are not yet
/// written: what [`crate::Collection::pack_snapshot`] returns, cheap to
/// take under a lock. [`UnsealedSnapshot::seal`] finishes it
/// into the file bytes — the checksum is a pass over every byte, so a
/// caller that holds a lock while packing seals after releasing it.
#[derive(Debug)]
pub struct UnsealedSnapshot {
    buf: Vec<u8>,
    /// Where each section ends.
    ends: Vec<usize>,
}

impl UnsealedSnapshot {
    /// Fills in the section table, then the checksum over everything
    /// after the CRC field, and returns the file bytes.
    #[must_use]
    pub fn seal(mut self) -> Vec<u8> {
        let header = BODY + 4 + self.ends.len() * 8;
        let mut table = Vec::with_capacity(header - BODY);
        table.extend_from_slice(&(self.ends.len() as u32).to_le_bytes());
        let mut start = header;
        for &end in &self.ends {
            table.extend_from_slice(&((end - start) as u64).to_le_bytes());
            start = end;
        }
        self.buf[BODY..header].copy_from_slice(&table);
        let crc = crc32(&self.buf[BODY..]);
        self.buf[BODY - 4..BODY].copy_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// A bounds-checked cursor over one section's bytes.
#[derive(Clone, Copy)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, or an error if fewer remain.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], VecDbError> {
        if n > self.rest.len() {
            return Err(corrupt(format!(
                "truncated: {n} bytes declared, {} remain",
                self.rest.len()
            )));
        }
        let (taken, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(taken)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], VecDbError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, VecDbError> {
        self.array().map(|[b]| b)
    }

    /// A byte that must be 0 or 1 — anything else would make two files
    /// decode to one collection.
    pub fn bool(&mut self) -> Result<bool, VecDbError> {
        self.bools(1).map(|b| b[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, VecDbError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, VecDbError> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn f32(&mut self) -> Result<f32, VecDbError> {
        self.array().map(f32::from_le_bytes)
    }

    /// An `f64` from its little-endian bits.
    pub fn f64(&mut self) -> Result<f64, VecDbError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A stored `u64` length or count as a `usize`.
    pub fn len64(&mut self) -> Result<usize, VecDbError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt(format!("length {v} does not fit this platform")))
    }

    /// A count of things that each take at least `min_bytes` of what
    /// remains — refused if they cannot all fit, so nothing is sized by
    /// a count the bytes do not back.
    pub fn count(&mut self, count: usize, min_bytes: usize) -> Result<usize, VecDbError> {
        if count > self.rest.len() / min_bytes.max(1) {
            return Err(corrupt(format!(
                "{count} items declared, {} bytes remain",
                self.rest.len()
            )));
        }
        Ok(count)
    }

    /// A length-prefixed (`u32`) UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, VecDbError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|e| corrupt(format!("string: {e}")))
    }

    /// `count` little-endian words of `N` bytes each, as one block; the
    /// byte count is checked against what remains before anything is
    /// allocated.
    fn words<const N: usize, T>(
        &mut self,
        count: usize,
        decode: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, VecDbError> {
        let bytes = count
            .checked_mul(N)
            .ok_or_else(|| corrupt(format!("count {count} overflows")))?;
        Ok(self
            .take(bytes)?
            .chunks_exact(N)
            .map(|c| decode(c.try_into().expect("chunks_exact yields N bytes")))
            .collect())
    }

    /// `count` flag bytes, each 0 or 1.
    pub(crate) fn bools(&mut self, count: usize) -> Result<Vec<bool>, VecDbError> {
        self.take(count)?
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                b => Err(corrupt(format!("flag byte {b}"))),
            })
            .collect()
    }

    pub(crate) fn f32s(&mut self, count: usize) -> Result<Vec<f32>, VecDbError> {
        self.words(count, f32::from_le_bytes)
    }

    /// `count` little-endian `u32`s, the bytes checked before anything
    /// is allocated.
    pub fn u32s(&mut self, count: usize) -> Result<Vec<u32>, VecDbError> {
        self.words(count, u32::from_le_bytes)
    }

    pub(crate) fn u64s(&mut self, count: usize) -> Result<Vec<u64>, VecDbError> {
        self.words(count, u64::from_le_bytes)
    }

    pub(crate) fn f64s(&mut self, count: usize) -> Result<Vec<f64>, VecDbError> {
        self.words(count, f64::from_le_bytes)
    }

    /// A JSON object's entries as [`Writer::object`] wrote them.
    pub(crate) fn object(&mut self) -> Result<Map<String, Value>, VecDbError> {
        self.object_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, VecDbError> {
        Ok(match self.u8()? {
            tag::NULL => Value::Null,
            tag::FALSE => Value::Bool(false),
            tag::TRUE => Value::Bool(true),
            tag::I64 => Value::from(&Content::I64(self.array().map(i64::from_le_bytes)?)),
            tag::U64 => Value::from(&Content::U64(self.u64()?)),
            tag::F64 => Value::from(&Content::F64(self.f64()?)),
            tag::STRING => Value::String(self.str()?.to_owned()),
            tag::ARRAY => {
                // Every element takes at least its tag byte.
                let count = self.count32(depth, 1)?;
                let mut items = Vec::new();
                for _ in 0..count {
                    items.push(self.value_at(depth + 1)?);
                }
                Value::Array(items)
            }
            tag::OBJECT => Value::Object(self.object_at(depth)?),
            t => return Err(corrupt(format!("value tag {t}"))),
        })
    }

    fn object_at(&mut self, depth: usize) -> Result<Map<String, Value>, VecDbError> {
        // Every entry takes at least a key length and a tag.
        let count = self.count32(depth, 5)?;
        let mut m = Map::new();
        let mut last: Option<&str> = None;
        for _ in 0..count {
            let key = self.str()?;
            if last.is_some_and(|prev| prev >= key) {
                return Err(corrupt(format!("object key `{key}` out of order")));
            }
            last = Some(key);
            let v = self.value_at(depth + 1)?;
            m.insert(key.to_owned(), v);
        }
        Ok(m)
    }

    /// The element count of a container opened at `depth`.
    fn count32(&mut self, depth: usize, min_bytes: usize) -> Result<usize, VecDbError> {
        if depth >= MAX_DEPTH {
            return Err(corrupt(format!(
                "a payload nested deeper than {MAX_DEPTH} levels"
            )));
        }
        let count = self.u32()? as usize;
        self.count(count, min_bytes)
    }

    /// Errors unless the section was consumed exactly — trailing bytes
    /// would make two different files decode to one collection.
    pub fn finish(self) -> Result<(), VecDbError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(corrupt(format!("{} trailing bytes", self.rest.len())))
        }
    }
}

#[cfg(test)]
impl Writer {
    /// What has been appended after the header — one part's bytes, for
    /// a unit test of that part alone.
    pub(crate) fn into_body(self) -> Vec<u8> {
        self.buf[BODY + 4 + self.sections * 8..].to_vec()
    }
}

#[cfg(test)]
impl<'a> Reader<'a> {
    /// A cursor over `rest`, for a unit test of one part.
    pub(crate) fn over(rest: &'a [u8]) -> Self {
        Self { rest }
    }

    /// Everything that is left.
    fn take_rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_agrees_with_the_bitwise_definition_at_every_alignment() {
        let bitwise = |bytes: &[u8]| {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        };
        let data: Vec<u8> = (0..200u32).map(|i| (i * 151 + 13) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                assert_eq!(crc32(&data[start..end]), bitwise(&data[start..end]));
            }
        }
    }

    fn sample() -> Vec<u8> {
        let mut w = COLLECTION.writer(64);
        w.bytes(b"meta");
        w.end_section();
        w.f32s(&[1.5, -0.0, f32::MIN_POSITIVE]);
        w.end_section();
        w.end_section();
        w.u64(7);
        w.end_section();
        w.u32s(&[3, u32::MAX]);
        w.end_section();
        w.finish().seal()
    }

    #[test]
    fn sections_round_trip_bit_for_bit() {
        let file = sample();
        let [mut meta, mut floats, empty, mut len, mut words] = COLLECTION.open(&file).unwrap();
        assert_eq!(meta.take_rest(), b"meta");
        let back = floats.f32s(3).unwrap();
        assert_eq!(
            back.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            [1.5f32, -0.0, f32::MIN_POSITIVE].map(f32::to_bits)
        );
        floats.finish().unwrap();
        assert_eq!(empty.remaining(), 0);
        assert_eq!(len.len64().unwrap(), 7);
        assert_eq!(words.u32s(2).unwrap(), [3, u32::MAX]);
        assert!(words.u32().is_err(), "reading past the end is an error");
    }

    #[test]
    fn damaged_containers_are_rejected() {
        let file = sample();
        for cut in 0..file.len() {
            assert!(COLLECTION.open(&file[..cut]).is_err(), "truncated at {cut}");
        }
        for bit in 0..file.len() * 8 {
            let mut bad = file.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(COLLECTION.open(&bad).is_err(), "bit {bit} flipped");
        }
        let mut longer = file.clone();
        longer.push(0);
        assert!(COLLECTION.open(&longer).is_err(), "trailing byte");
    }

    #[test]
    fn a_count_larger_than_the_section_never_allocates() {
        let file = sample();
        let [_, mut floats, ..] = COLLECTION.open(&file).unwrap();
        assert!(floats.f32s(usize::MAX / 2).is_err());
        assert!(floats.f32s(4).is_err());
        assert_eq!(floats.remaining(), 12, "a failed read consumes nothing");
    }

    /// One section holding `v`, sealed, and the value read back out.
    fn value_round_trip(v: &Value) -> Result<Value, VecDbError> {
        let mut w = COLLECTION.writer(64);
        w.value_at(v, 0)?;
        for _ in 0..5 {
            w.end_section();
        }
        let file = w.finish().seal();
        let [mut section, ..] = COLLECTION.open(&file)?;
        let back = section.value_at(0)?;
        section.finish()?;
        Ok(back)
    }

    #[test]
    fn values_keep_their_kind() {
        use serde_json::json;
        let minus_zero = Value::from(-0.0f64);
        for v in [
            json!(null),
            json!(true),
            json!(1),
            json!(1.0),
            json!(-1),
            json!(u64::MAX),
            Value::from(&Content::U64(5)),
            minus_zero.clone(),
            Value::from(&Content::F64(f64::NAN)),
            json!(""),
            json!("naïve ☕"),
            json!([1, [2.5, []], {"a": {}}]),
            json!({"b": null, "a": [false, "x"], "": 0}),
        ] {
            let back = value_round_trip(&v).unwrap();
            assert_eq!(format!("{back:?}"), format!("{v:?}"));
        }
        let back = value_round_trip(&minus_zero).unwrap();
        assert!(back.as_f64().unwrap().is_sign_negative());
    }

    #[test]
    fn nesting_is_bounded_both_ways() {
        let nest = |depth: usize| (0..depth).fold(Value::Null, |v, _| Value::Array(vec![v]));
        assert!(value_round_trip(&nest(MAX_DEPTH)).is_ok());
        assert!(value_round_trip(&nest(MAX_DEPTH + 1)).is_err(), "writer");
        // A reader handed a deeper nest than any writer produces refuses
        // it instead of recursing as deep as the bytes go.
        let mut bytes = Vec::new();
        for _ in 0..100_000 {
            bytes.extend_from_slice(&[tag::ARRAY, 1, 0, 0, 0]);
        }
        bytes.push(tag::NULL);
        assert!(Reader { rest: &bytes }.value_at(0).is_err(), "reader");
    }

    #[test]
    fn values_that_are_not_canonical_are_refused() {
        // Keys out of order or repeated; a tag past the last; a flag that
        // is neither 0 nor 1; a count larger than the bytes behind it.
        let object = |keys: &[&str]| {
            let mut out = vec![tag::OBJECT];
            out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
            for k in keys {
                out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                out.extend_from_slice(k.as_bytes());
                out.push(tag::NULL);
            }
            out
        };
        assert!(Reader {
            rest: &object(&["a", "b"])
        }
        .value_at(0)
        .is_ok());
        assert!(Reader {
            rest: &object(&["b", "a"])
        }
        .value_at(0)
        .is_err());
        assert!(Reader {
            rest: &object(&["a", "a"])
        }
        .value_at(0)
        .is_err());
        assert!(Reader { rest: &[9] }.value_at(0).is_err());
        assert!(Reader { rest: &[2] }.bool().is_err());
        let lie = [tag::ARRAY, 0xFF, 0xFF, 0xFF, 0xFF, tag::NULL];
        assert!(Reader { rest: &lie }.value_at(0).is_err());
    }
}
