//! The byte layer under snapshots: the crate's one checksum, a
//! section-framed container and a bounds-checked cursor.
//!
//! A container is `magic | version | crc32 | section table | sections`;
//! a [`Format`] names its magic, the one version its readers accept and
//! its section count. A collection snapshot is one of five sections
//! (layout in [`crate::db`]); a crate that stores more beside a
//! collection declares a format of its own and packs the collection's sections into it with
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
    version: 4,
};

/// Byte offset the checksum covers from (everything after the CRC field).
const BODY: usize = 8 + 4 + 4;

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

    #[test]
    fn values_that_are_not_canonical_are_refused() {
        // A flag that is neither 0 nor 1, a string that is not UTF-8,
        // and a count larger than the bytes behind it.
        let over = |rest: &'static [u8]| Reader { rest };
        assert!(over(&[2]).bool().is_err());
        assert!(over(&[0, 1, 2]).bools(3).is_err());
        assert!(over(&[0, 1]).bools(2).is_ok());
        assert!(over(&[1, 0, 0, 0, 0xFF]).str().is_err());
        assert!(over(&[1, 0, 0, 0, b'a']).str().is_ok());
        let lie = &[0xFF, 0xFF, 0xFF, 0xFF, 0];
        assert!(over(lie).str().is_err());
        assert!(over(lie).count(usize::MAX, 1).is_err());
    }
}
