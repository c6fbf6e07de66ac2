//! The byte layer under collection snapshots: the crate's one checksum,
//! a section-framed container, and a bounds-checked cursor.
//!
//! A snapshot is `magic | version | crc32 | section table | sections`
//! (see [`crate::db`] for the layout). [`Writer`] builds one in a single
//! buffer; [`open`] verifies magic, version and checksum and only then
//! hands out one [`Reader`] per section. A `Reader` never indexes past
//! its slice and never allocates for a count it has not first checked
//! against the bytes that remain, so a hostile length costs an `Err`,
//! not a panic or an allocation.

use crate::error::VecDbError;

/// First bytes of every collection snapshot.
const MAGIC: [u8; 8] = *b"VECDBSNP";
/// The only format version this build writes or reads. A layout change
/// bumps it; any other value is rejected, never migrated.
const VERSION: u32 = 1;
/// Sections in a snapshot, in file order: meta, vectors, inverse norms,
/// quantizer, HNSW graph.
const SECTIONS: usize = 5;
/// Byte offset the checksum covers from (everything after the CRC field).
const BODY: usize = MAGIC.len() + 4 + 4;
/// Bytes before the first section: the fixed prefix, the section count
/// and one `u64` length per section.
const HEADER: usize = BODY + 4 + SECTIONS * 8;

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
pub(crate) fn corrupt(cause: impl Into<String>) -> VecDbError {
    VecDbError::Snapshot {
        cause: cause.into(),
    }
}

/// Builds a snapshot in one buffer: append a section's bytes, call
/// [`Writer::end_section`], repeat [`SECTIONS`] times, [`Writer::finish`].
pub(crate) struct Writer {
    buf: Vec<u8>,
    /// Where each finished section ended.
    ends: Vec<usize>,
}

impl Writer {
    /// A writer with room for `body_hint` section bytes.
    pub(crate) fn with_capacity(body_hint: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER + body_hint);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        // Checksum and section table: filled in by `finish`.
        buf.resize(HEADER, 0);
        Self {
            buf,
            ends: Vec::with_capacity(SECTIONS),
        }
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn f32(&mut self, v: f32) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn f32s(&mut self, vs: &[f32]) {
        for &v in vs {
            self.f32(v);
        }
    }

    pub(crate) fn u32s(&mut self, vs: &[u32]) {
        for &v in vs {
            self.u32(v);
        }
    }

    /// Closes the current section at the bytes appended so far.
    pub(crate) fn end_section(&mut self) {
        self.ends.push(self.buf.len());
    }

    /// Fills in the section table, then the checksum over everything
    /// after the CRC field, and returns the file bytes.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        assert_eq!(
            self.ends.len(),
            SECTIONS,
            "a snapshot has {SECTIONS} sections"
        );
        let mut table = Vec::with_capacity(HEADER - BODY);
        table.extend_from_slice(&(SECTIONS as u32).to_le_bytes());
        let mut start = HEADER;
        for &end in &self.ends {
            table.extend_from_slice(&((end - start) as u64).to_le_bytes());
            start = end;
        }
        self.buf[BODY..HEADER].copy_from_slice(&table);
        let crc = crc32(&self.buf[BODY..]);
        self.buf[BODY - 4..BODY].copy_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Verifies a snapshot's magic, version and checksum, then its section
/// table (the declared lengths must tile the rest of the file exactly),
/// and returns one cursor per section.
pub(crate) fn open(file: &[u8]) -> Result<[Reader<'_>; SECTIONS], VecDbError> {
    let mut head = Reader { rest: file };
    if head.take(MAGIC.len())? != MAGIC {
        return Err(corrupt("not a collection snapshot (bad magic)"));
    }
    let version = head.u32()?;
    if version != VERSION {
        return Err(corrupt(format!(
            "snapshot format version {version}, this build reads only {VERSION}"
        )));
    }
    let stored = head.u32()?;
    if crc32(head.rest) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    if head.u32()? as usize != SECTIONS {
        return Err(corrupt("wrong section count"));
    }
    let mut lens = [0usize; SECTIONS];
    for len in &mut lens {
        *len = head.len64()?;
    }
    let mut sections = [Reader { rest: &[] }; SECTIONS];
    for (section, len) in sections.iter_mut().zip(lens) {
        section.rest = head.take(len)?;
    }
    head.finish()?;
    Ok(sections)
}

/// A bounds-checked cursor over one section's bytes.
#[derive(Clone, Copy)]
pub(crate) struct Reader<'a> {
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

    /// Everything that is left.
    pub(crate) fn take_rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], VecDbError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, VecDbError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn f32(&mut self) -> Result<f32, VecDbError> {
        self.array().map(f32::from_le_bytes)
    }

    /// A stored `u64` length or count as a `usize`.
    pub(crate) fn len64(&mut self) -> Result<usize, VecDbError> {
        let v = self.array().map(u64::from_le_bytes)?;
        usize::try_from(v).map_err(|_| corrupt(format!("length {v} does not fit this platform")))
    }

    /// `count` little-endian words of `N` bytes each; the byte count is
    /// checked against what remains before anything is allocated.
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

    pub(crate) fn f32s(&mut self, count: usize) -> Result<Vec<f32>, VecDbError> {
        self.words(count, f32::from_le_bytes)
    }

    pub(crate) fn u32s(&mut self, count: usize) -> Result<Vec<u32>, VecDbError> {
        self.words(count, u32::from_le_bytes)
    }

    /// Errors unless the section was consumed exactly — trailing bytes
    /// would make two different files decode to one collection.
    pub(crate) fn finish(self) -> Result<(), VecDbError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(corrupt(format!("{} trailing bytes", self.rest.len())))
        }
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
        let mut w = Writer::with_capacity(64);
        w.bytes(b"meta");
        w.end_section();
        w.f32s(&[1.5, -0.0, f32::MIN_POSITIVE]);
        w.end_section();
        w.end_section();
        w.u64(7);
        w.end_section();
        w.u32s(&[3, u32::MAX]);
        w.end_section();
        w.finish()
    }

    #[test]
    fn sections_round_trip_bit_for_bit() {
        let file = sample();
        let [mut meta, mut floats, empty, mut len, mut words] = open(&file).unwrap();
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
            assert!(open(&file[..cut]).is_err(), "truncated at {cut}");
        }
        for bit in 0..file.len() * 8 {
            let mut bad = file.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(open(&bad).is_err(), "bit {bit} flipped");
        }
        let mut longer = file.clone();
        longer.push(0);
        assert!(open(&longer).is_err(), "trailing byte");
    }

    #[test]
    fn a_count_larger_than_the_section_never_allocates() {
        let file = sample();
        let [_, mut floats, ..] = open(&file).unwrap();
        assert!(floats.f32s(usize::MAX / 2).is_err());
        assert!(floats.f32s(4).is_err());
        assert_eq!(floats.remaining(), 12, "a failed read consumes nothing");
    }
}
