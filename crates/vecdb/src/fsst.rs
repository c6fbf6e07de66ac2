//! FSST-style per-string compression with random access.
//!
//! The Fast Static Symbol Table scheme (Boncz, Neumann, Leis — VLDB
//! 2020) compresses short strings *independently* against one shared
//! dictionary of up to 255 byte-sequences ("symbols", 1–8 bytes each):
//! compression greedily replaces the longest matching symbol with its
//! 1-byte code, escaping unmatched bytes as `0xFF <byte>`. Because
//! every string is coded on its own, any single string decompresses
//! without touching its neighbors — the property a point store needs
//! (block codecs like LZ4 would drag a whole block through memory to
//! read one payload).
//!
//! The table is trained on a corpus sample by the paper's iterative
//! scheme: parse the sample with the current table, count emitted
//! symbols and merges of adjacent pairs, keep the 255 candidates with
//! the highest gain (`frequency × length`), repeat. A handful of
//! rounds converges for natural-language tips.
//!
//! In a snapshot an arena is its symbols, its code bytes and its string
//! offsets (`CompressedStrings::pack`); the per-byte lookup buckets are
//! rebuilt from the symbols on load, and every stored string is checked
//! to decode — each escape complete, each code a symbol, the result
//! UTF-8 — before the arena is handed out.

use crate::codec::{corrupt, Reader, Writer};
use crate::error::VecDbError;

/// Escape code: the next output byte is a literal. Symbol codes are
/// `0..=254`, so a table holds at most 255 symbols.
const ESCAPE: u8 = 0xFF;

/// Longest symbol, in bytes (FSST's choice).
const MAX_SYMBOL_LEN: usize = 8;

/// Training rounds. FSST uses 5; gains flatten after that.
const TRAIN_ROUNDS: usize = 5;

/// A trained symbol table.
#[derive(Debug, Clone)]
pub struct SymbolTable {
    /// Symbol bytes, indexed by code.
    symbols: Vec<Vec<u8>>,
    /// Symbol codes grouped by first byte, longest symbol first, so the
    /// greedy longest-match probe scans one short bucket.
    by_first: Vec<Vec<u8>>,
}

impl SymbolTable {
    /// Trains a table on a sample of the corpus. An empty sample yields
    /// an empty table (everything escapes; compression becomes a 2x
    /// expansion, so callers should only compress with a trained table).
    #[must_use]
    pub fn train(samples: &[&[u8]]) -> Self {
        let mut table = Self {
            symbols: Vec::new(),
            by_first: vec![Vec::new(); 256],
        };
        if samples.iter().all(|s| s.is_empty()) {
            return table;
        }
        for _ in 0..TRAIN_ROUNDS {
            table = table.refine(samples);
        }
        table
    }

    /// One training round: parse the sample with `self`, score current
    /// symbols and adjacent-pair merges, keep the top 255 by gain.
    fn refine(&self, samples: &[&[u8]]) -> Self {
        use std::collections::HashMap;
        let mut gain: HashMap<Vec<u8>, u64> = HashMap::new();
        for s in samples {
            let mut prev: Option<&[u8]> = None;
            let mut pos = 0;
            while pos < s.len() {
                let tok: &[u8] = match self.longest_match(&s[pos..]) {
                    Some(code) => &self.symbols[code as usize],
                    None => &s[pos..pos + 1],
                };
                pos += tok.len();
                *gain.entry(tok.to_vec()).or_insert(0) += tok.len() as u64;
                if let Some(p) = prev {
                    if p.len() + tok.len() <= MAX_SYMBOL_LEN {
                        let merged = [p, tok].concat();
                        let w = merged.len() as u64;
                        *gain.entry(merged).or_insert(0) += w;
                    }
                }
                prev = Some(tok);
            }
        }
        // Deterministic selection: gain descending, then bytes.
        let mut candidates: Vec<(Vec<u8>, u64)> = gain.into_iter().collect();
        candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        candidates.truncate(255);
        Self::from_symbols(candidates.into_iter().map(|(s, _)| s).collect())
    }

    /// The table over `symbols` (each 1..=[`MAX_SYMBOL_LEN`] bytes, at
    /// most 255), with its lookup buckets derived.
    fn from_symbols(symbols: Vec<Vec<u8>>) -> Self {
        let mut by_first = vec![Vec::new(); 256];
        for (code, sym) in symbols.iter().enumerate() {
            by_first[sym[0] as usize].push(code as u8);
        }
        for bucket in &mut by_first {
            bucket.sort_by_key(|&c| std::cmp::Reverse(symbols[c as usize].len()));
        }
        Self { symbols, by_first }
    }

    /// Code of the longest symbol prefixing `tail`, if any.
    fn longest_match(&self, tail: &[u8]) -> Option<u8> {
        let bucket = &self.by_first[tail[0] as usize];
        bucket
            .iter()
            .copied()
            .find(|&c| tail.starts_with(&self.symbols[c as usize]))
    }

    /// Number of symbols in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the table holds no symbols.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Compresses one string independently of all others.
    #[must_use]
    pub fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 1);
        let mut pos = 0;
        while pos < input.len() {
            match self.longest_match(&input[pos..]) {
                Some(code) => {
                    out.push(code);
                    pos += self.symbols[code as usize].len();
                }
                None => {
                    out.push(ESCAPE);
                    out.push(input[pos]);
                    pos += 1;
                }
            }
        }
        out
    }

    /// Exact inverse of [`SymbolTable::compress`].
    ///
    /// # Panics
    /// On codes no compression by this table produced (a dangling escape
    /// or an unknown symbol) — a loaded arena has been checked for both.
    #[must_use]
    pub fn decompress(&self, codes: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(codes.len() * 3);
        assert!(
            self.decompress_into(codes, &mut out),
            "codes this table did not produce"
        );
        out
    }

    /// Appends the decompression of `codes` to `out`; `false` (with
    /// `out` partly written) when the codes end inside an escape or name
    /// a symbol the table does not have.
    fn decompress_into(&self, codes: &[u8], out: &mut Vec<u8>) -> bool {
        let mut pos = 0;
        while pos < codes.len() {
            let c = codes[pos];
            if c == ESCAPE {
                let Some(&literal) = codes.get(pos + 1) else {
                    return false;
                };
                out.push(literal);
                pos += 2;
            } else {
                let Some(symbol) = self.symbols.get(c as usize) else {
                    return false;
                };
                out.extend_from_slice(symbol);
                pos += 1;
            }
        }
        true
    }

    /// Heap bytes of the table itself.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.symbols.iter().map(|s| s.len() + 24).sum::<usize>()
            + self.by_first.iter().map(|b| b.len() + 24).sum::<usize>()
    }
}

/// An append-only arena of independently compressed strings with O(1)
/// random access: `get(i)` decompresses string `i` and nothing else.
#[derive(Debug, Clone)]
pub struct CompressedStrings {
    table: SymbolTable,
    data: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` is string `i`'s code range.
    offsets: Vec<u64>,
    /// Total uncompressed bytes pushed (for ratio reporting).
    raw_bytes: u64,
}

impl CompressedStrings {
    /// An empty arena over a trained table.
    #[must_use]
    pub fn new(table: SymbolTable) -> Self {
        Self {
            table,
            data: Vec::new(),
            offsets: vec![0],
            raw_bytes: 0,
        }
    }

    /// Appends a string, returning its index.
    pub fn push(&mut self, s: &str) -> u32 {
        let codes = self.table.compress(s.as_bytes());
        self.data.extend_from_slice(&codes);
        self.offsets.push(self.data.len() as u64);
        self.raw_bytes += s.len() as u64;
        (self.offsets.len() - 2) as u32
    }

    /// Decompresses string `i`. Strings are valid UTF-8 going in, the
    /// codec is byte-exact, so the round trip cannot produce invalid
    /// UTF-8.
    #[must_use]
    pub fn get(&self, i: u32) -> String {
        let (lo, hi) = (self.offsets[i as usize], self.offsets[i as usize + 1]);
        let bytes = self.table.decompress(&self.data[lo as usize..hi as usize]);
        String::from_utf8(bytes).expect("FSST round trip preserves bytes")
    }

    /// Number of stored strings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the arena holds no strings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compressed heap bytes (codes + offsets + table).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.data.len() + self.offsets.len() * 8 + self.table.memory_bytes()
    }

    /// Total uncompressed bytes pushed.
    #[must_use]
    pub fn raw_bytes(&self) -> usize {
        self.raw_bytes as usize
    }

    /// Appends the arena to a snapshot section: the symbol count (`u32`)
    /// and each symbol as a length byte and its bytes; the code bytes
    /// (`u64` length + bytes); the `len + 1` string offsets (`u64` count
    /// + one `u64` block); the uncompressed byte total (`u64`).
    pub(crate) fn pack(&self, w: &mut Writer) {
        w.u32(self.table.symbols.len() as u32);
        for symbol in &self.table.symbols {
            w.u8(symbol.len() as u8);
            w.bytes(symbol);
        }
        w.len64(self.data.len());
        w.bytes(&self.data);
        w.len64(self.offsets.len());
        w.u64s(&self.offsets);
        w.u64(self.raw_bytes);
    }

    /// Reads back what [`CompressedStrings::pack`] wrote and checks that
    /// every string can be read: at most 255 symbols of 1..=8 bytes,
    /// offsets from 0 to the code length in order, and each string's
    /// codes decoding — no dangling escape, no unknown symbol — to UTF-8
    /// that adds up to the stored uncompressed total.
    pub(crate) fn unpack(r: &mut Reader<'_>) -> Result<Self, VecDbError> {
        let count = r.u32()? as usize;
        if count > usize::from(ESCAPE) {
            return Err(corrupt(format!("{count} FSST symbols")));
        }
        let symbols = (0..count)
            .map(|_| {
                let len = usize::from(r.u8()?);
                if !(1..=MAX_SYMBOL_LEN).contains(&len) {
                    return Err(corrupt(format!("an FSST symbol of {len} bytes")));
                }
                Ok(r.take(len)?.to_vec())
            })
            .collect::<Result<Vec<_>, VecDbError>>()?;
        let table = SymbolTable::from_symbols(symbols);
        let data_len = r.len64()?;
        let data = r.take(data_len)?.to_vec();
        let count = r.len64()?;
        let offsets = r.u64s(count)?;
        let raw_bytes = r.u64()?;
        let ordered = offsets.first() == Some(&0)
            && offsets.windows(2).all(|w| w[0] <= w[1])
            && offsets.last() == Some(&(data.len() as u64));
        if !ordered {
            return Err(corrupt("FSST offsets do not tile the code bytes"));
        }
        let mut text = Vec::new();
        let mut total = 0u64;
        for w in offsets.windows(2) {
            text.clear();
            let codes = &data[w[0] as usize..w[1] as usize];
            if !table.decompress_into(codes, &mut text) || std::str::from_utf8(&text).is_err() {
                return Err(corrupt("an FSST string that does not decode to UTF-8"));
            }
            total += text.len() as u64;
        }
        if total != raw_bytes {
            return Err(corrupt(format!(
                "FSST strings of {total} bytes, {raw_bytes} recorded"
            )));
        }
        Ok(Self {
            table,
            data,
            offsets,
            raw_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        // Repetitive natural-language-ish text, the target distribution.
        (0..200)
            .map(|i| {
                format!(
                    "the coffee here is excellent and the staff were friendly; \
                     visit number {i} confirmed the pastries remain outstanding"
                )
            })
            .collect()
    }

    fn as_bytes(v: &[String]) -> Vec<&[u8]> {
        v.iter().map(|s| s.as_bytes()).collect()
    }

    #[test]
    fn round_trip_is_exact() {
        let c = corpus();
        let t = SymbolTable::train(&as_bytes(&c));
        for s in &c {
            assert_eq!(t.decompress(&t.compress(s.as_bytes())), s.as_bytes());
        }
        // Strings the table never saw still round-trip (escapes).
        for odd in ["", "ZZZ###\u{00ff}\u{0151}", "日本語のテキスト", "a"] {
            assert_eq!(t.decompress(&t.compress(odd.as_bytes())), odd.as_bytes());
        }
    }

    #[test]
    fn compresses_repetitive_text_well() {
        let c = corpus();
        let t = SymbolTable::train(&as_bytes(&c));
        let raw: usize = c.iter().map(String::len).sum();
        let packed: usize = c.iter().map(|s| t.compress(s.as_bytes()).len()).sum();
        let ratio = packed as f64 / raw as f64;
        assert!(ratio < 0.5, "expected < 0.5 compression ratio, got {ratio}");
    }

    #[test]
    fn training_is_deterministic() {
        let c = corpus();
        let t1 = SymbolTable::train(&as_bytes(&c));
        let t2 = SymbolTable::train(&as_bytes(&c));
        assert_eq!(t1.symbols, t2.symbols);
    }

    #[test]
    fn random_access_arena() {
        let c = corpus();
        let t = SymbolTable::train(&as_bytes(&c));
        let mut arena = CompressedStrings::new(t);
        let idxs: Vec<u32> = c.iter().map(|s| arena.push(s)).collect();
        // Access out of order; each get touches only its own range.
        for (&i, s) in idxs.iter().zip(&c).rev() {
            assert_eq!(arena.get(i), *s);
        }
        assert!(arena.memory_bytes() < arena.raw_bytes());
    }

    #[test]
    fn empty_table_escapes_everything() {
        let t = SymbolTable::train(&[]);
        assert!(t.is_empty());
        let s = b"fallback";
        assert_eq!(t.compress(s).len(), s.len() * 2);
        assert_eq!(t.decompress(&t.compress(s)), s);
    }

    #[test]
    fn packed_arena_reads_back_and_compresses_identically() {
        let c = corpus();
        let mut arena = CompressedStrings::new(SymbolTable::train(&as_bytes(&c)));
        for s in &c {
            arena.push(s);
        }
        arena.push("");
        let mut w = crate::codec::COLLECTION.writer(0);
        arena.pack(&mut w);
        let body = w.into_body();
        let mut r = Reader::over(&body);
        let back = CompressedStrings::unpack(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), arena.len());
        assert_eq!(back.raw_bytes(), arena.raw_bytes());
        assert_eq!(back.memory_bytes(), arena.memory_bytes());
        for (i, s) in c.iter().enumerate() {
            assert_eq!(back.get(i as u32), *s);
            assert_eq!(
                back.table.compress(s.as_bytes()),
                arena.table.compress(s.as_bytes())
            );
        }
    }

    #[test]
    fn damaged_arenas_are_refused() {
        let c = corpus();
        let mut arena = CompressedStrings::new(SymbolTable::train(&as_bytes(&c)));
        for s in c.iter().take(5) {
            arena.push(s);
        }
        let good = {
            let mut w = crate::codec::COLLECTION.writer(0);
            arena.pack(&mut w);
            w.into_body()
        };
        let load = |bytes: &[u8]| {
            let mut r = Reader::over(bytes);
            CompressedStrings::unpack(&mut r).and_then(|a| r.finish().map(|()| a))
        };
        assert!(load(&good).is_ok());
        // Every truncation and every flipped bit either fails or loads an
        // arena whose every string reads back without a panic.
        for cut in 0..good.len() {
            assert!(load(&good[..cut]).is_err(), "cut at {cut}");
        }
        for bit in 0..good.len() * 8 {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            if let Ok(a) = load(&bad) {
                for i in 0..a.len() {
                    let _ = a.get(i as u32);
                }
            }
        }
        // A string ending inside an escape.
        let mut bad = CompressedStrings::new(arena.table.clone());
        bad.data.push(ESCAPE);
        bad.offsets.push(1);
        let mut w = crate::codec::COLLECTION.writer(0);
        bad.pack(&mut w);
        assert!(load(&w.into_body()).is_err());
    }
}
