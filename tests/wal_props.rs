//! Property battery for the write-ahead log codec (`semask::wal`).
//!
//! The recovery contract is *prefix or nothing*: whatever bytes survive
//! a crash — a torn tail, an arbitrary truncation, a flipped bit —
//! decoding must yield an exact prefix of the originally appended
//! records and never a partially-applied or corrupted record, and it
//! must never panic. `Wal::open` must additionally truncate the file to
//! that prefix so the next append lands on a clean boundary.
//!
//! Records that check but were never written by the encoder — arbitrary
//! payload bytes behind a valid CRC, every cut and bit flip of a real
//! record with its CRC recomputed — decode to a record or stop the log as
//! undecodable, without a panic and without heap out of proportion to
//! their length (the per-thread counter in `common/heap.rs`).

#[path = "common/heap.rs"]
mod heap;

use heap::peak_bytes_of;
use proptest::prelude::*;
use semask::wal::{
    crc32, decode, decode_buffer, encode_record, LogEnd, Mutation, PoiSpec, PoiUpdate, Wal,
};

/// Strings a text format gets wrong: nothing at all, quotes,
/// backslashes, control characters and non-ASCII text.
const AWKWARD: [&str; 7] = [
    "",
    "say \"cheese\"",
    "C:\\tips\\",
    "tab\there\nnull\0bell\u{7}",
    "\u{1}\u{1f}\u{7f}",
    "Café Zürich · 東京 ラーメン 🍜",
    "\u{2028}\u{FEFF}\\u0000",
];

/// A string from `seed`: mostly one of [`AWKWARD`], else a plain one.
fn text(seed: u64) -> String {
    match AWKWARD.get((seed % 10) as usize) {
        Some(awkward) => (*awkward).to_owned(),
        None => format!("generated {seed}"),
    }
}

/// `count` strings from `seed`; a count of 0 is the empty list.
fn texts(seed: u64, count: u64) -> Vec<String> {
    (0..count)
        .map(|i| text(seed.wrapping_mul(31).wrapping_add(i)))
        .collect()
}

/// A coordinate from `seed`: either zero, subnormals of both signs, or an
/// ordinary value within `±span` degrees.
fn coordinate(seed: u64, span: u64) -> f64 {
    match seed % 8 {
        0 => -0.0,
        1 => 0.0,
        2 => f64::from_bits(1),
        3 => -f64::MIN_POSITIVE / 3.0,
        _ => (seed % (20 * span)) as f64 / 10.0 - span as f64,
    }
}

/// A mutation from raw numbers — every variant reachable, all payload
/// sizes small enough to keep thousands of cases cheap.
fn mutation(kind: u8, id: u32, salt: u64) -> Mutation {
    match kind % 3 {
        0 => Mutation::Insert(PoiSpec {
            name: text(salt),
            lat: coordinate(salt / 3, 90),
            lon: coordinate(salt / 5, 180),
            categories: texts(salt / 7, salt % 3),
            tips: texts(salt / 11, salt % 4),
        }),
        1 => Mutation::Update {
            id: id % 500,
            update: PoiUpdate {
                name: (!salt.is_multiple_of(3)).then(|| text(salt / 3)),
                tips: match (salt / 3) % 3 {
                    0 => None,
                    1 => Some(Vec::new()),
                    _ => Some(texts(salt / 13, 1 + salt % 3)),
                },
            },
        },
        _ => Mutation::Delete { id: id % 500 },
    }
}

/// `a` and `b` are the same mutation down to the bits of each
/// coordinate (`==` takes `-0.0` for `0.0`).
fn same_bits(a: &Mutation, b: &Mutation) -> bool {
    let bits = |m: &Mutation| match m {
        Mutation::Insert(spec) => Some((spec.lat.to_bits(), spec.lon.to_bits())),
        _ => None,
    };
    a == b && bits(a) == bits(b)
}

/// Encoded log of `muts` with 1-based sequence numbers, plus the byte
/// offset where each record starts (for locating a flipped bit).
fn encoded_log(muts: &[Mutation]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut starts = Vec::new();
    for (i, m) in muts.iter().enumerate() {
        starts.push(buf.len());
        buf.extend_from_slice(&encode_record(i as u64 + 1, m).expect("encode"));
    }
    (buf, starts)
}

fn materialize(raw: &[(u8, u32, u64)]) -> Vec<Mutation> {
    raw.iter().map(|&(k, id, s)| mutation(k, id, s)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode → decode is the identity, and decode consumes every byte.
    #[test]
    fn round_trip_is_identity(
        raw in proptest::collection::vec((0u8..6, 0u32..1000, 0u64..10_000), 0..12),
    ) {
        let muts = materialize(&raw);
        let (buf, _) = encoded_log(&muts);
        let (records, consumed) = decode_buffer(&buf);
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(records.len(), muts.len());
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64 + 1);
            prop_assert!(same_bits(&r.mutation, &muts[i]), "{:?} != {:?}", r.mutation, muts[i]);
        }
    }

    /// Any truncation decodes to an exact record prefix, and `consumed`
    /// lands on the boundary of the last whole record.
    #[test]
    fn truncation_yields_a_prefix(
        raw in proptest::collection::vec((0u8..6, 0u32..1000, 0u64..10_000), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let muts = materialize(&raw);
        let (buf, starts) = encoded_log(&muts);
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        let (records, consumed) = decode_buffer(&buf[..cut]);
        // Whole records before the cut survive; nothing after it does.
        let whole = starts.iter().filter(|&&s| {
            let end = starts.iter().find(|&&e| e > s).copied().unwrap_or(buf.len());
            end <= cut
        }).count();
        prop_assert_eq!(records.len(), whole);
        prop_assert!(consumed <= cut);
        for (i, r) in records.iter().enumerate() {
            prop_assert!(same_bits(&r.mutation, &muts[i]));
        }
    }

    /// A single flipped bit anywhere in the log: decoding still returns
    /// an exact prefix of the original records (CRC32 catches every
    /// single-bit error) and never panics or resynchronizes past the
    /// damage.
    #[test]
    fn bit_flip_never_partial_applies(
        raw in proptest::collection::vec((0u8..6, 0u32..1000, 0u64..10_000), 1..12),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let muts = materialize(&raw);
        let (mut buf, starts) = encoded_log(&muts);
        let pos = (((buf.len() - 1) as f64) * pos_frac) as usize;
        buf[pos] ^= 1 << bit;

        let damaged = starts.iter().filter(|&&s| s <= pos).count() - 1;
        let (records, consumed) = decode_buffer(&buf);
        prop_assert!(records.len() <= damaged,
            "decoded {} records but the flip hit record {}", records.len(), damaged);
        prop_assert!(consumed <= buf.len());
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64 + 1);
            prop_assert!(same_bits(&r.mutation, &muts[i]));
        }
    }
}

proptest! {
    // File I/O per case: fewer, still seeded deterministically.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Wal::open` on a torn file recovers the decodable prefix,
    /// truncates the tail, and numbers the next append after the last
    /// survivor — so a crashed log is always safe to keep writing.
    #[test]
    fn open_recovers_and_truncates_torn_files(
        raw in proptest::collection::vec((0u8..6, 0u32..1000, 0u64..10_000), 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let muts = materialize(&raw);
        let (buf, _) = encoded_log(&muts);
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        let (expected, expected_bytes) = decode_buffer(&buf[..cut]);

        let path = std::env::temp_dir().join(format!(
            "semask_wal_props_{}.log", std::process::id()
        ));
        std::fs::write(&path, &buf[..cut]).expect("write torn log");
        let (mut wal, records) = Wal::open(&path).expect("open torn log");
        prop_assert_eq!(records.len(), expected.len());
        prop_assert_eq!(wal.stats().bytes, expected_bytes as u64);
        prop_assert_eq!(
            wal.stats().next_seq,
            expected.last().map_or(1, |r| r.seq + 1)
        );
        // The truncated file re-opens to the identical state.
        let n = expected.len() as u64;
        let seq = wal.append(&Mutation::Delete { id: 1 }).expect("append after recovery");
        prop_assert_eq!(seq, n + 1);
        drop(wal);
        let (_, reread) = Wal::open(&path).expect("reopen");
        prop_assert_eq!(reread.len() as u64, n + 1);
        let _ = std::fs::remove_file(&path);
    }
}

/// `payload` behind a header whose length and CRC-32 hold.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes `payload` framed as one record: it must come back as that
/// record or stop the log as undecodable — never torn, since its CRC
/// holds — and the decode must hold no more heap than a bound in
/// proportion to the payload (a list's count is checked against the
/// bytes behind it before anything is sized by it).
fn decode_hostile(payload: &[u8]) -> LogEnd {
    let log = framed(payload);
    let (decoded, peak) = peak_bytes_of(|| decode(&log));
    let bound = 8 * payload.len() + 1024;
    assert!(
        peak <= bound,
        "{peak} B held for a {}-byte payload",
        payload.len()
    );
    match decoded.end {
        LogEnd::Whole => assert_eq!((decoded.records.len(), decoded.consumed), (1, log.len())),
        LogEnd::Undecodable => assert_eq!((decoded.records.len(), decoded.consumed), (0, 0)),
        LogEnd::Torn => panic!("a payload whose CRC holds read as torn: {payload:?}"),
    }
    decoded.end
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes behind a valid CRC, bare or after a well-formed
    /// version, sequence number and tag (3 is no tag).
    #[test]
    fn any_payload_behind_a_valid_crc_decodes_or_is_refused(
        head in (0u8..3, 0u64..u64::MAX, 0u8..4),
        tail in proptest::collection::vec(0u8..u8::MAX, 0..256),
    ) {
        let (shape, seq, tag) = head;
        let mut payload = Vec::new();
        if shape > 0 {
            payload.push(1);
            payload.extend_from_slice(&seq.to_le_bytes());
            payload.push(tag);
        }
        payload.extend_from_slice(&tail);
        if !payload.is_empty() {
            decode_hostile(&payload);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every cut of a real record's payload, and every single bit flipped
    /// in it, with the CRC recomputed: a cut never decodes (the format is
    /// prefix-free), a flip decodes to some record or is refused.
    #[test]
    fn every_cut_and_flip_of_a_real_record_decodes_or_is_refused(
        raw in (0u8..6, 0u32..1000, 0u64..10_000),
    ) {
        let record = encode_record(7, &mutation(raw.0, raw.1, raw.2)).expect("encode");
        let payload = &record[8..];
        prop_assert_eq!(decode_hostile(payload), LogEnd::Whole);
        for cut in 1..payload.len() {
            prop_assert_eq!(decode_hostile(&payload[..cut]), LogEnd::Undecodable, "cut at {}", cut);
        }
        let mut flipped = payload.to_vec();
        for bit in 0..payload.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            decode_hostile(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
