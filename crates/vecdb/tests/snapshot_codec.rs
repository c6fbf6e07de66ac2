//! Battery for the packed collection snapshot
//! (`Collection::{to_snapshot_bytes, from_snapshot_bytes}`, format in
//! `vecdb::db`).
//!
//! Two contracts. **Bit-identity:** a restored collection is the
//! collection — same answers down to the score bits on exact and graph
//! searches, same accounting, and it re-packs to the same bytes.
//! **Hostile bytes:** whatever is handed to the reader — a truncation, a
//! flipped bit, a length that overruns the file, a graph link to a node
//! that does not exist behind a *recomputed* checksum — the result is an
//! `Err`: never a panic, and never an allocation sized by the lie.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use serde_json::json;
use vecdb::{
    crc32, Collection, CollectionConfig, Filter, HnswConfig, Payload, ScoringTier, SearchParams,
    SearchStrategy, VecDbError, VectorDb,
};

// ---- the largest single allocation a thread makes ----

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting per thread the largest request seen.
struct PeakAlloc;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only writes a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout` (above).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f`, returning its result and the largest allocation it made.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// Room for an error message on top of the input's own length.
const MESSAGE: usize = 256;

/// `from_snapshot_bytes` must refuse `bytes` without allocating more
/// than the input could justify.
fn assert_rejected(bytes: &[u8], what: &str) {
    let (result, peak) = peak_during(|| Collection::from_snapshot_bytes(bytes));
    assert!(result.is_err(), "{what}: loaded");
    assert!(
        peak <= bytes.len() + MESSAGE,
        "{what}: a {peak}-byte allocation for {} bytes of input",
        bytes.len()
    );
}

// ---- worlds ----

fn pseudo(seed: u64, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xff51_afd7_ed55_8ccd);
            ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
        })
        .collect()
}

fn payload(i: u64) -> Payload {
    Payload::from_pairs(&[
        ("lat", json!((i % 40) as f64 * 0.01)),
        ("lon", json!((i / 40) as f64 * 0.01)),
        // Long enough for the compressed text tier to take it.
        (
            "tips",
            json!(format!(
                "visit {i}: the coffee here is excellent and the staff were friendly, \
                 the pastries remain outstanding and the queue moves quickly"
            )),
        ),
    ])
}

/// A collection that has lived: `n` inserts, every seventh point
/// deleted, and two ids deleted then inserted again at new offsets — so
/// the learned id index carries a rebuilt base, a hash overlay and
/// tombstones, and the graph holds soft-deleted nodes.
fn lived_in(config: CollectionConfig, n: u64) -> Collection {
    let dim = config.dim;
    let mut c = Collection::new(config);
    for i in 0..n {
        c.insert(i * 3, pseudo(i + 1, dim), payload(i)).unwrap();
    }
    for i in (0..n).step_by(7) {
        c.delete(i * 3).unwrap();
    }
    for i in [0, 14] {
        c.insert(i * 3, pseudo(i + 9_000, dim), payload(i + 9_000))
            .unwrap();
    }
    c
}

const DIM: usize = 16;

fn config(tier: ScoringTier, compress: bool) -> CollectionConfig {
    CollectionConfig {
        scoring_tier: tier,
        compress_payload_text: compress,
        ..CollectionConfig::new(DIM)
    }
}

/// One search's answer: ids with score bits, and the best hit's
/// reassembled payload.
type Answer = (Vec<(u64, u32)>, Option<Payload>);

/// 50 exact and 50 graph searches, half of them behind a payload filter.
fn fingerprint(c: &Collection) -> Vec<Answer> {
    let mut out = Vec::new();
    for strategy in [SearchStrategy::Exact, SearchStrategy::Hnsw] {
        for q in 0..50u64 {
            let mut params = SearchParams::top_k(10).with_strategy(strategy);
            if q % 2 == 1 {
                params = params.with_filter(Filter::geo_box(0.0, 0.0, 0.2, 0.2));
            }
            let hits = c.search(&pseudo(q + 500, DIM), &params).unwrap();
            let first = hits.first().map(|h| c.payload(h.id).unwrap());
            let bits = hits.iter().map(|h| (h.id, h.score.to_bits())).collect();
            out.push((bits, first));
        }
    }
    out
}

#[test]
fn snapshot_round_trip_is_bit_identical_and_repacks_to_the_same_bytes() {
    let quantized = ScoringTier::Quantized { rerank_factor: 4 };
    // 1,200 points: past the FSST training trigger (1,024 long strings)
    // and the id index's first rebuild, so every representation is live.
    let mut worlds: Vec<(String, Collection)> = Vec::new();
    for tier in [ScoringTier::Full, quantized] {
        for compress in [false, true] {
            let name = format!("{tier:?}, compressed text {compress}");
            worlds.push((name, lived_in(config(tier, compress), 1_200)));
        }
    }
    worlds.push(("empty".to_owned(), Collection::new(config(quantized, true))));

    for (name, original) in &worlds {
        let bytes = original.to_snapshot_bytes().unwrap();
        let restored = Collection::from_snapshot_bytes(&bytes).expect(name);
        assert_eq!(restored.len(), original.len(), "{name}");
        assert_eq!(fingerprint(&restored), fingerprint(original), "{name}");
        assert_eq!(
            restored.memory_footprint(),
            original.memory_footprint(),
            "{name}"
        );
        assert!(
            restored.to_snapshot_bytes().unwrap() == bytes,
            "{name}: re-packing a restored collection changed the bytes"
        );
    }
    let (_, lived) = &worlds[3];
    assert!(lived.len() < 1_200 && lived.contains(0) && !lived.contains(21));
    assert!(!fingerprint(lived)[0].0.is_empty());
}

/// Build N, snapshot, restore, insert M more ≡ build N + M straight.
/// The snapshot stores graph links only, so every restored list meets
/// its first overflow without the distances and verdicts the straight
/// build cached — and must re-select to the same links in the same
/// order. Whole snapshots are compared, not the graph section alone:
/// every section is deterministic across a restore.
#[test]
fn snapshot_restored_collection_keeps_taking_writes() {
    for tier in [
        ScoringTier::Full,
        ScoringTier::Quantized { rerank_factor: 4 },
    ] {
        let mut original = lived_in(config(tier, true), 300);
        let mut restored =
            Collection::from_snapshot_bytes(&original.to_snapshot_bytes().unwrap()).unwrap();
        for c in [&mut original, &mut restored] {
            for i in 0..100u64 {
                c.insert(10_000 + i, pseudo(i + 70_000, DIM), payload(i))
                    .unwrap();
            }
            c.delete(3).unwrap();
        }
        assert_eq!(fingerprint(&restored), fingerprint(&original), "{tier:?}");
        let bytes = original.to_snapshot_bytes().unwrap();
        assert!(restored.to_snapshot_bytes().unwrap() == bytes, "{tier:?}");
        // No cached state reaches the canonical bytes.
        let reread = Collection::from_snapshot_bytes(&bytes).unwrap();
        assert!(reread.to_snapshot_bytes().unwrap() == bytes, "{tier:?}");
    }
}

// ---- hostile bytes ----

/// Fixed prefix (magic, version, CRC) and full header (+ section count
/// and five `u64` section lengths) of the format in `vecdb::db`.
const PREFIX: usize = 16;
const HEADER: usize = PREFIX + 4 + 5 * 8;

/// A small snapshot with every section populated (~6 KB).
fn small() -> Vec<u8> {
    let config = CollectionConfig {
        scoring_tier: ScoringTier::Quantized { rerank_factor: 4 },
        hnsw: HnswConfig {
            m: 4,
            m0: 8,
            ..HnswConfig::default()
        },
        ..CollectionConfig::new(4)
    };
    lived_in(config, 70).to_snapshot_bytes().unwrap()
}

/// Where each section starts, read from the section table.
fn section_starts(file: &[u8]) -> [usize; 5] {
    let mut starts = [HEADER; 5];
    for i in 1..5 {
        let at = PREFIX + 4 + (i - 1) * 8;
        let len = u64::from_le_bytes(file[at..at + 8].try_into().unwrap());
        starts[i] = starts[i - 1] + len as usize;
    }
    starts
}

/// Recomputes the checksum, so a lie gets past it to the checks behind.
fn reseal(file: &mut [u8]) {
    let crc = crc32(&file[PREFIX..]);
    file[PREFIX - 4..PREFIX].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn snapshot_truncated_anywhere_is_rejected() {
    let file = small();
    assert!(Collection::from_snapshot_bytes(&file).is_ok());
    for cut in 0..file.len() {
        assert_rejected(&file[..cut], &format!("cut at {cut}"));
    }
    let mut longer = file.clone();
    longer.push(0);
    assert_rejected(&longer, "one trailing byte");
    reseal(&mut longer);
    assert_rejected(&longer, "one trailing byte, resealed");
}

#[test]
fn snapshot_with_a_flipped_header_bit_is_rejected() {
    let file = small();
    for bit in 0..HEADER * 8 {
        let mut bad = file.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        assert_rejected(&bad, &format!("header bit {bit}"));
    }
    // An unknown version is refused even with a checksum that matches.
    let mut next = file.clone();
    next[8..12].copy_from_slice(&2u32.to_le_bytes());
    reseal(&mut next);
    assert_rejected(&next, "format version 2");
}

#[test]
fn snapshot_lengths_that_overrun_the_file_are_rejected_before_allocating() {
    let file = small();
    for section in 0..5 {
        for lie in [file.len() as u64 + 1, u64::MAX / 4, u64::MAX] {
            let mut bad = file.clone();
            let at = PREFIX + 4 + section * 8;
            bad[at..at + 8].copy_from_slice(&lie.to_le_bytes());
            reseal(&mut bad);
            assert_rejected(&bad, &format!("section {section} declared {lie} bytes"));
        }
    }
    let [_, _, _, quant, hnsw] = section_starts(&file);
    // The quantizer's `len`, and the graph's node count and a node level.
    for (at, width) in [(quant + 8, 8), (hnsw + 8, 4), (hnsw + 12, 4)] {
        let mut bad = file.clone();
        bad[at..at + width].copy_from_slice(&u64::MAX.to_le_bytes()[..width]);
        reseal(&mut bad);
        assert_rejected(&bad, &format!("count at byte {at} set to its maximum"));
    }
}

#[test]
fn snapshot_parts_that_disagree_are_rejected_behind_a_valid_checksum() {
    let file = small();
    let nodes = 72u32; // 70 inserts + 2 re-inserts
    let [_, vectors, norms, quant, hnsw] = section_starts(&file);
    assert_eq!(&file[hnsw + 8..hnsw + 12], &nodes.to_le_bytes());

    // Node 0's first layer-0 neighbour: past `entry`, `top_level`, the
    // node count, node 0's level and its first neighbour count.
    let link = hnsw + 20;
    for target in [nodes, u32::MAX] {
        let mut bad = file.clone();
        bad[link..link + 4].copy_from_slice(&target.to_le_bytes());
        reseal(&mut bad);
        assert_rejected(&bad, &format!("graph link to node {target}"));
    }
    let mut bad = file.clone();
    bad[hnsw..hnsw + 4].copy_from_slice(&nodes.to_le_bytes());
    reseal(&mut bad);
    assert_rejected(&bad, "entry point past the last node");

    // One more code dimension than the collection has.
    let mut bad = file.clone();
    bad[quant..quant + 8].copy_from_slice(&5u64.to_le_bytes());
    reseal(&mut bad);
    assert_rejected(&bad, "quantizer of another dimension");

    // A NaN where `insert` would have refused one.
    for at in [vectors, norms] {
        let mut bad = file.clone();
        bad[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        reseal(&mut bad);
        assert_rejected(&bad, "a stored NaN");
    }

    // A section boundary moved by one float: lengths still tile the
    // file, the parts no longer match the point count.
    let mut bad = file.clone();
    for (section, delta) in [(1usize, -4i64), (2, 4)] {
        let at = PREFIX + 4 + section * 8;
        let len = u64::from_le_bytes(bad[at..at + 8].try_into().unwrap());
        bad[at..at + 8].copy_from_slice(&len.wrapping_add_signed(delta).to_le_bytes());
    }
    reseal(&mut bad);
    assert_rejected(&bad, "a section boundary moved");
}

/// `file` with its meta section (the JSON) rewritten by `edit`, the
/// section table and checksum brought up to date.
fn with_meta(file: &[u8], edit: impl Fn(&str) -> String) -> Vec<u8> {
    let bulk = section_starts(file)[1];
    let meta = edit(std::str::from_utf8(&file[HEADER..bulk]).unwrap());
    let mut out = file[..HEADER].to_vec();
    out[PREFIX + 4..PREFIX + 12].copy_from_slice(&(meta.len() as u64).to_le_bytes());
    out.extend_from_slice(meta.as_bytes());
    out.extend_from_slice(&file[bulk..]);
    reseal(&mut out);
    out
}

#[test]
fn snapshot_meta_that_disagrees_is_rejected_behind_a_valid_checksum() {
    let file = small();
    assert!(Collection::from_snapshot_bytes(&with_meta(&file, str::to_owned)).is_ok());
    let edits: [(&str, &str, &str); 5] = [
        ("one id fewer", "\"ids\":[0,", "\"ids\":["),
        ("a live count off by one", "\"live\":62", "\"live\":63"),
        (
            "a deleted point resurrected",
            "\"deleted\":[true,",
            "\"deleted\":[false,",
        ),
        ("another dimension", "\"dim\":4", "\"dim\":8"),
        (
            "a tombstone on no base key",
            "\"tombstones\":{}",
            "\"tombstones\":{\"5\":0}",
        ),
    ];
    for (what, from, to) in edits {
        let bad = with_meta(&file, |meta| {
            assert!(
                meta.contains(from),
                "{what}: `{from}` not in the meta section"
            );
            meta.replacen(from, to, 1)
        });
        assert_rejected(&bad, what);
    }
}

/// `m = 1` makes the level generator's `1 / ln(m)` infinite: a
/// collection that loaded with it would panic on its next insert. The
/// other three build graphs nothing can search.
#[test]
fn snapshot_with_meaningless_graph_parameters_is_refused_at_both_doors() {
    let file = small();
    let edits = [
        ("m = 1", "\"m\":4,", "\"m\":1,"),
        ("m = 0", "\"m\":4,", "\"m\":0,"),
        ("m0 < m", "\"m0\":8,", "\"m0\":3,"),
        (
            "ef_construction = 0",
            "\"ef_construction\":128,",
            "\"ef_construction\":0,",
        ),
    ];
    for (what, from, to) in edits {
        let bad = with_meta(&file, |meta| {
            assert!(
                meta.contains(from),
                "{what}: `{from}` not in the meta section"
            );
            meta.replacen(from, to, 1)
        });
        assert_rejected(&bad, what);
        let refused = Collection::from_snapshot_bytes(&bad).err();
        assert!(
            matches!(refused, Some(VecDbError::InvalidConfig { .. })),
            "{what}: {refused:?}"
        );
    }

    let with = |m, m0, ef_construction| CollectionConfig {
        hnsw: HnswConfig {
            m,
            m0,
            ef_construction,
            ..HnswConfig::default()
        },
        ..CollectionConfig::new(4)
    };
    let db = VectorDb::new();
    for bad in [
        with(1, 8, 128),
        with(0, 8, 128),
        with(4, 3, 128),
        with(4, 8, 0),
    ] {
        let refused = db.create_collection("c", bad.clone()).err();
        assert!(
            matches!(refused, Some(VecDbError::InvalidConfig { .. })),
            "{:?}: {refused:?}",
            bad.hnsw
        );
    }
    assert!(db.create_collection("c", with(2, 2, 1)).is_ok());
}

/// Dimension 0 stores empty vectors and scores every point 0: a search
/// would return k "hits" ranked by nothing. Refused at both doors, on
/// both scoring tiers.
#[test]
fn dimension_zero_is_refused_at_both_doors() {
    for tier in [
        ScoringTier::Full,
        ScoringTier::Quantized { rerank_factor: 4 },
    ] {
        let config = CollectionConfig {
            scoring_tier: tier,
            hnsw: HnswConfig {
                m: 4,
                m0: 8,
                ..HnswConfig::default()
            },
            ..CollectionConfig::new(4)
        };
        let file = lived_in(config.clone(), 70).to_snapshot_bytes().unwrap();
        let bad = with_meta(&file, |meta| {
            assert!(meta.contains("\"dim\":4"), "{tier:?}");
            meta.replacen("\"dim\":4", "\"dim\":0", 1)
        });
        assert_rejected(&bad, "dim = 0");
        let refused = Collection::from_snapshot_bytes(&bad).err();
        assert!(
            matches!(refused, Some(VecDbError::InvalidConfig { .. })),
            "{tier:?}: {refused:?}"
        );
        let refused = VectorDb::new()
            .create_collection("c", CollectionConfig { dim: 0, ..config })
            .err();
        assert!(
            matches!(refused, Some(VecDbError::InvalidConfig { .. })),
            "{tier:?}: {refused:?}"
        );
    }
}

// ---- the file is older than the geo column ----

/// The geo filter's verdict as the JSON look-up gave it: both fields
/// numbers (integers convert) and inside the box, edges included.
fn in_box_by_json(p: &Payload, [south, west, north, east]: [f64; 4]) -> bool {
    let (Some(lat), Some(lon)) = (p.get_f64("lat"), p.get_f64("lon")) else {
        return false;
    };
    lat >= south && lat <= north && lon >= west && lon <= east
}

/// Every box gives every live point the verdict its reassembled payload
/// earns from [`in_box_by_json`] — through `filter_ids` and through
/// both searches' masks.
fn assert_filters_like_its_payloads(c: &Collection, ids: impl Iterator<Item = u64>, what: &str) {
    let live: Vec<(u64, Payload)> = ids
        .filter(|&id| c.contains(id))
        .map(|id| (id, c.payload(id).unwrap()))
        .collect();
    let boxes = [
        [-90.0, -180.0, 90.0, 180.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.2, 0.2],
        [0.01, 0.0, 0.01, 0.0],
        [0.2, 0.2, 0.0, 0.0],
        [f64::NAN, 0.0, 1.0, 1.0],
    ];
    for b in boxes {
        let expect: Vec<u64> = live
            .iter()
            .filter(|(_, p)| in_box_by_json(p, b))
            .map(|&(id, _)| id)
            .collect();
        let filter = Filter::geo_box(b[0], b[1], b[2], b[3]);
        let mut got = c.filter_ids(&filter);
        got.sort_unstable();
        assert_eq!(got, expect, "{what}: box {b:?}");
        for strategy in [SearchStrategy::Exact, SearchStrategy::Hnsw] {
            let params = SearchParams::top_k(live.len())
                .with_ef(4 * live.len())
                .with_strategy(strategy)
                .with_filter(filter.clone());
            let planned = c.search_planned(&pseudo(77, DIM), &params).unwrap();
            assert_eq!(planned.qualifying, expect.len(), "{what}: box {b:?}");
            assert!(planned.hits.iter().all(|h| expect.contains(&h.id)));
        }
    }
}

const LONG_LAT: &str = "thirty-six degrees and nine minutes north of the equator, give or take";

/// 60 points under the compressed tier whose positions take every shape
/// a payload allows: mostly two floats, and one point each with an
/// integer `lat`, no `lat`, a `lat` long enough for the text tier, two
/// integers, and `-0.0`.
fn odd_positions() -> Collection {
    assert!(LONG_LAT.len() >= 64);
    let mut c = Collection::new(config(ScoringTier::Quantized { rerank_factor: 4 }, true));
    for i in 0..60u64 {
        let mut p = payload(i);
        match i {
            3 => p.set("lat", json!(0)),
            5 => {
                p.0.remove("lat");
            }
            7 => p.set("lat", json!(LONG_LAT)),
            9 => {
                p.set("lat", json!(0));
                p.set("lon", json!(0));
            }
            11 => p.set("lat", json!(-0.0)),
            _ => {}
        }
        c.insert(i, pseudo(i + 1, DIM), p).unwrap();
    }
    c
}

/// `to_snapshot_bytes()` of three fixed collections is, byte for byte,
/// what the store wrote when positions were JSON fields and nothing
/// else: lengths and CRC-32s recorded at the commit before
/// `PayloadStore` had a geo column (PR 24's parent, `a00fc74`).
#[test]
fn snapshot_bytes_are_the_ones_written_before_the_geo_column() {
    let quantized = ScoringTier::Quantized { rerank_factor: 4 };
    let worlds = [
        (
            "300 lived-in",
            lived_in(config(quantized, true), 300),
            PIN_300,
        ),
        (
            "1,200 lived-in",
            lived_in(config(quantized, true), 1_200),
            PIN_1200,
        ),
        ("odd positions", odd_positions(), PIN_ODD),
    ];
    for (name, c, pin) in worlds {
        let bytes = c.to_snapshot_bytes().unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), pin, "{name}");
    }
}
const PIN_300: (usize, u32) = (131_420, 0x485b_bc19);
const PIN_1200: (usize, u32) = (440_034, 0x449b_a99f);
const PIN_ODD: (usize, u32) = (25_011, 0xc549_f662);

#[test]
fn snapshot_with_odd_positions_round_trips_and_filters_like_its_payloads() {
    let original = odd_positions();
    let bytes = original.to_snapshot_bytes().unwrap();
    let restored = Collection::from_snapshot_bytes(&bytes).unwrap();
    for c in [&original, &restored] {
        assert_filters_like_its_payloads(c, 0..60, "odd positions");
        // What was stored comes back as the `Value` it was.
        let lat = |id| format!("{:?}", c.payload(id).unwrap().get("lat"));
        assert_eq!(lat(3), format!("{:?}", Some(&json!(0))));
        assert_eq!(lat(5), "None");
        assert_eq!(lat(7), format!("{:?}", Some(&json!(LONG_LAT))));
        assert_eq!(lat(11), format!("{:?}", Some(&json!(-0.0))));
        assert_eq!(lat(12), format!("{:?}", Some(&json!(0.12))));
    }
    assert_eq!(fingerprint(&restored), fingerprint(&original));
    assert_eq!(restored.memory_footprint(), original.memory_footprint());
    assert!(restored.to_snapshot_bytes().unwrap() == bytes);
}

/// Files no newer code wrote: a snapshot's meta section edited by hand
/// so that one point's `lat` is an integer, is absent, or is a long
/// string (in the plain store a skeleton field, in the compressed one a
/// text slot, as the old writer would have put it). Each loads, gives
/// the point back as written, filters like its payloads, and re-packs
/// to the file it was read from.
#[test]
fn snapshot_hand_built_in_the_old_shape_loads_and_filters_like_its_payloads() {
    for compress in [false, true] {
        let file = lived_in(config(ScoringTier::Full, compress), 70)
            .to_snapshot_bytes()
            .unwrap();
        // Point id 3 is payload(1): the only one at (0.01, 0.0).
        let (position, tail) = if compress {
            ("{\"lat\":0.01,\"lon\":0.0}", "}")
        } else {
            ("{\"lat\":0.01,\"lon\":0.0,", ",")
        };
        let long_lat = format!("\"lat\":\"{LONG_LAT}\",");
        let edits = [
            (
                "lat an integer",
                format!("{{\"lat\":0,\"lon\":0.0{tail}"),
                json!(0),
            ),
            ("lat absent", format!("{{\"lon\":0.0{tail}"), json!(null)),
            (
                "lat a long string",
                format!("{{{long_lat}\"lon\":0.0{tail}"),
                json!(LONG_LAT),
            ),
        ];
        for (what, replacement, lat) in edits {
            let what = format!("{what}, compressed text {compress}");
            let in_a_slot = compress && lat.as_str().is_some();
            let old = with_meta(&file, |meta| {
                assert_eq!(meta.matches(position).count(), 1, "{what}");
                if !in_a_slot {
                    return meta.replacen(position, &replacement, 1);
                }
                // The compressed store kept long strings out of the
                // skeleton: the second point's slots gain the field.
                let mut meta = meta.replacen(position, "{\"lon\":0.0}", 1);
                let slots = "\"slots\":[[";
                let second = meta.find(slots).unwrap() + slots.len();
                let second = second + meta[second..].find("],[").unwrap() + 3;
                let slot = format!("{{\"key\":\"lat\",\"text\":{{\"Raw\":\"{LONG_LAT}\"}}}},");
                meta.insert_str(second, &slot);
                meta
            });
            let c = Collection::from_snapshot_bytes(&old).expect(&what);
            let got = c.payload(3).unwrap();
            let expect = (!lat.is_null()).then_some(&lat);
            assert_eq!(
                format!("{:?}", got.get("lat")),
                format!("{expect:?}"),
                "{what}"
            );
            assert_eq!(got.get_f64("lon"), Some(0.0), "{what}");
            assert!(got.get("tips").is_some(), "{what}");
            assert_filters_like_its_payloads(&c, (0..70).map(|i| i * 3), &what);
            assert!(
                c.to_snapshot_bytes().unwrap() == old,
                "{what}: re-packed differently"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any single flipped bit, anywhere in the file, fails the load.
    #[test]
    fn snapshot_with_any_flipped_bit_is_rejected(pick in 0usize..usize::MAX) {
        let mut bad = small();
        let bit = pick % (bad.len() * 8);
        bad[bit / 8] ^= 1 << (bit % 8);
        assert_rejected(&bad, &format!("bit {bit}"));
    }

    /// Arbitrary damage to the section table or the bulk sections
    /// *behind a recomputed checksum*: the load may succeed (a changed
    /// but finite float is a different, valid collection) or fail, but
    /// neither it nor a search over what it loaded may panic.
    #[test]
    fn snapshot_resealed_damage_never_panics(
        picks in proptest::collection::vec((0usize..usize::MAX, 0u8..=255), 1..4),
    ) {
        let mut bad = small();
        let bulk = section_starts(&bad)[1];
        let table = PREFIX..HEADER;
        for (pick, byte) in picks {
            let span = table.len() + bad.len() - bulk;
            let at = pick % span;
            let at = if at < table.len() { table.start + at } else { bulk + at - table.len() };
            bad[at] = byte;
        }
        reseal(&mut bad);
        let input = bad.len();
        let (loaded, peak) = peak_during(|| Collection::from_snapshot_bytes(&bad));
        prop_assert!(peak <= input + MESSAGE, "a {}-byte allocation for {} bytes", peak, input);
        if let Ok(c) = loaded {
            for strategy in [SearchStrategy::Exact, SearchStrategy::Hnsw] {
                let params = SearchParams::top_k(5).with_strategy(strategy);
                prop_assert!(c.search(&pseudo(3, 4), &params).is_ok());
            }
        }
    }
}
