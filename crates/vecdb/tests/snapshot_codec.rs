//! Battery for the packed collection snapshot
//! (`Collection::{to_snapshot_bytes, from_snapshot_bytes}`, format in
//! `vecdb::db`).
//!
//! Two contracts. **Bit-identity:** a restored collection is the
//! collection — same answers down to the score bits on exact and graph
//! searches, same accounting, and it re-packs to the same bytes.
//! **Hostile bytes:** whatever is handed to the reader — a truncation, a
//! flipped bit, a length that overruns the file, a graph link to a node
//! that does not exist or a meta field that disagrees with the rest
//! behind a *recomputed* checksum, a file of format 1, 2 or 3 — the result
//! is an `Err`: never a panic, and never an allocation sized by the lie. The
//! meta section's fields are found by `meta_layout`, a reader of the
//! layout table in `vecdb::db` written independently of the crate's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use vecdb::{
    crc32, Collection, CollectionConfig, Filter, HnswConfig, ScoringTier, SearchParams,
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

fn position(i: u64) -> (f64, f64) {
    ((i % 40) as f64 * 0.01, (i / 40) as f64 * 0.01)
}

/// A collection that has lived: `n` inserts, every seventh point
/// deleted, and two ids deleted then inserted again at new offsets — so
/// the id column holds ids with no live point and ids whose live point
/// moved, and the graph holds soft-deleted nodes.
fn lived_in(config: CollectionConfig, n: u64) -> Collection {
    let dim = config.dim;
    let mut c = Collection::new(config);
    for i in 0..n {
        c.insert(i * 3, pseudo(i + 1, dim), position(i)).unwrap();
    }
    for i in (0..n).step_by(7) {
        c.delete(i * 3).unwrap();
    }
    for i in [0, 14] {
        c.insert(i * 3, pseudo(i + 9_000, dim), position(i + 9_000))
            .unwrap();
    }
    c
}

const DIM: usize = 16;

fn config(tier: ScoringTier) -> CollectionConfig {
    CollectionConfig {
        scoring_tier: tier,
        ..CollectionConfig::new(DIM)
    }
}

/// One search's answer: ids with score bits.
type Answer = Vec<(u64, u32)>;

/// A live point as bits: its id and its position.
type PointBits = (u64, [u64; 2]);

/// 50 exact and 50 graph searches, half of them behind a geo filter,
/// and every live point's position, bit for bit.
fn fingerprint(c: &Collection) -> (Vec<Answer>, Vec<PointBits>) {
    let mut out = Vec::new();
    for strategy in [SearchStrategy::Exact, SearchStrategy::Hnsw] {
        for q in 0..50u64 {
            let mut params = SearchParams::top_k(10).with_strategy(strategy);
            if q % 2 == 1 {
                params = params.with_filter(Filter::geo_box(0.0, 0.0, 0.2, 0.2));
            }
            let hits = c.search(&pseudo(q + 500, DIM), &params).unwrap();
            out.push(hits.iter().map(|h| (h.id, h.score.to_bits())).collect());
        }
    }
    let points = c
        .iter_points()
        .map(|(id, _, (lat, lon))| (id, [lat.to_bits(), lon.to_bits()]))
        .collect();
    (out, points)
}

#[test]
fn snapshot_round_trip_is_bit_identical_and_repacks_to_the_same_bytes() {
    let quantized = ScoringTier::Quantized { rerank_factor: 4 };
    let mut worlds: Vec<(String, Collection)> = Vec::new();
    for tier in [ScoringTier::Full, quantized] {
        worlds.push((format!("{tier:?}"), lived_in(config(tier), 1_200)));
    }
    worlds.push(("empty".to_owned(), Collection::new(config(quantized))));

    for (name, original) in &worlds {
        let bytes = original.to_snapshot_bytes();
        let restored = Collection::from_snapshot_bytes(&bytes).expect(name);
        assert_eq!(restored.len(), original.len(), "{name}");
        assert_eq!(fingerprint(&restored), fingerprint(original), "{name}");
        assert_eq!(
            restored.memory_footprint(),
            original.memory_footprint(),
            "{name}"
        );
        assert!(
            restored.to_snapshot_bytes() == bytes,
            "{name}: re-packing a restored collection changed the bytes"
        );
    }
    let (_, lived) = &worlds[1];
    assert!(lived.len() < 1_200 && lived.contains(0) && !lived.contains(21));
    assert!(!fingerprint(lived).0[0].is_empty());
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
        let mut original = lived_in(config(tier), 300);
        let mut restored = Collection::from_snapshot_bytes(&original.to_snapshot_bytes()).unwrap();
        for c in [&mut original, &mut restored] {
            for i in 0..100u64 {
                c.insert(10_000 + i, pseudo(i + 70_000, DIM), position(i))
                    .unwrap();
            }
            c.delete(3).unwrap();
        }
        assert_eq!(fingerprint(&restored), fingerprint(&original), "{tier:?}");
        let bytes = original.to_snapshot_bytes();
        assert!(restored.to_snapshot_bytes() == bytes, "{tier:?}");
        // No cached state reaches the canonical bytes.
        let reread = Collection::from_snapshot_bytes(&bytes).unwrap();
        assert!(reread.to_snapshot_bytes() == bytes, "{tier:?}");
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
    lived_in(config, 70).to_snapshot_bytes()
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
    next[8..12].copy_from_slice(&5u32.to_le_bytes());
    reseal(&mut next);
    assert_rejected(&next, "format version 5");
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

// ---- the meta section, walked by a second reader ----

/// Positions in the file of the meta section's fields, found by walking
/// the layout `vecdb::db` documents — a second reader of the format,
/// written from its table rather than from `vecdb`'s code.
#[derive(Debug, Default)]
struct MetaLayout {
    dim: usize,
    distance: usize,
    m: usize,
    m0: usize,
    ef_construction: usize,
    ids: usize,
    deleted: usize,
    geo: usize,
    /// `(position, width)` of every count or length the reader sizes
    /// something by.
    counts: Vec<(usize, usize)>,
}

fn le(file: &[u8], at: usize, width: usize) -> usize {
    let mut word = [0u8; 8];
    word[..width].copy_from_slice(&file[at..at + width]);
    u64::from_le_bytes(word) as usize
}

fn meta_layout(file: &[u8]) -> MetaLayout {
    let mut m = MetaLayout::default();
    let mut at = HEADER;
    m.dim = at;
    m.distance = at + 8;
    m.m = at + 9;
    m.m0 = at + 17;
    m.ef_construction = at + 25;
    at += 41; // + seed
    at += if file[at] == 2 { 9 } else { 1 }; // scoring tier
    m.counts.push((at, 8));
    let n = le(file, at, 8);
    m.ids = at + 8;
    m.deleted = m.ids + 8 * n;
    m.geo = m.deleted + n + 8; // + quant_trained_at
    at = m.geo + 16 * n;
    assert_eq!(
        at,
        section_starts(file)[1],
        "the layout table and the file disagree"
    );
    m
}

/// `file` with `bytes` written at `at`, resealed.
fn patched(file: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
    let mut out = file.to_vec();
    assert!(
        out[at..at + bytes.len()] != *bytes,
        "a patch that changes nothing"
    );
    out[at..at + bytes.len()].copy_from_slice(bytes);
    reseal(&mut out);
    out
}

/// `file` with its meta section replaced by `meta`, the section table
/// and checksum brought up to date.
fn with_meta(file: &[u8], meta: &[u8]) -> Vec<u8> {
    let bulk = section_starts(file)[1];
    let mut out = file[..HEADER].to_vec();
    out[PREFIX + 4..PREFIX + 12].copy_from_slice(&(meta.len() as u64).to_le_bytes());
    out.extend_from_slice(meta);
    out.extend_from_slice(&file[bulk..]);
    reseal(&mut out);
    out
}

#[test]
fn snapshot_meta_that_disagrees_is_rejected_behind_a_valid_checksum() {
    let file = small();
    let meta = meta_layout(&file);
    let u64_le = |v: u64| v.to_le_bytes().to_vec();
    // Offset 0 holds id 0, deleted and inserted again at offset 70;
    // offsets 1 and 2 hold ids 3 and 6, live.
    assert_eq!(file[meta.deleted], 1);
    assert_eq!(le(&file, meta.ids + 70 * 8, 8), 0);
    assert_eq!(le(&file, meta.ids + 8, 8), 3);
    assert_eq!(le(&file, meta.ids + 16, 8), 6);
    for (what, at, bytes) in [
        (
            "id 0 resurrected beside its re-insert",
            meta.deleted,
            vec![0],
        ),
        ("id 6 at offsets 1 and 2", meta.ids + 8, u64_le(6)),
    ] {
        let bad = patched(&file, at, &bytes);
        assert_rejected(&bad, what);
        let refused = Collection::from_snapshot_bytes(&bad).err();
        assert!(
            matches!(&refused, Some(VecDbError::Snapshot { cause }) if cause.contains("live at offsets")),
            "{what}: {refused:?}"
        );
    }
    let edits: [(&str, usize, Vec<u8>); 3] = [
        (
            "a delete flag that is neither 0 nor 1",
            meta.deleted + 1,
            vec![2],
        ),
        ("another dimension", meta.dim, u64_le(8)),
        ("a metric that does not exist", meta.distance, vec![3]),
    ];
    for (what, at, bytes) in edits {
        assert_rejected(&patched(&file, at, &bytes), what);
    }
    // A position `insert` would have refused, at either coordinate of
    // a live point and of a deleted one (offset 0).
    for offset in [0, 1, 71] {
        for coordinate in 0..2 {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let at = meta.geo + 16 * offset + 8 * coordinate;
                let bad = patched(&file, at, &bad.to_le_bytes());
                assert_rejected(&bad, "a position that is not finite");
                let refused = Collection::from_snapshot_bytes(&bad).err();
                assert!(
                    matches!(&refused, Some(VecDbError::Snapshot { cause }) if cause.contains("not finite")),
                    "offset {offset}: {refused:?}"
                );
            }
        }
    }

    // Edits that change the section's length.
    let section = &file[HEADER..section_starts(&file)[1]];
    let rel = |at: usize| at - HEADER;
    let mut one_fewer = section.to_vec();
    let n = le(&file, meta.ids - 8, 8) as u64;
    one_fewer.drain(rel(meta.ids)..rel(meta.ids) + 8);
    one_fewer[rel(meta.ids) - 8..rel(meta.ids)].copy_from_slice(&(n - 1).to_le_bytes());
    assert_rejected(&with_meta(&file, &one_fewer), "one id fewer");
    assert!(Collection::from_snapshot_bytes(&with_meta(&file, section)).is_ok());
}

#[test]
fn snapshot_meta_counts_larger_than_the_section_never_allocate() {
    for file in [small(), tiny()] {
        let meta = meta_layout(&file);
        // The point count sizes the ids, the delete flags and the
        // positions; nothing else in the section is a count.
        assert_eq!(meta.counts.len(), 1);
        for &(at, width) in &meta.counts {
            let max = if width == 4 {
                u64::from(u32::MAX)
            } else {
                u64::MAX
            };
            for lie in [file.len() as u64 + 1, max / 2, max] {
                let bad = patched(&file, at, &lie.to_le_bytes()[..width]);
                assert_rejected(&bad, &format!("count at byte {at} set to {lie}"));
            }
        }
    }
}

/// 12 points in a small graph, one of them deleted.
fn tiny() -> Vec<u8> {
    let config = CollectionConfig {
        hnsw: HnswConfig {
            m: 4,
            m0: 8,
            ..HnswConfig::default()
        },
        ..CollectionConfig::new(4)
    };
    let mut c = Collection::new(config);
    for i in 0..12u64 {
        c.insert(i, pseudo(i + 1, 4), position(i)).unwrap();
    }
    c.delete(5).unwrap();
    c.to_snapshot_bytes()
}

/// Any single flipped bit of the meta section, and any truncation of
/// it, *behind a recomputed checksum*: the load fails, or it succeeds
/// (a changed bit of a finite position, or a point deleted, is a
/// different, valid collection) and every search and point read over
/// what it loaded works — never a panic, never an allocation past the
/// input.
#[test]
fn snapshot_meta_damaged_anywhere_behind_a_valid_checksum_never_panics() {
    let file = tiny();
    let bulk = section_starts(&file)[1];
    let section = file[HEADER..bulk].to_vec();
    for cut in 0..section.len() {
        assert_rejected(
            &with_meta(&file, &section[..cut]),
            &format!("meta cut at {cut}"),
        );
    }
    let mut loaded = 0;
    for bit in HEADER * 8..bulk * 8 {
        let mut bad = file.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        reseal(&mut bad);
        loaded += usize::from(survives(&bad, &format!("meta bit {bit}")));
    }
    // Flips inside positions load; structure flips do not.
    assert!(
        loaded > 0 && loaded < (bulk - HEADER) * 8,
        "{loaded} loaded"
    );
}

/// Loads `bytes` if it can, within the allocation bound, and exercises
/// what it loaded; whether it loaded.
fn survives(bytes: &[u8], what: &str) -> bool {
    let (loaded, peak) = peak_during(|| Collection::from_snapshot_bytes(bytes));
    assert!(
        peak <= bytes.len() + MESSAGE,
        "{what}: a {peak}-byte allocation for {} bytes of input",
        bytes.len()
    );
    let Ok(c) = loaded else { return false };
    let dim = c.config().dim;
    for strategy in [SearchStrategy::Exact, SearchStrategy::Hnsw] {
        let params = SearchParams::top_k(5)
            .with_strategy(strategy)
            .with_filter(Filter::geo_box(0.0, 0.0, 0.2, 0.2));
        assert!(c.search(&pseudo(3, dim), &params).is_ok(), "{what}");
    }
    for (id, vector, (lat, lon)) in c.iter_points() {
        assert_eq!(c.vector(id).unwrap(), vector, "{what}");
        assert!(lat.is_finite() && lon.is_finite(), "{what}");
    }
    true
}

/// A format-1 file, byte for byte: an empty dimension-4 collection with
/// its JSON meta section, as `to_snapshot_bytes()` wrote it at commit
/// `c8d97ba` (388 bytes, CRC-32 `2e17e298`, both recorded there).
fn format_1_file() -> Vec<u8> {
    let meta = concat!(
        r#"{"config":{"dim":4,"distance":"Cosine","hnsw":{"m":16,"m0":32,"#,
        r#""ef_construction":128,"seed":24301},"scoring_tier":"Auto","#,
        r#""compress_payload_text":false},"ids":[],"by_id":{"keys":[],"vals":[],"#,
        r#""segments":[],"overlay":{},"tombstones":{}},"deleted":[],"live":0,"#,
        r#""payloads":{"skeletons":[],"text":null},"quant_trained_at":0}"#
    );
    // An empty graph: no entry, top level 0, no nodes.
    let graph = [255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0];
    let mut file = b"VECDBSNP".to_vec();
    file.extend_from_slice(&1u32.to_le_bytes());
    file.extend_from_slice(&[0; 4]);
    file.extend_from_slice(&5u32.to_le_bytes());
    for len in [meta.len(), 0, 0, 0, graph.len()] {
        file.extend_from_slice(&(len as u64).to_le_bytes());
    }
    file.extend_from_slice(meta.as_bytes());
    file.extend_from_slice(&graph);
    reseal(&mut file);
    file
}

#[test]
fn a_format_1_snapshot_is_refused_naming_its_version() {
    let file = format_1_file();
    assert_eq!((file.len(), crc32(&file)), (388, 0x2e17_e298));
    assert_rejected(&file, "format 1");
    let refused = Collection::from_snapshot_bytes(&file).err();
    assert!(
        matches!(&refused, Some(VecDbError::Snapshot { cause }) if cause.contains("version 1")),
        "{refused:?}"
    );
    let path = std::env::temp_dir().join(format!("vecdb_format_1_{}.bin", std::process::id()));
    std::fs::write(&path, &file).unwrap();
    let refused = VectorDb::new().restore_collection("c", &path).err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(&refused, Some(VecDbError::Snapshot { cause }) if cause.contains("version 1")),
        "{refused:?}"
    );
}

/// A format-2 file, byte for byte: the same empty collection with its
/// packed meta section, stored id index and live count included, as
/// `to_snapshot_bytes()` wrote it at commit `96574f4` (180 bytes,
/// CRC-32 `9b03fee6`, both recorded there).
fn format_2_file() -> Vec<u8> {
    let mut meta = Vec::new();
    // Config: dim 4, cosine, m 16, m0 32, ef_construction 128, seed
    // 24301, tier auto, uncompressed text.
    meta.extend_from_slice(&4u64.to_le_bytes());
    meta.push(0);
    for v in [16u64, 32, 128, 24_301] {
        meta.extend_from_slice(&v.to_le_bytes());
    }
    meta.extend_from_slice(&[0, 0]);
    // No points, live 0, quant_trained_at 0; an empty id index (base,
    // segments, overlay, tombstones); no payloads, no text tier.
    for _ in 0..3 + 4 + 1 {
        meta.extend_from_slice(&0u64.to_le_bytes());
    }
    meta.push(0);
    let graph = [255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0];
    let mut file = b"VECDBSNP".to_vec();
    file.extend_from_slice(&2u32.to_le_bytes());
    file.extend_from_slice(&[0; 4]);
    file.extend_from_slice(&5u32.to_le_bytes());
    for len in [meta.len(), 0, 0, 0, graph.len()] {
        file.extend_from_slice(&(len as u64).to_le_bytes());
    }
    file.extend_from_slice(&meta);
    file.extend_from_slice(&graph);
    reseal(&mut file);
    file
}

#[test]
fn a_format_2_snapshot_is_refused_naming_its_version() {
    let file = format_2_file();
    assert_eq!((file.len(), crc32(&file)), (180, 0x9b03_fee6));
    assert_rejected(&file, "format 2");
    let refused = Collection::from_snapshot_bytes(&file).err();
    assert!(
        matches!(&refused, Some(VecDbError::Snapshot { cause }) if cause.contains("version 2")),
        "{refused:?}"
    );
}

/// A format-3 file, byte for byte: the same empty collection with the
/// text-compression flag in its config, and an empty payload store (a
/// count and the text-tier flag) after its points, as
/// `to_snapshot_bytes()` wrote it at commit `0856931` (140 bytes, CRC-32
/// `aceb3a41`, both recorded there).
fn format_3_file() -> Vec<u8> {
    let mut meta = Vec::new();
    // Config: dim 4, cosine, m 16, m0 32, ef_construction 128, seed
    // 24301, tier auto, uncompressed text.
    meta.extend_from_slice(&4u64.to_le_bytes());
    meta.push(0);
    for v in [16u64, 32, 128, 24_301] {
        meta.extend_from_slice(&v.to_le_bytes());
    }
    meta.extend_from_slice(&[0, 0]);
    // No points, quant_trained_at 0, no payloads, no text tier.
    for _ in 0..3 {
        meta.extend_from_slice(&0u64.to_le_bytes());
    }
    meta.push(0);
    let graph = [255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0];
    let mut file = b"VECDBSNP".to_vec();
    file.extend_from_slice(&3u32.to_le_bytes());
    file.extend_from_slice(&[0; 4]);
    file.extend_from_slice(&5u32.to_le_bytes());
    for len in [meta.len(), 0, 0, 0, graph.len()] {
        file.extend_from_slice(&(len as u64).to_le_bytes());
    }
    file.extend_from_slice(&meta);
    file.extend_from_slice(&graph);
    reseal(&mut file);
    file
}

#[test]
fn a_format_3_snapshot_is_refused_naming_its_version() {
    let file = format_3_file();
    assert_eq!((file.len(), crc32(&file)), (140, 0xaceb_3a41));
    assert_rejected(&file, "format 3");
    let refused = Collection::from_snapshot_bytes(&file).err();
    assert!(
        matches!(&refused, Some(VecDbError::Snapshot { cause }) if cause.contains("version 3")),
        "{refused:?}"
    );
}

/// `m = 1` makes the level generator's `1 / ln(m)` infinite: a
/// collection that loaded with it would panic on its next insert. The
/// other three build graphs nothing can search.
#[test]
fn snapshot_with_meaningless_graph_parameters_is_refused_at_both_doors() {
    let file = small();
    let meta = meta_layout(&file);
    let edits = [
        ("m = 1", meta.m, 1u64),
        ("m = 0", meta.m, 0),
        ("m0 < m", meta.m0, 3),
        ("ef_construction = 0", meta.ef_construction, 0),
    ];
    for (what, at, value) in edits {
        let bad = patched(&file, at, &value.to_le_bytes());
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
        let file = lived_in(config.clone(), 70).to_snapshot_bytes();
        let bad = patched(&file, meta_layout(&file).dim, &0u64.to_le_bytes());
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

// ---- positions of every shape ----

/// The geo filter's verdict, written out: inside the box, edges
/// included.
fn in_box((lat, lon): (f64, f64), [south, west, north, east]: [f64; 4]) -> bool {
    lat >= south && lat <= north && lon >= west && lon <= east
}

/// Every box gives every live point the verdict its stored position
/// earns from [`in_box`] — through `filter_ids` and through both
/// searches' masks.
fn assert_filters_like_its_positions(c: &Collection, what: &str) {
    let live: Vec<(u64, (f64, f64))> = c.iter_points().map(|(id, _, p)| (id, p)).collect();
    let boxes = [
        [-90.0, -180.0, 90.0, 180.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.2, 0.2],
        [0.01, 0.0, 0.01, 0.0],
        [0.2, 0.2, 0.0, 0.0],
        [f64::NAN, 0.0, 1.0, 1.0],
        [-f64::MAX, -f64::MAX, f64::MAX, f64::MAX],
        [f64::MIN_POSITIVE, -1.0, 1.0, 1.0],
    ];
    for b in boxes {
        let expect: Vec<u64> = live
            .iter()
            .filter(|&&(_, p)| in_box(p, b))
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

/// The odd positions of [`odd_positions`], by id.
const ODD: [(u64, (f64, f64)); 6] = [
    (3, (-0.0, 0.0)),
    (5, (0.0, -0.0)),
    (7, (f64::MAX, -f64::MAX)),
    (9, (5e-324, -5e-324)),
    (11, (90.0, -180.0)),
    (13, (0.2, 0.2)),
];

/// 60 points whose positions take every shape a finite pair allows:
/// mostly grid positions, and one point each at `-0.0`, the largest
/// finite magnitudes, the smallest subnormals, a pole and antimeridian
/// corner, and exactly on a box's corner.
fn odd_positions() -> Collection {
    let mut c = Collection::new(config(ScoringTier::Quantized { rerank_factor: 4 }));
    for i in 0..60u64 {
        let p = ODD
            .iter()
            .find(|&&(id, _)| id == i)
            .map_or(position(i), |&(_, p)| p);
        c.insert(i, pseudo(i + 1, DIM), p).unwrap();
    }
    c
}

/// `to_snapshot_bytes()` of three fixed collections, pinned: the whole
/// file's length and CRC-32 at format 4, and for the four bulk sections
/// (vectors, inverse norms, quantizer, graph) the lengths and CRC-32s
/// format 1 wrote for the same collections, recorded at commit
/// `c8d97ba` — formats 2, 3 and 4 changed the meta section and nothing
/// else (format 1 stored payloads beside these positions; no bulk
/// section ever depended on them).
#[test]
fn snapshot_bytes_are_pinned_and_the_bulk_sections_are_format_1s() {
    let quantized = ScoringTier::Quantized { rerank_factor: 4 };
    let worlds = [
        (
            "300 lived-in",
            lived_in(config(quantized), 300),
            PIN_300,
            V1_BULK_300,
        ),
        (
            "1,200 lived-in",
            lived_in(config(quantized), 1_200),
            PIN_1200,
            V1_BULK_1200,
        ),
        ("odd positions", odd_positions(), PIN_ODD, V1_BULK_ODD),
    ];
    for (name, c, pin, bulk) in worlds {
        let bytes = c.to_snapshot_bytes();
        assert_eq!((bytes.len(), crc32(&bytes)), pin, "{name}");
        let starts = section_starts(&bytes);
        let ends = [starts[2], starts[3], starts[4], bytes.len()];
        for (i, &end) in ends.iter().enumerate() {
            let section = &bytes[starts[i + 1]..end];
            assert_eq!(
                (section.len(), crc32(section)),
                bulk[i],
                "{name}: section {}",
                i + 1
            );
        }
    }
}
const PIN_300: (usize, u32) = (76_860, 0xe684_7b23);
const PIN_1200: (usize, u32) = (305_048, 0xf5f4_a923);
const PIN_ODD: (usize, u32) = (14_022, 0x7812_648e);
const V1_BULK_300: [(usize, u32); 4] = [
    (19_328, 0x73b4_2ec5),
    (1_208, 0x56e5_00f9),
    (6_064, 0x37b0_8e68),
    (42_584, 0x49d0_a160),
];
const V1_BULK_1200: [(usize, u32); 4] = [
    (76_928, 0xfc4f_541c),
    (4_808, 0x46e4_a96b),
    (24_064, 0x49fc_9338),
    (169_072, 0x0370_c9a5),
];
const V1_BULK_ODD: [(usize, u32); 4] = [
    (3_840, 0x909f_8d89),
    (240, 0x4409_b518),
    (0, 0),
    (8_316, 0xde09_9ae0),
];

#[test]
fn snapshot_with_odd_positions_round_trips_and_filters_like_its_payloads() {
    let original = odd_positions();
    let bytes = original.to_snapshot_bytes();
    let restored = Collection::from_snapshot_bytes(&bytes).unwrap();
    for c in [&original, &restored] {
        assert_filters_like_its_positions(c, "odd positions");
        // What was stored comes back bit for bit.
        let stored: Vec<(u64, [u64; 2])> = c
            .iter_points()
            .map(|(id, _, (lat, lon))| (id, [lat.to_bits(), lon.to_bits()]))
            .filter(|(id, _)| ODD.iter().any(|&(odd, _)| odd == *id))
            .collect();
        let want: Vec<(u64, [u64; 2])> = ODD
            .iter()
            .map(|&(id, (lat, lon))| (id, [lat.to_bits(), lon.to_bits()]))
            .collect();
        assert_eq!(stored, want);
    }
    assert_eq!(fingerprint(&restored), fingerprint(&original));
    assert_eq!(restored.memory_footprint(), original.memory_footprint());
    assert!(restored.to_snapshot_bytes() == bytes);
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
