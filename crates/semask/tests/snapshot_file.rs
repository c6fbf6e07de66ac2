//! Hostile bytes for the packed snapshot file
//! (`semask::persist::{from_snapshot_bytes, load_prepared}`, layout in
//! the `persist` module docs).
//!
//! Whatever is handed to the reader — a file cut short anywhere, any
//! single flipped bit, a count or length that no bytes back (behind a
//! *recomputed* checksum, so the lie reaches the decoder), damage of any
//! byte of the header or dataset section behind a valid checksum, a
//! directory of the older format — the result is a typed
//! `PersistError`, never a panic, and a refusal never allocates more
//! than the input could justify. The header and dataset fields are
//! found by `layout`, a walker of the documented layout written
//! independently of the crate's reader; the collection's own sections
//! have their battery in `crates/vecdb/tests/snapshot_codec.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

use llm::SimLlm;
use semask::persist::{from_snapshot_bytes, load_prepared, save_prepared, PersistError, SNAPSHOT};
use semask::{prepare_city, Mutation, PoiSpec, PoiUpdate, SemaSkConfig, SemaSkEngine, Variant};
use vecdb::VecDbError;

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

/// Room for an error message on top of the input's own length.
const MESSAGE: usize = 256;

/// Loads `bytes`, asserting that a refusal is typed and allocated no
/// more than the input could justify; whether it loaded.
fn load(bytes: &[u8], config: &SemaSkConfig, what: &str) -> bool {
    PEAK.with(|p| p.set(0));
    let result = from_snapshot_bytes(bytes, config);
    let peak = PEAK.with(Cell::get);
    match result {
        Ok(_) => true,
        Err(e) => {
            assert!(
                matches!(
                    e,
                    PersistError::VecDb(VecDbError::Snapshot { .. })
                        | PersistError::VecDb(VecDbError::NonFiniteVector)
                        | PersistError::VecDb(VecDbError::InvalidConfig { .. })
                        | PersistError::Version { .. }
                        | PersistError::Dataset(_)
                        | PersistError::DimMismatch { .. }
                        | PersistError::UnknownCity { .. }
                ),
                "{what}: {e}"
            );
            assert!(
                peak <= bytes.len() + MESSAGE,
                "{what}: a {peak}-byte allocation for {} bytes of input",
                bytes.len()
            );
            false
        }
    }
}

fn refused(bytes: &[u8], config: &SemaSkConfig, what: &str) {
    assert!(!load(bytes, config, what), "{what}: loaded");
}

// ---- one small city, written once ----

/// An 8-POI city after an insert, an update and a delete: tombstones in
/// the header, an appended object and every kind of attribute value in
/// the dataset section.
fn snapshot(tag: &str) -> (Vec<u8>, SemaSkConfig) {
    let data = datagen::poi::generate_city(&datagen::CITIES[2], 8, 5);
    // Short embeddings keep the file, and so the battery, small.
    let mut config = SemaSkConfig::default();
    config.embedder.dim = 32;
    let llm = Arc::new(SimLlm::new());
    let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prep"));
    let engine = SemaSkEngine::new(
        Arc::clone(&prepared),
        llm,
        config.clone(),
        Variant::EmbeddingOnly,
    );
    let center = data.city.center();
    engine
        .apply_mutations(&[
            Mutation::Insert(PoiSpec {
                name: "Hostile Bytes Bakery".to_owned(),
                lat: center.lat,
                lon: center.lon,
                categories: vec!["bakery".to_owned()],
                tips: vec!["the croissants survive anything".to_owned()],
            }),
            Mutation::Update {
                id: 2,
                update: PoiUpdate {
                    name: Some("Renamed Before The Cut".to_owned()),
                    tips: None,
                },
            },
            Mutation::Delete { id: 4 },
        ])
        .expect("mutations");
    let dir = tmpdir(tag);
    save_prepared(&prepared, &dir).expect("save");
    let bytes = std::fs::read(dir.join("snap-0")).expect("the snapshot file");
    std::fs::remove_dir_all(&dir).ok();
    assert!(load(&bytes, &config, "intact"), "the intact file loads");
    eprintln!("{tag}: a {}-byte snapshot", bytes.len());
    (bytes, config)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("semask_snapshot_file_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---- the layout, walked independently ----

/// Magic, version, CRC, section count, seven `u64` lengths.
const HEADER: usize = 8 + 4 + 4 + 4 + 7 * 8;

/// Where each section starts and ends, from the section table.
fn sections(file: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut start = HEADER;
    (0..7)
        .map(|i| {
            let len = le(file, 20 + i * 8, 8);
            start += len;
            start - len..start
        })
        .collect()
}

fn le(file: &[u8], at: usize, width: usize) -> usize {
    let mut word = [0u8; 8];
    word[..width].copy_from_slice(&file[at..at + width]);
    u64::from_le_bytes(word) as usize
}

/// Recomputes the checksum, so a lie gets past it to the checks behind.
fn reseal(file: &mut [u8]) {
    let crc = vecdb::crc32(&file[16..]);
    file[12..16].copy_from_slice(&crc.to_le_bytes());
}

/// The byte offsets of every `u32` count and string length in the header
/// and the dataset section.
fn layout(file: &[u8]) -> Vec<usize> {
    let parts = sections(file);
    let mut counts = Vec::new();
    let string = |at: usize, counts: &mut Vec<usize>| {
        counts.push(at);
        at + 4 + le(file, at, 4)
    };
    // Header: city key, collection name, dim, next_id, seq, tombstones.
    let mut at = parts[0].start;
    at = string(at, &mut counts);
    at = string(at, &mut counts);
    at += 8 + 4 + 8;
    counts.push(at);
    at += 4 + 4 * le(file, at, 4);
    assert_eq!(at, parts[0].end, "header walked to its end");

    // Dataset: name, object count, objects.
    let mut at = string(parts[6].start, &mut counts);
    let objects = le(file, at, 4);
    counts.push(at);
    at += 4;
    for _ in 0..objects {
        at += 4 + 8 + 8;
        let attrs = le(file, at, 4);
        counts.push(at);
        at += 4;
        for _ in 0..attrs {
            at = string(at, &mut counts);
            let tag = file[at];
            at += 1;
            at = match tag {
                0 => string(at, &mut counts),
                1 | 2 => at + 8,
                3 => at + 1,
                4 | 5 => {
                    let n = le(file, at, 4);
                    counts.push(at);
                    at += 4;
                    for _ in 0..n * (tag as usize - 3) {
                        at = string(at, &mut counts);
                    }
                    at
                }
                t => panic!("attribute tag {t} at byte {at}"),
            };
        }
    }
    assert_eq!(at, parts[6].end, "dataset walked to its end");
    counts
}

// ---- the battery ----

#[test]
fn a_snapshot_file_truncated_anywhere_is_refused() {
    let (file, config) = snapshot("a_snapshot_file_truncated_anywhere_is_refused");
    for cut in 0..file.len() {
        refused(&file[..cut], &config, &format!("cut at {cut}"));
    }
    let mut longer = file.clone();
    longer.push(0);
    refused(&longer, &config, "one trailing byte");
    reseal(&mut longer);
    refused(&longer, &config, "one trailing byte, resealed");
}

#[test]
fn a_snapshot_file_with_any_bit_flipped_is_refused() {
    let (file, config) = snapshot("a_snapshot_file_with_any_bit_flipped_is_refused");
    for bit in 0..file.len() * 8 {
        let mut bad = file.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        refused(&bad, &config, &format!("bit {bit}"));
    }
}

#[test]
fn absurd_counts_are_refused_before_allocating() {
    let (file, config) = snapshot("absurd_counts_are_refused_before_allocating");
    let counts = layout(&file);
    assert!(counts.len() > 100, "{} counts found", counts.len());
    for &at in &counts {
        for lie in [file.len() as u32 + 1, u32::MAX / 2, u32::MAX] {
            let mut bad = file.clone();
            bad[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            reseal(&mut bad);
            refused(&bad, &config, &format!("count at byte {at} set to {lie}"));
        }
    }
    for section in 0..7 {
        for lie in [file.len() as u64 + 1, u64::MAX / 4, u64::MAX] {
            let mut bad = file.clone();
            let at = 20 + section * 8;
            bad[at..at + 8].copy_from_slice(&lie.to_le_bytes());
            reseal(&mut bad);
            refused(
                &bad,
                &config,
                &format!("section {section} declared {lie} bytes"),
            );
        }
    }
}

/// One bit of every byte of the header and of every fifth byte of the
/// dataset section (each load that succeeds builds a whole city), behind
/// a recomputed checksum: the load fails with a typed error, or it
/// succeeds (a changed letter in a name is another valid city) — never a
/// panic.
#[test]
fn header_and_dataset_damaged_behind_a_valid_checksum_never_panic() {
    let (file, config) = snapshot("header_and_dataset_damaged_behind_a_valid_checksum_never_panic");
    let parts = sections(&file);
    let mut loaded = 0;
    let mut tried = 0;
    for (range, stride) in [(parts[0].clone(), 1), (parts[6].clone(), 5)] {
        for at in range.step_by(stride) {
            let mut bad = file.clone();
            bad[at] ^= 1 << (at % 8);
            reseal(&mut bad);
            loaded += usize::from(load(&bad, &config, &format!("byte {at}")));
            tried += 1;
        }
    }
    // Flips inside strings and floats load; structure flips do not.
    assert!(loaded > 0 && loaded < tried, "{loaded} of {tried} loaded");
}

#[test]
fn a_format_2_directory_and_other_versions_are_refused_by_their_version() {
    let (file, config) =
        snapshot("a_format_2_directory_and_other_versions_are_refused_by_their_version");
    // Format 2 kept a snapshot as a directory of files: `CURRENT` names
    // a directory, which is refused unread and left as it is.
    let dir = tmpdir("format_2");
    std::fs::create_dir_all(dir.join("snap-0")).unwrap();
    std::fs::write(dir.join("snap-0").join("collection.bin"), b"collection").unwrap();
    std::fs::write(dir.join("CURRENT"), b"snap-0").unwrap();
    assert!(matches!(
        load_prepared(&dir, &config),
        Err(PersistError::Version { found: 2 })
    ));
    assert!(dir.join("snap-0").join("collection.bin").exists());
    std::fs::remove_dir_all(&dir).ok();

    // A file naming another version, the previous format 3 among them,
    // is refused by it, checksum or not.
    for version in [1u32, 2, 3, 5, u32::MAX] {
        let mut other = file.clone();
        other[8..12].copy_from_slice(&version.to_le_bytes());
        assert!(matches!(
            from_snapshot_bytes(&other, &config),
            Err(PersistError::Version { found }) if found == version
        ));
        reseal(&mut other);
        assert!(matches!(
            from_snapshot_bytes(&other, &config),
            Err(PersistError::Version { found }) if found == version
        ));
    }
    assert_eq!(&file[..8], &SNAPSHOT.magic);
    assert_eq!(le(&file, 8, 4), SNAPSHOT.version as usize);
}
