//! Persistence of prepared cities.
//!
//! The paper's preparation pipeline is expensive (one LLM call per POI
//! plus embedding generation), so a deployment runs it once and serves
//! queries from the stored artifacts. [`save_prepared`] writes the
//! enriched dataset and the vector collection to a directory;
//! [`load_prepared`] restores a fully query-ready [`PreparedCity`]
//! without touching the LLM or the embedder for the stored POIs.
//!
//! # One packed file per snapshot
//!
//! A snapshot is one file, committed by the classic `CURRENT`-pointer
//! idiom:
//!
//! ```text
//! dir/
//!   CURRENT        # the committed snapshot's file name
//!   snap-3         # a committed snapshot (fsynced, renamed, dir fsynced)
//!   snap-4.tmp     # a snapshot being staged, or one that crashed mid-write
//!   wal.log        # DurableEngine's active log: records after the last cut
//!   wal.prev       # the log rotated out at that cut, until snap-4 commits
//! ```
//!
//! The file is a [`vecdb::codec`] container of format [`SNAPSHOT`]
//! (magic `SEMASKSN`, version 4): the crate's one codec, one CRC-32 over
//! everything after its field, and seven sections, all little-endian:
//!
//! ```text
//! 0     header   city key (u32 length + UTF-8), collection name (same),
//!                embedder dim u64, next_id u32, last_applied_seq u64,
//!                tombstone count u32 + that many ids u32, ascending
//! 1–5   the collection's five sections, as
//!       `vecdb::Collection::pack_sections` lays them out (each pinned
//!       by length and CRC-32 in vecdb's `tests/snapshot_codec.rs`):
//!       each point an id, a delete flag, a position, a vector and its
//!       graph node — a POI's attributes live in section 6 only
//! 6     dataset  name (u32 length + UTF-8), object count u32, then per
//!                object: id u32, lat f64, lon f64, attribute count u32,
//!                and per attribute its key and a tagged value:
//!                0 text + string, 1 number + f64, 2 integer + i64,
//!                3 bool + one byte 0 or 1, 4 list + u32 count + strings,
//!                5 map + u32 count + (key, value) strings, keys ascending
//! ```
//!
//! A snapshot is taken in two steps. [`cut_prepared`] freezes the state
//! at one log sequence number — the header and the collection packed
//! into one buffer under the collection's read lock, the dataset and the
//! published overlay pinned by `Arc` — and needs the city to hold still
//! only for that long. [`write_snapshot`] does the rest on whichever
//! thread has the cut: it packs the dataset section, seals the file
//! (section table and CRC-32), stages it as `snap-<k>.tmp`, fsyncs it,
//! renames it to `snap-<k>`, fsyncs the directory, then atomically
//! rewrites `CURRENT` (temp file + fsync + rename + directory fsync).
//! [`save_prepared`] is the two in a row. A crash at any point leaves
//! either the old `CURRENT` (naming the intact previous snapshot) or the
//! new one (naming the fully written new snapshot) — never a mix, and a
//! directory fsync that fails fails the snapshot. [`load_prepared`]
//! follows `CURRENT` — without one there is no snapshot to load — and
//! removes orphaned `*.tmp` staging entries and superseded snapshots.
//! The two log files are [`crate::durable`]'s; nothing here reads or
//! removes them.
//!
//! Nothing in the file is trusted: [`from_snapshot_bytes`] checks magic,
//! version and checksum before a section is read, every count against
//! the bytes that remain before anything is sized by it, and then that
//! the parts agree (one object per id below `next_id`, ids dense and in
//! order, tombstones ascending and below `next_id`). A damaged file is a
//! typed error, never a panic and never a city that fails later. There
//! is one version: format 2 stored a directory of four files (three of
//! them JSON), and a `CURRENT` naming a directory is refused as that
//! version, unread; format 3 was this file with a second copy of each
//! POI's name (and, under a since-deleted knob, its tip summary) in the
//! collection's meta section; a file of another version is refused by
//! the version it names.
//!
//! # Live state
//!
//! The snapshot *folds* the live mutation overlay into the dataset
//! section: updated objects replace their base versions and inserted
//! objects are appended, so the reloaded grid/IR-tree/corpus indexes are
//! built over the post-mutation world and the side buffers start empty.
//! Tombstoned objects are **kept** in the dataset (ids must stay dense
//! for the index builders) and re-masked on load from the header's
//! tombstone list: the restored collection already soft-deletes them,
//! and the corpus index drops their postings so keyword statistics stay
//! honest.

use std::fmt;
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use datagen::ReverseGeocoder;
use embed::SemanticEmbedder;
use geotext::{AttributeValue, Dataset, GeoPoint, GeoTextObject, ObjectId};
use vecdb::codec::{corrupt, Format, Reader, Writer};
use vecdb::{Collection, VecDbError, VectorDb};

use crate::config::SemaSkConfig;
use crate::live::{LiveState, Overlay};
use crate::prep::PreparedCity;
use crate::wal::crash_point;

/// The pointer file naming the committed snapshot.
const CURRENT_FILE: &str = "CURRENT";
/// Snapshots are files `snap-<k>`, staged as `snap-<k>.tmp`.
const SNAP_PREFIX: &str = "snap-";

/// A prepared city's snapshot file: header, the collection's five
/// sections, dataset (module docs).
pub const SNAPSHOT: Format<7> = Format {
    magic: *b"SEMASKSN",
    version: 4,
};

/// The version of the layout that kept a snapshot as a directory.
const DIRECTORY_VERSION: u32 = 2;

/// Errors from saving/loading prepared cities.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The manifest referenced an unknown city key.
    UnknownCity {
        /// The offending key.
        key: String,
    },
    /// The snapshot file could not be packed, or failed a check on load:
    /// its container, the collection's sections or the ones beside them.
    VecDb(VecDbError),
    /// The directory has no committed snapshot (`CURRENT` is missing or
    /// empty).
    NoSnapshot,
    /// The snapshot is of another format version than this build reads.
    Version {
        /// The version found: the file's, or 2 for a snapshot directory.
        found: u32,
    },
    /// The dataset section decoded, but its object ids are not dense and
    /// in order, so an id would look up another object.
    Dataset(geotext::GeoTextError),
    /// The snapshot was prepared with another embedding dimension than
    /// the config it is being opened under, so query embeddings could
    /// not be compared with the stored vectors.
    DimMismatch {
        /// `embedder_dim` recorded in the snapshot's header.
        stored: usize,
        /// `embedder.dim` of the supplied config.
        configured: usize,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io: {e}"),
            PersistError::UnknownCity { key } => write!(f, "unknown city key `{key}`"),
            PersistError::VecDb(e) => write!(f, "snapshot: {e}"),
            PersistError::NoSnapshot => write!(f, "no committed snapshot (CURRENT missing)"),
            PersistError::Version { found } => write!(
                f,
                "snapshot format version {found}, this build reads only {}",
                SNAPSHOT.version
            ),
            PersistError::Dataset(e) => write!(f, "dataset section: {e}"),
            PersistError::DimMismatch { stored, configured } => write!(
                f,
                "snapshot holds {stored}-d embeddings, config asks for {configured}-d"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<VecDbError> for PersistError {
    fn from(e: VecDbError) -> Self {
        PersistError::VecDb(e)
    }
}

/// Writes `bytes` to `path` and fsyncs the file before returning.
fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Fsyncs a directory so renames/creations inside it are durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The next unused snapshot index: one past the highest `snap-<k>` or
/// `snap-<k>.tmp` present.
fn next_snapshot_index(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let rest = name.strip_prefix(SNAP_PREFIX)?;
            rest.strip_suffix(".tmp")
                .unwrap_or(rest)
                .parse::<u64>()
                .ok()
        })
        .max()
        .map_or(0, |k| k + 1)
}

/// Removes orphaned `*.tmp` staging entries and, when a committed
/// snapshot is known, superseded `snap-*` ones.
fn cleanup_stale(dir: &Path, keep: Option<&str>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let orphan_tmp = name.ends_with(".tmp");
        let superseded = keep.is_some()
            && name.starts_with(SNAP_PREFIX)
            && !orphan_tmp
            && Some(name.as_str()) != keep;
        if orphan_tmp || superseded {
            let p = e.path();
            if p.is_dir() {
                let _ = fs::remove_dir_all(&p);
            } else {
                let _ = fs::remove_file(&p);
            }
        }
    }
}

/// A prepared city frozen at one log sequence number — what
/// [`cut_prepared`] takes and [`write_snapshot`] stores. It owns or
/// pins everything it names (the header and the collection as packed
/// sections, the dataset and the overlay by `Arc`), so writing it needs
/// no lock and no further look at the city, which may go on changing.
pub struct SnapshotCut {
    dataset: Arc<Dataset>,
    overlay: Arc<Overlay>,
    /// The file's first six sections, packed: the dataset section, the
    /// section table and the checksum belong to the thread that writes
    /// the file.
    packed: Writer,
}

/// Freezes `prepared` for a snapshot: pins the published overlay and the
/// base dataset, packs the header and the collection under its read lock
/// (no checksum — [`write_snapshot`] seals it), and reads the
/// applied-WAL watermark. They agree only if no mutation is applied
/// meanwhile — [`crate::durable::DurableEngine`] cuts under its log
/// mutex, which excludes writers; queries may run throughout.
///
/// # Errors
/// [`PersistError::VecDb`] if the collection is missing or fails to pack.
pub fn cut_prepared(prepared: &PreparedCity) -> Result<SnapshotCut, PersistError> {
    let handle = prepared.db.collection(&prepared.collection_name)?;
    let overlay = prepared.live.overlay();
    let collection = handle.read();
    let mut packed = SNAPSHOT.writer(0);
    packed.str(prepared.city.key)?;
    packed.str(&prepared.collection_name)?;
    packed.len64(collection.config().dim);
    packed.u32(overlay.next_id());
    packed.u64(prepared.live.last_seq());
    let mut tombstones: Vec<u32> = overlay.tombstones().iter().copied().collect();
    tombstones.sort_unstable();
    packed.u32(count32(tombstones.len())?);
    packed.u32s(&tombstones);
    packed.end_section();
    collection.pack_sections(&mut packed);
    drop(collection);
    Ok(SnapshotCut {
        dataset: Arc::clone(&prepared.dataset),
        overlay,
        packed,
    })
}

/// Appends the dataset section: the overlay folded over the base. Updates
/// replace their base objects, inserts are appended in id order, and
/// tombstoned objects are kept (dense ids) for the header's list to
/// re-mask on load.
fn pack_dataset(w: &mut Writer, base: &Dataset, overlay: &Overlay) -> Result<(), VecDbError> {
    w.str(&base.name)?;
    w.u32(overlay.next_id());
    for id in 0..overlay.next_id() {
        let obj = overlay
            .get_raw(base, ObjectId(id))
            .expect("dense ids: every id below the watermark resolves");
        w.u32(obj.id.0);
        w.f64(obj.location.lat);
        w.f64(obj.location.lon);
        w.u32(count32(obj.attrs.len())?);
        for (key, value) in obj.attrs.iter() {
            w.str(key)?;
            match value {
                AttributeValue::Text(s) => {
                    w.u8(attr::TEXT);
                    w.str(s)?;
                }
                AttributeValue::Number(x) => {
                    w.u8(attr::NUMBER);
                    w.f64(*x);
                }
                AttributeValue::Integer(i) => {
                    w.u8(attr::INTEGER);
                    w.u64(*i as u64);
                }
                AttributeValue::Bool(b) => {
                    w.u8(attr::BOOL);
                    w.bool(*b);
                }
                AttributeValue::List(items) => {
                    w.u8(attr::LIST);
                    w.u32(count32(items.len())?);
                    for item in items {
                        w.str(item)?;
                    }
                }
                AttributeValue::Map(m) => {
                    w.u8(attr::MAP);
                    w.u32(count32(m.len())?);
                    for (k, v) in m {
                        w.str(k)?;
                        w.str(v)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Tags of the attribute values in the dataset section (module docs).
mod attr {
    pub const TEXT: u8 = 0;
    pub const NUMBER: u8 = 1;
    pub const INTEGER: u8 = 2;
    pub const BOOL: u8 = 3;
    pub const LIST: u8 = 4;
    pub const MAP: u8 = 5;
}

/// A container length as the `u32` the format stores.
fn count32(n: usize) -> Result<u32, VecDbError> {
    u32::try_from(n).map_err(|_| corrupt(format!("{n} items in one container")))
}

/// A stored `u32` count of things that each take at least `min_bytes`,
/// refused if the bytes that remain cannot hold them.
fn read_count(r: &mut Reader<'_>, min_bytes: usize) -> Result<usize, VecDbError> {
    let count = r.u32()? as usize;
    r.count(count, min_bytes)
}

/// Writes `cut` into `dir` as a new snapshot file and commits it by
/// atomically rewriting the `CURRENT` pointer. The live mutation overlay
/// is folded into the stored dataset (see the module docs), so a
/// subsequent [`load_prepared`] starts from the world as of the cut with
/// empty side buffers. The dataset section and the file's checksum are
/// computed here, on the writing thread.
///
/// # Errors
/// Whichever step failed to encode, write, rename or fsync; `CURRENT`
/// then still names the previous snapshot.
pub fn write_snapshot(cut: SnapshotCut, dir: &Path) -> Result<(), PersistError> {
    let SnapshotCut {
        dataset,
        overlay,
        mut packed,
    } = cut;
    pack_dataset(&mut packed, &dataset, &overlay)?;
    packed.end_section();
    let bytes = packed.finish().seal();

    fs::create_dir_all(dir)?;
    let snap_name = format!("{SNAP_PREFIX}{}", next_snapshot_index(dir));
    let tmp = dir.join(format!("{snap_name}.tmp"));
    write_synced(&tmp, &bytes)?;
    crash_point("ckpt-mid-snapshot");
    fs::rename(&tmp, dir.join(&snap_name))?;
    sync_dir(dir)?;

    // The single commit point: CURRENT flips to the new snapshot.
    let current_tmp = dir.join("CURRENT.tmp");
    write_synced(&current_tmp, snap_name.as_bytes())?;
    fs::rename(&current_tmp, dir.join(CURRENT_FILE))?;
    sync_dir(dir)?;

    cleanup_stale(dir, Some(&snap_name));
    Ok(())
}

/// Snapshots a prepared city nobody is writing to:
/// [`write_snapshot`] of [`cut_prepared`].
///
/// # Errors
/// See the two halves.
pub fn save_prepared(prepared: &PreparedCity, dir: &Path) -> Result<(), PersistError> {
    write_snapshot(cut_prepared(prepared)?, dir)
}

/// Restores a prepared city saved by [`save_prepared`]. The embedder is
/// reconstructed from `config` (it is a pure function, so query-time
/// embeddings still match the stored POI vectors as long as the same
/// embedder configuration is supplied).
///
/// Follows the `CURRENT` pointer to the committed snapshot and cleans
/// up orphaned `*.tmp` staging entries left by a crashed
/// [`save_prepared`].
///
/// # Errors
/// [`PersistError::NoSnapshot`] when `dir` has no committed snapshot;
/// [`PersistError::Version`] when `CURRENT` names a directory (format 2)
/// or a file of another version; otherwise what
/// [`from_snapshot_bytes`] refuses, or the I/O error that kept the file
/// from being read.
pub fn load_prepared(dir: &Path, config: &SemaSkConfig) -> Result<PreparedCity, PersistError> {
    let current = fs::read_to_string(dir.join(CURRENT_FILE))
        .ok()
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .ok_or(PersistError::NoSnapshot)?;
    let path = dir.join(&current);
    if path.is_dir() {
        return Err(PersistError::Version {
            found: DIRECTORY_VERSION,
        });
    }
    let prepared = from_snapshot_bytes(&fs::read(&path)?, config)?;
    cleanup_stale(dir, Some(&current));
    Ok(prepared)
}

/// The header section's fields.
struct Header<'a> {
    city_key: &'a str,
    collection_name: &'a str,
    embedder_dim: usize,
    next_id: u32,
    last_seq: u64,
    tombstones: Vec<u32>,
}

impl<'a> Header<'a> {
    fn unpack(mut r: Reader<'a>) -> Result<Self, VecDbError> {
        let city_key = r.str()?;
        let collection_name = r.str()?;
        let embedder_dim = r.len64()?;
        let next_id = r.u32()?;
        let last_seq = r.u64()?;
        let count = r.u32()? as usize;
        let tombstones = r.u32s(count)?;
        r.finish()?;
        if tombstones.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("tombstones out of order"));
        }
        if tombstones.last().is_some_and(|&t| t >= next_id) {
            return Err(corrupt(format!("a tombstone at or past next_id {next_id}")));
        }
        Ok(Self {
            city_key,
            collection_name,
            embedder_dim,
            next_id,
            last_seq,
            tombstones,
        })
    }
}

/// Reads back what [`pack_dataset`] wrote. Objects are decoded one at a
/// time, never sized by the declared count, and a repeated attribute key
/// is refused (two files must not decode to one object).
fn unpack_dataset(mut r: Reader<'_>) -> Result<Dataset, PersistError> {
    let name = r.str()?.to_owned();
    // id, lat, lon and an attribute count.
    let count = read_count(&mut r, 24)?;
    let mut objects = Vec::new();
    for _ in 0..count {
        let id = ObjectId(r.u32()?);
        let (lat, lon) = (r.f64()?, r.f64()?);
        let location = GeoPoint::new(lat, lon).map_err(|e| corrupt(format!("object {id}: {e}")))?;
        // A key length and a tag.
        let attrs = read_count(&mut r, 5)?;
        let mut entries: Vec<(String, AttributeValue)> = Vec::new();
        for _ in 0..attrs {
            let key = r.str()?;
            if entries.iter().any(|(k, _)| k == key) {
                return Err(corrupt(format!("object {id}: attribute `{key}` twice")).into());
            }
            let value = match r.u8()? {
                attr::TEXT => AttributeValue::Text(r.str()?.to_owned()),
                attr::NUMBER => AttributeValue::Number(r.f64()?),
                attr::INTEGER => AttributeValue::Integer(r.u64()? as i64),
                attr::BOOL => AttributeValue::Bool(r.bool()?),
                attr::LIST => {
                    let n = read_count(&mut r, 4)?;
                    let mut items = Vec::new();
                    for _ in 0..n {
                        items.push(r.str()?.to_owned());
                    }
                    AttributeValue::List(items)
                }
                attr::MAP => {
                    let n = read_count(&mut r, 8)?;
                    let mut m = std::collections::BTreeMap::new();
                    let mut last: Option<&str> = None;
                    for _ in 0..n {
                        let k = r.str()?;
                        if last.is_some_and(|prev| prev >= k) {
                            return Err(corrupt(format!(
                                "object {id}: map key `{k}` out of order"
                            ))
                            .into());
                        }
                        last = Some(k);
                        m.insert(k.to_owned(), r.str()?.to_owned());
                    }
                    AttributeValue::Map(m)
                }
                t => return Err(corrupt(format!("object {id}: attribute tag {t}")).into()),
            };
            entries.push((key.to_owned(), value));
        }
        objects.push(GeoTextObject {
            id,
            location,
            attrs: entries.into_iter().collect(),
        });
    }
    r.finish()?;
    Dataset::from_objects(name, objects).map_err(PersistError::Dataset)
}

/// Restores a prepared city from the bytes of a snapshot file, trusting
/// none of them (module docs) — what [`load_prepared`] does with the
/// file `CURRENT` names.
///
/// # Errors
/// [`PersistError::Version`] for a file of another format version;
/// [`PersistError::DimMismatch`] when the snapshot was prepared at
/// another embedding dimension than `config.embedder.dim`;
/// [`PersistError::UnknownCity`] for a city key no city has;
/// [`PersistError::Dataset`] when the dataset's ids are not dense and in
/// order; [`PersistError::VecDb`] for anything else the file gets wrong.
pub fn from_snapshot_bytes(
    bytes: &[u8],
    config: &SemaSkConfig,
) -> Result<PreparedCity, PersistError> {
    // A file of this format names its version right after the magic; one
    // that names another is refused by it, before any other check.
    if let Some(version) = bytes
        .strip_prefix(&SNAPSHOT.magic)
        .and_then(|rest| rest.get(..4))
    {
        let found = u32::from_le_bytes(version.try_into().expect("four bytes"));
        if found != SNAPSHOT.version {
            return Err(PersistError::Version { found });
        }
    }
    let [header, meta, vectors, norms, quant, graph, data] = SNAPSHOT.open(bytes)?;
    let header = Header::unpack(header)?;
    if header.embedder_dim != config.embedder.dim {
        return Err(PersistError::DimMismatch {
            stored: header.embedder_dim,
            configured: config.embedder.dim,
        });
    }
    let city = datagen::City::by_key(header.city_key).ok_or_else(|| PersistError::UnknownCity {
        key: header.city_key.to_owned(),
    })?;
    let collection = Collection::from_sections([meta, vectors, norms, quant, graph])?;
    let dataset = unpack_dataset(data)?;
    if dataset.len() != header.next_id as usize {
        return Err(corrupt(format!(
            "{} objects for next_id {}",
            dataset.len(),
            header.next_id
        ))
        .into());
    }
    let dataset = Arc::new(dataset);

    let db = VectorDb::new();
    let handle = db.add_collection(header.collection_name, collection)?;
    // The planner's indexes (grid, IR-tree) are pure functions of the
    // dataset, so they are rebuilt rather than stored.
    let planner =
        crate::retrieval::QueryPlanner::for_city(Arc::clone(&dataset), handle, config.planner);
    // Re-mask tombstoned objects in the corpus index: the restored
    // collection already soft-deletes them (every spatial path masks
    // through it), but keyword df/match statistics must drop their
    // postings too.
    for &t in &header.tombstones {
        let obj = &dataset[ObjectId(t)];
        planner.live_delete(obj.id, planner.doc_terms(&obj.to_document()));
    }
    let live = LiveState::with_overlay(
        Overlay::restore(header.next_id, header.tombstones),
        header.last_seq,
    );
    let names = crate::prep::name_column(&dataset);

    Ok(PreparedCity {
        city,
        dataset,
        db,
        collection_name: header.collection_name.to_owned(),
        embedder: SemanticEmbedder::new(config.embedder.clone()),
        geocoder: ReverseGeocoder::for_city(&city),
        planner,
        live,
        names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SemaSkEngine, Variant};
    use crate::prep::prepare_city;
    use crate::query::SemaSkQuery;
    use llm::SimLlm;
    use std::sync::Arc;

    #[test]
    fn save_load_roundtrip_serves_identical_answers() {
        let data = datagen::poi::generate_city(&datagen::CITIES[1], 120, 55);
        let config = SemaSkConfig::default();
        let llm = Arc::new(SimLlm::new());
        let prepared = prepare_city(&data, &llm, &config).expect("prep");

        let dir = std::env::temp_dir().join("semask_persist_test");
        let _ = std::fs::remove_dir_all(&dir);
        save_prepared(&prepared, &dir).expect("save");
        let restored = load_prepared(&dir, &config).expect("load");
        assert_eq!(restored.dataset.len(), prepared.dataset.len());
        assert_eq!(restored.city.key, "NS");

        // Queries through the restored city give identical outcomes.
        let range = geotext::BoundingBox::from_center_km(data.city.center(), 6.0, 6.0);
        let q = SemaSkQuery::new(range, "somewhere with big screens and wings");
        let e1 = SemaSkEngine::new(
            Arc::new(prepared),
            Arc::clone(&llm),
            config.clone(),
            Variant::Full,
        );
        let e2 = SemaSkEngine::new(Arc::new(restored), llm, config, Variant::Full);
        let a1: Vec<_> = e1.query(&q).unwrap().answer_ids();
        let a2: Vec<_> = e2.query(&q).unwrap().answer_ids();
        assert_eq!(a1, a2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persisted_metro_reopens_and_serves_identical_answers() {
        // A `generate_metro` world carries the `METRO` key, which is not
        // one of the paper's five `CITIES`.
        let data = datagen::metro::generate_metro(&datagen::metro::MetroConfig::new(2_000, 7));
        // Two separately built planners price with the same constant
        // coefficients, so answers can be compared across them.
        let config = SemaSkConfig::default();
        let llm = Arc::new(SimLlm::new());
        let prepared = crate::prep::prepare_city(&data, &llm, &config).expect("prep");

        let dir = std::env::temp_dir().join("semask_persist_metro");
        let _ = std::fs::remove_dir_all(&dir);
        save_prepared(&prepared, &dir).expect("save");
        let restored = load_prepared(&dir, &config).expect("a persisted metro reopens");
        assert_eq!(restored.city.key, datagen::METRO.key);
        assert_eq!(restored.dataset.len(), 2_000);

        let variant = Variant::EmbeddingOnly;
        let e1 = SemaSkEngine::new(
            Arc::new(prepared),
            Arc::clone(&llm),
            config.clone(),
            variant,
        );
        let e2 = SemaSkEngine::new(Arc::new(restored), llm, config, variant);
        let center = data.city.center();
        for (i, text) in [
            "late night tacos",
            "a quiet cafe",
            "craft beer and live music",
        ]
        .iter()
        .enumerate()
        {
            let km = 4.0 + 6.0 * i as f64;
            let range = geotext::BoundingBox::from_center_km(center, km, km);
            let q = SemaSkQuery::new(range, *text);
            let a1 = e1.query(&q).unwrap();
            let a2 = e2.query(&q).unwrap();
            assert!(!a1.pois.is_empty(), "query {i} matches something");
            assert_eq!(a1.answer_ids(), a2.answer_ids(), "query {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_dir_errors() {
        let dir = std::env::temp_dir().join("semask_persist_missing");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(load_prepared(&dir, &SemaSkConfig::default()).is_err());
    }

    #[test]
    fn load_rejects_a_config_with_another_embedder_dim() {
        let data = datagen::poi::generate_city(&datagen::CITIES[0], 30, 7);
        let config = SemaSkConfig::default();
        let prepared = prepare_city(&data, &SimLlm::new(), &config).expect("prep");
        let dir = std::env::temp_dir().join("semask_persist_dim");
        let _ = std::fs::remove_dir_all(&dir);
        save_prepared(&prepared, &dir).expect("save");

        let mut other = config.clone();
        other.embedder.dim = config.embedder.dim / 2;
        match load_prepared(&dir, &other) {
            Err(PersistError::DimMismatch { stored, configured }) => {
                assert_eq!(stored, config.embedder.dim);
                assert_eq!(configured, other.embedder.dim);
            }
            Err(e) => panic!("expected a dimension mismatch, got {e}"),
            Ok(_) => panic!("a snapshot opened under another embedding dimension"),
        }
        assert!(load_prepared(&dir, &config).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn folded_dataset_is_stored_byte_identically_without_a_clone() {
        use crate::wal::{Mutation, PoiSpec, PoiUpdate};

        let data = datagen::poi::generate_city(&datagen::CITIES[0], 40, 9);
        let config = SemaSkConfig::default();
        let llm = Arc::new(SimLlm::new());
        let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prep"));
        let engine = SemaSkEngine::new(Arc::clone(&prepared), llm, config, Variant::EmbeddingOnly);
        let center = data.city.center();
        engine
            .apply_mutations(&[
                Mutation::Insert(PoiSpec {
                    name: "Fold Street Diner".to_owned(),
                    lat: center.lat,
                    lon: center.lon,
                    categories: vec!["Diners".to_owned()],
                    tips: vec!["pancakes all day".to_owned()],
                }),
                Mutation::Update {
                    id: 3,
                    update: PoiUpdate {
                        name: Some("Renamed On Fold".to_owned()),
                        tips: None,
                    },
                },
                Mutation::Delete { id: 5 },
            ])
            .expect("mutations apply");

        // The reference for the dataset section: the fold as owned
        // clones in a real `Dataset`, stored with nothing over it.
        let overlay = prepared.live.overlay();
        let owned: Vec<GeoTextObject> = (0..overlay.next_id())
            .map(|id| {
                overlay
                    .get_raw(&prepared.dataset, ObjectId(id))
                    .unwrap()
                    .clone()
            })
            .collect();
        assert_eq!(
            owned.len(),
            41,
            "the insert is appended, the tombstone kept"
        );
        assert_eq!(owned[3].name(), "Renamed On Fold");
        let reference = Dataset::from_objects(prepared.dataset.name.clone(), owned).unwrap();
        // And for the rest, what a snapshot taken in one piece stored for
        // this state: read straight off the city.
        prepared.live.set_last_seq(9);
        let handle = prepared.db.collection(&prepared.collection_name).unwrap();
        let mut w = SNAPSHOT.writer(0);
        w.str(prepared.city.key).unwrap();
        w.str(&prepared.collection_name).unwrap();
        w.len64(handle.read().config().dim);
        w.u32(41);
        w.u64(9);
        w.u32(1);
        w.u32s(&[5]);
        w.end_section();
        handle.read().pack_sections(&mut w);
        pack_dataset(&mut w, &reference, &Overlay::new(41)).unwrap();
        w.end_section();
        let expected = w.finish().seal();

        // A cut is frozen: what is written later is the state at the
        // cut, whatever has been applied since.
        let cut = cut_prepared(&prepared).expect("cut");
        engine
            .apply_mutations(&[Mutation::Delete { id: 6 }])
            .expect("a mutation after the cut");
        prepared.live.set_last_seq(10);

        let dir = std::env::temp_dir().join("semask_persist_fold");
        let _ = std::fs::remove_dir_all(&dir);
        write_snapshot(cut, &dir).expect("write");
        let stored = std::fs::read(dir.join("snap-0")).unwrap();
        assert!(
            stored == expected,
            "the file differs from the state at the cut"
        );
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["CURRENT", "snap-0"], "one file a snapshot");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Where each of a snapshot file's sections starts and ends, read
    /// off its section table.
    fn sections(file: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut start = 16 + 4 + 7 * 8;
        (0..7)
            .map(|i| {
                let at = 20 + i * 8;
                let len = u64::from_le_bytes(file[at..at + 8].try_into().unwrap()) as usize;
                start += len;
                start - len..start
            })
            .collect()
    }

    /// `file` with section `i` replaced by `bytes`, table and checksum
    /// made to match.
    fn with_section(file: &[u8], i: usize, bytes: &[u8]) -> Vec<u8> {
        let range = sections(file)[i].clone();
        let mut out = file[..range.start].to_vec();
        out.extend_from_slice(bytes);
        out.extend_from_slice(&file[range.end..]);
        out[20 + i * 8..28 + i * 8].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
        let crc = vecdb::crc32(&out[16..]);
        out[12..16].copy_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn load_refuses_a_snapshot_with_a_missing_or_mistyped_field() {
        let data = datagen::poi::generate_city(&datagen::CITIES[0], 30, 7);
        let config = SemaSkConfig::default();
        let prepared = prepare_city(&data, &SimLlm::new(), &config).expect("prep");
        let dir = std::env::temp_dir().join("semask_persist_fields");
        let _ = std::fs::remove_dir_all(&dir);
        save_prepared(&prepared, &dir).expect("save");
        let file = std::fs::read(dir.join("snap-0")).unwrap();
        assert!(from_snapshot_bytes(&file, &config).is_ok());

        // A header section alone: the body of a one-section container.
        let one = Format::<1> {
            magic: SNAPSHOT.magic,
            version: SNAPSHOT.version,
        };
        let header = |key: &str, dim: u64, next_id: u32, tombstones: &[u32]| {
            let mut w = one.writer(0);
            w.str(key).unwrap();
            w.str(&prepared.collection_name).unwrap();
            w.u64(dim);
            w.u32(next_id);
            w.u64(0);
            w.u32(tombstones.len() as u32);
            w.u32s(tombstones);
            w.end_section();
            let mut bytes = w.finish().seal();
            bytes.drain(..16 + 4 + 8);
            bytes
        };
        let dim = config.embedder.dim as u64;
        let intact = header(prepared.city.key, dim, 30, &[]);
        assert_eq!(
            intact,
            file[sections(&file)[0].clone()],
            "the header as the module docs lay it out"
        );
        // Every field cut short: the header ends before it.
        for cut in 0..intact.len() {
            match from_snapshot_bytes(&with_section(&file, 0, &intact[..cut]), &config) {
                Err(PersistError::VecDb(_)) => {}
                Err(e) => panic!("header cut at {cut}: {e}"),
                Ok(_) => panic!("header cut at {cut} loaded"),
            }
        }
        // Fields that do not agree with the rest of the file.
        for (what, bad) in [
            (
                "next_id past the dataset",
                header(prepared.city.key, dim, 31, &[]),
            ),
            (
                "next_id short of it",
                header(prepared.city.key, dim, 29, &[]),
            ),
            (
                "a tombstone past next_id",
                header(prepared.city.key, dim, 30, &[30]),
            ),
            (
                "tombstones out of order",
                header(prepared.city.key, dim, 30, &[4, 3]),
            ),
            (
                "a tombstone twice",
                header(prepared.city.key, dim, 30, &[3, 3]),
            ),
        ] {
            assert!(
                matches!(
                    from_snapshot_bytes(&with_section(&file, 0, &bad), &config),
                    Err(PersistError::VecDb(_))
                ),
                "{what}"
            );
        }
        assert!(matches!(
            from_snapshot_bytes(&with_section(&file, 0, &header("ATLANTIS", dim, 30, &[])), &config),
            Err(PersistError::UnknownCity { key }) if key == "ATLANTIS"
        ));
        assert!(matches!(
            from_snapshot_bytes(
                &with_section(&file, 0, &header(prepared.city.key, 7, 30, &[])),
                &config
            ),
            Err(PersistError::DimMismatch { stored: 7, .. })
        ));
        let masked = with_section(&file, 0, &header(prepared.city.key, dim, 30, &[3, 4]));
        let restored = from_snapshot_bytes(&masked, &config).expect("two tombstones");
        assert!(!restored
            .live
            .overlay()
            .is_live(&restored.dataset, ObjectId(4)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_refuses_a_dataset_whose_ids_are_not_dense() {
        let data = datagen::poi::generate_city(&datagen::CITIES[0], 30, 7);
        let config = SemaSkConfig::default();
        let prepared = prepare_city(&data, &SimLlm::new(), &config).expect("prep");
        let dir = std::env::temp_dir().join("semask_persist_dense_ids");
        let _ = std::fs::remove_dir_all(&dir);
        save_prepared(&prepared, &dir).expect("save");
        let path = dir.join("snap-0");
        let intact = std::fs::read(&path).unwrap();

        // Give the first object the second one's id: the section still
        // decodes, behind a checksum that matches.
        let range = sections(&intact)[6].clone();
        let mut section = intact[range].to_vec();
        let first_id = 4 + prepared.dataset.name.len() + 4;
        assert_eq!(section[first_id..first_id + 4], 0u32.to_le_bytes());
        section[first_id..first_id + 4].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, with_section(&intact, 6, &section)).unwrap();
        match load_prepared(&dir, &config) {
            Err(PersistError::Dataset(geotext::GeoTextError::NonDenseIds { expected, found })) => {
                assert_eq!((expected, found), (0, 1));
            }
            Err(e) => panic!("expected non-dense ids, got {e}"),
            Ok(_) => panic!("a dataset with swapped ids loaded"),
        }

        std::fs::write(&path, intact).unwrap();
        assert!(load_prepared(&dir, &config).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_directory_fsync_that_fails_is_an_error() {
        let missing = std::env::temp_dir().join("semask_persist_no_such_dir");
        let _ = std::fs::remove_dir_all(&missing);
        assert!(sync_dir(&missing).is_err());
        assert!(sync_dir(&std::env::temp_dir()).is_ok());
    }

    #[test]
    fn load_cleans_orphaned_staging_dirs_and_stale_snapshots() {
        let data = datagen::poi::generate_city(&datagen::CITIES[0], 30, 7);
        let config = SemaSkConfig::default();
        let llm = SimLlm::new();
        let prepared = prepare_city(&data, &llm, &config).expect("prep");

        let dir = std::env::temp_dir().join("semask_persist_cleanup");
        let _ = std::fs::remove_dir_all(&dir);
        save_prepared(&prepared, &dir).expect("save 0");
        save_prepared(&prepared, &dir).expect("save 1");
        // The second save supersedes and removes the first snapshot.
        assert!(!dir.join("snap-0").exists());
        assert!(dir.join("snap-1").exists());

        // Simulate a crash mid-save: an orphaned staging file and a
        // stranded CURRENT.tmp.
        std::fs::write(dir.join("snap-2.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("CURRENT.tmp"), b"snap-2").unwrap();

        let restored = load_prepared(&dir, &config).expect("load");
        assert_eq!(restored.dataset.len(), prepared.dataset.len());
        assert!(!dir.join("snap-2.tmp").exists(), "orphan staging removed");
        assert!(
            !dir.join("CURRENT.tmp").exists(),
            "stranded pointer removed"
        );
        assert!(dir.join("snap-1").exists(), "committed snapshot kept");
        std::fs::remove_dir_all(&dir).ok();
    }
}
