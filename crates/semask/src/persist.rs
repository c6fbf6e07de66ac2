//! Persistence of prepared cities.
//!
//! The paper's preparation pipeline is expensive (one LLM call per POI
//! plus embedding generation), so a deployment runs it once and serves
//! queries from the stored artifacts. [`save_prepared`] writes the
//! enriched dataset and the vector collection to a directory;
//! [`load_prepared`] restores a fully query-ready [`PreparedCity`]
//! without touching the LLM or the embedder for the stored POIs.
//!
//! # Atomic, versioned snapshots
//!
//! A snapshot spans several files (manifest, dataset, collection, live
//! state), so "temp file + rename" per file is not enough — a crash
//! between renames could mix files from two snapshot generations. The
//! layout instead versions whole directories with a single commit
//! point, the classic `CURRENT`-pointer idiom:
//!
//! ```text
//! dir/
//!   CURRENT          # the committed snapshot's directory name
//!   snap-3/          # a committed snapshot (all files fsynced)
//!     manifest.json  # city key, collection name, embedder dimension
//!     dataset.json   # the enriched POIs, live overlay folded in
//!     collection.bin # vectors, codes, graph, payloads: packed, checksummed
//!     live.json      # tombstones, id watermark, applied-WAL seq
//!   snap-4.tmp/      # a snapshot being written, or one that crashed mid-write
//!   wal.log          # DurableEngine's active log: records after the last cut
//!   wal.prev         # the log rotated out at that cut, until snap-4 commits
//! ```
//!
//! A snapshot is taken in two steps. [`cut_prepared`] freezes the state
//! at one log sequence number — the collection packed into memory under
//! its read lock but not yet checksummed, the dataset and the published
//! overlay pinned by `Arc` — and needs the city to hold still only for
//! that long. [`write_snapshot`] does the rest on whichever thread has
//! the cut: it seals `collection.bin` (section table and CRC-32), encodes
//! the JSON files, stages everything in `snap-<k>.tmp/` with per-file
//! fsync, renames the
//! directory to `snap-<k>/`, then atomically rewrites `CURRENT` (temp
//! file + fsync + rename). [`save_prepared`] is the two in a row. A
//! crash at any point leaves either the old `CURRENT` (pointing at the
//! intact previous snapshot) or the new one (pointing at the fully
//! written new snapshot) — never a mix. [`load_prepared`] follows
//! `CURRENT` — without one there is no snapshot to load — and removes
//! orphaned `*.tmp` staging directories and superseded snapshots; a
//! field it needs that is absent or of the wrong type is an error
//! naming the file and the field, never a default. The two log files
//! are [`crate::durable`]'s; nothing here reads or removes them.
//!
//! `collection.bin` is `vecdb`'s own packed format (format in
//! [`vecdb::db`]): raw little-endian sections behind a CRC-32, its meta
//! section — ids, delete flags, payloads — as binary as the
//! vectors, so the cut is a few copies and no text encoding at all. A
//! damaged `collection.bin` is detected — checksum, declared lengths,
//! then agreement between the parts — and surfaces as
//! [`PersistError::VecDb`]; it is never parsed into a collection that
//! fails later. The three other files are still JSON, encoded on the
//! snapshot thread: `manifest.json` and `live.json` are a few lines, and
//! `dataset.json` (5.6 MB at 4,000 POIs, tens of milliseconds to encode
//! and about half of a load) is the largest thing left to pack.
//!
//! # Live state
//!
//! The snapshot *folds* the live mutation overlay into `dataset.json`:
//! updated objects replace their base versions and inserted objects are
//! appended, so the reloaded grid/IR-tree/corpus indexes are built over
//! the post-mutation world and the side buffers start empty. Tombstoned
//! objects are **kept** in the dataset (ids must stay dense for the
//! index builders) and re-masked on load from `live.json`'s tombstone
//! list: the restored collection already soft-deletes them, and the
//! corpus index drops their postings so keyword statistics stay honest.

use std::fmt;
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use datagen::ReverseGeocoder;
use embed::SemanticEmbedder;
use geotext::{Dataset, GeoTextObject, ObjectId};
use serde::{Content, Serialize};
use vecdb::{UnsealedSnapshot, VectorDb};

use crate::config::SemaSkConfig;
use crate::live::{LiveState, Overlay};
use crate::prep::PreparedCity;
use crate::wal::crash_point;

/// The pointer file naming the committed snapshot directory.
const CURRENT_FILE: &str = "CURRENT";
/// Snapshot directories are `snap-<k>`; staging directories `snap-<k>.tmp`.
const SNAP_PREFIX: &str = "snap-";
/// The files of one snapshot directory.
const MANIFEST_FILE: &str = "manifest.json";
const DATASET_FILE: &str = "dataset.json";
const COLLECTION_FILE: &str = "collection.bin";
const LIVE_FILE: &str = "live.json";

/// Errors from saving/loading prepared cities.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(String),
    /// The manifest referenced an unknown city key.
    UnknownCity {
        /// The offending key.
        key: String,
    },
    /// The vector collection failed to store or restore.
    VecDb(vecdb::VecDbError),
    /// The directory has no committed snapshot (`CURRENT` is missing or
    /// empty).
    NoSnapshot,
    /// `dataset.json` parsed, but its object ids are not dense and in
    /// order, so an id would look up another object.
    Dataset(geotext::GeoTextError),
    /// The snapshot was prepared with another embedding dimension than
    /// the config it is being opened under, so query embeddings could
    /// not be compared with the stored vectors.
    DimMismatch {
        /// `embedder_dim` recorded in the snapshot's manifest.
        stored: usize,
        /// `embedder.dim` of the supplied config.
        configured: usize,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io: {e}"),
            PersistError::Json(e) => write!(f, "json: {e}"),
            PersistError::UnknownCity { key } => write!(f, "unknown city key `{key}`"),
            PersistError::VecDb(e) => write!(f, "vecdb: {e}"),
            PersistError::NoSnapshot => write!(f, "no committed snapshot (CURRENT missing)"),
            PersistError::Dataset(e) => write!(f, "{DATASET_FILE}: {e}"),
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

impl From<vecdb::VecDbError> for PersistError {
    fn from(e: vecdb::VecDbError) -> Self {
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
/// Best-effort: not every platform supports opening directories.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
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
/// snapshot is known, superseded `snap-*` directories.
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

/// The dataset as stored: the live overlay folded over the base, by
/// reference. Updates replace their base objects, inserts are appended
/// in id order, and tombstoned objects are kept (dense ids) for
/// `live.json` to re-mask on load. Serializes exactly as the
/// [`Dataset`] holding the same objects would.
struct FoldedDataset<'a> {
    name: &'a str,
    objects: Vec<&'a GeoTextObject>,
}

impl<'a> FoldedDataset<'a> {
    fn new(base: &'a Dataset, overlay: &'a Overlay) -> Self {
        let objects = (0..overlay.next_id())
            .map(|id| {
                overlay
                    .get_raw(base, ObjectId(id))
                    .expect("dense ids: every id below the watermark resolves")
            })
            .collect();
        Self {
            name: &base.name,
            objects,
        }
    }
}

impl Serialize for FoldedDataset<'_> {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("name".to_owned(), self.name.to_content()),
            ("objects".to_owned(), self.objects.to_content()),
        ])
    }
}

/// A prepared city frozen at one log sequence number — what
/// [`cut_prepared`] takes and [`write_snapshot`] stores. It owns or
/// pins everything it names (the collection as packed sections, the
/// dataset and the overlay by `Arc`), so writing it needs no lock and no
/// further look at the city, which may go on changing.
pub struct SnapshotCut {
    city_key: &'static str,
    collection_name: String,
    embedder_dim: usize,
    dataset: Arc<Dataset>,
    overlay: Arc<Overlay>,
    /// `collection.bin`, packed but not yet sealed: its checksum pass
    /// belongs to the thread that writes the file.
    collection: UnsealedSnapshot,
    last_seq: u64,
}

/// Freezes `prepared` for a snapshot: packs the collection under its
/// read lock (no checksum — [`write_snapshot`] seals it), pins the
/// published overlay and the base dataset, and reads the applied-WAL
/// watermark. The three agree only if no mutation is applied meanwhile
/// — [`crate::durable::DurableEngine`] cuts under its log mutex, which
/// excludes writers; queries may run throughout.
///
/// # Errors
/// [`PersistError::VecDb`] if the collection is missing or fails to pack.
pub fn cut_prepared(prepared: &PreparedCity) -> Result<SnapshotCut, PersistError> {
    let handle = prepared.db.collection(&prepared.collection_name)?;
    let (embedder_dim, collection) = {
        let collection = handle.read();
        (collection.config().dim, collection.pack_snapshot()?)
    };
    Ok(SnapshotCut {
        city_key: prepared.city.key,
        collection_name: prepared.collection_name.clone(),
        embedder_dim,
        dataset: Arc::clone(&prepared.dataset),
        overlay: prepared.live.overlay(),
        collection,
        last_seq: prepared.live.last_seq(),
    })
}

/// Writes `cut` into `dir` as a new versioned snapshot and commits it by
/// atomically rewriting the `CURRENT` pointer. The live mutation overlay
/// is folded into the stored dataset (see the module docs), so a
/// subsequent [`load_prepared`] starts from the world as of the cut with
/// empty side buffers. The collection's checksum is computed here, on
/// the writing thread.
///
/// # Errors
/// Whichever file failed to encode or write; `CURRENT` then still names
/// the previous snapshot.
pub fn write_snapshot(cut: SnapshotCut, dir: &Path) -> Result<(), PersistError> {
    fs::create_dir_all(dir)?;
    let snap_name = format!("{SNAP_PREFIX}{}", next_snapshot_index(dir));
    let tmp = dir.join(format!("{snap_name}.tmp"));
    let _ = fs::remove_dir_all(&tmp);
    fs::create_dir_all(&tmp)?;

    let manifest = serde_json::json!({
        "city_key": cut.city_key,
        "collection_name": cut.collection_name,
        "embedder_dim": cut.embedder_dim,
    });
    write_synced(
        &tmp.join(MANIFEST_FILE),
        serde_json::to_string_pretty(&manifest)
            .map_err(|e| PersistError::Json(e.to_string()))?
            .as_bytes(),
    )?;

    let dataset_json = serde_json::to_string(&FoldedDataset::new(&cut.dataset, &cut.overlay))
        .map_err(|e| PersistError::Json(e.to_string()))?;
    write_synced(&tmp.join(DATASET_FILE), dataset_json.as_bytes())?;

    crash_point("ckpt-mid-snapshot");

    write_synced(&tmp.join(COLLECTION_FILE), &cut.collection.seal())?;

    let mut tombstones: Vec<u32> = cut.overlay.tombstones().iter().copied().collect();
    tombstones.sort_unstable();
    let live = serde_json::json!({
        "tombstones": tombstones,
        "next_id": cut.overlay.next_id(),
        "last_applied_seq": cut.last_seq,
    });
    write_synced(
        &tmp.join(LIVE_FILE),
        serde_json::to_string_pretty(&live)
            .map_err(|e| PersistError::Json(e.to_string()))?
            .as_bytes(),
    )?;
    sync_dir(&tmp);

    let snap_dir = dir.join(&snap_name);
    let _ = fs::remove_dir_all(&snap_dir);
    fs::rename(&tmp, &snap_dir)?;
    sync_dir(dir);

    // The single commit point: CURRENT flips to the new snapshot.
    let current_tmp = dir.join("CURRENT.tmp");
    write_synced(&current_tmp, snap_name.as_bytes())?;
    fs::rename(&current_tmp, dir.join(CURRENT_FILE))?;
    sync_dir(dir);

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

/// Parses one of a snapshot's small JSON files.
fn read_json(snap_dir: &Path, file: &str) -> Result<serde_json::Value, PersistError> {
    serde_json::from_str(&fs::read_to_string(snap_dir.join(file))?)
        .map_err(|e| PersistError::Json(format!("{file}: {e}")))
}

/// Reads field `name` of `file`'s object through `read`. A field that is
/// absent or of another type is an error naming both: a guessed
/// `last_applied_seq` would replay folded log records a second time, a
/// guessed `next_id` would hand out ids already taken.
fn field<'a, T>(
    file: &str,
    object: &'a serde_json::Value,
    name: &str,
    read: impl FnOnce(&'a serde_json::Value) -> Option<T>,
) -> Result<T, PersistError> {
    read(&object[name])
        .ok_or_else(|| PersistError::Json(format!("{file}: `{name}` is missing or mistyped")))
}

fn as_id(v: &serde_json::Value) -> Option<u32> {
    u32::try_from(v.as_u64()?).ok()
}

/// Restores a prepared city saved by [`save_prepared`]. The embedder is
/// reconstructed from `config` (it is a pure function, so query-time
/// embeddings still match the stored POI vectors as long as the same
/// embedder configuration is supplied).
///
/// Follows the `CURRENT` pointer to the committed snapshot and cleans
/// up orphaned `*.tmp` staging directories left by a crashed
/// [`save_prepared`].
///
/// # Errors
/// [`PersistError::NoSnapshot`] when `dir` has no committed snapshot;
/// [`PersistError::DimMismatch`] when the snapshot was prepared at
/// another embedding dimension than `config.embedder.dim`;
/// [`PersistError::Json`] naming the file and the field when
/// `manifest.json` or `live.json` lacks one or holds another type;
/// [`PersistError::Dataset`] when `dataset.json`'s ids are not dense and
/// in order;
/// otherwise whichever file failed to read, parse or validate.
pub fn load_prepared(dir: &Path, config: &SemaSkConfig) -> Result<PreparedCity, PersistError> {
    let current = fs::read_to_string(dir.join(CURRENT_FILE))
        .ok()
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .ok_or(PersistError::NoSnapshot)?;
    let base_dir = dir.join(&current);
    cleanup_stale(dir, Some(&current));

    let manifest = read_json(&base_dir, MANIFEST_FILE)?;
    let stored = field(MANIFEST_FILE, &manifest, "embedder_dim", |v| {
        usize::try_from(v.as_u64()?).ok()
    })?;
    if stored != config.embedder.dim {
        return Err(PersistError::DimMismatch {
            stored,
            configured: config.embedder.dim,
        });
    }
    let key = field(MANIFEST_FILE, &manifest, "city_key", |v| v.as_str())?;
    let city = datagen::City::by_key(key).ok_or_else(|| PersistError::UnknownCity {
        key: key.to_owned(),
    })?;
    let collection_name =
        field(MANIFEST_FILE, &manifest, "collection_name", |v| v.as_str())?.to_owned();

    let dataset: Dataset = serde_json::from_str(&fs::read_to_string(base_dir.join(DATASET_FILE))?)
        .map_err(|e| PersistError::Json(e.to_string()))?;
    dataset.check_dense_ids().map_err(PersistError::Dataset)?;
    let dataset = std::sync::Arc::new(dataset);

    let db = VectorDb::new();
    let handle = db.restore_collection(&collection_name, &base_dir.join(COLLECTION_FILE))?;
    // The planner's indexes (grid, IR-tree) are pure functions of the
    // dataset, so they are rebuilt rather than stored.
    let planner = crate::retrieval::QueryPlanner::for_city(
        std::sync::Arc::clone(&dataset),
        handle,
        config.planner,
    );

    let live = read_json(&base_dir, LIVE_FILE)?;
    let tombstones: Vec<u32> = field(LIVE_FILE, &live, "tombstones", |v| {
        v.as_array()?.iter().map(as_id).collect()
    })?;
    let next_id = field(LIVE_FILE, &live, "next_id", as_id)?;
    let last_seq = field(LIVE_FILE, &live, "last_applied_seq", |v| v.as_u64())?;
    // Re-mask tombstoned objects in the corpus index: the restored
    // collection already soft-deletes them (every spatial path masks
    // through it), but keyword df/match statistics must drop their
    // postings too.
    for &t in &tombstones {
        if let Some(obj) = dataset.get(ObjectId(t)) {
            planner.live_delete(obj.id, &obj.to_document());
        }
    }
    let live = LiveState::with_overlay(Overlay::restore(next_id, tombstones), last_seq);

    Ok(PreparedCity {
        city,
        dataset,
        db,
        collection_name,
        embedder: SemanticEmbedder::new(config.embedder.clone()),
        geocoder: ReverseGeocoder::for_city(&city),
        planner,
        live,
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
        // Two separately built planners: given coefficients, so answers
        // can be compared across them.
        let config = SemaSkConfig::with_fixed_costs();
        let llm = Arc::new(SimLlm::new());
        let prepared =
            crate::prep::prepare_city_with_threads(&data, &llm, &config, 2).expect("prep");

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

        // The reference for `dataset.json`: the fold as owned clones in
        // a real `Dataset`.
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
        // And for the other three files, what a snapshot taken in one
        // piece stored for this state: read straight off the city.
        let handle = prepared.db.collection(&prepared.collection_name).unwrap();
        let manifest = serde_json::json!({
            "city_key": prepared.city.key,
            "collection_name": prepared.collection_name,
            "embedder_dim": handle.read().config().dim,
        });
        let live = serde_json::json!({
            "tombstones": [5],
            "next_id": 41,
            "last_applied_seq": 9,
        });
        prepared.live.set_last_seq(9);
        let expected = [
            (
                MANIFEST_FILE,
                serde_json::to_string_pretty(&manifest)
                    .unwrap()
                    .into_bytes(),
            ),
            (
                DATASET_FILE,
                serde_json::to_string(&reference).unwrap().into_bytes(),
            ),
            (COLLECTION_FILE, handle.read().to_snapshot_bytes().unwrap()),
            (
                LIVE_FILE,
                serde_json::to_string_pretty(&live).unwrap().into_bytes(),
            ),
        ];

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
        for (file, bytes) in &expected {
            let stored = std::fs::read(dir.join("snap-0").join(file)).unwrap();
            assert!(stored == *bytes, "{file} differs from the state at the cut");
        }
        assert_eq!(std::fs::read_dir(dir.join("snap-0")).unwrap().count(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_refuses_a_snapshot_with_a_missing_or_mistyped_field() {
        let data = datagen::poi::generate_city(&datagen::CITIES[0], 30, 7);
        let config = SemaSkConfig::default();
        let prepared = prepare_city(&data, &SimLlm::new(), &config).expect("prep");
        let dir = std::env::temp_dir().join("semask_persist_fields");
        let _ = std::fs::remove_dir_all(&dir);
        save_prepared(&prepared, &dir).expect("save");
        assert!(load_prepared(&dir, &config).is_ok());

        let mistyped = |v: &serde_json::Value| match v {
            serde_json::Value::String(_) => serde_json::json!(7),
            _ => serde_json::json!("seven"),
        };
        for (file, name) in [
            (MANIFEST_FILE, "city_key"),
            (MANIFEST_FILE, "collection_name"),
            (MANIFEST_FILE, "embedder_dim"),
            (LIVE_FILE, "tombstones"),
            (LIVE_FILE, "next_id"),
            (LIVE_FILE, "last_applied_seq"),
        ] {
            let path = dir.join("snap-0").join(file);
            let intact = std::fs::read_to_string(&path).unwrap();
            let serde_json::Value::Object(fields) = serde_json::from_str(&intact).unwrap() else {
                panic!("{file} holds an object");
            };
            let mut removed = fields.clone();
            removed.remove(name).expect("the field is written");
            let mut retyped = fields.clone();
            retyped.insert(name.to_owned(), mistyped(fields.get(name).unwrap()));
            for damaged in [removed, retyped] {
                let text = serde_json::to_string(&serde_json::Value::Object(damaged)).unwrap();
                std::fs::write(&path, text).unwrap();
                match load_prepared(&dir, &config) {
                    Err(PersistError::Json(e)) => {
                        assert!(e.contains(file) && e.contains(name), "{e}");
                    }
                    Err(e) => panic!("{file} without a usable `{name}`: {e}"),
                    Ok(_) => panic!("{file} without a usable `{name}` loaded"),
                }
            }
            std::fs::write(&path, intact).unwrap();
        }
        // One non-numeric tombstone is an error too, not a dropped one.
        let path = dir.join("snap-0").join(LIVE_FILE);
        let intact = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, intact.replace("[]", "[3, \"4\"]")).unwrap();
        assert!(matches!(
            load_prepared(&dir, &config),
            Err(PersistError::Json(_))
        ));
        std::fs::write(&path, intact).unwrap();
        assert!(load_prepared(&dir, &config).is_ok());
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
        assert!(load_prepared(&dir, &config).is_ok());

        // Swap the ids of the first two objects: the file still parses.
        let path = dir.join("snap-0").join(DATASET_FILE);
        let intact = std::fs::read_to_string(&path).unwrap();
        let mut objects = prepared.dataset.objects().to_vec();
        (objects[0].id, objects[1].id) = (objects[1].id, objects[0].id);
        let swapped = serde_json::json!({
            "name": prepared.dataset.name,
            "objects": objects,
        });
        std::fs::write(&path, serde_json::to_string(&swapped).unwrap()).unwrap();
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

        // Simulate a crash mid-save: an orphaned staging dir and a
        // stranded CURRENT.tmp.
        std::fs::create_dir_all(dir.join("snap-2.tmp")).unwrap();
        std::fs::write(dir.join("snap-2.tmp/dataset.json"), b"partial").unwrap();
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
