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
//!   snap-4.tmp/      # a snapshot that crashed mid-write (garbage)
//! ```
//!
//! [`save_prepared`] stages everything in `snap-<k>.tmp/` with per-file
//! fsync, renames the directory to `snap-<k>/`, then atomically rewrites
//! `CURRENT` (temp file + fsync + rename). A crash at any point leaves
//! either the old `CURRENT` (pointing at the intact previous snapshot)
//! or the new one (pointing at the fully written new snapshot) — never
//! a mix. [`load_prepared`] follows `CURRENT` — without one there is no
//! snapshot to load — and removes orphaned `*.tmp` staging directories
//! and superseded snapshots.
//!
//! The three JSON files are small or read once; `collection.bin` is
//! where the bytes are (a million floats and codes at 4,000 POIs), so
//! `vecdb` writes it itself as raw little-endian sections behind a
//! CRC-32 (format in [`vecdb::db`]). A damaged `collection.bin` is
//! detected — checksum, declared lengths, then agreement between the
//! parts — and surfaces as [`PersistError::VecDb`]; it is never parsed
//! into a collection that fails later.
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

use datagen::ReverseGeocoder;
use embed::SemanticEmbedder;
use geotext::{Dataset, GeoTextObject, ObjectId};
use serde::{Content, Serialize};
use vecdb::VectorDb;

use crate::config::SemaSkConfig;
use crate::live::{LiveState, Overlay};
use crate::prep::PreparedCity;
use crate::wal::crash_point;

/// The pointer file naming the committed snapshot directory.
const CURRENT_FILE: &str = "CURRENT";
/// Snapshot directories are `snap-<k>`; staging directories `snap-<k>.tmp`.
const SNAP_PREFIX: &str = "snap-";
/// The packed collection snapshot inside a snapshot directory.
const COLLECTION_FILE: &str = "collection.bin";

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

/// Writes a prepared city into `dir` as a new versioned snapshot and
/// commits it by atomically rewriting the `CURRENT` pointer. The live
/// mutation overlay is folded into the stored dataset (see the module
/// docs), so a subsequent [`load_prepared`] starts from the
/// post-mutation world with empty side buffers.
pub fn save_prepared(prepared: &PreparedCity, dir: &Path) -> Result<(), PersistError> {
    fs::create_dir_all(dir)?;
    let snap_name = format!("{SNAP_PREFIX}{}", next_snapshot_index(dir));
    let tmp = dir.join(format!("{snap_name}.tmp"));
    let _ = fs::remove_dir_all(&tmp);
    fs::create_dir_all(&tmp)?;

    let manifest = serde_json::json!({
        "city_key": prepared.city.key,
        "collection_name": prepared.collection_name,
        "embedder_dim": vecdb_dim(prepared)?,
    });
    write_synced(
        &tmp.join("manifest.json"),
        serde_json::to_string_pretty(&manifest)
            .map_err(|e| PersistError::Json(e.to_string()))?
            .as_bytes(),
    )?;

    let overlay = prepared.live.overlay();
    let dataset_json = serde_json::to_string(&FoldedDataset::new(&prepared.dataset, &overlay))
        .map_err(|e| PersistError::Json(e.to_string()))?;
    write_synced(&tmp.join("dataset.json"), dataset_json.as_bytes())?;

    crash_point("ckpt-mid-snapshot");

    prepared
        .db
        .snapshot_collection(&prepared.collection_name, &tmp.join(COLLECTION_FILE))?;

    let mut tombstones: Vec<u32> = overlay.tombstones().iter().copied().collect();
    tombstones.sort_unstable();
    let live = serde_json::json!({
        "tombstones": tombstones,
        "next_id": overlay.next_id(),
        "last_applied_seq": prepared.live.last_seq(),
    });
    write_synced(
        &tmp.join("live.json"),
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

fn vecdb_dim(prepared: &PreparedCity) -> Result<usize, PersistError> {
    let handle = prepared.db.collection(&prepared.collection_name)?;
    let dim = handle.read().config().dim;
    Ok(dim)
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
/// another embedding dimension than `config.embedder.dim`; otherwise
/// whichever file failed to read, parse or validate.
pub fn load_prepared(dir: &Path, config: &SemaSkConfig) -> Result<PreparedCity, PersistError> {
    let current = fs::read_to_string(dir.join(CURRENT_FILE))
        .ok()
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .ok_or(PersistError::NoSnapshot)?;
    let base_dir = dir.join(&current);
    cleanup_stale(dir, Some(&current));

    let manifest: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(base_dir.join("manifest.json"))?)
            .map_err(|e| PersistError::Json(e.to_string()))?;
    let stored = manifest["embedder_dim"].as_u64().unwrap_or(0) as usize;
    if stored != config.embedder.dim {
        return Err(PersistError::DimMismatch {
            stored,
            configured: config.embedder.dim,
        });
    }
    let key = manifest["city_key"].as_str().unwrap_or_default();
    let city = datagen::City::by_key(key).ok_or_else(|| PersistError::UnknownCity {
        key: key.to_owned(),
    })?;
    let collection_name = manifest["collection_name"]
        .as_str()
        .unwrap_or("pois")
        .to_owned();

    let dataset: Dataset =
        serde_json::from_str(&fs::read_to_string(base_dir.join("dataset.json"))?)
            .map_err(|e| PersistError::Json(e.to_string()))?;
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

    let live: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(base_dir.join("live.json"))?)
            .map_err(|e| PersistError::Json(e.to_string()))?;
    let tombstones: Vec<u32> = live["tombstones"]
        .as_array()
        .map(|a| {
            a.iter()
                .filter_map(|t| t.as_u64().map(|t| t as u32))
                .collect()
        })
        .unwrap_or_default();
    let next_id = live["next_id"].as_u64().unwrap_or(dataset.len() as u64) as u32;
    let last_seq = live["last_applied_seq"].as_u64().unwrap_or(0);
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

        // The reference: the fold as owned clones in a real `Dataset`.
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
        let expected = serde_json::to_string(&reference).unwrap();

        let dir = std::env::temp_dir().join("semask_persist_fold");
        let _ = std::fs::remove_dir_all(&dir);
        save_prepared(&prepared, &dir).expect("save");
        let stored = std::fs::read_to_string(dir.join("snap-0/dataset.json")).unwrap();
        assert_eq!(stored, expected);
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
