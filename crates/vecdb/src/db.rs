//! The database: named collections behind locks, with snapshots.
//!
//! # Snapshot format
//!
//! One file per collection, written and read only by this crate. All
//! integers and floats are little-endian; floats are stored as their
//! bits (`f32::to_le_bytes`), and no float is recomputed on load.
//!
//! ```text
//! "VECDBSNP"  version: u32 = 3  crc32: u32   # CRC-32 of every byte after it
//! section count: u32 = 5, then one u64 byte length per section
//! 0 meta      config    dim u64, metric u8 (0 cosine, 1 dot, 2 Euclid), m u64,
//!                       m0 u64, ef_construction u64, seed u64, tier u8 (0 auto,
//!                       1 full, 2 quantized + rerank_factor u64), compress u8
//!             points    n u64, n × u64 ids, n × u8 delete flags,
//!                       quant_trained_at u64
//!             payloads  count u64, count × (lat f64, lon f64) geo column, one
//!                       skeleton object each (tagged values, below), text flag
//!                       u8; if set: pending u64, per payload a slot count u32
//!                       and per slot key + (0 + raw string | 1 + index u32),
//!                       arena flag u8; if set: symbol count u32, each len u8 +
//!                       bytes, codes (len u64 + bytes), offsets (count u64 +
//!                       count × u64), uncompressed bytes u64
//! 1 vectors   len × dim f32, row-major
//! 2 inv_norms len f32
//! 3 quant     empty when the tier is off, else dim u64, len u64, min f32,
//!             scale f32, len × dim u8 codes, len f32 inverse norms
//! 4 hnsw      entry u32 (u32::MAX = none), top_level u32, nodes u32, then per
//!             node: level u32 and, per layer 0..=level, count u32 + count × u32
//! ```
//!
//! A payload value is a tag byte and its contents: 0 null, 1 false,
//! 2 true, 3 i64, 4 u64, 5 f64 (8 bytes each: the integer or the float's
//! bits), 6 string (u32 byte length + UTF-8), 7 array (u32 count +
//! values), 8 object (u32 count + key string and value each, keys
//! strictly ascending); a skeleton is an object's entries without the
//! tag. Numbers keep the kind they were stored as, `-0.0` its sign, and
//! nesting stops at 128 levels on both sides. Strings are `u32`
//! length-prefixed UTF-8 throughout.
//!
//! Sections tile the file exactly and the encoding is canonical: a
//! collection has one byte string, and re-packing a restored collection
//! reproduces the file. Nothing derived is stored: the id → offset
//! index and the live count are rebuilt from the ids and delete flags
//! on load, and a file with one id live at two offsets is refused.
//!
//! There is one version. A layout change bumps it and readers reject
//! every version but their own — no migration, no fallback reader:
//! version 2 packed the meta section, which version 1 wrote as JSON;
//! version 3 dropped the stored id index and live count from it. Both
//! left sections 1–4 byte for byte as they were, and a file of either
//! earlier version is refused with an error that names its version. A
//! file that fails the checksum, or whose parts disagree, is a
//! [`VecDbError::Snapshot`], never a loaded collection.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::codec::corrupt;
use crate::collection::{Collection, CollectionConfig};
use crate::error::VecDbError;

/// A handle to a collection, shared across threads.
pub type CollectionHandle = Arc<RwLock<Collection>>;

/// An embedded vector database: a registry of named collections.
///
/// Thread-safe: collections can be searched concurrently (read locks) and
/// written exclusively (write locks). This mirrors how SemaSK's data-prep
/// pipeline loads a collection once and the query processor then reads it
/// concurrently.
#[derive(Default)]
pub struct VectorDb {
    collections: RwLock<HashMap<String, CollectionHandle>>,
}

impl VectorDb {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a collection.
    ///
    /// # Errors
    /// [`VecDbError::InvalidConfig`] if [`CollectionConfig::validate`]
    /// refuses the configuration (dimension 0, meaningless graph
    /// parameters); [`VecDbError::CollectionExists`] if the name is taken.
    pub fn create_collection(
        &self,
        name: &str,
        config: CollectionConfig,
    ) -> Result<CollectionHandle, VecDbError> {
        config.validate()?;
        let mut map = self.collections.write();
        if map.contains_key(name) {
            return Err(VecDbError::CollectionExists {
                name: name.to_owned(),
            });
        }
        let handle = Arc::new(RwLock::new(Collection::new(config)));
        map.insert(name.to_owned(), Arc::clone(&handle));
        Ok(handle)
    }

    /// Fetches a collection handle.
    pub fn collection(&self, name: &str) -> Result<CollectionHandle, VecDbError> {
        self.collections
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| VecDbError::CollectionNotFound {
                name: name.to_owned(),
            })
    }

    /// Loads a collection snapshot, registering it under `name`. The
    /// file is verified and validated, never trusted (see
    /// [`Collection::from_snapshot_bytes`]).
    ///
    /// # Errors
    /// [`VecDbError::Snapshot`] if the file cannot be read or fails any
    /// check; [`VecDbError::CollectionExists`] if the name is taken.
    pub fn restore_collection(
        &self,
        name: &str,
        path: &Path,
    ) -> Result<CollectionHandle, VecDbError> {
        let bytes = std::fs::read(path).map_err(|e| corrupt(e.to_string()))?;
        self.add_collection(name, Collection::from_snapshot_bytes(&bytes)?)
    }

    /// Registers `collection` — one restored from some other container,
    /// say — under `name`.
    ///
    /// # Errors
    /// [`VecDbError::CollectionExists`] if the name is taken.
    pub fn add_collection(
        &self,
        name: &str,
        collection: Collection,
    ) -> Result<CollectionHandle, VecDbError> {
        let mut map = self.collections.write();
        if map.contains_key(name) {
            return Err(VecDbError::CollectionExists {
                name: name.to_owned(),
            });
        }
        let handle = Arc::new(RwLock::new(collection));
        map.insert(name.to_owned(), Arc::clone(&handle));
        Ok(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::SearchParams;
    use crate::payload::Payload;

    #[test]
    fn create_then_get() {
        let db = VectorDb::new();
        assert!(db.collection("pois").is_err());
        db.create_collection("pois", CollectionConfig::new(4))
            .unwrap();
        assert!(db.collection("pois").is_ok());
        assert!(db
            .create_collection("pois", CollectionConfig::new(4))
            .is_err());
        assert!(db.collection("other").is_err());
    }

    #[test]
    fn concurrent_reads() {
        let db = VectorDb::new();
        let h = db.create_collection("c", CollectionConfig::new(2)).unwrap();
        {
            let mut c = h.write();
            for i in 0..100u64 {
                let a = i as f32 * 0.05;
                c.insert(i, vec![a.cos(), a.sin()], Payload::new()).unwrap();
            }
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = db.collection("c").unwrap();
                std::thread::spawn(move || {
                    let c = h.read();
                    let q = [(t as f32 * 0.7).cos(), (t as f32 * 0.7).sin()];
                    c.search(&q, &SearchParams::top_k(5)).unwrap().len()
                })
            })
            .collect();
        for th in handles {
            assert_eq!(th.join().unwrap(), 5);
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let dir = std::env::temp_dir().join("vecdb_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.bin");

        let db = VectorDb::new();
        let h = db.create_collection("c", CollectionConfig::new(3)).unwrap();
        {
            let mut c = h.write();
            for i in 0..20u64 {
                c.insert(i, vec![i as f32, 0.0, 1.0], Payload::new())
                    .unwrap();
            }
        }
        std::fs::write(&path, h.read().to_snapshot_bytes().unwrap()).unwrap();

        let db2 = VectorDb::new();
        let h2 = db2.restore_collection("c2", &path).unwrap();
        let c2 = h2.read();
        assert_eq!(c2.len(), 20);
        let r = c2
            .search(&[5.0, 0.0, 1.0], &SearchParams::top_k(1).with_exact(true))
            .unwrap();
        assert_eq!(r[0].id, 5);
        std::fs::remove_file(&path).ok();
    }
}
