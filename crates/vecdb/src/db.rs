//! The registry: named collections behind locks. A collection is
//! stored only as the sections [`Collection::pack_sections`] writes,
//! inside another crate's container.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::collection::Collection;
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

    /// Registers `collection` — a new one, or one restored from some
    /// other container — under `name`.
    ///
    /// # Errors
    /// [`VecDbError::InvalidConfig`] if `crate::CollectionConfig::validate`
    /// refuses the collection's configuration (dimension 0, meaningless
    /// graph parameters); [`VecDbError::CollectionExists`] if the name is
    /// taken.
    pub fn add_collection(
        &self,
        name: &str,
        collection: Collection,
    ) -> Result<CollectionHandle, VecDbError> {
        collection.config().validate()?;
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
    use crate::codec::Format;
    use crate::collection::{CollectionConfig, SearchParams, SearchStrategy};

    fn empty(dim: usize) -> Collection {
        Collection::new(CollectionConfig::new(dim))
    }

    #[test]
    fn create_then_get() {
        let db = VectorDb::new();
        assert!(db.collection("pois").is_err());
        db.add_collection("pois", empty(4)).unwrap();
        assert!(db.collection("pois").is_ok());
        assert!(matches!(
            db.add_collection("pois", empty(4)),
            Err(VecDbError::CollectionExists { .. })
        ));
        assert!(matches!(
            db.add_collection("zero", empty(0)),
            Err(VecDbError::InvalidConfig { .. })
        ));
        assert!(db.collection("zero").is_err());
        assert!(db.collection("other").is_err());
    }

    #[test]
    fn concurrent_reads() {
        let db = VectorDb::new();
        let h = db.add_collection("c", empty(2)).unwrap();
        {
            let mut c = h.write();
            for i in 0..100u64 {
                let a = i as f32 * 0.05;
                c.insert(i, vec![a.cos(), a.sin()], (0.0, 0.0)).unwrap();
            }
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = db.collection("c").unwrap();
                std::thread::spawn(move || {
                    let c = h.read();
                    let q = [(t as f32 * 0.7).cos(), (t as f32 * 0.7).sin()];
                    let params = SearchParams::top_k(5).with_strategy(SearchStrategy::Hnsw);
                    c.search(&q, &params).unwrap().len()
                })
            })
            .collect();
        for th in handles {
            assert_eq!(th.join().unwrap(), 5);
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        // A container of the test's own, holding the collection's five
        // sections as another crate's snapshot file does.
        const FILE: Format<5> = Format {
            magic: *b"DBTESTSN",
            version: 1,
        };
        let db = VectorDb::new();
        let h = db.add_collection("c", empty(3)).unwrap();
        {
            let mut c = h.write();
            for i in 0..20u64 {
                c.insert(i, vec![i as f32, 0.0, 1.0], (0.0, 0.0)).unwrap();
            }
        }
        let mut w = FILE.writer(0);
        h.read().pack_sections(&mut w);
        let file = w.finish().seal();

        let restored = Collection::from_sections(FILE.open(&file).unwrap()).unwrap();
        let db2 = VectorDb::new();
        let h2 = db2.add_collection("c2", restored).unwrap();
        let c2 = h2.read();
        assert_eq!(c2.len(), 20);
        let r = c2
            .search(&[5.0, 0.0, 1.0], &SearchParams::top_k(1))
            .unwrap();
        assert_eq!(r[0].id, 5);
    }
}
