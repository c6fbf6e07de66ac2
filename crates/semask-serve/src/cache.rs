//! The epoch-stamped semantic result cache: a bounded, lock-striped LRU
//! over full [`QueryOutcome`]s, consulted at admission so repeated query
//! shapes skip the batcher entirely.
//!
//! # Invalidation
//!
//! Every entry is stamped with the engine's **mutation epoch** at the
//! time its outcome was computed ([`BatchExecutor::mutation_epoch`]).
//! A lookup passes the *current* epoch; any mismatch means at least one
//! overlay batch published since the entry was computed, so the entry is
//! dropped on the spot (a *stale eviction*) instead of served. There is
//! no per-entry range/keyword diffing: an epoch bump invalidates every
//! cached answer, which is exact — an overlay publish can change any
//! answer — and makes the never-serve-pre-mutation-post-publish
//! guarantee a one-integer comparison.
//!
//! The insert side holds the matching discipline: writers publish
//! through the engine directly (nothing but queries rides the admission
//! queue), so the serving layer captures the epoch *before* each flush
//! executes, stamps the flush's outcomes with it, and re-checks it at
//! insert time — an outcome whose execution raced a publish is simply
//! not cached (see `Inner::cache_outcomes`).
//!
//! # Shape
//!
//! Lock-striped segments (the storage-engine sharded-LRU idiom): keys
//! hash to one of [`CACHE_SEGMENTS`] independently locked maps, each a
//! `HashMap` with a monotone recency counter; eviction scans its own
//! segment for the least-recently-used entry. Segment scans are O(n) in
//! the segment's entry count, which the per-segment bound keeps small —
//! simpler than an intrusive list and plenty below serving latencies.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use semask::{QueryOutcome, SemaSkQuery};

/// Lock stripes per cache. Eight keeps admission-path contention
/// negligible at serving concurrency without over-allocating.
const CACHE_SEGMENTS: usize = 8;

/// The cache key: the exact query shape. The range is keyed by its
/// coordinate bit patterns, and the query text participates because the
/// outcome depends on its embedding and refinement — two queries share
/// an entry only when the engine would compute bit-identical answers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    range_bits: [u64; 4],
    text: String,
    keywords: Option<String>,
}

impl CacheKey {
    pub(crate) fn of(query: &SemaSkQuery) -> Self {
        Self {
            range_bits: [
                query.range.min_lat.to_bits(),
                query.range.min_lon.to_bits(),
                query.range.max_lat.to_bits(),
                query.range.max_lon.to_bits(),
            ],
            text: query.text.clone(),
            keywords: query.keywords.clone(),
        }
    }
}

struct Entry {
    outcome: QueryOutcome,
    /// Mutation epoch the outcome was computed at.
    epoch: u64,
    /// Segment-local recency stamp (higher = more recent).
    last_used: u64,
}

#[derive(Default)]
struct Segment {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// What a lookup found — the caller (the admission path) translates
/// these into metrics.
pub(crate) enum Lookup {
    /// A current-epoch entry; the outcome is a clone of the cached one.
    Hit(QueryOutcome),
    /// An entry existed but was stamped with an older epoch; it has been
    /// evicted.
    Stale,
    /// Nothing cached for this key.
    Miss,
}

/// The bounded sharded-LRU result cache. See the module docs.
pub(crate) struct ResultCache {
    segments: Box<[Mutex<Segment>]>,
    per_segment_cap: usize,
}

impl ResultCache {
    /// A cache bounded at roughly `entries` outcomes across
    /// [`CACHE_SEGMENTS`] stripes.
    pub(crate) fn new(entries: usize) -> Self {
        Self {
            segments: (0..CACHE_SEGMENTS)
                .map(|_| Mutex::new(Segment::default()))
                .collect(),
            per_segment_cap: entries.div_ceil(CACHE_SEGMENTS).max(1),
        }
    }

    fn segment(&self, key: &CacheKey) -> &Mutex<Segment> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.segments[(h.finish() as usize) % self.segments.len()]
    }

    /// Looks `key` up against the current mutation epoch.
    pub(crate) fn get(&self, key: &CacheKey, current_epoch: u64) -> Lookup {
        let mut seg = self
            .segment(key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        seg.tick += 1;
        let tick = seg.tick;
        match seg.map.get_mut(key) {
            Some(entry) if entry.epoch == current_epoch => {
                entry.last_used = tick;
                Lookup::Hit(entry.outcome.clone())
            }
            Some(_) => {
                seg.map.remove(key);
                Lookup::Stale
            }
            None => Lookup::Miss,
        }
    }

    /// Caches `outcome` stamped with `epoch`, evicting the segment's
    /// least-recently-used entry when full.
    pub(crate) fn insert(&self, key: CacheKey, outcome: QueryOutcome, epoch: u64) {
        let mut seg = self
            .segment(&key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if seg.map.len() >= self.per_segment_cap && !seg.map.contains_key(&key) {
            if let Some(lru) = seg
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                seg.map.remove(&lru);
            }
        }
        seg.tick += 1;
        let last_used = seg.tick;
        seg.map.insert(
            key,
            Entry {
                outcome,
                epoch,
                last_used,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotext::{BoundingBox, GeoPoint};
    use semask::LatencyBreakdown;

    fn query(text: &str) -> SemaSkQuery {
        let range = BoundingBox::from_center_km(GeoPoint::new(34.42, -119.7).unwrap(), 5.0, 5.0);
        SemaSkQuery::new(range, text)
    }

    fn outcome() -> QueryOutcome {
        QueryOutcome {
            pois: Vec::new(),
            latency: LatencyBreakdown::default(),
        }
    }

    #[test]
    fn hit_only_at_matching_epoch() {
        let cache = ResultCache::new(16);
        let key = CacheKey::of(&query("cozy cafe"));
        assert!(matches!(cache.get(&key, 0), Lookup::Miss));
        cache.insert(key.clone(), outcome(), 0);
        assert!(matches!(cache.get(&key, 0), Lookup::Hit(_)));
        // A published mutation bumps the epoch: the entry is stale,
        // evicted on lookup, and a re-lookup is a clean miss.
        assert!(matches!(cache.get(&key, 1), Lookup::Stale));
        assert!(matches!(cache.get(&key, 1), Lookup::Miss));
    }

    #[test]
    fn keys_separate_text_range_and_keywords() {
        let cache = ResultCache::new(16);
        cache.insert(CacheKey::of(&query("cafe")), outcome(), 0);
        assert!(matches!(
            cache.get(&CacheKey::of(&query("sushi")), 0),
            Lookup::Miss
        ));
        let kw = query("cafe").with_keywords("romantic");
        assert!(matches!(cache.get(&CacheKey::of(&kw), 0), Lookup::Miss));
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        // One segment so the LRU scan is observable deterministically.
        let cache = ResultCache {
            segments: vec![Mutex::new(Segment::default())].into_boxed_slice(),
            per_segment_cap: 2,
        };
        let (a, b, c) = (
            CacheKey::of(&query("a")),
            CacheKey::of(&query("b")),
            CacheKey::of(&query("c")),
        );
        cache.insert(a.clone(), outcome(), 0);
        cache.insert(b.clone(), outcome(), 0);
        // Touch `a`, making `b` the LRU victim for the next insert.
        assert!(matches!(cache.get(&a, 0), Lookup::Hit(_)));
        cache.insert(c.clone(), outcome(), 0);
        assert!(matches!(cache.get(&a, 0), Lookup::Hit(_)));
        assert!(matches!(cache.get(&b, 0), Lookup::Miss));
        assert!(matches!(cache.get(&c, 0), Lookup::Hit(_)));
    }
}
