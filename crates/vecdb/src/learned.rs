//! A PGM-style learned index over point ids, replacing the hot-path
//! `HashMap<PointId, usize>` id → offset map.
//!
//! The id space a collection actually sees is far from adversarial:
//! ids arrive from dataset generators and WAL replays as dense,
//! near-monotone integers. A learned index exploits that shape. The
//! base layer keeps `(id, offset)` pairs sorted by id together with a
//! set of piecewise-linear segments built by the classic streaming
//! ε-bounded construction: each segment guarantees that the linear
//! prediction `pos ≈ first_pos + slope · (id − first_id)` lands within
//! `EPSILON` slots of the true position, so a lookup is a binary search
//! over segments (few, cache-resident) plus a binary search inside a
//! `2ε + 1` window — O(log ε) probes in a few cached lines, versus a
//! hash, a probe sequence, and a possible cache miss per `HashMap`
//! lookup. Memory drops from ~21 bytes/entry (SwissTable at 7/8 load
//! with 16-byte KV) to 12 bytes/entry plus a handful of segments.
//!
//! Mutations never touch the base layer in place: inserts land in a
//! small overlay map, deletions in a tombstone set, and when the
//! overlay outgrows a fraction of the base the whole index rebuilds
//! (O(n), amortized over the growth that caused it). Every lookup that
//! the predicted window somehow misses falls back to an exact binary
//! search over the base keys, so answers never depend on the learned
//! model being right — it is an accelerator, not an oracle.

use std::collections::{HashMap, HashSet};

use crate::codec::{corrupt, Reader, Writer};
use crate::error::VecDbError;
use crate::PointId;

/// Maximum slots the linear prediction may be off by. 64 keeps the
/// correction window (two cache lines of keys) cheap while letting
/// segments span thousands of near-linear ids.
const EPSILON: usize = 64;

/// Overlay size that triggers a rebuild, as the denominator of a
/// fraction of the base (base/4), floored at this many entries so tiny
/// indexes don't rebuild on every insert.
const MIN_REBUILD: usize = 1024;

/// One ε-bounded linear segment: predicts positions for keys in
/// `[first_key, next segment's first_key)`.
#[derive(Debug, Clone)]
struct Segment {
    first_key: u64,
    first_pos: u64,
    slope: f64,
}

/// Learned id → offset index with exact-search fallback. Drop-in for
/// the collection's former `HashMap<PointId, usize>`: same observable
/// answers for `get` / `insert` / `remove` / `contains_key`.
#[derive(Debug, Clone)]
pub struct LearnedIdIndex {
    /// Base keys, sorted ascending, deduplicated.
    keys: Vec<u64>,
    /// Offset for each base key (parallel to `keys`).
    vals: Vec<u32>,
    /// ε-bounded segments over `keys` positions.
    segments: Vec<Segment>,
    /// Out-of-order inserts since the last rebuild.
    overlay: HashMap<PointId, u32>,
    /// Base keys deleted since the last rebuild.
    tombstones: HashSet<PointId>,
}

impl Default for LearnedIdIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl LearnedIdIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            vals: Vec::new(),
            segments: Vec::new(),
            overlay: HashMap::new(),
            tombstones: HashSet::new(),
        }
    }

    /// Live entries (base minus tombstones plus overlay).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len() - self.tombstones.len() + self.overlay.len()
    }

    /// Whether no live entry exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the index to a snapshot section, every count a `u64`:
    /// the base (`n`, `n` keys as one `u64` block, `n` offsets as one
    /// `u32` block), the segments (count, then `first_key` `u64`,
    /// `first_pos` `u64` and `slope` as `f64` bits each), the overlay
    /// (count, keys ascending as a `u64` block, their offsets as a `u32`
    /// block) and the tombstones (count, keys ascending as a `u64`
    /// block). The hash maps are written in key order, so an index has
    /// one encoding.
    pub(crate) fn pack(&self, w: &mut Writer) {
        w.len64(self.keys.len());
        w.u64s(&self.keys);
        w.u32s(&self.vals);
        w.len64(self.segments.len());
        for seg in &self.segments {
            w.u64(seg.first_key);
            w.u64(seg.first_pos);
            w.f64(seg.slope);
        }
        let mut overlay: Vec<(u64, u32)> = self.overlay.iter().map(|(&k, &v)| (k, v)).collect();
        overlay.sort_unstable();
        let (keys, vals): (Vec<u64>, Vec<u32>) = overlay.into_iter().unzip();
        w.len64(keys.len());
        w.u64s(&keys);
        w.u32s(&vals);
        let mut tombstones: Vec<u64> = self.tombstones.iter().copied().collect();
        tombstones.sort_unstable();
        w.len64(tombstones.len());
        w.u64s(&tombstones);
    }

    /// Reads back what [`LearnedIdIndex::pack`] wrote. Overlay and
    /// tombstone keys must be strictly ascending (the one order `pack`
    /// writes); the rest of the structure is
    /// [`LearnedIdIndex::is_well_formed`]'s to judge.
    pub(crate) fn unpack(r: &mut Reader<'_>) -> Result<Self, VecDbError> {
        let ascending = |keys: &[u64]| keys.windows(2).all(|w| w[0] < w[1]);
        let n = r.len64()?;
        let keys = r.u64s(n)?;
        let vals = r.u32s(n)?;
        let count = r.len64()?;
        let count = r.count(count, 24)?;
        let segments = (0..count)
            .map(|_| {
                Ok(Segment {
                    first_key: r.u64()?,
                    first_pos: r.u64()?,
                    slope: r.f64()?,
                })
            })
            .collect::<Result<Vec<_>, VecDbError>>()?;
        let count = r.len64()?;
        let overlay_keys = r.u64s(count)?;
        let overlay_vals = r.u32s(count)?;
        let count = r.len64()?;
        let tombstones = r.u64s(count)?;
        if !ascending(&overlay_keys) || !ascending(&tombstones) {
            return Err(corrupt("id index overlay or tombstones out of order"));
        }
        Ok(Self {
            keys,
            vals,
            segments,
            overlay: overlay_keys.into_iter().zip(overlay_vals).collect(),
            tombstones: tombstones.into_iter().collect(),
        })
    }

    /// Whether a deserialized index can be searched and counted without
    /// indexing past anything: base keys strictly ascending with one
    /// offset each, segments in key order, tombstones only on base keys.
    /// (A segment that merely predicts badly costs a fallback search,
    /// never a wrong answer.)
    pub(crate) fn is_well_formed(&self) -> bool {
        self.keys.len() == self.vals.len()
            && self.keys.windows(2).all(|w| w[0] < w[1])
            && self
                .segments
                .windows(2)
                .all(|w| w[0].first_key <= w[1].first_key)
            && self
                .tombstones
                .iter()
                .all(|k| self.keys.binary_search(k).is_ok())
    }

    /// Offset for `key`, or `None`. Overlay and tombstones take
    /// precedence over the learned base layer.
    #[must_use]
    pub fn get(&self, key: PointId) -> Option<usize> {
        if let Some(&v) = self.overlay.get(&key) {
            return Some(v as usize);
        }
        if self.tombstones.contains(&key) {
            return None;
        }
        self.base_get(key).map(|i| self.vals[i] as usize)
    }

    /// Whether `key` has a live entry.
    #[must_use]
    pub fn contains_key(&self, key: PointId) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or replaces `key → offset`.
    ///
    /// Invariant maintained: a live key is represented either by an
    /// un-tombstoned base entry with no overlay entry, or by an overlay
    /// entry with any base copy tombstoned — so
    /// `len = base − tombstones + overlay` counts each key once.
    pub fn insert(&mut self, key: PointId, offset: usize) {
        let offset = u32::try_from(offset).expect("collection offsets fit u32");
        match self.base_get(key) {
            Some(i) if self.vals[i] == offset => {
                // Base already answers correctly; make it canonical.
                self.overlay.remove(&key);
                self.tombstones.remove(&key);
            }
            Some(_) => {
                // Shadow the stale base value.
                self.overlay.insert(key, offset);
                self.tombstones.insert(key);
            }
            None => {
                self.overlay.insert(key, offset);
                self.tombstones.remove(&key);
            }
        }
        self.maybe_rebuild();
    }

    /// Removes `key`, returning its offset if it was present.
    pub fn remove(&mut self, key: PointId) -> Option<usize> {
        if let Some(v) = self.overlay.remove(&key) {
            // The key may *also* exist in the base (overlay shadowed
            // it); tombstone the base copy so it doesn't resurrect.
            if self.base_get(key).is_some() {
                self.tombstones.insert(key);
            }
            return Some(v as usize);
        }
        if self.tombstones.contains(&key) {
            return None;
        }
        if let Some(i) = self.base_get(key) {
            self.tombstones.insert(key);
            return Some(self.vals[i] as usize);
        }
        None
    }

    /// Heap bytes of the index: base arrays, segments, and the overlay
    /// maps at a SwissTable-like 21 bytes/entry estimate.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.keys.len() * (8 + 4)
            + self.segments.len() * std::mem::size_of::<Segment>()
            + (self.overlay.len() + self.tombstones.len()) * 21
    }

    /// Number of linear segments in the base layer (diagnostic).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Exact position of `key` in the base arrays, if present.
    ///
    /// Fast path: locate the segment, predict, correct within
    /// `±EPSILON`. The full binary search fallback keeps correctness
    /// independent of the model: a window miss (impossible if the
    /// construction invariant holds, but cheap to insure against)
    /// degrades to O(log n), never to a wrong answer.
    fn base_get(&self, key: u64) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let seg_idx = self.segments.partition_point(|s| s.first_key <= key);
        if seg_idx == 0 {
            return None; // key precedes every base key
        }
        let seg = &self.segments[seg_idx - 1];
        let predicted = seg.first_pos as f64 + seg.slope * (key - seg.first_key) as f64;
        let predicted = predicted.max(0.0).min((self.keys.len() - 1) as f64) as usize;
        let lo = predicted.saturating_sub(EPSILON);
        let hi = (predicted + EPSILON + 1).min(self.keys.len());
        if self.keys[lo] <= key && key <= self.keys[hi - 1] {
            match self.keys[lo..hi].binary_search(&key) {
                Ok(i) => Some(lo + i),
                Err(_) => None,
            }
        } else {
            // Model miss: exact fallback.
            self.keys.binary_search(&key).ok()
        }
    }

    fn maybe_rebuild(&mut self) {
        let threshold = MIN_REBUILD.max(self.keys.len() / 4);
        if self.overlay.len() + self.tombstones.len() > threshold {
            self.rebuild();
        }
    }

    /// Merges overlay and tombstones into a fresh sorted base and
    /// refits the segments.
    fn rebuild(&mut self) {
        let mut pairs: Vec<(u64, u32)> = Vec::with_capacity(self.len());
        for (i, &k) in self.keys.iter().enumerate() {
            if !self.tombstones.contains(&k) && !self.overlay.contains_key(&k) {
                pairs.push((k, self.vals[i]));
            }
        }
        pairs.extend(self.overlay.iter().map(|(&k, &v)| (k, v)));
        pairs.sort_unstable_by_key(|&(k, _)| k);
        self.keys = pairs.iter().map(|&(k, _)| k).collect();
        self.vals = pairs.iter().map(|&(_, v)| v).collect();
        self.overlay.clear();
        self.tombstones.clear();
        self.segments = Self::fit_segments(&self.keys);
    }

    /// Streaming ε-bounded piecewise-linear fit (the PGM construction):
    /// grow a segment while some slope keeps every covered key's
    /// prediction within `EPSILON` of its true position; the feasible
    /// slope set is an interval that only narrows, so each key is an
    /// O(1) intersection test.
    fn fit_segments(keys: &[u64]) -> Vec<Segment> {
        let mut segments = Vec::new();
        if keys.is_empty() {
            return segments;
        }
        let eps = EPSILON as f64;
        let mut start = 0usize; // segment anchor position
        let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
        for i in start + 1..keys.len() {
            let dx = (keys[i] - keys[start]) as f64; // > 0: keys strictly increase
            let dy = (i - start) as f64;
            let (cand_lo, cand_hi) = ((dy - eps) / dx, (dy + eps) / dx);
            let (new_lo, new_hi) = (lo.max(cand_lo), hi.min(cand_hi));
            if new_lo <= new_hi {
                (lo, hi) = (new_lo, new_hi);
            } else {
                segments.push(Segment {
                    first_key: keys[start],
                    first_pos: start as u64,
                    slope: midpoint(lo, hi),
                });
                start = i;
                (lo, hi) = (0.0, f64::INFINITY);
            }
        }
        segments.push(Segment {
            first_key: keys[start],
            first_pos: start as u64,
            slope: midpoint(lo, hi),
        });
        segments
    }
}

/// Midpoint of a feasible slope interval; a one-key segment has the
/// unconstrained interval `[0, ∞)`, where any slope predicts within ε
/// for the only covered key — use 0.
fn midpoint(lo: f64, hi: f64) -> f64 {
    if hi.is_finite() {
        (lo + hi) / 2.0
    } else {
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_index() {
        let idx = LearnedIdIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.get(0), None);
        assert_eq!(idx.get(u64::MAX), None);
    }

    #[test]
    fn dense_sequential_ids() {
        let mut idx = LearnedIdIndex::new();
        for i in 0..10_000u64 {
            idx.insert(i, i as usize * 3);
        }
        assert_eq!(idx.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(idx.get(i), Some(i as usize * 3), "key {i}");
        }
        assert_eq!(idx.get(10_000), None);
        // Dense ids after rebuild collapse to very few segments.
        assert!(
            idx.segment_count() <= 4,
            "dense ids should need few segments, got {}",
            idx.segment_count()
        );
    }

    #[test]
    fn sparse_and_clustered_ids() {
        let mut idx = LearnedIdIndex::new();
        let keys: Vec<u64> = (0..5_000u64)
            .map(|i| i * 17 + (i % 7) * 1000 + if i > 2500 { 1 << 40 } else { 0 })
            .collect();
        for (off, &k) in keys.iter().enumerate() {
            idx.insert(k, off);
        }
        for (off, &k) in keys.iter().enumerate() {
            assert_eq!(idx.get(k), Some(off));
        }
        assert_eq!(idx.get(3), None);
        assert_eq!(idx.get((1 << 40) + 3), None);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut idx = LearnedIdIndex::new();
        for i in 0..3_000u64 {
            idx.insert(i, i as usize);
        }
        // Delete every third key (some in base, some in overlay).
        for i in (0..3_000u64).step_by(3) {
            assert_eq!(idx.remove(i), Some(i as usize), "remove {i}");
            assert_eq!(idx.remove(i), None, "double remove {i}");
        }
        for i in 0..3_000u64 {
            if i % 3 == 0 {
                assert_eq!(idx.get(i), None);
            } else {
                assert_eq!(idx.get(i), Some(i as usize));
            }
        }
        // Re-insert deleted keys at new offsets.
        for i in (0..3_000u64).step_by(3) {
            idx.insert(i, i as usize + 100_000);
        }
        for i in (0..3_000u64).step_by(3) {
            assert_eq!(idx.get(i), Some(i as usize + 100_000));
        }
        assert_eq!(idx.len(), 3_000);
    }

    #[test]
    fn overwrite_updates_value() {
        let mut idx = LearnedIdIndex::new();
        for i in 0..2_000u64 {
            idx.insert(i, 1);
        }
        for i in 0..2_000u64 {
            idx.insert(i, 2);
        }
        for i in 0..2_000u64 {
            assert_eq!(idx.get(i), Some(2));
        }
        assert_eq!(idx.len(), 2_000);
    }

    #[test]
    fn packed_index_reads_back_and_repacks_to_the_same_bytes() {
        let mut idx = LearnedIdIndex::new();
        for i in 0..2_500u64 {
            idx.insert(i * 5, i as usize);
        }
        // A rebuilt base, then an overlay (one key shadowing a base
        // entry) and tombstones on top of it.
        idx.remove(10);
        idx.insert(25, 9_999);
        idx.insert(1_000_000, 7);
        let pack = |idx: &LearnedIdIndex| {
            let mut w = Writer::with_capacity(0);
            idx.pack(&mut w);
            w.into_body()
        };
        let bytes = pack(&idx);
        let mut r = Reader::over(&bytes);
        let back = LearnedIdIndex::unpack(&mut r).unwrap();
        r.finish().unwrap();
        assert!(back.is_well_formed());
        assert_eq!(back.len(), idx.len());
        for i in 0..2_500u64 {
            assert_eq!(back.get(i * 5), idx.get(i * 5));
        }
        assert_eq!(back.get(1_000_000), Some(7));
        assert_eq!(back.memory_bytes(), idx.memory_bytes());
        assert_eq!(pack(&back), bytes, "hash-map order leaked into the bytes");
    }

    #[test]
    fn memory_beats_hashmap_estimate() {
        let mut idx = LearnedIdIndex::new();
        for i in 0..100_000u64 {
            idx.insert(i, i as usize);
        }
        // Force the overlay flat so the comparison is about the base
        // layout, matching a long-lived collection.
        idx.rebuild();
        let hashmap_estimate = 100_000 * 21; // SwissTable (u64, usize) at 7/8 load
        assert!(
            idx.memory_bytes() < hashmap_estimate * 3 / 4,
            "learned {} vs hashmap {}",
            idx.memory_bytes(),
            hashmap_estimate
        );
    }
}
