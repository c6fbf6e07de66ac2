//! Hierarchical Navigable Small World graphs (Malkov & Yashunin, TPAMI
//! 2020) — the approximate nearest-neighbour algorithm behind Qdrant's
//! (and therefore SemaSK's) filtering step.
//!
//! The index stores only graph links; vectors live in the owning
//! [`crate::Collection`] and are passed into each call, keeping the two
//! halves independently testable.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::codec::{corrupt, Reader, Writer};
use crate::distance::{inv_norm, Distance};
use crate::error::VecDbError;
use concepts_free_hash::{mix, unit_float};

/// Tiny local copy of the deterministic hash helpers (kept dependency-free
/// on purpose: `vecdb` must not depend on the semantics crates).
mod concepts_free_hash {
    pub fn mix(values: &[u64]) -> u64 {
        let mut h = 0x9e37_79b9_7f4a_7c15u64;
        for &v in values {
            h ^= v;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h = h.rotate_left(31);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }
    pub fn unit_float(h: u64) -> f64 {
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// HNSW build/search parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HnswConfig {
    /// Max links per node on layers ≥ 1.
    pub m: usize,
    /// Max links per node on layer 0 (usually `2 * m`).
    pub m0: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Seed for the (deterministic) level generator.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            m0: 32,
            ef_construction: 128,
            seed: 0x5eed,
        }
    }
}

#[derive(Debug, Clone)]
struct NodeLinks {
    /// Highest layer this node appears on.
    level: usize,
    /// `neighbors[l]` = adjacent node offsets on layer `l` (0 ≤ l ≤ level).
    neighbors: Vec<Vec<u32>>,
}

/// On-disk `entry` of an empty graph (node offsets are `u32`, and a
/// graph never holds `u32::MAX` nodes).
const NO_ENTRY: u32 = u32::MAX;

/// Candidate ordered by distance (min-heap via reversed compare).
#[derive(PartialEq)]
struct Near(f32, usize);
impl Eq for Near {}
impl PartialOrd for Near {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Near {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal)
    }
}

/// Result ordered by distance (max-heap, natural compare).
#[derive(PartialEq)]
struct Far(f32, usize);
impl Eq for Far {}
impl PartialOrd for Far {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Far {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

/// An HNSW graph over externally-stored vectors.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    config: HnswConfig,
    distance: Distance,
    nodes: Vec<NodeLinks>,
    entry: Option<usize>,
    top_level: usize,
}

impl HnswIndex {
    /// An empty index.
    #[must_use]
    pub fn new(distance: Distance, config: HnswConfig) -> Self {
        Self {
            config,
            distance,
            nodes: Vec::new(),
            entry: None,
            top_level: 0,
        }
    }

    /// Number of indexed nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// Appends the graph to a snapshot section: `entry` (`u32::MAX` for
    /// an empty graph), `top_level`, the node count, then per node its
    /// `level` and, for each layer `0..=level`, a neighbour count and
    /// that many node offsets — all `u32` little-endian. Parameters and
    /// metric are not stored: they are the owning collection's.
    pub(crate) fn pack(&self, w: &mut Writer) {
        w.u32(self.entry.map_or(NO_ENTRY, |e| e as u32));
        w.u32(self.top_level as u32);
        w.u32(self.nodes.len() as u32);
        for node in &self.nodes {
            w.u32(node.level as u32);
            for layer in &node.neighbors {
                w.u32(layer.len() as u32);
                w.u32s(layer);
            }
        }
    }

    /// Reads back what [`HnswIndex::pack`] wrote and checks that a
    /// search can follow every link: each neighbour names an existing
    /// node that has the layer it is linked on, and the entry point is a
    /// node whose level is `top_level`.
    pub(crate) fn unpack(
        mut r: Reader<'_>,
        distance: Distance,
        config: HnswConfig,
    ) -> Result<Self, VecDbError> {
        let entry = r.u32()?;
        let top_level = r.u32()? as usize;
        let count = r.u32()? as usize;
        // Every node takes at least its level and one layer count.
        if count > r.remaining() / 8 {
            return Err(corrupt(format!("{count} graph nodes declared")));
        }
        let mut nodes = Vec::with_capacity(count);
        for _ in 0..count {
            let level = r.u32()? as usize;
            if level >= r.remaining() / 4 {
                return Err(corrupt(format!("node level {level} declared")));
            }
            let neighbors = (0..=level)
                .map(|_| {
                    let links = r.u32()? as usize;
                    r.u32s(links)
                })
                .collect::<Result<Vec<_>, _>>()?;
            nodes.push(NodeLinks { level, neighbors });
        }
        r.finish()?;
        for node in &nodes {
            for (layer, links) in node.neighbors.iter().enumerate() {
                let dangling = |&n: &u32| nodes.get(n as usize).is_none_or(|t| t.level < layer);
                if links.iter().any(dangling) {
                    return Err(corrupt("graph link to a node or layer that does not exist"));
                }
            }
        }
        let entry = match nodes.get(entry as usize) {
            Some(node) if node.level == top_level => Some(entry as usize),
            None if entry == NO_ENTRY && count == 0 && top_level == 0 => None,
            _ => return Err(corrupt("graph entry point does not match its nodes")),
        };
        Ok(Self {
            config,
            distance,
            nodes,
            entry,
            top_level,
        })
    }

    /// Deterministic level for the node at `offset`: geometric with ratio
    /// `1/e^(1/ln m)`-ish — the standard `floor(-ln(U) · mL)` with
    /// `mL = 1 / ln(m)`.
    fn gen_level(&self, offset: usize) -> usize {
        let ml = 1.0 / (self.config.m as f64).ln();
        let u = unit_float(mix(&[self.config.seed, offset as u64])).max(f64::MIN_POSITIVE);
        ((-u.ln()) * ml).floor() as usize
    }

    /// Inserts the vector at `vectors[offset]`. Offsets must be inserted
    /// in increasing order (`offset == self.len()`). `inv_norms` carries
    /// the cached inverse L2 norm per offset (aligned with `vectors`),
    /// letting every cosine comparison run as one fused dot product.
    pub fn insert(&mut self, offset: usize, vectors: &[Vec<f32>], inv_norms: &[f32]) {
        debug_assert_eq!(offset, self.nodes.len(), "insert offsets must be dense");
        let level = self.gen_level(offset);
        self.nodes.push(NodeLinks {
            level,
            neighbors: vec![Vec::new(); level + 1],
        });
        let Some(mut ep) = self.entry else {
            self.entry = Some(offset);
            self.top_level = level;
            return;
        };
        let q = &vectors[offset];
        let q_inv = inv_norms[offset];

        // Greedy descent through layers above the new node's level.
        let mut l = self.top_level;
        while l > level {
            ep = self.greedy_closest(q, q_inv, ep, l, vectors, inv_norms);
            l -= 1;
        }

        // Beam search + connect from min(level, top_level) down to 0.
        let mut eps = vec![ep];
        let start = level.min(self.top_level);
        for layer in (0..=start).rev() {
            let cands = self.search_layer(
                q,
                q_inv,
                &eps,
                self.config.ef_construction,
                layer,
                vectors,
                inv_norms,
                None,
            );
            let m_max = if layer == 0 {
                self.config.m0
            } else {
                self.config.m
            };
            let selected = self.select_neighbors(&cands, m_max, vectors, inv_norms);
            for &(_, n) in &selected {
                self.nodes[offset].neighbors[layer].push(n as u32);
                self.nodes[n].neighbors[layer].push(offset as u32);
                // Prune the neighbour if it now exceeds its budget.
                if self.nodes[n].neighbors[layer].len() > m_max {
                    self.prune(n, layer, m_max, vectors, inv_norms);
                }
            }
            eps = cands.iter().map(|&(_, n)| n).collect();
            if eps.is_empty() {
                eps = vec![ep];
            }
        }

        if level > self.top_level {
            self.top_level = level;
            self.entry = Some(offset);
        }
    }

    fn prune(
        &mut self,
        node: usize,
        layer: usize,
        m_max: usize,
        vectors: &[Vec<f32>],
        inv_norms: &[f32],
    ) {
        let v = &vectors[node];
        let v_inv = inv_norms[node];
        let mut cands: Vec<(f32, usize)> = self.nodes[node].neighbors[layer]
            .iter()
            .map(|&n| {
                let n = n as usize;
                (
                    self.distance
                        .distance_normed(v, v_inv, &vectors[n], inv_norms[n]),
                    n,
                )
            })
            .collect();
        cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        let selected = self.select_neighbors(&cands, m_max, vectors, inv_norms);
        self.nodes[node].neighbors[layer] = selected.iter().map(|&(_, n)| n as u32).collect();
    }

    /// Greedy single-entry descent on one layer.
    #[allow(clippy::too_many_arguments)]
    fn greedy_closest(
        &self,
        q: &[f32],
        q_inv: f32,
        mut ep: usize,
        layer: usize,
        vectors: &[Vec<f32>],
        inv_norms: &[f32],
    ) -> usize {
        let mut best = self
            .distance
            .distance_normed(q, q_inv, &vectors[ep], inv_norms[ep]);
        loop {
            let mut improved = false;
            for &n in &self.nodes[ep].neighbors[layer] {
                let d = self.distance.distance_normed(
                    q,
                    q_inv,
                    &vectors[n as usize],
                    inv_norms[n as usize],
                );
                if d < best {
                    best = d;
                    ep = n as usize;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// Beam search on one layer. Returns up to `ef` nodes sorted by
    /// distance ascending. `accept` restricts which nodes may enter the
    /// *result* set (the graph is still traversed through non-matching
    /// nodes, the standard filtered-HNSW strategy).
    #[allow(clippy::too_many_arguments)]
    fn search_layer(
        &self,
        q: &[f32],
        q_inv: f32,
        eps: &[usize],
        ef: usize,
        layer: usize,
        vectors: &[Vec<f32>],
        inv_norms: &[f32],
        accept: Option<&dyn Fn(usize) -> bool>,
    ) -> Vec<(f32, usize)> {
        let mut visited = vec![false; self.nodes.len()];
        let mut candidates: BinaryHeap<Near> = BinaryHeap::new();
        let mut results: BinaryHeap<Far> = BinaryHeap::new();

        for &ep in eps {
            if visited[ep] {
                continue;
            }
            visited[ep] = true;
            let d = self
                .distance
                .distance_normed(q, q_inv, &vectors[ep], inv_norms[ep]);
            candidates.push(Near(d, ep));
            if accept.is_none_or(|a| a(ep)) {
                results.push(Far(d, ep));
            }
        }
        while let Some(Near(d, c)) = candidates.pop() {
            let worst = results.peek().map_or(f32::INFINITY, |f| f.0);
            if d > worst && results.len() >= ef {
                break;
            }
            for &n in &self.nodes[c].neighbors[layer] {
                let n = n as usize;
                if visited[n] {
                    continue;
                }
                visited[n] = true;
                let dn = self
                    .distance
                    .distance_normed(q, q_inv, &vectors[n], inv_norms[n]);
                let worst = results.peek().map_or(f32::INFINITY, |f| f.0);
                if dn < worst || results.len() < ef {
                    candidates.push(Near(dn, n));
                    if accept.is_none_or(|a| a(n)) {
                        results.push(Far(dn, n));
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
        }
        let mut out: Vec<(f32, usize)> = results.into_iter().map(|Far(d, n)| (d, n)).collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        out
    }

    /// Heuristic neighbour selection (Algorithm 4 of the paper): prefer
    /// candidates that are closer to the query than to any already
    /// selected neighbour, which keeps links spread out.
    fn select_neighbors(
        &self,
        cands: &[(f32, usize)],
        m: usize,
        vectors: &[Vec<f32>],
        inv_norms: &[f32],
    ) -> Vec<(f32, usize)> {
        let mut selected: Vec<(f32, usize)> = Vec::with_capacity(m);
        let mut skipped: Vec<(f32, usize)> = Vec::new();
        for &(d, c) in cands {
            if selected.len() >= m {
                break;
            }
            let dominated = selected.iter().any(|&(_, s)| {
                self.distance
                    .distance_normed(&vectors[c], inv_norms[c], &vectors[s], inv_norms[s])
                    < d
            });
            if dominated {
                skipped.push((d, c));
            } else {
                selected.push((d, c));
            }
        }
        // keepPrunedConnections: top up from skipped to reach m.
        for &(d, c) in &skipped {
            if selected.len() >= m {
                break;
            }
            selected.push((d, c));
        }
        selected
    }

    /// k-NN search: returns up to `k` `(offset, distance)` pairs sorted by
    /// distance ascending. `ef` is the layer-0 beam width (clamped to
    /// ≥ k). `inv_norms` carries the cached inverse norms aligned with
    /// `vectors` (the query's own norm is derived once per search).
    /// `accept` optionally filters which offsets may be returned.
    #[must_use]
    pub fn search(
        &self,
        q: &[f32],
        k: usize,
        ef: usize,
        vectors: &[Vec<f32>],
        inv_norms: &[f32],
        accept: Option<&dyn Fn(usize) -> bool>,
    ) -> Vec<(usize, f32)> {
        let Some(mut ep) = self.entry else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new();
        }
        let q_inv = inv_norm(q);
        for layer in (1..=self.top_level).rev() {
            ep = self.greedy_closest(q, q_inv, ep, layer, vectors, inv_norms);
        }
        let ef = ef.max(k);
        let found = self.search_layer(q, q_inv, &[ep], ef, 0, vectors, inv_norms, accept);
        found.into_iter().take(k).map(|(d, n)| (n, d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random vector for tests.
    fn pseudo_vec(seed: u64, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|i| (unit_float(mix(&[seed, i as u64])) * 2.0 - 1.0) as f32)
            .collect()
    }

    fn norms(vectors: &[Vec<f32>]) -> Vec<f32> {
        vectors.iter().map(|v| inv_norm(v)).collect()
    }

    fn build(n: usize, dim: usize) -> (HnswIndex, Vec<Vec<f32>>) {
        let vectors: Vec<Vec<f32>> = (0..n).map(|i| pseudo_vec(i as u64, dim)).collect();
        let inv = norms(&vectors);
        let mut idx = HnswIndex::new(Distance::Euclid, HnswConfig::default());
        for i in 0..n {
            idx.insert(i, &vectors, &inv);
        }
        (idx, vectors)
    }

    fn brute(q: &[f32], vectors: &[Vec<f32>], k: usize) -> Vec<usize> {
        let mut all: Vec<(f32, usize)> = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (Distance::Euclid.distance(q, v), i))
            .collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        all[..k].iter().map(|&(_, i)| i).collect()
    }

    #[test]
    fn empty_and_single() {
        let idx = HnswIndex::new(Distance::Euclid, HnswConfig::default());
        assert!(idx.search(&[0.0; 8], 3, 10, &[], &[], None).is_empty());
        let vectors = vec![pseudo_vec(7, 8)];
        let inv = norms(&vectors);
        let mut idx = HnswIndex::new(Distance::Euclid, HnswConfig::default());
        idx.insert(0, &vectors, &inv);
        let r = idx.search(&vectors[0], 1, 10, &vectors, &inv, None);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, 0);
    }

    #[test]
    fn exact_match_found_first() {
        let (idx, vectors) = build(300, 16);
        let inv = norms(&vectors);
        for probe in [0usize, 57, 123, 299] {
            let r = idx.search(&vectors[probe], 1, 64, &vectors, &inv, None);
            assert_eq!(r[0].0, probe, "probe {probe}");
            assert!(r[0].1 < 1e-6);
        }
    }

    #[test]
    fn recall_at_10_is_high() {
        let (idx, vectors) = build(1000, 24);
        let mut hits = 0usize;
        let mut total = 0usize;
        for qi in 0..50 {
            let q = pseudo_vec(10_000 + qi, 24);
            let truth = brute(&q, &vectors, 10);
            let got: Vec<usize> = idx
                .search(&q, 10, 128, &vectors, &norms(&vectors), None)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            hits += truth.iter().filter(|t| got.contains(t)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.9, "recall@10 = {recall}");
    }

    #[test]
    fn results_sorted_by_distance() {
        let (idx, vectors) = build(200, 8);
        let q = pseudo_vec(555, 8);
        let r = idx.search(&q, 20, 64, &vectors, &norms(&vectors), None);
        assert!(r.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn filtered_search_respects_predicate() {
        let (idx, vectors) = build(500, 16);
        let q = pseudo_vec(777, 16);
        let accept = |i: usize| i.is_multiple_of(3);
        let r = idx.search(&q, 10, 128, &vectors, &norms(&vectors), Some(&accept));
        assert!(!r.is_empty());
        assert!(r.iter().all(|&(i, _)| i % 3 == 0));
    }

    #[test]
    fn filtered_recall_reasonable() {
        let (idx, vectors) = build(600, 16);
        let accept = |i: usize| i.is_multiple_of(2);
        let mut hits = 0;
        let mut total = 0;
        for qi in 0..30 {
            let q = pseudo_vec(40_000 + qi, 16);
            let mut truth: Vec<(f32, usize)> = vectors
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == 0)
                .map(|(i, v)| (Distance::Euclid.distance(&q, v), i))
                .collect();
            truth.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let truth: Vec<usize> = truth[..5].iter().map(|&(_, i)| i).collect();
            let got: Vec<usize> = idx
                .search(&q, 5, 128, &vectors, &norms(&vectors), Some(&accept))
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            hits += truth.iter().filter(|t| got.contains(t)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.8, "filtered recall = {recall}");
    }

    #[test]
    fn deterministic_build_and_search() {
        let (a, va) = build(300, 12);
        let (b, vb) = build(300, 12);
        assert_eq!(va, vb);
        let q = pseudo_vec(9, 12);
        let ra = a.search(&q, 10, 50, &va, &norms(&va), None);
        let rb = b.search(&q, 10, 50, &vb, &norms(&vb), None);
        assert_eq!(ra, rb);
    }

    #[test]
    fn dim_256_build_is_deterministic_and_keeps_recall() {
        // The embedding dimension the engine runs at: 16 full chunks of
        // the scoring kernel per comparison, no tail.
        let (a, vectors) = build(1000, 256);
        let (b, _) = build(1000, 256);
        let inv = norms(&vectors);
        let mut hits = 0usize;
        for qi in 0..50 {
            let q = pseudo_vec(20_000 + qi, 256);
            let got = a.search(&q, 10, 128, &vectors, &inv, None);
            assert_eq!(got, b.search(&q, 10, 128, &vectors, &inv, None));
            let truth = brute(&q, &vectors, 10);
            hits += got.iter().filter(|(i, _)| truth.contains(i)).count();
        }
        let recall = hits as f64 / 500.0;
        assert!(recall > 0.9, "recall@10 at dim 256 = {recall}");
    }

    #[test]
    fn higher_ef_does_not_reduce_recall() {
        let (idx, vectors) = build(800, 16);
        let mut recall_lo = 0usize;
        let mut recall_hi = 0usize;
        for qi in 0..25 {
            let q = pseudo_vec(70_000 + qi, 16);
            let truth = brute(&q, &vectors, 10);
            let inv = norms(&vectors);
            let lo: Vec<usize> = idx
                .search(&q, 10, 10, &vectors, &inv, None)
                .iter()
                .map(|x| x.0)
                .collect();
            let hi: Vec<usize> = idx
                .search(&q, 10, 256, &vectors, &inv, None)
                .iter()
                .map(|x| x.0)
                .collect();
            recall_lo += truth.iter().filter(|t| lo.contains(t)).count();
            recall_hi += truth.iter().filter(|t| hi.contains(t)).count();
        }
        assert!(recall_hi >= recall_lo, "lo={recall_lo} hi={recall_hi}");
    }
}
