//! Hierarchical Navigable Small World graphs (Malkov & Yashunin, TPAMI
//! 2020) — the approximate nearest-neighbour algorithm behind Qdrant's
//! (and therefore SemaSK's) filtering step.
//!
//! The index stores only graph links; vectors live in the owning
//! [`crate::Collection`]'s row-major arena and every call reads them
//! through a [`Rows`] view of it (row `o` is node `o`'s vector), keeping
//! the two halves independently testable.
//!
//! A beam search needs a visited set over every node and two heaps. They
//! are per-thread scratch that outlives the search (hnswlib's reused
//! visited list): "visited" is a `u32` stamp per node equal to the
//! running search's epoch, so starting a search is bumping one counter
//! rather than allocating and zeroing `nodes.len()` flags, and the heaps
//! keep their capacity from one search to the next.
//!
//! # Re-selection resumes
//!
//! A new node takes up to `m_max` links per layer, so on a grown graph
//! nearly every back-link lands on a full list and one of the
//! `m_max + 1` has to go. Which one is decided by the paper's
//! Algorithm 4 (`select_neighbors`) over the list and the newcomer in
//! order of distance from the node. That order and every verdict but a
//! few are what the *previous* selection on the same list produced, so
//! each list keeps them:
//!
//! * **Invariant.** A list that carries selection state is stored as
//!   `[selected, ascending by distance] ++ [kept-pruned, ascending]` —
//!   the order `select_neighbors` writes — with the distance of every
//!   link from the node beside it and the length of the first run.
//!   Re-running the heuristic over that list (stable-sorted by
//!   distance) reproduces exactly those verdicts.
//! * **Tie order.** The list and the newcomer `x` are stable-sorted by
//!   distance from the stored order with `x` last, so among equal
//!   distances selected links come before kept-pruned ones before `x`.
//! * **Resume** (`resume_selection`). Links before `x` keep their
//!   verdict without a comparison; `x` is tested against the selected
//!   links before it; behind a skipped `x` nothing changes; behind a
//!   selected `x` a kept-pruned link stays pruned and a selected link
//!   is tested against `x` alone — until one of them is demoted, from
//!   where the ordinary full check runs, because a link pruned only by
//!   the demoted one may be selected again.
//! * **Restart.** A list that took a plain push while under its cap, and
//!   every list of a graph read back by `HnswIndex::unpack` (the
//!   snapshot stores links only — no distances, no verdicts), carries
//!   no state. Its first overflow recomputes every node → link distance
//!   and runs `select_neighbors` from scratch, which leaves it in the
//!   shape above for good: a full list never shrinks.
//!
//! Both routes produce the same links in the same stored order; the
//! resumed one needs one distance for the newcomer instead of
//! `m_max + 1`, and a handful of heuristic comparisons instead of a few
//! hundred.
//!
//! # Planned inserts
//!
//! An insert reads the whole graph and changes little of it: the new
//! node's lists and, per link it takes, one back-link — a push onto a
//! list under its cap or a re-selected list. [`HnswIndex::plan_insert`]
//! computes all of that through `&self`, so a writer can plan under a
//! read lock while searches go on, and [`HnswIndex::apply`] makes it so
//! under the write lock in a few pointer moves. Planning reads each
//! layer before any of that layer's edits, exactly as an in-place insert
//! would: no search reaches the new node (nothing links to it yet), and
//! each edit replaces one list computed from that list alone. So a plan
//! applied to the graph it was made on is the in-place insert, link for
//! link. A plan records the offset it was made for; once another node
//! has been inserted it is stale, and `apply` refuses it.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::codec::{corrupt, Reader, Writer};
use crate::distance::{inv_norm, Distance};
use crate::error::VecDbError;
use crate::rows::Rows;
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
#[derive(Debug, Clone)]
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

impl HnswConfig {
    /// Refuses parameters no graph can be built with: `m = 1` (the level
    /// generator's `1 / ln(m)` is infinite, and the first inserts index
    /// layers that do not exist), `m = 0` (nothing links to anything),
    /// `m0 < m`, and `ef_construction = 0` (a beam that finds nothing to
    /// link to).
    ///
    /// # Errors
    /// [`VecDbError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), VecDbError> {
        let cause = if self.m < 2 {
            format!("hnsw.m = {} (must be at least 2)", self.m)
        } else if self.m0 < self.m {
            format!("hnsw.m0 = {} is below hnsw.m = {}", self.m0, self.m)
        } else if self.ef_construction == 0 {
            "hnsw.ef_construction = 0 (must be at least 1)".to_owned()
        } else {
            return Ok(());
        };
        Err(VecDbError::InvalidConfig { cause })
    }
}

/// One node's links on one layer, with what the last neighbour
/// selection on them knew (module docs, "Re-selection resumes").
#[derive(Debug, Clone, Default)]
struct LinkList {
    /// Adjacent node offsets — the only part a snapshot stores.
    links: Vec<u32>,
    /// Empty when the list carries no selection state (it took a plain
    /// push, or was read from a snapshot). Otherwise `dists[i]` is the
    /// distance from the owning node to `links[i]`, computed node-first,
    /// and the list is `[selected, ascending] ++ [kept-pruned,
    /// ascending]`.
    dists: Vec<f32>,
    /// Length of the selected run. Meaningful only beside `dists`.
    selected: usize,
}

impl LinkList {
    /// Assembles Algorithm 4's answer: the selected links, topped up to
    /// `m` from the skipped ones (`keepPrunedConnections`); both arrive
    /// ascending by distance.
    fn from_verdicts(selected: &[(f32, usize)], skipped: &[(f32, usize)], m: usize) -> Self {
        let kept = &skipped[..skipped.len().min(m.saturating_sub(selected.len()))];
        let all = || selected.iter().chain(kept);
        Self {
            links: all().map(|&(_, n)| n as u32).collect(),
            dists: all().map(|&(d, _)| d).collect(),
            selected: selected.len(),
        }
    }
}

/// One node: its level and one [`LinkList`] per layer. A list with
/// selection state is `[selected, ascending by distance from this node]
/// ++ [kept-pruned, ascending]`, equal distances ordered selected before
/// kept-pruned before a newcomer; a list read from a snapshot has none
/// (the file stores links only) and restarts its selection on its first
/// overflow. Lists are independent: a re-selection reads the vectors and
/// the list's own cached distances, never another list.
#[derive(Debug, Clone)]
struct NodeLinks {
    /// Highest layer this node appears on.
    level: usize,
    /// `neighbors[l]` = the node's links on layer `l` (0 ≤ l ≤ level).
    neighbors: Vec<LinkList>,
}

/// On-disk `entry` of an empty graph (node offsets are `u32`, and a
/// graph never holds `u32::MAX` nodes).
const NO_ENTRY: u32 = u32::MAX;

/// What inserting one node changes in a graph, computed against the
/// graph as it stood ([`HnswIndex::plan_insert`]) and made so by
/// [`HnswIndex::apply`] (module docs, "Planned inserts").
#[derive(Debug, Clone)]
pub struct InsertPlan {
    /// The offset the node takes: the graph's length when planned.
    offset: usize,
    level: usize,
    /// The new node's lists, layer 0 first.
    lists: Vec<LinkList>,
    /// Back-links, as `(layer, node, edit)`: the node's re-selected list,
    /// or `None` for a plain push onto a list under its cap.
    back: Vec<(usize, u32, Option<LinkList>)>,
}

impl InsertPlan {
    /// The offset the plan was made for. It is stale once the graph no
    /// longer has that many nodes.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }
}

/// The vectors an insert plan reads: the stored rows, and the newcomer's
/// row at its offset, which the rows need not hold yet.
#[derive(Clone, Copy)]
struct Vectors<'a> {
    rows: Rows<'a>,
    inv_norms: &'a [f32],
    /// `(offset, row, inverse norm)` of the node being planned.
    new: (usize, &'a [f32], f32),
}

impl<'a> Vectors<'a> {
    /// Node `n`'s vector and inverse norm.
    fn row(&self, n: usize) -> (&'a [f32], f32) {
        let (offset, row, inv) = self.new;
        if n == offset {
            (row, inv)
        } else {
            (self.rows.row(n), self.inv_norms[n])
        }
    }
}

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

/// A beam search's working set, reused by every search on its thread
/// (module docs).
#[derive(Default)]
struct SearchScratch {
    /// `visited[n] == epoch` iff the running search has reached node
    /// `n`; an earlier search left a smaller stamp, or 0.
    visited: Vec<u32>,
    /// The running search's stamp, never 0.
    epoch: u32,
    candidates: BinaryHeap<Near>,
    results: BinaryHeap<Far>,
}

impl SearchScratch {
    /// Readies the scratch for a search over `nodes` nodes: a new
    /// stamp and empty heaps — whatever the last search left, including
    /// one that unwound out of an `accept` closure.
    fn begin(&mut self, nodes: usize) {
        if self.visited.len() < nodes {
            self.visited.resize(nodes, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The stamps of 2³² searches ago would read as this one's.
            self.visited.fill(0);
            self.epoch = 1;
        }
        self.candidates.clear();
        self.results.clear();
    }

    /// Marks node `n` visited; `false` if it already was.
    fn visit(&mut self, n: usize) -> bool {
        let fresh = self.visited[n] != self.epoch;
        self.visited[n] = self.epoch;
        fresh
    }
}

thread_local! {
    /// This thread's [`SearchScratch`]. A search takes it out and puts it
    /// back, so a search nested inside another's `accept` closure starts
    /// from an empty one instead of sharing it, and one that panics
    /// leaves an empty one behind.
    static SCRATCH: Cell<SearchScratch> = Cell::default();
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
                w.u32(layer.links.len() as u32);
                w.u32s(&layer.links);
            }
        }
    }

    /// Reads back what [`HnswIndex::pack`] wrote and checks that a
    /// search can follow every link: each neighbour names an existing
    /// node that has the layer it is linked on, and the entry point is a
    /// node whose level is `top_level`. The lists come back without
    /// selection state; each restarts its selection on its first
    /// overflow (module docs).
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
                    let count = r.u32()? as usize;
                    let links = r.u32s(count)?;
                    Ok(LinkList {
                        links,
                        ..LinkList::default()
                    })
                })
                .collect::<Result<Vec<_>, VecDbError>>()?;
            nodes.push(NodeLinks { level, neighbors });
        }
        r.finish()?;
        for node in &nodes {
            for (layer, list) in node.neighbors.iter().enumerate() {
                let dangling = |&n: &u32| nodes.get(n as usize).is_none_or(|t| t.level < layer);
                if list.links.iter().any(dangling) {
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

    /// Inserts the vector at `rows.row(offset)`, `offset == self.len()`:
    /// [`HnswIndex::plan_insert`] then [`HnswIndex::apply`]. `inv_norms`
    /// carries the cached inverse L2 norm per offset (aligned with
    /// `rows`), letting every cosine comparison run as one fused dot
    /// product.
    pub fn insert(&mut self, offset: usize, rows: Rows<'_>, inv_norms: &[f32]) {
        debug_assert_eq!(offset, self.nodes.len(), "insert offsets must be dense");
        let plan = self.plan_insert(rows.row(offset), rows, inv_norms);
        self.apply(plan);
    }

    /// Computes, without changing the graph, what inserting `row` as node
    /// `self.len()` does to it (module docs, "Planned inserts"). `rows`
    /// and `inv_norms` hold the stored nodes; `row` need not be among
    /// them yet. Its inverse norm is derived here as the owning
    /// collection derives it.
    #[must_use]
    pub fn plan_insert(&self, row: &[f32], rows: Rows<'_>, inv_norms: &[f32]) -> InsertPlan {
        let offset = self.nodes.len();
        let level = self.gen_level(offset);
        let mut plan = InsertPlan {
            offset,
            level,
            lists: vec![LinkList::default(); level + 1],
            back: Vec::new(),
        };
        let Some(mut ep) = self.entry else {
            return plan;
        };
        let q_inv = inv_norm(row);
        let vectors = Vectors {
            rows,
            inv_norms,
            new: (offset, row, q_inv),
        };

        // Greedy descent through layers above the new node's level.
        let mut l = self.top_level;
        while l > level {
            ep = self.greedy_closest(row, q_inv, ep, l, rows, inv_norms);
            l -= 1;
        }

        // Beam search + connect from min(level, top_level) down to 0.
        // No search reaches the new node: nothing links to it before the
        // plan is applied, just as nothing did while the in-place insert
        // searched the layers below the one it had linked.
        let mut eps = vec![ep];
        let start = level.min(self.top_level);
        for layer in (0..=start).rev() {
            let cands = self.search_layer(
                row,
                q_inv,
                &eps,
                self.config.ef_construction,
                layer,
                rows,
                inv_norms,
                None,
            );
            let m_max = if layer == 0 {
                self.config.m0
            } else {
                self.config.m
            };
            // `cands` holds the distances from `row`, which is this
            // node's vector, so its list is born with its selection state.
            let list = self.select_neighbors(&cands, m_max, vectors);
            for &n in &list.links {
                let back = &self.nodes[n as usize].neighbors[layer];
                let edit = (back.links.len() >= m_max)
                    .then(|| self.reselect(n as usize, layer, offset, m_max, vectors));
                plan.back.push((layer, n, edit));
            }
            plan.lists[layer] = list;
            eps = cands.iter().map(|&(_, n)| n).collect();
            if eps.is_empty() {
                eps = vec![ep];
            }
        }
        plan
    }

    /// Makes `plan` so: the new node with its lists, every back-link
    /// edit, and the entry point if the node tops the graph.
    ///
    /// # Panics
    /// If the plan is stale — made for another offset than
    /// `self.len()`, because a node was inserted since.
    pub fn apply(&mut self, plan: InsertPlan) {
        let InsertPlan {
            offset,
            level,
            lists,
            back,
        } = plan;
        assert_eq!(offset, self.nodes.len(), "a stale insert plan");
        self.nodes.push(NodeLinks {
            level,
            neighbors: lists,
        });
        for (layer, n, edit) in back {
            let list = &mut self.nodes[n as usize].neighbors[layer];
            match edit {
                Some(reselected) => *list = reselected,
                None => {
                    list.links.push(offset as u32);
                    list.dists.clear();
                }
            }
        }
        if self.entry.is_none() || level > self.top_level {
            self.top_level = level;
            self.entry = Some(offset);
        }
    }

    /// The back-link `x` arrives on `node`'s full list on `layer`: the
    /// `m_max` of the `m_max + 1` it keeps — resuming the list's last
    /// selection if it carries one, restarting it otherwise (module
    /// docs).
    fn reselect(
        &self,
        node: usize,
        layer: usize,
        x: usize,
        m_max: usize,
        vectors: Vectors<'_>,
    ) -> LinkList {
        let (v, v_inv) = vectors.row(node);
        // Node-first, as every cached distance is: the cosine kernel
        // multiplies by the two inverse norms in argument order.
        let from_node = |n: usize| {
            let (row, inv) = vectors.row(n);
            self.distance.distance_normed(v, v_inv, row, inv)
        };
        let list = &self.nodes[node].neighbors[layer];
        if list.dists.is_empty() {
            let mut cands: Vec<(f32, usize)> = list
                .links
                .iter()
                .map(|&n| (from_node(n as usize), n as usize))
                .collect();
            cands.push((from_node(x), x));
            cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
            self.select_neighbors(&cands, m_max, vectors)
        } else {
            self.resume_selection(list, (from_node(x), x), m_max, vectors)
        }
    }

    /// [`HnswIndex::select_neighbors`] over `list` and the newcomer `x`,
    /// spending comparisons only where `x` can change a verdict of the
    /// selection that produced `list` (module docs).
    fn resume_selection(
        &self,
        list: &LinkList,
        x: (f32, usize),
        m: usize,
        vectors: Vectors<'_>,
    ) -> LinkList {
        /// What a stored link's old verdict is still worth.
        enum Stage {
            /// It stands: every selected link so far was selected then.
            Stands,
            /// `x` joined the selected links and nothing else changed.
            PlusX,
            /// A selected link was demoted; old verdicts say nothing.
            Void,
        }
        // (distance from the node, link, selected last time)
        let mut cands: Vec<(f32, usize, bool)> = list
            .links
            .iter()
            .zip(&list.dists)
            .enumerate()
            .map(|(i, (&n, &d))| (d, n as usize, i < list.selected))
            .collect();
        cands.push((x.0, x.1, false));
        // Stable over `[selected ++ kept-pruned ++ x]`: the tie order.
        cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));

        let mut selected: Vec<(f32, usize)> = Vec::with_capacity(m);
        let mut skipped: Vec<(f32, usize)> = Vec::new();
        let mut stage = Stage::Stands;
        for &(d, c, was_selected) in &cands {
            if selected.len() >= m {
                break;
            }
            let dominated = if c == x.1 {
                let dominated = self.dominated((d, c), &selected, vectors);
                if !dominated {
                    stage = Stage::PlusX;
                }
                dominated
            } else {
                match stage {
                    Stage::Stands => !was_selected,
                    Stage::PlusX if !was_selected => true,
                    Stage::PlusX => {
                        let demoted = self.dominated((d, c), &[x], vectors);
                        if demoted {
                            stage = Stage::Void;
                        }
                        demoted
                    }
                    Stage::Void => self.dominated((d, c), &selected, vectors),
                }
            };
            if dominated {
                skipped.push((d, c));
            } else {
                selected.push((d, c));
            }
        }
        LinkList::from_verdicts(&selected, &skipped, m)
    }

    /// Greedy single-entry descent on one layer.
    #[allow(clippy::too_many_arguments)]
    fn greedy_closest(
        &self,
        q: &[f32],
        q_inv: f32,
        mut ep: usize,
        layer: usize,
        rows: Rows<'_>,
        inv_norms: &[f32],
    ) -> usize {
        let mut best = self
            .distance
            .distance_normed(q, q_inv, rows.row(ep), inv_norms[ep]);
        loop {
            let mut improved = false;
            for &n in &self.nodes[ep].neighbors[layer].links {
                let d = self.distance.distance_normed(
                    q,
                    q_inv,
                    rows.row(n as usize),
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
        rows: Rows<'_>,
        inv_norms: &[f32],
        accept: Option<&dyn Fn(usize) -> bool>,
    ) -> Vec<(f32, usize)> {
        let mut s = SCRATCH.take();
        s.begin(self.nodes.len());
        for &ep in eps {
            if !s.visit(ep) {
                continue;
            }
            let d = self
                .distance
                .distance_normed(q, q_inv, rows.row(ep), inv_norms[ep]);
            s.candidates.push(Near(d, ep));
            if accept.is_none_or(|a| a(ep)) {
                s.results.push(Far(d, ep));
            }
        }
        while let Some(Near(d, c)) = s.candidates.pop() {
            let worst = s.results.peek().map_or(f32::INFINITY, |f| f.0);
            if d > worst && s.results.len() >= ef {
                break;
            }
            for &n in &self.nodes[c].neighbors[layer].links {
                let n = n as usize;
                if !s.visit(n) {
                    continue;
                }
                let dn = self
                    .distance
                    .distance_normed(q, q_inv, rows.row(n), inv_norms[n]);
                let worst = s.results.peek().map_or(f32::INFINITY, |f| f.0);
                if dn < worst || s.results.len() < ef {
                    s.candidates.push(Near(dn, n));
                    if accept.is_none_or(|a| a(n)) {
                        s.results.push(Far(dn, n));
                        if s.results.len() > ef {
                            s.results.pop();
                        }
                    }
                }
            }
        }
        let mut out: Vec<(f32, usize)> = s.results.drain().map(|Far(d, n)| (d, n)).collect();
        SCRATCH.set(s);
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        out
    }

    /// Heuristic neighbour selection (Algorithm 4 of the paper): prefer
    /// candidates that are closer to the query than to any already
    /// selected neighbour, which keeps links spread out. `cands` arrive
    /// ascending by distance from the query.
    fn select_neighbors(&self, cands: &[(f32, usize)], m: usize, vectors: Vectors<'_>) -> LinkList {
        let mut selected: Vec<(f32, usize)> = Vec::with_capacity(m);
        let mut skipped: Vec<(f32, usize)> = Vec::new();
        for &(d, c) in cands {
            if selected.len() >= m {
                break;
            }
            if self.dominated((d, c), &selected, vectors) {
                skipped.push((d, c));
            } else {
                selected.push((d, c));
            }
        }
        LinkList::from_verdicts(&selected, &skipped, m)
    }

    /// Algorithm 4's test: is the candidate `c`, at distance `d` from
    /// the query, closer to one of `selected` than to the query?
    fn dominated(
        &self,
        (d, c): (f32, usize),
        selected: &[(f32, usize)],
        vectors: Vectors<'_>,
    ) -> bool {
        let (c_row, c_inv) = vectors.row(c);
        selected.iter().any(|&(_, s)| {
            let (s_row, s_inv) = vectors.row(s);
            self.distance.distance_normed(c_row, c_inv, s_row, s_inv) < d
        })
    }

    /// k-NN search: returns up to `k` `(offset, distance)` pairs sorted by
    /// distance ascending. `ef` is the layer-0 beam width (clamped to
    /// ≥ k). `inv_norms` carries the cached inverse norms aligned with
    /// `rows` (the query's own norm is derived once per search).
    /// `accept` optionally filters which offsets may be returned.
    #[must_use]
    pub fn search(
        &self,
        q: &[f32],
        k: usize,
        ef: usize,
        rows: Rows<'_>,
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
            ep = self.greedy_closest(q, q_inv, ep, layer, rows, inv_norms);
        }
        let ef = ef.max(k);
        let found = self.search_layer(q, q_inv, &[ep], ef, 0, rows, inv_norms, accept);
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

    /// Test vectors as the index reads them — one arena and its inverse
    /// norms — and nested, for the brute-force references.
    struct Stored {
        vectors: Vec<Vec<f32>>,
        flat: Vec<f32>,
        inv: Vec<f32>,
    }

    impl Stored {
        fn new(vectors: Vec<Vec<f32>>) -> Self {
            Self {
                flat: vectors.concat(),
                inv: vectors.iter().map(|v| inv_norm(v)).collect(),
                vectors,
            }
        }

        fn rows(&self) -> Rows<'_> {
            Rows::new(&self.flat, self.vectors.first().map_or(1, Vec::len))
        }
    }

    fn build(n: usize, dim: usize) -> (HnswIndex, Stored) {
        let st = Stored::new((0..n).map(|i| pseudo_vec(i as u64, dim)).collect());
        let mut idx = HnswIndex::new(Distance::Euclid, HnswConfig::default());
        for i in 0..n {
            idx.insert(i, st.rows(), &st.inv);
        }
        (idx, st)
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
        let none = Rows::new(&[], 8);
        assert!(idx.search(&[0.0; 8], 3, 10, none, &[], None).is_empty());
        let st = Stored::new(vec![pseudo_vec(7, 8)]);
        let mut idx = HnswIndex::new(Distance::Euclid, HnswConfig::default());
        idx.insert(0, st.rows(), &st.inv);
        let r = idx.search(&st.vectors[0], 1, 10, st.rows(), &st.inv, None);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, 0);
    }

    #[test]
    fn exact_match_found_first() {
        let (idx, st) = build(300, 16);
        for probe in [0usize, 57, 123, 299] {
            let r = idx.search(&st.vectors[probe], 1, 64, st.rows(), &st.inv, None);
            assert_eq!(r[0].0, probe, "probe {probe}");
            assert!(r[0].1 < 1e-6);
        }
    }

    #[test]
    fn recall_at_10_is_high() {
        let (idx, st) = build(1000, 24);
        let mut hits = 0usize;
        let mut total = 0usize;
        for qi in 0..50 {
            let q = pseudo_vec(10_000 + qi, 24);
            let truth = brute(&q, &st.vectors, 10);
            let got: Vec<usize> = idx
                .search(&q, 10, 128, st.rows(), &st.inv, None)
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
        let (idx, st) = build(200, 8);
        let q = pseudo_vec(555, 8);
        let r = idx.search(&q, 20, 64, st.rows(), &st.inv, None);
        assert!(r.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn filtered_search_respects_predicate() {
        let (idx, st) = build(500, 16);
        let q = pseudo_vec(777, 16);
        let accept = |i: usize| i.is_multiple_of(3);
        let r = idx.search(&q, 10, 128, st.rows(), &st.inv, Some(&accept));
        assert!(!r.is_empty());
        assert!(r.iter().all(|&(i, _)| i % 3 == 0));
    }

    #[test]
    fn filtered_recall_reasonable() {
        let (idx, st) = build(600, 16);
        let accept = |i: usize| i.is_multiple_of(2);
        let mut hits = 0;
        let mut total = 0;
        for qi in 0..30 {
            let q = pseudo_vec(40_000 + qi, 16);
            let mut truth: Vec<(f32, usize)> = st
                .vectors
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == 0)
                .map(|(i, v)| (Distance::Euclid.distance(&q, v), i))
                .collect();
            truth.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let truth: Vec<usize> = truth[..5].iter().map(|&(_, i)| i).collect();
            let got: Vec<usize> = idx
                .search(&q, 5, 128, st.rows(), &st.inv, Some(&accept))
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
        assert_eq!(va.flat, vb.flat);
        let q = pseudo_vec(9, 12);
        let ra = a.search(&q, 10, 50, va.rows(), &va.inv, None);
        let rb = b.search(&q, 10, 50, vb.rows(), &vb.inv, None);
        assert_eq!(ra, rb);
    }

    #[test]
    fn dim_256_build_is_deterministic_and_keeps_recall() {
        // The embedding dimension the engine runs at: 16 full chunks of
        // the scoring kernel per comparison, no tail.
        let (a, st) = build(1000, 256);
        let (b, _) = build(1000, 256);
        let mut hits = 0usize;
        for qi in 0..50 {
            let q = pseudo_vec(20_000 + qi, 256);
            let got = a.search(&q, 10, 128, st.rows(), &st.inv, None);
            assert_eq!(got, b.search(&q, 10, 128, st.rows(), &st.inv, None));
            let truth = brute(&q, &st.vectors, 10);
            hits += got.iter().filter(|(i, _)| truth.contains(i)).count();
        }
        let recall = hits as f64 / 500.0;
        assert!(recall > 0.9, "recall@10 at dim 256 = {recall}");
    }

    /// A snapshot whose last section — the graph's — is the only one
    /// with anything in it.
    fn packed(idx: &HnswIndex) -> Vec<u8> {
        let mut w = crate::codec::COLLECTION.writer(0);
        for _ in 0..4 {
            w.end_section();
        }
        idx.pack(&mut w);
        w.end_section();
        w.finish().seal()
    }

    /// The graph over `vectors` as shipped (`restart == false`), or as
    /// the reference that never resumes: every list loses its selection
    /// state before every insert — what `pack` → `unpack` does to it —
    /// so each overflow recomputes every node → link distance,
    /// stable-sorts stored order + newcomer and runs `select_neighbors`
    /// from scratch.
    fn grown(st: &Stored, distance: Distance, config: &HnswConfig, restart: bool) -> HnswIndex {
        let mut idx = HnswIndex::new(distance, config.clone());
        for i in 0..st.vectors.len() {
            if restart {
                let lists = idx.nodes.iter_mut().flat_map(|node| &mut node.neighbors);
                lists.for_each(|list| list.dists.clear());
            }
            idx.insert(i, st.rows(), &st.inv);
        }
        idx
    }

    /// `n` vectors with the ties the tie order exists for. Pool 0:
    /// uniform random. Pool 1: integer lattice coordinates in `-1..=2`
    /// (equal and zero distances between distinct nodes, the zero
    /// vector, and — at dimension 2 — sixteen points shared by all).
    /// Pool 2: random vectors, each stored three times.
    fn pool(kind: usize, n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        (0..n as u64)
            .map(|i| match kind {
                0 => pseudo_vec(mix(&[seed, i]), dim),
                1 => (0..dim as u64)
                    .map(|j| (mix(&[seed, i, j]) % 4) as f32 - 1.0)
                    .collect(),
                _ => pseudo_vec(mix(&[seed, i / 3]), dim),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Resume ≡ restart: the shipped build and the never-resuming
        /// reference write the same snapshot section — same links, same
        /// stored order, every node, every layer.
        #[test]
        fn resumed_selection_builds_the_restarted_graph(
            n in 1usize..=600,
            shape in (0usize..3, 0usize..3, 0usize..3, 0usize..3),
            seed in 0u64..u64::MAX,
        ) {
            let (dim, links, metric, kind) = shape;
            let dim = [2, 8, 64][dim];
            let (m, m0) = [(2, 4), (4, 8), (16, 32)][links];
            let distance = [Distance::Cosine, Distance::Dot, Distance::Euclid][metric];
            // A beam just past the cap: re-selection, which this is about,
            // runs as often; the searches around it cost a third.
            let config = HnswConfig { m, m0, ef_construction: 40, seed };
            let st = Stored::new(pool(kind, n, dim, seed));
            let resumed = grown(&st, distance, &config, false);
            let restarted = grown(&st, distance, &config, true);
            proptest::prop_assert!(
                packed(&resumed) == packed(&restarted),
                "n {} dim {} m {} {:?} pool {} seed {}", n, dim, m, distance, kind, seed
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Plan then apply ≡ insert, stale plans included. Each batch of
        /// `k` inserts is planned against the graph before the batch,
        /// over rows that hold only the nodes already stored, so every
        /// plan after a batch's first is stale and is made again — and
        /// the graph comes out as the one-at-a-time inserts build it.
        #[test]
        fn planned_inserts_build_the_inserted_graph(
            n in 1usize..=300,
            k in 1usize..=4,
            shape in (0usize..3, 0usize..3, 0usize..3),
            seed in 0u64..u64::MAX,
        ) {
            let (dim, metric, kind) = shape;
            let dim = [2, 8, 64][dim];
            let distance = [Distance::Cosine, Distance::Dot, Distance::Euclid][metric];
            let config = HnswConfig { m: 4, m0: 8, ef_construction: 40, seed };
            let st = Stored::new(pool(kind, n, dim, seed));
            let inserted = grown(&st, distance, &config, false);

            let mut planned = HnswIndex::new(distance, config);
            let plan = |idx: &HnswIndex, i: usize| {
                let stored = idx.len();
                let rows = Rows::new(&st.flat[..stored * dim], dim);
                idx.plan_insert(&st.vectors[i], rows, &st.inv[..stored])
            };
            let mut stale = 0;
            for first in (0..n).step_by(k) {
                let batch: Vec<usize> = (first..n.min(first + k)).collect();
                let plans: Vec<InsertPlan> = batch.iter().map(|&i| plan(&planned, i)).collect();
                for (&i, p) in batch.iter().zip(plans) {
                    let p = if p.offset() == planned.len() {
                        p
                    } else {
                        stale += 1;
                        plan(&planned, i)
                    };
                    planned.apply(p);
                }
            }
            proptest::prop_assert_eq!(stale, n - n.div_ceil(k));
            proptest::prop_assert!(packed(&planned) == packed(&inserted));
        }
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn a_stale_plan_is_refused() {
        let st = Stored::new(vec![pseudo_vec(1, 4), pseudo_vec(2, 4)]);
        let mut idx = HnswIndex::new(Distance::Euclid, HnswConfig::default());
        let first = idx.plan_insert(&st.vectors[0], st.rows(), &st.inv);
        let second = idx.plan_insert(&st.vectors[1], st.rows(), &st.inv);
        idx.apply(first);
        idx.apply(second);
    }

    #[test]
    fn demoting_a_selected_link_reselects_the_one_only_it_pruned() {
        // Seen from P at the origin: A, B and C are selected, E is pruned
        // by C alone (E sits just behind C). X then arrives closer to P
        // than C and prunes C — and with C demoted nothing prunes E.
        let [a, b, c, e, p, x] = [0usize, 1, 2, 3, 4, 5];
        let st = Stored::new(vec![
            vec![-1.0, 0.0],
            vec![-0.3, 1.2],
            vec![2.0, 0.0],
            vec![2.2, 1.0],
            vec![0.0, 0.0],
            vec![1.1, -1.2],
        ]);
        let config = HnswConfig {
            m: 4,
            m0: 4,
            ..HnswConfig::default()
        };
        let mut idx = HnswIndex::new(Distance::Euclid, config.clone());
        for i in 0..x {
            idx.insert(i, st.rows(), &st.inv);
        }
        let list = &idx.nodes[p].neighbors[0];
        assert_eq!(list.links, [a, b, c, e].map(|n| n as u32));
        assert_eq!((list.selected, list.dists.len()), (3, 4), "born with state");

        idx.insert(x, st.rows(), &st.inv);
        let list = &idx.nodes[p].neighbors[0];
        assert_eq!(list.links, [a, b, x, e].map(|n| n as u32));
        assert_eq!(list.selected, 4, "E is selected again, C is gone");
        let restarted = grown(&st, Distance::Euclid, &config, true);
        assert!(packed(&idx) == packed(&restarted));
    }

    #[test]
    fn higher_ef_does_not_reduce_recall() {
        let (idx, st) = build(800, 16);
        let mut recall_lo = 0usize;
        let mut recall_hi = 0usize;
        for qi in 0..25 {
            let q = pseudo_vec(70_000 + qi, 16);
            let truth = brute(&q, &st.vectors, 10);
            let lo: Vec<usize> = idx
                .search(&q, 10, 10, st.rows(), &st.inv, None)
                .iter()
                .map(|x| x.0)
                .collect();
            let hi: Vec<usize> = idx
                .search(&q, 10, 256, st.rows(), &st.inv, None)
                .iter()
                .map(|x| x.0)
                .collect();
            recall_lo += truth.iter().filter(|t| lo.contains(t)).count();
            recall_hi += truth.iter().filter(|t| hi.contains(t)).count();
        }
        assert!(recall_hi >= recall_lo, "lo={recall_lo} hi={recall_hi}");
    }

    /// `idx.search` from a scratch no search has touched.
    fn fresh_search(idx: &HnswIndex, st: &Stored, q: &[f32], k: usize) -> Vec<(usize, f32)> {
        SCRATCH.set(SearchScratch::default());
        idx.search(q, k, 64, st.rows(), &st.inv, None)
    }

    #[test]
    fn an_epoch_wrap_clears_stale_marks() {
        let (idx, st) = build(300, 16);
        let q = pseudo_vec(31, 16);
        let expect = fresh_search(&idx, &st, &q, 10);
        // The last search ran at the final stamp. Every node carries that
        // stamp, the one the wrap restarts from, or the 0 of a node no
        // search has reached — each of which the next stamp must not be.
        let stale = (0..idx.len() as u32)
            .map(|n| [0, 1, u32::MAX][n as usize % 3])
            .collect();
        SCRATCH.set(SearchScratch {
            visited: stale,
            epoch: u32::MAX,
            ..SearchScratch::default()
        });
        assert_eq!(idx.search(&q, 10, 64, st.rows(), &st.inv, None), expect);
        let after = SCRATCH.take();
        assert_eq!(after.epoch, 1, "one search since the wrap");
        assert!(after.visited.iter().all(|&v| v <= 1));
    }

    #[test]
    fn interleaved_graphs_of_different_sizes_answer_as_fresh() {
        let (big, big_st) = build(700, 16);
        let (small, small_st) = build(40, 16);
        let queries: Vec<Vec<f32>> = (0..12).map(|i| pseudo_vec(90_000 + i, 16)).collect();
        let fresh: Vec<_> = queries
            .iter()
            .map(|q| {
                (
                    fresh_search(&big, &big_st, q, 10),
                    fresh_search(&small, &small_st, q, 10),
                )
            })
            .collect();
        // Small first, so the scratch grows mid-run, then alternating.
        for (q, (want_big, want_small)) in queries.iter().zip(&fresh) {
            let got_small = small.search(q, 10, 64, small_st.rows(), &small_st.inv, None);
            let got_big = big.search(q, 10, 64, big_st.rows(), &big_st.inv, None);
            assert_eq!(&got_small, want_small);
            assert_eq!(&got_big, want_big);
        }
    }

    #[test]
    fn a_panicking_accept_does_not_poison_the_next_search() {
        let (idx, st) = build(400, 16);
        let q = pseudo_vec(4_242, 16);
        let even = |o: usize| o.is_multiple_of(2);
        SCRATCH.set(SearchScratch::default());
        let expect = idx.search(&q, 10, 64, st.rows(), &st.inv, Some(&even));
        let calls = Cell::new(0);
        let explode = |o: usize| {
            calls.set(calls.get() + 1);
            assert!(calls.get() < 20, "accept gave up at node {o}");
            true
        };
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            idx.search(&q, 10, 64, st.rows(), &st.inv, Some(&explode))
        }));
        assert!(unwound.is_err());
        assert_eq!(
            idx.search(&q, 10, 64, st.rows(), &st.inv, Some(&even)),
            expect
        );
    }

    #[test]
    fn search_is_callable_from_many_threads_at_once() {
        let (idx, st) = build(500, 16);
        let queries: Vec<Vec<f32>> = (0..16).map(|i| pseudo_vec(60_000 + i, 16)).collect();
        let expect: Vec<_> = queries
            .iter()
            .map(|q| idx.search(q, 10, 64, st.rows(), &st.inv, None))
            .collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (idx, st, queries, expect) = (&idx, &st, &queries, &expect);
                scope.spawn(move || {
                    for round in 0..25 {
                        let i = (t * 7 + round) % queries.len();
                        let got = idx.search(&queries[i], 10, 64, st.rows(), &st.inv, None);
                        assert_eq!(got, expect[i], "thread {t} query {i}");
                    }
                });
            }
        });
    }
}
