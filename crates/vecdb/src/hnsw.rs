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
//! keep their capacity from one search to the next. A node taken from
//! the beam has its unvisited neighbours collected first and scored
//! `ROWS` to a kernel call ([`Distance::distance_normed_rows`], each
//! distance the one-row call's bit for bit); the heaps then take them in
//! link order, as they would one at a time.
//!
//! # Graph arena
//!
//! All lists of one cap live in one `Lists` arena: layer 0's (cap
//! `m0`, list `n` is node `n`'s) and, in a second arena, the upper
//! layers' (cap `m`), reached through a side table of where each node's
//! first upper list is — a node's level is how many it has. An arena
//! gives every list the same stride: a length slot and `stride` link
//! slots, with `stride` distance slots and a selected-run length beside
//! them in parallel arenas. The stride follows the longest list so far,
//! doubling as lists grow until it reaches the cap; a graph read back
//! from a snapshot starts at its longest stored list, so what loading
//! allocates follows the file's contents, never a cap it declares.
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
//!   link from the node in its distance slots and the length of the
//!   first run. Re-running the heuristic over that list (stable-sorted
//!   by distance) reproduces exactly those verdicts.
//! * **Tie order.** The list and the newcomer `x` are stable-sorted by
//!   distance from the stored order with `x` last, so among equal
//!   distances selected links come before kept-pruned ones before `x`.
//!   The two stored runs are already ascending, so that sort is a merge
//!   of the runs with `x` placed behind every link no farther than it;
//!   only a NaN distance, which no merge can order as the sort does,
//!   sends a list through the sort itself.
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
//!   the arena's no-state mark (`NO_STATE` for a selected-run length).
//!   Its first overflow recomputes every node → link distance and runs
//!   `select_neighbors` from scratch, which leaves it in the shape above
//!   for good: a full list never shrinks.
//!
//! Both routes produce the same links in the same stored order; the
//! resumed one needs one distance for the newcomer instead of
//! `m_max + 1`, and a handful of heuristic comparisons instead of a few
//! hundred. Both run in per-thread scratch and allocate nothing.
//!
//! # Planned inserts
//!
//! An insert reads the whole graph and changes little of it: the new
//! node's lists and, per link it takes, one back-link — a push onto a
//! list under its cap or a re-selected list. [`HnswIndex::plan_insert`]
//! computes all of that through `&self`, so a writer can plan under a
//! read lock while searches go on, and [`HnswIndex::apply`] makes it so
//! under the write lock. A plan is a list of edits over two buffers
//! (links and distances, every written list one after another): a push,
//! or a list to copy into its arena slots. A re-selection that leaves a
//! full list as it was — the newcomer pruned, and no closer than the
//! kept-pruned links it would have displaced — records no edit at all.
//! Planning reads each layer before any of that layer's edits, exactly
//! as an in-place insert would: no search reaches the new node (nothing
//! links to it yet), and each edit replaces one list computed from that
//! list alone. So a plan applied to the graph it was made on is the
//! in-place insert, link for link. A plan records the offset it was made
//! for; once another node has been inserted it is stale, and `apply`
//! refuses it.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::codec::{corrupt, Reader, Writer};
use crate::distance::{inv_norm, Distance, ROWS};
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
    pub(crate) fn validate(&self) -> Result<(), VecDbError> {
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

/// The selected-run length of a list that carries no selection state
/// (module docs, "Restart").
const NO_STATE: u32 = u32::MAX;

/// Every list of one cap, in fixed-stride arenas (module docs, "Graph
/// arena"). A list with selection state is `[selected, ascending by
/// distance from its node] ++ [kept-pruned, ascending]`, equal distances
/// ordered selected before kept-pruned before a newcomer. Lists are
/// independent: a re-selection reads the vectors and the list's own
/// cached distances, never another list.
#[derive(Debug, Clone)]
struct Lists {
    /// The most links a list may hold: `m0` on layer 0, `m` above.
    cap: usize,
    /// Link and distance slots per list: at least the longest list's
    /// length, at most `cap`.
    stride: usize,
    /// Per list, its length and then `stride` link slots (node offsets).
    links: Vec<u32>,
    /// Per list, `stride` slots: the distance from the list's node to
    /// each link, computed node-first. Meaningful only beside a
    /// selected-run length.
    dists: Vec<f32>,
    /// Per list, the length of its selected run, or [`NO_STATE`].
    selected: Vec<u32>,
}

impl Lists {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            stride: 0,
            links: Vec::new(),
            dists: Vec::new(),
            selected: Vec::new(),
        }
    }

    /// Number of lists.
    fn len(&self) -> usize {
        self.selected.len()
    }

    /// List `i`'s length slot and its link slots.
    fn slots_mut(&mut self, i: usize) -> &mut [u32] {
        let width = self.stride + 1;
        &mut self.links[i * width..(i + 1) * width]
    }

    /// List `i`'s links.
    fn links(&self, i: usize) -> &[u32] {
        let at = i * (self.stride + 1);
        &self.links[at + 1..at + 1 + self.links[at] as usize]
    }

    /// List `i`'s cached distances and selected-run length, if it
    /// carries selection state.
    fn state(&self, i: usize) -> Option<(&[f32], usize)> {
        let selected = self.selected[i];
        (selected != NO_STATE).then(|| {
            let at = i * self.stride;
            (&self.dists[at..at + self.links(i).len()], selected as usize)
        })
    }

    /// Appends `count` empty lists without state.
    fn extend(&mut self, count: usize) {
        let lists = self.len() + count;
        self.links.resize(lists * (self.stride + 1), 0);
        self.dists.resize(lists * self.stride, 0.0);
        self.selected.resize(lists, NO_STATE);
    }

    /// Widens every list's slots to hold `len` links: the stride doubles
    /// (at least), up to the cap.
    fn make_room(&mut self, len: usize) {
        if len <= self.stride {
            return;
        }
        debug_assert!(len <= self.cap, "a list past its cap");
        let (old, stride) = (self.stride, len.max(2 * self.stride).min(self.cap));
        let mut links = vec![0; self.len() * (stride + 1)];
        let mut dists = vec![0.0; self.len() * stride];
        for i in 0..self.len() {
            links[i * (stride + 1)..][..=old].copy_from_slice(&self.links[i * (old + 1)..][..=old]);
            dists[i * stride..][..old].copy_from_slice(&self.dists[i * old..][..old]);
        }
        (self.stride, self.links, self.dists) = (stride, links, dists);
    }

    /// Appends `link` to list `i`, which drops its selection state.
    fn push(&mut self, i: usize, link: u32) {
        let len = self.links(i).len();
        self.make_room(len + 1);
        let slots = self.slots_mut(i);
        slots[0] += 1;
        slots[1 + len] = link;
        self.selected[i] = NO_STATE;
    }

    /// Makes list `i` `links`, with their distances and the length of
    /// their selected run.
    fn set(&mut self, i: usize, links: &[u32], dists: &[f32], selected: usize) {
        self.make_room(links.len());
        let slots = self.slots_mut(i);
        slots[0] = links.len() as u32;
        slots[1..=links.len()].copy_from_slice(links);
        self.dists[i * self.stride..][..dists.len()].copy_from_slice(dists);
        self.selected[i] = selected as u32;
    }
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
    /// The links of every list a [`Edit::Set`] writes, one after another.
    links: Vec<u32>,
    /// Their distances from the list's node, aligned with `links`.
    dists: Vec<f32>,
    /// The new node's lists and the back-links, layer by layer from the
    /// top.
    edits: Vec<Edit>,
}

/// One list an [`InsertPlan`] writes.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// The new node goes onto `node`'s list on `layer`, under its cap.
    Push { layer: usize, node: usize },
    /// `node`'s list on `layer` becomes the plan's `links[start..end]`
    /// (and `dists` alike), `selected` of them selected.
    Set {
        layer: usize,
        node: usize,
        start: usize,
        end: usize,
        selected: usize,
    },
}

impl InsertPlan {
    /// The offset the plan was made for. It is stale once the graph no
    /// longer has that many nodes.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Records Algorithm 4's answer as `node`'s list on `layer`: the
    /// selected links, topped up to `m` from the skipped ones
    /// (`keepPrunedConnections`); both arrive ascending by distance.
    /// Returns where its links start in `self.links`.
    fn set(&mut self, layer: usize, node: usize, verdicts: &Verdicts, m: usize) -> usize {
        let start = self.links.len();
        for &(d, n) in verdicts.list(m) {
            self.links.push(n as u32);
            self.dists.push(d);
        }
        self.edits.push(Edit::Set {
            layer,
            node,
            start,
            end: self.links.len(),
            selected: verdicts.selected.len(),
        });
        start
    }
}

/// The verdicts of one neighbour selection, as `(distance, node)` in the
/// order they were reached.
#[derive(Default)]
struct Verdicts {
    selected: Vec<(f32, usize)>,
    skipped: Vec<(f32, usize)>,
}

impl Verdicts {
    fn clear(&mut self) {
        self.selected.clear();
        self.skipped.clear();
    }

    /// The list the verdicts make: the selected links, then the first
    /// skipped ones up to `m` in all.
    fn list(&self, m: usize) -> impl Iterator<Item = &(f32, usize)> {
        let kept = m
            .saturating_sub(self.selected.len())
            .min(self.skipped.len());
        self.selected.iter().chain(&self.skipped[..kept])
    }

    /// Whether the verdicts make exactly the stored list `links` with
    /// its first `selected` selected.
    fn remake(&self, m: usize, links: &[u32], selected: usize) -> bool {
        self.selected.len() == selected
            && self.list(m).count() == links.len()
            && self.list(m).zip(links).all(|(&(_, n), &l)| n == l as usize)
    }
}

/// A neighbour selection's working set, reused by every insert planned
/// on its thread.
#[derive(Default)]
struct SelectScratch {
    /// A restarted list's candidates, ascending by distance.
    cands: Vec<(f32, usize)>,
    /// A resumed list's candidates: `(distance, node, selected last
    /// time)`, in the tie order.
    order: Vec<(f32, usize, bool)>,
    verdicts: Verdicts,
}

thread_local! {
    /// This thread's [`SelectScratch`], taken by a plan for its length.
    static SELECT: Cell<SelectScratch> = Cell::default();
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
    /// The unvisited neighbours of the node being expanded, and their
    /// distances from the query.
    fresh: Vec<u32>,
    scores: Vec<f32>,
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

/// Whether `dists` is ascending with no NaN: a run a merge can order as
/// the stable sort does.
fn ascending(dists: &[f32]) -> bool {
    dists.iter().all(|d| !d.is_nan()) && dists.windows(2).all(|w| w[0] <= w[1])
}

/// An HNSW graph over externally-stored vectors.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    config: HnswConfig,
    distance: Distance,
    /// Layer 0: list `n` is node `n`'s.
    layer0: Lists,
    /// Layers ≥ 1: node `n`'s list on layer `l` is list
    /// `upper_first[n] + l - 1`.
    upper: Lists,
    /// Where each node's upper lists start, and one past the last node's:
    /// node `n` has `upper_first[n + 1] - upper_first[n]` of them, its
    /// level.
    upper_first: Vec<usize>,
    entry: Option<usize>,
    top_level: usize,
}

impl HnswIndex {
    /// An empty index.
    #[must_use]
    pub fn new(distance: Distance, config: HnswConfig) -> Self {
        Self {
            layer0: Lists::new(config.m0),
            upper: Lists::new(config.m),
            upper_first: vec![0],
            config,
            distance,
            entry: None,
            top_level: 0,
        }
    }

    /// Number of indexed nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layer0.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// Highest layer node `n` appears on.
    fn level(&self, n: usize) -> usize {
        self.upper_first[n + 1] - self.upper_first[n]
    }

    /// The arena holding node `n`'s list on `layer`, and its index there.
    fn list(&self, n: usize, layer: usize) -> (&Lists, usize) {
        match layer {
            0 => (&self.layer0, n),
            _ => (&self.upper, self.upper_first[n] + layer - 1),
        }
    }

    fn list_mut(&mut self, n: usize, layer: usize) -> (&mut Lists, usize) {
        match layer {
            0 => (&mut self.layer0, n),
            _ => (&mut self.upper, self.upper_first[n] + layer - 1),
        }
    }

    /// Node `n`'s links on `layer`.
    fn links(&self, n: usize, layer: usize) -> &[u32] {
        let (lists, i) = self.list(n, layer);
        lists.links(i)
    }

    /// Appends the graph to a snapshot section: `entry` (`u32::MAX` for
    /// an empty graph), `top_level`, the node count, then per node its
    /// `level` and, for each layer `0..=level`, a neighbour count and
    /// that many node offsets — all `u32` little-endian. Parameters and
    /// metric are not stored: they are the owning collection's.
    pub(crate) fn pack(&self, w: &mut Writer) {
        w.u32(self.entry.map_or(NO_ENTRY, |e| e as u32));
        w.u32(self.top_level as u32);
        w.u32(self.len() as u32);
        for n in 0..self.len() {
            w.u32(self.level(n) as u32);
            for layer in 0..=self.level(n) {
                let links = self.links(n, layer);
                w.u32(links.len() as u32);
                w.u32s(links);
            }
        }
    }

    /// Reads back what [`HnswIndex::pack`] wrote and checks that a
    /// search can follow every link: each neighbour names an existing
    /// node that has the layer it is linked on, no list is longer than
    /// its cap, and the entry point is a node whose level is
    /// `top_level`. The lists come back without selection state; each
    /// restarts its selection on its first overflow (module docs).
    ///
    /// The section is read twice: once for each node's level and the
    /// longest list of each arena, then — with the arenas sized by
    /// those, and refused if either would take more than `budget`
    /// bytes (the snapshot the section came from) — for the links.
    pub(crate) fn unpack(
        r: Reader<'_>,
        distance: Distance,
        config: HnswConfig,
        budget: usize,
    ) -> Result<Self, VecDbError> {
        let mut idx = Self::new(distance, config);
        let mut shape = r;
        let entry = shape.u32()?;
        let top_level = shape.u32()? as usize;
        let count = shape.u32()? as usize;
        // Every node takes at least its level and one layer count.
        if count > shape.remaining() / 8 {
            return Err(corrupt(format!("{count} graph nodes declared")));
        }
        idx.upper_first.reserve_exact(count);
        let (mut uppers, mut longest) = (0, [0usize; 2]);
        for _ in 0..count {
            let level = shape.u32()? as usize;
            if level >= shape.remaining() / 4 {
                return Err(corrupt(format!("node level {level} declared")));
            }
            for layer in 0..=level {
                let len = shape.u32()? as usize;
                shape.take(len.saturating_mul(4))?;
                let (arena, cap) = match layer {
                    0 => (0, idx.config.m0),
                    _ => (1, idx.config.m),
                };
                if len > cap {
                    return Err(corrupt(format!(
                        "a list of {len} links, past its cap {cap}"
                    )));
                }
                longest[arena] = longest[arena].max(len);
            }
            uppers += level;
            idx.upper_first.push(uppers);
        }
        shape.finish()?;
        let lists = [count, uppers];
        if (0..2).any(|a| lists[a].saturating_mul(longest[a] + 1).saturating_mul(4) > budget) {
            return Err(corrupt("a graph whose arena outgrows its snapshot"));
        }
        for (arena, (&count, &stride)) in [&mut idx.layer0, &mut idx.upper]
            .into_iter()
            .zip(lists.iter().zip(&longest))
        {
            arena.stride = stride;
            arena.extend(count);
        }

        let mut r = r;
        r.take(12)?;
        for n in 0..count {
            r.u32()?;
            for layer in 0..=idx.level(n) {
                let len = r.u32()? as usize;
                let bytes = r.take(len * 4)?;
                let (lists, i) = idx.list_mut(n, layer);
                let slots = lists.slots_mut(i);
                slots[0] = len as u32;
                for (slot, word) in slots[1..].iter_mut().zip(bytes.chunks_exact(4)) {
                    *slot = u32::from_le_bytes(word.try_into().expect("chunks_exact yields 4"));
                }
            }
        }
        for n in 0..count {
            for layer in 0..=idx.level(n) {
                let dangling = |&t: &u32| t as usize >= count || idx.level(t as usize) < layer;
                if idx.links(n, layer).iter().any(dangling) {
                    return Err(corrupt("graph link to a node or layer that does not exist"));
                }
            }
        }
        idx.entry = match entry as usize {
            e if e < count && idx.level(e) == top_level => Some(e),
            _ if entry == NO_ENTRY && count == 0 && top_level == 0 => None,
            _ => return Err(corrupt("graph entry point does not match its nodes")),
        };
        idx.top_level = top_level;
        Ok(idx)
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
        debug_assert_eq!(offset, self.len(), "insert offsets must be dense");
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
        let offset = self.len();
        let level = self.gen_level(offset);
        let mut plan = InsertPlan {
            offset,
            level,
            links: Vec::new(),
            dists: Vec::new(),
            edits: Vec::new(),
        };
        let Some(ep) = self.entry else {
            return plan;
        };
        let q_inv = inv_norm(row);
        let vectors = Vectors {
            rows,
            inv_norms,
            new: (offset, row, q_inv),
        };

        // Greedy descent through layers above the new node's level.
        let d = self
            .distance
            .distance_normed(row, q_inv, rows.row(ep), inv_norms[ep]);
        let mut ep = (d, ep);
        let mut l = self.top_level;
        while l > level {
            ep = self.greedy_closest(row, q_inv, ep, l, rows, inv_norms);
            l -= 1;
        }

        // Beam search + connect from min(level, top_level) down to 0.
        // No search reaches the new node: nothing links to it before the
        // plan is applied, just as nothing did while the in-place insert
        // searched the layers below the one it had linked.
        let mut scratch = SELECT.take();
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
            let m_max = self.list(0, layer).0.cap;
            // `cands` holds the distances from `row`, which is this
            // node's vector, so its list is born with its selection state.
            self.select_neighbors(&cands, m_max, vectors, &mut scratch.verdicts);
            let first = plan.set(layer, offset, &scratch.verdicts, m_max);
            for i in first..plan.links.len() {
                let n = plan.links[i] as usize;
                if self.links(n, layer).len() < m_max {
                    plan.edits.push(Edit::Push { layer, node: n });
                } else {
                    self.reselect(n, layer, offset, m_max, vectors, &mut scratch, &mut plan);
                }
            }
            eps = if cands.is_empty() { vec![ep] } else { cands };
        }
        SELECT.set(scratch);
        plan
    }

    /// Makes `plan` so: the new node with its lists, every back-link
    /// edit, and the entry point if the node tops the graph.
    ///
    /// # Panics
    /// If the plan is stale — made for another offset than
    /// `self.len()`, because a node was inserted since.
    pub fn apply(&mut self, plan: InsertPlan) {
        let offset = plan.offset;
        assert_eq!(offset, self.len(), "a stale insert plan");
        self.layer0.extend(1);
        self.upper.extend(plan.level);
        self.upper_first.push(self.upper_first[offset] + plan.level);
        for &edit in &plan.edits {
            match edit {
                Edit::Push { layer, node } => {
                    let (lists, i) = self.list_mut(node, layer);
                    lists.push(i, offset as u32);
                }
                Edit::Set {
                    layer,
                    node,
                    start,
                    end,
                    selected,
                } => {
                    let (lists, i) = self.list_mut(node, layer);
                    lists.set(
                        i,
                        &plan.links[start..end],
                        &plan.dists[start..end],
                        selected,
                    );
                }
            }
        }
        if self.entry.is_none() || plan.level > self.top_level {
            self.top_level = plan.level;
            self.entry = Some(offset);
        }
    }

    /// The back-link `x` arrives on `node`'s full list on `layer`: the
    /// `m_max` of the `m_max + 1` it keeps — resuming the list's last
    /// selection if it carries one, restarting it otherwise (module
    /// docs) — recorded in `plan` unless it is the list as it stands.
    #[allow(clippy::too_many_arguments)]
    fn reselect(
        &self,
        node: usize,
        layer: usize,
        x: usize,
        m_max: usize,
        vectors: Vectors<'_>,
        scratch: &mut SelectScratch,
        plan: &mut InsertPlan,
    ) {
        let (v, v_inv) = vectors.row(node);
        // Node-first, as every cached distance is: the cosine kernel
        // multiplies by the two inverse norms in argument order.
        let from_node = |n: usize| {
            let (row, inv) = vectors.row(n);
            self.distance.distance_normed(v, v_inv, row, inv)
        };
        let (lists, i) = self.list(node, layer);
        let links = lists.links(i);
        let SelectScratch {
            cands,
            order,
            verdicts,
        } = scratch;
        if let Some((dists, selected)) = lists.state(i) {
            self.resume_selection(
                links,
                dists,
                selected,
                (from_node(x), x),
                m_max,
                vectors,
                order,
                verdicts,
            );
            if verdicts.remake(m_max, links, selected) {
                return;
            }
        } else {
            cands.clear();
            cands.extend(links.iter().map(|&n| (from_node(n as usize), n as usize)));
            cands.push((from_node(x), x));
            cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
            self.select_neighbors(cands, m_max, vectors, verdicts);
        }
        plan.set(layer, node, verdicts, m_max);
    }

    /// [`HnswIndex::select_neighbors`] over a stored list — `links`, the
    /// first `selected` of them selected last time, at `dists` — and the
    /// newcomer `x`, spending comparisons only where `x` can change a
    /// verdict of the selection that produced the list (module docs).
    #[allow(clippy::too_many_arguments)]
    fn resume_selection(
        &self,
        links: &[u32],
        dists: &[f32],
        selected: usize,
        x: (f32, usize),
        m: usize,
        vectors: Vectors<'_>,
        order: &mut Vec<(f32, usize, bool)>,
        verdicts: &mut Verdicts,
    ) {
        /// What a stored link's old verdict is still worth.
        enum Stage {
            /// It stands: every selected link so far was selected then.
            Stands,
            /// `x` joined the selected links and nothing else changed.
            PlusX,
            /// A selected link was demoted; old verdicts say nothing.
            Void,
        }
        // The candidates in the tie order: the stable sort of
        // `[selected ++ kept-pruned ++ x]` by distance.
        order.clear();
        let stored = |i: usize| (dists[i], links[i] as usize, i < selected);
        let newcomer = (x.0, x.1, false);
        let (runs, len) = (dists.split_at(selected), links.len());
        if ascending(runs.0) && ascending(runs.1) && !x.0.is_nan() {
            let (mut a, mut b) = (0, selected);
            let mut pending = true;
            while a < selected || b < len {
                let next = if a < selected && (b == len || dists[a] <= dists[b]) {
                    a += 1;
                    a - 1
                } else {
                    b += 1;
                    b - 1
                };
                if pending && x.0 < dists[next] {
                    order.push(newcomer);
                    pending = false;
                }
                order.push(stored(next));
            }
            if pending {
                order.push(newcomer);
            }
        } else {
            order.extend((0..len).map(stored));
            order.push(newcomer);
            order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        }

        verdicts.clear();
        let mut stage = Stage::Stands;
        for &(d, c, was_selected) in order.iter() {
            if verdicts.selected.len() >= m {
                break;
            }
            let dominated = if c == x.1 {
                let dominated = self.dominated((d, c), &verdicts.selected, vectors);
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
                    Stage::Void => self.dominated((d, c), &verdicts.selected, vectors),
                }
            };
            if dominated {
                verdicts.skipped.push((d, c));
            } else {
                verdicts.selected.push((d, c));
            }
        }
    }

    /// Greedy single-entry descent on one layer from `ep`, at distance
    /// `ep.0` from the query: the closest node it reaches, with its
    /// distance.
    fn greedy_closest(
        &self,
        q: &[f32],
        q_inv: f32,
        (mut best, mut ep): (f32, usize),
        layer: usize,
        rows: Rows<'_>,
        inv_norms: &[f32],
    ) -> (f32, usize) {
        loop {
            let mut improved = false;
            for &n in self.links(ep, layer) {
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
                return (best, ep);
            }
        }
    }

    /// Beam search on one layer from `eps`, each at its distance from
    /// the query. Returns up to `ef` nodes sorted by distance ascending.
    /// `accept` restricts which nodes may enter the *result* set (the
    /// graph is still traversed through non-matching nodes, the standard
    /// filtered-HNSW strategy).
    #[allow(clippy::too_many_arguments)]
    fn search_layer(
        &self,
        q: &[f32],
        q_inv: f32,
        eps: &[(f32, usize)],
        ef: usize,
        layer: usize,
        rows: Rows<'_>,
        inv_norms: &[f32],
        accept: Option<&dyn Fn(usize) -> bool>,
    ) -> Vec<(f32, usize)> {
        let mut s = SCRATCH.take();
        s.begin(self.len());
        for &(d, ep) in eps {
            if !s.visit(ep) {
                continue;
            }
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
            s.fresh.clear();
            for &n in self.links(c, layer) {
                if s.visit(n as usize) {
                    s.fresh.push(n);
                }
            }
            self.score(q, q_inv, &s.fresh, rows, inv_norms, &mut s.scores);
            for (&n, &dn) in s.fresh.iter().zip(&s.scores) {
                let n = n as usize;
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

    /// The distance from the query to each of `nodes`, into `out`:
    /// [`ROWS`] to a kernel call, the rest one at a time — every one
    /// [`Distance::distance_normed`]'s, bit for bit.
    fn score(
        &self,
        q: &[f32],
        q_inv: f32,
        nodes: &[u32],
        rows: Rows<'_>,
        inv_norms: &[f32],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        let mut chunks = nodes.chunks_exact(ROWS);
        for chunk in &mut chunks {
            let n = |r: usize| chunk[r] as usize;
            out.extend(self.distance.distance_normed_rows(
                q,
                q_inv,
                std::array::from_fn(|r| rows.row(n(r))),
                std::array::from_fn(|r| inv_norms[n(r)]),
            ));
        }
        for &n in chunks.remainder() {
            let n = n as usize;
            out.push(
                self.distance
                    .distance_normed(q, q_inv, rows.row(n), inv_norms[n]),
            );
        }
    }

    /// Heuristic neighbour selection (Algorithm 4 of the paper): prefer
    /// candidates that are closer to the query than to any already
    /// selected neighbour, which keeps links spread out. `cands` arrive
    /// ascending by distance from the query.
    fn select_neighbors(
        &self,
        cands: &[(f32, usize)],
        m: usize,
        vectors: Vectors<'_>,
        verdicts: &mut Verdicts,
    ) {
        verdicts.clear();
        for &(d, c) in cands {
            if verdicts.selected.len() >= m {
                break;
            }
            if self.dominated((d, c), &verdicts.selected, vectors) {
                verdicts.skipped.push((d, c));
            } else {
                verdicts.selected.push((d, c));
            }
        }
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
        let Some(ep) = self.entry else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new();
        }
        let q_inv = inv_norm(q);
        let d = self
            .distance
            .distance_normed(q, q_inv, rows.row(ep), inv_norms[ep]);
        let mut ep = (d, ep);
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

    /// The graph's snapshot section, as plain bytes.
    fn packed(idx: &HnswIndex) -> Vec<u8> {
        let mut w = crate::codec::Writer::plain(0);
        idx.pack(&mut w);
        w.into_bytes()
    }

    /// The graph over `vectors` as shipped (`restart == false`), or as
    /// the reference that never resumes: every list takes the arena's
    /// no-state mark before every insert — what `pack` → `unpack` does
    /// to it — so each overflow recomputes every node → link distance,
    /// stable-sorts stored order + newcomer and runs `select_neighbors`
    /// from scratch.
    fn grown(st: &Stored, distance: Distance, config: &HnswConfig, restart: bool) -> HnswIndex {
        let mut idx = HnswIndex::new(distance, config.clone());
        for i in 0..st.vectors.len() {
            if restart {
                idx.layer0.selected.fill(NO_STATE);
                idx.upper.selected.fill(NO_STATE);
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

    /// The graph `packed` wrote, read back: every list without state.
    fn reloaded(idx: &HnswIndex) -> HnswIndex {
        let bytes = packed(idx);
        let graph = crate::codec::Reader::over(&bytes);
        HnswIndex::unpack(graph, idx.distance, idx.config.clone(), usize::MAX).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// Saved ≡ never saved: a graph read back from its snapshot
        /// section — a stride of its longest list, every list restarting
        /// — and then grown further is the graph that was never saved,
        /// link for link.
        #[test]
        fn a_reloaded_graph_keeps_inserting_as_the_never_saved_one(
            n in 2usize..=300,
            cut in 0.0f64..1.0,
            shape in (0usize..3, 0usize..3, 0usize..3),
            seed in 0u64..u64::MAX,
        ) {
            let (dim, metric, kind) = shape;
            let dim = [2, 8, 64][dim];
            let distance = [Distance::Cosine, Distance::Dot, Distance::Euclid][metric];
            let config = HnswConfig { m: 4, m0: 8, ef_construction: 40, seed };
            let st = Stored::new(pool(kind, n, dim, seed));
            let saved_at = 1 + ((n - 1) as f64 * cut) as usize;
            let mut kept = HnswIndex::new(distance, config);
            for i in 0..saved_at {
                kept.insert(i, st.rows(), &st.inv);
            }
            let mut loaded = reloaded(&kept);
            proptest::prop_assert!(packed(&loaded) == packed(&kept));
            proptest::prop_assert!(loaded.layer0.selected.iter().all(|&s| s == NO_STATE));
            for i in saved_at..n {
                kept.insert(i, st.rows(), &st.inv);
                loaded.insert(i, st.rows(), &st.inv);
            }
            proptest::prop_assert!(packed(&loaded) == packed(&kept));
        }
    }

    #[test]
    fn a_back_link_the_newcomer_leaves_unchanged_records_no_edit() {
        // P's list is A, B, C selected and E kept-pruned (as in the
        // demotion test below). Y, far out past A, links to P, but from
        // P it sits behind A (A prunes it) and behind E, the one
        // kept-pruned link that fits: P's list stays as it is.
        let [a, b, c, e, p, y] = [0usize, 1, 2, 3, 4, 5];
        let st = Stored::new(vec![
            vec![-1.0, 0.0],
            vec![-0.3, 1.2],
            vec![2.0, 0.0],
            vec![2.2, 1.0],
            vec![0.0, 0.0],
            vec![-3.0, 0.0],
        ]);
        let config = HnswConfig {
            m: 4,
            m0: 4,
            ..HnswConfig::default()
        };
        let mut idx = HnswIndex::new(Distance::Euclid, config.clone());
        for i in 0..y {
            idx.insert(i, st.rows(), &st.inv);
        }
        let before = (
            idx.links(p, 0).to_vec(),
            idx.layer0.state(p).map(|(_, s)| s),
        );
        assert_eq!(before, ([a, b, c, e].map(|n| n as u32).to_vec(), Some(3)));

        let plan = idx.plan_insert(&st.vectors[y], st.rows(), &st.inv);
        let own = plan.edits.iter().find_map(|edit| match *edit {
            Edit::Set {
                layer: 0,
                node,
                start,
                end,
                ..
            } if node == y => Some(start..end),
            _ => None,
        });
        assert!(
            plan.links[own.unwrap()].contains(&(p as u32)),
            "Y links to P"
        );
        let touches_p = |edit: &Edit| match *edit {
            Edit::Push { layer, node } | Edit::Set { layer, node, .. } => (layer, node) == (0, p),
        };
        assert!(!plan.edits.iter().any(touches_p), "{:?}", plan.edits);

        idx.apply(plan);
        let after = (
            idx.links(p, 0).to_vec(),
            idx.layer0.state(p).map(|(_, s)| s),
        );
        assert_eq!(after, before);
        assert!(packed(&idx) == packed(&grown(&st, Distance::Euclid, &config, true)));
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
        assert_eq!(idx.links(p, 0), [a, b, c, e].map(|n| n as u32));
        let state = idx.layer0.state(p).map(|(d, s)| (s, d.len()));
        assert_eq!(state, Some((3, 4)), "born with state");

        idx.insert(x, st.rows(), &st.inv);
        assert_eq!(idx.links(p, 0), [a, b, x, e].map(|n| n as u32));
        let selected = idx.layer0.state(p).map(|(_, s)| s);
        assert_eq!(selected, Some(4), "E is selected again, C is gone");
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
