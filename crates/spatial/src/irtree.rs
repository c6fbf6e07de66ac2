//! The IR-tree: an R-tree whose nodes carry keyword summaries.
//!
//! Following Li et al., "IR-Tree: An Efficient Index for Geographic
//! Document Search" (TKDE 2011), cited by the paper as the archetypal
//! spatial keyword index: "The IR-tree adds an inverted index to each node
//! of an R-tree, to index all keywords appearing in the sub-tree of the
//! node."
//!
//! This implementation is a static (STR-packed) variant. Each node stores
//! the set of term ids appearing anywhere in its subtree, so an AND-query
//! can prune a whole subtree the moment one query term is missing. Leaf
//! entries store per-object term frequencies so results can be ranked by
//! TF-IDF.
//!
//! In the reproduction, the IR-tree plays the role of the *keyword
//! matching* search engine in the paper's Figure 1: it finds objects whose
//! text literally contains the query keywords — and misses the "Industry
//! Beans" cafés that never say "café".

use std::collections::{HashMap, HashSet};

use geotext::{BoundingBox, Dataset, GeoPoint, ObjectId};
use textindex::{TermId, Tokenizer, Vocabulary};

/// A spatial keyword query: a range plus conjunctive keywords.
#[derive(Debug, Clone)]
pub struct SpatialKeywordQuery {
    /// The spatial constraint.
    pub range: BoundingBox,
    /// Raw keyword text (tokenized by the tree's tokenizer).
    pub keywords: String,
}

#[derive(Debug, Clone)]
struct LeafEntry {
    id: ObjectId,
    point: GeoPoint,
    /// Term frequencies of the object's document.
    tf: HashMap<TermId, u32>,
}

#[derive(Debug)]
enum NodeKind {
    Leaf(Vec<LeafEntry>),
    Internal(Vec<usize>),
}

#[derive(Debug)]
struct Node {
    mbr: BoundingBox,
    kind: NodeKind,
    /// All terms appearing in this subtree — the per-node "inverted index"
    /// reduced to its pruning essence.
    terms: HashSet<TermId>,
}

/// A static IR-tree over a dataset's documents.
#[derive(Debug)]
pub struct IrTree {
    nodes: Vec<Node>,
    root: usize,
    vocab: Vocabulary,
    tokenizer: Tokenizer,
    doc_freq: HashMap<TermId, u32>,
    num_docs: usize,
    /// Node fan-out the tree was built with.
    pub fanout: usize,
}

impl IrTree {
    /// Builds an IR-tree from a dataset, indexing each object's full
    /// flattened document (`GeoTextObject::to_document`).
    #[must_use]
    pub fn build(dataset: &Dataset) -> Self {
        Self::build_with_fanout(dataset, 16)
    }

    /// Builds with an explicit node fan-out.
    #[must_use]
    pub fn build_with_fanout(dataset: &Dataset, fanout: usize) -> Self {
        let fanout = fanout.max(2);
        let tokenizer = Tokenizer::new();
        let mut vocab = Vocabulary::new();
        let mut doc_freq: HashMap<TermId, u32> = HashMap::new();

        let mut entries: Vec<LeafEntry> = Vec::with_capacity(dataset.len());
        for o in dataset.iter() {
            let mut tf: HashMap<TermId, u32> = HashMap::new();
            tokenizer.for_each_token(&o.to_document(), |t| {
                *tf.entry(vocab.intern(t)).or_insert(0) += 1;
            });
            for &t in tf.keys() {
                *doc_freq.entry(t).or_insert(0) += 1;
            }
            entries.push(LeafEntry {
                id: o.id,
                point: o.location,
                tf,
            });
        }
        let num_docs = entries.len();

        let mut tree = Self {
            nodes: Vec::new(),
            root: 0,
            vocab,
            tokenizer,
            doc_freq,
            num_docs,
            fanout,
        };
        if entries.is_empty() {
            tree.nodes.push(Node {
                mbr: BoundingBox {
                    min_lat: 0.0,
                    min_lon: 0.0,
                    max_lat: 0.0,
                    max_lon: 0.0,
                },
                kind: NodeKind::Leaf(Vec::new()),
                terms: HashSet::new(),
            });
            return tree;
        }

        // STR packing of leaf entries.
        let n = entries.len();
        let num_leaves = n.div_ceil(fanout);
        let num_slices = (num_leaves as f64).sqrt().ceil() as usize;
        let slice_size = n.div_ceil(num_slices);
        entries.sort_by(|a, b| {
            a.point
                .lon
                .partial_cmp(&b.point.lon)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut level: Vec<usize> = Vec::new();
        for slice in entries.chunks_mut(slice_size.max(1)) {
            slice.sort_by(|a, b| {
                a.point
                    .lat
                    .partial_cmp(&b.point.lat)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for run in slice.chunks(fanout) {
                let mbr = BoundingBox::enclosing(&run.iter().map(|e| e.point).collect::<Vec<_>>())
                    .expect("non-empty run");
                let mut terms = HashSet::new();
                for e in run {
                    terms.extend(e.tf.keys().copied());
                }
                tree.nodes.push(Node {
                    mbr,
                    kind: NodeKind::Leaf(run.to_vec()),
                    terms,
                });
                level.push(tree.nodes.len() - 1);
            }
        }

        // Pack internal levels; keyword sets are unions of children.
        while level.len() > 1 {
            let mut sorted = level.clone();
            sorted.sort_by(|&a, &b| {
                tree.nodes[a]
                    .mbr
                    .center()
                    .lon
                    .partial_cmp(&tree.nodes[b].mbr.center().lon)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let m = sorted.len();
            let num_parents = m.div_ceil(fanout);
            let num_slices = (num_parents as f64).sqrt().ceil() as usize;
            let slice_size = m.div_ceil(num_slices);
            let mut next = Vec::with_capacity(num_parents);
            for slice in sorted.chunks_mut(slice_size.max(1)) {
                slice.sort_by(|&a, &b| {
                    tree.nodes[a]
                        .mbr
                        .center()
                        .lat
                        .partial_cmp(&tree.nodes[b].mbr.center().lat)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for run in slice.chunks(fanout) {
                    let mut mbr = tree.nodes[run[0]].mbr;
                    let mut terms = HashSet::new();
                    for &c in run {
                        mbr.expand_to_box(&tree.nodes[c].mbr);
                        terms.extend(tree.nodes[c].terms.iter().copied());
                    }
                    tree.nodes.push(Node {
                        mbr,
                        kind: NodeKind::Internal(run.to_vec()),
                        terms,
                    });
                    next.push(tree.nodes.len() - 1);
                }
            }
            level = next;
        }
        tree.root = level[0];
        tree
    }

    /// Number of indexed objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.num_docs
    }

    /// Whether the tree indexes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_docs == 0
    }

    fn query_terms(&self, text: &str) -> Option<Vec<TermId>> {
        let tokens = self.tokenizer.tokenize(text);
        if tokens.is_empty() {
            return Some(Vec::new());
        }
        let mut terms = Vec::with_capacity(tokens.len());
        for t in &tokens {
            match self.vocab.get(t) {
                // A token absent from the whole corpus can never AND-match.
                None => return None,
                Some(id) => terms.push(id),
            }
        }
        terms.sort_unstable();
        terms.dedup();
        Some(terms)
    }

    /// Conjunctive spatial keyword search: objects inside the range whose
    /// documents contain *all* query keywords. This is the paper's
    /// "keyword matching process" baseline semantics.
    #[must_use]
    pub fn search(&self, query: &SpatialKeywordQuery) -> Vec<ObjectId> {
        let Some(terms) = self.query_terms(&query.keywords) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if !node.mbr.intersects(&query.range) {
                continue;
            }
            // Keyword pruning: every query term must occur in the subtree.
            if !terms.iter().all(|t| node.terms.contains(t)) {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    for e in entries {
                        if query.range.contains(&e.point)
                            && terms.iter().all(|t| e.tf.contains_key(t))
                        {
                            out.push(e.id);
                        }
                    }
                }
                NodeKind::Internal(children) => stack.extend(children.iter().copied()),
            }
        }
        out.sort_unstable();
        out
    }

    /// Top-k spatial keyword search: objects inside the range ranked by
    /// TF-IDF relevance to the keywords (disjunctive — any term may
    /// match), descending. The classic top-k variant of the IR-tree query.
    #[must_use]
    pub fn topk(&self, query: &SpatialKeywordQuery, k: usize) -> Vec<(ObjectId, f32)> {
        let tokens = self.tokenizer.tokenize(&query.keywords);
        let mut terms: Vec<TermId> = tokens.iter().filter_map(|t| self.vocab.get(t)).collect();
        terms.sort_unstable();
        terms.dedup();
        if terms.is_empty() || k == 0 {
            return Vec::new();
        }
        let n = self.num_docs as f32;
        let mut scored: Vec<(ObjectId, f32)> = Vec::new();
        let mut stack = vec![self.root];
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni];
            if !node.mbr.intersects(&query.range) {
                continue;
            }
            if !terms.iter().any(|t| node.terms.contains(t)) {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    for e in entries {
                        if !query.range.contains(&e.point) {
                            continue;
                        }
                        let mut s = 0.0f32;
                        for t in &terms {
                            if let Some(&tf) = e.tf.get(t) {
                                let df = self.doc_freq.get(t).copied().unwrap_or(0) as f32;
                                let idf = ((n + 1.0) / (df + 1.0)).ln() + 1.0;
                                s += tf as f32 * idf;
                            }
                        }
                        if s > 0.0 {
                            scored.push((e.id, s));
                        }
                    }
                }
                NodeKind::Internal(children) => stack.extend(children.iter().copied()),
            }
        }
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
    }
}

impl IrTree {
    /// The classic IR-tree top-k query of Li et al.: rank objects by a
    /// combined score `alpha * spatial_proximity + (1 - alpha) *
    /// text_relevance` to a query location and keywords, pruning subtrees
    /// with a best-first search over score upper bounds.
    ///
    /// `spatial_proximity = 1 - dist/max_dist` (clamped to `[0, 1]`) and
    /// `text_relevance` is TF-IDF normalised by the best possible score
    /// for the query.
    #[must_use]
    pub fn topk_ranked(
        &self,
        query_point: &GeoPoint,
        keywords: &str,
        k: usize,
        alpha: f64,
        max_dist_km: f64,
    ) -> Vec<(ObjectId, f64)> {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        let tokens = {
            let mut t: Vec<TermId> = self
                .tokenizer
                .tokenize(keywords)
                .iter()
                .filter_map(|w| self.vocab.get(w))
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        if k == 0 || self.num_docs == 0 {
            return Vec::new();
        }
        let n = self.num_docs as f32;
        // Normalisation: the best possible text score (tf capped at 3 per
        // term, the usual saturation assumption for bounds).
        let idf = |t: &TermId| {
            ((n + 1.0) / (self.doc_freq.get(t).copied().unwrap_or(0) as f32 + 1.0)).ln() + 1.0
        };
        let max_text: f32 = tokens.iter().map(|t| 3.0 * idf(t)).sum::<f32>().max(1e-6);

        struct Cand {
            bound: f64,
            node: usize,
        }
        impl PartialEq for Cand {
            fn eq(&self, other: &Self) -> bool {
                self.bound == other.bound
            }
        }
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> Ordering {
                self.bound
                    .partial_cmp(&other.bound)
                    .unwrap_or(Ordering::Equal)
            }
        }

        let node_bound = |node: &Node| -> f64 {
            let d = node.mbr.min_distance_km(query_point);
            let spatial = (1.0 - d / max_dist_km).clamp(0.0, 1.0);
            // Text bound: 1 if any query term occurs in the subtree (it
            // could reach the maximal normalised score), else 0.
            let text: f64 = if tokens.iter().any(|t| node.terms.contains(t)) {
                1.0
            } else {
                0.0
            };
            alpha * spatial + (1.0 - alpha) * text
        };

        let mut heap: BinaryHeap<Cand> = BinaryHeap::new();
        heap.push(Cand {
            bound: node_bound(&self.nodes[self.root]),
            node: self.root,
        });
        let mut results: Vec<(ObjectId, f64)> = Vec::new();
        let mut kth_score = f64::NEG_INFINITY;

        while let Some(Cand { bound, node }) = heap.pop() {
            if results.len() >= k && bound <= kth_score {
                break; // no unexplored subtree can beat the current top-k
            }
            match &self.nodes[node].kind {
                NodeKind::Internal(children) => {
                    for &c in children {
                        let b = node_bound(&self.nodes[c]);
                        if results.len() < k || b > kth_score {
                            heap.push(Cand { bound: b, node: c });
                        }
                    }
                }
                NodeKind::Leaf(entries) => {
                    for e in entries {
                        let d = query_point.haversine_km(&e.point);
                        let spatial = (1.0 - d / max_dist_km).clamp(0.0, 1.0);
                        let text: f32 = tokens
                            .iter()
                            .filter_map(|t| e.tf.get(t).map(|&tf| (tf.min(3)) as f32 * idf(t)))
                            .sum();
                        let score = alpha * spatial + (1.0 - alpha) * f64::from(text / max_text);
                        results.push((e.id, score));
                    }
                    results.sort_by(|a, b| {
                        b.1.partial_cmp(&a.1)
                            .unwrap_or(Ordering::Equal)
                            .then(a.0.cmp(&b.0))
                    });
                    results.truncate(k);
                    if results.len() == k {
                        kth_score = results[k - 1].1;
                    }
                }
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotext::GeoTextObject;

    fn dataset() -> Dataset {
        let mut d = Dataset::new("cafes");
        let mk = |id: ObjectId, lat: f64, lon: f64, name: &str, text: &str| {
            GeoTextObject::builder(id, GeoPoint::new(lat, lon).unwrap())
                .attr("name", name)
                .attr("tips", vec![text.to_owned()])
                .build()
                .unwrap()
        };
        d.push(|id| {
            mk(
                id,
                -37.810,
                144.960,
                "Melbourne Cafe Co",
                "cozy cafe with great coffee",
            )
        });
        d.push(|id| {
            mk(
                id,
                -37.811,
                144.961,
                "Industry Beans",
                "amazing flat white and brunch",
            )
        });
        d.push(|id| {
            mk(
                id,
                -37.812,
                144.962,
                "Starbucks",
                "usual coffee chain drinks",
            )
        });
        d.push(|id| {
            mk(
                id,
                -37.813,
                144.963,
                "CBD Sports Bar",
                "watch footy with beers",
            )
        });
        d.push(|id| {
            mk(
                id,
                -37.990,
                145.200,
                "Far Away Cafe",
                "a cafe far outside the cbd",
            )
        });
        d
    }

    fn cbd_range() -> BoundingBox {
        BoundingBox::new(-37.82, 144.95, -37.80, 144.97).unwrap()
    }

    #[test]
    fn keyword_and_search_finds_literal_matches_only() {
        let t = IrTree::build(&dataset());
        let q = SpatialKeywordQuery {
            range: cbd_range(),
            keywords: "cafe".to_owned(),
        };
        // Only the POI literally containing "cafe" in the range is found —
        // Industry Beans and Starbucks are missed (the Figure 1 problem).
        assert_eq!(t.search(&q), vec![ObjectId(0)]);
    }

    #[test]
    fn range_prunes_far_objects() {
        let t = IrTree::build(&dataset());
        let q = SpatialKeywordQuery {
            range: cbd_range(),
            keywords: "cafe".to_owned(),
        };
        let hits = t.search(&q);
        assert!(!hits.contains(&ObjectId(4))); // Far Away Cafe outside range
    }

    #[test]
    fn conjunction_requires_all_terms() {
        let t = IrTree::build(&dataset());
        let q = SpatialKeywordQuery {
            range: cbd_range(),
            keywords: "cozy coffee".to_owned(),
        };
        assert_eq!(t.search(&q), vec![ObjectId(0)]);
        let q2 = SpatialKeywordQuery {
            range: cbd_range(),
            keywords: "cozy footy".to_owned(),
        };
        assert!(t.search(&q2).is_empty());
    }

    #[test]
    fn unknown_keyword_matches_nothing() {
        let t = IrTree::build(&dataset());
        let q = SpatialKeywordQuery {
            range: cbd_range(),
            keywords: "sushi".to_owned(),
        };
        assert!(t.search(&q).is_empty());
    }

    #[test]
    fn empty_keywords_matches_all_in_range() {
        let t = IrTree::build(&dataset());
        let q = SpatialKeywordQuery {
            range: cbd_range(),
            keywords: "".to_owned(),
        };
        assert_eq!(t.search(&q).len(), 4);
    }

    #[test]
    fn topk_ranks_by_relevance() {
        let t = IrTree::build(&dataset());
        let q = SpatialKeywordQuery {
            range: cbd_range(),
            keywords: "coffee cafe".to_owned(),
        };
        let r = t.topk(&q, 3);
        assert!(!r.is_empty());
        assert_eq!(r[0].0, ObjectId(0)); // matches both terms
        assert!(r.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn large_dataset_search_matches_bruteforce() {
        let mut d = Dataset::new("big");
        for i in 0..500u32 {
            let lat = 40.0 + (i / 25) as f64 * 0.002;
            let lon = -75.0 + (i % 25) as f64 * 0.002;
            let text = if i % 7 == 0 {
                "pizza pasta"
            } else {
                "burgers fries"
            };
            d.push(|id| {
                GeoTextObject::builder(id, GeoPoint::new(lat, lon).unwrap())
                    .attr("name", format!("poi-{i}"))
                    .attr("tips", vec![text.to_owned()])
                    .build()
                    .unwrap()
            });
        }
        let t = IrTree::build(&d);
        let range = BoundingBox::new(40.004, -74.98, 40.03, -74.955).unwrap();
        let q = SpatialKeywordQuery {
            range,
            keywords: "pizza".to_owned(),
        };
        let got = t.search(&q);
        let want: Vec<ObjectId> = d
            .iter()
            .filter(|o| range.contains(&o.location) && o.to_document().contains("pizza"))
            .map(|o| o.id)
            .collect();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn topk_ranked_trades_distance_for_relevance() {
        let t = IrTree::build(&dataset());
        let q = GeoPoint::new(-37.810, 144.960).unwrap(); // at Melbourne Cafe Co
                                                          // Pure spatial (alpha = 1): nearest POI first regardless of text.
        let spatial = t.topk_ranked(&q, "coffee", 3, 1.0, 10.0);
        assert_eq!(spatial[0].0, ObjectId(0));
        // Pure textual (alpha = 0): the strongest "coffee" match wins even
        // if it is not nearest.
        let textual = t.topk_ranked(&q, "coffee", 3, 0.0, 10.0);
        let doc0 = &dataset();
        let top_doc = doc0.get(textual[0].0).unwrap().to_document().to_lowercase();
        assert!(top_doc.contains("coffee"));
        // Scores are sorted descending.
        assert!(spatial.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(textual.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn topk_ranked_matches_bruteforce_on_large_data() {
        let mut d = Dataset::new("big");
        for i in 0..400u32 {
            let lat = 40.0 + (i / 20) as f64 * 0.003;
            let lon = -75.0 + (i % 20) as f64 * 0.003;
            let text = if i % 5 == 0 {
                "coffee espresso"
            } else {
                "burgers fries"
            };
            d.push(|id| {
                GeoTextObject::builder(id, GeoPoint::new(lat, lon).unwrap())
                    .attr("name", format!("poi-{i}"))
                    .attr("tips", vec![text.to_owned()])
                    .build()
                    .unwrap()
            });
        }
        let t = IrTree::build(&d);
        let q = GeoPoint::new(40.03, -74.97).unwrap();
        let got = t.topk_ranked(&q, "coffee", 10, 0.5, 10.0);
        assert_eq!(got.len(), 10);
        // Best-first pruning must agree with exhaustive scoring on the
        // top score.
        let all = t.topk_ranked(&q, "coffee", 400, 0.5, 10.0);
        assert_eq!(got[0].0, all[0].0);
        for (g, a) in got.iter().zip(all.iter().take(10)) {
            assert!((g.1 - a.1).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new("empty");
        let t = IrTree::build(&d);
        assert!(t.is_empty());
        let q = SpatialKeywordQuery {
            range: cbd_range(),
            keywords: "cafe".to_owned(),
        };
        assert!(t.search(&q).is_empty());
        assert!(t.topk(&q, 5).is_empty());
    }
}
