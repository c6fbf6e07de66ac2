//! The IR-tree: an R-tree whose nodes carry keyword summaries.
//!
//! Following Li et al., "IR-Tree: An Efficient Index for Geographic
//! Document Search" (TKDE 2011), cited by the paper as the archetypal
//! spatial keyword index: "The IR-tree adds an inverted index to each node
//! of an R-tree, to index all keywords appearing in the sub-tree of the
//! node."
//!
//! This implementation is a static (STR-packed) variant that answers one
//! query, the conjunctive range query [`IrTree::search`]; it has no top-k.
//! Each node stores the set of term ids appearing anywhere in its subtree,
//! so an AND-query can prune a whole subtree the moment one query term is
//! missing, and each leaf entry keeps its object's distinct term ids,
//! sorted.
//!
//! In the reproduction, the IR-tree plays the role of the *keyword
//! matching* search engine in the paper's Figure 1: it finds objects whose
//! text literally contains the query keywords — and misses the "Industry
//! Beans" cafés that never say "café".

use std::collections::HashSet;

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
    /// The distinct term ids of the object's document, ascending.
    terms: Vec<TermId>,
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

        let mut entries: Vec<LeafEntry> = Vec::with_capacity(dataset.len());
        for o in dataset.iter() {
            let mut terms = Vec::new();
            tokenizer.for_each_token(&o.to_document(), |t| terms.push(vocab.intern(t)));
            terms.sort_unstable();
            terms.dedup();
            entries.push(LeafEntry {
                id: o.id,
                point: o.location,
                terms,
            });
        }
        let num_docs = entries.len();

        let mut tree = Self {
            nodes: Vec::new(),
            root: 0,
            vocab,
            tokenizer,
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
                    terms.extend(e.terms.iter().copied());
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

    /// The distinct term ids of `text`'s tokens, or `None` when some
    /// token is absent from the whole corpus and can never AND-match.
    fn query_terms(&self, text: &str) -> Option<Vec<TermId>> {
        let mut terms = Vec::new();
        let mut known = true;
        self.tokenizer
            .for_each_token(text, |t| match self.vocab.get(t) {
                Some(id) => terms.push(id),
                None => known = false,
            });
        terms.sort_unstable();
        terms.dedup();
        known.then_some(terms)
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
                            && terms.iter().all(|t| e.terms.binary_search(t).is_ok())
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
    fn empty_dataset() {
        let d = Dataset::new("empty");
        let t = IrTree::build(&d);
        assert!(t.is_empty());
        let q = SpatialKeywordQuery {
            range: cbd_range(),
            keywords: "cafe".to_owned(),
        };
        assert!(t.search(&q).is_empty());
    }
}
