//! The one executor of the filtering stage: a candidate source over one
//! collection.
//!
//! The paper's filtering step — top-k by embedding similarity among the
//! objects inside the query range — runs four ways ([`CandidateSource`]):
//! an exact scan or a filtered HNSW search of the collection itself, or
//! exact scoring of the candidates a uniform grid or an IR-tree finds in
//! the range. [`RetrievalBackend`] executes all four the same way:
//! *generate candidates once → score them against the collection*.
//!
//! - An index source is queried **once** per query group, and the
//!   live-inserted [`SidePoints`] in range are appended. Scan sources
//!   need no candidates: the collection filters itself.
//! - A shard process runs this very backend over its own slice of the
//!   collection (`vecdb::partition`) with indexes built over the whole
//!   dataset: [`vecdb::Collection::knn_among_batch`] skips candidate ids
//!   the slice does not hold, so each slice scores exactly the ids it
//!   owns, in candidate order, and [`vecdb::merge_top_k`] over every
//!   slice's answer reproduces the answer over the whole collection for
//!   the exact strategies.

use std::sync::Arc;

use geotext::{BoundingBox, ObjectId};
use spatial::{GridIndex, IrTree, SpatialKeywordQuery};
use vecdb::{CollectionHandle, Filter, ScoredPoint, SearchParams, SearchStrategy};

use crate::retrieval::{RetrievalError, RetrievalStrategy, SidePoints};

/// Where a strategy's candidates come from.
pub enum CandidateSource {
    /// Every point of the collection inside the range, scored exactly.
    ExactScan,
    /// The collection's HNSW graph, searched under a geo filter mask.
    FilteredHnsw,
    /// A uniform grid narrows candidates in O(cells); they are then
    /// scored exactly.
    Grid(Arc<GridIndex>),
    /// The spatial keyword index (Li et al., TKDE 2011); with an empty
    /// keyword set its traversal is an R-tree range query.
    IrTree(Arc<IrTree>),
}

fn geo_filter(range: &BoundingBox) -> Filter {
    Filter::geo_box(range.min_lat, range.min_lon, range.max_lat, range.max_lon)
}

/// One strategy of the filtering stage over one collection (see the
/// module docs).
///
/// **The one contract of [`RetrievalBackend::knn_in_range`]:** the answer
/// for query `i` — ids, scores, tie order — does not depend on the other
/// queries in the slice. Sharing work across the slice (one candidate
/// generation, one geo-mask evaluation, one pass over stored vectors via
/// the [`vecdb::Distance::score_batch`] kernel) is an execution detail,
/// never a semantics change; a single query is a slice of one.
pub struct RetrievalBackend {
    source: CandidateSource,
    collection: CollectionHandle,
    side: Arc<SidePoints>,
}

impl RetrievalBackend {
    /// A backend scoring `source`'s candidates against `collection`.
    /// Index sources additionally see the live-inserted points of
    /// `side`, which their frozen index cannot.
    #[must_use]
    pub fn new(
        source: CandidateSource,
        collection: CollectionHandle,
        side: Arc<SidePoints>,
    ) -> Self {
        Self {
            source,
            collection,
            side,
        }
    }

    /// Which strategy this backend implements.
    #[must_use]
    pub fn strategy(&self) -> RetrievalStrategy {
        match self.source {
            CandidateSource::ExactScan => RetrievalStrategy::ExactScan,
            CandidateSource::FilteredHnsw => RetrievalStrategy::FilteredHnsw,
            CandidateSource::Grid(_) => RetrievalStrategy::GridPrefilter,
            CandidateSource::IrTree(_) => RetrievalStrategy::IrTree,
        }
    }

    /// An index source's candidates in `range` — index hits, then live
    /// side points; `None` for the scan sources, whose collection
    /// filters itself.
    fn candidates(&self, range: &BoundingBox) -> Option<Vec<u64>> {
        let mut candidates = match &self.source {
            CandidateSource::ExactScan | CandidateSource::FilteredHnsw => return None,
            CandidateSource::Grid(grid) => grid.range_query(range),
            CandidateSource::IrTree(tree) => tree.search(&SpatialKeywordQuery {
                range: *range,
                keywords: String::new(),
            }),
        };
        candidates.extend(self.side.ids_in_range(range));
        Some(candidates.into_iter().map(|id| u64::from(id.0)).collect())
    }

    /// For every vector of `query_vecs`: the top-k objects by embedding
    /// similarity within `range`, best first — over an index source's
    /// candidates, or over the collection's own points in `range` (one
    /// geo-mask evaluation for the whole slice of queries inside
    /// [`vecdb::Collection::search_batch`]).
    ///
    /// # Errors
    /// [`RetrievalError::VecDb`] on store errors.
    pub fn knn_in_range(
        &self,
        query_vecs: &[&[f32]],
        range: &BoundingBox,
        k: usize,
        ef: Option<usize>,
    ) -> Result<Vec<Vec<ScoredPoint>>, RetrievalError> {
        let candidates = self.candidates(range);
        let collection = self.collection.read();
        if let Some(ids) = candidates {
            return Ok(collection.knn_among_batch(query_vecs, &ids, k)?);
        }
        let params = SearchParams {
            k,
            ef,
            filter: Some(geo_filter(range)),
            strategy: match self.source {
                CandidateSource::FilteredHnsw => SearchStrategy::Hnsw,
                _ => SearchStrategy::Exact,
            },
        };
        let planned = collection.search_batch(query_vecs, &params)?;
        Ok(planned.into_iter().map(|p| p.hits).collect())
    }

    /// Ids of all live objects within `range`, ascending — the pure
    /// spatial filter keyword-filtered queries intersect with.
    ///
    /// # Errors
    /// [`RetrievalError::VecDb`] on store errors.
    pub fn filter_range(&self, range: &BoundingBox) -> Result<Vec<ObjectId>, RetrievalError> {
        let candidates = self.candidates(range);
        let collection = self.collection.read();
        let mut ids = match candidates {
            // Only drop candidates deleted since the index was built.
            Some(mut ids) => {
                ids.retain(|&id| collection.contains(id));
                ids
            }
            // The graph accelerates similarity search, not pure range
            // filters: both scan sources answer with a position scan.
            None => collection.filter_ids(&geo_filter(range)),
        };
        ids.sort_unstable();
        Ok(ids.into_iter().map(|id| ObjectId(id as u32)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SemaSkConfig;
    use crate::cost::{Coefficients, CostModel};
    use crate::prep::prepare_city;
    use crate::retrieval::{PlannerConfig, QueryPlanner};
    use datagen::{poi::generate_city, CITIES};

    #[test]
    fn filter_range_is_the_union_of_slices() {
        let data = generate_city(&CITIES[2], 220, 33);
        let p = prepare_city(&data, &llm::SimLlm::new(), &SemaSkConfig::default()).unwrap();
        let whole = p.db.collection(&p.collection_name).unwrap();
        let config = PlannerConfig {
            cost_model: CostModel::Fixed(Coefficients::default()),
            online_updates: false,
        };
        let slices: Vec<QueryPlanner> = (0..4)
            .map(|shard| {
                let spec = vecdb::ShardSpec::new(4, shard).unwrap();
                let slice = vecdb::partition(&whole.read(), spec).unwrap();
                QueryPlanner::for_city(
                    Arc::clone(&p.dataset),
                    Arc::new(parking_lot::RwLock::new(slice)),
                    config,
                )
            })
            .collect();
        let range = geotext::BoundingBox::from_center_km(p.city.center(), 6.0, 6.0);
        for strategy in [
            RetrievalStrategy::ExactScan,
            RetrievalStrategy::FilteredHnsw,
            RetrievalStrategy::GridPrefilter,
            RetrievalStrategy::IrTree,
        ] {
            let expect = p.planner.backend(strategy).filter_range(&range).unwrap();
            assert!(!expect.is_empty());
            let mut got: Vec<ObjectId> = slices
                .iter()
                .flat_map(|s| s.backend(strategy).filter_range(&range).unwrap())
                .collect();
            got.sort_unstable();
            assert_eq!(got, expect, "strategy {strategy}");
        }
    }
}
