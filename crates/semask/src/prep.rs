//! The data-preparation module (paper Section 3.1).
//!
//! Three steps, in the paper's order:
//!
//! 1. **Address completion** — reverse-geocode each POI's coordinates to
//!    fill in county, suburb, and neighborhood.
//! 2. **Tip summarization** — prompt the (simulated) GPT-3.5 Turbo with
//!    the paper's summarization prompt; store the ~55-token summary.
//! 3. **Embedding generation** — embed "POI name, address, categories,
//!    hours, and tip summary" and store the vectors in the vector
//!    database, each beside its POI's position.

use std::fmt;
use std::sync::Arc;

use datagen::{CityData, ReverseGeocoder};
use embed::{Embedder, SemanticEmbedder};
use geotext::{Dataset, GeoTextObject};
use llm::prompts::summarize_prompt;
use llm::{ChatRequest, LlmError, SimLlm};
use vecdb::{CollectionConfig, VecDbError, VectorDb};

use crate::config::SemaSkConfig;
use crate::retrieval::{PlannedQuery, PlannedRetrieval, QueryPlanner, RetrievalError};

/// Errors from the preparation pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PrepError {
    /// Vector database failure.
    VecDb(VecDbError),
    /// LLM failure.
    Llm(LlmError),
}

impl fmt::Display for PrepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrepError::VecDb(e) => write!(f, "vector db: {e}"),
            PrepError::Llm(e) => write!(f, "llm: {e}"),
        }
    }
}

impl std::error::Error for PrepError {}

impl From<VecDbError> for PrepError {
    fn from(e: VecDbError) -> Self {
        PrepError::VecDb(e)
    }
}

impl From<LlmError> for PrepError {
    fn from(e: LlmError) -> Self {
        PrepError::Llm(e)
    }
}

/// A city after data preparation: the enriched dataset plus its vector
/// collection, ready for query processing.
pub struct PreparedCity {
    /// City metadata.
    pub city: datagen::City,
    /// Dataset with completed addresses and tip summaries attached
    /// (shared with the planner's lazily built indexes).
    pub dataset: Arc<Dataset>,
    /// The vector database holding the POI embeddings.
    pub db: VectorDb,
    /// Name of the collection inside [`PreparedCity::db`].
    pub collection_name: String,
    /// The embedding model (also used for queries online).
    pub embedder: SemanticEmbedder,
    /// The reverse geocoder (drives the demo's suburb selector).
    pub geocoder: ReverseGeocoder,
    /// The cost-based planner over the retrieval backends; every
    /// consumer of the filtering stage goes through it.
    pub planner: QueryPlanner,
    /// Live-mutation state: the query/writer gate, the published
    /// overlay, the mutation epoch, and the applied-WAL watermark.
    pub live: crate::live::LiveState,
}

impl PreparedCity {
    /// Embedding input text for a POI — exactly the paper's field list:
    /// "the POI name, address, categories, hours, and tip summary".
    #[must_use]
    pub fn embedding_text(obj: &GeoTextObject) -> String {
        Self::embedding_text_with(obj, false)
    }

    /// Embedding input with the raw-tips ablation toggle: when
    /// `raw_tips` is true, the raw tips replace the tip summary (used by
    /// the `ablation` bench to quantify the summarization step).
    #[must_use]
    pub fn embedding_text_with(obj: &GeoTextObject, raw_tips: bool) -> String {
        let last = if raw_tips { "tips" } else { "tip_summary" };
        let mut parts: Vec<String> = Vec::with_capacity(6);
        for key in ["name", "address", "suburb", "categories", "hours", last] {
            if let Some(v) = obj.attrs.get(key) {
                parts.push(format!("{key}: {v}"));
            }
        }
        parts.join("\n")
    }

    /// The filtering step for one query: top-k by embedding similarity
    /// among in-range objects — with `keywords`, only those whose
    /// documents contain **all** of them — strategy chosen by the query
    /// planner and reported in the result (see
    /// [`QueryPlanner::retrieve_keyword`]).
    pub fn filtered_knn_keyword(
        &self,
        query_vec: &[f32],
        range: &geotext::BoundingBox,
        keywords: Option<&str>,
        k: usize,
        ef: Option<usize>,
    ) -> Result<PlannedRetrieval, RetrievalError> {
        self.planner
            .retrieve_keyword(query_vec, range, keywords, k, ef)
    }

    /// The filtering step for many queries: plans once per distinct
    /// range group, shares candidate sets across the group, and scores
    /// the group through the single-pass kernel. Results align with
    /// `queries` (see [`QueryPlanner::retrieve_batch`]).
    pub fn filtered_knn_batch(
        &self,
        queries: &[PlannedQuery],
    ) -> Result<Vec<PlannedRetrieval>, RetrievalError> {
        self.planner.retrieve_batch(queries)
    }
}

/// Runs the full preparation pipeline for one generated city.
pub fn prepare_city(
    data: &CityData,
    llm: &SimLlm,
    config: &SemaSkConfig,
) -> Result<PreparedCity, PrepError> {
    prepare_city_with_threads(data, llm, config, 1)
}

/// Like [`prepare_city`], with the per-POI work (reverse geocoding, LLM
/// summarization, embedding computation) fanned out over `threads` OS
/// threads. The result is bit-identical to the sequential pipeline; only
/// wall-clock prep time changes. (In the real system this corresponds to
/// issuing concurrent API calls during offline preparation.)
pub fn prepare_city_with_threads(
    data: &CityData,
    llm: &SimLlm,
    config: &SemaSkConfig,
    threads: usize,
) -> Result<PreparedCity, PrepError> {
    let threads = threads.max(1);
    // The collection first: a configuration it refuses (dimension 0)
    // fails before any POI is summarized.
    let embedder = SemanticEmbedder::new(config.embedder.clone());
    let db = VectorDb::new();
    let collection_name = format!("pois-{}", data.city.key);
    let handle = db.create_collection(
        &collection_name,
        CollectionConfig {
            dim: embedder.dim(),
            scoring_tier: config.scoring_tier,
            ..CollectionConfig::new(embedder.dim())
        },
    )?;
    let geocoder = ReverseGeocoder::for_city(&data.city);
    let mut dataset = data.dataset.clone();
    let n = dataset.len();

    // Step 1 + 2 (parallel): per-POI address completion + summarization.
    // Each worker fills a disjoint slice of the results.
    let mut enrich: Vec<Option<(datagen::Address, String)>> = vec![None; n];
    let chunk = n.div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (w, slot_chunk) in enrich.chunks_mut(chunk).enumerate() {
            let dataset = &dataset;
            let geocoder = &geocoder;
            let handle = scope.spawn(move || -> Result<(), PrepError> {
                for (j, slot) in slot_chunk.iter_mut().enumerate() {
                    let idx = w * chunk + j;
                    let obj = &dataset.objects()[idx];
                    let addr = geocoder.locate(&obj.location);
                    let tips: Vec<String> = obj
                        .attrs
                        .get("tips")
                        .and_then(|v| v.as_list())
                        .map(<[String]>::to_vec)
                        .unwrap_or_default();
                    let summary = if tips.is_empty() {
                        String::from("No customer feedback available.")
                    } else {
                        let req =
                            ChatRequest::user(config.summarize_model, summarize_prompt(&tips));
                        llm.complete(&req)?.content
                    };
                    *slot = Some((addr, summary));
                }
                Ok(())
            });
            handles.push(handle);
        }
        for h in handles {
            h.join().expect("prep worker panicked")?;
        }
        Ok::<(), PrepError>(())
    })?;

    for (idx, slot) in enrich.into_iter().enumerate() {
        let (addr, summary) = slot.expect("every slot filled");
        let obj = dataset
            .get_mut(geotext::ObjectId(idx as u32))
            .expect("dense ids");
        obj.attrs.set("county", addr.county);
        obj.attrs.set("suburb", addr.suburb);
        obj.attrs.set("neighborhood", addr.neighborhood);
        obj.attrs.set("tip_summary", summary);
    }

    // Step 3: embedding generation into the vector database.
    // Embedding vectors computed in parallel; HNSW insertion stays
    // sequential (it is the index's mutation path).
    let mut vectors: Vec<Option<Vec<f32>>> = vec![None; n];
    std::thread::scope(|scope| {
        for (w, slot_chunk) in vectors.chunks_mut(chunk).enumerate() {
            let dataset = &dataset;
            let embedder = &embedder;
            scope.spawn(move || {
                for (j, slot) in slot_chunk.iter_mut().enumerate() {
                    let obj = &dataset.objects()[w * chunk + j];
                    let text = PreparedCity::embedding_text_with(obj, config.embed_raw_tips);
                    *slot = Some(embedder.embed(&text));
                }
            });
        }
    });
    {
        let mut collection = handle.write();
        for (obj, vector) in dataset.iter().zip(vectors) {
            collection.insert(
                u64::from(obj.id.0),
                vector.expect("every vector computed"),
                (obj.location.lat, obj.location.lon),
            )?;
        }
    }

    let dataset = Arc::new(dataset);
    let planner = QueryPlanner::for_city(Arc::clone(&dataset), handle, config.planner);
    let live = crate::live::LiveState::new(dataset.len() as u32);

    Ok(PreparedCity {
        city: data.city,
        dataset,
        db,
        collection_name,
        embedder,
        geocoder,
        planner,
        live,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{poi::generate_city, CITIES};

    fn prepared() -> PreparedCity {
        let data = generate_city(&CITIES[1], 60, 9);
        let llm = SimLlm::new();
        prepare_city(&data, &llm, &SemaSkConfig::default()).unwrap()
    }

    #[test]
    fn prep_attaches_addresses_and_summaries() {
        let p = prepared();
        for obj in p.dataset.iter() {
            assert!(obj.attrs.get_text("suburb").is_some());
            assert!(obj.attrs.get_text("county").is_some());
            assert!(obj.attrs.get_text("neighborhood").is_some());
            let summary = obj.attrs.get_text("tip_summary").unwrap();
            assert!(!summary.is_empty());
        }
    }

    #[test]
    fn prep_fills_vector_collection() {
        let p = prepared();
        let c = p.db.collection(&p.collection_name).unwrap();
        assert_eq!(c.read().len(), p.dataset.len());
    }

    #[test]
    fn embedding_text_uses_paper_fields() {
        let p = prepared();
        let obj = &p.dataset.objects()[0];
        let t = PreparedCity::embedding_text(obj);
        assert!(t.contains("name: "));
        assert!(t.contains("categories: "));
        assert!(t.contains("tip_summary: "));
        // Raw tips are NOT in the embedding input (the paper embeds the
        // summary, not the raw tips).
        assert!(!t.contains("tips: "));
    }

    #[test]
    fn filtered_knn_respects_range() {
        let p = prepared();
        let center = p.city.center();
        let range = geotext::BoundingBox::from_center_km(center, 5.0, 5.0);
        let qv = p.embedder.embed("coffee");
        let planned = p.filtered_knn_keyword(&qv, &range, None, 10, None).unwrap();
        for h in &planned.hits {
            let obj = &p.dataset.objects()[h.id as usize];
            assert!(range.contains(&obj.location));
        }
    }

    #[test]
    fn memory_tier_knobs_reach_the_collection() {
        let data = generate_city(&CITIES[3], 80, 21);
        let llm = SimLlm::new();
        let tiered = prepare_city(
            &data,
            &llm,
            &SemaSkConfig {
                scoring_tier: vecdb::ScoringTier::Quantized { rerank_factor: 4 },
                ..SemaSkConfig::default()
            },
        )
        .unwrap();
        let c = tiered.db.collection(&tiered.collection_name).unwrap();
        let guard = c.read();
        // The forced tier built the quantized store, and each point sits
        // at its POI's position and holds nothing else beside its vector.
        let footprint = guard.memory_footprint();
        assert!(footprint.quant_bytes > 0);
        assert_eq!(footprint.payload_bytes, 16 * tiered.dataset.len());
        for (id, _, (lat, lon)) in guard.iter_points() {
            let obj = &tiered.dataset.objects()[id as usize];
            assert_eq!((lat, lon), (obj.location.lat, obj.location.lon));
        }
        drop(guard);
        // Retrieval still respects the range under the tier.
        let center = tiered.city.center();
        let range = geotext::BoundingBox::from_center_km(center, 5.0, 5.0);
        let qv = tiered.embedder.embed("coffee");
        let planned = tiered
            .filtered_knn_keyword(&qv, &range, None, 10, None)
            .unwrap();
        for h in planned.hits {
            let obj = &tiered.dataset.objects()[h.id as usize];
            assert!(range.contains(&obj.location));
        }
    }

    /// `compress_payload_text` is read nowhere: a city prepared with it
    /// set is the city prepared without it, snapshot byte for byte and
    /// footprint for footprint.
    #[test]
    #[allow(deprecated)]
    fn the_compress_payload_text_residue_changes_nothing() {
        let data = generate_city(&CITIES[3], 80, 21);
        let llm = SimLlm::new();
        let mut snapshots = Vec::new();
        for compress_payload_text in [true, false] {
            let config = SemaSkConfig {
                compress_payload_text,
                ..SemaSkConfig::default()
            };
            let p = prepare_city(&data, &llm, &config).unwrap();
            let footprint =
                p.db.collection(&p.collection_name)
                    .unwrap()
                    .read()
                    .memory_footprint();
            let dir = std::env::temp_dir().join(format!(
                "semask_prep_residue_{compress_payload_text}_{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            crate::persist::save_prepared(&p, &dir).unwrap();
            let bytes = std::fs::read(dir.join("snap-0")).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            snapshots.push((bytes, footprint));
        }
        assert_eq!(snapshots[0].1, snapshots[1].1);
        assert!(snapshots[0].0 == snapshots[1].0, "the snapshots differ");
    }

    /// A zero-dimension embedder would prepare a world whose every score
    /// is 0; it is a start-up error, on either scoring tier.
    #[test]
    fn a_zero_dimension_embedder_refuses_to_prepare() {
        let data = generate_city(&CITIES[0], 12, 3);
        let llm = SimLlm::new();
        for scoring_tier in [
            vecdb::ScoringTier::Full,
            vecdb::ScoringTier::Quantized { rerank_factor: 4 },
        ] {
            let mut config = SemaSkConfig {
                scoring_tier,
                ..SemaSkConfig::default()
            };
            config.embedder.dim = 0;
            let refused = prepare_city(&data, &llm, &config).err();
            assert!(
                matches!(
                    refused,
                    Some(PrepError::VecDb(VecDbError::InvalidConfig { .. }))
                ),
                "{scoring_tier:?}: {refused:?}"
            );
        }
        assert_eq!(llm.cost_log().num_calls(), 0, "refused before summarizing");
    }

    #[test]
    fn summaries_cost_was_metered() {
        let data = generate_city(&CITIES[0], 10, 3);
        let llm = SimLlm::new();
        let _ = prepare_city(&data, &llm, &SemaSkConfig::default()).unwrap();
        let log = llm.cost_log();
        assert_eq!(log.num_calls(), 10);
        assert!(log.total_cost_usd() > 0.0);
    }
}
