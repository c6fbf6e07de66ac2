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
use llm::{ChatRequest, LlmError, ModelKind, SimLlm};
use vecdb::{Collection, CollectionConfig, VecDbError, VectorDb};

use crate::config::SemaSkConfig;
use crate::retrieval::{PlannedRetrieval, QueryPlanner, RetrievalError};

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
    /// Each base object's display name by dense id ([`name_column`]):
    /// what answers name a POI with, shared rather than copied. Built
    /// beside the dataset when it is prepared or loaded, never
    /// persisted, and outside the collection; a POI the overlay holds
    /// takes its name from the overlay's object instead.
    pub(crate) names: Vec<Arc<str>>,
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
    pub(crate) fn embedding_text_with(obj: &GeoTextObject, raw_tips: bool) -> String {
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
}

/// The name column of `dataset`: each object's [`GeoTextObject::name`],
/// by dense id.
#[must_use]
pub(crate) fn name_column(dataset: &Dataset) -> Vec<Arc<str>> {
    dataset.iter().map(|obj| Arc::from(obj.name())).collect()
}

/// Runs the full preparation pipeline for one generated city: each base
/// POI is enriched (address completion and tip summarization, the step
/// every live insert goes through too) and embedded in one
/// [`vecdb::pool::global`] fan-out, and the vectors go into the
/// collection in id order on the caller. (In the real system the fan-out
/// corresponds to issuing concurrent API calls during offline
/// preparation.)
pub fn prepare_city(
    data: &CityData,
    llm: &SimLlm,
    config: &SemaSkConfig,
) -> Result<PreparedCity, PrepError> {
    // The collection first: a configuration it refuses (dimension 0)
    // fails before any POI is summarized.
    let embedder = SemanticEmbedder::new(config.embedder.clone());
    let db = VectorDb::new();
    let collection_name = format!("pois-{}", data.city.key);
    let handle = db.add_collection(
        &collection_name,
        Collection::new(CollectionConfig {
            dim: embedder.dim(),
            scoring_tier: config.scoring_tier,
            ..CollectionConfig::new(embedder.dim())
        }),
    )?;
    let geocoder = ReverseGeocoder::for_city(&data.city);

    let base = data.dataset.objects();
    let enriched = vecdb::pool::global().run(base.len(), |i| {
        let mut obj = base[i].clone();
        enrich(&mut obj, &geocoder, llm, config.summarize_model)?;
        let text = PreparedCity::embedding_text_with(&obj, config.embed_raw_tips);
        let vector = embedder.embed(&text);
        Ok::<_, PrepError>((obj, vector))
    });
    // HNSW insertion stays sequential: it is the index's mutation path.
    let mut dataset = Dataset::new(data.dataset.name.clone());
    {
        let mut collection = handle.write();
        for result in enriched {
            let (obj, vector) = result?;
            collection.insert(
                u64::from(obj.id.0),
                vector,
                (obj.location.lat, obj.location.lon),
            )?;
            dataset.push(|_| obj);
        }
    }

    let dataset = Arc::new(dataset);
    let planner = QueryPlanner::for_city(Arc::clone(&dataset), handle, config.planner);
    let live = crate::live::LiveState::new(dataset.len() as u32);
    let names = name_column(&dataset);

    Ok(PreparedCity {
        city: data.city,
        dataset,
        db,
        collection_name,
        embedder,
        geocoder,
        planner,
        live,
        names,
    })
}

/// [`prepare_city`] with a thread count that is read nowhere: the
/// shared pool sizes preparation's fan-out. Kept only because
/// `ledger/src/sut.rs:240` calls it; leaves with the next benchmark PR
/// (ROADMAP 8(d)).
#[deprecated(note = "`threads` is read nowhere: call `prepare_city`")]
pub fn prepare_city_with_threads(
    data: &CityData,
    llm: &SimLlm,
    config: &SemaSkConfig,
    _threads: usize,
) -> Result<PreparedCity, PrepError> {
    prepare_city(data, llm, config)
}

/// Steps 1 and 2 for one POI — what every stored object goes through,
/// a base object in [`prepare_city`] and a live insert alike: its
/// reverse-geocoded `county`, `suburb` and `neighborhood`, then its
/// `tip_summary` ([`summarize`]).
pub(crate) fn enrich(
    obj: &mut GeoTextObject,
    geocoder: &ReverseGeocoder,
    llm: &SimLlm,
    model: ModelKind,
) -> Result<(), LlmError> {
    let addr = geocoder.locate(&obj.location);
    obj.attrs.set("county", addr.county);
    obj.attrs.set("suburb", addr.suburb);
    obj.attrs.set("neighborhood", addr.neighborhood);
    summarize(obj, llm, model)
}

/// Step 2 for one POI: its `tip_summary`, the paper's summarization
/// prompt over the object's own `tips`, or a fixed sentence when it has
/// none (no LLM call). A live update that replaces the tips runs this
/// half alone.
pub(crate) fn summarize(
    obj: &mut GeoTextObject,
    llm: &SimLlm,
    model: ModelKind,
) -> Result<(), LlmError> {
    let tips = obj.attrs.get("tips").and_then(|v| v.as_list());
    let summary = match tips {
        Some(tips) if !tips.is_empty() => {
            llm.complete(&ChatRequest::user(model, summarize_prompt(tips)))?
                .content
        }
        _ => String::from("No customer feedback available."),
    };
    obj.attrs.set("tip_summary", summary);
    Ok(())
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
