//! Query and result types.

use std::fmt;
use std::sync::Arc;

use geotext::{BoundingBox, ObjectId};

use crate::cost::StrategyCost;
use crate::retrieval::RetrievalStrategy;

/// A semantics-aware spatial keyword query: a range `q.r` plus a
/// natural-language textual constraint `q.T`, optionally hardened with
/// a conjunctive keyword filter.
#[derive(Debug, Clone)]
pub struct SemaSkQuery {
    /// The spatial constraint.
    pub range: BoundingBox,
    /// The textual constraint, e.g. *"I am looking for a bar to watch
    /// football that also serves delicious chicken."*
    pub text: String,
    /// Optional conjunctive keyword filter: only POIs whose documents
    /// literally contain **all** these terms qualify for the filtering
    /// stage (the classic spatial-keyword semantics), read from the live
    /// corpus postings: postings-first for rare keywords, intersected
    /// with the grid's candidates for common ones.
    pub keywords: Option<String>,
}

impl SemaSkQuery {
    /// Creates a query with no keyword filter.
    #[must_use]
    pub fn new(range: BoundingBox, text: impl Into<String>) -> Self {
        Self {
            range,
            text: text.into(),
            keywords: None,
        }
    }

    /// Builder-style conjunctive keyword filter.
    #[must_use]
    pub fn with_keywords(mut self, keywords: impl Into<String>) -> Self {
        self.keywords = Some(keywords.into());
        self
    }
}

/// One POI in a query outcome.
#[derive(Debug, Clone)]
pub struct RankedPoi {
    /// The POI.
    pub id: ObjectId,
    /// Display name, shared with the engine's name column (or, for a
    /// POI inserted or updated since the base was prepared, with its
    /// live object's name): cloning an outcome copies a refcount, not
    /// the text.
    pub name: Arc<str>,
    /// Embedding similarity from the filtering step.
    pub embed_score: f32,
    /// Whether the LLM recommended it (green marker in the demo UI).
    /// `true` for every candidate in the SemaSK-EM variant.
    pub recommended: bool,
    /// Why it is in the outcome (the demo's click-a-marker panel);
    /// renders with [`fmt::Display`].
    pub reason: Reason,
}

/// Why a POI is in an outcome. Only the LLM's own reason holds text;
/// the two fixed reasons render theirs on demand.
#[derive(Debug, Clone, PartialEq)]
pub enum Reason {
    /// SemaSK-EM: retrieved by embedding similarity, nothing refined.
    /// `score` is the POI's [`RankedPoi::embed_score`]; the wire carries
    /// it once, as that field. Renders as
    /// `Retrieved by embedding similarity (score 0.873).`
    Embedding {
        /// The embedding similarity, rendered to three decimals.
        score: f32,
    },
    /// A candidate the LLM left out of its answer (a blue marker).
    /// Renders as `Fetched by embedding similarity but judged not
    /// relevant by the LLM.`
    NotRelevant,
    /// The LLM's reason for recommending the POI, verbatim.
    Model(String),
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reason::Embedding { score } => {
                write!(f, "Retrieved by embedding similarity (score {score:.3}).")
            }
            Reason::NotRelevant => {
                f.write_str("Fetched by embedding similarity but judged not relevant by the LLM.")
            }
            Reason::Model(text) => f.write_str(text),
        }
    }
}

/// Per-stage latency of one query.
#[derive(Debug, Clone, Default)]
pub struct LatencyBreakdown {
    /// Measured wall-clock time of the filtering step in milliseconds
    /// (range filter + embedding + ANN search).
    pub filtering_ms: f64,
    /// The retrieval-only share of [`LatencyBreakdown::filtering_ms`]
    /// (plan + backend execution, excluding query embedding) — the
    /// quantity the planner's `predicted_cost_us` actually predicts, so
    /// misprediction comparisons use this, not `filtering_ms`.
    pub retrieval_ms: f64,
    /// *Simulated* latency of the LLM refinement call in milliseconds
    /// (0 for SemaSK-EM).
    pub refinement_ms: f64,
    /// The retrieval strategy the query planner chose for the filtering
    /// step (`None` when the query never reached retrieval).
    pub filter_strategy: Option<RetrievalStrategy>,
    /// The range-selectivity estimate the plan was based on.
    pub estimated_selectivity: f64,
    /// The cost model's predicted filtering cost for the chosen
    /// strategy, microseconds.
    /// Compare against `filtering_ms` to spot systematic misprediction.
    pub predicted_cost_us: f64,
    /// The best strategy the plan beat — a misroute investigation
    /// starts by comparing this margin with the observed latency.
    pub runner_up: Option<StrategyCost>,
    /// Size of each shard's pre-merge top-k candidate pool in the
    /// filtering stage, aligned with shard index (each at most `k`, so
    /// the sum exceeds `k` on balanced shards), as `semask-net`'s router
    /// counts them in its merge. Empty for an answer filtered in one
    /// process: one collection answers with no merge and no counts.
    pub shard_candidates: Vec<usize>,
}

/// The outcome of one query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Recommended POIs in final rank order, then non-recommended
    /// candidates (embedding order). The demo paints the former green and
    /// the latter blue.
    pub pois: Vec<RankedPoi>,
    /// Latency breakdown.
    pub latency: LatencyBreakdown,
}

impl QueryOutcome {
    /// Ids of the recommended POIs, in rank order — the system's answer.
    #[must_use]
    pub fn answer_ids(&self) -> Vec<ObjectId> {
        self.pois
            .iter()
            .filter(|p| p.recommended)
            .map(|p| p.id)
            .collect()
    }

    /// Renders the outcome as a GeoJSON `FeatureCollection` — the demo
    /// UI's map view as a standard file (green markers for recommended
    /// POIs, blue for filtered-out candidates; the reason in each
    /// feature's properties). Viewable on geojson.io or any GIS tool.
    #[must_use]
    pub fn to_geojson(&self, dataset: &geotext::Dataset) -> serde_json::Value {
        let features: Vec<serde_json::Value> = self
            .pois
            .iter()
            .filter_map(|p| {
                let obj = dataset.get(p.id)?;
                Some(serde_json::json!({
                    "type": "Feature",
                    "geometry": {
                        "type": "Point",
                        // GeoJSON is [lon, lat].
                        "coordinates": [obj.location.lon, obj.location.lat],
                    },
                    "properties": {
                        "name": &*p.name,
                        "recommended": p.recommended,
                        "marker-color": if p.recommended { "#2ecc40" } else { "#0074d9" },
                        "reason": p.reason.to_string(),
                        "embed_score": p.embed_score,
                        "categories": obj.attrs.get("categories").map(|v| v.flatten()),
                    },
                }))
            })
            .collect();
        serde_json::json!({
            "type": "FeatureCollection",
            "features": features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_partitions_answers() {
        let outcome = QueryOutcome {
            pois: vec![
                RankedPoi {
                    id: ObjectId(1),
                    name: "A".into(),
                    embed_score: 0.9,
                    recommended: true,
                    reason: Reason::Model("matches".into()),
                },
                RankedPoi {
                    id: ObjectId(2),
                    name: "B".into(),
                    embed_score: 0.8,
                    recommended: false,
                    reason: Reason::NotRelevant,
                },
            ],
            latency: LatencyBreakdown::default(),
        };
        assert_eq!(outcome.answer_ids(), vec![ObjectId(1)]);
    }

    #[test]
    fn geojson_export_has_markers_and_coordinates() {
        let mut dataset = geotext::Dataset::new("t");
        let id = dataset.push(|id| {
            geotext::GeoTextObject::builder(id, geotext::GeoPoint::new(38.6, -90.2).unwrap())
                .attr("name", "Joe's Bar")
                .attr("categories", "Bars")
                .build()
                .unwrap()
        });
        let outcome = QueryOutcome {
            pois: vec![RankedPoi {
                id,
                name: "Joe's Bar".into(),
                embed_score: 0.7,
                recommended: true,
                reason: Reason::Model("matches".into()),
            }],
            latency: LatencyBreakdown::default(),
        };
        let gj = outcome.to_geojson(&dataset);
        assert_eq!(gj["type"], "FeatureCollection");
        let f = &gj["features"][0];
        assert_eq!(f["geometry"]["coordinates"][0], -90.2);
        assert_eq!(f["geometry"]["coordinates"][1], 38.6);
        assert_eq!(f["properties"]["marker-color"], "#2ecc40");
        assert_eq!(f["properties"]["name"], "Joe's Bar");
        assert_eq!(f["properties"]["reason"], "matches");
    }

    #[test]
    fn geojson_writes_each_reason_as_its_text() {
        let mut dataset = geotext::Dataset::new("t");
        let id = dataset.push(|id| {
            geotext::GeoTextObject::builder(id, geotext::GeoPoint::new(38.6, -90.2).unwrap())
                .attr("name", "Joe's Bar")
                .build()
                .unwrap()
        });
        for (reason, text) in [
            (
                Reason::Embedding { score: 0.8735 },
                "Retrieved by embedding similarity (score 0.873).",
            ),
            (
                Reason::NotRelevant,
                "Fetched by embedding similarity but judged not relevant by the LLM.",
            ),
            (Reason::Model("great wings".into()), "great wings"),
        ] {
            let outcome = QueryOutcome {
                pois: vec![RankedPoi {
                    id,
                    name: "Joe's Bar".into(),
                    embed_score: 0.8735,
                    recommended: true,
                    reason,
                }],
                latency: LatencyBreakdown::default(),
            };
            let gj = outcome.to_geojson(&dataset);
            assert_eq!(gj["features"][0]["properties"]["reason"], text);
        }
    }

    /// The texts the engine stored per POI before reasons were typed:
    /// `format!("Retrieved by embedding similarity (score {score:.3}).")`
    /// over an `f32`, and one fixed sentence.
    #[test]
    fn reasons_render_the_texts_they_replaced() {
        for (score, shown) in [
            (0.9995f32, "0.999"),
            (0.00049, "0.000"),
            (0.0005, "0.001"),
            (-0.0, "-0.000"),
            (1.0, "1.000"),
            (-0.4567, "-0.457"),
            (-0.0004, "-0.000"),
        ] {
            let text = Reason::Embedding { score }.to_string();
            assert_eq!(
                text,
                format!("Retrieved by embedding similarity (score {shown}).")
            );
            assert_eq!(
                text,
                format!("Retrieved by embedding similarity (score {score:.3}).")
            );
        }
        assert_eq!(
            Reason::NotRelevant.to_string(),
            "Fetched by embedding similarity but judged not relevant by the LLM."
        );
        let said = "Cozy \u{2615} spot, it's 'the best'";
        assert_eq!(Reason::Model(said.to_owned()).to_string(), said);
    }
}
