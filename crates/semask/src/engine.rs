//! The query-processing module (paper Section 3.2).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use embed::Embedder;
use geotext::{GeoPoint, GeoTextObject, ObjectId};
use llm::prompts::rerank_prompt;
use llm::{parse_rerank_response, ChatRequest, LlmError, ModelKind, SimLlm};
use vecdb::VecDbError;

use crate::config::SemaSkConfig;
use crate::live::{Overlay, Resolution};
use crate::prep::{enrich, summarize, PreparedCity};
use crate::query::{LatencyBreakdown, QueryOutcome, RankedPoi, Reason, SemaSkQuery};
use crate::retrieval::{group_indices, BatchGroupKey, PlannedQuery, RetrievalError};
use crate::wal::{crash_point, Mutation, PoiSpec};
use parking_lot::{Mutex, MutexGuard};
use textindex::DocTerms;

/// The system variants evaluated in the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// SemaSK: GPT-4o refinement (the default system).
    Full,
    /// SemaSK-O1: o1-mini refinement.
    O1,
    /// SemaSK-EM: no refinement, embedding order is the answer.
    EmbeddingOnly,
}

impl Variant {
    /// Table label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Variant::Full => "SemaSK",
            Variant::O1 => "SemaSK-O1",
            Variant::EmbeddingOnly => "SemaSK-EM",
        }
    }

    fn refine_model(self, config: &SemaSkConfig) -> Option<ModelKind> {
        match self {
            Variant::Full => Some(config.refine_model),
            Variant::O1 => Some(ModelKind::O1Mini),
            Variant::EmbeddingOnly => None,
        }
    }
}

/// Errors from query processing.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// Vector database failure.
    VecDb(VecDbError),
    /// Retrieval-layer failure.
    Retrieval(RetrievalError),
    /// LLM failure.
    Llm(LlmError),
    /// The requested suburb is not in the city's gazetteer.
    UnknownSuburb {
        /// The requested suburb name.
        suburb: String,
    },
    /// A remote peer (shard server, router) failed. Carries the peer's
    /// rendered error so a wire round trip through
    /// `semask_serve::api::ServeStatus` stays lossless.
    Remote {
        /// The remote error, rendered.
        message: String,
    },
    /// A live mutation batch was rejected before any substrate changed
    /// (unknown/deleted id or invalid spec).
    Mutation {
        /// Why the batch was rejected.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::VecDb(e) => write!(f, "vector db: {e}"),
            EngineError::Retrieval(e) => write!(f, "retrieval: {e}"),
            EngineError::Llm(e) => write!(f, "llm: {e}"),
            EngineError::UnknownSuburb { suburb } => write!(f, "unknown suburb `{suburb}`"),
            EngineError::Remote { message } => write!(f, "remote: {message}"),
            EngineError::Mutation { message } => write!(f, "mutation: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<VecDbError> for EngineError {
    fn from(e: VecDbError) -> Self {
        EngineError::VecDb(e)
    }
}

impl From<RetrievalError> for EngineError {
    fn from(e: RetrievalError) -> Self {
        EngineError::Retrieval(e)
    }
}

impl From<LlmError> for EngineError {
    fn from(e: LlmError) -> Self {
        EngineError::Llm(e)
    }
}

/// A filtered candidate live at the refinement's epoch: its id, its
/// embedding score, the object the prompt shows and its shared name.
struct Candidate<'a> {
    id: ObjectId,
    score: f32,
    object: &'a GeoTextObject,
    name: Arc<str>,
}

impl Candidate<'_> {
    fn ranked(&self, recommended: bool, reason: Reason) -> RankedPoi {
        RankedPoi {
            id: self.id,
            name: Arc::clone(&self.name),
            embed_score: self.score,
            recommended,
            reason,
        }
    }
}

/// One query's filtering output: candidates in embedding order and the
/// latency template its refinement will complete.
struct FilteredQuery {
    candidates: Vec<(ObjectId, f32)>,
    latency: LatencyBreakdown,
}

/// The SemaSK query engine for one prepared city.
pub struct SemaSkEngine {
    prepared: Arc<PreparedCity>,
    llm: Arc<SimLlm>,
    config: SemaSkConfig,
    variant: Variant,
}

impl SemaSkEngine {
    /// Creates an engine.
    #[must_use]
    pub fn new(
        prepared: Arc<PreparedCity>,
        llm: Arc<SimLlm>,
        config: SemaSkConfig,
        variant: Variant,
    ) -> Self {
        Self {
            prepared,
            llm,
            config,
            variant,
        }
    }

    /// The prepared city this engine serves.
    #[must_use]
    pub fn prepared(&self) -> &PreparedCity {
        &self.prepared
    }

    /// The engine's variant.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The engine's configuration (result budget `k`/`ef`, planner
    /// settings). Remote executors read this to mirror the query
    /// parameters the engine would use locally.
    #[must_use]
    pub fn config(&self) -> &SemaSkConfig {
        &self.config
    }

    /// The key [`SemaSkEngine::query_batch`] will group `q` under: its
    /// range plus this engine's `(k, ef)` result budget. Serving layers
    /// order micro-batches by this key so range-compatible queries stay
    /// contiguous and the batch executor shares one plan and candidate
    /// set per group.
    #[must_use]
    pub fn batch_group_key(&self, q: &SemaSkQuery) -> crate::retrieval::BatchGroupKey {
        crate::retrieval::BatchGroupKey::with_keywords(
            &q.range,
            self.config.k,
            self.config.ef,
            q.keywords.as_deref(),
        )
    }

    /// Answers a query whose range is a named suburb — the demo UI's
    /// mode ("we limit the query range to the different suburbs for
    /// simplicity").
    pub fn query_suburb(&self, suburb: &str, text: &str) -> Result<QueryOutcome, EngineError> {
        let (center, half_km) = self
            .prepared
            .geocoder
            .suburb_center(suburb)
            .ok_or_else(|| EngineError::UnknownSuburb {
                suburb: suburb.to_owned(),
            })?;
        let range = geotext::BoundingBox::from_center_km(center, half_km * 2.0, half_km * 2.0);
        self.query(&SemaSkQuery::new(range, text))
    }

    /// Answers a query with the filter-and-refine procedure: a
    /// [`SemaSkEngine::query_batch`] of one. The filtering stage runs
    /// through the [`crate::retrieval::QueryPlanner`]; the chosen
    /// strategy is reported in the outcome's
    /// [`LatencyBreakdown::filter_strategy`].
    pub fn query(&self, q: &SemaSkQuery) -> Result<QueryOutcome, EngineError> {
        let mut outcomes = self.query_batch(std::slice::from_ref(q))?;
        Ok(outcomes.pop().expect("one outcome per query"))
    }

    /// Answers a batch of queries, filter then refine, fanning out once
    /// per stage and by whole queries.
    ///
    /// The batch is partitioned into *units* — the queries sharing a
    /// range (and this engine's `k`, `ef`) — and the units fan out on
    /// [`vecdb::pool::global`], whose workers and the submitting thread
    /// each claim the next unit until none is left. A thread takes the
    /// unit it claimed the whole way: it embeds the unit's texts and runs
    /// them through one [`crate::retrieval::QueryPlanner::retrieve_batch`], so
    /// queries of one range still share one plan, one candidate set and
    /// one pass of the scoring kernel, and keyword groups over it share
    /// its spatial candidates. The submitting thread holds the mutation
    /// gate's read side across that fan-out and captures the overlay once
    /// inside it: the whole batch is planned, retrieved and later resolved
    /// at one epoch. A second fan-out over the queries then refines each
    /// against that overlay with the gate released, so a slow re-rank
    /// never blocks a writer. A batch of one unit — every
    /// [`SemaSkEngine::query`] — runs on the caller and touches no pool.
    ///
    /// A query's answer does not depend on the queries submitted with
    /// it. Each outcome's [`LatencyBreakdown::filtering_ms`] reports the
    /// query's equal share of the batch's filtering wall clock, measured
    /// around the first fan-out (the units overlap, so the work cannot be
    /// attributed per query — a share of one is the whole);
    /// [`LatencyBreakdown::retrieval_ms`] is the query's equal share of
    /// its own unit's retrieval time, and refinement latency is per
    /// query.
    ///
    /// # Errors
    /// A filtering failure before any refinement failure; within a stage,
    /// the failure of the lowest query index, whichever thread met it.
    pub fn query_batch(&self, queries: &[SemaSkQuery]) -> Result<Vec<QueryOutcome>, EngineError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let units = group_indices(
            queries
                .iter()
                .map(|q| BatchGroupKey::new(&q.range, self.config.k, self.config.ef)),
        );
        // One unit is a loop on the caller that never touches the pool.
        let pooled = units.len() > 1;

        // ---- Filtering (measured wall clock, shared) ----
        let t0 = Instant::now();
        // The mutation gate is held for exactly the filter window: the
        // plans, the candidate retrieval, and the overlay capture happen
        // at one epoch for the whole batch, whichever threads run the
        // units. Refinement (the slow LLM call) runs outside the gate
        // against the captured view, so it never blocks writers.
        let (filtered_units, view) = {
            let _gate = self.prepared.live.gate_read();
            let filter = |u: usize| self.filter_unit(queries, &units[u]);
            let filtered = if pooled {
                vecdb::pool::global().run(units.len(), filter)
            } else {
                vec![filter(0)]
            };
            (filtered, self.prepared.live.overlay())
        };
        let share_ms = t0.elapsed().as_secs_f64() * 1000.0 / queries.len() as f64;
        // Units are in order of their first query, so the first failed
        // unit here is the one holding the lowest failed query index.
        let mut filtered: Vec<Option<FilteredQuery>> = queries.iter().map(|_| None).collect();
        for (members, unit) in units.iter().zip(filtered_units) {
            for (&i, mut item) in members.iter().zip(unit?) {
                item.latency.filtering_ms = share_ms;
                filtered[i] = Some(item);
            }
        }
        let filtered: Vec<FilteredQuery> = filtered
            .into_iter()
            .map(|item| item.expect("every query belongs to exactly one unit"))
            .collect();

        // ---- Refinement (per query, gate released) ----
        let refine = |i: usize| {
            let item = &filtered[i];
            self.refine_with_view(&queries[i].text, &item.candidates, &item.latency, &view)
        };
        let refined = if pooled {
            vecdb::pool::global().run(queries.len(), refine)
        } else {
            (0..queries.len()).map(refine).collect()
        };
        refined.into_iter().collect()
    }

    /// The filtering body of one unit (`members` index `queries` and
    /// share a range): embeds each text and runs the unit through the
    /// planner, returning one candidate list and latency template per
    /// member, in `members` order. The caller holds the mutation gate.
    fn filter_unit(
        &self,
        queries: &[SemaSkQuery],
        members: &[usize],
    ) -> Result<Vec<FilteredQuery>, EngineError> {
        let planned_queries: Vec<PlannedQuery> = members
            .iter()
            .map(|&i| {
                let q = &queries[i];
                PlannedQuery {
                    vec: self.prepared.embedder.embed(&q.text),
                    range: q.range,
                    k: self.config.k,
                    ef: self.config.ef,
                    keywords: q.keywords.clone(),
                }
            })
            .collect();
        let t_retrieval = Instant::now();
        let batch = self.prepared.planner.retrieve_batch(&planned_queries)?;
        let retrieval_share_ms =
            t_retrieval.elapsed().as_secs_f64() * 1000.0 / members.len() as f64;

        Ok(batch
            .into_iter()
            .map(|planned| {
                let latency = LatencyBreakdown {
                    // The batch's share, known once every unit is back.
                    filtering_ms: 0.0,
                    retrieval_ms: retrieval_share_ms,
                    refinement_ms: 0.0,
                    filter_strategy: Some(planned.strategy),
                    estimated_selectivity: planned.estimated_fraction,
                    predicted_cost_us: planned.predicted_cost_us,
                    runner_up: planned.runner_up,
                    shard_candidates: Vec::new(),
                };
                let candidates: Vec<(ObjectId, f32)> = planned
                    .hits
                    .iter()
                    .map(|h| (ObjectId(h.id as u32), h.score))
                    .collect();
                FilteredQuery {
                    candidates,
                    latency,
                }
            })
            .collect())
    }

    /// The refinement stage shared by [`SemaSkEngine::query`] and
    /// [`SemaSkEngine::query_batch`]: re-ranks the filtered candidates
    /// with the variant's LLM (or passes them through for SemaSK-EM) and
    /// assembles the outcome.
    ///
    /// Public so a distributed front end (the `semask-net` router) can
    /// merge remotely filtered candidate lists and finish the query with
    /// the same refinement the in-process path runs. `candidates` must
    /// be in embedding order (best first), as produced by the filtering
    /// stage; `latency` is the filtering-side template the refinement
    /// completes.
    ///
    /// # Errors
    /// Propagates LLM failures from the refinement call.
    pub fn refine_candidates(
        &self,
        text: &str,
        candidates: Vec<(ObjectId, f32)>,
        latency: LatencyBreakdown,
    ) -> Result<QueryOutcome, EngineError> {
        let view = self.prepared.live.overlay();
        self.refine_with_view(text, &candidates, &latency, &view)
    }

    /// [`SemaSkEngine::refine_candidates`] against an explicit overlay
    /// `view` — the epoch the candidates were filtered under. Candidates
    /// whose id is no longer live under `view` are dropped (a concurrent
    /// delete between filter and refine).
    fn refine_with_view(
        &self,
        text: &str,
        candidates: &[(ObjectId, f32)],
        latency: &LatencyBreakdown,
        view: &Overlay,
    ) -> Result<QueryOutcome, EngineError> {
        let latency = latency.clone();
        let candidates: Vec<Candidate<'_>> = candidates
            .iter()
            .filter_map(|&(id, score)| self.live_candidate(view, id, score))
            .collect();
        let Some(model) = self.variant.refine_model(&self.config) else {
            // SemaSK-EM: embedding order *is* the answer.
            let pois = candidates
                .iter()
                .map(|c| c.ranked(true, Reason::Embedding { score: c.score }))
                .collect();
            return Ok(QueryOutcome { pois, latency });
        };
        if candidates.is_empty() {
            return Ok(QueryOutcome {
                pois: Vec::new(),
                latency,
            });
        }

        // ---- Refinement (simulated LLM latency) ----
        // The paper feeds the *raw* POI attributes to the LLM, as JSON.
        let prompt = refinement_prompt(candidates.iter().map(|c| c.object), text);
        let response = self.llm.complete(&ChatRequest::user(model, prompt))?;
        let ranked = parse_rerank_response(&response.content);

        // Map dict keys (names) back to candidate ids, preserving the
        // LLM's order; duplicate names resolve to the earliest unused
        // candidate. One pass over the candidates builds a name → indices
        // queue, so each reranked row is an O(1) lookup.
        let mut by_name: HashMap<&str, VecDeque<usize>> = HashMap::new();
        for (i, c) in candidates.iter().enumerate() {
            by_name.entry(&c.name).or_default().push_back(i);
        }
        let mut used = vec![false; candidates.len()];
        let mut pois: Vec<RankedPoi> = Vec::with_capacity(candidates.len());
        for (name, reason) in ranked {
            let Some(i) = by_name.get_mut(name.as_str()).and_then(VecDeque::pop_front) else {
                continue;
            };
            used[i] = true;
            pois.push(candidates[i].ranked(true, Reason::Model(reason)));
        }
        // Non-recommended candidates follow, in embedding order (the blue
        // markers).
        for (c, used) in candidates.iter().zip(used) {
            if !used {
                pois.push(c.ranked(false, Reason::NotRelevant));
            }
        }

        Ok(QueryOutcome {
            pois,
            latency: LatencyBreakdown {
                refinement_ms: response.latency_ms,
                ..latency
            },
        })
    }

    /// The candidate `id` scored `score` under `view`, or `None` when it
    /// is not live there: one overlay lookup, then the overlay's object,
    /// or the base object and the name column's shared name.
    fn live_candidate<'a>(
        &'a self,
        view: &'a Overlay,
        id: ObjectId,
        score: f32,
    ) -> Option<Candidate<'a>> {
        let (object, name) = match view.resolve(id) {
            Resolution::Deleted => return None,
            Resolution::Changed(object) => (object, Arc::from(object.name())),
            Resolution::Base => (
                self.prepared.dataset.get(id)?,
                Arc::clone(self.prepared.names.get(id.index())?),
            ),
        };
        Some(Candidate {
            id,
            score,
            object,
            name,
        })
    }

    // ---- Live mutations ----------------------------------------------

    /// Applies a batch of mutations atomically with respect to queries:
    /// readers observe either the epoch before the whole batch or the
    /// epoch after it, never a prefix. It is the write path's three
    /// stages in a row — *begin* (the writer lock, validation and the
    /// batch's drafts), *prepare* (everything else that changes nothing
    /// a reader sees) and *commit* (under the mutation gate) — the one
    /// apply path, which [`crate::durable::DurableEngine`] runs with the
    /// log between begin and commit and its fsync beside the prepare
    /// stage.
    ///
    /// Validation runs first, against the batch's own pending effects
    /// (e.g. a delete followed by an update of the same id fails), and a
    /// validation failure leaves the engine completely untouched. A
    /// substrate failure *after* validation (a vector-db error mid-batch)
    /// aborts without publishing — queries keep the old view — but the
    /// collection may retain a prefix of the batch's points; durable
    /// deployments ([`crate::durable::DurableEngine`]) recover the exact
    /// state by replaying the WAL over the last checkpoint.
    ///
    /// # Errors
    /// [`EngineError::Mutation`] when the batch is invalid; substrate
    /// errors otherwise.
    pub fn apply_mutations(&self, mutations: &[Mutation]) -> Result<AppliedBatch, EngineError> {
        let turn = self.begin_mutations(mutations)?;
        let (prepared, _) = self.prepare_mutations(&turn, None::<fn()>);
        self.commit_mutations(turn, prepared?)
    }

    /// Stage 1, **begin**: takes the writer lock — held until the batch
    /// commits or is dropped, so the state validated here is the state
    /// the later stages see — validates the batch against it and drafts
    /// its objects, each insert enriched the way preparation enriches a
    /// base POI ([`crate::prep::enrich`]; the batch's only LLM calls).
    /// Readers never take this lock.
    pub(crate) fn begin_mutations(
        &self,
        mutations: &[Mutation],
    ) -> Result<WriteTurn<'_>, EngineError> {
        let writer = self.prepared.live.begin_write();
        let published = self.prepared.live.overlay();
        self.validate_mutations(&published, mutations)?;
        let drafts = self.draft_mutations(&published, mutations)?;
        Ok(WriteTurn {
            _writer: writer,
            published,
            drafts,
            collection: self.collection()?,
        })
    }

    /// Stage 2, **prepare**: everything a batch costs that changes
    /// nothing a reader sees, past its drafts. Queries run throughout,
    /// and the mutation gate is not taken. The batch is planned in one
    /// [`vecdb::pool::global`] fan-out over these indices, in order:
    ///
    /// - one per insert or update: embed, then the graph plan under the
    ///   collection's read lock;
    /// - the batch's text: each mutation's old and new documents' corpus
    ///   terms ([`textindex::InvertedIndex::doc_terms`]) under the
    ///   corpus's read lock, and the next overlay;
    /// - `beside`, if given (the durable path's log fsync).
    ///
    /// The caller claims index 0 first, so it takes a graph plan — the
    /// longest job — while a free worker takes the text, then `beside`.
    /// `beside` runs exactly once whatever else fails, and its result
    /// comes back beside the batch's; what can fail here is the vector
    /// database planning a point. With `beside` given, the text job
    /// ends at crash point `wal-prepared`: nothing is committed, and
    /// `beside` may not have run yet, or may still be running.
    pub(crate) fn prepare_mutations<B: Send>(
        &self,
        turn: &WriteTurn<'_>,
        beside: Option<impl FnOnce() -> B + Send>,
    ) -> (Result<PreparedBatch, EngineError>, Option<B>) {
        let WriteTurn {
            published,
            drafts,
            collection,
            ..
        } = turn;
        let stored: Vec<&GeoTextObject> = drafts.iter().filter_map(Draft::object).collect();
        let g = stored.len();
        let has_beside = beside.is_some();
        let beside = Mutex::new(beside);
        let (text, beside_out) = (Mutex::new(None), Mutex::new(None));
        let points = vecdb::pool::global().run(g + 1 + usize::from(has_beside), |i| {
            if i < g {
                return Some(self.plan_point(collection, stored[i]));
            }
            if i == g {
                *text.lock() = Some(self.plan_text(published, drafts));
                if has_beside {
                    crash_point("wal-prepared");
                }
            } else if let Some(f) = beside.lock().take() {
                *beside_out.lock() = Some(f());
            }
            None
        });

        let (texts, next) = text.into_inner().expect("index g plans the text");
        let mut points = points.into_iter().flatten();
        let steps = drafts
            .iter()
            .zip(texts)
            .map(|(draft, text)| {
                let step = match (draft, text) {
                    (Draft::Insert(obj), (None, Some(terms))) => Step::Insert {
                        id: obj.id,
                        point: points.next().expect("a point per stored object")?,
                        terms,
                    },
                    (Draft::Update(obj), (Some(old), Some(terms))) => Step::Update {
                        id: obj.id,
                        point: points.next().expect("a point per stored object")?,
                        old,
                        terms,
                    },
                    (&Draft::Delete(id), (Some(old), None)) => Step::Delete { id, old },
                    _ => unreachable!("a draft's text plan has its shape"),
                };
                Ok(step)
            })
            .collect::<Result<Vec<Step>, EngineError>>();
        let batch = steps.map(|steps| PreparedBatch {
            steps,
            next,
            inserted: drafts
                .iter()
                .filter(|d| matches!(d, Draft::Insert(_)))
                .map(Draft::id)
                .collect(),
        });
        (batch, beside_out.into_inner())
    }

    /// The batch's objects, in batch order: each insert enriched under
    /// the dense id it will claim, each update applied to a copy of the
    /// object as the batch's earlier mutations leave it.
    fn draft_mutations(
        &self,
        published: &Overlay,
        mutations: &[Mutation],
    ) -> Result<Vec<Draft>, EngineError> {
        let base = self.prepared.dataset.as_ref();
        let mut next_id = published.next_id();
        let mut drafts: Vec<Draft> = Vec::with_capacity(mutations.len());
        for m in mutations {
            let draft = match m {
                Mutation::Insert(spec) => {
                    let obj = self.draft_insert(ObjectId(next_id), spec)?;
                    next_id += 1;
                    Draft::Insert(Arc::new(obj))
                }
                Mutation::Update { id, update } => {
                    let id = ObjectId(*id);
                    let earlier = drafts
                        .iter()
                        .rev()
                        .find_map(|d| d.object().filter(|o| o.id == id));
                    let mut obj = earlier
                        .or_else(|| published.get(base, id))
                        .expect("validated: id is live")
                        .clone();
                    if let Some(name) = &update.name {
                        obj.attrs.set("name", name.clone());
                    }
                    if let Some(tips) = &update.tips {
                        obj.attrs.set("tips", tips.clone());
                        summarize(&mut obj, &self.llm, self.config.summarize_model)?;
                    }
                    Draft::Update(Arc::new(obj))
                }
                Mutation::Delete { id } => Draft::Delete(ObjectId(*id)),
            };
            drafts.push(draft);
        }
        Ok(drafts)
    }

    /// The point `obj` stores: its vector, its position and the graph
    /// plan made for it under the collection's read lock.
    fn plan_point(
        &self,
        collection: &vecdb::CollectionHandle,
        obj: &GeoTextObject,
    ) -> Result<PlannedPoint, EngineError> {
        let text = PreparedCity::embedding_text_with(obj, self.config.embed_raw_tips);
        let vector = self.prepared.embedder.embed(&text);
        let plan = collection.read().plan_insert(&vector)?;
        Ok(PlannedPoint {
            vector,
            location: obj.location,
            plan,
        })
    }

    /// The batch's corpus terms and the overlay it publishes, made in one
    /// pass in batch order: per mutation, the old document — as the
    /// batch's earlier mutations leave it — and the new one, mapped onto
    /// the corpus vocabulary under the corpus's read lock.
    fn plan_text(&self, published: &Overlay, drafts: &[Draft]) -> (Vec<TextPlan>, Overlay) {
        let base = self.prepared.dataset.as_ref();
        let terms = |obj: &GeoTextObject| self.prepared.planner.doc_terms(&obj.to_document());
        let mut next = published.clone();
        let texts = drafts
            .iter()
            .map(|draft| {
                let old = match draft {
                    Draft::Insert(_) => None,
                    _ => Some(terms(
                        next.get(base, draft.id()).expect("validated: id is live"),
                    )),
                };
                match draft {
                    Draft::Insert(obj) => {
                        next.insert(Arc::clone(obj));
                    }
                    Draft::Update(obj) => next.update(obj.id, Arc::clone(obj)),
                    Draft::Delete(id) => next.delete(*id),
                }
                (old, draft.object().map(terms))
            })
            .collect();
        (texts, next)
    }

    /// Stage 3, **commit**: takes the mutation gate in write mode and
    /// makes the prepared batch so — the planned points into the
    /// collection (a plan made stale by an earlier insert of the batch
    /// is made again here), the planned terms into the corpus and the
    /// side points into the planner, then the overlay, published as the
    /// next epoch. Nothing here tokenizes or renders a document. An
    /// empty batch publishes nothing.
    pub(crate) fn commit_mutations(
        &self,
        turn: WriteTurn<'_>,
        batch: PreparedBatch,
    ) -> Result<AppliedBatch, EngineError> {
        let live = &self.prepared.live;
        if batch.steps.is_empty() {
            return Ok(AppliedBatch {
                epoch: live.epoch(),
                inserted: Vec::new(),
            });
        }
        let gate = live.gate_write();
        let collection = &turn.collection;
        let planner = &self.prepared.planner;
        for step in batch.steps {
            match step {
                Step::Insert { id, point, terms } => {
                    let location = point.location;
                    point.store(&mut collection.write(), id)?;
                    planner.live_insert(id, location, terms);
                }
                Step::Update {
                    id,
                    point,
                    old,
                    terms,
                } => {
                    {
                        let mut guard = collection.write();
                        guard.delete(u64::from(id.0))?;
                        point.store(&mut guard, id)?;
                    }
                    planner.live_update(id, old, terms);
                }
                Step::Delete { id, old } => {
                    collection.write().delete(u64::from(id.0))?;
                    planner.live_delete(id, old);
                }
            }
        }
        // The outgoing overlay is freed after the gate, not under it.
        let previous = live.overlay();
        let epoch = live.publish(batch.next);
        drop(gate);
        drop(previous);
        drop(turn);
        Ok(AppliedBatch {
            epoch,
            inserted: batch.inserted,
        })
    }

    /// Rejects the whole batch before any substrate changes, tracking the
    /// batch's own pending inserts/deletes so intra-batch references
    /// validate the way they will apply.
    fn validate_mutations(
        &self,
        overlay: &Overlay,
        mutations: &[Mutation],
    ) -> Result<(), EngineError> {
        let base = self.prepared.dataset.as_ref();
        let mut next_id = overlay.next_id();
        // id -> liveness as of the pending prefix of the batch.
        let mut pending: HashMap<u32, bool> = HashMap::new();
        let reject = |i: usize, why: String| {
            Err(EngineError::Mutation {
                message: format!("mutation {i}: {why}"),
            })
        };
        for (i, m) in mutations.iter().enumerate() {
            match m {
                Mutation::Insert(spec) => {
                    if spec.name.trim().is_empty() {
                        return reject(i, "insert needs a non-empty name".to_owned());
                    }
                    if let Err(e) = GeoPoint::new(spec.lat, spec.lon) {
                        return reject(i, format!("invalid coordinates: {e}"));
                    }
                    pending.insert(next_id, true);
                    next_id += 1;
                }
                Mutation::Update { id, update } => {
                    let alive = pending
                        .get(id)
                        .copied()
                        .unwrap_or_else(|| overlay.is_live(base, ObjectId(*id)));
                    if !alive {
                        return reject(i, format!("update of unknown or deleted id {id}"));
                    }
                    if update.name.as_deref().is_some_and(|n| n.trim().is_empty()) {
                        return reject(i, "update cannot erase the name".to_owned());
                    }
                }
                Mutation::Delete { id } => {
                    let alive = pending
                        .get(id)
                        .copied()
                        .unwrap_or_else(|| overlay.is_live(base, ObjectId(*id)));
                    if !alive {
                        return reject(i, format!("delete of unknown or deleted id {id}"));
                    }
                    pending.insert(*id, false);
                }
            }
        }
        Ok(())
    }

    fn collection(&self) -> Result<vecdb::CollectionHandle, EngineError> {
        Ok(self
            .prepared
            .db
            .collection(&self.prepared.collection_name)?)
    }

    /// An insert's object under the dense id it will claim, enriched
    /// the way preparation enriches a base POI.
    fn draft_insert(&self, id: ObjectId, spec: &PoiSpec) -> Result<GeoTextObject, EngineError> {
        let location = GeoPoint::new(spec.lat, spec.lon).map_err(|e| EngineError::Mutation {
            message: format!("invalid coordinates: {e}"),
        })?;
        let mut builder = GeoTextObject::builder(id, location).attr("name", spec.name.clone());
        if !spec.categories.is_empty() {
            builder = builder.attr("categories", spec.categories.clone());
        }
        if !spec.tips.is_empty() {
            builder = builder.attr("tips", spec.tips.clone());
        }
        let mut obj = builder.build().map_err(|e| EngineError::Mutation {
            message: e.to_string(),
        })?;
        enrich(
            &mut obj,
            &self.prepared.geocoder,
            &self.llm,
            self.config.summarize_model,
        )?;
        Ok(obj)
    }

    /// The current mutation epoch (0 before any mutation applies).
    #[must_use]
    pub fn mutation_epoch(&self) -> u64 {
        self.prepared.live.epoch()
    }

    /// True when `query` is **provably empty** without executing it:
    /// its conjunctive keyword filter names a token the live corpus
    /// vocabulary never interned, so no object can match. Serving layers
    /// consult this before admission so empty-answer queries never
    /// occupy a batch slot. `true` is exact (the executed answer would be
    /// empty); `false` promises nothing — a token whose every document
    /// was deleted stays in the vocabulary.
    #[must_use]
    pub fn provably_empty(&self, query: &SemaSkQuery) -> bool {
        query
            .keywords
            .as_deref()
            .is_some_and(|kw| self.prepared.planner.provably_empty(kw))
    }
}

/// What one applied mutation batch produced.
#[derive(Debug, Clone)]
pub struct AppliedBatch {
    /// The epoch readers observe once the batch is visible.
    pub epoch: u64,
    /// Ids assigned to the batch's inserts, in batch order.
    pub inserted: Vec<ObjectId>,
}

/// A write batch past [`SemaSkEngine::begin_mutations`]: the writer
/// lock, held until the batch commits or is dropped, the overlay it was
/// validated against, and its drafts.
pub(crate) struct WriteTurn<'a> {
    _writer: MutexGuard<'a, ()>,
    published: Arc<Overlay>,
    drafts: Vec<Draft>,
    collection: vecdb::CollectionHandle,
}

/// What [`SemaSkEngine::prepare_mutations`] computed, for
/// [`SemaSkEngine::commit_mutations`] to make so.
pub(crate) struct PreparedBatch {
    steps: Vec<Step>,
    /// The overlay the batch publishes.
    next: Overlay,
    inserted: Vec<ObjectId>,
}

/// One mutation, prepared: its point and its corpus terms, planned.
enum Step {
    Insert {
        id: ObjectId,
        point: PlannedPoint,
        terms: DocTerms,
    },
    Update {
        id: ObjectId,
        point: PlannedPoint,
        old: DocTerms,
        terms: DocTerms,
    },
    Delete {
        id: ObjectId,
        old: DocTerms,
    },
}

/// One mutation, enriched: the object an insert or update stores,
/// shared with the overlay the batch publishes.
enum Draft {
    Insert(Arc<GeoTextObject>),
    Update(Arc<GeoTextObject>),
    Delete(ObjectId),
}

impl Draft {
    fn id(&self) -> ObjectId {
        match self {
            Draft::Insert(obj) | Draft::Update(obj) => obj.id,
            Draft::Delete(id) => *id,
        }
    }

    /// The object the mutation leaves at its id, `None` for a delete.
    fn object(&self) -> Option<&GeoTextObject> {
        match self {
            Draft::Insert(obj) | Draft::Update(obj) => Some(obj),
            Draft::Delete(_) => None,
        }
    }
}

/// A mutation's old and new documents' corpus terms: no old one for an
/// insert, no new one for a delete.
type TextPlan = (Option<DocTerms>, Option<DocTerms>);

/// A point ready to store: its vector, its POI's position and the graph
/// plan made for it.
struct PlannedPoint {
    vector: Vec<f32>,
    location: GeoPoint,
    plan: vecdb::InsertPlan,
}

impl PlannedPoint {
    fn store(self, collection: &mut vecdb::Collection, id: ObjectId) -> Result<(), VecDbError> {
        let position = (self.location.lat, self.location.lon);
        collection.insert_planned(u64::from(id.0), self.vector, position, self.plan)
    }
}

/// The refinement prompt over `objects` (in embedding order) and the
/// query `text`.
fn refinement_prompt<'a>(
    objects: impl IntoIterator<Item = &'a GeoTextObject>,
    text: &str,
) -> String {
    rerank_prompt(&geotext::json_array(objects), text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::prepare_city;
    use datagen::{poi::generate_city, queries::QueryGenConfig, CITIES};
    use geotext::BoundingBox;

    fn setup(variant: Variant) -> (SemaSkEngine, datagen::CityData) {
        let data = generate_city(&CITIES[4], 150, 21);
        let llm = Arc::new(SimLlm::new());
        // Several tests below compare answers across separately
        // prepared engines (full vs embedding-only); both price with the
        // same constant coefficients, so they route every query alike.
        let config = SemaSkConfig::default();
        let prepared = Arc::new(prepare_city(&data, &llm, &config).unwrap());
        (SemaSkEngine::new(prepared, llm, config, variant), data)
    }

    fn some_query(data: &datagen::CityData) -> datagen::TestQuery {
        let qs = datagen::queries::generate_queries(
            data,
            &QueryGenConfig {
                per_city: 5,
                ..QueryGenConfig::default()
            },
        );
        qs.into_iter().next().expect("at least one query")
    }

    /// `(length, FNV-1a)` of each refinement prompt the `setup` city and
    /// its first eight generated queries produce, recorded from the
    /// prompts the engine wrote when it still built them as a
    /// `serde_json::Value` tree and printed that.
    const PINNED_PROMPTS: [(usize, u64); 8] = [
        (14206, 11559390274978116289),
        (2734, 9938064260177949949),
        (13739, 10659968835302272286),
        (12826, 17217353785530906576),
        (8323, 6063213443014054593),
        (14557, 16613149095185572204),
        (8027, 8362485196914922736),
        (14156, 5992931767479997962),
    ];

    #[test]
    fn refinement_prompts_keep_their_bytes() {
        // The embedding-only variant answers with the candidates in the
        // order refinement would receive them.
        let (engine, data) = setup(Variant::EmbeddingOnly);
        let qs = datagen::queries::generate_queries(
            &data,
            &QueryGenConfig {
                per_city: 8,
                ..QueryGenConfig::default()
            },
        );
        let got: Vec<(usize, u64)> = qs
            .iter()
            .map(|tq| {
                let out = engine
                    .query(&SemaSkQuery::new(tq.range, tq.text.clone()))
                    .unwrap();
                let dataset = &engine.prepared().dataset;
                let prompt = refinement_prompt(out.pois.iter().map(|p| &dataset[p.id]), &tq.text);
                (prompt.len(), concepts::hash::fnv1a(prompt.as_bytes()))
            })
            .collect();
        assert_eq!(got, PINNED_PROMPTS);
    }

    /// `(length, FNV-1a, prompt tokens, completion tokens)` of the
    /// simulated model's answer to each prompt of
    /// [`PINNED_PROMPTS`], recorded before the model read its prompt in
    /// one pass: the answer and its simulated latency must not move.
    const PINNED_ANSWERS: [(usize, u64, u32, u32); 8] = [
        (198, 751442142613757243, 3552, 50),
        (104, 9845107727633758515, 684, 26),
        (258, 8111241280606920793, 3435, 65),
        (115, 4980026673938403726, 3207, 29),
        (237, 15757110288144554819, 2081, 60),
        (249, 18111424861003862417, 3640, 63),
        (91, 2997264125523550711, 2007, 23),
        (362, 1343532185329717409, 3539, 91),
    ];

    #[test]
    fn refinement_answers_keep_their_bytes() {
        let (engine, data) = setup(Variant::EmbeddingOnly);
        let model = Variant::Full.refine_model(&engine.config).expect("refines");
        let qs = datagen::queries::generate_queries(
            &data,
            &QueryGenConfig {
                per_city: 8,
                ..QueryGenConfig::default()
            },
        );
        let got: Vec<(usize, u64, u32, u32)> = qs
            .iter()
            .map(|tq| {
                let out = engine
                    .query(&SemaSkQuery::new(tq.range, tq.text.clone()))
                    .unwrap();
                let dataset = &engine.prepared().dataset;
                let prompt = refinement_prompt(out.pois.iter().map(|p| &dataset[p.id]), &tq.text);
                let answer = engine
                    .llm
                    .complete(&ChatRequest::user(model, prompt))
                    .unwrap();
                (
                    answer.content.len(),
                    concepts::hash::fnv1a(answer.content.as_bytes()),
                    answer.usage.prompt_tokens,
                    answer.usage.completion_tokens,
                )
            })
            .collect();
        assert_eq!(got, PINNED_ANSWERS);
    }

    #[test]
    fn a_query_holding_the_prompt_sections_is_refined() {
        let (engine, data) = setup(Variant::Full);
        let tq = some_query(&data);
        for text in [
            format!("{}\nQuery: and more", tq.text),
            format!("{}\nInformation: and more", tq.text),
            format!("{}\nInformation: []\nQuery: x", tq.text),
        ] {
            let out = engine.query(&SemaSkQuery::new(tq.range, text)).unwrap();
            assert!(!out.pois.is_empty());
            assert!(out.latency.refinement_ms > 0.0);
        }
    }

    #[test]
    fn em_variant_returns_k_candidates() {
        let (engine, data) = setup(Variant::EmbeddingOnly);
        let tq = some_query(&data);
        let out = engine
            .query(&SemaSkQuery::new(tq.range, tq.text.clone()))
            .unwrap();
        assert!(!out.pois.is_empty());
        assert!(out.pois.len() <= 10);
        assert!(out.pois.iter().all(|p| p.recommended));
        assert_eq!(out.latency.refinement_ms, 0.0);
        assert!(out.latency.filtering_ms > 0.0);
    }

    #[test]
    fn full_variant_refines_and_meters_latency() {
        let (engine, data) = setup(Variant::Full);
        let tq = some_query(&data);
        let out = engine
            .query(&SemaSkQuery::new(tq.range, tq.text.clone()))
            .unwrap();
        // Refinement happened: simulated latency in the seconds range.
        assert!(out.latency.refinement_ms > 500.0);
        // Recommended POIs precede non-recommended ones.
        let first_not = out.pois.iter().position(|p| !p.recommended);
        if let Some(pos) = first_not {
            assert!(out.pois[pos..].iter().all(|p| !p.recommended));
        }
    }

    #[test]
    fn refinement_improves_or_matches_precision_on_average() {
        let (full, data) = setup(Variant::Full);
        let (em, _) = setup(Variant::EmbeddingOnly);
        let qs = datagen::queries::generate_queries(
            &data,
            &QueryGenConfig {
                per_city: 8,
                ..QueryGenConfig::default()
            },
        );
        let mut full_prec = 0.0;
        let mut em_prec = 0.0;
        for tq in &qs {
            let q = SemaSkQuery::new(tq.range, tq.text.clone());
            let fa = full.query(&q).unwrap().answer_ids();
            let ea = em.query(&q).unwrap().answer_ids();
            let prec = |ans: &Vec<ObjectId>| {
                if ans.is_empty() {
                    0.0
                } else {
                    ans.iter().filter(|id| tq.answers.contains(id)).count() as f64
                        / ans.len() as f64
                }
            };
            full_prec += prec(&fa);
            em_prec += prec(&ea);
        }
        assert!(
            full_prec >= em_prec,
            "refinement should not hurt precision: full {full_prec} vs em {em_prec}"
        );
    }

    #[test]
    fn query_batch_matches_sequential_queries() {
        for variant in [Variant::EmbeddingOnly, Variant::Full] {
            let (engine, data) = setup(variant);
            let qs = datagen::queries::generate_queries(
                &data,
                &QueryGenConfig {
                    per_city: 6,
                    ..QueryGenConfig::default()
                },
            );
            let queries: Vec<SemaSkQuery> = qs
                .iter()
                .map(|tq| SemaSkQuery::new(tq.range, tq.text.clone()))
                .collect();
            let batched = engine.query_batch(&queries).unwrap();
            assert_eq!(batched.len(), queries.len());
            for (q, b) in queries.iter().zip(&batched) {
                let single = engine.query(q).unwrap();
                assert_eq!(
                    b.pois.iter().map(|p| p.id).collect::<Vec<_>>(),
                    single.pois.iter().map(|p| p.id).collect::<Vec<_>>(),
                    "{variant:?}"
                );
                assert_eq!(
                    b.pois.iter().map(|p| p.recommended).collect::<Vec<_>>(),
                    single
                        .pois
                        .iter()
                        .map(|p| p.recommended)
                        .collect::<Vec<_>>()
                );
                assert_eq!(b.latency.filter_strategy, single.latency.filter_strategy);
                assert!(b.latency.filtering_ms > 0.0);
            }
        }
    }

    #[test]
    fn keyword_queries_filter_conjunctively_end_to_end() {
        // Default config: keyword answers are strategy-independent —
        // every path scores exactly over the same conjunctive candidate
        // set — so no pinning is needed.
        let data = generate_city(&CITIES[1], 150, 33);
        let llm = Arc::new(SimLlm::new());
        let prepared = Arc::new(prepare_city(&data, &llm, &SemaSkConfig::default()).unwrap());
        let engine = SemaSkEngine::new(
            Arc::clone(&prepared),
            Arc::new(SimLlm::new()),
            SemaSkConfig::default(),
            Variant::EmbeddingOnly,
        );
        let range = prepared.dataset.bounds().unwrap();
        let tokenizer = textindex::Tokenizer::new();
        let word = prepared
            .dataset
            .iter()
            .next()
            .unwrap()
            .to_document()
            .split_whitespace()
            .find(|w| w.len() >= 4 && w.chars().all(char::is_alphabetic))
            .expect("a plain corpus word")
            .to_owned();
        let stem = tokenizer.tokenize(&word).remove(0);
        let q = SemaSkQuery::new(range, "somewhere to spend an afternoon").with_keywords(&word);
        let out = engine.query(&q).unwrap();
        assert!(!out.pois.is_empty(), "keyword `{word}` matches POIs");
        for poi in &out.pois {
            let doc = prepared.dataset[poi.id].to_document();
            assert!(
                tokenizer.tokenize(&doc).contains(&stem),
                "{} lacks keyword `{word}`",
                poi.name
            );
        }
        // The batched path answers keyword queries identically.
        let batched = engine.query_batch(std::slice::from_ref(&q)).unwrap();
        assert_eq!(
            batched[0].pois.iter().map(|p| p.id).collect::<Vec<_>>(),
            out.pois.iter().map(|p| p.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn query_batch_empty_is_empty() {
        let (engine, _) = setup(Variant::EmbeddingOnly);
        assert!(engine.query_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn empty_range_returns_empty() {
        let (engine, _) = setup(Variant::Full);
        // A range in the middle of nowhere.
        let range =
            BoundingBox::from_center_km(geotext::GeoPoint::new(10.0, 10.0).unwrap(), 5.0, 5.0);
        let out = engine.query(&SemaSkQuery::new(range, "coffee")).unwrap();
        assert!(out.pois.is_empty());
    }

    #[test]
    fn query_suburb_uses_gazetteer_range() {
        let (engine, _) = setup(Variant::EmbeddingOnly);
        let suburbs = engine.prepared().geocoder.suburbs();
        let out = engine
            .query_suburb(&suburbs[0], "coffee")
            .expect("suburb query");
        // All results inside the suburb's cell.
        let (center, half) = engine
            .prepared()
            .geocoder
            .suburb_center(&suburbs[0])
            .unwrap();
        let range = geotext::BoundingBox::from_center_km(center, half * 2.0, half * 2.0);
        for p in &out.pois {
            assert!(range.contains(&engine.prepared().dataset[p.id].location));
        }
        assert!(matches!(
            engine.query_suburb("Atlantis", "coffee"),
            Err(EngineError::UnknownSuburb { .. })
        ));
    }

    #[test]
    fn variant_labels() {
        assert_eq!(Variant::Full.label(), "SemaSK");
        assert_eq!(Variant::O1.label(), "SemaSK-O1");
        assert_eq!(Variant::EmbeddingOnly.label(), "SemaSK-EM");
    }

    #[test]
    fn a_prepared_write_is_invisible_until_it_commits() {
        let (engine, data) = setup(Variant::EmbeddingOnly);
        let center = data.city.center();
        let q = SemaSkQuery::new(
            BoundingBox::from_center_km(center, 4.0, 4.0),
            "zanzibar moonlight espresso",
        );
        let before = engine.query(&q).unwrap().answer_ids();
        let victim = before[0];
        let epoch = engine.mutation_epoch();
        let handle = engine.collection().unwrap();
        let points = handle.read().len();
        let espresso = |n: usize| {
            Mutation::Insert(crate::wal::PoiSpec {
                name: format!("Zanzibar Moonlight Espresso {n}"),
                lat: center.lat,
                lon: center.lon,
                categories: vec!["coffee shop".to_owned()],
                tips: vec!["the espresso here is phenomenal".to_owned()],
            })
        };
        // Two inserts: the second one's graph plan goes stale when the
        // first commits, and is made again.
        let batch = [espresso(1), espresso(2), Mutation::Delete { id: victim.0 }];

        // Every corpus term's document frequency, one per interned term.
        let doc_freqs = || {
            engine.prepared().planner.with_corpus(|c| {
                (0..c.vocab().len() as u32)
                    .map(|t| c.doc_freq(t))
                    .collect::<Vec<_>>()
            })
        };
        let freqs = doc_freqs();

        // Prepared and dropped: nothing happened, not even to the corpus
        // the prepare planned its terms against.
        let turn = engine.begin_mutations(&batch).unwrap();
        drop(engine.prepare_mutations(&turn, None::<fn()>).0.unwrap());
        drop(turn);
        assert_eq!(engine.mutation_epoch(), epoch);
        assert_eq!(doc_freqs(), freqs);

        let turn = engine.begin_mutations(&batch).unwrap();
        let prepared = engine.prepare_mutations(&turn, None::<fn()>).0.unwrap();
        assert_eq!(prepared.inserted, [ObjectId(150), ObjectId(151)]);
        // Queries run while the writer holds its turn, and see none of it.
        assert_eq!(engine.query(&q).unwrap().answer_ids(), before);
        assert_eq!(engine.mutation_epoch(), epoch);
        assert_eq!(handle.read().len(), points);

        let applied = engine.commit_mutations(turn, prepared).unwrap();
        assert_eq!(applied.epoch, epoch + 1);
        assert_eq!(handle.read().len(), points + 1);
        let after = engine.query(&q).unwrap().answer_ids();
        assert!(after.contains(&ObjectId(150)) && after.contains(&ObjectId(151)));
        assert!(!after.contains(&victim));
    }

    #[test]
    fn a_batch_leaves_the_corpus_of_its_surviving_objects() {
        let (engine, data) = setup(Variant::EmbeddingOnly);
        let center = data.city.center();
        let base_poi = 7u32;
        let x = engine.prepared().dataset.len() as u32;
        let touched_before = engine.prepared().dataset[ObjectId(base_poi)].to_document();
        // X is inserted and updated, base POI B updated and deleted, in
        // one batch: X's update and B's delete each edit a document an
        // earlier step of the batch wrote, and X's tokens are new to the
        // corpus when the batch is planned.
        let batch = [
            Mutation::Insert(crate::wal::PoiSpec {
                name: "Quokkaberry Vinyl Parlour".to_owned(),
                lat: center.lat,
                lon: center.lon,
                categories: vec!["record store".to_owned()],
                tips: vec!["zymurgy nights on fridays".to_owned()],
            }),
            Mutation::Update {
                id: x,
                update: crate::wal::PoiUpdate {
                    name: Some("Quokkaberry Vinyl Annex".to_owned()),
                    tips: Some(vec!["xylophone workshops, zymurgy too".to_owned()]),
                },
            },
            Mutation::Update {
                id: base_poi,
                update: crate::wal::PoiUpdate {
                    name: Some("Wombatine Tearoom".to_owned()),
                    tips: None,
                },
            },
            Mutation::Delete { id: base_poi },
        ];
        let applied = engine.apply_mutations(&batch).unwrap();
        assert_eq!(applied.inserted, [ObjectId(x)]);

        let overlay = engine.prepared().live.overlay();
        let base = engine.prepared().dataset.as_ref();
        let mut rebuilt = textindex::InvertedIndex::new();
        for id in 0..overlay.next_id() {
            let doc = overlay
                .get(base, ObjectId(id))
                .map(GeoTextObject::to_document);
            rebuilt.add_document(&doc.unwrap_or_default());
        }
        let x_doc = overlay.get(base, ObjectId(x)).unwrap().to_document();
        let docs = [
            touched_before,
            x_doc,
            "Quokkaberry Vinyl Parlour record store zymurgy nights".to_owned(),
            "Wombatine Tearoom".to_owned(),
        ];
        let tokenizer = textindex::Tokenizer::new();
        let planner = &engine.prepared().planner;
        for token in docs.iter().flat_map(|d| tokenizer.tokenize(d)) {
            let live = planner.with_corpus(|c| c.and_query(&token));
            assert_eq!(live, rebuilt.and_query(&token), "`{token}`");
            let rebuilt_empty = tokenizer
                .tokenize(&token)
                .iter()
                .any(|t| rebuilt.vocab().get(t).is_none());
            // A token only deleted documents held stays known to the
            // live corpus, which then matches nothing.
            if planner.provably_empty(&token) != rebuilt_empty {
                assert!(rebuilt_empty && live.is_empty(), "`{token}`");
            }
        }
        // The updated X matches its new words and not its dropped ones.
        assert_eq!(rebuilt.and_query("xylophone"), [x]);
        assert!(rebuilt.and_query("parlour").is_empty());
        assert!(!planner.provably_empty("xylophone zymurgy"));
    }

    #[test]
    fn mutations_show_up_in_queries() {
        let (engine, data) = setup(Variant::EmbeddingOnly);
        let center = data.city.center();
        let range = BoundingBox::from_center_km(center, 4.0, 4.0);
        let base_epoch = engine.mutation_epoch();

        // Insert: a fresh POI with a distinctive name becomes queryable.
        let id = engine
            .apply_mutations(&[Mutation::Insert(crate::wal::PoiSpec {
                name: "Zanzibar Moonlight Espresso".to_owned(),
                lat: center.lat,
                lon: center.lon,
                categories: vec!["coffee shop".to_owned()],
                tips: vec!["the espresso here is phenomenal".to_owned()],
            })])
            .unwrap()
            .inserted[0];
        assert_eq!(engine.mutation_epoch(), base_epoch + 1);
        let out = engine
            .query(&SemaSkQuery::new(range, "zanzibar moonlight espresso"))
            .unwrap();
        assert!(
            out.pois.iter().any(|p| p.id == id),
            "inserted POI missing from results"
        );

        // Update: the new name is what refinement reports.
        engine
            .apply_mutations(&[Mutation::Update {
                id: id.0,
                update: crate::wal::PoiUpdate {
                    name: Some("Zanzibar Midnight Espresso".to_owned()),
                    tips: None,
                },
            }])
            .unwrap();
        let out = engine
            .query(&SemaSkQuery::new(range, "zanzibar espresso"))
            .unwrap();
        let hit = out.pois.iter().find(|p| p.id == id).expect("still found");
        assert_eq!(&*hit.name, "Zanzibar Midnight Espresso");

        // A renamed base POI is named by the overlay's copy, not by the
        // name column prepared with the base.
        let renamed = out
            .pois
            .iter()
            .map(|p| p.id)
            .find(|&p| p != id)
            .expect("a base POI in range");
        engine
            .apply_mutations(&[Mutation::Update {
                id: renamed.0,
                update: crate::wal::PoiUpdate {
                    name: Some("Quillfeather Lantern Bistro".to_owned()),
                    tips: None,
                },
            }])
            .unwrap();
        let out = engine
            .query(&SemaSkQuery::new(range, "quillfeather lantern bistro"))
            .unwrap();
        let hit = out.pois.iter().find(|p| p.id == renamed).expect("found");
        assert_eq!(&*hit.name, "Quillfeather Lantern Bistro");

        // Delete: gone from results; stale references rejected.
        engine
            .apply_mutations(&[Mutation::Delete { id: id.0 }])
            .unwrap();
        let out = engine
            .query(&SemaSkQuery::new(range, "zanzibar espresso"))
            .unwrap();
        assert!(out.pois.iter().all(|p| p.id != id));
        assert!(matches!(
            engine.apply_mutations(&[Mutation::Delete { id: id.0 }]),
            Err(EngineError::Mutation { .. })
        ));
        assert!(matches!(
            engine.apply_mutations(&[Mutation::Update {
                id: id.0,
                update: crate::wal::PoiUpdate::default(),
            }]),
            Err(EngineError::Mutation { .. })
        ));

        // Batch validation is all-or-nothing: a bad tail rejects the head.
        let epoch = engine.mutation_epoch();
        let err = engine.apply_mutations(&[
            Mutation::Insert(crate::wal::PoiSpec {
                name: "Valid POI".to_owned(),
                lat: center.lat,
                lon: center.lon,
                categories: vec![],
                tips: vec![],
            }),
            Mutation::Delete { id: id.0 },
        ]);
        assert!(matches!(err, Err(EngineError::Mutation { .. })));
        assert_eq!(
            engine.mutation_epoch(),
            epoch,
            "rejected batch must not publish"
        );
    }
}
