//! The adapter: every call into the system under test goes through this
//! module, and nothing outside it names a `semask*`, `vecdb`, `datagen`
//! or `geotext` type. Workload generation, load loops, statistics and
//! reporting work on the plain data types of `gen.rs` and the handles
//! below, so a later change to a public signature of the system needs a
//! follow-up here and nowhere else.
//!
//! The handles time nothing themselves; the harness wraps each call in
//! its own clock and span.

use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use embed::Embedder;
use geotext::{BoundingBox, ObjectId};
use llm::SimLlm;
use semask::retrieval::RetrievalStrategy;
use semask::{
    CheckpointPolicy, DurableEngine, EngineError, LatencyBreakdown, PoiSpec, PoiUpdate,
    PreparedCity, QueryOutcome, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant,
};
use semask_net::client::{ClientConfig, NetClient};
use semask_net::proto::{self, FrameKind};
use semask_net::server::{NetHandler, ServeServer, ServerConfig};
use semask_serve::api::{CacheStatus, Request, Response};
use semask_serve::{ServeConfig, ServeEngine, ServeError};
use vecdb::{ScoringTier, SearchParams, SearchStrategy};

use crate::gen::{Mutation, Query, Terrain};

/// Seed of the generated world. Fixed: it is the dataset's identity, and
/// `--seed` drives only the inputs sent to it.
pub const WORLD_SEED: u64 = 7;
/// POIs in the world. See the README for why this is not the 40,000 the
/// issue sized: every run prepares the world from scratch, and the
/// driver's time cap divides by 92 runs.
pub const WORLD_POIS: usize = 4000;
/// Paper-protocol queries generated with ground-truth answers.
pub const PAPER_QUERIES: usize = 300;
/// Results per query (the paper's k).
pub const K: usize = 10;
/// Threads of the preparation pipeline (the host has two cores).
const PREP_THREADS: usize = 2;

/// The four filtering strategies are reported by index, in this order:
/// exact scan, filtered HNSW, grid prefilter, IR-tree.
fn strategy_index(s: RetrievalStrategy) -> usize {
    match s {
        RetrievalStrategy::ExactScan => 0,
        RetrievalStrategy::FilteredHnsw => 1,
        RetrievalStrategy::GridPrefilter => 2,
        RetrievalStrategy::IrTree => 3,
    }
}

fn strategy_at(index: usize) -> RetrievalStrategy {
    [
        RetrievalStrategy::ExactScan,
        RetrievalStrategy::FilteredHnsw,
        RetrievalStrategy::GridPrefilter,
        RetrievalStrategy::IrTree,
    ][index]
}

fn range_of(q: &Query) -> BoundingBox {
    BoundingBox {
        min_lat: q.min_lat,
        min_lon: q.min_lon,
        max_lat: q.max_lat,
        max_lon: q.max_lon,
    }
}

fn to_sut_query(q: &Query) -> SemaSkQuery {
    let query = SemaSkQuery::new(range_of(q), q.text.clone());
    match &q.keyword {
        Some(k) => query.with_keywords(k.clone()),
        None => query,
    }
}

fn to_sut_mutation(m: &Mutation) -> semask::Mutation {
    match m {
        Mutation::Insert {
            name,
            lat,
            lon,
            categories,
            tips,
        } => semask::Mutation::Insert(PoiSpec {
            name: name.clone(),
            lat: *lat,
            lon: *lon,
            categories: categories.clone(),
            tips: tips.clone(),
        }),
        Mutation::UpdateTips { id, tips } => semask::Mutation::Update {
            id: *id,
            update: PoiUpdate {
                name: None,
                tips: Some(tips.clone()),
            },
        },
        Mutation::Delete { id } => semask::Mutation::Delete { id: *id },
    }
}

/// One answer as plain data, whichever entry point produced it.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// Success status. A refused, failed or undecodable request is not ok.
    pub ok: bool,
    /// `"ok"` or what went wrong.
    pub status: String,
    /// Every returned POI, best first: the recommended ones in rank
    /// order, then the candidates refinement judged not relevant.
    pub ids: Vec<u32>,
    /// How many of `ids`, from the front, are the system's answer.
    pub recommended: usize,
    /// Answered at admission from the result or negative cache.
    pub cached: bool,
    /// The plan that ran, when one did: 0 exact scan, 1 filtered HNSW,
    /// 2 grid prefilter, 3 IR-tree.
    pub strategy: Option<usize>,
    /// The planner's predicted cost of that plan.
    pub predicted_us: f64,
    /// The simulated LLM latency of refinement (never slept).
    pub simulated_refine_ms: f64,
}

impl Reply {
    /// A reply that is not ok, with what went wrong.
    pub fn failed(status: String) -> Self {
        Self {
            status,
            ..Self::default()
        }
    }

    fn from_outcome(outcome: &QueryOutcome, cached: bool) -> Self {
        Self {
            ok: true,
            status: "ok".to_owned(),
            ids: outcome.pois.iter().map(|p| p.id.0).collect(),
            recommended: outcome.pois.iter().filter(|p| p.recommended).count(),
            cached,
            strategy: outcome.latency.filter_strategy.map(strategy_index),
            predicted_us: outcome.latency.predicted_cost_us,
            simulated_refine_ms: outcome.latency.refinement_ms,
        }
    }

    fn from_result(result: Result<QueryOutcome, EngineError>) -> Self {
        match result {
            Ok(outcome) => Self::from_outcome(&outcome, false),
            Err(e) => Self::failed(e.to_string()),
        }
    }

    fn from_response(response: &Response) -> Self {
        match (&response.outcome, response.status.is_success()) {
            (Some(outcome), true) => {
                Self::from_outcome(outcome, response.cached != CacheStatus::Miss)
            }
            _ => Self::failed(response.status.to_string()),
        }
    }
}

/// How long each part of one set-up took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub prepare_s: f64,
    pub queries_s: f64,
    pub warm_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.prepare_s + self.queries_s + self.warm_s
    }
}

/// A paper-protocol query with its ground-truth answer set.
#[derive(Debug, Clone)]
pub struct PaperQuery {
    pub query: Query,
    pub answers: Vec<u32>,
}

/// Bytes per POI of the vector collection, by component.
#[derive(Debug, Clone, Copy)]
pub struct Footprint {
    pub resident_per_poi: f64,
    pub total_per_poi: f64,
    pub quant_per_poi: f64,
    pub payload_per_poi: f64,
    pub id_index_per_poi: f64,
}

/// The prepared world every workload runs against.
pub struct World {
    prepared: Arc<PreparedCity>,
    llm: Arc<SimLlm>,
    config: SemaSkConfig,
    pub pois: u32,
    pub paper: Vec<PaperQuery>,
    pub terrain: Terrain,
}

impl World {
    /// Set-up: generate the metro, run the preparation pipeline, generate
    /// the paper-protocol queries, and run one warm pass over them so the
    /// lazily built keyword corpus and IR-tree exist before anything is
    /// timed.
    ///
    /// The scoring tier is forced to the quantized-first one with the
    /// default rerank factor. That is exactly what `ScoringTier::Auto`
    /// resolves to above 32,768 points; forcing it keeps the metro code
    /// path (quantized scan, rerank, compressed payload text) live on a
    /// world small enough to prepare in every run.
    pub fn setup(pois: usize) -> (World, SetupTimes) {
        let t = Instant::now();
        let data = datagen::generate_metro(&datagen::MetroConfig::new(pois, WORLD_SEED));
        let generate_s = t.elapsed().as_secs_f64();

        let llm = Arc::new(SimLlm::new());
        let config = SemaSkConfig {
            compress_payload_text: true,
            scoring_tier: ScoringTier::Quantized {
                rerank_factor: ScoringTier::DEFAULT_RERANK_FACTOR,
            },
            ..SemaSkConfig::default()
        };
        let t = Instant::now();
        let prepared = Arc::new(
            semask::prepare_city_with_threads(&data, &llm, &config, PREP_THREADS)
                .expect("preparing a generated metro cannot fail"),
        );
        let prepare_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let generated = datagen::queries::generate_queries(
            &data,
            &datagen::queries::QueryGenConfig {
                per_city: PAPER_QUERIES,
                ..datagen::queries::QueryGenConfig::default()
            },
        );
        let queries_s = t.elapsed().as_secs_f64();
        let paper: Vec<PaperQuery> = generated
            .into_iter()
            .map(|q| PaperQuery {
                query: Query {
                    min_lat: q.range.min_lat,
                    min_lon: q.range.min_lon,
                    max_lat: q.range.max_lat,
                    max_lon: q.range.max_lon,
                    text: q.text,
                    keyword: None,
                },
                answers: q.answers.iter().map(|id| id.0).collect(),
            })
            .collect();
        assert!(!paper.is_empty(), "the generator found no paper queries");

        let bounds = prepared.dataset.bounds().expect("a non-empty world");
        let center = prepared.city.center();
        let terrain = Terrain {
            center_lat: center.lat,
            center_lon: center.lon,
            bounds: [
                bounds.min_lat,
                bounds.min_lon,
                bounds.max_lat,
                bounds.max_lon,
            ],
            texts: paper.iter().map(|p| p.query.text.clone()).collect(),
        };
        let world = World {
            prepared,
            llm,
            config,
            pois: pois as u32,
            paper,
            terrain,
        };

        let t = Instant::now();
        let engine = world.engine(false);
        for (i, p) in world.paper.iter().enumerate() {
            let mut q = p.query.clone();
            if i % 4 == 0 {
                q.keyword = Some(crate::gen::KEYWORDS[i / 4 % crate::gen::KEYWORDS.len()].into());
            }
            let reply = engine.query(&q);
            assert!(reply.ok, "warm pass query failed: {}", reply.status);
        }
        let warm_s = t.elapsed().as_secs_f64();

        let times = SetupTimes {
            generate_s,
            prepare_s,
            queries_s,
            warm_s,
        };
        (world, times)
    }

    /// An in-process engine over the world: the full filter-and-refine
    /// pipeline, or the embedding-only variant without the LLM step.
    pub fn engine(&self, refine: bool) -> Engine {
        let variant = if refine {
            Variant::Full
        } else {
            Variant::EmbeddingOnly
        };
        Engine(Arc::new(SemaSkEngine::new(
            Arc::clone(&self.prepared),
            Arc::clone(&self.llm),
            self.config.clone(),
            variant,
        )))
    }

    /// Checks one reply against its query: success status, at most
    /// [`K`] results, every returned POI known and inside the range.
    /// Liveness is not checked here — a POI may be deleted between the
    /// reply and the check; the durable workload checks deletes itself.
    pub fn check(&self, q: &Query, reply: &Reply) -> Result<(), String> {
        if !reply.ok {
            return Err(format!("status {}", reply.status));
        }
        if reply.ids.len() > K {
            return Err(format!("{} results for k = {K}", reply.ids.len()));
        }
        let overlay = self.prepared.live.overlay();
        for &id in &reply.ids {
            let Some(obj) = overlay.get_raw(&self.prepared.dataset, ObjectId(id)) else {
                return Err(format!("unknown POI {id}"));
            };
            if !q.contains(obj.location.lat, obj.location.lon) {
                return Err(format!("POI {id} outside the query range"));
            }
        }
        Ok(())
    }

    /// Where a POI is and what it is called, if it was ever known.
    pub fn locate(&self, id: u32) -> Option<(f64, f64, String)> {
        let overlay = self.prepared.live.overlay();
        overlay
            .get_raw(&self.prepared.dataset, ObjectId(id))
            .map(|o| (o.location.lat, o.location.lon, o.name().to_owned()))
    }

    /// F1@10 of a reply's answer against a ground-truth answer set, by
    /// the system's own evaluation code (the paper's measure).
    pub fn f1_at_10(reply: &Reply, truth: &[u32]) -> f64 {
        let ids = |v: &[u32]| -> Vec<ObjectId> { v.iter().map(|&i| ObjectId(i)).collect() };
        semask::f1_at_k(&ids(&reply.ids[..reply.recommended]), &ids(truth), K)
    }

    fn collection(&self) -> vecdb::CollectionHandle {
        self.prepared
            .db
            .collection(&self.prepared.collection_name)
            .expect("the prepared collection exists")
    }

    pub fn footprint(&self) -> Footprint {
        let fp = self.collection().read().memory_footprint();
        let per = |bytes: usize| bytes as f64 / fp.points.max(1) as f64;
        Footprint {
            resident_per_poi: fp.resident_bytes_per_point() as f64,
            total_per_poi: per(fp.total_bytes()),
            quant_per_poi: per(fp.quant_bytes),
            payload_per_poi: per(fp.payload_bytes),
            id_index_per_poi: per(fp.id_index_bytes),
        }
    }

    /// Plan-memo counters so far: `(hits, misses)`.
    pub fn plan_memo(&self) -> (u64, u64) {
        let s = self.prepared.planner.plan_memo_stats();
        (s.hits, s.misses)
    }

    /// The filtering stage with a strategy forced, bypassing the planner.
    /// Returns the number of hits.
    pub fn retrieve_forced(&self, strategy: usize, vector: &[f32], q: &Query) -> usize {
        self.prepared
            .planner
            .retrieve_with(strategy_at(strategy), vector, &range_of(q), K, None)
            .expect("a forced strategy serves any range")
            .hits
            .len()
    }

    /// A whole-collection top-k search in the vector database, by exact
    /// scan or through the HNSW graph. Returns the number of hits.
    pub fn collection_search(&self, vector: &[f32], exact: bool) -> usize {
        let strategy = if exact {
            SearchStrategy::Exact
        } else {
            SearchStrategy::Hnsw
        };
        let handle = self.collection();
        let guard = handle.read();
        guard
            .search(vector, &SearchParams::top_k(K).with_strategy(strategy))
            .expect("whole-collection search")
            .len()
    }

    /// Whether the corpus provably holds no document with `word`.
    pub fn keyword_absent(&self, word: &str) -> bool {
        self.prepared.planner.provably_empty(word)
    }
}

/// Candidates of the filtering stage, on their way to refinement.
pub struct Filtered {
    candidates: Vec<(ObjectId, f32)>,
    latency: LatencyBreakdown,
}

/// An in-process query engine.
#[derive(Clone)]
pub struct Engine(Arc<SemaSkEngine>);

impl Engine {
    /// `SemaSkEngine::query`: the whole pipeline in one call.
    pub fn query(&self, q: &Query) -> Reply {
        Reply::from_result(self.0.query(&to_sut_query(q)))
    }

    /// `SemaSkEngine::query_batch`.
    pub fn batch(&self, queries: &[Query]) -> Vec<Reply> {
        let batch: Vec<SemaSkQuery> = queries.iter().map(to_sut_query).collect();
        match self.0.query_batch(&batch) {
            Ok(outcomes) => outcomes
                .iter()
                .map(|o| Reply::from_outcome(o, false))
                .collect(),
            Err(e) => vec![Reply::failed(e.to_string()); queries.len()],
        }
    }

    /// Stage 1 of the pipeline: embed `q.T`.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        self.0.prepared().embedder.embed(text)
    }

    /// Stage 2: the planner-routed filtered k-NN over `q.r`
    /// (`PreparedCity::filtered_knn_keyword`).
    pub fn retrieve(&self, vector: &[f32], q: &Query) -> Result<Filtered, String> {
        let config = self.0.config();
        let planned = self
            .0
            .prepared()
            .filtered_knn_keyword(
                vector,
                &range_of(q),
                q.keyword.as_deref(),
                config.k,
                config.ef,
            )
            .map_err(|e| e.to_string())?;
        Ok(Filtered {
            candidates: planned
                .hits
                .iter()
                .map(|h| (ObjectId(h.id as u32), h.score))
                .collect(),
            latency: LatencyBreakdown {
                filter_strategy: Some(planned.strategy),
                predicted_cost_us: planned.predicted_cost_us,
                ..LatencyBreakdown::default()
            },
        })
    }

    /// Stage 3: `SemaSkEngine::refine_candidates` — the LLM re-rank in
    /// the full variant, a pass-through in the embedding-only one.
    pub fn refine(&self, text: &str, filtered: Filtered) -> Reply {
        Reply::from_result(
            self.0
                .refine_candidates(text, filtered.candidates, filtered.latency),
        )
    }

    /// `SemaSkEngine::apply_mutations` of one write, with no log.
    pub fn apply(&self, m: &Mutation) -> Result<(), String> {
        self.0
            .apply_mutations(&[to_sut_mutation(m)])
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// The bytes of the wire reply to `q`, for the decode probe.
    pub fn encoded_reply(&self, id: u64, q: &Query) -> Vec<u8> {
        let result = self
            .0
            .query(&to_sut_query(q))
            .map_err(|e| ServeError::Engine(Arc::new(e)));
        proto::encode_response(&Response::from_result(id, result))
    }
}

/// `proto::encode_request` of one request.
pub fn encode_request(id: u64, q: &Query) -> Vec<u8> {
    proto::encode_request(&Request::new(id, to_sut_query(q)))
}

/// `proto::decode_response` of one reply.
pub fn decode_reply(bytes: &[u8]) -> Reply {
    match proto::decode_response(bytes) {
        Ok(response) => Reply::from_response(&response),
        Err(e) => Reply::failed(format!("undecodable reply: {e}")),
    }
}

/// Counters of the serving layer over a server's lifetime.
#[derive(Debug, Clone, Copy)]
pub struct ServeCounters {
    pub mean_batch: f64,
    pub mean_queue_wait_us: f64,
    pub shed: u64,
    pub cache_hit_rate: f64,
    pub cache_stale_evictions: u64,
    pub negative_hits: u64,
}

/// A `ServeEngine` with a loopback `ServeServer` in front of it, both
/// with their default configuration apart from the two cache settings.
pub struct Server {
    serve: Arc<ServeEngine>,
    net: ServeServer,
    addr: String,
}

impl Server {
    pub fn start(engine: &Engine, cache_entries: usize, negative_cache: bool) -> Server {
        let serve = Arc::new(ServeEngine::new(
            Arc::clone(&engine.0),
            ServeConfig {
                result_cache_entries: cache_entries,
                negative_cache,
                ..ServeConfig::default()
            },
        ));
        let net = ServeServer::bind(
            ("127.0.0.1", 0),
            Arc::clone(&serve) as Arc<dyn NetHandler>,
            ServerConfig::default(),
        )
        .expect("binding a loopback port");
        let addr = format!("127.0.0.1:{}", net.local_addr().port());
        Server { serve, net, addr }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// In-process `ServeEngine::submit_request(..).wait()`: admission,
    /// batching and ticket delivery without frames or sockets.
    pub fn submit(&self, id: u64, q: &Query) -> Reply {
        let response = self
            .serve
            .submit_request(Request::new(id, to_sut_query(q)))
            .wait();
        Reply::from_response(&response)
    }

    pub fn counters(&self) -> ServeCounters {
        let m = self.serve.metrics();
        ServeCounters {
            mean_batch: m.mean_batch_size(),
            mean_queue_wait_us: m.mean_queue_wait().as_secs_f64() * 1e6,
            shed: m.shed,
            cache_hit_rate: m.cache_hit_rate().unwrap_or(0.0),
            cache_stale_evictions: m.cache_stale_evictions,
            negative_hits: m.negative_hits,
        }
    }

    /// Stops the listener and the batcher and joins their threads.
    pub fn stop(mut self) {
        self.net.shutdown();
        self.serve.shutdown();
    }
}

/// A `NetClient` connection.
pub struct Client(NetClient);

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        NetClient::connect(addr, &ClientConfig::default())
            .map(Client)
            .map_err(|e| e.to_string())
    }

    pub fn send(&mut self, id: u64, q: &Query) -> Result<(), String> {
        self.0
            .send_request(&Request::new(id, to_sut_query(q)))
            .map_err(|e| e.to_string())
    }

    pub fn recv(&mut self) -> Result<(u64, Reply), String> {
        let response = self.0.recv_response().map_err(|e| e.to_string())?;
        Ok((response.id, Reply::from_response(&response)))
    }

    /// `NetClient::request`: send one, wait for its reply.
    pub fn request(&mut self, id: u64, q: &Query) -> Result<Reply, String> {
        let response = self
            .0
            .request(&Request::new(id, to_sut_query(q)))
            .map_err(|e| e.to_string())?;
        Ok(Reply::from_response(&response))
    }
}

/// The two halves of one raw connection, for the open loop: a sender and
/// a receiver thread share one socket through `proto::write_frame` and
/// `proto::read_frame`, so sending never waits for a reply.
pub struct RawSender(TcpStream);
pub struct RawReceiver(TcpStream);

pub fn raw_connect(addr: &str) -> Result<(RawSender, RawReceiver), String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    // A lost reply must not hang the receiver thread for good.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let receiver = stream.try_clone().map_err(|e| e.to_string())?;
    Ok((RawSender(stream), RawReceiver(receiver)))
}

impl RawSender {
    pub fn send(&mut self, id: u64, q: &Query) -> Result<(), String> {
        proto::write_frame(&mut self.0, FrameKind::Submit, id, &encode_request(id, q))
            .map_err(|e| e.to_string())
    }
}

impl RawReceiver {
    pub fn recv(&mut self) -> Result<(u64, Reply), String> {
        let frame = proto::read_frame(&mut self.0).map_err(|e| e.to_string())?;
        if frame.kind != FrameKind::SubmitReply {
            return Err("expected a submit reply".to_owned());
        }
        Ok((frame.corr, decode_reply(&frame.payload)))
    }
}

/// What one durable write accomplished.
#[derive(Debug, Clone, Copy)]
pub struct Receipt {
    /// The id the write's insert was given, when it was one.
    pub inserted: Option<u32>,
    /// Log size after the write (0 right after a checkpoint).
    pub wal_bytes: u64,
    /// Whether this write tripped the checkpoint policy and paid for the
    /// snapshot.
    pub checkpointed: bool,
}

/// A `DurableEngine` (embedding-only variant, default checkpoint policy)
/// over the world.
pub struct Durable(DurableEngine);

impl Durable {
    /// `DurableEngine::create`: writes the initial snapshot into `dir`.
    pub fn create(world: &World, dir: &Path) -> Result<Durable, String> {
        let engine = SemaSkEngine::new(
            Arc::clone(&world.prepared),
            Arc::clone(&world.llm),
            world.config.clone(),
            Variant::EmbeddingOnly,
        );
        DurableEngine::create(engine, dir, CheckpointPolicy::default())
            .map(Durable)
            .map_err(|e| e.to_string())
    }

    /// `DurableEngine::open`: the restart. Loads the committed snapshot
    /// from `dir` and replays the log; shares nothing with the world in
    /// memory but its configuration.
    pub fn reopen(world: &World, dir: &Path) -> Result<Durable, String> {
        DurableEngine::open(
            dir,
            Arc::clone(&world.llm),
            world.config.clone(),
            Variant::EmbeddingOnly,
            CheckpointPolicy::default(),
        )
        .map(|(engine, _report)| Durable(engine))
        .map_err(|e| e.to_string())
    }

    /// `DurableEngine::mutate`: log, fsync, apply, maybe checkpoint.
    pub fn mutate(&self, m: &Mutation) -> Result<Receipt, String> {
        let receipt = self
            .0
            .mutate(to_sut_mutation(m))
            .map_err(|e| e.to_string())?;
        Ok(Receipt {
            inserted: receipt.inserted.first().map(|id| id.0),
            wal_bytes: receipt.wal_bytes,
            checkpointed: receipt.checkpoint_records.is_some(),
        })
    }

    /// A read on `durable.engine()`.
    pub fn query(&self, q: &Query) -> Reply {
        Reply::from_result(self.0.engine().query(&to_sut_query(q)))
    }
}

/// `wal::encode_record` of one write; returns the record's size.
pub fn wal_encode(seq: u64, m: &Mutation) -> usize {
    semask::wal::encode_record(seq, &to_sut_mutation(m))
        .expect("a generated write encodes")
        .len()
}
