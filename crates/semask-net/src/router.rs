//! The cross-process shard router: plans locally, fans the filtering
//! stage out to shard nodes over the wire, merges with the k-way merge,
//! and finishes with the engine's own refinement. It is the one place
//! per-shard answers are merged.
//!
//! Each shard node ([`ShardHandler`]) holds the dataset and its own
//! [`vecdb::ShardSpec`] slice of the collection, embeds the query text
//! with the same deterministic embedder, and runs the strategy the
//! router shipped ([`semask::RetrievalBackend::knn_in_range`] over its
//! slice) — the router is the sole planner. Parity contract, with plans
//! priced by constant coefficients (so a plan is a function of the
//! query alone):
//!
//! - **(a)** for every plan on an exact strategy (exact scan, grid)
//!   the routed answer is **bit-identical** to the router's own
//!   engine answering over the whole collection: exact per-slice top-k
//!   lists merge ([`vecdb::merge_top_k`], ties by ascending id) to the
//!   whole collection's top-k. Keyword-aware plans execute locally on
//!   the router's engine, so they are identical too. Filtered HNSW
//!   searches one graph per slice, so its answer is not the whole
//!   graph's;
//! - **(b)** every routed answer is the merge of the nodes' own
//!   [`NetHandler::handle_shard`] replies, refined by the router's
//!   engine — the wire adds nothing and loses nothing.
//!
//! Degradation contract: a down shard costs a bounded retry-with-backoff
//! per attempt budget, then its slice is dropped and the merged result
//! is flagged degraded — a client gets a partial answer with an explicit
//! [`semask_serve::api::ServeStatus::Degraded`] status, never a hang.
//! A reply the merge cannot trust (a non-finite score, scores out of
//! best-first order, more than `k` hits) is that shard's failure too.
//! Only when *every* shard fails does the query error.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use embed::{Embedder, SemanticEmbedder};
use geotext::ObjectId;
use semask::{
    EngineError, LatencyBreakdown, QueryOutcome, QueryPlanner, SemaSkEngine, SemaSkQuery,
};
use semask_serve::api::{Request, Response, ServeStatus};
use vecdb::{merge_top_k, ScoredPoint, ShardSpec};

use crate::proto::{self, FrameKind, FrameReader, ShardQuery, ShardReply};
use crate::server::{NetHandler, Reply};

/// Connection and retry policy for shard calls.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// TCP connect budget per attempt.
    pub connect_timeout: Duration,
    /// How long a shard call waits for its reply.
    pub read_timeout: Duration,
    /// Retries after the first failed attempt (total attempts =
    /// `retries + 1`).
    pub retries: usize,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(2),
            retries: 2,
            backoff: Duration::from_millis(50),
        }
    }
}

/// A routed answer plus its degradation record.
#[derive(Debug)]
pub struct RoutedOutcome {
    /// The merged, refined answer (partial when `degraded`).
    pub outcome: QueryOutcome,
    /// True when at least one shard's slice is missing from the merge.
    pub degraded: bool,
    /// One entry per failed shard: `"shard {i}: {error}"`.
    pub shard_errors: Vec<String>,
}

/// Connections cached per peer. Pipelined client requests route on
/// their own threads, so concurrent queries hitting the same shard
/// would serialize head-to-tail on a single cached stream; a small
/// pool lets them exchange in parallel without per-call dialing.
const CONNS_PER_PEER: usize = 3;

struct Peer {
    addr: String,
    /// Small pool of cached connections. Each slot holds one stream,
    /// dropped (and re-dialed on next use) on any error so a stale
    /// reply can never be matched to a later request on that stream.
    conns: Vec<Mutex<Option<FrameReader<TcpStream>>>>,
    /// Round-robin cursor over `conns`, so load spreads across slots.
    rr: AtomicUsize,
    /// Correlation ids, shared across the pool (unique per peer).
    corr: AtomicU64,
}

impl Peer {
    fn new(addr: String) -> Self {
        Self {
            addr,
            conns: (0..CONNS_PER_PEER).map(|_| Mutex::new(None)).collect(),
            rr: AtomicUsize::new(0),
            corr: AtomicU64::new(1),
        }
    }

    /// Claims a connection slot: first uncontended slot scanning from
    /// the round-robin cursor; if every slot is mid-exchange, blocks on
    /// the cursor's slot (bounded by the exchange's read timeout).
    fn claim(&self) -> MutexGuard<'_, Option<FrameReader<TcpStream>>> {
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let n = self.conns.len();
        for i in 0..n {
            if let Ok(guard) = self.conns[(start + i) % n].try_lock() {
                return guard;
            }
        }
        self.conns[start % n]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Stretches the filtering stage across shard server processes.
pub struct ShardRouter {
    engine: Arc<SemaSkEngine>,
    peers: Vec<Peer>,
    config: RouterConfig,
}

impl ShardRouter {
    /// Creates a router over `peer_addrs`, one address per shard in
    /// shard order: the peer count is the shard count of every
    /// [`ShardSpec`] the router sends, and each node checks the spec of
    /// every query it receives against its own.
    #[must_use]
    pub fn new(engine: Arc<SemaSkEngine>, peer_addrs: Vec<String>, config: RouterConfig) -> Self {
        Self {
            engine,
            peers: peer_addrs.into_iter().map(Peer::new).collect(),
            config,
        }
    }

    /// The engine the router plans and refines with.
    #[must_use]
    pub fn engine(&self) -> &Arc<SemaSkEngine> {
        &self.engine
    }

    /// Answers one query through the shard fabric (see the module docs
    /// for the parity and degradation contracts).
    ///
    /// # Errors
    /// [`EngineError::Remote`] when every shard failed; local engine
    /// errors from planning or refinement.
    pub fn route_query(&self, q: &SemaSkQuery) -> Result<RoutedOutcome, EngineError> {
        let config = self.engine.config();
        let planner = &self.engine.prepared().planner;
        let plan = planner.plan_query(&q.range, q.keywords.as_deref(), config.k, config.ef);

        if plan.keyword_aware {
            // Keyword-aware execution scores among a *global* candidate
            // id list; slicing it per shard would change tie-breaks.
            // Execute locally — correct, just not distributed.
            return self.engine.query(q).map(|outcome| RoutedOutcome {
                outcome,
                degraded: false,
                shard_errors: Vec::new(),
            });
        }

        let shards = self.peers.len();
        let t0 = Instant::now();
        let slices: Vec<Result<Vec<ScoredPoint>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|shard| {
                    let spec =
                        ShardSpec::new(shards as u32, shard as u32).expect("shard index in range");
                    let shard_query = ShardQuery {
                        text: q.text.clone(),
                        range: q.range,
                        k: config.k as u32,
                        ef: config.ef.map(|ef| ef as u32),
                        strategy: plan.chosen,
                        spec,
                    };
                    scope.spawn(move || self.call_shard(shard, &shard_query))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("shard call panicked".to_owned()))
                })
                .collect()
        });

        let mut per_shard = Vec::with_capacity(shards);
        let mut shard_errors = Vec::new();
        for (shard, slice) in slices.into_iter().enumerate() {
            match slice {
                Ok(hits) => per_shard.push(hits),
                Err(e) => {
                    // Keep the slice's position so merge bookkeeping
                    // stays aligned with shard indexes.
                    per_shard.push(Vec::new());
                    shard_errors.push(format!("shard {shard}: {e}"));
                }
            }
        }
        if shard_errors.len() == shards {
            return Err(EngineError::Remote {
                message: format!("all shards failed: {}", shard_errors.join("; ")),
            });
        }
        let (hits, contributed) = merge_top_k(&per_shard, config.k);
        let filtering_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let latency = LatencyBreakdown {
            filtering_ms,
            retrieval_ms: filtering_ms,
            refinement_ms: 0.0,
            filter_strategy: Some(plan.chosen),
            estimated_selectivity: plan.fraction,
            predicted_cost_us: plan.predicted_us,
            runner_up: plan.runner_up,
            shard_candidates: contributed,
        };
        let candidates: Vec<(ObjectId, f32)> = hits
            .iter()
            .map(|h| (ObjectId(h.id as u32), h.score))
            .collect();
        let outcome = self
            .engine
            .refine_candidates(&q.text, candidates, latency)?;
        Ok(RoutedOutcome {
            outcome,
            degraded: !shard_errors.is_empty(),
            shard_errors,
        })
    }

    /// One shard call with the bounded retry/backoff budget.
    fn call_shard(&self, shard: usize, query: &ShardQuery) -> Result<Vec<ScoredPoint>, String> {
        let peer = &self.peers[shard];
        let mut delay = self.config.backoff;
        let mut last_error = String::new();
        for attempt in 0..=self.config.retries {
            match self.call_once(peer, query) {
                Ok(hits) => return Ok(hits),
                Err(e) => {
                    last_error = e;
                    if attempt < self.config.retries {
                        std::thread::sleep(delay);
                        delay = delay.saturating_mul(2);
                    }
                }
            }
        }
        Err(last_error)
    }

    fn call_once(&self, peer: &Peer, query: &ShardQuery) -> Result<Vec<ScoredPoint>, String> {
        let mut guard = peer.claim();
        if guard.is_none() {
            *guard = Some(self.dial(&peer.addr)?);
        }
        let stream = guard.as_mut().expect("dialed above");
        let corr = peer.corr.fetch_add(1, Ordering::Relaxed);
        let exchanged = Self::exchange(stream, corr, query, self.config.read_timeout);
        if exchanged.is_err() {
            // Drop the connection on any failure: a late reply on a
            // reused stream could otherwise be matched to the next
            // request on this slot. The next use re-dials.
            *guard = None;
        }
        exchanged
    }

    fn dial(&self, addr: &str) -> Result<FrameReader<TcpStream>, String> {
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| format!("resolve {addr}: {e}"))?
            .next()
            .ok_or_else(|| format!("resolve {addr}: no addresses"))?;
        let stream = TcpStream::connect_timeout(&resolved, self.config.connect_timeout)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("configure {addr}: {e}"))?;
        Ok(FrameReader::new(stream))
    }

    fn exchange(
        stream: &mut FrameReader<TcpStream>,
        corr: u64,
        query: &ShardQuery,
        timeout: Duration,
    ) -> Result<Vec<ScoredPoint>, String> {
        stream
            .get_ref()
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("set timeout: {e}"))?;
        proto::write_frame(
            stream.get_mut(),
            FrameKind::ShardQuery,
            corr,
            &proto::encode_shard_query(query),
        )
        .map_err(|e| format!("send: {e}"))?;
        let frame = stream.next_frame().map_err(|e| format!("recv: {e}"))?;
        if frame.kind != FrameKind::ShardReply || frame.corr != corr {
            return Err("out-of-protocol reply".to_owned());
        }
        let ShardReply { status, hits } =
            proto::decode_shard_reply(&frame.payload).map_err(|e| format!("decode: {e}"))?;
        match status {
            ServeStatus::Ok => {
                check_slice(&hits, query.k as usize)?;
                Ok(hits)
            }
            other => Err(format!("shard status: {other}")),
        }
    }
}

/// What the k-way merge assumes of a slice: at most `k` hits, finite
/// scores, best first. A reply breaking any of them would rank a NaN
/// above every real score or corrupt the merge, so it is refused.
fn check_slice(hits: &[ScoredPoint], k: usize) -> Result<(), String> {
    if hits.len() > k {
        return Err(format!("malformed reply: {} hits for k = {k}", hits.len()));
    }
    if let Some(hit) = hits.iter().find(|h| !h.score.is_finite()) {
        return Err(format!(
            "malformed reply: non-finite score {} for id {}",
            hit.score, hit.id
        ));
    }
    if let Some(pair) = hits.windows(2).find(|w| w[1].score > w[0].score) {
        return Err(format!(
            "malformed reply: id {} scores {} after {}, not best first",
            pair[1].id, pair[1].score, pair[0].score
        ));
    }
    Ok(())
}

/// [`NetHandler`] that serves client requests through a [`ShardRouter`].
/// Each request routes on its own thread (deferred), so pipelined
/// requests fan out concurrently, bounded by the server's per-connection
/// in-flight cap.
pub struct RouterHandler {
    router: Arc<ShardRouter>,
}

impl RouterHandler {
    /// Wraps a router for serving.
    #[must_use]
    pub fn new(router: Arc<ShardRouter>) -> Self {
        Self { router }
    }
}

impl NetHandler for RouterHandler {
    fn handle(&self, request: Request) -> Reply {
        let router = Arc::clone(&self.router);
        let id = request.id;
        let worker = std::thread::spawn(move || route_to_response(&router, &request));
        Reply::Deferred(Box::new(move || {
            worker
                .join()
                .unwrap_or_else(|_| Response::failed(id, ServeStatus::BatchPanicked))
        }))
    }
}

fn route_to_response(router: &ShardRouter, request: &Request) -> Response {
    match router.route_query(&request.query) {
        Ok(routed) if routed.degraded => {
            Response::degraded(request.id, routed.outcome, routed.shard_errors.join("; "))
        }
        Ok(routed) => Response::ok(request.id, routed.outcome),
        Err(e) => Response::failed(
            request.id,
            ServeStatus::EngineError {
                message: e.to_string(),
            },
        ),
    }
}

/// [`NetHandler`] for a shard node: the dataset (for the grid and
/// IR-tree candidate sources and the embedder) plus the node's own
/// slice of the collection, answering the shard queries of its
/// [`ShardSpec`] and nothing else. Built by [`crate::boot::build_shard`].
pub struct ShardHandler {
    embedder: SemanticEmbedder,
    planner: QueryPlanner,
    spec: ShardSpec,
}

impl ShardHandler {
    /// A node answering for `spec` with `planner` over its slice.
    pub(crate) fn new(embedder: SemanticEmbedder, planner: QueryPlanner, spec: ShardSpec) -> Self {
        Self {
            embedder,
            planner,
            spec,
        }
    }
}

impl NetHandler for ShardHandler {
    fn handle(&self, request: Request) -> Reply {
        Reply::Ready(Response::failed(
            request.id,
            ServeStatus::EngineError {
                message: format!(
                    "shard node {}/{} answers only shard queries; send client queries to the router",
                    self.spec.shard, self.spec.shards
                ),
            },
        ))
    }

    fn handle_shard(&self, query: ShardQuery) -> ShardReply {
        if query.spec != self.spec {
            return ShardReply {
                status: ServeStatus::EngineError {
                    message: format!(
                        "topology mismatch: this node answers shard {}/{} but was asked for {}/{}",
                        self.spec.shard, self.spec.shards, query.spec.shard, query.spec.shards
                    ),
                },
                hits: Vec::new(),
            };
        }
        let query_vec = self.embedder.embed(&query.text);
        let answered = self.planner.backend(query.strategy).knn_in_range(
            &[&query_vec],
            &query.range,
            query.k as usize,
            query.ef.map(|ef| ef as usize),
        );
        match answered {
            Ok(mut hits) => ShardReply {
                status: ServeStatus::Ok,
                hits: hits.pop().expect("one answer per query"),
            },
            Err(e) => ShardReply {
                status: ServeStatus::EngineError {
                    message: e.to_string(),
                },
                hits: Vec::new(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot::{self, NodeParams};
    use semask::RetrievalStrategy;

    fn params() -> NodeParams {
        NodeParams {
            pois: 60,
            shards: 2,
            ..NodeParams::default()
        }
    }

    /// Every id `node` holds: an exact scan over a range covering the
    /// whole world, with room for all `pois` points.
    fn held_ids(node: &ShardHandler, spec: ShardSpec, pois: usize) -> Vec<u64> {
        let reply = node.handle_shard(ShardQuery {
            text: "anything".to_owned(),
            range: geotext::BoundingBox::new(-90.0, -180.0, 90.0, 180.0).expect("world"),
            k: pois as u32,
            ef: None,
            strategy: RetrievalStrategy::ExactScan,
            spec,
        });
        assert_eq!(reply.status, ServeStatus::Ok);
        let mut ids: Vec<u64> = reply.hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn a_node_holds_exactly_the_ids_its_spec_owns() {
        let params = params();
        let mut all = Vec::new();
        for shard in 0..params.shards {
            let spec = ShardSpec::new(params.shards, shard).expect("valid spec");
            let held = held_ids(&boot::build_shard(&params, spec), spec, params.pois);
            assert!(!held.is_empty(), "shard {shard} holds points");
            assert!(held.iter().all(|&id| spec.owns(id)), "shard {shard}");
            all.extend(held);
        }
        all.sort_unstable();
        let expected: Vec<u64> = (0..params.pois as u64).collect();
        assert_eq!(all, expected, "the slices cover the city once");
    }

    #[test]
    fn shard_handler_refuses_a_spec_the_planner_was_not_built_for() {
        let spec = |shards, shard| ShardSpec::new(shards, shard).expect("valid spec");
        let node = boot::build_shard(&params(), spec(2, 1));
        let query = |spec| ShardQuery {
            text: "late night ramen".to_owned(),
            range: geotext::BoundingBox::new(-90.0, -180.0, 90.0, 180.0).expect("world"),
            k: 10,
            ef: None,
            strategy: RetrievalStrategy::ExactScan,
            spec,
        };
        assert_eq!(node.handle_shard(query(spec(2, 1))).status, ServeStatus::Ok);
        let refused = node.handle_shard(query(spec(4, 0)));
        assert!(refused.hits.is_empty());
        assert_eq!(
            refused.status,
            ServeStatus::EngineError {
                message: "topology mismatch: this node answers shard 1/2 but was asked for 0/4"
                    .to_owned()
            }
        );
    }

    #[test]
    fn a_node_refuses_client_queries() {
        let node = boot::build_shard(&params(), ShardSpec::new(2, 0).expect("valid spec"));
        let request = Request::new(
            7,
            SemaSkQuery::new(
                geotext::BoundingBox::new(-90.0, -180.0, 90.0, 180.0).expect("world"),
                "late night ramen",
            ),
        );
        let Reply::Ready(response) = node.handle(request) else {
            panic!("a refusal is ready at once");
        };
        assert_eq!(response.id, 7);
        assert!(response.outcome.is_none());
        assert!(
            matches!(&response.status, ServeStatus::EngineError { message }
                if message.contains("answers only shard queries")),
            "{:?}",
            response.status
        );
    }
}
