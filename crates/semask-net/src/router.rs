//! The cross-process shard router: plans locally, fans the filtering
//! stage out to shard servers over the wire, merges with the k-way
//! merge, and finishes with the engine's own refinement.
//!
//! Parity contract: with a frozen cost model (`online_updates: false`),
//! routing a query through `N` shard processes produces **bit-identical
//! answers** to the same planner's in-process fan-out
//! ([`semask::RetrievalBackend::knn_in_range`]) — the router is the sole
//! planner (shards execute the shipped strategy, never re-plan), shards
//! embed the query text with the same deterministic embedder, each
//! answers only its [`vecdb::ShardSpec`] slice — the very per-slice job
//! the in-process fan-out runs
//! ([`semask::RetrievalBackend::knn_in_range_shard`]) — and
//! [`vecdb::merge_top_k`] reproduces the in-process merge exactly.
//! Keyword-aware plans score against the *global* collection, which
//! cannot be fanned out bit-exactly, so those queries execute locally
//! on the router's own engine.
//!
//! Degradation contract: a down shard costs a bounded retry-with-backoff
//! per attempt budget, then its slice is dropped and the merged result
//! is flagged degraded — a client gets a partial answer with an explicit
//! [`semask_serve::api::ServeStatus::Degraded`] status, never a hang.
//! Only when *every* shard fails does the query error.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use geotext::ObjectId;
use semask::{EngineError, LatencyBreakdown, QueryOutcome, SemaSkEngine, SemaSkQuery};
use semask_serve::api::{Request, Response, ServeStatus};
use vecdb::{merge_top_k, ScoredPoint, ShardSpec};

use crate::proto::{self, FrameKind, FrameReader, ShardQuery, ShardReply};
use crate::server::{NetHandler, Reply};

/// Connection and retry policy for shard calls.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// TCP connect budget per attempt.
    pub connect_timeout: Duration,
    /// Floor for the per-shard read timeout.
    pub read_timeout: Duration,
    /// Retries after the first failed attempt (total attempts =
    /// `retries + 1`).
    pub retries: usize,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
    /// When the plan carries per-shard predicted costs, the read
    /// timeout for shard `i` stretches to
    /// `max(read_timeout, shard_us[i] × cost_timeout_factor)` — the
    /// calibrated per-(strategy, shard) scales price the wait, so a
    /// known-slow shard is not misread as down.
    pub cost_timeout_factor: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(2),
            retries: 2,
            backoff: Duration::from_millis(50),
            cost_timeout_factor: 50.0,
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
    /// Creates a router over `peer_addrs` (one address per shard, in
    /// shard order). The peer count must match the engine planner's
    /// shard count — a mismatched topology would silently drop slices.
    ///
    /// # Errors
    /// [`EngineError::Remote`] when the topology does not match.
    pub fn new(
        engine: Arc<SemaSkEngine>,
        peer_addrs: Vec<String>,
        config: RouterConfig,
    ) -> Result<Self, EngineError> {
        let shard_count = engine.prepared().planner.shard_count();
        if peer_addrs.len() != shard_count {
            return Err(EngineError::Remote {
                message: format!(
                    "router has {} peers but the planner fans out over {shard_count} shards",
                    peer_addrs.len()
                ),
            });
        }
        let peers = peer_addrs.into_iter().map(Peer::new).collect();
        Ok(Self {
            engine,
            peers,
            config,
        })
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
                    let timeout = self.shard_timeout(plan.shard_us.get(shard).copied());
                    scope.spawn(move || self.call_shard(shard, &shard_query, timeout))
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
            cost_model_version: plan.model_version,
            shard_candidates: contributed,
            shard_predicted_us: plan.shard_us.clone(),
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

    fn shard_timeout(&self, predicted_us: Option<f64>) -> Duration {
        let base = self.config.read_timeout;
        match predicted_us {
            Some(us) if us.is_finite() && us > 0.0 => {
                let priced = Duration::from_micros((us * self.config.cost_timeout_factor) as u64);
                base.max(priced)
            }
            _ => base,
        }
    }

    /// One shard call with the bounded retry/backoff budget.
    fn call_shard(
        &self,
        shard: usize,
        query: &ShardQuery,
        timeout: Duration,
    ) -> Result<Vec<ScoredPoint>, String> {
        let peer = &self.peers[shard];
        let mut delay = self.config.backoff;
        let mut last_error = String::new();
        for attempt in 0..=self.config.retries {
            match self.call_once(peer, query, timeout) {
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

    fn call_once(
        &self,
        peer: &Peer,
        query: &ShardQuery,
        timeout: Duration,
    ) -> Result<Vec<ScoredPoint>, String> {
        let mut guard = peer.claim();
        if guard.is_none() {
            *guard = Some(self.dial(&peer.addr)?);
        }
        let stream = guard.as_mut().expect("dialed above");
        let corr = peer.corr.fetch_add(1, Ordering::Relaxed);
        let exchanged = Self::exchange(stream, corr, query, timeout);
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
            ServeStatus::Ok => Ok(hits),
            other => Err(format!("shard status: {other}")),
        }
    }
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

/// [`NetHandler`] for a shard server: answers shard-slice queries with
/// [`semask::QueryPlanner::execute_shard_slice`] and (for operational
/// convenience) full client queries with the local engine.
pub struct ShardEngineHandler {
    engine: Arc<SemaSkEngine>,
    spec: ShardSpec,
}

impl ShardEngineHandler {
    /// A handler answering for `spec`'s slice of the id space. The
    /// spec's shard count must match the engine planner's — a server
    /// partitioned two ways would otherwise answer slice 0-of-2 to a
    /// router that merges it as 0-of-4.
    ///
    /// # Errors
    /// [`EngineError::Remote`] when the topology does not match.
    pub fn new(engine: Arc<SemaSkEngine>, spec: ShardSpec) -> Result<Self, EngineError> {
        let shard_count = engine.prepared().planner.shard_count();
        if spec.shards as usize != shard_count {
            return Err(EngineError::Remote {
                message: format!(
                    "handler answers shard {}/{} but the planner fans out over {shard_count} shards",
                    spec.shard, spec.shards
                ),
            });
        }
        Ok(Self { engine, spec })
    }
}

impl NetHandler for ShardEngineHandler {
    fn handle(&self, request: Request) -> Reply {
        let engine = Arc::clone(&self.engine);
        Reply::Deferred(Box::new(move || match engine.query(&request.query) {
            Ok(outcome) => Response::ok(request.id, outcome),
            Err(e) => Response::failed(
                request.id,
                ServeStatus::EngineError {
                    message: e.to_string(),
                },
            ),
        }))
    }

    fn handle_shard(&self, query: ShardQuery) -> ShardReply {
        if query.spec != self.spec {
            return ShardReply {
                status: ServeStatus::EngineError {
                    message: format!(
                        "topology mismatch: this server answers shard {}/{} but was asked for {}/{}",
                        self.spec.shard, self.spec.shards, query.spec.shard, query.spec.shards
                    ),
                },
                hits: Vec::new(),
            };
        }
        use embed::Embedder;
        let prepared = self.engine.prepared();
        let query_vec = prepared.embedder.embed(&query.text);
        match prepared.planner.execute_shard_slice(
            query.strategy,
            &query_vec,
            &query.range,
            query.k as usize,
            query.ef.map(|ef| ef as usize),
            query.spec.shard as usize,
        ) {
            Ok(hits) => ShardReply {
                status: ServeStatus::Ok,
                hits,
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

    #[test]
    fn shard_handler_refuses_a_spec_the_planner_was_not_built_for() {
        let engine = boot::build_engine(&NodeParams {
            pois: 60,
            shards: 2,
            ..NodeParams::default()
        });
        let spec = |shards, shard| ShardSpec::new(shards, shard).expect("valid spec");
        assert!(ShardEngineHandler::new(Arc::clone(&engine), spec(2, 1)).is_ok());
        match ShardEngineHandler::new(engine, spec(4, 0)) {
            Err(EngineError::Remote { message }) => assert_eq!(
                message,
                "handler answers shard 0/4 but the planner fans out over 2 shards"
            ),
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("a 0-of-4 handler over a 2-shard planner was accepted"),
        }
    }
}
