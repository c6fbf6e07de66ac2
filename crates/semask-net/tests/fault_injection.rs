//! Fault injection for the network layer.
//!
//! - A killed shard degrades the answer (flagged, partial, bounded
//!   retry) — it never hangs a client and never poisons later queries.
//! - Every shard down is an explicit error, again bounded.
//! - A shard whose reply the merge cannot trust — a non-finite score,
//!   scores out of best-first order, more than `k` hits — is a failed
//!   shard: the answer is degraded and names it, never merged.
//! - A slow-loris connection (drip-feeding header bytes) is dropped by
//!   the read timeout while the server keeps serving everyone else;
//!   ditto a client that sends garbage instead of a frame.

use std::io::{BufRead, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use semask::{EngineError, RetrievalStrategy};
use semask_net::boot::{self, NodeParams};
use semask_net::client::{ClientConfig, NetClient};
use semask_net::proto::{ShardQuery, ShardReply};
use semask_net::router::{RouterConfig, ShardRouter};
use semask_net::server::{NetHandler, Reply, ServeServer, ServerConfig};
use semask_serve::api::{CacheStatus, Priority, Request, Response, ServeStatus};
use semask_serve::{ServeConfig, ServeEngine};
use vecdb::{ScoredPoint, ShardSpec};

struct Node {
    child: Child,
    port: u16,
}

impl Node {
    fn spawn_shard(params: &NodeParams, shard: u32) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_semask-shard"))
            .args([
                "--city",
                &params.city.to_string(),
                "--pois",
                &params.pois.to_string(),
                "--seed",
                &params.seed.to_string(),
                "--shards",
                &params.shards.to_string(),
                "--shard",
                &shard.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn shard");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read port line");
        let port = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .parse()
            .expect("port number");
        Self { child, port }
    }

    fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Snappy budgets so fault paths resolve in test time: one retry, short
/// timeouts. The degradation contract is about *bounded* waits, and the
/// bound here is ~2 s worst case per shard.
fn snappy() -> RouterConfig {
    RouterConfig {
        connect_timeout: Duration::from_millis(300),
        read_timeout: Duration::from_millis(800),
        retries: 1,
        backoff: Duration::from_millis(20),
    }
}

fn query(engine: &semask::SemaSkEngine) -> semask::SemaSkQuery {
    let center = engine.prepared().city.center();
    semask::SemaSkQuery::new(
        geotext::BoundingBox::from_center_km(center, 6.0, 6.0),
        "late night ramen".to_owned(),
    )
}

#[test]
fn killed_shard_degrades_instead_of_hanging() {
    let params = NodeParams::default();
    let engine = boot::build_engine(&params);
    let shard0 = Node::spawn_shard(&params, 0);
    let mut shard1 = Node::spawn_shard(&params, 1);
    let router = ShardRouter::new(
        Arc::clone(&engine),
        vec![shard0.addr(), shard1.addr()],
        snappy(),
    );
    let q = query(&engine);

    // Healthy fabric: a complete answer — on an exact plan, identical to
    // the router's own engine over the whole collection.
    let healthy = router.route_query(&q).expect("healthy route");
    assert!(!healthy.degraded);
    if healthy.outcome.latency.filter_strategy != Some(RetrievalStrategy::FilteredHnsw) {
        let reference = engine.query(&q).expect("reference");
        assert_eq!(
            healthy
                .outcome
                .pois
                .iter()
                .map(|p| p.id.0)
                .collect::<Vec<_>>(),
            reference.pois.iter().map(|p| p.id.0).collect::<Vec<_>>()
        );
    }

    // Kill shard 1 mid-service.
    shard1.kill();
    let t0 = Instant::now();
    let degraded = router
        .route_query(&q)
        .expect("degraded route still answers");
    let elapsed = t0.elapsed();
    assert!(degraded.degraded, "missing slice must be flagged");
    assert_eq!(degraded.shard_errors.len(), 1);
    assert!(
        degraded.shard_errors[0].starts_with("shard 1:"),
        "error names the failed shard: {:?}",
        degraded.shard_errors
    );
    // Partial but honest: every returned hit belongs to the live shard.
    assert!(!degraded.outcome.pois.is_empty(), "shard 0 still answers");
    for poi in &degraded.outcome.pois {
        assert_eq!(
            vecdb::shard_of(u64::from(poi.id.0), 2),
            0,
            "a dead shard cannot contribute hits"
        );
    }
    // Bounded: retry budget is 1 retry at 20 ms backoff over fast-fail
    // connects; even on a slow container this stays well under the
    // router's per-shard worst case.
    assert!(
        elapsed < Duration::from_secs(5),
        "degradation took {elapsed:?}, which smells like a hang"
    );

    // The fabric stays healthy for the survivors on later queries.
    let again = router.route_query(&q).expect("route after failure");
    assert!(again.degraded);
    assert_eq!(
        again
            .outcome
            .pois
            .iter()
            .map(|p| p.id.0)
            .collect::<Vec<_>>(),
        degraded
            .outcome
            .pois
            .iter()
            .map(|p| p.id.0)
            .collect::<Vec<_>>(),
        "degraded answers are deterministic"
    );
}

#[test]
fn all_shards_down_is_an_error_not_a_hang() {
    let params = NodeParams {
        shards: 1,
        ..NodeParams::default()
    };
    let engine = boot::build_engine(&params);
    let mut shard = Node::spawn_shard(&params, 0);
    let addr = shard.addr();
    shard.kill();

    let router = ShardRouter::new(engine, vec![addr], snappy());
    let q = query(router.engine());
    let t0 = Instant::now();
    let err = router.route_query(&q).expect_err("no shard can answer");
    assert!(
        matches!(err, EngineError::Remote { .. }),
        "unexpected error: {err}"
    );
    assert!(t0.elapsed() < Duration::from_secs(5));
}

#[test]
fn slow_loris_times_out_while_the_server_keeps_serving() {
    let params = NodeParams {
        city: 0,
        pois: 120,
        seed: 5,
        shards: 1,
    };
    let engine = boot::build_engine(&params);
    let serve = Arc::new(ServeEngine::new(
        Arc::clone(&engine),
        ServeConfig {
            max_batch: 4,
            queue_capacity: 64,
            ..ServeConfig::default()
        },
    ));
    let mut server = ServeServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&serve) as Arc<dyn semask_net::server::NetHandler>,
        ServerConfig {
            max_inflight_per_conn: 4,
            read_timeout: Duration::from_millis(250),
        },
    )
    .expect("bind");
    let addr = format!("127.0.0.1:{}", server.local_addr().port());

    // The loris: dribble a valid header prefix, then stall past the
    // read timeout.
    let mut loris = std::net::TcpStream::connect(&addr).expect("loris connect");
    loris
        .write_all(&semask_net::proto::MAGIC.to_le_bytes())
        .expect("loris dribble");
    loris
        .write_all(&[semask_net::proto::VERSION])
        .expect("loris dribble");

    // A garbage client: valid connection, nonsense bytes.
    let mut garbage = std::net::TcpStream::connect(&addr).expect("garbage connect");
    garbage
        .write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("garbage");

    std::thread::sleep(Duration::from_millis(400));

    // Honest clients are unaffected before, during, and after the
    // victims get dropped.
    let mut client = NetClient::connect(&addr, &ClientConfig::default()).expect("connect");
    let q = query(&engine);
    for id in 0..3u64 {
        let response = client
            .request(&Request::new(id, q.clone()).with_priority(Priority::Normal))
            .expect("served");
        assert_eq!(response.status, ServeStatus::Ok);
        assert!(response.outcome.is_some());
    }

    // Both bad connections are gone: reads observe EOF (or a reset).
    for (name, stream) in [("loris", &mut loris), ("garbage", &mut garbage)] {
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut buf = [0u8; 16];
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("{name} connection still alive, read {n} bytes"),
        }
    }

    server.shutdown();
    serve.shutdown();
}

#[test]
fn cache_hit_flood_shares_admission_fairly() {
    // A hot connection bursting one repeated query shape — after the
    // first miss, pure cache hits — must not starve a cold connection
    // submitting fresh shapes, and the cached fast path must stay
    // invisible to fairness: hits answer from the drain's weighted
    // rotation without ever occupying a batch slot.
    let params = NodeParams {
        city: 1,
        pois: 120,
        seed: 11,
        shards: 1,
    };
    let engine = boot::build_engine(&params);
    let serve = Arc::new(ServeEngine::new(
        Arc::clone(&engine),
        ServeConfig {
            max_batch: 4,
            queue_capacity: 64,
            result_cache_entries: 128,
            negative_cache: true,
        },
    ));
    let mut server = ServeServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&serve) as Arc<dyn semask_net::server::NetHandler>,
        ServerConfig {
            max_inflight_per_conn: 64,
            read_timeout: Duration::from_secs(5),
        },
    )
    .expect("bind");
    let addr = format!("127.0.0.1:{}", server.local_addr().port());
    let center = engine.prepared().city.center();
    let range = geotext::BoundingBox::from_center_km(center, 6.0, 6.0);

    const FLOOD: u64 = 48;
    let hot_query = semask::SemaSkQuery::new(range, "late night ramen".to_owned());
    // Warm the entry so the flood below is hit-heavy from its first
    // request.
    let mut warm = NetClient::connect(&addr, &ClientConfig::default()).expect("warm connect");
    let warmed = warm
        .request(&Request::new(9_000, hot_query.clone()))
        .expect("warm");
    assert_eq!(warmed.status, ServeStatus::Ok);
    assert_eq!(warmed.cached, CacheStatus::Miss);

    // The hot connection floods its whole burst in one packed write
    // (low priority: quantum 1, one request per drain turn)...
    let mut hot = NetClient::connect(&addr, &ClientConfig::default()).expect("hot connect");
    let burst: Vec<Request> = (0..FLOOD)
        .map(|id| Request::new(id, hot_query.clone()).with_priority(Priority::Low))
        .collect();
    hot.send_requests(&burst).expect("burst send");

    // ...and only then does the cold client start submitting fresh
    // shapes (high priority: quantum 4). With FIFO admission it would
    // sit behind the whole flood; the fair gate owes it a turn per
    // rotation.
    let cold_texts = [
        "quiet coffee with pastries",
        "live music and craft beer",
        "a bookstore to browse for an hour",
        "family friendly pizza",
        "rooftop cocktails at sunset",
        "somewhere warm to read",
    ];
    let mut cold = NetClient::connect(&addr, &ClientConfig::default()).expect("cold connect");
    let t0 = Instant::now();
    for (i, text) in cold_texts.iter().enumerate() {
        let request = Request::new(100 + i as u64, semask::SemaSkQuery::new(range, *text))
            .with_priority(Priority::High);
        let response = cold.request(&request).expect("cold served");
        assert_eq!(response.status, ServeStatus::Ok);
        assert_eq!(response.id, 100 + i as u64);
        assert_eq!(
            response.cached,
            CacheStatus::Miss,
            "fresh shapes must not hit the cache"
        );
        assert!(response.outcome.is_some());
    }
    let cold_elapsed = t0.elapsed();
    assert!(
        cold_elapsed < Duration::from_secs(5),
        "cold client took {cold_elapsed:?} behind a cache-hit flood — starvation"
    );

    // The flood drains completely, in order, overwhelmingly from cache.
    let mut hits = 0u64;
    for id in 0..FLOOD {
        let response = hot.recv_response().expect("hot served");
        assert_eq!(response.id, id, "per-connection FIFO order broke");
        assert_eq!(response.status, ServeStatus::Ok);
        if response.cached == CacheStatus::Hit {
            hits += 1;
        }
    }
    assert_eq!(
        hits, FLOOD,
        "a warmed immutable engine must answer every flood request from cache"
    );

    // Cached answers never occupied a batch slot: only the warm miss
    // and the cold misses were admitted to batching.
    let m = serve.metrics();
    assert_eq!(m.accepted, 1 + cold_texts.len() as u64);
    assert_eq!(m.shed, 0);
    assert!(m.cache_hits >= FLOOD);
    assert_eq!(m.cache_misses, 1 + cold_texts.len() as u64);
    let hit_rate = m.cache_hit_rate().expect("traffic flowed");
    assert!(
        hit_rate > 0.8,
        "mix was supposed to be hit-heavy, got {hit_rate}"
    );

    server.shutdown();
    serve.shutdown();
}

/// A shard that answers every shard query with the same canned hits.
struct Canned(Mutex<Vec<ScoredPoint>>);

impl NetHandler for Canned {
    fn handle(&self, request: Request) -> Reply {
        Reply::Ready(Response::failed(
            request.id,
            ServeStatus::EngineError {
                message: "shard queries only".to_owned(),
            },
        ))
    }

    fn handle_shard(&self, _query: ShardQuery) -> ShardReply {
        ShardReply {
            status: ServeStatus::Ok,
            hits: self.0.lock().expect("canned hits").clone(),
        }
    }
}

fn serve(handler: Arc<dyn NetHandler>) -> (ServeServer, String) {
    let server = ServeServer::bind(("127.0.0.1", 0), handler, ServerConfig::default())
        .expect("bind loopback shard");
    let addr = format!("127.0.0.1:{}", server.local_addr().port());
    (server, addr)
}

#[test]
fn malformed_shard_replies_degrade_instead_of_merging() {
    let params = NodeParams::default();
    let engine = boot::build_engine(&params);
    let k = engine.config().k;
    let q = query(&engine);
    let spec = |shard| ShardSpec::new(2, shard).expect("valid spec");
    // Shard 0 is a real node; shard 1 answers from a can, filled first
    // with what a real shard 1 answers — well formed by construction.
    let real = boot::build_shard(&params, spec(1));
    let honest = real
        .handle_shard(ShardQuery {
            text: q.text.clone(),
            range: q.range,
            k: k as u32,
            ef: None,
            strategy: RetrievalStrategy::ExactScan,
            spec: spec(1),
        })
        .hits;
    assert!(honest.len() >= 2, "the query reaches shard 1's points");
    let (mut node0, addr0) = serve(Arc::new(boot::build_shard(&params, spec(0))));
    let canned = Arc::new(Canned(Mutex::new(honest.clone())));
    let (mut node1, addr1) = serve(Arc::clone(&canned) as Arc<dyn NetHandler>);
    let router = ShardRouter::new(Arc::clone(&engine), vec![addr0, addr1], snappy());

    let well_formed = router.route_query(&q).expect("well-formed route");
    assert!(!well_formed.degraded, "{:?}", well_formed.shard_errors);

    let with_score = |i: usize, score: f32| {
        let mut hits = honest.clone();
        hits[i].score = score;
        hits
    };
    let last = honest.len() - 1;
    let malformed = [
        ("a NaN score", with_score(last, f32::NAN)),
        ("an infinite score", with_score(0, f32::INFINITY)),
        ("worst first", honest.iter().rev().cloned().collect()),
        (
            "more than k hits",
            (0..=k)
                .map(|i| ScoredPoint {
                    id: honest[i % honest.len()].id,
                    score: 1.0 - i as f32 * 0.01,
                })
                .collect(),
        ),
    ];
    for (shape, hits) in malformed {
        *canned.0.lock().expect("canned hits") = hits;
        let routed = router.route_query(&q).expect("shard 0 still answers");
        assert!(routed.degraded, "{shape} must degrade the answer");
        assert_eq!(routed.shard_errors.len(), 1, "{shape}");
        assert!(
            routed.shard_errors[0].starts_with("shard 1: malformed reply"),
            "{shape}: {:?}",
            routed.shard_errors
        );
        for poi in &routed.outcome.pois {
            assert!(
                spec(0).owns(u64::from(poi.id.0)),
                "{shape} leaked into the merge"
            );
        }
    }

    node0.shutdown();
    node1.shutdown();
}
