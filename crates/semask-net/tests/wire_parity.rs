//! Cross-process parity: routing queries through real shard node
//! processes over TCP, each holding only its slice of the collection.
//!
//! Every process (this test, and each spawned `semask-shard`) rebuilds
//! the identical dataset from `(city, pois, seed)` — generation,
//! preparation, and embedding are fully deterministic. Two contracts
//! hold bit for bit (ids, raw score bits, recommendation flags):
//!
//! - **(a)** a routed answer whose plan is exact — exact scan, grid,
//!   IR-tree — or keyword-aware equals the **unsharded** `engine.query`
//!   (`tests/sharding_parity.rs` pins the slice-merge identity in
//!   process, per strategy);
//! - **(b)** every routed answer equals the in-process merge of the
//!   `handle_shard` replies of `boot`-built nodes, refined by the
//!   router's engine — filtered HNSW included, whose per-slice graphs
//!   answer differently from the whole collection's.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use geotext::ObjectId;
use semask::{
    prepare_city, Coefficients, LatencyBreakdown, PlannerConfig, QueryOutcome, RetrievalStrategy,
    SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant,
};
use semask_net::boot::{self, NodeParams};
use semask_net::client::{ClientConfig, NetClient};
use semask_net::proto::ShardQuery;
use semask_net::router::{RouterConfig, ShardHandler, ShardRouter};
use semask_net::server::NetHandler;
use semask_serve::api::{Priority, Request, ServeStatus};
use vecdb::{merge_top_k, ShardSpec};

/// A spawned node that dies with its stdin pipe (dropping `Child` after
/// `kill` in [`Drop`] keeps crashed tests from leaking processes).
struct Node {
    child: Child,
    port: u16,
}

impl Node {
    fn spawn(bin: &str, args: &[String]) -> Self {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn node");
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
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_shards(params: &NodeParams) -> Vec<Node> {
    (0..params.shards)
        .map(|shard| {
            Node::spawn(
                env!("CARGO_BIN_EXE_semask-shard"),
                &[
                    "--city".into(),
                    params.city.to_string(),
                    "--pois".into(),
                    params.pois.to_string(),
                    "--seed".into(),
                    params.seed.to_string(),
                    "--shards".into(),
                    params.shards.to_string(),
                    "--shard".into(),
                    shard.to_string(),
                ],
            )
        })
        .collect()
}

/// The bit-exact comparison key: id, name, raw score bits,
/// recommendation and the rendered reason.
type Signature = Vec<(u32, String, u32, bool, String)>;

fn signature(outcome: &QueryOutcome) -> Signature {
    outcome
        .pois
        .iter()
        .map(|p| {
            (
                p.id.0,
                p.name.to_string(),
                p.embed_score.to_bits(),
                p.recommended,
                p.reason.to_string(),
            )
        })
        .collect()
}

fn workload(engine: &SemaSkEngine) -> Vec<SemaSkQuery> {
    let center = engine.prepared().city.center();
    let ranges = [
        geotext::BoundingBox::from_center_km(center, 2.0, 2.0),
        geotext::BoundingBox::from_center_km(center, 5.0, 5.0),
        geotext::BoundingBox::from_center_km(center, 11.0, 11.0),
        geotext::BoundingBox::from_center_km(center, 0.4, 0.4),
    ];
    let texts = [
        "quiet coffee with pastries",
        "live music and craft beer",
        "late night ramen",
        "a bookstore with a reading corner",
    ];
    let mut queries = Vec::new();
    for (i, range) in ranges.iter().enumerate() {
        for (j, text) in texts.iter().enumerate() {
            let mut q = SemaSkQuery::new(*range, format!("{i}-{j}: {text}"));
            // A few keyword queries ride along: those plans are
            // keyword-aware and execute locally inside the router.
            if (i + j) % 5 == 4 {
                q.keywords = Some("coffee".to_owned());
            }
            queries.push(q);
        }
    }
    queries
}

fn spec(params: &NodeParams, shard: u32) -> ShardSpec {
    ShardSpec::new(params.shards, shard).expect("valid spec")
}

/// Contract (b)'s reference: what `nodes` answer for `q` under
/// `strategy`, merged and refined by `engine`.
fn merged_in_process(
    engine: &SemaSkEngine,
    nodes: &[ShardHandler],
    params: &NodeParams,
    q: &SemaSkQuery,
    strategy: RetrievalStrategy,
) -> Signature {
    let config = engine.config();
    let replies: Vec<_> = (0..params.shards)
        .zip(nodes)
        .map(|(shard, node)| {
            node.handle_shard(ShardQuery {
                text: q.text.clone(),
                range: q.range,
                k: config.k as u32,
                ef: config.ef.map(|ef| ef as u32),
                strategy,
                spec: spec(params, shard),
            })
            .hits
        })
        .collect();
    let candidates = merge_top_k(&replies, config.k)
        .0
        .iter()
        .map(|h| (ObjectId(h.id as u32), h.score))
        .collect();
    signature(
        &engine
            .refine_candidates(&q.text, candidates, LatencyBreakdown::default())
            .expect("refine"),
    )
}

/// Checks one routed answer against both contracts; returns whether
/// contract (a) applied.
fn assert_routed(
    engine: &SemaSkEngine,
    nodes: &[ShardHandler],
    params: &NodeParams,
    q: &SemaSkQuery,
    routed: &QueryOutcome,
) -> bool {
    let got = signature(routed);
    let strategy = routed.latency.filter_strategy.expect("a routed plan");
    let keyword_aware = q.keywords.is_some()
        && engine
            .prepared()
            .planner
            .plan_query(
                &q.range,
                q.keywords.as_deref(),
                engine.config().k,
                engine.config().ef,
            )
            .keyword_aware;
    if !keyword_aware {
        assert_eq!(
            got,
            merged_in_process(engine, nodes, params, q, strategy),
            "(b): wire answer differs from the nodes' merged replies for {:?}",
            q.text
        );
    }
    let exact = keyword_aware || strategy != RetrievalStrategy::FilteredHnsw;
    if exact {
        assert_eq!(
            got,
            signature(&engine.query(q).expect("reference query")),
            "(a): {strategy} answer differs from the unsharded engine for {:?}",
            q.text
        );
    }
    exact
}

fn in_process_nodes(params: &NodeParams) -> Vec<ShardHandler> {
    (0..params.shards)
        .map(|shard| boot::build_shard(params, spec(params, shard)))
        .collect()
}

/// A router engine on given coefficients with a cheap HNSW hop: a range
/// holding most of the city plans on the graph, so contract (b) meets
/// the one strategy (a) does not cover.
fn graph_leaning_engine(params: &NodeParams) -> Arc<SemaSkEngine> {
    let data = datagen::poi::generate_city(&datagen::CITIES[params.city], params.pois, params.seed);
    let llm = Arc::new(llm::SimLlm::new());
    let config = SemaSkConfig {
        planner: PlannerConfig {
            coefficients: Coefficients {
                hop_us: 0.05,
                ..Coefficients::default()
            },
        },
        ..SemaSkConfig::default()
    };
    let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prep"));
    Arc::new(SemaSkEngine::new(
        prepared,
        llm,
        config,
        Variant::EmbeddingOnly,
    ))
}

#[test]
fn router_over_processes_matches_in_process_engine() {
    let params = NodeParams::default();
    let nodes = in_process_nodes(&params);
    let shards = spawn_shards(&params);
    let peers: Vec<String> = shards.iter().map(Node::addr).collect();

    for (engine, graph_leaning) in [
        (boot::build_engine(&params), false),
        (graph_leaning_engine(&params), true),
    ] {
        let queries = workload(&engine);
        let router = ShardRouter::new(Arc::clone(&engine), peers.clone(), RouterConfig::default());
        let (mut exact, mut graph) = (0, 0);
        for q in &queries {
            let routed = router.route_query(q).expect("routed query");
            assert!(
                !routed.degraded,
                "no shard is down, the answer must be complete: {:?}",
                routed.shard_errors
            );
            exact += usize::from(assert_routed(&engine, &nodes, &params, q, &routed.outcome));
            graph += usize::from(
                routed.outcome.latency.filter_strategy == Some(RetrievalStrategy::FilteredHnsw),
            );
        }
        assert!(exact > 0, "(a) never applied");
        assert!(!graph_leaning || graph > 0, "no plan reached the graph");
    }
}

#[test]
fn full_wire_path_through_router_process_matches() {
    let params = NodeParams::default();
    let engine = boot::build_engine(&params);
    let nodes = in_process_nodes(&params);
    let queries = workload(&engine);

    let shards = spawn_shards(&params);
    let peers = shards.iter().map(Node::addr).collect::<Vec<_>>().join(",");
    let router = Node::spawn(
        env!("CARGO_BIN_EXE_semask-router"),
        &[
            "--city".into(),
            params.city.to_string(),
            "--pois".into(),
            params.pois.to_string(),
            "--seed".into(),
            params.seed.to_string(),
            "--peers".into(),
            peers,
        ],
    );

    let mut client =
        NetClient::connect(router.addr(), &ClientConfig::default()).expect("connect to router");
    // Pipelined: send everything, then collect — responses come back in
    // FIFO order on one connection.
    for (i, q) in queries.iter().enumerate() {
        let request = Request::new(i as u64, q.clone()).with_priority(Priority::High);
        client.send_request(&request).expect("send");
    }
    for (i, q) in queries.iter().enumerate() {
        let response = client.recv_response().expect("receive");
        assert_eq!(response.id, i as u64, "FIFO order per connection");
        assert_eq!(response.status, ServeStatus::Ok, "query {:?}", q.text);
        let outcome = response.outcome.expect("ok response carries an outcome");
        assert_routed(&engine, &nodes, &params, q, &outcome);
    }
}
