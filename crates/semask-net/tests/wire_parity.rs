//! Cross-process parity: routing queries through real shard server
//! processes over TCP must produce **bit-identical** answers to the
//! in-process sharded engine.
//!
//! Every process (this test, and each spawned `semask-shard`) rebuilds
//! the identical dataset from `(city, pois, seed)` — generation,
//! preparation, and embedding are fully deterministic — so the only
//! thing that can differ is the execution path: the in-process fan-out
//! of `RetrievalBackend::knn_in_range` vs plan-ship-merge of the same
//! per-slice jobs over the wire (`tests/sharding_parity.rs` pins the
//! slice-merge identity in process, per strategy). The signature
//! compares ids, raw score bits, and recommendation flags.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use semask::{QueryOutcome, SemaSkEngine, SemaSkQuery};
use semask_net::boot::{self, NodeParams};
use semask_net::client::{ClientConfig, NetClient};
use semask_net::router::{RouterConfig, ShardRouter};
use semask_serve::api::{Priority, Request, ServeStatus};

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

/// The bit-exact comparison key: id, raw score bits, recommendation.
type Signature = Vec<(u32, u32, bool)>;

fn signature(outcome: &QueryOutcome) -> Signature {
    outcome
        .pois
        .iter()
        .map(|p| (p.id.0, p.embed_score.to_bits(), p.recommended))
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
            // keyword-aware and must fall back to local execution
            // inside the router — still bit-exact.
            if (i + j) % 5 == 4 {
                q.keywords = Some("coffee".to_owned());
            }
            queries.push(q);
        }
    }
    queries
}

#[test]
fn router_over_processes_matches_in_process_engine() {
    let params = NodeParams::default();
    let engine = boot::build_engine(&params);
    let queries = workload(&engine);
    let reference: Vec<Signature> = queries
        .iter()
        .map(|q| signature(&engine.query(q).expect("reference query")))
        .collect();

    let shards = spawn_shards(&params);
    let peers: Vec<String> = shards.iter().map(Node::addr).collect();
    let router =
        ShardRouter::new(Arc::clone(&engine), peers, RouterConfig::default()).expect("topology");

    for (q, expected) in queries.iter().zip(&reference) {
        let routed = router.route_query(q).expect("routed query");
        assert!(
            !routed.degraded,
            "no shard is down, the answer must be complete: {:?}",
            routed.shard_errors
        );
        assert_eq!(
            &signature(&routed.outcome),
            expected,
            "wire answer differs for {:?}",
            q.text
        );
    }
}

#[test]
fn full_wire_path_through_router_process_matches() {
    let params = NodeParams::default();
    let engine = boot::build_engine(&params);
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
        let expected = engine.query(q).expect("reference query");
        assert_eq!(
            signature(&outcome),
            signature(&expected),
            "wire answer differs for {:?}",
            q.text
        );
    }
}
