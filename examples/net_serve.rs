//! Network serving end to end, in one process tree: this example
//! re-executes itself as two shard nodes, each holding its slice of the
//! collection, and a router (all on loopback, ephemeral ports), then
//! acts as a client — pipelining the parity workload over the wire,
//! checking every answer on an exact plan bit-for-bit against a local
//! engine over the whole collection, and finally killing a shard to show
//! graceful degradation.
//!
//! ```sh
//! cargo run --release --example net_serve
//! ```
//!
//! Roles (spawned internally; not for direct use):
//! `--role shard --shard I` and `--role router --peers a,b`.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use semask::{RetrievalStrategy, SemaSkQuery};
use semask_net::boot::{self, NodeParams};
use semask_net::client::{ClientConfig, NetClient};
use semask_net::router::{RouterConfig, RouterHandler, ShardRouter};
use semask_net::server::{ServeServer, ServerConfig};
use semask_serve::api::{Priority, Request, ServeStatus};
use vecdb::ShardSpec;

const SHARDS: u32 = 2;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match boot::flag_value(&args, "--role").as_deref() {
        Some("shard") => serve_role(&args, |params, args| {
            let shard: u32 = boot::flag_parsed(args, "--shard", 0);
            let spec = ShardSpec::new(params.shards, shard).expect("valid shard");
            Arc::new(boot::build_shard(params, spec))
        }),
        Some("router") => serve_role(&args, |params, args| {
            let peers: Vec<String> = boot::flag_value(args, "--peers")
                .expect("--peers required for the router role")
                .split(',')
                .map(str::to_owned)
                .collect();
            let router =
                ShardRouter::new(boot::build_engine(params), peers, RouterConfig::default());
            Arc::new(RouterHandler::new(Arc::new(router)))
        }),
        _ => drive(),
    }
}

/// Shared server scaffold for the child roles: build the handler, bind,
/// announce the port, park until the parent closes our stdin.
fn serve_role(
    args: &[String],
    handler: impl FnOnce(&NodeParams, &[String]) -> Arc<dyn semask_net::server::NetHandler>,
) {
    let params = boot::node_params(args);
    let handler = handler(&params, args);
    let mut server = ServeServer::bind(("127.0.0.1", 0), handler, ServerConfig::default())
        .expect("bind role server");
    println!("LISTENING {}", server.local_addr().port());
    use std::io::Write;
    std::io::stdout().flush().expect("flush");
    boot::wait_for_stdin_eof();
    server.shutdown();
}

struct Proc {
    child: Child,
    port: u16,
}

impl Proc {
    fn spawn(extra: &[String]) -> Self {
        let exe = std::env::current_exe().expect("own path");
        let params = NodeParams {
            shards: SHARDS,
            ..NodeParams::default()
        };
        let mut child = Command::new(exe)
            .args([
                "--city".to_owned(),
                params.city.to_string(),
                "--pois".to_owned(),
                params.pois.to_string(),
                "--seed".to_owned(),
                params.seed.to_string(),
                "--shards".to_owned(),
                params.shards.to_string(),
            ])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn role process");
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
            .expect("port");
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

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn drive() {
    println!("== semask-net: router + {SHARDS} shard processes on loopback ==\n");

    println!("spawning shard nodes (each rebuilds the deterministic dataset, keeps its slice)...");
    let mut shards: Vec<Proc> = (0..SHARDS)
        .map(|i| {
            Proc::spawn(&[
                "--role".into(),
                "shard".into(),
                "--shard".into(),
                i.to_string(),
            ])
        })
        .collect();
    for (i, s) in shards.iter().enumerate() {
        println!("  shard {i} listening on {}", s.addr());
    }

    let peers = shards.iter().map(Proc::addr).collect::<Vec<_>>().join(",");
    let router = Proc::spawn(&["--role".into(), "router".into(), "--peers".into(), peers]);
    println!("  router  listening on {}\n", router.addr());

    // The local reference: same params, the whole collection, in one
    // process.
    let engine = boot::build_engine(&NodeParams {
        shards: SHARDS,
        ..NodeParams::default()
    });
    let center = engine.prepared().city.center();
    let texts = [
        "quiet coffee with pastries",
        "live music and craft beer",
        "late night ramen",
        "a bookstore with a reading corner",
        "family friendly pizza",
        "rooftop cocktails at sunset",
        "vegan brunch outdoors",
        "tacos after midnight",
    ];
    let queries: Vec<SemaSkQuery> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let km = 2.0 + 2.5 * (i % 4) as f64;
            SemaSkQuery::new(
                geotext::BoundingBox::from_center_km(center, km, km),
                (*text).to_owned(),
            )
        })
        .collect();

    let mut client =
        NetClient::connect(router.addr(), &ClientConfig::default()).expect("connect to router");

    println!("pipelining {} requests over one connection:", queries.len());
    let t0 = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        client
            .send_request(&Request::new(i as u64, q.clone()).with_priority(Priority::Normal))
            .expect("send");
    }
    let (mut exact, mut matched) = (0, 0);
    for q in &queries {
        let response = client.recv_response().expect("receive");
        let outcome = response.outcome.as_ref().expect("outcome");
        let strategy = outcome.latency.filter_strategy.expect("a routed plan");
        // Filtered HNSW searches one graph per slice, so only the exact
        // strategies must reproduce the whole collection's answer.
        if strategy == RetrievalStrategy::FilteredHnsw {
            println!(
                "  id {:>2}  {:?}  {} hits  {strategy}: per-slice graphs",
                response.id,
                response.status,
                outcome.pois.len()
            );
            continue;
        }
        let local = engine.query(q).expect("local reference");
        let bit_equal = outcome
            .pois
            .iter()
            .map(|p| (p.id.0, p.embed_score.to_bits()))
            .eq(local.pois.iter().map(|p| (p.id.0, p.embed_score.to_bits())));
        exact += 1;
        matched += usize::from(bit_equal);
        println!(
            "  id {:>2}  {:?}  {} hits  {strategy}: bit-identical-to-local: {bit_equal}",
            response.id,
            response.status,
            outcome.pois.len()
        );
    }
    println!(
        "{matched}/{exact} exact-plan answers bit-identical; wall clock {:.1} ms\n",
        t0.elapsed().as_secs_f64() * 1000.0
    );
    assert_eq!(
        matched, exact,
        "exact-plan wire answers must match the local engine"
    );

    println!("killing shard 1 mid-service...");
    shards[1].kill();
    let q = &queries[2];
    let response = client
        .request(&Request::new(99, q.clone()))
        .expect("degraded request still answers");
    match &response.status {
        ServeStatus::Degraded { message } => {
            let hits = response.outcome.as_ref().map_or(0, |o| o.pois.len());
            println!("  degraded as expected: {hits} partial hits ({message})");
        }
        other => println!("  unexpected status: {other} (expected Degraded)"),
    }
    assert!(
        matches!(response.status, ServeStatus::Degraded { .. }),
        "a dead shard must degrade, not fail"
    );

    println!("\ndone: partial answers are flagged, nothing hung, every process dies with us.");
}
