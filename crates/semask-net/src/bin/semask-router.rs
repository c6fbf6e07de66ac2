//! Router process: the TCP front end that plans locally, fans the
//! filtering stage out to shard servers, merges, refines, and serves
//! clients over the framed protocol.
//!
//! ```text
//! semask-router --peers HOST:PORT,HOST:PORT [--city C --pois P --seed S --port PORT]
//! ```
//!
//! The peer list is in shard order and its length is the shard count.
//! The router's engine holds the whole city. Prints `LISTENING <port>`
//! once bound and exits when stdin reaches EOF.

use std::io::Write;
use std::sync::Arc;

use semask_net::boot;
use semask_net::router::{RouterConfig, RouterHandler, ShardRouter};
use semask_net::server::{ServeServer, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let peers: Vec<String> = boot::flag_value(&args, "--peers")
        .expect("--peers host:port[,host:port...] is required")
        .split(',')
        .map(str::to_owned)
        .collect();
    let params = boot::node_params(&args);
    let port: u16 = boot::flag_parsed(&args, "--port", 0);

    let engine = boot::build_engine(&params);
    let router = Arc::new(ShardRouter::new(engine, peers, RouterConfig::default()));
    let handler = Arc::new(RouterHandler::new(router));
    let mut server = ServeServer::bind(("127.0.0.1", port), handler, ServerConfig::default())
        .expect("bind router server");

    println!("LISTENING {}", server.local_addr().port());
    std::io::stdout().flush().expect("flush port line");

    boot::wait_for_stdin_eof();
    server.shutdown();
}
