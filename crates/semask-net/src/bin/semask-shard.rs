//! Shard node process: rebuilds the deterministic dataset, keeps only
//! the slice of the collection its `--shard` owns, and answers that
//! slice's shard queries over the framed protocol. Client queries go to
//! the router.
//!
//! ```text
//! semask-shard --shard I [--shards N --city C --pois P --seed S --port PORT]
//! ```
//!
//! Prints `LISTENING <port>` once bound (drivers parse this to learn an
//! ephemeral port) and exits when stdin reaches EOF.

use std::io::Write;
use std::sync::Arc;

use semask_net::boot;
use semask_net::server::{ServeServer, ServerConfig};
use vecdb::ShardSpec;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let params = boot::node_params(&args);
    let shard: u32 = boot::flag_parsed(&args, "--shard", 0);
    let port: u16 = boot::flag_parsed(&args, "--port", 0);
    let spec = ShardSpec::new(params.shards, shard)
        .unwrap_or_else(|| panic!("shard {shard} out of range for {} shards", params.shards));

    let handler = Arc::new(boot::build_shard(&params, spec));
    let mut server = ServeServer::bind(("127.0.0.1", port), handler, ServerConfig::default())
        .expect("bind shard server");

    println!("LISTENING {}", server.local_addr().port());
    std::io::stdout().flush().expect("flush port line");

    boot::wait_for_stdin_eof();
    server.shutdown();
}
