//! Process bootstrap shared by the `semask-shard` / `semask-router`
//! binaries and the `net_serve` example: CLI-style flag parsing, the
//! router's engine and a shard node's slice.
//!
//! Every node in the fabric rebuilds the **identical** dataset from
//! `(city, pois, seed)` — generation and preparation are fully
//! deterministic, so no data ever travels between processes; only
//! queries and answers do.

use std::sync::Arc;

use semask::{
    prepare_city, PlannerConfig, PreparedCity, QueryPlanner, SemaSkConfig, SemaSkEngine, Variant,
};
use vecdb::ShardSpec;

use crate::router::ShardHandler;

/// Dataset/topology parameters every node must agree on.
#[derive(Debug, Clone)]
pub struct NodeParams {
    /// Index into [`datagen::CITIES`].
    pub city: usize,
    /// POIs to generate.
    pub pois: usize,
    /// Generation seed.
    pub seed: u64,
    /// Number of shard processes the collection is split across.
    pub shards: u32,
}

impl Default for NodeParams {
    fn default() -> Self {
        Self {
            city: 2,
            pois: 320,
            seed: 17,
            shards: 2,
        }
    }
}

/// Reads `--flag value` pairs from an argument list; later occurrences
/// win. Unknown flags are ignored (forward compatibility between a
/// driver and its spawned nodes).
#[must_use]
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.windows(2)
        .rev()
        .find(|pair| pair[0] == flag)
        .map(|pair| pair[1].clone())
}

/// [`flag_value`] parsed, falling back to `default` when absent.
///
/// # Panics
/// Exits with a message when the value does not parse — these binaries
/// are driven by tests and the example, so a typo should fail loudly.
#[must_use]
pub fn flag_parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        None => default,
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("invalid value {raw:?} for {flag}")),
    }
}

/// Extracts [`NodeParams`] from CLI args
/// (`--city N --pois N --seed N --shards N`, all optional).
#[must_use]
pub fn node_params(args: &[String]) -> NodeParams {
    let defaults = NodeParams::default();
    NodeParams {
        city: flag_parsed(args, "--city", defaults.city),
        pois: flag_parsed(args, "--pois", defaults.pois),
        seed: flag_parsed(args, "--seed", defaults.seed),
        shards: flag_parsed(args, "--shards", defaults.shards),
    }
}

/// The generated city of `params`, prepared under `config`.
///
/// # Panics
/// When preparation fails — a node that cannot build its dataset cannot
/// serve, so it dies loudly before binding a port.
fn prepare(params: &NodeParams, llm: &llm::SimLlm, config: &SemaSkConfig) -> PreparedCity {
    let data = datagen::poi::generate_city(&datagen::CITIES[params.city], params.pois, params.seed);
    prepare_city(&data, llm, config).expect("prepare city")
}

/// Builds the router's engine over the whole city: the default
/// configuration (its planner prices with the constant coefficients, so
/// every plan of a parity run is a function of the query alone),
/// SemaSK-EM variant (refinement stays deterministic and cheap for the
/// wire tests).
///
/// # Panics
/// When preparation fails.
#[must_use]
pub fn build_engine(params: &NodeParams) -> Arc<SemaSkEngine> {
    let llm = Arc::new(llm::SimLlm::new());
    let config = SemaSkConfig::default();
    let prepared = Arc::new(prepare(params, &llm, &config));
    Arc::new(SemaSkEngine::new(
        prepared,
        llm,
        config,
        Variant::EmbeddingOnly,
    ))
}

/// Builds the shard node for `spec`: the prepared city is cut down to
/// the slice `spec` owns ([`vecdb::partition`]) and the whole collection
/// is dropped, leaving the dataset, the embedder and a planner over the
/// slice. A node never plans — it runs the strategy the router ships.
///
/// # Panics
/// When preparation fails.
#[must_use]
pub fn build_shard(params: &NodeParams, spec: ShardSpec) -> ShardHandler {
    let prepared = prepare(params, &llm::SimLlm::new(), &SemaSkConfig::default());
    let whole = prepared
        .db
        .collection(&prepared.collection_name)
        .expect("the prepared collection");
    let slice = vecdb::partition(&whole.read(), spec).expect("partition the prepared collection");
    drop(whole);
    let PreparedCity {
        dataset, embedder, ..
    } = prepared;
    let planner = QueryPlanner::for_city(
        dataset,
        Arc::new(parking_lot::RwLock::new(slice)),
        PlannerConfig::default(),
    );
    ShardHandler::new(embedder, planner, spec)
}

/// Blocks until stdin reaches EOF — the lifecycle contract for spawned
/// nodes: the parent holds the child's stdin pipe and closing it (or
/// the parent dying) shuts the node down. No signals needed.
pub fn wait_for_stdin_eof() {
    use std::io::Read;
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
}
