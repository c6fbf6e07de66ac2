//! Serving-layer load driver: several client threads fire requests at a
//! `ServeEngine` concurrently through `submit_request`, the batcher
//! flushes whatever has queued each time the executor comes free (never
//! more than the size cap), and every client gets its answer back
//! through a `PendingResponse` — checked to be identical (ids, score
//! bits, `recommended`) to what a direct `engine.query` returns. A
//! second, deliberately tiny server then shows the backpressure path: a
//! full queue refuses with `Overloaded` instead of blocking, the
//! refusals counted equal the server's `shed` counter, and every
//! admitted claim is answered after `shutdown`.
//!
//! ```sh
//! cargo run --release --example serve
//! ```

use std::sync::Arc;
use std::time::Instant;

use llm::SimLlm;
use semask::{prepare_city, QueryOutcome, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};
use semask_serve::api::{Request, ServeStatus};
use semask_serve::{ServeConfig, ServeEngine};

/// What must match between a served and a direct answer: each ranked
/// POI's id, score bits and recommendation flag, in order.
fn signature(outcome: &QueryOutcome) -> Vec<(u32, u32, bool)> {
    outcome
        .pois
        .iter()
        .map(|p| (p.id.0, p.embed_score.to_bits(), p.recommended))
        .collect()
}

fn main() {
    // Offline prep, as in the quickstart; SemaSK-EM keeps the demo on
    // the serving + filtering path (no simulated LLM latency).
    let city = datagen::poi::generate_city(&datagen::CITIES[1], 400, 42);
    let llm = Arc::new(SimLlm::new());
    let config = SemaSkConfig::default();
    let prepared = Arc::new(prepare_city(&city, &llm, &config).expect("preparation"));
    let engine = Arc::new(SemaSkEngine::new(
        prepared,
        llm,
        config,
        Variant::EmbeddingOnly,
    ));

    let texts = [
        "quiet coffee with pastries",
        "live music and craft beer",
        "late night ramen",
        "a bookstore to browse for an hour",
        "family friendly pizza",
        "rooftop cocktails at sunset",
    ];
    let center = datagen::CITIES[1].center();
    let ranges = [
        geotext::BoundingBox::from_center_km(center, 5.0, 5.0),
        geotext::BoundingBox::from_center_km(center, 12.0, 12.0),
    ];

    // ---- Live traffic: 4 clients x 24 queries through one server ----
    let serve = ServeEngine::new(
        Arc::clone(&engine),
        ServeConfig {
            max_batch: 16,
            queue_capacity: 256,
            result_cache_entries: 0,
            negative_cache: false,
        },
    );
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 24;
    let t0 = Instant::now();
    let served: Vec<(SemaSkQuery, QueryOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let serve = &serve;
                scope.spawn(move || {
                    let mut got = Vec::with_capacity(PER_CLIENT);
                    for i in 0..PER_CLIENT {
                        let q = SemaSkQuery::new(
                            ranges[(c + i) % ranges.len()],
                            format!("client {c}: {}", texts[i % texts.len()]),
                        );
                        let id = (c * PER_CLIENT + i) as u64;
                        let response = serve.submit_request(Request::new(id, q.clone())).wait();
                        assert_eq!(response.id, id, "the response echoes its request's id");
                        assert_eq!(
                            response.status,
                            ServeStatus::Ok,
                            "capacity covers this load"
                        );
                        got.push((q, response.outcome.expect("an Ok response has an outcome")));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let m = serve.metrics();
    serve.shutdown();
    let answered = served.iter().filter(|(_, o)| !o.pois.is_empty()).count();
    // Batching changes when a query runs, never what it answers.
    for (q, outcome) in &served {
        let direct = engine.query(q).expect("direct query");
        assert_eq!(
            signature(outcome),
            signature(&direct),
            "served answer to {:?} differs from engine.query",
            q.text
        );
    }

    println!(
        "--- serving {} queries from {CLIENTS} concurrent clients ---",
        m.accepted
    );
    println!(
        "answered      : {answered} non-empty of {} in {:.1} ms ({:.0} queries/sec)",
        m.accepted,
        elapsed.as_secs_f64() * 1e3,
        m.accepted as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "micro-batches : {} flushed, mean size {:.1}, max {} (cap 16), {} range groups",
        m.batches,
        m.mean_batch_size(),
        m.max_batch,
        m.groups,
    );
    println!(
        "queue         : mean admission-to-flush wait {:.0} µs, shed {}",
        m.mean_queue_wait().as_secs_f64() * 1e6,
        m.shed,
    );
    println!(
        "parity        : all {} served answers identical to engine.query",
        served.len()
    );

    // ---- Backpressure: a server sized to be overrun ----
    // Capacity 4 against a burst from 8 client threads: whatever finds
    // the queue full while a flush is executing is shed immediately
    // with `Overloaded` — the client hears "try again" in microseconds
    // instead of queueing unboundedly. How many that is depends on how
    // the burst interleaves with the batcher, so the count is checked
    // only against the server's own `shed` counter.
    let tiny = ServeEngine::new(
        Arc::clone(&engine),
        ServeConfig {
            max_batch: 64,
            queue_capacity: 4,
            result_cache_entries: 0,
            negative_cache: false,
        },
    );
    const BURST_CLIENTS: usize = 8;
    const PER_BURST: usize = 16;
    let claims: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..BURST_CLIENTS)
            .map(|c| {
                let tiny = &tiny;
                scope.spawn(move || {
                    (0..PER_BURST)
                        .map(|i| {
                            let q = SemaSkQuery::new(
                                ranges[0],
                                format!("burst {c}: {}", texts[i % texts.len()]),
                            );
                            tiny.submit_request(Request::new((c * PER_BURST + i) as u64, q))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("burst client"))
            .collect()
    });
    // Graceful shutdown answers every admitted claim: afterwards each
    // one is ready without waiting.
    tiny.shutdown();
    let (mut shed, mut answered) = (0, 0);
    for claim in claims {
        let response = claim
            .try_wait()
            .unwrap_or_else(|c| panic!("request {} unanswered after shutdown", c.id()));
        match response.status {
            ServeStatus::Overloaded => shed += 1,
            ServeStatus::Ok => answered += 1,
            other => panic!("unexpected status for request {}: {other}", response.id),
        }
    }
    let m = tiny.metrics();
    assert_eq!(shed, m.shed, "every refusal is counted as shed");
    assert_eq!(answered, m.accepted, "every admitted claim is answered");
    println!(
        "\n--- overload demo (queue capacity 4, {BURST_CLIENTS} clients x {PER_BURST} rapid submissions) ---"
    );
    println!(
        "admitted      : {answered} requests, shed {shed} with Overloaded (metrics agree: {})",
        m.shed,
    );
    println!("after shutdown: all {answered} admitted claims answered exactly once");
}
