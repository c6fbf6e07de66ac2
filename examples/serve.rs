//! Serving-layer load driver: several client threads fire queries at a
//! `ServeEngine` concurrently, the batcher flushes whatever has queued
//! each time the executor comes free (never more than the size cap),
//! and every client gets its answer back through a `Ticket` — identical
//! to what a direct `engine.query` would have returned. A second,
//! deliberately tiny server then shows the backpressure path: a full
//! queue sheds with `Overloaded` instead of blocking.
//!
//! ```sh
//! cargo run --release --example serve
//! ```

use std::sync::Arc;
use std::time::Instant;

use llm::SimLlm;
use semask::{prepare_city, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};
use semask_serve::{ServeConfig, ServeEngine, SubmitError, Ticket};

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
    let answered: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let serve = &serve;
                scope.spawn(move || {
                    let mut got = 0;
                    for i in 0..PER_CLIENT {
                        let q = SemaSkQuery::new(
                            ranges[(c + i) % ranges.len()],
                            format!("client {c}: {}", texts[i % texts.len()]),
                        );
                        let ticket = serve.submit(q).expect("capacity covers this load");
                        let outcome = ticket.wait().expect("served");
                        got += usize::from(!outcome.pois.is_empty());
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let elapsed = t0.elapsed();
    let m = serve.metrics();
    serve.shutdown();

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

    // ---- Backpressure: a server sized to be overrun ----
    // Capacity 4 against a burst from 8 client threads: whatever finds
    // the queue full while a flush is executing is shed immediately
    // with `Overloaded` — the client hears "try again" in microseconds
    // instead of queueing unboundedly. How many that is depends on how
    // the burst interleaves with the batcher, so it is printed, not
    // asserted.
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
    let tickets: Vec<Ticket> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..BURST_CLIENTS)
            .map(|c| {
                let tiny = &tiny;
                scope.spawn(move || {
                    let mut admitted = Vec::new();
                    for i in 0..PER_BURST {
                        let q = SemaSkQuery::new(
                            ranges[0],
                            format!("burst {c}: {}", texts[i % texts.len()]),
                        );
                        match tiny.submit(q) {
                            Ok(t) => admitted.push(t),
                            Err(SubmitError::Overloaded) => {}
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                    admitted
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("burst client"))
            .collect()
    });
    let shed = BURST_CLIENTS * PER_BURST - tickets.len();
    println!(
        "\n--- overload demo (queue capacity 4, {BURST_CLIENTS} clients x {PER_BURST} rapid submissions) ---"
    );
    println!(
        "admitted      : {} tickets, shed {shed} with Overloaded (metrics agree: {})",
        tickets.len(),
        tiny.metrics().shed,
    );
    // Graceful shutdown still answers every admitted ticket.
    tiny.shutdown();
    let served = tickets
        .into_iter()
        .map(Ticket::wait)
        .filter(Result::is_ok)
        .count();
    println!("after shutdown: all {served} admitted tickets answered exactly once");
}
