//! Criterion bench for the network layer: the full wire round trip —
//! frame encode → loopback TCP → fair admission → `ServeEngine` batch →
//! frame decode — vs submitting to the same `ServeEngine` in process.
//! The gap between `wire-64` and `inproc-64` is the protocol + socket
//! overhead; both rows sit on the identical batch execution path.
//! `wire-window-32` sends the same 64 requests the way a closed-loop
//! client does — 32 in flight, one more per reply received — so its
//! requests arrive one `write` at a time and its replies leave as they
//! are answered, which the single packed burst of `wire-64` never does.
//!
//! Same city, seed, and grid-band range as `benches/serve.rs`, so the
//! rows are comparable across files. SemaSK-EM keeps the measurement on
//! the serving + transport path.
//!
//! The recorded baseline lives in `BENCH_net.json` at the repo root;
//! regenerate with `cargo bench --bench net` after touching the
//! protocol, the server threading, or the serve layer.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use llm::SimLlm;
use semask::{prepare_city, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};
use semask_net::client::{ClientConfig, NetClient};
use semask_net::server::{NetHandler, ServeServer, ServerConfig};
use semask_serve::api::Request;
use semask_serve::{ServeConfig, ServeEngine};

const QUERY_TEXTS: [&str; 8] = [
    "a quiet cafe with strong espresso and pastries",
    "craft beer and live music",
    "ramen with a long line",
    "late night tacos",
    "a bookstore with a reading corner",
    "rooftop cocktails at sunset",
    "family friendly pizza",
    "vegan brunch with outdoor seating",
];

fn bench_net(c: &mut Criterion) {
    let data = datagen::poi::generate_city(&datagen::CITIES[3], 1790, 7);
    let llm = Arc::new(SimLlm::new());
    let config = SemaSkConfig::default();
    let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prep"));
    let engine = Arc::new(SemaSkEngine::new(
        prepared,
        llm,
        config,
        Variant::EmbeddingOnly,
    ));

    let range = geotext::BoundingBox::from_center_km(datagen::CITIES[3].center(), 5.0, 5.0);
    let queries: Vec<SemaSkQuery> = (0..64)
        .map(|i| {
            SemaSkQuery::new(
                range,
                format!("{i}: {}", QUERY_TEXTS[i % QUERY_TEXTS.len()]),
            )
        })
        .collect();

    let serve = Arc::new(ServeEngine::new(
        Arc::clone(&engine),
        ServeConfig {
            max_batch: 64,
            queue_capacity: 256,
            result_cache_entries: 0,
            negative_cache: false,
        },
    ));

    let mut group = c.benchmark_group("net");

    // Baseline: the same envelopes submitted in process — admission,
    // batching, and claim delivery, but no frames and no sockets.
    group.bench_function("inproc-64", |b| {
        b.iter(|| {
            let pending: Vec<_> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| serve.submit_request(Request::new(i as u64, q.clone())))
                .collect();
            for p in pending {
                black_box(p.wait());
            }
        });
    });

    // The wire: one long-lived loopback server + connection, 64
    // pipelined frames per iteration. The in-flight cap is raised above
    // the batch so the whole iteration can form one flush, as in the
    // in-process row.
    let mut server = ServeServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&serve) as Arc<dyn NetHandler>,
        ServerConfig {
            max_inflight_per_conn: 128,
            read_timeout: Duration::from_secs(30),
        },
    )
    .expect("bind bench server");
    let addr = format!("127.0.0.1:{}", server.local_addr().port());
    let mut client = NetClient::connect(&addr, &ClientConfig::default()).expect("connect");

    // One packed burst per iteration (`send_requests`): all 64 frames
    // leave in a single write_all, arrive together, and the whole burst
    // is eligible for one flush — per-request writes with TCP_NODELAY
    // used to trickle arrivals through the reader and cap flushes at a
    // mean batch of ~23.
    let burst: Vec<Request> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| Request::new(i as u64, q.clone()))
        .collect();
    group.bench_function("wire-64", |b| {
        b.iter(|| {
            client.send_requests(&burst).expect("burst send");
            for _ in 0..burst.len() {
                black_box(client.recv_response().expect("response"));
            }
        });
    });

    // The flush-size gate at the end is about packed bursts: read the
    // counters before the windowed row adds its many small flushes.
    let m = serve.metrics();
    let io = server.io_stats();

    // The perf ledger's closed-loop shape: a window of 32 in flight,
    // refilled one `send_request` per reply. Flushes are whatever
    // queued while the executor was busy, so they are small and many;
    // the row prices per-request writes, reader and writer wake-ups and
    // how well replies answered together share a `write`.
    const WINDOW: usize = 32;
    group.bench_function("wire-window-32", |b| {
        b.iter(|| {
            let mut unsent = burst.iter();
            for request in unsent.by_ref().take(WINDOW) {
                client.send_request(request).expect("send");
            }
            for _ in 0..burst.len() {
                black_box(client.recv_response().expect("response"));
                if let Some(request) = unsent.next() {
                    client.send_request(request).expect("send");
                }
            }
        });
    });

    group.finish();
    drop(client);
    let windowed = server.io_stats();
    server.shutdown();
    serve.shutdown();
    println!(
        "serve behind the wire (through wire-64): batches {}, mean batch {:.1}, max batch {}, \
         mean queue wait {:.1} µs",
        m.batches,
        m.mean_batch_size(),
        m.max_batch,
        m.mean_queue_wait().as_secs_f64() * 1e6,
    );
    let per_call = |frames: u64, calls: u64| frames as f64 / calls.max(1) as f64;
    println!(
        "frames per read / per write: wire-64 {:.1} / {:.1}, wire-window-32 {:.1} / {:.1}",
        per_call(io.frames_in, io.read_calls),
        per_call(io.frames_out, io.write_calls),
        per_call(
            windowed.frames_in - io.frames_in,
            windowed.read_calls - io.read_calls
        ),
        per_call(
            windowed.frames_out - io.frames_out,
            windowed.write_calls - io.write_calls
        ),
    );
    // Regression gate on admission quality, not just latency: packed
    // bursts must actually fill flushes. The pre-burst client averaged
    // ~23 per flush at cap 64; a burst client that slides back there
    // means the send path degraded to per-frame segments again. The
    // inproc iterations share this ServeEngine (and submit singles), so
    // the bound is deliberately below the burst-only mean.
    assert!(
        m.mean_batch_size() > 32.0,
        "mean flush size {:.1} at cap 64 — burst sends are not filling batches",
        m.mean_batch_size(),
    );
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
