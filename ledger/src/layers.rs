//! The traced pass: per-layer numbers, measured from outside.
//!
//! Three parts. *Probes* time single public functions of a layer on
//! fixed shapes (retrieval per range band and per forced strategy,
//! whole-collection vector search, record encoding). The *layered
//! replay* sends one seeded request list — the workload's own — through
//! each entry point in turn with one request in flight, every call in a
//! harness span, so a layer's self time is its entry point's median
//! minus the next-inner entry point's on the same requests. Then the
//! workload's requests go over the wire under load (closed window, open
//! loop), and the *storage pass* runs writes beside reads on a durable
//! engine. Every per-layer metric is measured in every traced run; the
//! ones that depend on the request list differ by workload.

use std::path::Path;
use std::time::Instant;

use crate::gen::{self, MutationStream, Query, Rng};
use crate::host::HostSpeed;
use crate::load::{self, Phase, Tally};
use crate::stats;
use crate::sut::{self, Client, Engine, Server, SetupTimes, World};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{self, Shape, Workload};

/// Requests in the layered replay per second of `--seconds`.
const REPLAY_PER_SECOND: f64 = 100.0;
const REPLAY_MAX: usize = 1500;
const BATCH: usize = 64;

/// Median wall time of `f` over `reps` calls, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

pub type Values = Vec<(&'static str, f64)>;

fn probes(world: &World, seed: u64, writes: &MutationStream, out: &mut Values) {
    let engine = world.engine(false);
    let terrain = &world.terrain;
    let texts = &terrain.texts;
    out.push((
        "embed.query_us",
        median_us(texts.len(), |i| {
            std::hint::black_box(engine.embed(&texts[i]));
        }),
    ));
    let vectors: Vec<Vec<f32>> = texts.iter().take(64).map(|t| engine.embed(t)).collect();

    // `filtered_knn_keyword` per range band, at jittered centres.
    let mut rng = Rng::new(seed ^ 0x0062_616e_6473);
    let mut band = |name: &'static str, edge_km: Option<f64>, keyword: bool| {
        let queries: Vec<Query> = (0..200usize)
            .map(|i| {
                let range = match edge_km {
                    Some(km) => terrain.box_km(
                        rng.between(-gen::JITTER_KM, gen::JITTER_KM),
                        rng.between(-gen::JITTER_KM, gen::JITTER_KM),
                        km,
                        km,
                    ),
                    None => terrain.bounds,
                };
                gen::query_over(
                    range,
                    &texts[i % texts.len()],
                    keyword.then(|| gen::KEYWORDS[i % 15]),
                )
            })
            .collect();
        let us = median_us(queries.len(), |i| {
            let hits = engine.retrieve(&vectors[i % vectors.len()], &queries[i]);
            std::hint::black_box(hits.is_ok());
        });
        out.push((name, us));
    };
    band("retrieval.narrow_us", Some(2.0), false);
    band("retrieval.paper5_us", Some(5.0), false);
    band("retrieval.broad_us", None, false);
    band("retrieval.keyword_us", Some(5.0), true);

    // Each strategy forced on one 10 km band.
    let ten_km: Vec<Query> = (0..100)
        .map(|_| {
            let r = terrain.box_km(rng.between(-4.0, 4.0), rng.between(-4.0, 4.0), 10.0, 10.0);
            gen::query_over(r, "", None)
        })
        .collect();
    for (s, name) in [
        "retrieval.forced_exact_us",
        "retrieval.forced_hnsw_us",
        "retrieval.forced_grid_us",
        "retrieval.forced_irtree_us",
    ]
    .into_iter()
    .enumerate()
    {
        let us = median_us(ten_km.len(), |i| {
            std::hint::black_box(world.retrieve_forced(s, &vectors[i % vectors.len()], &ten_km[i]));
        });
        out.push((name, us));
    }

    for (name, exact) in [
        ("vecdb.exact_scan_us", true),
        ("vecdb.hnsw_search_us", false),
    ] {
        let us = median_us(50, |i| {
            std::hint::black_box(world.collection_search(&vectors[i % vectors.len()], exact));
        });
        out.push((name, us));
    }
    let fp = world.footprint();
    out.push(("vecdb.total_bytes_per_poi", fp.total_per_poi));
    out.push(("vecdb.quant_bytes_per_poi", fp.quant_per_poi));
    out.push(("vecdb.payload_bytes_per_poi", fp.payload_per_poi));
    out.push(("vecdb.id_index_bytes_per_poi", fp.id_index_per_poi));

    let records: Vec<_> = writes.clone().take(256).collect();
    out.push((
        "wal.encode_us",
        median_us(records.len(), |i| {
            std::hint::black_box(sut::wal_encode(i as u64 + 1, &records[i]));
        }),
    ));
}

/// Sends `requests` through each entry point in turn, one in flight.
fn replay(
    world: &World,
    workload: Workload,
    engine: &Engine,
    requests: &[Query],
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Values,
) -> Result<(), String> {
    // Stage calls: embed -> filtered k-NN -> refine, each in a span
    // under the request's.
    let memo_before = world.plan_memo();
    let mut strategy_counts = [0u64; 4];
    let (mut predicted_us, mut simulated_ms) = (0.0, 0.0);
    let t = Instant::now();
    for (i, q) in requests.iter().enumerate() {
        let id = i as u64;
        let root = tracer.start("stages", NO_PARENT, id);
        let vector = tracer.within("embed", root, id, || engine.embed(&q.text));
        let filtered = tracer.within("retrieve", root, id, || engine.retrieve(&vector, q));
        let reply = match filtered {
            Ok(f) => tracer.within("refine", root, id, || engine.refine(&q.text, f)),
            Err(e) => sut::Reply::failed(e),
        };
        tracer.end(root);
        tally.record("stage calls", world.check(q, &reply));
        if let Some(s) = reply.strategy {
            strategy_counts[s] += 1;
        }
        predicted_us += reply.predicted_us;
        simulated_ms += reply.simulated_refine_ms;
    }
    let stages_s = t.elapsed().as_secs_f64();
    let memo_after = world.plan_memo();
    let n = requests.len() as f64;
    let retrieve_us = tracer.durations_us("retrieve");
    out.push((
        "llm.refine_us",
        stats::median(&tracer.durations_us("refine")),
    ));
    out.push(("llm.simulated_ms", simulated_ms / n));
    for (s, name) in [
        "retrieval.strategy_share.exact",
        "retrieval.strategy_share.hnsw",
        "retrieval.strategy_share.grid",
        "retrieval.strategy_share.irtree",
    ]
    .into_iter()
    .enumerate()
    {
        out.push((name, strategy_counts[s] as f64 / n));
    }
    out.push((
        "retrieval.predicted_over_actual",
        predicted_us / retrieve_us.iter().sum::<f64>(),
    ));
    let (hits, misses) = (memo_after.0 - memo_before.0, memo_after.1 - memo_before.1);
    out.push((
        "retrieval.plan_memo_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    ));

    // `SemaSkEngine::query`: once bare for the overhead of tracing, once
    // in spans.
    let t = Instant::now();
    for q in requests {
        let reply = engine.query(q);
        tally.record("engine.query untraced", world.check(q, &reply));
    }
    let bare_s = t.elapsed().as_secs_f64();
    out.push(("trace.overhead_share", 1.0 - bare_s / stages_s));
    let mut direct: Vec<Vec<u32>> = Vec::with_capacity(requests.len());
    for (i, q) in requests.iter().enumerate() {
        let reply = tracer.within("engine.query", NO_PARENT, i as u64, || engine.query(q));
        tally.record("engine.query", world.check(q, &reply));
        direct.push(reply.ids);
    }
    let mut query_us = tracer.durations_us("engine.query");
    query_us.sort_by(f64::total_cmp);
    let tail_pct = stats::supported_tail(query_us.len());
    out.push(("engine.query_us", stats::percentile(&query_us, 50.0)));
    out.push((
        "engine.query_tail_us",
        stats::percentile(&query_us, tail_pct),
    ));
    out.push(("engine.query_tail_pct", tail_pct));
    eprintln!(
        "ledger: stage spans sum to {:.1} us at the median against engine.query {:.1} us \
         ({} samples)",
        stats::median(&tracer.durations_us("stages")),
        stats::percentile(&query_us, 50.0),
        query_us.len()
    );

    // `query_batch` of one and of 64, and how often each answers
    // differently from `query` on the same request.
    let (mut batch1_differs, mut batch64_differs) = (0usize, 0usize);
    for (i, q) in requests.iter().enumerate() {
        let replies = tracer.within("engine.batch1", NO_PARENT, i as u64, || {
            engine.batch(std::slice::from_ref(q))
        });
        tally.record("query_batch of 1", world.check(q, &replies[0]));
        batch1_differs += usize::from(replies[0].ids != direct[i]);
    }
    let batch1_us = stats::median(&tracer.durations_us("engine.batch1"));
    out.push(("engine.batch1_us", batch1_us));
    let mut per_query_us = Vec::new();
    for (b, chunk) in requests.chunks(BATCH).enumerate() {
        let t = Instant::now();
        let replies = tracer.within("engine.batch64", NO_PARENT, (b * BATCH) as u64, || {
            engine.batch(chunk)
        });
        per_query_us.push(t.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64);
        for (j, (q, reply)) in chunk.iter().zip(&replies).enumerate() {
            tally.record("query_batch of 64", world.check(q, reply));
            batch64_differs += usize::from(reply.ids != direct[b * BATCH + j]);
        }
    }
    out.push(("engine.batch64_us_per_query", stats::median(&per_query_us)));
    out.push(("engine.batch_differs_share", batch64_differs as f64 / n));
    eprintln!(
        "ledger: of {} requests, query_batch answers differently from query on {batch1_differs} \
         in batches of 1 and {batch64_differs} in batches of {BATCH}",
        requests.len()
    );

    // In-process `submit_request`, then `NetClient::request`, against
    // one server with the workload's serving configuration.
    let server = Server::start(engine, workload.cache_entries, workload.negative_cache);
    for (i, q) in requests.iter().enumerate() {
        let reply = tracer.within("serve.submit", NO_PARENT, i as u64, || {
            server.submit(i as u64, q)
        });
        tally.record("submit_request", world.check(q, &reply));
    }
    let submit_us = stats::median(&tracer.durations_us("serve.submit"));
    out.push(("serve.w1_added_us", submit_us - batch1_us));
    let mut client = Client::connect(server.addr())?;
    let mut wire_error = None;
    for (i, q) in requests.iter().enumerate() {
        let reply = tracer.within("net.request", NO_PARENT, i as u64, || {
            client.request(i as u64, q)
        });
        match reply {
            Ok(reply) => tally.record("NetClient::request", world.check(q, &reply)),
            Err(e) => {
                wire_error = Some(e);
                break;
            }
        }
    }
    drop(client);
    server.stop();
    if let Some(e) = wire_error {
        return Err(e);
    }
    out.push((
        "net.w1_added_us",
        stats::median(&tracer.durations_us("net.request")) - submit_us,
    ));

    // Frame encoding and decoding on their own.
    let sample = &requests[..requests.len().min(200)];
    let mut request_bytes = 0usize;
    let encode_us = median_us(sample.len(), |i| {
        request_bytes += std::hint::black_box(sut::encode_request(i as u64, &sample[i])).len();
    });
    let replies: Vec<Vec<u8>> = sample
        .iter()
        .enumerate()
        .map(|(i, q)| engine.encoded_reply(i as u64, q))
        .collect();
    let decode_us = median_us(replies.len(), |i| {
        std::hint::black_box(sut::decode_reply(&replies[i]));
    });
    out.push(("net.encode_request_us", encode_us));
    out.push(("net.decode_response_us", decode_us));
    out.push((
        "net.request_bytes",
        request_bytes as f64 / sample.len() as f64,
    ));
    out.push((
        "net.response_bytes",
        replies.iter().map(Vec::len).sum::<usize>() as f64 / replies.len() as f64,
    ));
    Ok(())
}

/// The whole traced pass for one workload.
#[allow(clippy::too_many_arguments)]
pub fn run(
    workload: Workload,
    world: &World,
    setup: SetupTimes,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Values, String> {
    let mut writes = MutationStream::new(&world.terrain, world.pois, seed);
    let mut out: Values = vec![
        ("datagen.generate_s", setup.generate_s),
        ("datagen.queries_s", setup.queries_s),
        ("prep.prepare_s", setup.prepare_s),
        ("prep.warm_s", setup.warm_s),
    ];
    probes(world, seed, &writes, &mut out);

    let engine = world.engine(workload.refine);
    let count = ((REPLAY_PER_SECOND * seconds) as usize).clamp(BATCH, REPLAY_MAX);
    let mut next = workloads::requests(workload.shape, world, seed);
    let requests: Vec<Query> = (0..count).map(|_| next()).collect();
    drop(next);
    replay(world, workload, &engine, &requests, tracer, tally, &mut out)?;
    let em = world.engine(false);
    out.push((
        "engine.f1_at_10_em",
        load::quality(world, tally, |q| em.query(q)),
    ));

    // The same requests under load: closed window, then open loop. Like
    // every per-layer number these are raw timings, not scaled to the
    // reference host speed: they are compared within one run.
    let raw = &HostSpeed::new(false);
    let loaded = Phase {
        warm_s: 0.5,
        measure_s: (seconds * 0.3).max(0.6),
        slices: 4,
    };
    let wire = load::wire_loop(
        world,
        &engine,
        workload.cache_entries,
        workload.negative_cache,
        loaded,
        raw,
        tracer,
        tally,
        workloads::requests(workload.shape, world, seed),
    )?;
    out.push(("serve.mean_batch", wire.counters.mean_batch));
    out.push(("serve.mean_queue_wait_us", wire.counters.mean_queue_wait_us));
    out.push(("serve.shed", wire.counters.shed as f64));
    out.push(("serve.cache_hit_rate", wire.counters.cache_hit_rate));
    out.push((
        "serve.cache_stale_evictions",
        wire.counters.cache_stale_evictions as f64,
    ));
    out.push(("serve.negative_hits", wire.counters.negative_hits as f64));
    out.push(("wire.closed_qps", wire.summary.ops_per_s));
    out.push(("wire.closed_p50_us", wire.summary.p50_us));
    out.push(("wire.closed_tail_us", wire.summary.tail_us));
    out.push(("wire.closed_tail_pct", wire.summary.tail_pct));
    let open = load::open_loop(
        world,
        &engine,
        workload.cache_entries,
        workload.negative_cache,
        (seconds * 0.3).max(0.6),
        tally,
        workloads::requests(workload.shape, world, seed),
    )?;
    out.push(("wire.open_p50_us", open.p50_us));
    out.push(("wire.open_p99_us", open.p99_us));
    out.push(("wire.open_p999_us", open.p999_us));
    out.push(("wire.open_max_us", open.max_us));
    out.push(("wire.open_slo_miss_share", open.slo_miss_share));
    out.push(("loadgen.max_late_us", open.max_late_us));
    out.push(("loadgen.sent", open.sent as f64));

    // The storage pass, last because it changes the world: apply with no
    // log first, then the durable engine.
    let apply_us: Vec<f64> = writes
        .by_ref()
        .take(BATCH)
        .map(|m| {
            let t = Instant::now();
            let applied = em.apply(&m);
            let us = t.elapsed().as_secs_f64() * 1e6;
            tally.record("apply_mutations", applied);
            us
        })
        .collect();
    let apply_us = stats::median(&apply_us);
    out.push(("engine.apply_us", apply_us));
    let storage = load::durable_loop(
        world,
        &scratch.join("durable"),
        seed,
        // Two measured checkpoint cycles at the default `--seconds`.
        Phase {
            warm_s: 0.0,
            measure_s: seconds * 0.25,
            slices: 4,
        },
        raw,
        &mut writes,
        tracer,
        tally,
        workloads::requests(Shape::Reader, world, seed),
    )?;
    eprintln!(
        "ledger: storage pass: {} writes, {} checkpoints",
        storage.writes, storage.checkpoints
    );
    out.push(("wal.bytes_per_mutation", storage.wal_bytes_per_write));
    out.push(("durable.mutations_per_s", storage.writer.ops_per_s));
    out.push(("durable.mutate_p50_us", storage.writer.p50_us));
    out.push(("durable.mutate_added_us", storage.writer.p50_us - apply_us));
    out.push(("durable.mutate_tail_us", storage.writer.tail_us));
    out.push(("durable.mutate_tail_pct", storage.writer.tail_pct));
    out.push(("durable.reader_qps", storage.reader.ops_per_s));
    out.push(("durable.reader_p50_us", storage.reader.p50_us));
    out.push(("durable.reader_tail_us", storage.reader.tail_us));
    out.push(("durable.reader_tail_pct", storage.reader.tail_pct));
    out.push(("persist.save_s", storage.save_s));
    out.push(("persist.checkpoint_stall_ms", storage.checkpoint_stall_ms));
    out.push((
        "persist.snapshot_bytes_per_poi",
        storage.snapshot_bytes as f64 / f64::from(world.pois),
    ));
    out.push(("persist.recover_s", storage.recover_s));
    out.push(("persist.durability_ok", storage.durability_ok));
    Ok(out)
}
