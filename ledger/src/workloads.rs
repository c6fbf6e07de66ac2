//! The four workloads: what each sends, through which entry point, and
//! how its end-to-end numbers are taken.

use std::path::Path;

use crate::gen::{self, MutationStream, Query, Rng, Zipf};
use crate::host::HostSpeed;
use crate::load::{self, Phase, Tally};
use crate::stats::Summary;
use crate::sut::World;
use crate::trace::Tracer;

/// Which entry point a workload's own loop drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// In-process `SemaSkEngine::query`, one caller.
    Engine,
    /// Loopback wire client with a fixed window in flight.
    Wire,
    /// `DurableEngine::mutate` beside a reader.
    Durable,
}

/// What a workload's requests look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper-protocol queries in a seeded shuffle, cycled.
    Paper,
    /// [`gen::mixed_request`] in index order: every range distinct.
    Mixed,
    /// Zipf draws over the first [`gen::ZIPF_POOL`] mixed requests.
    Zipf,
    /// [`gen::reader_request`]: 5 km boxes, no keyword.
    Reader,
}

/// One workload. `name` and `why` are what `BENCHMARK.json` records.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub path: Entry,
    pub shape: Shape,
    /// Full filter-and-refine pipeline, or embedding-only.
    pub refine: bool,
    /// Result-cache entries of the serving layer (0 = off).
    pub cache_entries: usize,
    pub negative_cache: bool,
    /// By how many per cent the workload slows when the host-speed
    /// reference (`host.rs`) slows by one: the slope of log throughput on
    /// log reference rate over the slices of thirty-odd runs (README,
    /// "Host speed"). A measured constant of the benchmark, like the
    /// reference itself; 1.0 unless the measurement says otherwise.
    pub host_sensitivity: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "engine-paper",
        why: "The paper's protocol in process with LLM refinement: refinement does most of the work; serve, net and WAL do none.",
        path: Entry::Engine,
        shape: Shape::Paper,
        refine: true,
        cache_entries: 0,
        negative_cache: false,
        // Refinement is string work over a working set the reference
        // does not have: slopes of 1.54, 1.55 and 1.63 in three batches.
        host_sensitivity: 1.5,
    },
    Workload {
        name: "wire-mixed",
        why: "The user's path over the wire, every range distinct, caches off: retrieval and vecdb do most of the work; a cache change must not move it.",
        path: Entry::Wire,
        shape: Shape::Mixed,
        refine: false,
        cache_entries: 0,
        negative_cache: false,
        host_sensitivity: 1.0,
    },
    Workload {
        name: "wire-zipf",
        why: "Same wire path, Zipf(1.1) over 4,096 shapes against a 1,024-entry result cache: admission, cache and net do most of the work.",
        path: Entry::Wire,
        shape: Shape::Zipf,
        refine: false,
        cache_entries: 1024,
        negative_cache: true,
        // Most replies are sockets and wake-ups, not cache-bound work:
        // slopes of 0.25, 0.41 and 0.45 over slices, 0.50 and 0.75 over
        // run medians.
        host_sensitivity: 0.5,
    },
    Workload {
        name: "durable-mixed",
        why: "Single durable writes beside a reader: WAL, apply, checkpoint and snapshot do most of the work; shows what readers pay for writes.",
        path: Entry::Durable,
        shape: Shape::Reader,
        refine: false,
        cache_entries: 0,
        negative_cache: false,
        host_sensitivity: 1.0,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// A request list as an endless generator, a pure function of `seed`.
pub fn requests<'a>(
    shape: Shape,
    world: &'a World,
    seed: u64,
) -> Box<dyn FnMut() -> Query + Send + 'a> {
    let terrain = &world.terrain;
    let mut i = 0u64;
    let mut index = move || {
        i += 1;
        i - 1
    };
    match shape {
        Shape::Paper => {
            let mut order: Vec<usize> = (0..world.paper.len()).collect();
            Rng::new(seed).shuffle(&mut order);
            Box::new(move || {
                world.paper[order[index() as usize % order.len()]]
                    .query
                    .clone()
            })
        }
        Shape::Mixed => Box::new(move || gen::mixed_request(terrain, seed, index())),
        Shape::Zipf => {
            let zipf = Zipf::new(gen::ZIPF_POOL, gen::ZIPF_EXPONENT);
            let mut rng = Rng::new(seed ^ 0x7a69_7066);
            Box::new(move || gen::mixed_request(terrain, seed, zipf.draw(&mut rng) as u64))
        }
        Shape::Reader => Box::new(move || gen::reader_request(terrain, seed, index())),
    }
}

/// What one measured phase of a workload's own loop produced.
pub struct OwnRun {
    /// The primary operation: a query, or a write on `durable-mixed`.
    pub primary: Summary,
    pub f1_at_10: f64,
    /// Whether the durable engine came back from its restart with every
    /// compared answer equal; `false` where none was restarted.
    pub survived_restart: bool,
    /// What a slice of `primary` is.
    pub slices: String,
    /// Supporting numbers for the log, `(label, value, unit)`.
    pub notes: Vec<(&'static str, f64, &'static str)>,
}

/// Runs the workload's own loop once.
pub fn run_own(
    workload: Workload,
    world: &World,
    seed: u64,
    phase: Phase,
    host: &HostSpeed,
    scratch: &Path,
    tally: &mut Tally,
) -> Result<OwnRun, String> {
    let engine = world.engine(workload.refine);
    let next = requests(workload.shape, world, seed);
    // The end-to-end metrics are measured with tracing off.
    let tracer = &mut Tracer::new(false);
    let time_slices = format!("{} slices of {:.2} s", phase.slices, phase.slice_s());
    match workload.path {
        Entry::Engine => {
            let primary = load::closed_loop(world, phase, host, tally, next, |q| engine.query(q));
            let f1_at_10 = load::quality(world, tally, |q| engine.query(q));
            // The LLM step must not lose quality against the
            // embedding-only order it re-ranks.
            let em = world.engine(false);
            let em_f1 = load::quality(world, tally, |q| em.query(q));
            let kept = if f1_at_10 >= em_f1 {
                Ok(())
            } else {
                Err(format!("f1_at_10 {f1_at_10} below embedding-only {em_f1}"))
            };
            tally.record("refinement keeps quality", kept);
            Ok(OwnRun {
                primary,
                f1_at_10,
                survived_restart: false,
                slices: time_slices,
                notes: vec![("embedding-only f1_at_10", em_f1, "ratio")],
            })
        }
        Entry::Wire => {
            let run = load::wire_loop(
                world,
                &engine,
                workload.cache_entries,
                workload.negative_cache,
                phase,
                host,
                tracer,
                tally,
                next,
            )?;
            Ok(OwnRun {
                primary: run.summary,
                f1_at_10: run.f1_at_10,
                survived_restart: false,
                slices: time_slices,
                notes: vec![
                    ("mean batch", run.counters.mean_batch, "count"),
                    ("answered at admission", run.cached_share, "ratio"),
                    ("cache hit rate", run.counters.cache_hit_rate, "ratio"),
                ],
            })
        }
        Entry::Durable => {
            let run = load::durable_loop(
                world,
                &scratch.join("durable"),
                seed,
                phase,
                host,
                &mut MutationStream::new(&world.terrain, world.pois, seed),
                tracer,
                tally,
                next,
            )?;
            Ok(OwnRun {
                primary: run.writer.clone(),
                f1_at_10: run.f1_at_10,
                survived_restart: run.durability_ok == 1.0,
                slices: format!("{} checkpoint cycles", run.checkpoints),
                notes: vec![
                    ("writes measured", run.writes as f64, "count"),
                    ("checkpoints", run.checkpoints as f64, "count"),
                    ("checkpoint stall", run.checkpoint_stall_ms, "ms"),
                    ("reader qps", run.reader.ops_per_s, "1/s"),
                    ("reader p50", run.reader.p50_us, "us"),
                    ("durability_ok", run.durability_ok, "0/1"),
                ],
            })
        }
    }
}
