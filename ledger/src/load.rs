//! Load loops: the closed in-process loop, the closed-window wire loop,
//! the open loop, and the writer-beside-reader loop — plus the output
//! checks every reply goes through. Loops see the system only through
//! the handles of `sut.rs`.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::gen::{self, Mutation, MutationStream, Query};
use crate::host::HostSpeed;
use crate::stats::{self, Sample, Slice, Summary};
use crate::sut::{self, Client, Durable, Engine, Reply, ServeCounters, Server, World};
use crate::trace::{SpanId, Tracer, NO_PARENT};

/// Requests a wire client keeps in flight: as many as the server lets one
/// connection have (`ServerConfig::default().max_inflight_per_conn`), so
/// that a flush holds enough execution to outweigh the batcher's 2 ms
/// latency budget on a world this small.
pub const WINDOW: usize = 32;
/// One wire reply in this many is asked again in process and compared.
const REASK_EVERY: u64 = 20;
/// One write in this many is checked for read-your-writes.
const SAMPLE_WRITES_EVERY: u64 = 32;
/// Fixed probe queries compared across the restart.
const RESTART_PROBES: u64 = 32;
/// The reader beside the durable writer starts a query this often (or
/// as soon as the previous one is back, if that is later): ~500 reads a
/// second, a tenth of a core. Reading flat out kept both cores full, and
/// whenever the host took a core away the reader was parked inside the
/// mutation gate with the writer waiting behind it — the write numbers
/// then moved by a third between runs.
const READ_INTERVAL: Duration = Duration::from_millis(2);
/// `Reply::strategy` of the one approximate strategy.
const HNSW: usize = 1;
/// Rate of the open loop, requests per second.
pub const OPEN_LOOP_RATE: f64 = 400.0;
/// Latency limit of the open loop, from the intended send time.
pub const OPEN_LOOP_SLO_US: f64 = 50_000.0;

/// Set-ups per untraced run, each followed by its share of the measured
/// time; `setup_s` is their median.
pub const SETUPS: usize = 2;

/// Operations attempted and failed. A failed, refused, wrong or
/// unparsable reply is a failed operation, counted — never a panic.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub causes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(cause) = result {
            self.failed += 1;
            if self.causes.len() < 8 {
                self.causes.push(format!("{what}: {cause}"));
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for cause in other.causes {
            if self.causes.len() < 8 {
                self.causes.push(cause);
            }
        }
    }
}

/// How long to warm up and to measure, and into how many slices the
/// measured time is cut.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub warm_s: f64,
    pub measure_s: f64,
    pub slices: usize,
}

impl Phase {
    /// One of [`SETUPS`] equal parts of `--seconds`, each measured after
    /// its own set-up: one-second slices (at least four slices, so
    /// shorter ones in a smoke run) after a warm-up of one second at
    /// most.
    pub fn for_segment(seconds: f64) -> Self {
        let measure_s = seconds / SETUPS as f64;
        Self {
            warm_s: (measure_s / 4.0).min(1.0),
            measure_s,
            slices: (measure_s.round() as usize).max(4),
        }
    }

    pub fn slice_s(&self) -> f64 {
        self.measure_s / self.slices as f64
    }

    fn summarize(&self, samples: &[Sample], measure_from: Instant, host: &HostSpeed) -> Summary {
        let slices = time_slices_at(samples, self.slice_s(), self.slices, measure_from, host);
        stats::summarize(slices).expect("a measured phase completes at least one operation")
    }

    /// Checkpoint cycles the durable writer measures: one per 1.25 s of
    /// measured time, which is what a cycle took when the ledger was
    /// sized. A fixed count of writes rather than a time, because a write
    /// gets slower with every write before it (the live overlay is copied
    /// per write), so only equal counts compare.
    pub fn write_cycles(&self) -> usize {
        ((self.measure_s / 1.25).round() as usize).max(1)
    }
}

/// [`stats::time_slices`] of a phase that started at `measure_from`, each
/// slice with the host speed sampled while it ran.
fn time_slices_at(
    samples: &[Sample],
    slice_s: f64,
    slices: usize,
    measure_from: Instant,
    host: &HostSpeed,
) -> Vec<Slice> {
    let mut out = stats::time_slices(samples, slice_s, slices);
    for (i, slice) in out.iter_mut().enumerate() {
        let from = measure_from + Duration::from_secs_f64(i as f64 * slice_s);
        slice.host = host.between(from, from + Duration::from_secs_f64(slice_s));
    }
    out
}

/// Mean F1@10 of the paper-protocol queries asked through `ask`, each
/// reply checked like any other.
pub fn quality(world: &World, tally: &mut Tally, mut ask: impl FnMut(&Query) -> Reply) -> f64 {
    let mut sum = 0.0;
    for p in &world.paper {
        let reply = ask(&p.query);
        tally.record("quality pass", world.check(&p.query, &reply));
        sum += World::f1_at_10(&reply, &p.answers);
    }
    sum / world.paper.len() as f64
}

/// Closed loop, one caller: the next call starts when the previous one
/// returns. `call` is one operation against the system; it is the only
/// thing timed.
pub fn closed_loop(
    world: &World,
    phase: Phase,
    host: &HostSpeed,
    tally: &mut Tally,
    mut next: impl FnMut() -> Query,
    mut call: impl FnMut(&Query) -> Reply,
) -> Summary {
    let mut samples = Vec::new();
    let mut probe = host.probe();
    let start = Instant::now();
    let measure_from = start + Duration::from_secs_f64(phase.warm_s);
    let end = measure_from + Duration::from_secs_f64(phase.measure_s);
    loop {
        probe.tick();
        let q = next();
        let t0 = Instant::now();
        let reply = call(&q);
        let done = Instant::now();
        tally.record("closed loop", world.check(&q, &reply));
        if done >= end {
            break;
        }
        if done >= measure_from {
            samples.push(Sample {
                at_s: (done - measure_from).as_secs_f64(),
                latency_us: (done - t0).as_secs_f64() * 1e6,
            });
        }
    }
    phase.summarize(&samples, measure_from, host)
}

/// What the wire loop measured beside its [`Summary`].
pub struct WireRun {
    pub summary: Summary,
    pub f1_at_10: f64,
    pub counters: ServeCounters,
    /// Share of replies answered at admission, as the client saw it.
    pub cached_share: f64,
}

/// Closed loop over the wire: one connection to a loopback server with a
/// fixed window of [`WINDOW`] requests in flight. Latency is from the
/// send of a request to the receipt of its reply. One reply in twenty is
/// asked again in process after the phase and the ranked ids must match.
#[allow(clippy::too_many_arguments)]
pub fn wire_loop(
    world: &World,
    engine: &Engine,
    cache_entries: usize,
    negative_cache: bool,
    phase: Phase,
    host: &HostSpeed,
    tracer: &mut Tracer,
    tally: &mut Tally,
    mut next: impl FnMut() -> Query,
) -> Result<WireRun, String> {
    let server = Server::start(engine, cache_entries, negative_cache);
    let mut client = Client::connect(server.addr())?;
    let mut in_flight: VecDeque<(u64, Instant, SpanId, Query)> = VecDeque::new();
    let mut reasks: Vec<(Query, Reply)> = Vec::new();
    let mut samples = Vec::new();
    let (mut replies, mut cached) = (0u64, 0u64);
    let mut probe = host.probe();

    let start = Instant::now();
    let measure_from = start + Duration::from_secs_f64(phase.warm_s);
    let end = measure_from + Duration::from_secs_f64(phase.measure_s);
    let mut sent = 0u64;
    let mut sending = true;
    loop {
        while sending && in_flight.len() < WINDOW {
            let q = next();
            let span = tracer.start("wire.request", NO_PARENT, sent);
            let at = Instant::now();
            client.send(sent, &q)?;
            in_flight.push_back((sent, at, span, q));
            sent += 1;
        }
        let Some((id, at, span, q)) = in_flight.pop_front() else {
            break;
        };
        let (got, reply) = client.recv()?;
        let done = Instant::now();
        tracer.end(span);
        let check = if got == id {
            world.check(&q, &reply)
        } else {
            Err(format!("reply {got} where {id} was due"))
        };
        tally.record("wire reply", check);
        replies += 1;
        cached += u64::from(reply.cached);
        if done >= end {
            sending = false;
        } else if done >= measure_from {
            samples.push(Sample {
                at_s: (done - measure_from).as_secs_f64(),
                latency_us: (done - at).as_secs_f64() * 1e6,
            });
        }
        if id.is_multiple_of(REASK_EVERY) && reply.ok {
            reasks.push((q, reply));
        }
        probe.tick();
    }

    // The planner re-prices its strategies from observed latencies, and
    // the HNSW strategy is approximate: a re-ask that is planned onto
    // another strategy may rightly answer differently, so only answers
    // from the same strategy are compared.
    let mut incomparable = 0usize;
    for (q, wire) in &reasks {
        let direct = engine.query(q);
        if direct.strategy != wire.strategy && !(direct.ids.is_empty() && wire.ids.is_empty()) {
            incomparable += 1;
            continue;
        }
        let same = if (&direct.ids, direct.recommended) == (&wire.ids, wire.recommended) {
            Ok(())
        } else {
            Err(format!(
                "wire {:?} but in process {:?}",
                wire.ids, direct.ids
            ))
        };
        tally.record("re-ask in process", same);
    }
    eprintln!(
        "ledger: {} replies asked again in process, {incomparable} planned onto another strategy",
        reasks.len()
    );
    let mut quality_error = None;
    let f1_at_10 = quality(world, tally, |q| {
        client.request(u64::MAX, q).unwrap_or_else(|e| {
            quality_error = Some(e.clone());
            Reply::failed(e)
        })
    });
    let counters = server.counters();
    drop(client);
    server.stop();
    if let Some(e) = quality_error {
        return Err(e);
    }
    Ok(WireRun {
        summary: phase.summarize(&samples, measure_from, host),
        f1_at_10,
        counters,
        cached_share: cached as f64 / replies.max(1) as f64,
    })
}

/// What the open loop measured.
pub struct OpenRun {
    pub sent: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
    pub slo_miss_share: f64,
    /// How late the generator ran at worst.
    pub max_late_us: f64,
}

/// Open loop over the wire: requests leave on a fixed schedule whether
/// or not replies have come back — a sender and a receiver thread share
/// one connection — and each is timed from when it was *due* to be sent,
/// so a stall charges every request queued behind it. A request that
/// fails, is refused or gets no reply misses the latency limit.
pub fn open_loop(
    world: &World,
    engine: &Engine,
    cache_entries: usize,
    negative_cache: bool,
    seconds: f64,
    tally: &mut Tally,
    mut next: impl FnMut() -> Query,
) -> Result<OpenRun, String> {
    let server = Server::start(engine, cache_entries, negative_cache);
    let (mut sender, mut receiver) = sut::raw_connect(server.addr())?;
    let count = (OPEN_LOOP_RATE * seconds).ceil() as usize;
    let queries: Vec<Query> = (0..count).map(|_| next()).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / OPEN_LOOP_RATE);

    let (late_us, received) = std::thread::scope(|scope| {
        let sending = scope.spawn(|| {
            let mut late_us = vec![f64::NAN; count];
            for (i, q) in queries.iter().enumerate() {
                if let Some(wait) = due(i).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let at = Instant::now();
                if sender.send(i as u64, q).is_err() {
                    break;
                }
                late_us[i] = (at - due(i)).as_secs_f64() * 1e6;
            }
            late_us
        });
        let receiving = scope.spawn(|| {
            let mut received: Vec<Option<(Instant, Reply)>> = vec![None; count];
            for _ in 0..count {
                match receiver.recv() {
                    Ok((id, reply)) if (id as usize) < count => {
                        received[id as usize] = Some((Instant::now(), reply));
                    }
                    _ => break,
                }
            }
            received
        });
        (
            sending.join().expect("the open-loop sender does not panic"),
            receiving
                .join()
                .expect("the open-loop receiver does not panic"),
        )
    });
    server.stop();

    let mut latencies = Vec::with_capacity(count);
    let mut misses = 0usize;
    for (i, slot) in received.iter().enumerate() {
        let outcome = match slot {
            Some((at, reply)) => {
                let latency_us = (*at - due(i)).as_secs_f64() * 1e6;
                latencies.push(latency_us);
                if latency_us > OPEN_LOOP_SLO_US || !reply.ok {
                    misses += 1;
                }
                world.check(&queries[i], reply)
            }
            None => {
                misses += 1;
                Err("no reply".to_owned())
            }
        };
        tally.record("open-loop reply", outcome);
    }
    if latencies.is_empty() {
        return Err("the open loop received no reply".to_owned());
    }
    latencies.sort_by(f64::total_cmp);
    Ok(OpenRun {
        sent: late_us.iter().filter(|l| !l.is_nan()).count() as u64,
        p50_us: stats::percentile(&latencies, 50.0),
        p99_us: stats::percentile(&latencies, 99.0),
        p999_us: stats::percentile(&latencies, 99.9),
        max_us: latencies[latencies.len() - 1],
        slo_miss_share: misses as f64 / count as f64,
        max_late_us: late_us.iter().copied().fold(0.0, f64::max),
    })
}

/// What the writer-beside-reader loop measured.
pub struct DurableRun {
    /// The writer, summarised with checkpoint cycles as its slices:
    /// `ops_per_s` is a cycle's writes per second, its checkpoint stall
    /// included; latencies are `DurableEngine::mutate` calls.
    pub writer: Summary,
    pub reader: Summary,
    pub f1_at_10: f64,
    /// `DurableEngine::create`: the initial snapshot.
    pub save_s: f64,
    /// Median duration of the writes that paid for a checkpoint.
    pub checkpoint_stall_ms: f64,
    pub checkpoints: u64,
    pub writes: u64,
    pub wal_bytes_per_write: f64,
    pub snapshot_bytes: u64,
    /// 1 when the directory reopened after the restart and every answer
    /// matched, 0 otherwise.
    pub durability_ok: f64,
    /// `DurableEngine::open`, when it worked.
    pub recover_s: f64,
}

/// A written POI the run looks up again.
struct WrittenPoi {
    id: u32,
    lookup: Query,
    deleted: bool,
}

impl WrittenPoi {
    /// The look-up for an acknowledged insert or delete: a 1 km box
    /// around the POI asking for its name. Tip updates are not looked up.
    fn of(world: &World, m: &Mutation, inserted: Option<u32>) -> Option<WrittenPoi> {
        match m {
            Mutation::Insert { name, lat, lon, .. } => Some(WrittenPoi {
                id: inserted?,
                // The last word of a generated name is unique in the
                // world; as a keyword filter it leaves one right answer.
                lookup: gen::lookup_request(*lat, *lon, 1.0, name, name.split(' ').next_back()),
                deleted: false,
            }),
            Mutation::Delete { id } => {
                let (lat, lon, name) = world.locate(*id)?;
                Some(WrittenPoi {
                    id: *id,
                    lookup: gen::lookup_request(lat, lon, 1.0, &name, None),
                    deleted: true,
                })
            }
            Mutation::UpdateTips { .. } => None,
        }
    }
}

fn dir_bytes(dir: &Path, skip: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path(), skip),
            Ok(m) if e.file_name() != skip => m.len(),
            _ => 0,
        })
        .sum()
}

/// Writes beside reads on a durable engine in `dir`, two threads. The
/// writer issues single `mutate` calls back to back. A checkpoint cycle
/// is the writes from one checkpoint to the next (256 under the default
/// policy, the last of them paying for the snapshot). The log is empty
/// after `create`, so the first write opens a cycle;
/// [`Phase::write_cycles`] whole cycles are measured with no warm-up (a
/// cold first cycle is one of the slices the summary is taken over), so
/// every run does the same work and the log bytes and checkpoint count
/// repeat exactly. The reader asks `next_read` queries on the same
/// engine, one every [`READ_INTERVAL`], until the writer is done. Then
/// the restart: drop the engine, reopen the directory, and compare fixed
/// probe queries and every sampled write with the answers from before. A
/// directory that does not reopen sets `durability_ok` to 0 and the cause
/// is logged; the run carries on.
#[allow(clippy::too_many_arguments)]
pub fn durable_loop(
    world: &World,
    dir: &Path,
    seed: u64,
    phase: Phase,
    host: &HostSpeed,
    writes: &mut MutationStream,
    tracer: &mut Tracer,
    tally: &mut Tally,
    mut next_read: impl FnMut() -> Query + Send,
) -> Result<DurableRun, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let durable = Durable::create(world, dir)?;
    let save_s = t.elapsed().as_secs_f64();
    let f1_at_10 = quality(world, tally, |q| durable.query(q));

    let stop = AtomicBool::new(false);
    let mut cycles: Vec<Slice> = Vec::new();
    let mut stalls_ms = Vec::new();
    let mut sampled: Vec<WrittenPoi> = Vec::new();
    let (mut log_bytes, mut logged_writes, mut prev_wal_bytes) = (0u64, 0u64, 0u64);
    let mut write_error = None;

    let (read_samples, read_tally, measure_from, measured_wall_s) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            let mut samples = Vec::new();
            let mut tally = Tally::default();
            let mut due = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                due += READ_INTERVAL;
                let q = next_read();
                let t0 = Instant::now();
                let reply = durable.query(&q);
                let done = Instant::now();
                tally.record("read beside writes", world.check(&q, &reply));
                samples.push((done, (done - t0).as_secs_f64() * 1e6));
            }
            (samples, tally)
        });

        let measure_from = Instant::now();
        let mut cycle_from = measure_from;
        let mut cycle = Slice::default();
        let mut n = 0u64;
        let mut probe = host.probe();
        while cycles.len() < phase.write_cycles() {
            probe.tick();
            let Some(m) = writes.next() else {
                write_error = Some("the mutation stream ran dry".to_owned());
                break;
            };
            let span = tracer.start("durable.mutate", NO_PARENT, n);
            let t0 = Instant::now();
            let result = durable.mutate(&m);
            let done = Instant::now();
            tracer.end(span);
            let receipt = match result {
                Ok(r) => r,
                Err(e) => {
                    tally.record("mutate", Err(e.clone()));
                    write_error = Some(e);
                    break;
                }
            };
            tally.record("mutate", Ok(()));
            let latency_us = (done - t0).as_secs_f64() * 1e6;
            if !receipt.checkpointed {
                log_bytes += receipt.wal_bytes - prev_wal_bytes;
                logged_writes += 1;
            }
            prev_wal_bytes = receipt.wal_bytes;
            if n.is_multiple_of(SAMPLE_WRITES_EVERY) {
                sampled.extend(WrittenPoi::of(world, &m, receipt.inserted));
            }
            n += 1;
            cycle.latencies_us.push(latency_us);
            if receipt.checkpointed {
                cycle.duration_s = (done - cycle_from).as_secs_f64();
                cycle.kind = cycles.len();
                cycle.host = host.between(cycle_from, done);
                cycle_from = done;
                stalls_ms.push(latency_us / 1000.0);
                cycles.push(std::mem::take(&mut cycle));
            }
        }
        let writer_done = Instant::now();
        stop.store(true, Ordering::Relaxed);
        let (raw, read_tally) = reading.join().expect("the reader does not panic");
        // Reads that completed while the writer ran.
        let samples: Vec<Sample> = raw
            .iter()
            .filter_map(|&(at, latency_us)| {
                at.checked_duration_since(measure_from).map(|d| Sample {
                    at_s: d.as_secs_f64(),
                    latency_us,
                })
            })
            .collect();
        (
            samples,
            read_tally,
            measure_from,
            (writer_done - measure_from).as_secs_f64(),
        )
    });
    tally.absorb(read_tally);
    if let Some(e) = write_error {
        let _ = std::fs::remove_dir_all(dir);
        return Err(e);
    }

    // Read-your-writes on the final state: a sampled insert is found by
    // its name in a 1 km box, a sampled delete is never returned.
    let mut before: Vec<(Query, Reply)> = Vec::new();
    for w in &sampled {
        let reply = durable.query(&w.lookup);
        let found = reply.ids.contains(&w.id);
        let verdict = match (w.deleted, found) {
            (false, true) | (true, false) => world.check(&w.lookup, &reply),
            (false, false) => Err(format!(
                "inserted POI {} not found by name among {} results",
                w.id,
                reply.ids.len()
            )),
            (true, true) => Err(format!("deleted POI {} returned", w.id)),
        };
        tally.record("read your writes", verdict);
        before.push((w.lookup.clone(), reply));
    }
    for i in 0..RESTART_PROBES {
        let q = gen::reader_request(&world.terrain, seed ^ 0x0070_726f_6265, i);
        let reply = durable.query(&q);
        tally.record("restart probe", world.check(&q, &reply));
        before.push((q, reply));
    }
    let snapshot_bytes = dir_bytes(dir, "wal.log");

    // The restart. Nothing of the engine survives but the directory.
    drop(durable);
    let t = Instant::now();
    let (durability_ok, recover_s) = match Durable::reopen(world, dir) {
        Ok(reopened) => {
            let recover_s = t.elapsed().as_secs_f64();
            let mut all_match = true;
            for (q, was) in &before {
                let after = reopened.query(q);
                // The reopened engine rebuilds its HNSW graph and
                // re-calibrates its planner, so only answers planned
                // onto the same exact strategy must be equal.
                if after.strategy != was.strategy || was.strategy == Some(HNSW) {
                    continue;
                }
                let same = if after.ids == was.ids {
                    Ok(())
                } else {
                    all_match = false;
                    Err(format!(
                        "{:?} before the restart, {:?} after",
                        was.ids, after.ids
                    ))
                };
                tally.record("answer after restart", same);
            }
            (f64::from(u8::from(all_match)), recover_s)
        }
        Err(cause) => {
            eprintln!("ledger: durability_ok = 0: the directory did not reopen: {cause}");
            (0.0, 0.0)
        }
    };
    let _ = std::fs::remove_dir_all(dir);

    let measured_writes: usize = cycles.iter().map(|c| c.latencies_us.len()).sum();
    let reader_slices = time_slices_at(
        &read_samples,
        measured_wall_s / phase.slices as f64,
        phase.slices,
        measure_from,
        host,
    );
    Ok(DurableRun {
        writer: stats::summarize(cycles).ok_or("no checkpoint cycle completed")?,
        reader: stats::summarize(reader_slices).ok_or("the reader completed no query")?,
        f1_at_10,
        save_s,
        checkpoint_stall_ms: stats::median(&stalls_ms),
        checkpoints: stalls_ms.len() as u64,
        writes: measured_writes as u64,
        wal_bytes_per_write: log_bytes as f64 / logged_writes.max(1) as f64,
        snapshot_bytes,
        durability_ok,
        recover_s,
    })
}
