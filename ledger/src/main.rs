//! The perf ledger: one command, one workload per run, every metric by
//! name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets the world up (twice, with half the
//! measured time after each: `load::SETUPS`), drives the workload's own loop with tracing
//! off, checks every reply, and reports the end-to-end metrics, timings
//! scaled to the reference host speed (`host.rs`). With `--trace 1` it
//! runs the traced pass of `layers.rs` and reports the per-layer metrics.
//! The last line of standard output is the result as one JSON object;
//! everything else goes to standard error. See README.md beside this
//! package for the definitions.

mod catalog;
mod gen;
mod host;
mod layers;
mod load;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use catalog::Metric;
use host::HostSpeed;
use load::{Phase, Tally, SETUPS};
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// World size. The default is the ledger's world; tests shrink it.
    pois: usize,
    /// Whole measurements per untraced run; each metric is their median.
    repeat: usize,
}

const USAGE: &str = "usage: ledger --workload <engine-paper|wire-mixed|wire-zipf|durable-mixed> \
--seed <n> --seconds <s> --trace <0|1> [--repeat <n>] [--pois <n>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut pois, mut repeat) = (sut::WORLD_POIS, 1usize);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => trace = Some(number()? != 0),
            "--pois" => pois = number()? as usize,
            "--repeat" => repeat = number()? as usize,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        pois,
        repeat,
    };
    if args.seconds < 1.0 || args.pois < 500 || args.repeat < 1 {
        return Err("--seconds and --repeat start at 1, --pois at 500".to_owned());
    }
    Ok(args)
}

/// A directory inside the build directory — and so inside the checkout —
/// for the durable engine's files and the trace.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the path of this program");
    let dir = exe.parent().expect("a program lives in a directory");
    dir.join("ledger-scratch")
}

/// Prints the metrics as a table on standard error and the result object
/// as the last line of standard output. Fails when a declared metric was
/// not measured or is not a finite number.
fn report(declared: &[Metric], values: &BTreeMap<&str, f64>, tally: &Tally) -> Result<(), String> {
    let mut fields = Vec::new();
    for m in declared {
        let value = *values
            .get(m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", m.name));
        }
        let gate = m
            .bound
            .map_or(String::new(), |b| format!(", may worsen by {b}"));
        eprintln!(
            "ledger: {:<34} {:>16.4} {:<6} ({} is better{gate})",
            m.name, value, m.unit, m.better
        );
        fields.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        ));
    }
    if let Some(extra) = values
        .keys()
        .find(|k| declared.iter().all(|m| m.name != **k))
    {
        return Err(format!("metric {extra} is not declared in the catalog"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    Ok(())
}

/// One set-up of the world, logged: the world, how long each part took
/// by the clock, the CPU seconds the process spent on it, and the host
/// speed sampled from a thread beside it.
fn set_up(args: &Args, label: &str, host: &HostSpeed) -> (sut::World, sut::SetupTimes, f64, f64) {
    let from = Instant::now();
    let cpu_from = host::process_cpu_time();
    let sampler = host.sampler();
    let (world, times) = sut::World::setup(args.pois);
    drop(sampler);
    let speed = host.between(from, Instant::now());
    let cpu_s = (host::process_cpu_time() - cpu_from).as_secs_f64();
    eprintln!(
        "ledger: set-up {label}: {:.3} s, {cpu_s:.3} s of CPU (generate {:.3}, prepare {:.3}, queries {:.3}, warm {:.3}) \
         at host speed {speed:.3}",
        times.total_s(),
        times.generate_s,
        times.prepare_s,
        times.queries_s,
        times.warm_s
    );
    let absent = gen::KEYWORDS
        .iter()
        .filter(|k| world.keyword_absent(k))
        .count();
    eprintln!(
        "ledger:   {} paper queries; {absent} of {} keyword filters are absent from the corpus",
        world.paper.len(),
        gen::KEYWORDS.len()
    );
    (world, times, cpu_s, speed)
}

fn run(args: &Args) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "ledger: workload {} seed {} seconds {} trace {} | world {} POIs (seed {}) | {} cores",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.pois,
        sut::WORLD_SEED,
        cores
    );
    eprintln!("ledger: why this workload: {}", args.workload.why);
    let scratch = scratch_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let mut tally = Tally::default();
    let mut tracer = trace::Tracer::new(args.trace);
    let result = if args.trace {
        traced(args, &scratch, &mut tracer, &mut tally)
    } else {
        end_to_end(args, &scratch, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let values = result?;

    if args.trace {
        let path = scratch_dir().join(format!("trace-{}.json", args.workload.name));
        tracer
            .write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "ledger: {} spans in {}",
            tracer.spans().len(),
            path.display()
        );
    }
    for cause in &tally.causes {
        eprintln!("ledger: FAILED {cause}");
    }
    eprintln!(
        "ledger: {} operations attempted, {} failed",
        tally.attempted, tally.failed
    );
    let declared = if args.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    report(declared, &values, &tally)
}

/// `--trace 1`: one set-up, then the traced pass.
fn traced(
    args: &Args,
    scratch: &std::path::Path,
    tracer: &mut trace::Tracer,
    tally: &mut Tally,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let (world, times, _, _) = set_up(args, "1/1", &HostSpeed::new(false));
    let values = layers::run(
        args.workload,
        &world,
        times,
        args.seed,
        args.seconds,
        scratch,
        tracer,
        tally,
    )?;
    Ok(values.into_iter().collect())
}

/// `--trace 0`: the measured time is split into one segment per set-up.
/// Each segment sets the world up afresh (the same world: its seed is
/// fixed) and drives the workload's own loop on it, so `setup_s` is the
/// median of several set-ups (of their CPU seconds at the reference host
/// speed). The segments' slices are then summarised
/// as one phase. `--repeat` does all of that several times and reports
/// each metric's median.
fn end_to_end(
    args: &Args,
    scratch: &std::path::Path,
    tally: &mut Tally,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let phase = Phase::for_segment(args.seconds);
    let host = HostSpeed::new(true);
    let workload_host = host.with_sensitivity(args.workload.host_sensitivity);
    let mut repeats: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in 0..args.repeat {
        let (mut setup_s, mut setup_as_timed_s) = (Vec::new(), Vec::new());
        let mut slices = Vec::new();
        let (mut f1_at_10, mut resident_bytes_per_poi) = (0.0, 0.0);
        let mut survived_restarts = 0;
        for segment in 0..SETUPS {
            let label = format!("{}/{SETUPS}", segment + 1);
            let (world, times, cpu_s, speed) = set_up(args, &label, &host);
            // CPU seconds, not seconds by the clock: see the README,
            // "World and set-up".
            setup_s.push(cpu_s * speed);
            setup_as_timed_s.push((times.total_s(), cpu_s));
            // Memory is read before the workload: writes would change it.
            resident_bytes_per_poi = world.footprint().resident_per_poi;
            let own = workloads::run_own(
                args.workload,
                &world,
                args.seed,
                phase,
                &workload_host,
                scratch,
                tally,
            )?;
            eprintln!(
                "ledger: segment {}/{SETUPS}: {} operations in {}",
                segment + 1,
                own.primary.samples,
                own.slices
            );
            for (label, value, unit) in &own.notes {
                eprintln!("ledger:   {label}: {value:.4} {unit}");
            }
            f1_at_10 = own.f1_at_10;
            survived_restarts += usize::from(own.survived_restart);
            slices.extend(own.primary.slices);
        }
        let primary = stats::summarize(slices).ok_or("no operation was measured")?;
        let per_slice = |f: &dyn Fn(&stats::Slice) -> f64| -> String {
            let readings: Vec<String> = primary
                .slices
                .iter()
                .map(|s| format!("{:.0}", f(s)))
                .collect();
            readings.join(" ")
        };
        // The readings as timed; the metrics scale each by the slice's
        // host speed (to the power of the workload's sensitivity).
        eprintln!(
            "ledger: per slice, host speed ^ {}, percent: {}",
            args.workload.host_sensitivity,
            per_slice(&|s| s.host * 100.0)
        );
        eprintln!(
            "ledger: per slice, ops/s: {}",
            per_slice(&|s| s.latencies_us.len() as f64 / s.duration_s)
        );
        eprintln!(
            "ledger: per slice, p50 us: {}",
            per_slice(&|s| stats::percentile(&s.latencies_us, 50.0))
        );
        eprintln!(
            "ledger: per slice, p95 us: {}",
            per_slice(&|s| stats::percentile(&s.latencies_us, 95.0))
        );
        eprintln!(
            "ledger: repeat {}/{}: {} operations in {} slices; supporting tails: \
             p95 = {:.1} us, p{} = {:.1} us",
            r + 1,
            args.repeat,
            primary.samples,
            primary.slices.len(),
            primary.p95_us,
            primary.tail_pct,
            primary.tail_us
        );
        // What the clock said, before any scaling: the same estimator
        // over the same slices with every host speed taken as 1.
        let unscaled = primary.slices.iter().map(|s| stats::Slice {
            host: 1.0,
            ..s.clone()
        });
        let as_timed = stats::summarize(unscaled.collect()).ok_or("no operation was measured")?;
        let median_of = |f: fn(&(f64, f64)) -> f64| {
            stats::median(&setup_as_timed_s.iter().map(f).collect::<Vec<_>>())
        };
        eprintln!(
            "ledger: as timed: set-up {:.4} s by the clock, {:.4} s of CPU; \
             ops_per_s {:.4}, op_p50_us {:.4}",
            median_of(|t| t.0),
            median_of(|t| t.1),
            as_timed.ops_per_s,
            as_timed.p50_us
        );
        for (name, value) in [
            ("setup_s", stats::median(&setup_s)),
            ("ops_per_s", primary.ops_per_s),
            ("op_p50_us", primary.p50_us),
            ("f1_at_10", f1_at_10),
            ("resident_bytes_per_poi", resident_bytes_per_poi),
            // Every restart of the run must have been survived.
            (
                "durability_level",
                1.0 + f64::from(u8::from(survived_restarts == SETUPS)),
            ),
        ] {
            repeats.entry(name).or_default().push(value);
        }
    }
    if args.repeat > 1 {
        eprintln!(
            "ledger: over {} repeats: min / median / max, max/min - 1",
            args.repeat
        );
        for (name, v) in &repeats {
            let s = stats::spread(v);
            eprintln!(
                "ledger:   {name:<24} {:>12.3} {:>12.3} {:>12.3}  {:.4}",
                s.min, s.median, s.max, s.spread
            );
        }
    }
    Ok(repeats
        .into_iter()
        .map(|(name, v)| (name, stats::median(&v)))
        .collect())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
